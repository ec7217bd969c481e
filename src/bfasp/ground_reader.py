"""Reading a ground program by item skeleton, for
``ground_format.parse_ground_program``.

The text is split into token values by the model parser's ``scan``.  An
item's key is its tokens with every name made empty and every integer a
``0``; keywords and operators stay, and whitespace and comments are no
tokens, so the key does not depend on the layout.  One join of the key
tokens, split at each ``;``, gives every item's key.  Each run of items
with one key is read at once: a key that comes at least ``_COMPILE_AT``
times in the text has a generated reader (``_Emit``, through ``codegen``,
cached by key), which unpacks each item's values and builds its
``Variable``, ``Clause`` and ``LinearAtom`` or ``Rule`` straight from them;
a rarer key is walked item by item by the same grammar (``_walk`` with
``_Build``).  Both look a name up in the table of its sort, so one lookup
checks the name and the sort.  The rules' shape numbers
(``Program.shapes``) are made as they are read and handed on with the
program.

This is the format's one grammar.  At a fault (a key that is no item, an
unknown name or one of the wrong sort, a name declared twice, a second
objective) every item is walked again by ``_Build`` from the start, to
find the first fault's token; the grammar's ``_Fault`` names what it
expected there, or what is wrong, and a ``Cursor`` over the text raises
it as a FormatError at that token's line.  The ``Cursor`` first refuses a
stray character or an integer too long for ``int``.
"""

import functools
from collections import Counter
from itertools import groupby, islice

from .codegen import Writer, define, write_numbering
from .errors import FormatError
from .ground_format import _OPS, _TOKEN_RE, _line_only
from .parser import _DIGITS, _NAME_START, Cursor, _int_digits, scan
from .program import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    Rule,
    RuleShapes,
    Sort,
    VarKind,
    Variable,
)

# the words the grammar takes as keywords somewhere: a key keeps them, as
# it keeps operators and stray characters, joined by NULs
_KEYWORDS = frozenset("var bool int standard founded constraint rule head "
                      "minimize false inf".split())


class _KeyTokens(dict):
    """The key token of each token value, made when first asked for.  An
    integer too long for ``int`` to read keys as itself, which no skeleton
    admits, so that the token grammar refuses it."""

    def __init__(self):
        super().__init__()
        self.digits = _int_digits()

    def __missing__(self, value: str) -> str:
        first = value[:1]
        if first in _DIGITS:
            token = value if 0 < self.digits < len(value) else "0"
        elif first in _NAME_START and value not in _KEYWORDS:
            token = ""
        else:
            token = value
        self[value] = token
        return token


# A skeleton that comes this often in one text is read by a generated
# reader, and a rarer one walked item by item: compiling a reader costs
# about as much as walking 15 to 40 of its items (70-360 us against 4-9
# us), and a text of distinct skeletons should compile nothing.
_COMPILE_AT = 32


class _Fault(Exception):
    """An item's tokens leave the grammar at its token ``at``: the grammar
    ``expected`` something else there, or ``message`` says what is wrong."""

    def __init__(self, at: int, expected: str = "", message: str = ""):
        self.at, self.expected, self.message = at, expected, message


# -- the grammar, over an item's key tokens ----------------------------------

_ATOM_NEXT = frozenset((">=", "+", "-", "*"))
_KINDS = {"standard": VarKind.STANDARD, "founded": VarKind.FOUNDED}


# the key tokens of names: cut to nothing, or a keyword, which the grammar
# reads as a name where it wants one
_NAMED = frozenset(("",)) | _KEYWORDS


def _want(t: list, i: int, token: str):
    if t[i] != token:
        raise _Fault(i, repr(token))


def _walk(t: list, make) -> None:
    """Walk one item's key tokens ``t``, which end at its ``;``, and make its
    parts with ``make``: a ``_Build`` makes them from the item's values, an
    ``_Emit`` writes the code that does.  A part is made from the parts
    before it and the positions of the tokens it reads.  Raises _Fault at
    the first token where ``t`` is not an item; the only ``;`` in ``t`` is
    its last token."""
    word = t[0]
    if word == "var":
        if t[1] == "bool":
            i, sort, lo, hi = 2, Sort.BOOL, None, None
        elif t[1] == "int":
            i, lo = _bound(t, 2, make)
            _want(t, i, "..")
            i, hi = _bound(t, i + 1, make)
            sort = Sort.INT
        else:
            raise _Fault(1, "'bool' or 'int'")
        kind = _KINDS.get(t[i])
        if kind is None:
            raise _Fault(i, "'standard' or 'founded'")
        if t[i + 1] not in _NAMED:
            raise _Fault(i + 1, "variable name")
        _want(t, i + 2, ";")
        make.var(i + 1, kind, sort, lo, hi)
    elif word == "constraint":
        i, clause = _clause(t, 1, make)
        _want(t, i, ";")
        make.constraint(clause)
    elif word == "rule":
        i, clause = _clause(t, 1, make)
        _want(t, i, "head")
        if t[i + 1] not in _NAMED:
            raise _Fault(i + 1, "head variable")
        head = make.lookup(2, i + 1)
        _want(t, i + 2, ";")
        make.rule(clause, head)
    elif word == "minimize":
        make.objective()
        i, terms, constants = _linear(t, 1, make, 2)
        _want(t, i, ";")
        make.minimize(terms, constants)
    else:
        raise _Fault(0, "an item")


def _clause(t: list, i: int, make) -> tuple:
    lits, atoms = [], []
    if t[i] == "false":
        return i + 1, make.clause(lits, atoms)
    while True:
        token = t[i]
        if token == "~":
            if t[i + 1] not in _NAMED:
                raise _Fault(i + 1, "name")
            lits.append(make.literal(make.lookup(0, i + 1, i), False))
            i += 2
        elif token in _NAMED and t[i + 1] not in _ATOM_NEXT:
            lits.append(make.literal(make.lookup(0, i), True))
            i += 1
        else:
            i, terms, constants = _linear(t, i, make, 1)
            _want(t, i, ">=")
            i, bound = _bound(t, i + 1, make)
            atoms.append(make.atom(terms, constants, bound))
        if t[i] != "|":
            return i, make.clause(lits, atoms)
        i += 1


def _linear(t: list, i: int, make, table: int) -> tuple:
    """A sum of terms, each name looked up in ``table`` (see ``_Build``),
    and of integers."""
    terms, constants = [], []
    while True:
        sign = 1
        if t[i] == "-":
            sign, i = -1, i + 1
        token = t[i]
        if token in _NAMED:
            terms.append((make.coeff(sign, None), make.lookup(table, i)))
            i += 1
        elif token != "0":
            raise _Fault(i, "a term")
        elif t[i + 1] == "*":
            if t[i + 2] not in _NAMED:
                raise _Fault(i + 2, "name")
            terms.append((make.coeff(sign, i), make.lookup(table, i + 2, i)))
            i += 3
        else:
            constants.append(make.integer(sign, i))
            i += 1
        if t[i] == "+":
            i += 1
        elif t[i] != "-":
            return i, terms, constants


def _bound(t: list, i: int, make) -> tuple:
    sign = 1
    if t[i] == "inf":
        return i + 1, make.infinity(POS_INF)
    if t[i] == "-":
        if t[i + 1] == "inf":
            return i + 2, make.infinity(NEG_INF)
        sign, i = -1, i + 1
    if t[i] != "0":
        raise _Fault(i, "integer")
    return i + 1, make.integer(sign, i)


# -- making the parts ----------------------------------------------------------


class _Reading:
    """The items of one text read so far: the variables, by name in one
    table and by sort in two more, and the constraints, the rules with
    their shapes (``RuleShapes``; a generated reader keys them in
    ``numbers``, per skeleton) and the objective."""

    def __init__(self):
        self.variables: list[Variable] = []
        self.names: dict[str, int] = {}
        self.bools: dict[str, int] = {}
        self.ints: dict[str, int] = {}
        self.constraints: list[Clause] = []
        self.rules: list[Rule] = []
        self.shapes = RuleShapes(())
        self.numbers: dict[str, dict] = {}
        self.objective: LinearExpr | None = None

    def declare(self, name: str, kind: VarKind, sort: Sort, lo, hi):
        if name in self.names:
            raise _Fault(1, message=f"duplicate variable '{name}'")
        var = self.names[name] = len(self.variables)
        (self.bools if sort is Sort.BOOL else self.ints)[name] = var
        self.shapes.kinds[var] = (kind._value_, sort._value_)
        self.variables.append(Variable(name, kind, sort, lo, hi))

    def minimize(self, terms: tuple, constant: int):
        self.one_objective()
        self.objective = LinearExpr(terms, constant)

    def one_objective(self):
        """Refuse a second objective, at its first token."""
        if self.objective is not None:
            raise _Fault(1, message="more than one minimize item")

    def program(self) -> Program:
        program = Program(tuple(self.variables), tuple(self.constraints),
                          tuple(self.rules), self.objective)
        # hand the numbered shapes on, as the grounder does
        vars(program)["shapes"] = self.shapes.numbered()
        return program


class _Build:
    """Makes the parts of an item from its token values ``v`` into
    ``reading``.  A name is looked up in the table of literals (0), of
    linear terms (1) or of all variables (2), so that one lookup checks
    both the name and its sort."""

    def __init__(self, reading: _Reading):
        self.reading = reading
        self.tables = (reading.bools, reading.ints, reading.names)
        self.v: list[str] = []

    def integer(self, sign: int, at):
        return sign if at is None else sign * int(self.v[at])

    coeff = integer

    def infinity(self, value):
        return value

    def lookup(self, table: int, at: int, start=None) -> int:
        """The id of the name at ``at``, or a _Fault at ``start``, where
        its literal or term starts (``~x``, ``k*x``; ``at`` by default)."""
        try:
            return self.tables[table][self.v[at]]
        except KeyError:
            name = self.v[at]
            var = self.reading.names.get(name)
            if var is None:
                message = f"unknown variable '{name}'"
            else:
                sort = self.reading.variables[var].sort.value
                place = "a literal" if table == 0 else "a linear term"
                message = f"'{name}' is {sort}, not usable as {place}"
            raise _Fault(at if start is None else start,
                         message=message) from None

    def literal(self, var: int, positive: bool) -> Literal:
        return Literal(var, positive)

    def atom(self, terms: list, constants: list, bound) -> LinearAtom:
        if constants and isinstance(bound, int):
            bound -= sum(constants)
        return LinearAtom(tuple(terms), bound)

    def clause(self, lits: list, atoms: list) -> Clause:
        return Clause(tuple(lits), tuple(atoms))

    def var(self, at: int, kind: VarKind, sort: Sort, lo, hi):
        self.reading.declare(self.v[at], kind, sort, lo, hi)

    def constraint(self, clause: Clause):
        self.reading.constraints.append(clause)

    def rule(self, clause: Clause, head: int):
        rule = Rule(clause, head)
        self.reading.shapes.add(rule)  # keyed rule by rule
        self.reading.rules.append(rule)

    def objective(self):
        self.reading.one_objective()  # before the terms are walked

    def minimize(self, terms: list, constants: list):
        self.reading.minimize(tuple(terms), sum(constants))


_INFINITIES = {POS_INF: "POS_INF", NEG_INF: "NEG_INF"}
_RUNTIME = {"Clause": Clause, "LinearAtom": LinearAtom, "Literal": Literal,
            "Rule": Rule, "Sort": Sort, "VarKind": VarKind,
            "POS_INF": POS_INF, "NEG_INF": NEG_INF, "islice": islice}


class _Emit(Writer):
    """Writes the body of a generated reader, the code that makes each part
    as ``_Build`` does, from the item's values ``t<position>``; ``source``
    puts it in a loop over a run of items.  Each name looked up and each
    coefficient read is kept in a local, so that a rule's shape is keyed by
    its head's place, its coefficients and its variables' kinds when the
    ids of its literals, and of its terms, are distinct: the skeleton
    fixes the rest of the shape, so only the first rule of each such key
    is keyed in full (``codegen.write_numbering``)."""

    def __init__(self):
        super().__init__(2)
        self.used: set[int] = set()
        self.refs: tuple[list, list, list] = ([], [], [])  # ids, by table
        self.coeffs: list[str] = []
        self.prologue: list[str] = []

    def value(self, at: int) -> str:
        self.used.add(at)
        return f"t{at}"

    def local(self, code: str, group: list) -> str:
        name = f"x{len(self.lines)}"  # one line per local
        self.line(f"{name} = {code}")
        group.append(name)
        return name

    def integer(self, sign: int, at: int) -> str:
        return f"{'-' if sign < 0 else ''}int({self.value(at)})"

    def coeff(self, sign: int, at) -> str:
        if at is None:
            return str(sign)
        return self.local(self.integer(sign, at), self.coeffs)

    def infinity(self, value) -> str:
        return _INFINITIES[value]

    def lookup(self, table: int, at: int, start=None) -> str:
        return self.local(f"{'BIA'[table]}[{self.value(at)}]",
                          self.refs[table])

    def literal(self, var: str, positive: bool) -> str:
        return f"Literal({var}, {positive})"

    def atom(self, terms: list, constants: list, bound: str) -> str:
        if constants and bound not in _INFINITIES.values():
            bound = f"{bound} - ({' + '.join(constants)})"
        pairs = "".join(f"({coeff}, {var}), " for coeff, var in terms)
        return f"LinearAtom(({pairs}), {bound})"

    def clause(self, lits: list, atoms: list) -> str:
        return (f"Clause(({''.join(lit + ', ' for lit in lits)}), "
                f"({''.join(atom + ', ' for atom in atoms)}))")

    def var(self, at: int, kind: VarKind, sort: Sort, lo, hi):
        self.prologue = ["declare = R.declare"]
        self.line(f"declare({self.value(at)}, VarKind.{kind.name}, "
                  f"Sort.{sort.name}, {lo}, {hi})")

    def constraint(self, clause: str):
        self.prologue = ["B, I = R.bools, R.ints",
                         "constraints = R.constraints.append"]
        self.line(f"constraints({clause})")

    def rule(self, clause: str, head: str):
        self.prologue = ["B, I, A = R.bools, R.ints, R.names",
                         "rules = R.rules.append", "shapes = R.shapes",
                         "add, repeat, K = shapes.add, shapes.repeat, "
                         "shapes.kinds"]
        self.line(f"rule = Rule({clause}, {head})")
        self.line("rules(rule)")
        refs = self.refs[0] + self.refs[1]
        place = "".join(f"{i} if {head} == {ref} else "
                        for i, ref in enumerate(refs)) + str(len(refs))
        key = ", ".join([f"({place})", *self.coeffs,
                         *(f"K[{ref}]" for ref in refs), f"K[{head}]"])
        distinct = " and ".join(filter(None, map(_distinct, self.refs[:2])))
        if distinct:
            self.open(f"if {distinct}:")
        self.line(f"key = ({key},)")
        write_numbering(self, "key", "add(rule)")
        if distinct:
            self.close()
            self.line("else: add(rule)")

    def objective(self):
        pass  # ``R.minimize`` refuses a second one

    def minimize(self, terms: list, constants: list):
        self.prologue = ["A = R.names"]
        pairs = "".join(f"({coeff}, {var}), " for coeff, var in terms)
        self.line(f"R.minimize(({pairs}), {' + '.join(constants) or 0})")

    def source(self, n: int) -> str:
        """A reader of runs of items of ``n`` tokens each: ``read(V, at,
        count, R, numbers)`` makes ``count`` items from ``V[at:]`` into
        the ``_Reading`` ``R`` and returns where they end."""
        body, self.lines, self.indent = self.lines, [], 0
        self.open("def read(V, at, count, R, numbers):")
        self.line(f"end = at + {n} * count")
        for line in self.prologue:
            self.line(line)
        targets = ", ".join(f"t{i}" if i in self.used else "_"
                            for i in range(n))
        self.open(f"for {targets} in zip(*[islice(V, at, end)] * {n}):")
        self.lines += body
        self.close()
        self.line("return end")
        return self.text()


def _distinct(refs: list) -> str:
    """The code of the ids ``refs`` being distinct."""
    if len(refs) > 3:
        return f"len({{{', '.join(refs)}}}) == {len(refs)}"
    return " and ".join(f"{a} != {b}"
                        for i, a in enumerate(refs) for b in refs[i + 1:])


def _tokens(key: str) -> list:
    """A key's tokens and the ``;`` it was split at."""
    return key.split("\x00") + [";"]


@functools.lru_cache(maxsize=256)
def _generated(key: str):
    """The generated reader of the items keyed ``key``."""
    tokens = _tokens(key)
    emit = _Emit()
    _walk(tokens, emit)
    return define(emit.source(len(tokens)), _RUNTIME)["read"]


def read_ground_program(text: str) -> Program:
    """``parse_ground_program``'s result for ``text``, or its error."""
    values = scan(_TOKEN_RE, text)
    # joined a block of tokens at a time: one join of them all would hold a
    # list as long as the text's tokens, and raise the peak memory
    key_token = _KeyTokens().__getitem__
    keys = "\x00".join([
        "\x00".join(map(key_token, values[at:at + 4096]))
        for at in range(0, len(values), 4096)]).split("\x00;\x00")
    tail = keys.pop()  # after the last ``;``: nothing but the end, keyed ""
    counts = Counter(keys)
    # the runs of one key, so that the keys of each item can go
    runs = [(key, sum(1 for _ in run)) for key, run in groupby(keys)]
    del keys
    reading = _Reading()
    make = _Build(reading)
    try:
        # a NUL in the text would read as a name in the keys
        if tail or "\x00" in text:
            raise _Fault(0)
        at = 0
        for key, count in runs:
            if counts[key] >= _COMPILE_AT:
                at = _generated(key)(values, at, count, reading,
                                     reading.numbers.setdefault(key, {}))
                continue
            tokens = _tokens(key)
            for _ in range(count):
                make.v = values[at:at + len(tokens)]
                _walk(tokens, make)
                at += len(tokens)
    except (KeyError, _Fault):
        return _walked(text, values, runs, tail)
    return reading.program()


def _walked(text: str, values: list, runs: list, tail: str) -> Program:
    """The program of a text that a reader refused, walked item by item
    from the start: raises the FormatError of its first bad token or
    integer too long for ``int``, which the ``Cursor`` refuses when made,
    else of the first fault of the walk, at its token's line."""
    cursor = Cursor(_TOKEN_RE, text, FormatError, _line_only, _OPS)
    items = [(_tokens(key), count) for key, count in runs]
    if tail:
        # the end token, keyed "" like a name, becomes a marker that no rule
        # reads, as no rule reads past an item's ``;``
        items.append((tail.split("\x00")[:-1] + ["\x00"], 1))
    make = _Build(_Reading())
    at = 0
    try:
        for tokens, count in items:
            for _ in range(count):
                make.v = values[at:at + len(tokens)]
                _walk(tokens, make)
                at += len(tokens)
    except _Fault as fault:
        at += fault.at
        if fault.message:
            cursor._raise(fault.message, at)
        cursor._at = at
        cursor.fail(fault.expected)
    return make.reading.program()
