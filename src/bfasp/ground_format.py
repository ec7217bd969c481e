"""Plain-text exchange format for ground programs and assignments.

The writer puts one item on a line; the reader takes any layout, with
``#`` comments, and a deliberately small grammar:

    var int -50..50 founded a;
    var bool standard x;
    constraint 1*a - 1*b >= 9 | ~x;
    rule 1*b >= 8 | ~x head b;
    minimize 1*a + 2;

Clause members are separated by ``|``; an empty clause is written ``false``.
Assignment files hold ``name = value;`` lines with true/false/int/-inf values.

Both formats are split into token values by the model parser's ``scan``.
A ground program is read by item skeleton (``ground_reader``): an item is
keyed by its tokens with every name and integer made a placeholder, so
the key does not depend on the layout, and the items of one key are read
by one reader.  Only a faulty text is read token by token, by
``_GroundReader``, for its error.  That reader and the assignment reader
are ``Cursor``s, which hold token indices and turn one into a line number
only when they raise a FormatError.  Lines end at ``"\\n"`` in both
formats.
"""

import re

from .errors import FormatError
from .parser import Cursor, _token_pattern
from .program import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    Rule,
    Sort,
    VarKind,
    Variable,
    format_value,
)

# -- writing ---------------------------------------------------------------


def _format_terms(terms) -> str:
    parts = []
    for coeff, name in terms:
        if not parts:
            parts.append(f"{coeff}*{name}")
        elif coeff < 0:
            parts.append(f" - {-coeff}*{name}")
        else:
            parts.append(f" + {coeff}*{name}")
    return "".join(parts)


def _atom_text(atom: LinearAtom, name) -> str:
    """``atom`` with each variable written as ``name(var)``."""
    named = [(c, name(v)) for c, v in atom.terms]
    lhs = _format_terms(named) if named else "0"
    return f"{lhs} >= {format_value(atom.bound)}"


def format_clause(clause: Clause, program: Program) -> str:
    return _clause_text(clause, program.name)


def _clause_text(clause: Clause, name) -> str:
    """``clause`` with each variable written as ``name(var)``."""
    members = [(name(l.var) if l.positive else "~" + name(l.var))
               for l in clause.lits]
    members.extend(_atom_text(a, name) for a in clause.atoms)
    return " | ".join(members) if members else "false"


def format_linexpr(expr: LinearExpr, program: Program) -> str:
    named = [(c, program.name(v)) for c, v in expr.terms]
    out = _format_terms(named)
    if not out:
        return str(expr.constant)
    if expr.constant > 0:
        out += f" + {expr.constant}"
    elif expr.constant < 0:
        out += f" - {-expr.constant}"
    return out


def format_program(program: Program) -> str:
    lines = []
    names = [info.name for info in program.variables]
    name = names.__getitem__  # one list lookup per variable written
    for info in program.variables:
        if info.sort is Sort.BOOL:
            sort = "bool"
        else:
            sort = f"int {info.lo}..{info.hi}"
        lines.append(f"var {sort} {info.kind.value} {info.name};")
    for clause in program.constraints:
        lines.append(f"constraint {_clause_text(clause, name)};")
    for rule in program.rules:
        lines.append(f"rule {_clause_text(rule.clause, name)} "
                     f"head {names[rule.head]};")
    if program.objective is not None:
        lines.append(f"minimize {format_linexpr(program.objective, program)};")
    return "\n".join(lines) + "\n"


def format_assignment(program: Program, valuation) -> str:
    """``name = value;`` lines, one per variable; empty without variables."""
    return "".join(f"{info.name} = {format_value(valuation[var])};\n"
                   for var, info in enumerate(program.variables))


# -- tokens ----------------------------------------------------------------

_OPS = frozenset(">= .. | ~ ; * + = -".split())

# an indexed name like ``d[1,-2]`` is one word
_TOKEN_RE = _token_pattern(r"\s+|\#[^\n]*",
                           r"[A-Za-z_]\w*(?:\[-?\d+(?:,-?\d+)*\])?", _OPS)

# model separator / proven marker lines emitted by the solve command
_SEPARATOR_RE = re.compile(r"\s*(-{2,}|={2,})\s*$")


def _line_only(line: int, col: int) -> int:
    return line


def _take_neg_inf(t: Cursor) -> bool:
    """Read ``-inf`` if it comes next."""
    if t.peek("-") and t.peek("inf", 1):
        t.take("-")
        return t.take("inf")
    return False


# -- reading ground programs ------------------------------------------------


class _GroundReader(Cursor):
    """Reads a ground program token by token: the grammar that
    ``parse_ground_program`` runs on a faulty text, for its error.  Errors
    name the line of a token index, made only when one is raised."""

    def __init__(self, text: str):
        super().__init__(_TOKEN_RE, text, FormatError, _line_only, _OPS)
        self.variables: list[Variable] = []
        self.index: dict[str, int] = {}
        self.constraints: list[Clause] = []
        self.rules: list[Rule] = []
        self.objective: LinearExpr | None = None

    def run(self) -> Program:
        while not self.at_end():
            if self.take("var"):
                self._var_decl()
            elif self.take("constraint"):
                self.constraints.append(self._clause())
                self.expect(";")
            elif self.take("rule"):
                self._rule()
            elif self.take("minimize"):
                self._minimize()
            else:
                self.fail("an item")
        return Program(tuple(self.variables), tuple(self.constraints),
                       tuple(self.rules), self.objective)

    def _var_decl(self):
        at = self._at
        if self.take("bool"):
            sort, lo, hi = Sort.BOOL, None, None
        elif self.take("int"):
            sort = Sort.INT
            lo = self._bound()
            self.expect("..")
            hi = self._bound()
        else:
            self.fail("'bool' or 'int'")
        if self.take("standard"):
            kind = VarKind.STANDARD
        elif self.take("founded"):
            kind = VarKind.FOUNDED
        else:
            self.fail("'standard' or 'founded'")
        name = self.name("variable name")
        self.expect(";")
        if name in self.index:
            self._raise(f"duplicate variable '{name}'", at)
        self.index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, sort, lo, hi))

    def _bound(self):
        if self.take("inf"):
            return POS_INF
        if _take_neg_inf(self):
            return NEG_INF
        return self.integer()

    def _lookup(self, name: str, at: int) -> int:
        var = self.index.get(name)
        if var is None:
            self._raise(f"unknown variable '{name}'", at)
        return var

    def _clause(self) -> Clause:
        if self.take("false"):
            return Clause((), ())
        lits: list[Literal] = []
        atoms: list[LinearAtom] = []
        while True:
            self._member(lits, atoms)
            if not self.take("|"):
                break
        return Clause(tuple(lits), tuple(atoms))

    def _member(self, lits: list, atoms: list):
        """One clause member: ``~name``, ``name``, or a linear atom."""
        at = self._at
        if self.take("~"):
            var = self._lookup(self.name(), at)
            self._want_sort(var, Sort.BOOL, at)
            lits.append(Literal(var, False))
            return
        value = self._values[at]
        if self.kind(value) == "name" and not self._starts_atom():
            self._at += 1
            var = self._lookup(value, at)
            self._want_sort(var, Sort.BOOL, at)
            lits.append(Literal(var, True))
            return
        terms, constant = self._linear()
        self.expect(">=")
        bound = self._bound()
        if isinstance(constant, int) and isinstance(bound, int):
            bound -= constant
        atoms.append(LinearAtom(tuple(terms), bound))

    def _starts_atom(self) -> bool:
        """Lookahead: a bare name is an atom when an operator follows."""
        return self._values[self._at + 1] in (">=", "+", "-", "*")

    def _linear(self, *, allow_bool: bool = False):
        """Sum of ``k*name``, ``name``, and integer terms.

        Objectives may carry Boolean variables (counted 0/1); clause atoms
        may not.
        """
        values = self._values
        terms: list[tuple[int, int]] = []
        constant = 0
        sign = 1
        while True:
            if self.take("-"):
                sign = -sign
            at = self._at
            value = values[at]
            kind = self.kind(value)
            if kind == "int":
                self._at = at + 1
                coeff = sign * int(value)
                name = self.name() if self.take("*") else None
            elif kind == "name":
                self._at = at + 1
                coeff, name = sign, value
            else:
                self.fail("a term")
            if name is None:
                constant += coeff
            else:
                var = self._lookup(name, at)
                if not allow_bool:
                    self._want_sort(var, Sort.INT, at)
                terms.append((coeff, var))
            sign = 1
            if self.take("+"):
                continue
            if self.peek("-"):
                continue
            return terms, constant

    def _want_sort(self, var: int, sort: Sort, at: int):
        info = self.variables[var]
        if info.sort is not sort:
            place = "a literal" if sort is Sort.BOOL else "a linear term"
            self._raise(
                f"'{info.name}' is {info.sort.value}, not usable as {place}",
                at)

    def _rule(self):
        clause = self._clause()
        self.expect("head")
        name = self.name("head variable")
        head = self._lookup(name, self._at - 1)
        self.expect(";")
        self.rules.append(Rule(clause, head))

    def _minimize(self):
        if self.objective is not None:
            self._raise("more than one minimize item", self._at)
        terms, constant = self._linear(allow_bool=True)
        self.expect(";")
        self.objective = LinearExpr(tuple(terms), constant)


def parse_ground_program(text: str) -> Program:
    """Parse ground-program text into a Program.

    Raises FormatError with a line number on malformed input.  The result is
    structurally well formed but not semantically validated; run
    validate_program for rule and interval checks.  Its rule shapes
    (``Program.shapes``) are numbered as it is read.
    """
    # loaded at the first read, so that importing bfasp does not load it
    from .ground_reader import read_ground_program

    return read_ground_program(text)


# -- assignments -------------------------------------------------------------


class _AssignmentReader(Cursor):
    """Reads ``name = value;`` lines; errors name the line of a token index,
    as in _GroundReader."""

    def __init__(self, text: str):
        super().__init__(_TOKEN_RE, text, FormatError, _line_only, _OPS)

    def run(self, program: Program) -> dict:
        valuation: dict[int, object] = {}
        index = program.index_by_name
        while not self.at_end():
            at = self._at
            name = self.name("variable name")
            if name not in index:
                self._raise(f"unknown variable '{name}'", at)
            var = index[name]
            if var in valuation:
                self._raise(f"'{name}' assigned twice", at)
            self.expect("=")
            valuation[var] = self._value(program.variables[var], at)
            self.expect(";")
        missing = [info.name for var, info in enumerate(program.variables)
                   if var not in valuation]
        if missing:
            raise FormatError("missing assignments: " + ", ".join(missing))
        return valuation

    def _value(self, info: Variable, at: int):
        if self.take("true"):
            value = True
        elif self.take("false"):
            value = False
        elif _take_neg_inf(self):
            value = NEG_INF
        else:
            value = self.integer()
        if not info.admits(value):
            self._raise(f"value {format_value(value)} is outside the domain "
                        f"of '{info.name}'", at)
        return value


def parse_assignment(text: str, program: Program) -> dict:
    """Parse ``name = value;`` lines into a total valuation.

    Every program variable must be assigned exactly once and within its
    domain; -inf is admitted only for founded variables.  Solver output is
    accepted as-is: ``#`` comments and the ``----------`` / ``==========``
    marker lines are ignored.
    """
    kept = [line if not _SEPARATOR_RE.match(line) else ""
            for line in text.split("\n")]
    return _AssignmentReader("\n".join(kept)).run(program)
