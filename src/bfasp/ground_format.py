"""Plain-text exchange format for ground programs and assignments.

One item per line, ``#`` comments, and a deliberately small grammar:

    var int -50..50 founded a;
    var bool standard x;
    constraint 1*a - 1*b >= 9 | ~x;
    rule 1*b >= 8 | ~x head b;
    minimize 1*a + 2;

Clause members are separated by ``|``; an empty clause is written ``false``.
Assignment files hold ``name = value;`` lines with true/false/int/-inf values.

Both readers use the model parser's ``scan`` and ``Cursor``; the four text
formats differ only in their token regex and their grammar.
"""

import re

from .errors import FormatError
from .parser import Cursor
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


def format_atom(atom: LinearAtom, program: Program) -> str:
    named = [(c, program.name(v)) for c, v in atom.terms]
    lhs = _format_terms(named) if named else "0"
    return f"{lhs} >= {format_value(atom.bound)}"


def format_clause(clause: Clause, program: Program) -> str:
    members = [(program.name(l.var) if l.positive else "~" + program.name(l.var))
               for l in clause.lits]
    members.extend(format_atom(a, program) for a in clause.atoms)
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
    for info in program.variables:
        if info.sort is Sort.BOOL:
            sort = "bool"
        else:
            sort = f"int {info.lo}..{info.hi}"
        lines.append(f"var {sort} {info.kind.value} {info.name};")
    for clause in program.constraints:
        lines.append(f"constraint {format_clause(clause, program)};")
    for rule in program.rules:
        lines.append(f"rule {format_clause(rule.clause, program)} "
                     f"head {program.name(rule.head)};")
    if program.objective is not None:
        lines.append(f"minimize {format_linexpr(program.objective, program)};")
    return "\n".join(lines) + "\n"


def format_assignment(program: Program, valuation) -> str:
    """``name = value;`` lines, one per variable; empty without variables."""
    return "".join(f"{info.name} = {format_value(valuation[var])};\n"
                   for var, info in enumerate(program.variables))


# -- tokens ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<skip>\s+|\#[^\n]*)
      | (?P<name>[A-Za-z_]\w*(?:\[-?\d+(?:,-?\d+)*\])?)
      | (?P<int>\d+)
      | (?P<op>>=|\.\.|[|~;*+=-])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)

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
    def __init__(self, text: str):
        super().__init__(_TOKEN_RE, text, FormatError, _line_only)
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
        line = self.where
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
            raise FormatError(f"duplicate variable '{name}'", line)
        self.index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, sort, lo, hi))

    def _bound(self):
        if self.take("inf"):
            return POS_INF
        if _take_neg_inf(self):
            return NEG_INF
        return self.integer()

    def _lookup(self, name: str, line: int) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise FormatError(f"unknown variable '{name}'", line) from None

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
        line = self.where
        if self.take("~"):
            var = self._lookup(self.name(), line)
            self._want_sort(var, Sort.BOOL, line)
            lits.append(Literal(var, False))
            return
        kind, value, _ = self.current
        if kind == "name" and not self._starts_atom():
            self.name()
            var = self._lookup(value, line)
            self._want_sort(var, Sort.BOOL, line)
            lits.append(Literal(var, True))
            return
        terms, constant = self._linear(line)
        self.expect(">=")
        bound = self._bound()
        if isinstance(constant, int) and isinstance(bound, int):
            bound -= constant
        atoms.append(LinearAtom(tuple(terms), bound))

    def _starts_atom(self) -> bool:
        """Lookahead: a bare name is an atom when an operator follows."""
        return any(self.peek(op, 1) for op in (">=", "+", "-", "*"))

    def _linear(self, line: int, *, allow_bool: bool = False):
        """Sum of ``k*name``, ``name``, and integer terms.

        Objectives may carry Boolean variables (counted 0/1); clause atoms
        may not.
        """
        terms: list[tuple[int, int]] = []
        constant = 0
        sign = 1
        while True:
            if self.take("-"):
                sign = -sign
            item_line = self.where
            kind = self.current[0]
            if kind == "int":
                coeff = sign * self.integer()
                if self.take("*"):
                    name = self.name()
                    var = self._lookup(name, item_line)
                    if not allow_bool:
                        self._want_sort(var, Sort.INT, item_line)
                    terms.append((coeff, var))
                else:
                    constant += coeff
            elif kind == "name":
                var = self._lookup(self.name(), item_line)
                if not allow_bool:
                    self._want_sort(var, Sort.INT, item_line)
                terms.append((sign, var))
            else:
                self.fail("a term")
            sign = 1
            if self.take("+"):
                continue
            if self.peek("-"):
                continue
            return terms, constant

    def _want_sort(self, var: int, sort: Sort, line: int):
        info = self.variables[var]
        if info.sort is not sort:
            place = "a literal" if sort is Sort.BOOL else "a linear term"
            raise FormatError(
                f"'{info.name}' is {info.sort.value}, not usable as {place}",
                line)

    def _rule(self):
        clause = self._clause()
        self.expect("head")
        head = self._lookup(self.name("head variable"), self.where)
        self.expect(";")
        self.rules.append(Rule(clause, head))

    def _minimize(self):
        line = self.where
        if self.objective is not None:
            raise FormatError("more than one minimize item", line)
        terms, constant = self._linear(line, allow_bool=True)
        self.expect(";")
        self.objective = LinearExpr(tuple(terms), constant)


def parse_ground_program(text: str) -> Program:
    """Parse ground-program text into a Program.

    Raises FormatError with a line number on malformed input.  The result is
    structurally well formed but not semantically validated; run
    validate_program for rule and interval checks.
    """
    return _GroundReader(text).run()


# -- assignments -------------------------------------------------------------


def _parse_value(tokens: Cursor, info: Variable, line: int):
    if tokens.take("true"):
        value = True
    elif tokens.take("false"):
        value = False
    elif _take_neg_inf(tokens):
        value = NEG_INF
    else:
        value = tokens.integer()
    if not info.admits(value):
        raise FormatError(
            f"value {format_value(value)} is outside the domain of "
            f"'{info.name}'", line)
    return value


def parse_assignment(text: str, program: Program) -> dict:
    """Parse ``name = value;`` lines into a total valuation.

    Every program variable must be assigned exactly once and within its
    domain; -inf is admitted only for founded variables.  Solver output is
    accepted as-is: ``#`` comments and the ``----------`` / ``==========``
    marker lines are ignored.
    """
    kept = [line if not _SEPARATOR_RE.match(line) else ""
            for line in text.splitlines()]
    tokens = Cursor(_TOKEN_RE, "\n".join(kept), FormatError, _line_only)
    valuation: dict[int, object] = {}
    index = program.index_by_name
    while not tokens.at_end():
        line = tokens.where
        name = tokens.name("variable name")
        if name not in index:
            raise FormatError(f"unknown variable '{name}'", line)
        var = index[name]
        if var in valuation:
            raise FormatError(f"'{name}' assigned twice", line)
        tokens.expect("=")
        valuation[var] = _parse_value(tokens, program.variables[var], line)
        tokens.expect(";")
    missing = [info.name for var, info in enumerate(program.variables)
               if var not in valuation]
    if missing:
        raise FormatError("missing assignments: " + ", ".join(missing))
    return valuation
