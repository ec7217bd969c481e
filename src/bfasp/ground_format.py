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
by one reader, by the one grammar of the format.  The assignment reader
is a ``Cursor``, and the ground reader raises its faults through one: a
``Cursor`` holds token indices and turns one into a line number only when
it raises a FormatError.  Lines end at ``"\\n"`` in both formats.
"""

import re

from .errors import FormatError
from .parser import Cursor, _token_pattern
from .program import (
    NEG_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Program,
    Sort,
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
    made only when one is raised."""

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
