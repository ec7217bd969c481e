"""Syntax tree for the modeling language.

Nodes are plain frozen dataclasses; every node carries the source span it
was parsed from so later passes can report errors in terms of the input.
"""

from dataclasses import dataclass

from .program import Sort


@dataclass(frozen=True)
class Span:
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# -- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span


@dataclass(frozen=True)
class Ident:
    name: str
    span: Span


@dataclass(frozen=True)
class ArrayAccess:
    name: str
    indices: tuple
    span: Span


@dataclass(frozen=True)
class Neg:
    operand: object
    span: Span


@dataclass(frozen=True)
class Not:
    operand: object
    span: Span


@dataclass(frozen=True)
class BinOp:
    """Arithmetic or connective: one of + - * /\\ \\/ -> <-"""

    op: str
    left: object
    right: object
    span: Span


@dataclass(frozen=True)
class Comparison:
    """One of >= <= > < = !=; never chained."""

    op: str
    left: object
    right: object
    span: Span


@dataclass(frozen=True)
class Gen:
    """Generator binding ``u, v in lo..hi``."""

    names: tuple
    lo: object
    hi: object
    span: Span


@dataclass(frozen=True)
class Agg:
    """forall / exists / sum with generators and an optional where guard."""

    kind: str
    gens: tuple
    where: object
    body: object
    span: Span


@dataclass(frozen=True)
class Bool2Int:
    operand: object
    span: Span


@dataclass(frozen=True)
class HeadAnn:
    """``expr :: head(target)`` inside a rule."""

    body: object
    target: object
    span: Span


@dataclass(frozen=True)
class ArrayLit:
    elements: tuple
    span: Span


# -- items -------------------------------------------------------------------


@dataclass(frozen=True)
class ParamDecl:
    """``int: N = 4;`` or ``array[1..E] of 1..N: from = [...];``

    ``dims`` holds one (lo, hi) expression pair per index dimension, empty
    for scalars.  ``elem_range`` restricts element values when the element
    type is written as a range.  ``value`` is None when the parameter is to
    be bound by a data file.
    """

    name: str
    dims: tuple
    elem_range: tuple | None
    value: object
    span: Span


@dataclass(frozen=True)
class VarDecl:
    name: str
    dims: tuple
    sort: Sort
    bounds: tuple | None
    founded: bool
    span: Span


@dataclass(frozen=True)
class ConstraintItem:
    expr: object
    span: Span


@dataclass(frozen=True)
class RuleItem:
    expr: object
    span: Span


@dataclass(frozen=True)
class SolveItem:
    objective: object  # None for plain satisfaction
    span: Span


@dataclass(frozen=True)
class DataAssign:
    name: str
    value: object
    span: Span


@dataclass(frozen=True)
class Model:
    file: str
    params: tuple = ()
    vars: tuple = ()
    constraints: tuple = ()
    rules: tuple = ()
    solve: SolveItem | None = None
