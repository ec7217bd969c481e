"""Syntax tree for the modeling language.

Nodes are plain frozen dataclasses, but for ``ArrayLit``, which makes the
elements of an integer list when first read; every node carries the source
span it was parsed from so later passes can report errors in terms of the
input.
"""

from dataclasses import FrozenInstanceError, dataclass

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


class ArrayLit:
    """A ``[...]`` list: its element expressions and its span.

    A list of integer literals alone is made by ``of_ints``, from their
    values (kept in ``ints``), their offsets in the text and the text's
    line starts: its ``IntLit`` elements and their spans are made on the
    first read of ``elements``.  ``ints`` is None for a list made from its
    elements.  Either way the list is immutable, and its ``repr``, ``==``
    and ``hash`` are those of the list made element by element.
    """

    __slots__ = ("span", "ints", "_elements", "_offsets", "_line_starts")

    def __init__(self, elements: tuple, span: Span):
        self._set(span=span, ints=None, _elements=elements)

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def of_ints(cls, ints: tuple, offsets: list, line_starts: list,
                span: Span) -> "ArrayLit":
        """The list of the integers ``ints``, each at its offset in
        ``offsets`` of a text whose lines start at ``line_starts``; ``span``
        is the list's ``[``, before the first of them."""
        lit = cls(None, span)
        lit._set(ints=ints, _offsets=offsets, _line_starts=line_starts)
        return lit

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            # the offsets only grow, so the line index only moves forward
            starts, file = self._line_starts, self.span.file
            line, last = self.span.line, len(starts)
            elements = []
            for value, offset in zip(self.ints, self._offsets):
                while line < last and starts[line] <= offset:
                    line += 1
                elements.append(IntLit(value, Span(
                    file, line, offset - starts[line - 1] + 1)))
            self._set(_elements=tuple(elements), _offsets=None,
                      _line_starts=None)
        return self._elements

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copied and pickled as made element by element
        return ArrayLit, (self.elements, self.span)

    def __repr__(self) -> str:
        return f"ArrayLit(elements={self.elements!r}, span={self.span!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements, self.span) == (other.elements, other.span)

    def __hash__(self) -> int:
        return hash((self.elements, self.span))


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
