"""Syntax tree for the modeling language.

Nodes are immutable records (``program.FrozenRecord``): dataclasses whose
methods are shared rather than generated, and the types made once per
token write their own ``__init__``.  ``ArrayLit`` is no dataclass: it makes
the elements of an integer list when first read.  Every node carries the
source span it was parsed from so later passes can report errors in terms
of the input.
"""

from dataclasses import dataclass
from operator import attrgetter

from .program import FrozenRecord, Sort

_set = object.__setattr__  # sets a field of a frozen node


@dataclass(init=False, repr=False, eq=False)
class Span(FrozenRecord):
    """Where a node starts: file name, 1-based line and column."""

    file: str
    line: int
    col: int

    def __init__(self, file, line, col):
        _set(self, "file", file)
        _set(self, "line", line)
        _set(self, "col", col)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# -- expressions -------------------------------------------------------------


@dataclass(init=False, repr=False, eq=False)
class IntLit(FrozenRecord):
    """An integer literal."""

    value: int
    span: Span

    def __init__(self, value, span):
        _set(self, "value", value)
        _set(self, "span", span)


@dataclass(init=False, repr=False, eq=False)
class Ident(FrozenRecord):
    """A name: a parameter, a variable or a generator variable."""

    name: str
    span: Span

    def __init__(self, name, span):
        _set(self, "name", name)
        _set(self, "span", span)


@dataclass(init=False, repr=False, eq=False)
class ArrayAccess(FrozenRecord):
    """``name[i, j]``: one index expression per dimension."""

    name: str
    indices: tuple
    span: Span

    def __init__(self, name, indices, span):
        _set(self, "name", name)
        _set(self, "indices", indices)
        _set(self, "span", span)


@dataclass(init=False, repr=False, eq=False)
class Neg(FrozenRecord):
    """Arithmetic negation ``-operand``."""

    operand: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class Not(FrozenRecord):
    """Boolean negation ``not operand``."""

    operand: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class BinOp(FrozenRecord):
    """Arithmetic or connective: one of + - * /\\ \\/ -> <-"""

    op: str
    left: object
    right: object
    span: Span

    def __init__(self, op, left, right, span):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "span", span)


@dataclass(init=False, repr=False, eq=False)
class Comparison(FrozenRecord):
    """One of >= <= > < = !=; never chained."""

    op: str
    left: object
    right: object
    span: Span

    def __init__(self, op, left, right, span):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "span", span)


@dataclass(init=False, repr=False, eq=False)
class Gen(FrozenRecord):
    """Generator binding ``u, v in lo..hi``."""

    names: tuple
    lo: object
    hi: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class Agg(FrozenRecord):
    """forall / exists / sum with generators and an optional where guard."""

    kind: str
    gens: tuple
    where: object
    body: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class Bool2Int(FrozenRecord):
    """``bool2int(operand)``: 1 when true, 0 when false."""

    operand: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class HeadAnn(FrozenRecord):
    """``expr :: head(target)`` inside a rule."""

    body: object
    target: object
    span: Span


class ArrayLit(FrozenRecord):
    """A ``[...]`` list: its element expressions and its span.

    A list of integer literals alone is made by ``of_ints``, from their
    values (kept in ``ints``), their offsets in the text and the text's
    line starts: its ``IntLit`` elements and their spans are made on the
    first read of ``elements``.  ``ints`` is None for a list made from its
    elements.  Either way the list is immutable, and its ``repr``, ``==``
    and ``hash`` are those of the list made element by element.
    """

    __slots__ = ("span", "ints", "_elements", "_offsets", "_line_starts")
    _key = attrgetter("elements", "span")
    _shown = ("elements", "span")

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

    def __reduce__(self):
        # copied and pickled as made element by element
        return ArrayLit, (self.elements, self.span)


# -- items -------------------------------------------------------------------


@dataclass(init=False, repr=False, eq=False)
class ParamDecl(FrozenRecord):
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


@dataclass(init=False, repr=False, eq=False)
class VarDecl(FrozenRecord):
    """A decision variable: its sort, bounds and founded flag."""

    name: str
    dims: tuple
    sort: Sort
    bounds: tuple | None
    founded: bool
    span: Span


@dataclass(init=False, repr=False, eq=False)
class ConstraintItem(FrozenRecord):
    """``constraint expr;``"""

    expr: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class RuleItem(FrozenRecord):
    """``rule expr;``"""

    expr: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class SolveItem(FrozenRecord):
    """``solve satisfy;`` or ``solve minimize expr;``"""

    objective: object  # None for plain satisfaction
    span: Span


@dataclass(init=False, repr=False, eq=False)
class DataAssign(FrozenRecord):
    """``name = value;`` in a data file."""

    name: str
    value: object
    span: Span


@dataclass(init=False, repr=False, eq=False)
class Model(FrozenRecord):
    """A parsed model: its items, by kind, in source order."""

    file: str
    params: tuple = ()
    vars: tuple = ()
    constraints: tuple = ()
    rules: tuple = ()
    solve: SolveItem | None = None
