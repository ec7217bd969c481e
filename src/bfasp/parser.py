"""Scanner, token cursor, parser, and name resolution for model and data files.

The operator table ``_LEVEL`` is the precedence spec, read by one
precedence-climbing loop, ``_Parser._expr``.  ``::`` head annotations (rules
only) close a parenthesized group.  Comments run from ``%`` to end of line.

``scan`` and ``Cursor`` also read the ground-program and assignment formats
(``ground_format``): the four text formats share one scanner and one cursor
and differ only in their token regex, their operators and keywords, and
their grammar.  A text becomes a list of token values, plain strings; a
token's kind follows from its value, and its location (line and column) is
made only when an error or an AST span asks for it.  Model and data texts,
whose every item has a span, are scanned for values and token offsets in
one pass (``scan_located``); ground programs and assignments, which need a
location only for an error, are scanned for values alone and re-scanned
for offsets on the first location asked for.
"""

import re
import sys
from bisect import bisect_right
from functools import partial
from itertools import accumulate
from operator import add, attrgetter, methodcaller, sub
from typing import NoReturn

from .errors import TOO_DEEP, ParseError
from .model_ast import (
    Agg,
    ArrayAccess,
    ArrayLit,
    BinOp,
    Bool2Int,
    Comparison,
    ConstraintItem,
    DataAssign,
    Gen,
    HeadAnn,
    Ident,
    IntLit,
    Model,
    Neg,
    Not,
    ParamDecl,
    RuleItem,
    SolveItem,
    Span,
    VarDecl,
)
from .program import Sort

# -- scanning ----------------------------------------------------------------

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_token_start = methodcaller("start", 1)


def scan(pattern: re.Pattern, text: str) -> list:
    """Split ``text`` into its token values, ending with ``""`` for the end.

    ``pattern`` has one group, a token, and lets skipped text (whitespace
    and comments) come before it in the same match; its last alternatives
    are ``.``, for a character no token admits, and ``\\Z``.  ``findall``
    then yields plain strings, without locations.
    """
    values = pattern.findall(text)
    if len(values) > 1 and not values[-2]:
        # skipped text at the end: the end matched once with it and once
        # without
        values.pop()
    return values


def scan_located(pattern: re.Pattern, text: str) -> tuple:
    """``text``'s token values, as ``scan`` gives them, and the offset in
    ``text`` of each, from one ``findall``.

    ``pattern`` is ``scan``'s with the skipped text as a first group.  Its
    matches are back to back, since every character either is skipped or
    starts a token, so a token starts where the text before it, skipped or
    not, ends.
    """
    pairs = pattern.findall(text)
    if len(pairs) > 1 and not pairs[-2][1]:
        pairs.pop()  # as in ``scan``
    skipped, values = zip(*pairs)
    ends = accumulate(map(add, map(len, skipped), map(len, values)))
    return list(values), list(map(sub, ends, map(len, values)))


def _token_pattern(skip: str, word: str, ops: frozenset,
                   located: bool = False) -> re.Pattern:
    """The token regex of a format, as ``scan`` reads it (``scan_located``
    when ``located``): skipped text (``skip``), then one token: a ``word``,
    an integer, an operator of ``ops`` (the longest first), a character no
    token admits, or the end."""
    longer = sorted((op for op in ops if len(op) > 1),
                    key=lambda op: (-len(op), op))
    single = "".join(sorted(op for op in ops if len(op) == 1))
    token = "|".join([word, r"\d+", *map(re.escape, longer),
                      f"[{re.escape(single)}]", ".", r"\Z"])
    skipped = f"((?:{skip})*)" if located else f"(?:{skip})*"
    return re.compile(f"{skipped}({token})", re.ASCII)


def _int_digits() -> int:
    """The most digits ``int`` reads from a string, or 0 for no limit."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    return limit() if limit else 0


class Cursor:
    """Reads the token values of one text; errors are ``error(message,
    location)``.

    A token's kind follows from its value: an ASCII digit starts an ``int``,
    an ASCII letter or ``_`` a ``name`` (a ``kw`` when the word is one of
    ``keywords``), a member of ``ops`` is an ``op``, ``""`` is the ``end``,
    and anything else is ``bad``: the first bad token, or integer with more
    digits than ``int`` reads from a string, is refused when the cursor is
    made.  Tokens are matched by value, so a grammar peeks keywords and
    operators alike; ``name`` and ``integer`` read the ``name`` and ``int``
    kinds.

    A location is made on demand, as ``where(line, column)`` (both counted
    from 1), and each token's is kept once made.  A ``located`` cursor's
    pattern is ``scan_located``'s, and it has its token offsets from the
    start; another's first location re-scans the text for them.  Another
    may be given the text's ``scan`` as ``values``.
    """

    located = False

    def __init__(self, pattern: re.Pattern, text: str, error, where,
                 ops: frozenset, keywords: frozenset = frozenset(),
                 values: list | None = None):
        self._pattern = pattern
        self._text = text
        self._offsets = None
        if self.located:
            values, self._offsets = scan_located(pattern, text)
        elif values is None:
            values = scan(pattern, text)
        self._values = values
        self._at = 0
        self._error = error
        self._where = where
        self._ops = ops
        self._keywords = keywords
        self._locations = None
        # one kind per distinct value; the first bad one, or the first
        # integer too long for ``int`` to read, is found in one pass
        digits = _int_digits()
        bad = {value for value in set(values)
               if self.kind(value) == "bad"
               or digits and len(value) > digits and value[:1] in _DIGITS}
        if bad:
            at = next(at for at, value in enumerate(values) if value in bad)
            value = values[at]
            if value[:1] in _DIGITS:
                self._raise(f"integer of {len(value)} digits is too long "
                            f"(at most {digits})", at)
            self._raise(f"unexpected character {value!r}", at)

    def kind(self, value: str) -> str:
        """The kind of a token value."""
        first = value[:1]
        if first in _DIGITS:
            return "int"
        if first in _NAME_START:
            return "kw" if value in self._keywords else "name"
        if value in self._ops:
            return "op"
        return "bad" if value else "end"

    def location(self, at: int):
        """The location of the token at index ``at``."""
        if self._locations is None:
            if self._offsets is None:
                self._offsets = list(map(_token_start,
                                         self._pattern.finditer(self._text)))
            self._line_starts = [0] + [match.end() for match
                                       in re.finditer("\n", self._text)]
            self._locations = [None] * len(self._values)
        location = self._locations[at]
        if location is None:
            offset = self._offsets[at]
            line = bisect_right(self._line_starts, offset)
            location = self._where(line,
                                   offset - self._line_starts[line - 1] + 1)
            self._locations[at] = location
        return location

    @property
    def where(self):
        """Location of the next token."""
        return self.location(self._at)

    def at_end(self) -> bool:
        return not self._values[self._at]

    def peek(self, value: str, ahead: int = 0) -> bool:
        """Whether the token ``ahead`` places on is ``value``.

        Only a token before the end token may be looked past.
        """
        return self._values[self._at + ahead] == value

    def take(self, value: str) -> bool:
        if self._values[self._at] == value:
            self._at += 1
            return True
        return False

    def expect(self, value: str):
        if not self.take(value):
            self.fail(repr(value))

    def name(self, what: str = "name") -> str:
        value = self._values[self._at]
        if value[:1] not in _NAME_START or value in self._keywords:
            self.fail(what)
        self._at += 1
        return value

    def integer(self) -> int:
        """An ``int`` token, after an optional ``-``."""
        negative = self.take("-")
        value = self._values[self._at]
        if value[:1] not in _DIGITS:
            self.fail("integer")
        self._at += 1
        return -int(value) if negative else int(value)

    def fail(self, expected: str) -> NoReturn:
        """Raise ``expected ..., found <the next token>``."""
        value = self._values[self._at]
        found = repr(value) if value else "end of input"
        self._raise(f"expected {expected}, found {found}", self._at)

    def _raise(self, message: str, at: int) -> NoReturn:
        """Raise ``message`` at the location of the token at index ``at``."""
        raise self._error(message, self.location(at))


# -- parsing -----------------------------------------------------------------

_KEYWORDS = frozenset("""
    array bool bool2int constraint exists false forall founded head in int
    minimize not of rule satisfy solve sum true var where
""".split())

_OPS = frozenset(r":: .. -> <- /\ \/ >= <= == != ; : , ( ) [ ] = < > + * -"
                 .split())

_MODEL_TOKENS = _token_pattern(r"[ \t\r\n]+|%[^\n]*", r"[A-Za-z_]\w*", _OPS,
                               located=True)

# The precedence spec: each binary operator's level, weakest first.  Prefix
# ``not`` binds at _NOT, between ``/\`` and the comparisons, unary ``-``
# binds tightest, and a level in _NO_CHAIN takes one operator at most.
_LEVEL = {
    "->": 0, "<-": 0,
    "\\/": 1,
    "/\\": 2,
    ">=": 4, "<=": 4, "==": 4, "!=": 4, "=": 4, "<": 4, ">": 4,
    "+": 5, "-": 5,
    "*": 6,
}
_NOT = 3
_CMP = _LEVEL["="]
_ARITH = _LEVEL["+"]
_NO_CHAIN = {
    _LEVEL["->"]: "implications do not chain; add parentheses",
    _CMP: "comparisons do not chain; add parentheses",
}


class _Parser(Cursor):
    located = True

    def __init__(self, text: str, file: str):
        super().__init__(_MODEL_TOKENS, text, ParseError, partial(Span, file),
                         _OPS, _KEYWORDS)
        self.in_rule = False

    # -- items --------------------------------------------------------------

    def model_items(self) -> list:
        items = []
        while not self.at_end():
            items.append(self._item())
        return items

    def _item(self):
        span = self.where
        if self.take("int"):
            return self._param_decl(span, dims=())
        if self.peek("array"):
            return self._array_decl()
        if self.take("var"):
            return self._var_decl(span, dims=())
        if self.take("constraint"):
            expr = self._expr()
            self.expect(";")
            return ConstraintItem(expr, span)
        if self.take("rule"):
            self.in_rule = True
            try:
                expr = self._expr()
            finally:
                self.in_rule = False
            self.expect(";")
            return RuleItem(expr, span)
        if self.take("solve"):
            if self.take("satisfy"):
                objective = None
            else:
                self.expect("minimize")
                objective = self._expr()
            self.expect(";")
            return SolveItem(objective, span)
        self.fail("a declaration, constraint, rule, or solve item")

    def _array_decl(self):
        span = self.where
        self.expect("array")
        self.expect("[")
        dims = [self._range()]
        while self.take(","):
            dims.append(self._range())
        self.expect("]")
        self.expect("of")
        if self.take("var"):
            return self._var_decl(span, tuple(dims))
        return self._param_decl(span, tuple(dims))

    def _param_decl(self, span: Span, dims: tuple):
        # the leading "int" of a scalar was consumed by the caller
        elem_range = None
        if dims:
            if not self.take("int"):
                elem_range = self._range()
        self.expect(":")
        name = self.name("a parameter name")
        value = None
        if self.take("="):
            if dims:
                value = self._array_lit()
            else:
                value = self._expr(_ARITH)
        self.expect(";")
        return ParamDecl(name, dims, elem_range, value, span)

    def _var_decl(self, span: Span, dims: tuple):
        bounds = None
        if self.take("bool"):
            sort = Sort.BOOL
        elif self.take("int"):
            sort = Sort.INT
        else:
            sort = Sort.INT
            bounds = self._range()
        self.expect(":")
        name = self.name("a variable name")
        founded = False
        if self.take("::"):
            self.expect("founded")
            founded = True
        self.expect(";")
        return VarDecl(name, dims, sort, bounds, founded, span)

    def _range(self) -> tuple:
        lo = self._expr(_ARITH)
        self.expect("..")
        hi = self._expr(_ARITH)
        return (lo, hi)

    def _array_lit(self) -> ArrayLit:
        """A ``[...]`` list: read in one step by ``_int_list`` when it holds
        integer literals alone, else element by element, each an
        expression."""
        span = self.where  # also makes the token offsets and line starts
        self.expect("[")
        lit = self._int_list(span)
        if lit is not None:
            return lit
        elements = []
        if not self.peek("]"):
            elements.append(self._expr(_ARITH))
            while self.take(","):
                elements.append(self._expr(_ARITH))
        self.expect("]")
        return ArrayLit(tuple(elements), span)

    def _int_list(self, span: Span):
        """The list that ``span`` opens, up to its ``]``, when its tokens
        are ``int , int , ... int ]``, else None; the elements' spans are
        left to ``ArrayLit.of_ints``."""
        values, at = self._values, self._at
        try:
            close = values.index("]", at)
        except ValueError:
            return None
        # integers at the even places before the first ``]``, commas at the
        # odd ones; the tokens are ASCII, so only integers join to digits
        if (close - at) % 2 and \
                values[at + 1:close:2].count(",") == (close - at) // 2 and \
                "".join(values[at:close:2]).isdigit():
            self._at = close + 1
            return ArrayLit.of_ints(tuple(map(int, values[at:close:2])),
                                    self._offsets[at:close:2],
                                    self._line_starts, span)
        return None

    # -- expressions ----------------------------------------------------------

    def _expr(self, least: int = 0):
        """An expression of operators at ``least`` or a tighter level."""
        values = self._values
        if least <= _NOT and values[self._at] == "not":
            span = self.where
            self._at += 1
            left = Not(self._expr(_NOT), span)
        else:
            left = self._unary()
        while True:
            op = values[self._at]
            level = _LEVEL.get(op, -1)
            if level < least:
                return left
            span = self.where
            self._at += 1
            right = self._expr(level + 1)
            if level in _NO_CHAIN and _LEVEL.get(values[self._at]) == level:
                raise ParseError(_NO_CHAIN[level], self.where)
            if level == _CMP:
                left = Comparison("=" if op == "==" else op, left, right,
                                  span)
            else:
                left = BinOp(op, left, right, span)

    def _unary(self):
        if self._values[self._at] == "-":
            span = self.where
            self._at += 1
            return Neg(self._unary(), span)
        return self._primary()

    def _primary(self):
        value = self._values[self._at]
        kind = self.kind(value)
        if kind == "int":
            span = self.where
            return IntLit(self.integer(), span)
        if kind == "name":
            return self._reference()
        span = self.where
        if value in ("forall", "exists", "sum"):
            self.take(value)
            return self._aggregate(value, span)
        if self.take("bool2int"):
            self.expect("(")
            operand = self._expr()
            self.expect(")")
            return Bool2Int(operand, span)
        if self.take("("):
            inner = self._expr()
            if self.peek("::"):
                if not self.in_rule:
                    raise ParseError(
                        "head annotations are only allowed in rules",
                        self.where)
                self.take("::")
                ann_span = self.where
                self.expect("head")
                self.expect("(")
                target = self._reference("a head variable")
                self.expect(")")
                inner = HeadAnn(inner, target, ann_span)
            self.expect(")")
            return inner
        self.fail("an expression")

    def _reference(self, what: str = "name"):
        """A name, or an array name with its bracketed indices."""
        span = self.where
        name = self.name(what)
        if not self.take("["):
            return Ident(name, span)
        indices = [self._expr(_ARITH)]
        while self.take(","):
            indices.append(self._expr(_ARITH))
        self.expect("]")
        return ArrayAccess(name, tuple(indices), span)

    def _aggregate(self, kind: str, span: Span) -> Agg:
        self.expect("(")
        gens = [self._generator()]
        while self.take(","):
            gens.append(self._generator())
        where = None
        if self.take("where"):
            where = self._expr()
        self.expect(")")
        # the body is a parenthesized group; parsing it as a primary lets
        # rule-level head annotations attach inside the parentheses
        body = self._primary()
        return Agg(kind, tuple(gens), where, body, span)

    def _generator(self) -> Gen:
        span = self.where
        names = [self.name("a generator name")]
        while not self.peek("in"):
            self.expect(",")
            names.append(self.name("a generator name"))
        self.expect("in")
        lo, hi = self._range()
        return Gen(tuple(names), lo, hi, span)


# -- name resolution ----------------------------------------------------------

# The contexts an expression is checked in: parameter arithmetic, where
# guards, constraint and rule bodies, and the objective.  _OPEN and _CLOSE
# mark the walk's stack entries that open a generator's names and close an
# aggregate's scope.
_PARAM, _GUARD, _BODY, _OBJECTIVE, _OPEN, _CLOSE = range(6)


# Arithmetic operators bind at _ARITH or tighter, logical ones at weaker
# levels than prefix ``not``.
_ARITH_OPS = [op for op, level in _LEVEL.items() if level >= _ARITH]
_LOGIC_OPS = [op for op, level in _LEVEL.items() if level < _NOT]


def _body(here: int) -> dict:
    return {IntLit: here, Ident: here, ArrayAccess: _PARAM, Neg: here,
            Not: here, **dict.fromkeys(_ARITH_OPS + _LOGIC_OPS, here),
            Comparison: _BODY, Agg: here,
            HeadAnn: "misplaced head annotation",
            None: "unsupported expression"}


# The context table: for each context, the node kinds it admits, each with
# the context its operands are checked in (array indices and generator
# ranges are always parameter expressions), or with the message that
# refuses it.  A node's kind is its type, and a BinOp's is its operator.
# Kinds not listed get the message under None.  An objective is a body that
# also admits bool2int.
_ADMITS = {
    _PARAM: {IntLit: _PARAM, Ident: _PARAM, ArrayAccess: _PARAM,
             Neg: _PARAM, **dict.fromkeys(_ARITH_OPS, _PARAM),
             None: "only integer parameter arithmetic is allowed here"},
    _GUARD: {Comparison: _PARAM, Not: _GUARD,
             **dict.fromkeys(_LOGIC_OPS, _GUARD),
             None: "a where guard must be a parameter condition"},
    _BODY: {**_body(_BODY),
            Bool2Int: "bool2int is only allowed in the objective"},
    _OBJECTIVE: {**_body(_OBJECTIVE), Bool2Int: _BODY},
}


# what _Resolver._lookup returns for a generator name
_GEN = "gen"


def _operand(node) -> tuple:
    return (node.operand,)


# The walk's one per-type table: each node type with operands, and a getter
# of its operands, in order.
_OPERANDS = {
    BinOp: attrgetter("left", "right"),
    Comparison: attrgetter("left", "right"),
    ArrayAccess: attrgetter("indices"),
    Neg: _operand,
    Not: _operand,
    Bool2Int: _operand,
}


class _Resolver:
    """Checks declarations, arity, and which names each context may use.

    Every expression is checked by one iterative walk, ``_walk``, against
    the context table ``_ADMITS``.
    """

    def __init__(self, file: str):
        self.file = file
        self.decls: dict[str, object] = {}
        self.gen_names: list[str] = []

    def run(self, items: list) -> Model:
        params, variables, constraints, rules = [], [], [], []
        solve = None
        for item in items:
            if isinstance(item, ParamDecl):
                self._params(*_pairs(item.dims), *(item.elem_range or ()),
                             *_values(item))
                self._declare(item.name, item, item.span)
                params.append(item)
            elif isinstance(item, VarDecl):
                self._params(*_pairs(item.dims), *(item.bounds or ()))
                self._declare(item.name, item, item.span)
                variables.append(item)
            elif isinstance(item, ConstraintItem):
                self._walk([(item.expr, _BODY)])
                constraints.append(item)
            elif isinstance(item, RuleItem):
                self._rule(item)
                rules.append(item)
            else:
                if solve is not None:
                    raise ParseError("more than one solve item", item.span)
                if item.objective is not None:
                    self._walk([(item.objective, _OBJECTIVE)])
                solve = item
        return Model(self.file, tuple(params), tuple(variables),
                     tuple(constraints), tuple(rules), solve)

    def _declare(self, name: str, decl, span: Span):
        if name in self.decls:
            raise ParseError(f"'{name}' is already declared", span)
        self.decls[name] = decl

    def _params(self, *exprs):
        self._walk([(expr, _PARAM) for expr in exprs])

    # -- the expression walk -------------------------------------------------

    def _walk(self, work: list):
        """Check ``(node, context)`` pairs in order, depth first.

        An explicit stack replaces recursion, so neither nesting nor a long
        operator chain is bounded by the interpreter's recursion limit.
        """
        stack = work[::-1]
        push = stack.append
        while stack:
            node, context = stack.pop()
            if context == _OPEN:
                self._open(node)
                continue
            if context == _CLOSE:
                del self.gen_names[node:]
                continue
            kind = type(node)
            admits = _ADMITS[context]
            inner = admits.get(node.op if kind is BinOp else kind,
                               admits[None])
            if type(inner) is str:
                raise ParseError(inner, _span_of(node))
            operands = _OPERANDS.get(kind)
            if operands is not None:
                if kind is ArrayAccess:
                    self._reference(node, context == _PARAM)
                for operand in reversed(operands(node)):
                    push((operand, inner))
            elif kind is Ident:
                self._reference(node, context == _PARAM)
            elif kind is Agg:
                push((len(self.gen_names), _CLOSE))
                push((node.body, inner))
                stack.extend(reversed(_scope(node)))

    def _lookup(self, name: str, span: Span):
        if name in self.gen_names:
            return _GEN
        decl = self.decls.get(name)
        if decl is None:
            raise ParseError(f"'{name}' is not declared", span)
        return decl

    def _reference(self, ref, param: bool):
        """A name or array access; ``param`` when only parameters may be
        named."""
        decl = self._lookup(ref.name, ref.span)
        if isinstance(ref, Ident):
            if param and isinstance(decl, VarDecl):
                raise ParseError(
                    f"'{ref.name}' is a variable; only parameters are "
                    f"allowed here", ref.span)
            if decl is not _GEN and decl.dims:
                raise ParseError(f"array '{ref.name}' needs indices",
                                 ref.span)
            return
        if decl is _GEN or param and isinstance(decl, VarDecl):
            what = "a parameter array" if param else "an array"
            raise ParseError(f"'{ref.name}' is not {what}", ref.span)
        dims = len(decl.dims)
        if dims == 0:
            raise ParseError(f"'{ref.name}' is not an array", ref.span)
        if len(ref.indices) != dims:
            raise ParseError(
                f"'{ref.name}' has {dims} dimension(s), "
                f"{len(ref.indices)} index(es) given", ref.span)

    def _open(self, gen: Gen):
        for name in gen.names:
            if name in self.decls or name in self.gen_names:
                raise ParseError(
                    f"generator name '{name}' shadows another name",
                    gen.span)
            self.gen_names.append(name)

    def _rule(self, item: RuleItem):
        node = item.expr
        while isinstance(node, Agg) and node.kind == "forall":
            self._walk(_scope(node))
            node = node.body
        if not isinstance(node, HeadAnn):
            raise ParseError(
                "a rule needs one ':: head(...)' annotation, directly inside "
                "the rule or under its foralls", item.span)
        target = node.target
        decl = self._lookup(target.name, target.span)
        if decl is _GEN or isinstance(decl, ParamDecl):
            raise ParseError(f"head '{target.name}' is not a variable",
                             target.span)
        self._walk([(target, _BODY), (node.body, _BODY)])
        self.gen_names.clear()


def _scope(agg: Agg) -> list:
    """Work that checks an aggregate's generators, opens their names, and
    checks its where guard."""
    work = []
    for gen in agg.gens:
        work += [(gen.lo, _PARAM), (gen.hi, _PARAM), (gen, _OPEN)]
    if agg.where is not None:
        work.append((agg.where, _GUARD))
    return work


def _values(item: ParamDecl) -> tuple:
    """The value expressions of a parameter declaration; the grammar gives
    an array parameter a ``[...]`` value."""
    if item.value is None:
        return ()
    return item.value.elements if item.dims else (item.value,)


def _pairs(ranges) -> tuple:
    return tuple(bound for pair in ranges for bound in pair)


def _span_of(expr) -> Span:
    return getattr(expr, "span", Span("<unknown>", 0, 0))


def parse_model(text: str, file: str = "<model>") -> Model:
    """Parse and resolve a model file; raises ParseError with a span.

    Parsing recurses once per nested operand, so input nested past the
    interpreter's recursion limit raises a ParseError.  A flat operator
    chain is read, and resolved, in a loop.
    """
    try:
        items = _Parser(text, file).model_items()
        return _Resolver(file).run(items)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def parse_data(text: str, file: str = "<data>") -> tuple:
    """Parse a data file: ``name = literal;`` items only.

    Nesting past the interpreter's recursion limit raises a ParseError.
    """
    try:
        return _parse_data(text, file)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def _parse_data(text: str, file: str) -> tuple:
    parser = _Parser(text, file)
    assigns = []
    while not parser.at_end():
        span = parser.where
        name = parser.name("a parameter name")
        parser.expect("=")
        if parser.peek("["):
            value = parser._array_lit()
        else:
            value = parser._expr(_ARITH)
        parser.expect(";")
        assigns.append(DataAssign(name, value, span))
    return tuple(assigns)
