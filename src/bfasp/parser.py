"""Scanner, token cursor, parser, and name resolution for model and data files.

The operator table ``_LEVEL`` is the precedence spec, read by one
precedence-climbing loop, ``_Parser._expr``.  ``::`` head annotations (rules
only) close a parenthesized group.  Comments run from ``%`` to end of line.

``scan`` and ``Cursor`` also read the ground-program and assignment formats
(``ground_format``): the four text formats share one scanner and one cursor
and differ only in their token regex and their grammar.
"""

import re
from functools import partial
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


def scan(pattern: re.Pattern, text: str, where) -> list:
    """Split ``text`` into ``(kind, value, location)`` tokens.

    Each alternative of ``pattern`` is a named group, and the group's name is
    the token's kind.  ``skip`` matches (whitespace and comments) are
    dropped, and lines are counted from the newlines they hold.  A catch-all
    ``bad`` group of one character ends the list; otherwise an ``end`` token
    does.  Locations are ``where(line, column)``, both counted from 1.
    """
    tokens = []
    line, line_start = 1, 0
    for match in pattern.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "skip":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + value.rindex("\n") + 1
            continue
        col = match.start() - line_start + 1
        tokens.append((kind, value, where(line, col)))
        if kind == "bad":
            return tokens
    tokens.append(("end", "", where(line, len(text) - line_start + 1)))
    return tokens


class Cursor:
    """Reads the tokens of one text; errors are ``error(message, location)``.

    Tokens are matched by value, so a grammar peeks keywords and operators
    alike; ``name`` and ``integer`` read the ``name`` and ``int`` kinds.
    """

    def __init__(self, pattern: re.Pattern, text: str, error, where):
        self._tokens = scan(pattern, text, where)
        self._at = 0
        self._error = error
        kind, value, location = self._tokens[-1]
        if kind == "bad":
            raise error(f"unexpected character {value!r}", location)

    @property
    def current(self) -> tuple:
        """The next token as ``(kind, value, location)``."""
        return self._tokens[self._at]

    @property
    def where(self):
        """Location of the next token."""
        return self._tokens[self._at][2]

    def at_end(self) -> bool:
        return self._tokens[self._at][0] == "end"

    def peek(self, value: str, ahead: int = 0) -> bool:
        """Whether the token ``ahead`` places on is ``value``.

        Only a token before the end token may be looked past.
        """
        return self._tokens[self._at + ahead][1] == value

    def take(self, value: str) -> bool:
        if self._tokens[self._at][1] == value:
            self._at += 1
            return True
        return False

    def expect(self, value: str):
        if not self.take(value):
            self.fail(repr(value))

    def name(self, what: str = "name") -> str:
        kind, value, _ = self._tokens[self._at]
        if kind != "name":
            self.fail(what)
        self._at += 1
        return value

    def integer(self) -> int:
        """An ``int`` token, after an optional ``-``."""
        negative = self.take("-")
        kind, value, _ = self._tokens[self._at]
        if kind != "int":
            self.fail("integer")
        self._at += 1
        return -int(value) if negative else int(value)

    def fail(self, expected: str) -> NoReturn:
        """Raise ``expected ..., found <the next token>``."""
        kind, value, location = self._tokens[self._at]
        found = "end of input" if kind == "end" else repr(value)
        raise self._error(f"expected {expected}, found {found}", location)


# -- parsing -----------------------------------------------------------------

_KEYWORDS = """
    array bool bool2int constraint exists false forall founded head in int
    minimize not of rule satisfy solve sum true var where
""".split()

_MODEL_TOKENS = re.compile(
    r"""(?P<skip>[ \t\r\n]+|%[^\n]*)
      | (?P<kw>(?:""" + "|".join(_KEYWORDS) + r""")\b)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<int>\d+)
      | (?P<op>::|\.\.|->|<-|/\\|\\/|[<>=!]=|[;:,()\[\]=<>+*-])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)

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
    def __init__(self, text: str, file: str):
        super().__init__(_MODEL_TOKENS, text, ParseError, partial(Span, file))
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
        span = self.where
        self.expect("[")
        elements = []
        if not self.peek("]"):
            elements.append(self._expr(_ARITH))
            while self.take(","):
                elements.append(self._expr(_ARITH))
        self.expect("]")
        return ArrayLit(tuple(elements), span)

    # -- expressions ----------------------------------------------------------

    def _expr(self, least: int = 0):
        """An expression of operators at ``least`` or a tighter level."""
        span = self.where
        if least <= _NOT and self.take("not"):
            left = Not(self._expr(_NOT), span)
        else:
            left = self._unary()
        while True:
            span = self.where
            op = self.current[1]
            level = _LEVEL.get(op, -1)
            if level < least:
                return left
            self.take(op)
            right = self._expr(level + 1)
            if level in _NO_CHAIN and _LEVEL.get(self.current[1]) == level:
                raise ParseError(_NO_CHAIN[level], self.where)
            if level == _CMP:
                left = Comparison("=" if op == "==" else op, left, right,
                                  span)
            else:
                left = BinOp(op, left, right, span)

    def _unary(self):
        span = self.where
        if self.take("-"):
            return Neg(self._unary(), span)
        return self._primary()

    def _primary(self):
        kind, value, span = self.current
        if kind == "int":
            return IntLit(self.integer(), span)
        if kind == "name":
            return self._reference()
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


def _body(here: int) -> dict:
    return {IntLit: here, Ident: here, ArrayAccess: _PARAM, Neg: here,
            Not: here, "arith": here, "logic": here, Comparison: _BODY,
            Agg: here, HeadAnn: "misplaced head annotation",
            None: "unsupported expression"}


# The context table: for each context, the node kinds it admits, each with
# the context its operands are checked in (array indices and generator
# ranges are always parameter expressions), or with the message that
# refuses it.  Kinds not listed get the message under None.  An objective is
# a body that also admits bool2int.
_ADMITS = {
    _PARAM: {IntLit: _PARAM, Ident: _PARAM, ArrayAccess: _PARAM,
             Neg: _PARAM, "arith": _PARAM,
             None: "only integer parameter arithmetic is allowed here"},
    _GUARD: {Comparison: _PARAM, Not: _GUARD, "logic": _GUARD,
             None: "a where guard must be a parameter condition"},
    _BODY: {**_body(_BODY),
            Bool2Int: "bool2int is only allowed in the objective"},
    _OBJECTIVE: {**_body(_OBJECTIVE), Bool2Int: _BODY},
}


def _kind(node):
    if isinstance(node, BinOp):
        return "arith" if node.op in ("+", "-", "*") else "logic"
    return type(node)


def _operands(node) -> tuple:
    if isinstance(node, (BinOp, Comparison)):
        return (node.left, node.right)
    if isinstance(node, ArrayAccess):
        return node.indices
    if isinstance(node, (Neg, Not, Bool2Int)):
        return (node.operand,)
    return ()


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
        while stack:
            node, context = stack.pop()
            if context == _OPEN:
                self._open(node)
                continue
            if context == _CLOSE:
                del self.gen_names[node:]
                continue
            kind = _kind(node)
            admits = _ADMITS[context]
            inner = admits.get(kind, admits[None])
            if isinstance(inner, str):
                raise ParseError(inner, _span_of(node))
            if kind is Ident or kind is ArrayAccess:
                self._reference(node, context == _PARAM)
            if kind is Agg:
                stack.append((len(self.gen_names), _CLOSE))
                stack.append((node.body, inner))
                stack.extend(reversed(_scope(node)))
            else:
                for operand in reversed(_operands(node)):
                    stack.append((operand, inner))

    def _lookup(self, name: str, span: Span):
        if name in self.gen_names:
            return "gen"
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
            if decl != "gen" and decl.dims:
                raise ParseError(f"array '{ref.name}' needs indices",
                                 ref.span)
            return
        if decl == "gen" or param and isinstance(decl, VarDecl):
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
        if decl == "gen" or isinstance(decl, ParamDecl):
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
