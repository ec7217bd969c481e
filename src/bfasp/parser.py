"""Lexer, parser, and name resolution for model and data files.

Connective precedence, weakest first: ``::`` head annotations (rules only),
``->``/``<-`` (no chaining), ``\\/``, ``/\\``, ``not``, comparisons (no
chaining), ``+``/``-``, ``*``.  Comments run from ``%`` to end of line.
"""

from .errors import ParseError
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

_KEYWORDS = frozenset("""
    array bool bool2int constraint exists false forall founded head in int
    minimize not of rule satisfy solve sum true var where
""".split())

# longest first so ".." wins over "." and "::" over ":"
_OPS = ("::", "..", "->", "<-", "/\\", "\\/", ">=", "<=", "==", "!=",
        ";", ":", ",", "(", ")", "[", "]", "=", "<", ">", "+", "-", "*")

_CMP_OPS = (">=", "<=", "==", "!=", "=", "<", ">")


def _lex(text: str, file: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = Span(file, line, col)
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], span))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("kw" if word in _KEYWORDS else "id", word, span))
            col += j - i
            i = j
            continue
        for op in _OPS:
            if text.startswith(op, i):
                tokens.append(("op", op, span))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", span)
    tokens.append(("end", "", Span(file, line, col)))
    return tokens


class _Parser:
    def __init__(self, text: str, file: str):
        self.tokens = _lex(text, file)
        self.at = 0
        self.in_rule = False

    # -- token plumbing ---------------------------------------------------

    @property
    def span(self) -> Span:
        return self.tokens[self.at][2]

    def _peek(self, value: str) -> bool:
        kind, got, _ = self.tokens[self.at]
        return kind in ("kw", "op") and got == value

    def _take(self, value: str) -> bool:
        if self._peek(value):
            self.at += 1
            return True
        return False

    def _expect(self, value: str):
        kind, got, span = self.tokens[self.at]
        if kind == "end":
            raise ParseError(f"expected {value!r} before end of input", span)
        if not self._take(value):
            raise ParseError(f"expected {value!r}, found {got!r}", span)

    def _ident(self, what: str = "a name") -> tuple:
        kind, got, span = self.tokens[self.at]
        if kind != "id":
            shown = "end of input" if kind == "end" else repr(got)
            raise ParseError(f"expected {what}, found {shown}", span)
        self.at += 1
        return got, span

    def _at_end(self) -> bool:
        return self.tokens[self.at][0] == "end"

    # -- items --------------------------------------------------------------

    def model_items(self) -> list:
        items = []
        while not self._at_end():
            items.append(self._item())
        return items

    def _item(self):
        span = self.span
        if self._take("int"):
            return self._param_decl(span, dims=())
        if self._peek("array"):
            return self._array_decl()
        if self._take("var"):
            return self._var_decl(span, dims=())
        if self._take("constraint"):
            expr = self._expr()
            self._expect(";")
            return ConstraintItem(expr, span)
        if self._take("rule"):
            self.in_rule = True
            try:
                expr = self._expr()
            finally:
                self.in_rule = False
            self._expect(";")
            return RuleItem(expr, span)
        if self._take("solve"):
            if self._take("satisfy"):
                objective = None
            else:
                self._expect("minimize")
                objective = self._expr()
            self._expect(";")
            return SolveItem(objective, span)
        kind, got, _ = self.tokens[self.at]
        shown = "end of input" if kind == "end" else repr(got)
        raise ParseError(f"expected a declaration, constraint, rule, or "
                         f"solve item, found {shown}", span)

    def _array_decl(self):
        span = self.span
        self._expect("array")
        self._expect("[")
        dims = [self._range()]
        while self._take(","):
            dims.append(self._range())
        self._expect("]")
        self._expect("of")
        if self._take("var"):
            return self._var_decl(span, tuple(dims))
        return self._param_decl(span, tuple(dims))

    def _param_decl(self, span: Span, dims: tuple):
        # the leading "int" of a scalar was consumed by the caller
        elem_range = None
        if dims:
            if not self._take("int"):
                elem_range = self._range()
        self._expect(":")
        name, _ = self._ident("a parameter name")
        value = None
        if self._take("="):
            if dims:
                value = self._array_lit()
            else:
                value = self._additive()
        self._expect(";")
        return ParamDecl(name, dims, elem_range, value, span)

    def _var_decl(self, span: Span, dims: tuple):
        bounds = None
        if self._take("bool"):
            sort = Sort.BOOL
        elif self._take("int"):
            sort = Sort.INT
        else:
            sort = Sort.INT
            bounds = self._range()
        self._expect(":")
        name, _ = self._ident("a variable name")
        founded = False
        if self._take("::"):
            self._expect("founded")
            founded = True
        self._expect(";")
        return VarDecl(name, dims, sort, bounds, founded, span)

    def _range(self) -> tuple:
        lo = self._additive()
        self._expect("..")
        hi = self._additive()
        return (lo, hi)

    def _array_lit(self) -> ArrayLit:
        span = self.span
        self._expect("[")
        elements = []
        if not self._peek("]"):
            elements.append(self._additive())
            while self._take(","):
                elements.append(self._additive())
        self._expect("]")
        return ArrayLit(tuple(elements), span)

    # -- expressions ----------------------------------------------------------

    def _expr(self):
        return self._implication()

    def _implication(self):
        left = self._disjunction()
        span = self.span
        if self._take("->"):
            op = "->"
        elif self._take("<-"):
            op = "<-"
        else:
            return left
        right = self._disjunction()
        if self._peek("->") or self._peek("<-"):
            raise ParseError("implications do not chain; add parentheses",
                             self.span)
        return BinOp(op, left, right, span)

    def _disjunction(self):
        left = self._conjunction()
        while True:
            span = self.span
            if not self._take("\\/"):
                return left
            left = BinOp("\\/", left, self._conjunction(), span)

    def _conjunction(self):
        left = self._negation()
        while True:
            span = self.span
            if not self._take("/\\"):
                return left
            left = BinOp("/\\", left, self._negation(), span)

    def _negation(self):
        span = self.span
        if self._take("not"):
            return Not(self._negation(), span)
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        span = self.span
        for op in _CMP_OPS:
            if self._take(op):
                right = self._additive()
                if any(self._peek(o) for o in _CMP_OPS):
                    raise ParseError(
                        "comparisons do not chain; add parentheses", self.span)
                return Comparison("=" if op == "==" else op, left, right, span)
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            span = self.span
            if self._take("+"):
                left = BinOp("+", left, self._multiplicative(), span)
            elif self._take("-"):
                left = BinOp("-", left, self._multiplicative(), span)
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            span = self.span
            if not self._take("*"):
                return left
            left = BinOp("*", left, self._unary(), span)

    def _unary(self):
        span = self.span
        if self._take("-"):
            return Neg(self._unary(), span)
        return self._primary()

    def _primary(self):
        kind, value, span = self.tokens[self.at]
        if kind == "int":
            self.at += 1
            return IntLit(int(value), span)
        if kind == "id":
            self.at += 1
            if self._take("["):
                indices = [self._additive()]
                while self._take(","):
                    indices.append(self._additive())
                self._expect("]")
                return ArrayAccess(value, tuple(indices), span)
            return Ident(value, span)
        if value in ("forall", "exists", "sum"):
            self.at += 1
            return self._aggregate(value, span)
        if self._take("bool2int"):
            self._expect("(")
            operand = self._expr()
            self._expect(")")
            return Bool2Int(operand, span)
        if self._take("("):
            inner = self._expr()
            if self._peek("::"):
                if not self.in_rule:
                    raise ParseError(
                        "head annotations are only allowed in rules", self.span)
                self._take("::")
                ann_span = self.span
                self._expect("head")
                self._expect("(")
                target = self._head_target()
                self._expect(")")
                inner = HeadAnn(inner, target, ann_span)
            self._expect(")")
            return inner
        shown = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"expected an expression, found {shown}", span)

    def _head_target(self):
        name, span = self._ident("a head variable")
        if self._take("["):
            indices = [self._additive()]
            while self._take(","):
                indices.append(self._additive())
            self._expect("]")
            return ArrayAccess(name, tuple(indices), span)
        return Ident(name, span)

    def _aggregate(self, kind: str, span: Span) -> Agg:
        self._expect("(")
        gens = [self._generator()]
        while self._take(","):
            gens.append(self._generator())
        where = None
        if self._take("where"):
            where = self._expr()
        self._expect(")")
        # the body is a parenthesized group; parsing it as a primary lets
        # rule-level head annotations attach inside the parentheses
        body = self._primary()
        return Agg(kind, tuple(gens), where, body, span)

    def _generator(self) -> Gen:
        span = self.span
        names = [self._ident("a generator name")[0]]
        while not self._peek("in"):
            self._expect(",")
            names.append(self._ident("a generator name")[0])
        self._expect("in")
        lo, hi = self._range()
        return Gen(tuple(names), lo, hi, span)


# -- name resolution ----------------------------------------------------------


class _Resolver:
    """Checks declarations, arity, and which names each context may use."""

    def __init__(self, file: str):
        self.file = file
        self.decls: dict[str, object] = {}
        self.gen_names: list[str] = []

    def run(self, items: list) -> Model:
        params, variables, constraints, rules = [], [], [], []
        solve = None
        for item in items:
            if isinstance(item, ParamDecl):
                for lo, hi in item.dims:
                    self._param_expr(lo)
                    self._param_expr(hi)
                if item.elem_range is not None:
                    self._param_expr(item.elem_range[0])
                    self._param_expr(item.elem_range[1])
                if item.value is not None:
                    self._decl_value(item)
                self._declare(item.name, item, item.span)
                params.append(item)
            elif isinstance(item, VarDecl):
                for lo, hi in item.dims:
                    self._param_expr(lo)
                    self._param_expr(hi)
                if item.bounds is not None:
                    self._param_expr(item.bounds[0])
                    self._param_expr(item.bounds[1])
                self._declare(item.name, item, item.span)
                variables.append(item)
            elif isinstance(item, ConstraintItem):
                self._body_expr(item.expr)
                constraints.append(item)
            elif isinstance(item, RuleItem):
                self._rule(item)
                rules.append(item)
            else:
                if solve is not None:
                    raise ParseError("more than one solve item", item.span)
                if item.objective is not None:
                    self._objective_expr(item.objective)
                solve = item
        return Model(self.file, tuple(params), tuple(variables),
                     tuple(constraints), tuple(rules), solve)

    def _declare(self, name: str, decl, span: Span):
        if name in self.decls:
            raise ParseError(f"'{name}' is already declared", span)
        self.decls[name] = decl

    def _decl_value(self, item: ParamDecl):
        value = item.value
        if item.dims:
            if not isinstance(value, ArrayLit):
                raise ParseError(
                    f"array parameter '{item.name}' needs a [...] value",
                    item.span)
            for element in value.elements:
                self._param_expr(element)
        else:
            self._param_expr(value)

    # -- expression walks --------------------------------------------------

    def _lookup(self, name: str, span: Span):
        if name in self.gen_names:
            return "gen"
        decl = self.decls.get(name)
        if decl is None:
            raise ParseError(f"'{name}' is not declared", span)
        return decl

    def _param_expr(self, expr):
        """Expressions that must be fixed by parameters alone."""
        if isinstance(expr, IntLit):
            return
        if isinstance(expr, Ident):
            decl = self._lookup(expr.name, expr.span)
            if isinstance(decl, VarDecl):
                raise ParseError(
                    f"'{expr.name}' is a variable; only parameters are "
                    f"allowed here", expr.span)
            if isinstance(decl, ParamDecl) and decl.dims:
                raise ParseError(f"array '{expr.name}' needs indices",
                                 expr.span)
            return
        if isinstance(expr, ArrayAccess):
            decl = self._lookup(expr.name, expr.span)
            if decl == "gen" or isinstance(decl, VarDecl):
                raise ParseError(
                    f"'{expr.name}' is not a parameter array", expr.span)
            self._check_arity(decl, expr)
            for index in expr.indices:
                self._param_expr(index)
            return
        if isinstance(expr, Neg):
            self._param_expr(expr.operand)
            return
        if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
            self._param_expr(expr.left)
            self._param_expr(expr.right)
            return
        raise ParseError("only integer parameter arithmetic is allowed here",
                         _span_of(expr))

    def _guard_expr(self, expr):
        """Where guards: Boolean combinations of parameter comparisons."""
        if isinstance(expr, Comparison):
            self._param_expr(expr.left)
            self._param_expr(expr.right)
            return
        if isinstance(expr, Not):
            self._guard_expr(expr.operand)
            return
        if isinstance(expr, BinOp) and expr.op in ("/\\", "\\/", "->", "<-"):
            self._guard_expr(expr.left)
            self._guard_expr(expr.right)
            return
        raise ParseError("a where guard must be a parameter condition",
                         _span_of(expr))

    def _check_arity(self, decl, access: ArrayAccess):
        dims = len(decl.dims)
        if dims == 0:
            raise ParseError(f"'{access.name}' is not an array", access.span)
        if len(access.indices) != dims:
            raise ParseError(
                f"'{access.name}' has {dims} dimension(s), "
                f"{len(access.indices)} index(es) given", access.span)

    def _body_expr(self, expr, *, allow_b2i: bool = False):
        """Constraint and rule bodies: variables, parameters, aggregates."""
        if isinstance(expr, (IntLit,)):
            return
        if isinstance(expr, Ident):
            decl = self._lookup(expr.name, expr.span)
            if isinstance(decl, (ParamDecl, VarDecl)) and decl.dims:
                raise ParseError(f"array '{expr.name}' needs indices",
                                 expr.span)
            return
        if isinstance(expr, ArrayAccess):
            decl = self._lookup(expr.name, expr.span)
            if decl == "gen":
                raise ParseError(f"'{expr.name}' is not an array", expr.span)
            self._check_arity(decl, expr)
            for index in expr.indices:
                self._param_expr(index)
            return
        if isinstance(expr, (Neg, Not)):
            self._body_expr(expr.operand, allow_b2i=allow_b2i)
            return
        if isinstance(expr, BinOp):
            self._body_expr(expr.left, allow_b2i=allow_b2i)
            self._body_expr(expr.right, allow_b2i=allow_b2i)
            return
        if isinstance(expr, Comparison):
            self._body_expr(expr.left)
            self._body_expr(expr.right)
            return
        if isinstance(expr, Agg):
            self._aggregate(expr, allow_b2i=allow_b2i)
            return
        if isinstance(expr, Bool2Int):
            if not allow_b2i:
                raise ParseError(
                    "bool2int is only allowed in the objective", expr.span)
            self._body_expr(expr.operand)
            return
        if isinstance(expr, HeadAnn):
            raise ParseError("misplaced head annotation", expr.span)
        raise ParseError("unsupported expression", _span_of(expr))

    def _aggregate(self, agg: Agg, *, allow_b2i: bool):
        opened = self._open_gens(agg)
        if agg.where is not None:
            self._guard_expr(agg.where)
        self._body_expr(agg.body, allow_b2i=allow_b2i)
        del self.gen_names[-opened:]

    def _open_gens(self, agg: Agg) -> int:
        opened = 0
        for gen in agg.gens:
            self._param_expr(gen.lo)
            self._param_expr(gen.hi)
            for name in gen.names:
                if name in self.decls or name in self.gen_names:
                    raise ParseError(
                        f"generator name '{name}' shadows another name",
                        gen.span)
                self.gen_names.append(name)
                opened += 1
        return opened

    def _objective_expr(self, expr):
        self._body_expr(expr, allow_b2i=True)

    def _rule(self, item: RuleItem):
        node = item.expr
        opened = 0
        while isinstance(node, Agg) and node.kind == "forall":
            opened += self._open_gens(node)
            if node.where is not None:
                self._guard_expr(node.where)
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
        if isinstance(target, ArrayAccess):
            self._check_arity(decl, target)
            for index in target.indices:
                self._param_expr(index)
        elif decl.dims:
            raise ParseError(f"array '{target.name}' needs indices",
                             target.span)
        self._body_expr(node.body)
        if opened:
            del self.gen_names[-opened:]


def _span_of(expr) -> Span:
    return getattr(expr, "span", Span("<unknown>", 0, 0))


_TOO_DEEP = "input nested too deeply to process"


def parse_model(text: str, file: str = "<model>") -> Model:
    """Parse and resolve a model file; raises ParseError with a span.

    Parsing and resolution recurse once per nesting level, so input nested
    past the interpreter's recursion limit raises a ParseError.
    """
    try:
        items = _Parser(text, file).model_items()
        return _Resolver(file).run(items)
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def parse_data(text: str, file: str = "<data>") -> tuple:
    """Parse a data file: ``name = literal;`` items only.

    Nesting past the interpreter's recursion limit raises a ParseError.
    """
    try:
        return _parse_data(text, file)
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def _parse_data(text: str, file: str) -> tuple:
    parser = _Parser(text, file)
    assigns = []
    while not parser._at_end():
        span = parser.span
        name, _ = parser._ident("a parameter name")
        parser._expect("=")
        if parser._peek("["):
            value = parser._array_lit()
        else:
            value = parser._additive()
        parser._expect(";")
        assigns.append(DataAssign(name, value, span))
    return tuple(assigns)
