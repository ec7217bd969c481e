"""Instantiation of parsed models into ground programs.

Binds parameters from inline values and data files, expands array variables
into cells, unfolds aggregates, normalizes comparisons to ``>=`` atoms, and
flattens each constraint to conjunctive normal form.  Every rule instance
must flatten to a single clause containing its head; violations are reported
with the generator bindings that produced them.
"""

import itertools
import operator

from .analysis import Monotonicity, monotonicity, validate_rule
from .errors import GroundingError
from .model_ast import (
    Agg,
    ArrayAccess,
    ArrayLit,
    BinOp,
    Bool2Int,
    Comparison,
    HeadAnn,
    Ident,
    IntLit,
    Model,
    Neg,
    Not,
    ParamDecl,
)
from .program import (
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    Rule,
    Sort,
    VarKind,
    Variable,
)

# Hard cap on clauses produced while distributing one constraint or rule
# into conjunctive normal form.
_EXPANSION_LIMIT = 20000

# The comparisons, by operator: each one's negation; its ``>=`` atoms as a
# conjunction of clauses, each atom a ``(swap sides, gap)`` pair that reads
# ``left - right >= gap`` (``right - left`` when swapped); and its truth on
# fixed integers.
_NEGATED = {">=": "<", "<=": ">", ">": "<=", "<": ">=", "=": "!=", "!=": "="}
_ATOMS = {
    ">=": (((False, 0),),),
    "<=": (((True, 0),),),
    ">": (((False, 1),),),
    "<": (((True, 1),),),
    "=": (((False, 0),), ((True, 0),)),
    "!=": (((False, 1), (True, 1)),),
}
_HOLDS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
          "<": operator.lt, "=": operator.eq, "!=": operator.ne}

# Operators whose left-deep chains are folded in a loop, not recursion.
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CONNECTIVES = ("/\\", "\\/")


class _ParamArray:
    def __init__(self, name, ranges, values):
        self.name = name
        self.ranges = ranges
        self.values = values

    def get(self, indices, span, note):
        return self.values[_offset(self.name, self.ranges, indices,
                                   span, note)]


def _offset(name, ranges, indices, span, note) -> int:
    offset = 0
    for (lo, hi), index in zip(ranges, indices):
        if not lo <= index <= hi:
            raise GroundingError(
                f"index {index} is outside {lo}..{hi} in '{name}'{note}",
                span)
        offset = offset * (hi - lo + 1) + (index - lo)
    return offset


def _cell_name(name, indices) -> str:
    return f"{name}[{','.join(str(i) for i in indices)}]"


class _Draft:
    """A clause under construction: deduplicated members, tautology mark."""

    __slots__ = ("lits", "atoms", "true")

    def __init__(self):
        self.lits: dict[int, bool] = {}
        self.atoms: dict[tuple, LinearAtom] = {}
        self.true = False

    def add_lit(self, var: int, positive: bool):
        held = self.lits.get(var)
        if held is None:
            self.lits[var] = positive
        elif held != positive:
            self.true = True

    def add_atom(self, terms: tuple, bound: int):
        self.atoms.setdefault((terms, bound), LinearAtom(terms, bound))

    def merge(self, other: "_Draft") -> "_Draft":
        out = _Draft()
        out.lits = dict(self.lits)
        out.atoms = dict(self.atoms)
        out.true = self.true or other.true
        if not out.true:
            for var, positive in other.lits.items():
                out.add_lit(var, positive)
            out.atoms.update(other.atoms)
        return out

    def to_clause(self) -> Clause:
        lits = tuple(Literal(var, pos) for var, pos in self.lits.items())
        return Clause(lits, tuple(self.atoms.values()))


def _static(value: bool) -> list:
    """A conjunction that is constantly true ([]) or false ([empty draft])."""
    return [] if value else [_Draft()]


class _Grounder:
    def __init__(self, model: Model, data, founded_default):
        self.model = model
        self.data = tuple(data)
        self.founded_default = founded_default
        self.params: dict[str, object] = {}
        self.variables: list[Variable] = []
        # scalar vars: name -> id; array vars: name -> (ranges, base id)
        self.scalars: dict[str, int] = {}
        self.arrays: dict[str, tuple] = {}
        self.budget = 0

    def run(self) -> Program:
        self._bind_params()
        self._declare_vars()
        constraints = []
        for item in self.model.constraints:
            self.budget = 0
            for draft in self._cnf(item.expr, {}, False, item.span):
                if not draft.true:
                    constraints.append(draft.to_clause())
        rules = []
        for item in self.model.rules:
            self.budget = 0
            rules.extend(self._ground_rule(item))
        objective = None
        if self.model.solve is not None and \
                self.model.solve.objective is not None:
            objective = self._objective(self.model.solve.objective)
        return Program(tuple(self.variables), tuple(constraints),
                       tuple(rules), objective)

    # -- parameters ---------------------------------------------------------

    def _bind_params(self):
        from_data: dict[str, object] = {}
        for assign in self.data:
            if assign.name in from_data:
                raise GroundingError(
                    f"parameter '{assign.name}' is assigned twice in data",
                    assign.span)
            from_data[assign.name] = assign
        declared = {p.name for p in self.model.params}
        for assign in self.data:
            if assign.name not in declared:
                raise GroundingError(
                    f"data assigns unknown parameter '{assign.name}'",
                    assign.span)
        missing = []
        for decl in self.model.params:
            assign = from_data.get(decl.name)
            if decl.value is not None and assign is not None:
                raise GroundingError(
                    f"parameter '{decl.name}' is set in the model and in "
                    f"data", assign.span)
            value = decl.value if decl.value is not None else \
                (assign.value if assign is not None else None)
            if value is None:
                missing.append(decl.name)
                continue
            self._bind_one(decl, value)
        if missing:
            raise GroundingError(
                "parameters not fixed by the model or data: "
                + ", ".join(missing))

    def _dims(self, decl) -> list:
        """The declared index ranges of ``decl``, evaluated."""
        ranges = [(self._peval(lo, {}), self._peval(hi, {}))
                  for lo, hi in decl.dims]
        if len(ranges) > 2:
            raise GroundingError("only 1- and 2-dimensional arrays are "
                                 "supported", decl.span)
        return ranges

    def _bind_one(self, decl: ParamDecl, value):
        ranges = self._dims(decl)
        elem_range = None
        if decl.elem_range is not None:
            elem_range = (self._peval(decl.elem_range[0], {}),
                          self._peval(decl.elem_range[1], {}))
        if not decl.dims:
            if isinstance(value, ArrayLit):
                raise GroundingError(
                    f"'{decl.name}' is a scalar, not an array", value.span)
            bound = self._peval(value, {})
            self._elem_check(decl.name, bound, elem_range, decl.span)
            self.params[decl.name] = bound
            return
        if not isinstance(value, ArrayLit):
            raise GroundingError(
                f"array parameter '{decl.name}' needs a [...] value",
                decl.span)
        size = 1
        for lo, hi in ranges:
            size *= max(0, hi - lo + 1)
        if len(value.elements) != size:
            raise GroundingError(
                f"'{decl.name}' needs {size} element(s), "
                f"{len(value.elements)} given", value.span)
        cells = [self._peval(e, {}) for e in value.elements]
        for cell in cells:
            self._elem_check(decl.name, cell, elem_range, value.span)
        self.params[decl.name] = _ParamArray(decl.name, ranges, cells)

    def _elem_check(self, name, value, elem_range, span):
        if elem_range is not None:
            lo, hi = elem_range
            if not lo <= value <= hi:
                raise GroundingError(
                    f"value {value} for '{name}' is outside {lo}..{hi}", span)

    # -- variables ------------------------------------------------------------

    def _declare_vars(self):
        for decl in self.model.vars:
            ranges = self._dims(decl)
            kind = VarKind.FOUNDED if decl.founded else VarKind.STANDARD
            if decl.sort is Sort.BOOL:
                lo = hi = None
            elif decl.bounds is not None:
                lo = self._peval(decl.bounds[0], {})
                hi = self._peval(decl.bounds[1], {})
            elif decl.founded and self.founded_default is not None:
                lo, hi = self.founded_default
            elif decl.founded:
                raise GroundingError(
                    f"founded variable '{decl.name}' has no interval and no "
                    f"default interval was supplied", decl.span)
            else:
                raise GroundingError(
                    f"variable '{decl.name}' needs an interval", decl.span)
            if not ranges:
                self.scalars[decl.name] = len(self.variables)
                self.variables.append(Variable(decl.name, kind, decl.sort,
                                               lo, hi))
                continue
            self.arrays[decl.name] = (ranges, len(self.variables))
            for indices in itertools.product(
                    *(range(first, last + 1) for first, last in ranges)):
                self.variables.append(Variable(_cell_name(decl.name, indices),
                                               kind, decl.sort, lo, hi))

    # -- parameter evaluation ---------------------------------------------

    def _peval(self, expr, env, note: str = "") -> int:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, Ident):
            if expr.name in env:
                return env[expr.name]
            value = self.params.get(expr.name)
            if not isinstance(value, int):
                raise GroundingError(
                    f"'{expr.name}' is not a fixed integer here{note}",
                    expr.span)
            return value
        if isinstance(expr, ArrayAccess):
            array = self.params.get(expr.name)
            if not isinstance(array, _ParamArray):
                raise GroundingError(
                    f"'{expr.name}' is not a parameter array{note}",
                    expr.span)
            indices = [self._peval(i, env, note) for i in expr.indices]
            return array.get(indices, expr.span, note)
        if isinstance(expr, Neg):
            return -self._peval(expr.operand, env, note)
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            first, links = _chain(expr, _ARITH)
            value = self._peval(first, env, note)
            for link in links:
                value = _ARITH[link.op](value,
                                        self._peval(link.right, env, note))
            return value
        raise GroundingError(f"expected a parameter expression{note}",
                             _span_of(expr))

    def _guard(self, expr, env, note: str) -> bool:
        if isinstance(expr, Comparison):
            left = self._peval(expr.left, env, note)
            right = self._peval(expr.right, env, note)
            return _HOLDS[expr.op](left, right)
        if isinstance(expr, Not):
            return not self._guard(expr.operand, env, note)
        if isinstance(expr, BinOp):
            if expr.op in _CONNECTIVES:
                first, links = _chain(expr, _CONNECTIVES)
                value = self._guard(first, env, note)
                for link in links:
                    if link.op == "/\\":
                        value = value and self._guard(link.right, env, note)
                    else:
                        value = value or self._guard(link.right, env, note)
                return value
            if expr.op == "->":
                return (not self._guard(expr.left, env, note)) or \
                    self._guard(expr.right, env, note)
            if expr.op == "<-":
                return self._guard(expr.right, env, note) or \
                    not self._guard(expr.left, env, note)
        raise GroundingError(f"expected a parameter condition{note}",
                             _span_of(expr))

    # -- clause construction -------------------------------------------------

    def _bindings(self, agg: Agg, env: dict):
        """All environments generated by an aggregate's generators."""
        envs = [dict(env)]
        for gen in agg.gens:
            nxt = []
            for base in envs:  # a range may name an earlier generator
                lo = self._peval(gen.lo, base, _note(base))
                hi = self._peval(gen.hi, base, _note(base))
                nxt.extend(self._spread(base, gen.names, lo, hi))
            envs = nxt
        if agg.where is not None:
            envs = [e for e in envs
                    if self._guard(agg.where, e, _note(e))]
        return envs

    def _spread(self, base: dict, names, lo: int, hi: int):
        out = [base]
        for name in names:
            out = [dict(e, **{name: v})
                   for e in out for v in range(lo, hi + 1)]
        return out

    def _variable_ref(self, expr, env, note: str) -> int:
        """Resolve an Ident or ArrayAccess to a ground variable id."""
        if isinstance(expr, Ident):
            var = self.scalars.get(expr.name)
            if var is None:
                raise GroundingError(
                    f"'{expr.name}' is not a variable{note}", expr.span)
            return var
        array = self.arrays.get(expr.name)
        if array is None:
            raise GroundingError(
                f"'{expr.name}' is not a variable array{note}", expr.span)
        ranges, base = array
        indices = [self._peval(i, env, note) for i in expr.indices]
        return base + _offset(expr.name, ranges, indices, expr.span, note)

    def _is_var_ref(self, expr, env) -> bool:
        if isinstance(expr, Ident):
            return expr.name not in env and expr.name in self.scalars
        if isinstance(expr, ArrayAccess):
            return expr.name in self.arrays
        return False

    def _cnf(self, expr, env: dict, neg: bool, span) -> list:
        """Flatten a condition to a conjunction of drafts."""
        note = _note(env)
        if isinstance(expr, Not):
            return self._cnf(expr.operand, env, not neg, span)
        if isinstance(expr, BinOp) and expr.op in _CONNECTIVES:
            first, links = _chain(expr, _CONNECTIVES)
            parts = self._cnf(first, env, neg, span)
            for link in links:
                right = self._cnf(link.right, env, neg, span)
                parts = self._join(parts, right,
                                   conjoin=(link.op == "/\\") != neg,
                                   span=span)
            return parts
        if isinstance(expr, BinOp) and expr.op in ("->", "<-"):
            # an implication is a disjunction of ~left and right
            if expr.op == "<-":
                left, right = expr.right, expr.left
            else:
                left, right = expr.left, expr.right
            return self._join(self._cnf(left, env, not neg, span),
                              self._cnf(right, env, neg, span),
                              conjoin=neg, span=span)
        if isinstance(expr, Agg):
            if expr.kind == "sum":
                raise GroundingError(f"sum is not a condition{note}",
                                     expr.span)
            conj = (expr.kind == "forall") != neg
            parts = _static(conj)  # identity: true for and, false for or
            for sub in self._bindings(expr, env):
                part = self._cnf(expr.body, sub, neg, span)
                parts = self._join(parts, part, conjoin=conj, span=span)
            return parts
        if isinstance(expr, Comparison):
            return self._compare(expr, env, neg, note)
        if self._is_var_ref(expr, env):
            var = self._variable_ref(expr, env, note)
            if self.variables[var].sort is not Sort.BOOL:
                raise GroundingError(
                    f"'{self.variables[var].name}' is an integer, not a "
                    f"condition{note}", expr.span)
            draft = _Draft()
            draft.add_lit(var, not neg)
            return [draft]
        if isinstance(expr, HeadAnn):
            raise GroundingError(f"misplaced head annotation{note}",
                                 expr.span)
        raise GroundingError(f"expected a condition{note}", _span_of(expr))

    def _join(self, left: list, right: list, *, conjoin: bool, span) -> list:
        if conjoin:  # every conjunction list is fresh, so extend in place
            left.extend(right)
            return left
        out = []
        for a in left:
            if a.true:
                continue
            for b in right:
                if b.true:
                    continue
                out.append(a.merge(b))
        self.budget += len(out)
        if self.budget > _EXPANSION_LIMIT:
            raise GroundingError(
                f"flattening needs more than {_EXPANSION_LIMIT} clauses; "
                f"rewrite the item", span)
        if not out:
            # one side constantly true, or every pair was a tautology
            return _static(True)
        return out

    def _compare(self, cmp: Comparison, env: dict, neg: bool,
                 note: str) -> list:
        op = _NEGATED[cmp.op] if neg else cmp.op
        drafts = []
        for members in _ATOMS[op]:
            draft = _Draft()
            for swap, gap in members:
                big, small = (cmp.right, cmp.left) if swap else \
                    (cmp.left, cmp.right)
                terms, constant = self._linear(big, env, note)
                neg_terms, neg_constant = self._linear(small, env, note)
                for var, coeff in neg_terms.items():
                    terms[var] = terms.get(var, 0) - coeff
                constant -= neg_constant
                folded = tuple((coeff, var) for var, coeff in terms.items()
                               if coeff != 0)
                bound = gap - constant
                if not folded:
                    if 0 >= bound:
                        draft.true = True
                    continue
                draft.add_atom(folded, bound)
            drafts.append(draft)
        return [d for d in drafts if not d.true] or _static(True)

    def _linear(self, expr, env: dict, note: str, *,
                allow_b2i: bool = False):
        """Collect an integer expression into (coefficients, constant)."""
        if isinstance(expr, IntLit):
            return {}, expr.value
        if isinstance(expr, (Ident, ArrayAccess)):
            if self._is_var_ref(expr, env):
                var = self._variable_ref(expr, env, note)
                if self.variables[var].sort is Sort.BOOL:
                    raise GroundingError(
                        f"'{self.variables[var].name}' is Boolean; it cannot "
                        f"appear in arithmetic{note}", expr.span)
                return {var: 1}, 0
            return {}, self._peval(expr, env, note)
        if isinstance(expr, Neg):
            terms, constant = self._linear(expr.operand, env, note,
                                           allow_b2i=allow_b2i)
            return {v: -c for v, c in terms.items()}, -constant
        if isinstance(expr, Bool2Int):
            if not allow_b2i:
                raise GroundingError(
                    f"bool2int is only allowed in the objective{note}",
                    expr.span)
            if not self._is_var_ref(expr.operand, env):
                raise GroundingError(
                    f"bool2int needs a Boolean variable{note}", expr.span)
            var = self._variable_ref(expr.operand, env, note)
            if self.variables[var].sort is not Sort.BOOL:
                raise GroundingError(
                    f"bool2int needs a Boolean variable{note}", expr.span)
            return {var: 1}, 0
        if isinstance(expr, Agg) and expr.kind == "sum":
            terms: dict[int, int] = {}
            constant = 0
            for sub in self._bindings(expr, env):
                sub_terms, sub_constant = self._linear(
                    expr.body, sub, _note(sub), allow_b2i=allow_b2i)
                for var, coeff in sub_terms.items():
                    terms[var] = terms.get(var, 0) + coeff
                constant += sub_constant
            return terms, constant
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            first, links = _chain(expr, _ARITH)
            terms, constant = self._linear(first, env, note,
                                           allow_b2i=allow_b2i)
            for link in links:
                right_terms, right_const = self._linear(
                    link.right, env, note, allow_b2i=allow_b2i)
                if link.op == "*":
                    if terms and right_terms:
                        raise GroundingError(
                            f"non-linear product{note}", link.span)
                    if right_terms:
                        terms, right_terms = right_terms, terms
                        constant, right_const = right_const, constant
                    terms = {v: c * right_const for v, c in terms.items()}
                    constant *= right_const
                    continue
                sign = 1 if link.op == "+" else -1
                for var, coeff in right_terms.items():
                    terms[var] = terms.get(var, 0) + sign * coeff
                constant += sign * right_const
            return terms, constant
        raise GroundingError(f"expected an integer expression{note}",
                             _span_of(expr))

    # -- items ---------------------------------------------------------------

    def _ground_rule(self, item) -> list:
        node = item.expr
        envs = [{}]
        while isinstance(node, Agg) and node.kind == "forall":
            nxt = []
            for env in envs:
                nxt.extend(self._bindings(node, env))
            envs = nxt
            node = node.body
        rules = []
        for env in envs:
            note = _note(env)
            head = self._variable_ref(node.target, env, note)
            drafts = self._cnf(node.body, env, False, item.span)
            drafts = [d for d in drafts if not d.true]
            if not drafts:
                continue  # a trivially true clause never forces its head
            if len(drafts) > 1:
                raise GroundingError(
                    f"a rule must flatten to a single clause, this one "
                    f"needs {len(drafts)}{note}", item.span)
            clause = drafts[0].to_clause()
            rule = Rule(clause, head)
            violation = validate_rule(rule, self.variables)
            if violation is not None:
                raise GroundingError(
                    violation.describe(self.variables[head].name) + note,
                    item.span)
            for var in set(clause.variables()):
                if var != head and monotonicity(clause, var) is \
                        Monotonicity.NON_MONOTONE:
                    raise GroundingError(
                        f"rule clause is non-monotone in "
                        f"'{self.variables[var].name}'{note}", item.span)
            rules.append(rule)
        return rules

    def _objective(self, expr) -> LinearExpr:
        terms, constant = self._linear(expr, {}, "", allow_b2i=True)
        folded = tuple((coeff, var) for var, coeff in terms.items()
                       if coeff != 0)
        return LinearExpr(folded, constant)


def _chain(expr, ops):
    """The leftmost operand of a left-deep chain of ``ops`` and the chain's
    links, innermost first: folding ``link.op`` and ``link.right`` over the
    links, left to right, gives ``expr``."""
    links = []
    while isinstance(expr, BinOp) and expr.op in ops:
        links.append(expr)
        expr = expr.left
    links.reverse()
    return expr, links


def _note(env: dict) -> str:
    if not env:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in env.items())
    return f" ({inner})"


def _span_of(expr):
    return getattr(expr, "span", None)


def ground(model: Model, data=(), founded_default=None) -> Program:
    """Instantiate a resolved model, returning a ground Program.

    ``data`` is a sequence of DataAssign items (from parse_data), and
    ``founded_default`` an (lo, hi) interval for founded integer variables
    declared without one.  Raises GroundingError with a source span and, for
    quantified items, the generator bindings of the failing instance.
    """
    return _Grounder(model, data, founded_default).run()
