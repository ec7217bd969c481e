"""Instantiation of parsed models into ground programs.

Binds parameters from inline values and data files, expands array variables
into cells, unfolds aggregates, normalizes comparisons to ``>=`` atoms, and
flattens each constraint to conjunctive normal form.  Every rule instance
must flatten to a single clause containing its head; violations are reported
with the generator bindings that produced them.

Flattening builds ``Clause`` values directly: a disjunction merges each pair
of clauses from its two sides, and a clause that holds a literal and its
complement, or a constant atom that holds, is dropped where it arises.  The
cap of 20,000 clauses per item counts every pair a disjunction tries,
tautologies included.

Each item (constraint, rule, objective) is compiled once into a template of
closures: names are resolved to generator slots, parameters and variables,
and each integer expression becomes a flat list of parts (a variable slot
with its coefficient, a parameter value, or a nested sum or product) plus
the constant folded from its literals and scalar parameters.  The
template is then instantiated once per generator binding, a tuple of
values, without walking the syntax tree.  A rule instance is checked
(``analysis.rule_verdict``) only when its shape (``program.RuleShapes``)
is new, since a shape's instances are all valid or all faulty; the shapes
are handed on to the ground program.  Binding notes are built only for
an error.
"""

import itertools
import operator

from .analysis import rule_verdict
from .errors import TOO_DEEP, GroundingError
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
    RuleShapes,
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

# The kinds of a linear part ``(coeff, kind, fn)``: ``fn(env)`` is a
# variable id, a parameter value, or a ``(terms, constant)`` pair.
_VAR, _INT, _SUB = range(3)


class _ParamArray:
    def __init__(self, ranges, values):
        self.ranges = ranges
        self.values = values


def _cell_name(name, indices) -> str:
    return f"{name}[{','.join(str(i) for i in indices)}]"


def _disjoin(left: Clause, right: Clause):
    """``left \\/ right``, members in first-appearance order and each once,
    or None when it holds a literal and its complement."""
    lits, atoms = left.lits, left.atoms
    if right.lits:
        held = {lit.var: lit.positive for lit in lits}
        extra = []
        for lit in right.lits:
            positive = held.get(lit.var)
            if positive is None:
                extra.append(lit)
            elif positive != lit.positive:
                return None
        lits += tuple(extra)
    if right.atoms:
        # keyed on plain tuples: hashing the LinearAtom dataclass is slower
        seen = {(atom.terms, atom.bound) for atom in atoms}
        extra = [atom for atom in right.atoms
                 if (atom.terms, atom.bound) not in seen]
        atoms += tuple(extra)
    return Clause(lits, atoms)


class _Grounder:
    def __init__(self, model: Model, data, founded_default):
        self.model = model
        self.data = tuple(data)
        self.founded_default = founded_default
        self.params: dict[str, object] = {}
        self.variables: list[Variable] = []
        # scalar vars: name -> id; array vars: name -> (ranges, base id,
        # declaration as a Variable named like the array)
        self.scalars: dict[str, int] = {}
        self.arrays: dict[str, tuple] = {}
        self.budget = 0

    def run(self) -> Program:
        self._bind_params()
        self._declare_vars()
        constraints = []
        for item in self.model.constraints:
            self.budget = 0
            constraints.extend(self._cnf(item.expr, (), False, item.span)(()))
        rules = []
        shapes = RuleShapes(self.variables)
        for item in self.model.rules:
            self.budget = 0
            rules.extend(self._ground_rule(item, shapes))
        objective = None
        if self.model.solve is not None and \
                self.model.solve.objective is not None:
            objective = self._objective(self.model.solve.objective)
        program = Program(tuple(self.variables), tuple(constraints),
                          tuple(rules), objective)
        # hand the keyed shapes on to the cached property, so that the
        # program's consumers do not key every rule again
        vars(program)["shapes"] = shapes.numbered()
        return program

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

    def _value(self, expr) -> int:
        """The value of a parameter expression outside any aggregate."""
        return self._int(expr, ())(())

    def _dims(self, decl) -> list:
        """The declared index ranges of ``decl``, evaluated."""
        ranges = [(self._value(lo), self._value(hi)) for lo, hi in decl.dims]
        if len(ranges) > 2:
            raise GroundingError("only 1- and 2-dimensional arrays are "
                                 "supported", decl.span)
        return ranges

    def _bind_one(self, decl: ParamDecl, value):
        ranges = self._dims(decl)
        elem_range = None
        if decl.elem_range is not None:
            elem_range = (self._value(decl.elem_range[0]),
                          self._value(decl.elem_range[1]))
        if not decl.dims:
            if isinstance(value, ArrayLit):
                raise GroundingError(
                    f"'{decl.name}' is a scalar, not an array", value.span)
            bound = self._value(value)
            self._elem_check(decl.name, (bound,), elem_range, decl.span)
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
        # a literal element is read as it is; only others are compiled
        cells = [e.value if type(e) is IntLit else self._value(e)
                 for e in value.elements]
        self._elem_check(decl.name, cells, elem_range, value.span)
        self.params[decl.name] = _ParamArray(ranges, cells)

    def _elem_check(self, name, values, elem_range, span):
        if elem_range is not None:
            lo, hi = elem_range
            for value in values:
                if not lo <= value <= hi:
                    raise GroundingError(
                        f"value {value} for '{name}' is outside {lo}..{hi}",
                        span)

    # -- variables ------------------------------------------------------------

    def _declare_vars(self):
        for decl in self.model.vars:
            ranges = self._dims(decl)
            kind = VarKind.FOUNDED if decl.founded else VarKind.STANDARD
            if decl.sort is Sort.BOOL:
                lo = hi = None
            elif decl.bounds is not None:
                lo = self._value(decl.bounds[0])
                hi = self._value(decl.bounds[1])
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
            self.arrays[decl.name] = (ranges, len(self.variables),
                                      Variable(decl.name, kind, decl.sort))
            for indices in itertools.product(
                    *(range(first, last + 1) for first, last in ranges)):
                self.variables.append(Variable(_cell_name(decl.name, indices),
                                               kind, decl.sort, lo, hi))

    # -- compiling parameter expressions -----------------------------------
    #
    # Every ``_int``/``_cond``/``_variable``/``_cnf`` closure takes ``env``,
    # the tuple of generator values whose names are ``scope``.  A fault found
    # while compiling becomes a closure that raises it, so that it surfaces
    # in evaluation order, for the binding that reaches it, or not at all.

    def _int(self, expr, scope):
        if isinstance(expr, IntLit):
            value = expr.value
            return lambda env: value
        if isinstance(expr, Ident):
            if expr.name in scope:
                return operator.itemgetter(scope.index(expr.name))
            value = self.params.get(expr.name)
            if isinstance(value, int):
                return lambda env: value
            return _fail(f"'{expr.name}' is not a fixed integer here",
                         expr.span, scope)
        if isinstance(expr, ArrayAccess):
            array = self.params.get(expr.name)
            if not isinstance(array, _ParamArray):
                return _fail(f"'{expr.name}' is not a parameter array",
                             expr.span, scope)
            return self._cell(expr, array.ranges, array.values, scope)
        if isinstance(expr, Neg):
            operand = self._int(expr.operand, scope)
            return lambda env: -operand(env)
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            first, links = _chain(expr, _ARITH)
            start = self._int(first, scope)
            steps = [(_ARITH[link.op], self._int(link.right, scope))
                     for link in links]

            def fold(env):
                value = start(env)
                for op, right in steps:
                    value = op(value, right(env))
                return value
            return fold
        return _fail("expected a parameter expression", _span_of(expr), scope)

    def _cond(self, expr, scope):
        if isinstance(expr, Comparison):
            left = self._int(expr.left, scope)
            right = self._int(expr.right, scope)
            holds = _HOLDS[expr.op]
            return lambda env: holds(left(env), right(env))
        if isinstance(expr, Not):
            operand = self._cond(expr.operand, scope)
            return lambda env: not operand(env)
        if isinstance(expr, BinOp):
            if expr.op in _CONNECTIVES:
                first, links = _chain(expr, _CONNECTIVES)
                start = self._cond(first, scope)
                steps = [(link.op == "/\\", self._cond(link.right, scope))
                         for link in links]

                def fold(env):
                    value = start(env)
                    for conjoin, right in steps:
                        if value == conjoin:  # else the chain is decided
                            value = right(env)
                    return value
                return fold
            if expr.op in ("->", "<-"):
                # an implication is a disjunction of ~left and right
                left = self._cond(expr.left, scope)
                right = self._cond(expr.right, scope)
                if expr.op == "<-":
                    return lambda env: right(env) or not left(env)
                return lambda env: (not left(env)) or right(env)
        return _fail("expected a parameter condition", _span_of(expr), scope)

    def _cell(self, access: ArrayAccess, ranges, values, scope):
        """A closure giving the element of ``values``, laid out row-major
        over ``ranges``, that ``access`` picks; every index is evaluated
        before any is checked."""
        indices = [self._int(i, scope) for i in access.indices]
        name, span = access.name, access.span

        def outside(index, lo, hi, env):
            return GroundingError(f"index {index} is outside {lo}..{hi} in "
                                  f"'{name}'{_note(scope, env)}", span)
        if len(indices) == len(ranges) == 1:  # one check, one lookup
            (index,), ((lo, hi),) = indices, ranges

            def element(env):
                i = index(env)
                if not lo <= i <= hi:
                    raise outside(i, lo, hi, env)
                return values[i - lo]
            return element

        def cell(env):
            picked = [index(env) for index in indices]
            offset = 0
            for (lo, hi), i in zip(ranges, picked):
                if not lo <= i <= hi:
                    raise outside(i, lo, hi, env)
                offset = offset * (hi - lo + 1) + (i - lo)
            return values[offset]
        return cell

    def _bindings(self, agg: Agg, scope):
        """A closure giving every environment an aggregate's generators make
        from an outer one, and the scope of those environments."""
        steps = []
        for gen in agg.gens:  # a range may name an earlier generator
            steps.append((self._int(gen.lo, scope), self._int(gen.hi, scope),
                          len(gen.names)))
            scope = scope + tuple(gen.names)
        where = None if agg.where is None else self._cond(agg.where, scope)

        def bind(env):
            envs = [env]
            for lo, hi, count in steps:
                spread = []
                for base in envs:
                    values = range(lo(base), hi(base) + 1)
                    out = [base]
                    for _ in range(count):
                        out = [e + (v,) for e in out for v in values]
                    spread.extend(out)
                envs = spread
            if where is not None:
                envs = [e for e in envs if where(e)]
            return envs
        return bind, scope

    def _variable(self, expr, scope):
        """For a reference to a variable or a variable array's cell, a
        closure giving its ground id and the declaration, kind and sort, of
        what it names; None for anything else."""
        if isinstance(expr, Ident):
            var = None if expr.name in scope else self.scalars.get(expr.name)
            if var is None:
                return None
            return (lambda env: var), self.variables[var]
        if not isinstance(expr, ArrayAccess) or expr.name not in self.arrays:
            return None
        ranges, base, declared = self.arrays[expr.name]
        size = 1
        for lo, hi in ranges:
            size *= max(0, hi - lo + 1)
        return (self._cell(expr, ranges, range(base, base + size), scope),
                declared)

    def _head(self, target, scope):
        """A closure giving the ground id of the variable a rule's head
        names."""
        found = self._variable(target, scope)
        if found is not None:
            return found[0]
        what = "variable" if isinstance(target, Ident) else "variable array"
        return _fail(f"'{target.name}' is not a {what}", target.span, scope)

    def _var_fault(self, var, message: str, span, scope):
        """A closure that resolves ``var`` and raises ``message``, formatted
        with the variable's name, for that binding."""
        def fail(env):
            name = self.variables[var(env)].name
            raise GroundingError(message.format(name) + _note(scope, env),
                                 span)
        return fail

    # -- compiling conditions to clauses -----------------------------------

    def _cnf(self, expr, scope, neg: bool, span):
        """Compile a condition: ``fn(env)`` flattens it to a conjunction, a
        list of clauses with no tautology among them."""
        if isinstance(expr, Not):
            return self._cnf(expr.operand, scope, not neg, span)
        join = self._join
        if isinstance(expr, BinOp) and expr.op in _CONNECTIVES:
            first, links = _chain(expr, _CONNECTIVES)
            start = self._cnf(first, scope, neg, span)
            steps = [(self._cnf(link.right, scope, neg, span),
                      (link.op == "/\\") != neg) for link in links]

            def fold(env):
                parts = start(env)
                for right, conjoin in steps:
                    parts = join(parts, right(env), conjoin, span)
                return parts
            return fold
        if isinstance(expr, BinOp) and expr.op in ("->", "<-"):
            # an implication is a disjunction of ~left and right
            if expr.op == "<-":
                left, right = expr.right, expr.left
            else:
                left, right = expr.left, expr.right
            left = self._cnf(left, scope, not neg, span)
            right = self._cnf(right, scope, neg, span)
            return lambda env: join(left(env), right(env), neg, span)
        if isinstance(expr, Agg):
            if expr.kind == "sum":
                return _fail("sum is not a condition", expr.span, scope)
            conj = (expr.kind == "forall") != neg
            bind, inner = self._bindings(expr, scope)
            body = self._cnf(expr.body, inner, neg, span)

            def aggregate(env):
                # and starts true (no clause), or false (the empty clause)
                parts = [] if conj else [Clause()]
                for sub in bind(env):
                    parts = join(parts, body(sub), conj, span)
                return parts
            return aggregate
        if isinstance(expr, Comparison):
            return self._compare(expr, scope, neg)
        found = self._variable(expr, scope)
        if found is not None:
            var, declared = found
            if declared.sort is not Sort.BOOL:
                return self._var_fault(var, "'{}' is an integer, not a "
                                       "condition", expr.span, scope)
            positive = not neg
            return lambda env: [Clause((Literal(var(env), positive),))]
        if isinstance(expr, HeadAnn):
            return _fail("misplaced head annotation", expr.span, scope)
        return _fail("expected a condition", _span_of(expr), scope)

    def _join(self, left: list, right: list, conjoin: bool, span) -> list:
        if conjoin:  # every conjunction list is fresh, so extend in place
            left.extend(right)
            return left
        # every pair tried counts, those that make a tautology too
        self.budget += len(left) * len(right)
        if self.budget > _EXPANSION_LIMIT:
            raise GroundingError(
                f"flattening needs more than {_EXPANSION_LIMIT} clauses; "
                f"rewrite the item", span)
        out = []
        for a in left:
            for b in right:
                merged = _disjoin(a, b)
                if merged is not None:
                    out.append(merged)
        return out

    def _compare(self, cmp: Comparison, scope, neg: bool):
        """Compile a comparison to its ``>=`` atoms.  An atom reads ``big -
        small >= gap``; its parts are ``big``'s followed by ``small``'s
        negated, so one pass merges its terms in first-appearance order."""
        op = _NEGATED[cmp.op] if neg else cmp.op
        sides = {False: self._linear(cmp.left, scope),
                 True: self._linear(cmp.right, scope)}
        members = []
        for atoms in _ATOMS[op]:
            member = []
            for swap, gap in atoms:
                big, big_constant = sides[swap]
                small, small_constant = sides[not swap]
                member.append((big + _scaled(small, -1),
                               gap - big_constant + small_constant))
            members.append(member)

        def compare(env):
            clauses = []
            for member in members:
                atoms = []
                holds = False  # a constant atom that holds
                for parts, base in member:
                    folded, bound = _atom(parts, base, env)
                    if folded:
                        atoms.append(LinearAtom(folded, bound))
                    elif 0 >= bound:
                        holds = True
                if not holds:
                    clauses.append(Clause((), tuple(atoms)))
            return clauses
        return compare

    # -- compiling integer expressions --------------------------------------

    def _linear(self, expr, scope, allow_b2i: bool = False):
        """Compile an integer expression to ``(parts, constant)``: the
        constant folded at compile time, and the parts ``(coeff, kind, fn)``
        in evaluation order (see ``_collect``)."""
        if isinstance(expr, IntLit):
            return [], expr.value
        if isinstance(expr, (Ident, ArrayAccess)):
            found = self._variable(expr, scope)
            if found is None:
                value = None if expr.name in scope else \
                    self.params.get(expr.name)
                if isinstance(value, int):  # the same in every binding
                    return [], value
                return [(1, _INT, self._int(expr, scope))], 0
            var, declared = found
            if declared.sort is Sort.BOOL:
                return [(1, _INT, self._var_fault(
                    var, "'{}' is Boolean; it cannot appear in arithmetic",
                    expr.span, scope))], 0
            return [(1, _VAR, var)], 0
        if isinstance(expr, Neg):
            parts, constant = self._linear(expr.operand, scope, allow_b2i)
            return _scaled(parts, -1), -constant
        if isinstance(expr, Bool2Int):
            found = self._variable(expr.operand, scope)
            if not allow_b2i:
                fault = _fail("bool2int is only allowed in the objective",
                              expr.span, scope)
            elif found is None:
                fault = _fail("bool2int needs a Boolean variable", expr.span,
                              scope)
            elif found[1].sort is Sort.BOOL:
                return [(1, _VAR, found[0])], 0
            else:
                fault = self._var_fault(found[0], "bool2int needs a Boolean "
                                        "variable", expr.span, scope)
            return [(1, _INT, fault)], 0
        if isinstance(expr, Agg) and expr.kind == "sum":
            bind, inner = self._bindings(expr, scope)
            body, body_constant = self._linear(expr.body, inner, allow_b2i)

            def total(env):
                terms = {}
                constant = 0
                for sub in bind(env):
                    constant += _collect(body, sub, terms) + body_constant
                return terms, constant
            return [(1, _SUB, total)], 0
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            first, links = _chain(expr, _ARITH)
            parts, constant = self._linear(first, scope, allow_b2i)
            for link in links:
                right, right_constant = self._linear(link.right, scope,
                                                     allow_b2i)
                if link.op == "*":
                    parts, constant = _product(parts, constant, right,
                                               right_constant, link.span,
                                               scope)
                    continue
                sign = 1 if link.op == "+" else -1
                parts = parts + _scaled(right, sign)
                constant += sign * right_constant
            return parts, constant
        return [(1, _INT, _fail("expected an integer expression",
                                _span_of(expr), scope))], 0

    # -- items ---------------------------------------------------------------

    def _ground_rule(self, item, shapes: RuleShapes) -> list:
        """The instances of a rule item, each added to ``shapes``; an
        instance of a shape not seen before is checked."""
        node, scope, levels = item.expr, (), []
        while isinstance(node, Agg) and node.kind == "forall":
            bind, scope = self._bindings(node, scope)
            levels.append(bind)
            node = node.body
        head_of = self._head(node.target, scope)
        body = self._cnf(node.body, scope, False, item.span)
        envs = [()]
        for bind in levels:
            envs = [sub for env in envs for sub in bind(env)]
        rules = []
        for env in envs:
            head = head_of(env)
            clauses = body(env)
            if not clauses:
                continue  # a trivially true clause never forces its head
            if len(clauses) > 1:
                raise GroundingError(
                    f"a rule must flatten to a single clause, this one "
                    f"needs {len(clauses)}{_note(scope, env)}", item.span)
            rule = Rule(clauses[0], head)
            if shapes.add(rule):
                fault = _rule_fault(rule, self.variables)
                if fault is not None:
                    raise GroundingError(fault + _note(scope, env),
                                         item.span)
            rules.append(rule)
        return rules

    def _objective(self, expr) -> LinearExpr:
        parts, constant = self._linear(expr, (), allow_b2i=True)
        terms = {}
        constant += _collect(parts, (), terms)
        folded = tuple((coeff, var) for var, coeff in terms.items()
                       if coeff != 0)
        return LinearExpr(folded, constant)


def _collect(parts, env, terms: dict) -> int:
    """Add the terms of ``parts`` under ``env`` into ``terms`` and return
    their constant.  A variable keeps its first position and its entry even
    when its coefficient sums to zero, as a product's linearity check needs.
    """
    constant = 0
    for coeff, kind, fn in parts:
        if kind == _VAR:
            var = fn(env)
            terms[var] = terms.get(var, 0) + coeff
        elif kind == _INT:
            constant += coeff * fn(env)
        else:
            sub_terms, sub_constant = fn(env)
            for var, sub_coeff in sub_terms.items():
                terms[var] = terms.get(var, 0) + coeff * sub_coeff
            constant += coeff * sub_constant
    return constant


def _atom(parts, base: int, env):
    """The terms, zero coefficients left out, and the bound of an atom
    ``parts >= base`` under ``env``."""
    terms = {}
    bound = base - _collect(parts, env, terms)
    return tuple([(coeff, var) for var, coeff in terms.items()
                  if coeff != 0]), bound


def _scaled(parts, factor: int) -> list:
    return [(coeff * factor, kind, fn) for coeff, kind, fn in parts]


def _product(left, left_constant, right, right_constant, span, scope):
    """The parts of ``left * right``.  A fixed factor scales the other side
    at compile time; otherwise one part multiplies the two sides per
    binding, refusing two sides that both have terms."""
    if not right:
        return _scaled(left, right_constant), left_constant * right_constant
    if not left:
        return _scaled(right, left_constant), left_constant * right_constant

    def product(env):
        terms = {}
        constant = _collect(left, env, terms) + left_constant
        other = {}
        factor = _collect(right, env, other) + right_constant
        if terms and other:
            raise GroundingError(f"non-linear product{_note(scope, env)}",
                                 span)
        if other:
            terms, constant, factor = other, factor, constant
        return {v: c * factor for v, c in terms.items()}, constant * factor
    return [(1, _SUB, product)], 0


def _rule_fault(rule: Rule, variables):
    """Why ``rule`` cannot be a rule, as the grounder reports it, or None."""
    violation, non_monotone = rule_verdict(rule, variables)
    if violation is not None:
        return violation.describe(variables[rule.head].name)
    for var in set(rule.clause.variables()):
        if var in non_monotone:
            return f"rule clause is non-monotone in '{variables[var].name}'"
    return None


def _fail(message: str, span, scope):
    """A closure that raises ``message`` with the binding it is called on."""
    def fail(env):
        raise GroundingError(message + _note(scope, env), span)
    return fail


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


def _note(scope, env) -> str:
    if not scope:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in zip(scope, env))
    return f" ({inner})"


def _span_of(expr):
    return getattr(expr, "span", None)


def ground(model: Model, data=(), founded_default=None) -> Program:
    """Instantiate a resolved model, returning a ground Program.

    ``data`` is a sequence of DataAssign items (from parse_data), and
    ``founded_default`` an (lo, hi) interval for founded integer variables
    declared without one.  Raises GroundingError with a source span and, for
    quantified items, the generator bindings of the failing instance; or
    without either, for an item nested past the recursion limit.
    """
    try:
        return _Grounder(model, data, founded_default).run()
    except RecursionError:
        raise GroundingError(TOO_DEEP) from None
