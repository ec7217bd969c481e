"""Instantiation of parsed models into ground programs.

Binds parameters from inline values and data files, expands array variables
into cells, unfolds aggregates, normalizes comparisons to ``>=`` atoms, and
flattens each constraint to conjunctive normal form.  Every rule instance
must flatten to a single clause containing its head; violations are reported
with the generator bindings that produced them.

Each item (constraint, rule, objective), and each batch of parameter
expressions in a declaration, is generated as the source of one Python
function, through ``codegen``.  The function runs the item's binding loops
and ``where`` guards, checks and computes every index, and builds the item's
clauses.  The source holds the model's structure and, in items, its integer
literals, so every instance of a model runs the same compiled code.  The
source is flat: each operation of an expression is one statement on
temporaries, and an aggregate inside an item is a function of its own, so
deep models never make deep source.  Generating it still recurses over the
syntax tree, and an item nested past the recursion limit is refused.

Generated code evaluates what a walk over the syntax tree, once per binding,
would: an aggregate's bindings are made generator by generator, each over
every binding of the ones before it, then filtered by the ``where`` guard,
before any body is evaluated; an integer expression within one binding
(an index, a cell, a sum of them) is computed once, where it first occurs,
so a fault keeps the span and binding note of that occurrence.

Flattening builds ``Clause`` values directly: a disjunction merges each pair
of clauses from its two sides, and a clause that holds a literal and its
complement, or a constant atom that holds, is dropped where it arises.  A
disjunction of literals and one-clause comparisons is merged member by
member without lists.  The cap of 20,000 clauses per item counts every pair
a disjunction tries, tautologies included.

A rule instance is checked (``analysis.rule_verdict``) only when its shape
(``program.RuleShapes``) is new, since a shape's instances are all valid or
all faulty.  An instance whose members are all there and all on distinct
variables has the shape of its template's first such instance with the head
at the same place, so only that one is keyed.  The shapes are handed on to
the ground program.
"""

import itertools

from .analysis import rule_verdict
from .codegen import Writer, define, write_numbering
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
# ``left - right >= gap`` (``right - left`` when swapped); and its Python
# spelling on fixed integers.
_NEGATED = {">=": "<", "<=": ">", ">": "<=", "<": ">=", "=": "!=", "!=": "="}
_ATOMS = {
    ">=": (((False, 0),),),
    "<=": (((True, 0),),),
    ">": (((False, 1),),),
    "<": (((True, 1),),),
    "=": (((False, 0),), ((True, 0),)),
    "!=": (((False, 1), (True, 1)),),
}
_HOLDS = {">=": ">=", "<=": "<=", ">": ">", "<": "<", "=": "==", "!=": "!="}

# Operators whose left-deep chains are folded in a loop, not recursion.
_ARITH = ("+", "-", "*")
_CONNECTIVES = ("/\\", "\\/")

# A disjunction is merged member by member up to this many members, and an
# atom's terms are laid out without a dict up to this many; the distinct
# checks between them grow with the square of the count.
_MEMBERS = 8
_TERMS = 4


class _ParamArray:
    def __init__(self, ranges, values):
        self.ranges = ranges
        self.values = values


def _cell_name(name, indices) -> str:
    return f"{name}[{','.join(map(str, indices))}]"


# -- what generated code calls --------------------------------------------------


class _Literals(dict):
    """The literals of one sign, made once per variable."""

    def __init__(self, positive: bool):
        super().__init__()
        self.positive = positive

    def __missing__(self, var):
        literal = self[var] = Literal(var, self.positive)
        return literal


def _note(scope, env) -> str:
    if not scope:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in zip(scope, env))
    return f" ({inner})"


# A fault's site is the ``(text, span, scope)`` of the place in the item
# that reports it, and ``env`` the binding of the scope's generators.


def _fault(site, env, text=None) -> GroundingError:
    """The error at ``site``, with its text or ``text``, for ``env``."""
    site_text, span, scope = site
    return GroundingError((text or site_text) + _note(scope, env), span)


def _outside(index, lo, hi, site, env) -> GroundingError:
    """An index outside an array; the site's text names the array."""
    return _fault(site, env, f"index {index} is outside {lo}..{hi} in "
                             f"'{site[0]}'")


def _var_fault(variables, var, site, env) -> GroundingError:
    """The site's text with the name of variable ``var`` put in."""
    return _fault(site, env, site[0].format(variables[var].name))


def _too_many(span) -> GroundingError:
    return GroundingError(f"flattening needs more than {_EXPANSION_LIMIT} "
                          f"clauses; rewrite the item", span)


def _split(count, site, env) -> GroundingError:
    return _fault(site, env, f"a rule must flatten to a single clause, this "
                             f"one needs {count}")


def _spread(base, values, count) -> list:
    """``base`` extended by ``count`` generators over ``values``."""
    out = [base]
    for _ in range(count):
        out = [env + (v,) for env in out for v in values]
    return out


def _extended(base, tails) -> list:
    return [base + tail for tail in tails]


def _collect(parts, terms: dict) -> int:
    """Add the terms of ``parts``, ``(kind, coeff, value)`` triples (0 a
    variable id, 1 an integer, 2 a ``(terms, constant)`` pair), into
    ``terms`` and return their constant.  A variable keeps its first
    position and its entry even when its coefficient sums to zero, as a
    product's linearity check needs."""
    constant = 0
    for kind, coeff, value in parts:
        if kind == 0:
            terms[value] = terms.get(value, 0) + coeff
        elif kind == 1:
            constant += coeff * value
        else:
            sub_terms, sub_constant = value
            for var, sub_coeff in sub_terms.items():
                terms[var] = terms.get(var, 0) + coeff * sub_coeff
            constant += coeff * sub_constant
    return constant


def _nonzero(terms: dict) -> tuple:
    """``(coeff, var)`` pairs of ``terms``, zero coefficients left out."""
    return tuple([(coeff, var) for var, coeff in terms.items() if coeff != 0])


def _terms(pairs) -> tuple:
    """``(coeff, var)`` pairs merged by variable in first-appearance order,
    zero coefficients left out."""
    return _atom([(0, coeff, var) for coeff, var in pairs], 0)[0]


def _atom(parts, base: int) -> tuple:
    """The terms, zero coefficients left out, and the bound of an atom
    ``parts >= base``."""
    terms = {}
    bound = base - _collect(parts, terms)
    return _nonzero(terms), bound


def _product(left, left_constant, right, right_constant, site, env):
    """``left * right`` as a ``(terms, constant)`` pair, refusing two sides
    that both have terms."""
    terms = {}
    constant = _collect(left, terms) + left_constant
    other = {}
    factor = _collect(right, other) + right_constant
    if terms and other:
        raise _fault(site, env)
    if other:
        terms, constant, factor = other, factor, constant
    return {v: c * factor for v, c in terms.items()}, constant * factor


def _objective(parts, constant) -> LinearExpr:
    terms = {}
    constant += _collect(parts, terms)
    return LinearExpr(_nonzero(terms), constant)


def _compared(members) -> list:
    """The clauses of a comparison's members, each a tuple of ``(terms,
    bound)`` atoms made a clause by ``_clause``; a member with a constant
    atom that holds makes none."""
    return [_clause((), member) for member in members
            if not any(not terms and 0 >= bound for terms, bound in member)]


def _clause(lits, atoms) -> Clause:
    """The disjunction of ``(var, positive)`` literals and ``(terms,
    bound)`` atoms, none complementary or constant and true, each kept
    once in first-appearance order; constant atoms are left out."""
    held = {}
    for var, positive in lits:
        held.setdefault(var, positive)
    seen = set()
    kept = []
    for terms, bound in atoms:
        if terms and (terms, bound) not in seen:
            seen.add((terms, bound))
            kept.append(LinearAtom(terms, bound))
    return Clause(tuple(Literal(var, positive)
                        for var, positive in held.items()), tuple(kept))


def _disjoined(left: list, right: list) -> list:
    """Each pair of clauses from ``left`` and ``right`` merged, members in
    first-appearance order and each once; a pair that holds a literal and
    its complement is left out."""
    out = []
    for a in left:
        for b in right:
            lits, atoms = a.lits, a.atoms
            if b.lits:
                held = {lit.var: lit.positive for lit in lits}
                if any(held.get(lit.var, lit.positive) != lit.positive
                       for lit in b.lits):
                    continue  # a literal and its complement
                lits += tuple([lit for lit in b.lits if lit.var not in held])
            if b.atoms:
                # keyed on plain tuples: hashing the LinearAtom dataclass is
                # slower
                seen = {(atom.terms, atom.bound) for atom in atoms}
                atoms += tuple([atom for atom in b.atoms
                                if (atom.terms, atom.bound) not in seen])
            out.append(Clause(lits, atoms))
    return out


def _rule_fault(rule: Rule, variables):
    """Why ``rule`` cannot be a rule, as the grounder reports it, or None."""
    violation, non_monotone = rule_verdict(rule, variables)
    if violation is not None:
        return violation.describe(variables[rule.head].name)
    for var in set(rule.clause.variables()):
        if var in non_monotone:
            return f"rule clause is non-monotone in '{variables[var].name}'"
    return None


def _check_rule(rule, variables, site, env) -> None:
    fault = _rule_fault(rule, variables)
    if fault is not None:
        raise _fault(site, env, fault)


# The names generated code reads besides its arguments.
_RUNTIME = {
    "Clause": Clause, "LinearAtom": LinearAtom, "Rule": Rule,
    "_atom": _atom, "_check_rule": _check_rule, "_clause": _clause,
    "_collect": _collect, "_compared": _compared, "_disjoined": _disjoined,
    "_extended": _extended, "_fault": _fault, "_objective": _objective,
    "_outside": _outside, "_product": _product, "_split": _split,
    "_spread": _spread, "_terms": _terms, "_too_many": _too_many,
    "_var_fault": _var_fault,
}


# -- generating an item's function ---------------------------------------------


class _Atom:
    """An atom of generated code: the temporaries of its terms and bound,
    the code of its truth when it has no terms (``hold``, None where no one
    reads it) and of its terms being exactly ``pairs`` (``distinct``), and
    ``pairs``, its static ``(coeff, variable)`` layout, or None when it has
    none."""

    def __init__(self, terms, bound, hold, distinct, pairs):
        self.terms = terms
        self.bound = bound
        self.hold = hold
        self.distinct = distinct
        self.pairs = pairs


class _Members:
    """A disjunction of literals (``(variable, positive)``) and atoms, one
    clause or none, merged member by member: ``alive`` is the code of its
    being a clause, not a tautology.  Until it is built, equal members are
    still there and literals may clash."""

    def __init__(self, lits, atoms, alive):
        self.lits = lits
        self.atoms = atoms
        self.alive = alive

    @property
    def size(self) -> int:
        return len(self.lits) + len(self.atoms)


class _Function(Writer):
    """A generated function being written: its body, the data slots it
    unpacks, and the values computed so far, one table per open loop or
    guarded region."""

    def __init__(self, header):
        super().__init__(indent=1)
        self.header = header
        self.prologue = {}  # slot number -> its unpacking lines
        self.tables = [{}]

    def text(self) -> str:
        lines = [self.header]
        for unpack in self.prologue.values():
            lines += ["    " + line for line in unpack]
        return "\n".join(lines + self.lines)


def _number(value) -> str:
    return str(value) if value >= 0 else f"({value})"


def _code(value) -> str:
    """A static integer or the name holding a value, as code."""
    return _number(value) if isinstance(value, int) else value


class _Source:
    """The generated source of one item, written and defined through
    ``codegen``, and what a call passes in.  Its ``main`` is begun here and
    ended and called by ``call``; an aggregate's function is written while
    it is open.

    Generator values live in locals named by their position in the scope
    (``g0``, ``g1``...), data slots in ``p<n>`` (a scalar parameter or a
    variable id) and ``a<n>`` (an array's values or ids) with its ranges,
    and every other value in a fresh temporary ``t<n>``.  ``K`` holds the
    error texts, spans and generator names.  ``literals`` writes integer
    literals into the source; without it they are passed in ``K`` too.
    """

    def __init__(self, grounder, params: str, span=None, literals=True):
        self.grounder = grounder
        self.span = span  # the item's, for the flattening cap
        self.literals = literals
        self.slots: dict[str, int] = {}
        self.data: list = []
        self.consts: list = []
        self.indices: dict = {}  # a constant's key -> its place in consts
        self.functions: list[str] = []
        self.names = itertools.count()
        self.fn = _Function(f"def main(A, K{params}):")  # ended by ``call``
        self.scope = ()
        self.guard = None  # the name of a guarded region's condition

    # -- writing --------------------------------------------------------------

    def end(self, outer) -> None:
        self.functions.append(self.fn.text())
        self.fn, self.guard = outer

    def line(self, text: str) -> None:
        self.fn.line(f"if {self.guard}: {text}" if self.guard else text)

    def check(self, cond: str, error: str) -> None:
        if self.guard:
            cond = f"{self.guard} and ({cond})"
        self.fn.line(f"if {cond}: raise {error}")

    def open(self, header: str) -> None:
        """Open a block; what is computed inside stays inside."""
        self.fn.open(header)
        self.fn.tables.append({})

    def close(self) -> None:
        self.fn.close()
        self.fn.tables.pop()

    def temp(self) -> str:
        return f"t{next(self.names)}"

    def assign(self, code: str) -> str:
        name = self.temp()
        self.line(f"{name} = {code}")
        return name

    def value(self, code: str) -> str:
        """The name of ``code``'s value, computed here unless a statement
        that this one follows computed it already; only for code whose
        value depends on the binding alone."""
        for table in reversed(self.fn.tables):
            name = table.get(code)
            if name is not None:
                return name
        name = self.fn.tables[-1][code] = self.assign(code)
        return name

    def const(self, value) -> str:
        # texts by value, the rest (spans, names, numbers) by identity:
        # each is kept in ``consts`` for the call, so its id stays its own
        key = value if isinstance(value, str) else id(value)
        index = self.indices.get(key)
        if index is None:
            index = self.indices[key] = len(self.consts)
            self.consts.append(value)
        return f"K[{index}]"

    def env(self) -> str:
        """The code of the tuple of the scope's generator values."""
        return f"({self.locals(0, len(self.scope))})"

    def site(self, text: str, span) -> str:
        """The code of a fault's site, as ``_fault`` reads it."""
        return self.const((text, span, self.scope))

    def fail(self, message: str, span) -> None:
        self.line(f"raise _fault({self.site(message, span)}, {self.env()})")

    def all_of(self, conds) -> str:
        """The code of every condition in ``conds`` holding."""
        conds = [c for c in conds if c != "True"]
        if "False" in conds:
            return "False"
        if not conds:
            return "True"
        if len(conds) == 1 and conds[0].isidentifier():
            return conds[0]
        return self.value(" and ".join(f"({c})" for c in conds))

    def call(self, *args):
        """End ``main`` and call it, defined from the source, with the data
        slots, the constants, and ``args``."""
        self.end((None, None))
        main = define("\n".join(self.functions) + "\n", _RUNTIME)["main"]
        return main(tuple(self.data), tuple(self.consts), *args)

    # -- data -----------------------------------------------------------------

    def slot(self, name: str, value) -> str:
        """The local holding ``value``, passed in for ``name``: an integer,
        or an array's ``(values, ranges)``, whose unpacking also names the
        ranges (``<a>l<d>``, ``<a>h<d>``) and, for two dimensions, the
        width and offset of the second (``<a>w``, ``<a>o``)."""
        number = self.slots.get(name)
        if number is None:
            number = self.slots[name] = len(self.data)
            self.data.append(value)
        if not isinstance(value, tuple):
            local = f"p{number}"
            if number not in self.fn.prologue:
                self.fn.prologue[number] = [f"{local} = A[{number}]"]
            return local
        local = f"a{number}"
        if number not in self.fn.prologue:
            ranges = ", ".join(f"({local}l{d}, {local}h{d})"
                               for d in range(len(value[1])))
            unpack = [f"{local}, ({ranges},) = A[{number}]"]
            if len(value[1]) == 2:
                unpack += [f"{local}w = {local}h1 - {local}l1 + 1",
                           f"{local}o = {local}l0 * {local}w + {local}l1"]
            self.fn.prologue[number] = unpack
        return local

    def number(self, value: int) -> str:
        return _number(value) if self.literals else self.const(value)

    # -- integer expressions --------------------------------------------------

    def int_(self, expr) -> str:
        """The code of a parameter expression's value."""
        params = self.grounder.params
        if isinstance(expr, IntLit):
            return self.number(expr.value)
        if isinstance(expr, Ident):
            if expr.name in self.scope:
                return f"g{self.scope.index(expr.name)}"
            value = params.get(expr.name)
            if isinstance(value, int):
                return self.slot(expr.name, value)
            self.fail(f"'{expr.name}' is not a fixed integer here", expr.span)
            return "0"
        if isinstance(expr, ArrayAccess):
            array = params.get(expr.name)
            if not isinstance(array, _ParamArray):
                self.fail(f"'{expr.name}' is not a parameter array",
                          expr.span)
                return "0"
            return self.cell(expr, (array.values, array.ranges))
        if isinstance(expr, Neg):
            return self.value(f"-{self.int_(expr.operand)}")
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            first, links = _chain(expr, _ARITH)
            value = self.int_(first)
            for link in links:
                value = self.value(f"{value} {link.op} "
                                   f"{self.int_(link.right)}")
            return value
        self.fail("expected a parameter expression", _span_of(expr))
        return "0"

    def cell(self, access: ArrayAccess, array) -> str:
        """The element of ``array``, ``(values, ranges)`` laid out row-major,
        that ``access`` picks; every index is evaluated before any is
        checked."""
        indices = [self.int_(i) for i in access.indices]
        a = self.slot(access.name, array)
        picked = list(enumerate(indices[:len(array[1])]))
        if len(picked) == 2:
            offset = f"{indices[0]} * {a}w + {indices[1]} - {a}o"
        elif picked:
            offset = f"{indices[0]} - {a}l0"
        else:
            offset = "0"
        code = f"{a}[{offset}]"
        for table in reversed(self.fn.tables):
            if code in table:
                return table[code]
        site, env = self.site(access.name, access.span), self.env()
        for d, index in picked:
            self.check(f"not {a}l{d} <= {index} <= {a}h{d}",
                       f"_outside({index}, {a}l{d}, {a}h{d}, {site}, {env})")
        return self.value(code)

    def cond(self, expr) -> str:
        """The code of a parameter condition's truth; a connective evaluates
        its right side only when the left does not decide it."""
        if isinstance(expr, Comparison):
            left = self.int_(expr.left)
            right = self.int_(expr.right)
            return self.value(f"{left} {_HOLDS[expr.op]} {right}")
        if isinstance(expr, Not):
            return self.value(f"not {self.cond(expr.operand)}")
        if isinstance(expr, BinOp):
            if expr.op in _CONNECTIVES:
                first, links = _chain(expr, _CONNECTIVES)
                value = self.assign(self.cond(first))
                for link in links:
                    # the chain is decided unless its value is this link's
                    # identity: true for /\, false for \/
                    self.guarded(value if link.op == "/\\" else f"not {value}",
                                 value, link.right)
                return value
            if expr.op == "->":
                value = self.assign(f"not {self.cond(expr.left)}")
                self.guarded(f"not {value}", value, expr.right)
                return value
            if expr.op == "<-":
                # a <- b is a \/ not b: the right side first, and the left
                # when the right holds
                value = self.assign(f"not {self.cond(expr.right)}")
                self.guarded(f"not {value}", value, expr.left)
                return value
        self.fail("expected a parameter condition", _span_of(expr))
        return "False"

    def guarded(self, when: str, value: str, expr) -> None:
        """Set ``value`` to the truth of ``expr``, evaluated only ``when``
        holds."""
        outer = self.guard
        # made outside the outer guard, which it tests first, so that it is
        # always set
        self.guard = None
        self.guard = self.assign(f"{outer} and ({when})" if outer else when)
        self.fn.tables.append({})
        result = self.cond(expr)
        self.line(f"{value} = {result}")
        self.fn.tables.pop()
        self.guard = outer

    # -- variables ------------------------------------------------------------

    def variable(self, expr):
        """For a reference to a variable or a variable array's cell, the code
        of its ground id and the declaration, kind and sort, of what it
        names; None for anything else."""
        grounder = self.grounder
        if isinstance(expr, Ident):
            var = None if expr.name in self.scope else \
                grounder.scalars.get(expr.name)
            if var is None:
                return None
            return self.slot(expr.name, var), grounder.variables[var]
        if not isinstance(expr, ArrayAccess) or \
                expr.name not in grounder.arrays:
            return None
        ranges, cells, declared = grounder.arrays[expr.name]
        return self.cell(expr, (cells, ranges)), declared

    def var_fault(self, var: str, message: str, span) -> None:
        """Raise ``message``, formatted with the name of variable ``var``."""
        self.line(f"raise _var_fault(V, {var}, {self.site(message, span)}, "
                  f"{self.env()})")

    # -- aggregates -----------------------------------------------------------

    def bind(self, agg: Agg) -> str:
        """The list of an aggregate's bindings, each a tuple of its own
        generators' values, made generator by generator and filtered by its
        guard.  A range may name an earlier generator."""
        outer = self.scope
        envs = None
        names = ()
        for gen in agg.gens:
            if envs is None:
                lo, hi = self.int_(gen.lo), self.int_(gen.hi)
                envs = self.assign(f"_spread((), range({lo}, {hi} + 1), "
                                   f"{len(gen.names)})")
            else:
                spread = self.assign("[]")
                base = self.unpack(envs, outer, names)
                lo, hi = self.int_(gen.lo), self.int_(gen.hi)
                self.line(f"{spread} += _spread({base}, range({lo}, {hi} + 1)"
                          f", {len(gen.names)})")
                self.close()
                envs = spread
            names += tuple(gen.names)
            self.scope = outer + names
        if agg.where is not None:
            kept = self.assign("[]")
            base = self.unpack(envs, outer, names)
            self.line(f"if {self.cond(agg.where)}: {kept}.append({base})")
            self.close()
            envs = kept
        self.scope = outer
        return envs

    def unpack(self, envs: str, outer, names) -> str:
        """Open a loop over ``envs`` that binds the generators ``names``,
        after ``outer``, from each; returns the name of the binding."""
        base = self.temp()
        self.open(f"for {base} in {envs}:")
        self.line(f"{self.locals(len(outer), len(names))} = {base}")
        self.scope = outer + names
        return base

    def locals(self, first: int, count: int) -> str:
        """``g<first>, ...,`` for ``count`` generators."""
        return "".join(f"g{i}, " for i in range(first, first + count))[:-1]

    def loop(self, envs: str, names) -> None:
        """Open the loop over ``envs``, each binding the generators
        ``names`` after the scope's."""
        first = len(self.scope)
        self.open(f"for {self.locals(first, len(names)) or '_'} in {envs}:")
        self.scope += tuple(names)

    def spill(self, agg: Agg, params: str, args: str, start, body) -> str:
        """Write ``agg`` as a function of its own, which takes the data, the
        constants, the variables, ``params`` and the outer generators, runs
        the lines ``start`` and then its binding loop, whose body
        ``body()`` writes and which returns what ``body()`` names.
        Returns the call, with ``args`` for ``params``."""
        name = f"f{next(self.names)}"
        gens = self.locals(0, len(self.scope))
        outer = self.fn, self.guard
        self.fn = _Function(f"def {name}(A, K, V, {params}{gens}):")
        self.guard = None
        envs = self.bind(agg)
        for line in start:
            self.line(line)
        scope = self.scope
        self.loop(envs, [n for gen in agg.gens for n in gen.names])
        result = body()
        self.close()
        self.scope = scope
        self.line(f"return {result}")
        self.end(outer)
        return f"{name}(A, K, V, {args}{gens})"

    # -- conditions to clauses ------------------------------------------------

    def append(self, parts, sink: str) -> None:
        """Append the clauses of ``cnf``'s ``parts`` to the list ``sink``."""
        if not isinstance(parts, _Members):
            self.line(f"{sink}.extend({parts})")
        elif parts.alive == "True":
            self.line(f"{sink}.append({self.clause(parts)})")
        elif parts.alive != "False":
            self.line(f"if {parts.alive}: "
                      f"{sink}.append({self.clause(parts)})")

    def cnf(self, expr, neg: bool):
        """Flatten a condition: the ``_Members`` of one clause or none, or
        the name of a fresh list of clauses with no tautology among them."""
        if isinstance(expr, Not):
            return self.cnf(expr.operand, not neg)
        if isinstance(expr, BinOp) and expr.op in _CONNECTIVES:
            first, links = _chain(expr, _CONNECTIVES)
            parts = self.cnf(first, neg)
            for link in links:
                parts = self.join(parts, self.cnf(link.right, neg),
                                  (link.op == "/\\") != neg)
            return parts
        if isinstance(expr, BinOp) and expr.op in ("->", "<-"):
            # an implication is a disjunction of ~left and right
            if expr.op == "<-":
                left, right = expr.right, expr.left
            else:
                left, right = expr.left, expr.right
            left = self.cnf(left, not neg)
            return self.join(left, self.cnf(right, neg), neg)
        if isinstance(expr, Agg):
            if expr.kind == "sum":
                self.fail("sum is not a condition", expr.span)
                return self.assign("[]")
            return self.aggregate(expr, neg)
        if isinstance(expr, Comparison):
            return self.compare(expr, neg)
        found = self.variable(expr)
        if found is not None:
            var, declared = found
            if declared.sort is not Sort.BOOL:
                self.var_fault(var, "'{}' is an integer, not a condition",
                               expr.span)
                return self.assign("[]")
            return _Members([(var, not neg)], [], "True")
        if isinstance(expr, HeadAnn):
            self.fail("misplaced head annotation", expr.span)
        else:
            self.fail("expected a condition", _span_of(expr))
        return self.assign("[]")

    def aggregate(self, agg: Agg, neg: bool) -> str:
        """A forall or exists: a conjunction starts true (no clause) and a
        disjunction false (the empty clause), and each binding's clauses are
        joined to it."""
        def body():
            parts = self.cnf(agg.body, neg)
            if conjoin:
                self.append(parts, "c")
            else:
                self.disjoin("c", self.listed(parts), "c")
            return "c, bud"
        conjoin = (agg.kind == "forall") != neg
        result = self.temp()
        call = self.spill(agg, "LP, LN, bud, ", "LP, LN, bud, ",
                          ["c = []" if conjoin else "c = [Clause()]"], body)
        self.line(f"{result}, bud = {call}")
        return result

    def join(self, left, right, conjoin: bool):
        if conjoin:  # every list here is fresh, so extend in place
            left, right = self.listed(left), self.listed(right)
            self.line(f"{left}.extend({right})")
            return left
        if isinstance(left, _Members) and isinstance(right, _Members) and \
                left.size + right.size <= _MEMBERS:
            return self.merge(left, right)
        left, right = self.listed(left), self.listed(right)
        out = self.temp()
        self.disjoin(left, right, out)
        return out

    def disjoin(self, left: str, right: str, out: str) -> None:
        # every pair tried counts, those that make a tautology too
        self.line(f"bud += len({left}) * len({right})")
        self.line(f"if bud > {_EXPANSION_LIMIT}: "
                  f"raise _too_many({self.const(self.span)})")
        self.line(f"{out} = _disjoined({left}, {right})")

    def merge(self, left: _Members, right: _Members) -> _Members:
        """The disjunction of two sides of one clause or none: the pair
        counts when both are clauses, and a literal of one side whose
        complement is in the other makes a tautology."""
        both = self.all_of([left.alive, right.alive])
        if both != "False":
            self.line(f"bud += {1 if both == 'True' else both}")
            self.line(f"if bud > {_EXPANSION_LIMIT}: "
                      f"raise _too_many({self.const(self.span)})")
        clashes = [f"{a} == {b}" for a, positive in left.lits
                   for b, other in right.lits if positive != other]
        if any(a == b for a, positive in left.lits
               for b, other in right.lits if positive != other):
            alive = "False"
        elif clashes:
            alive = self.all_of([both, f"not ({' or '.join(clashes)})"])
        else:
            alive = both
        return _Members(left.lits + right.lits, left.atoms + right.atoms,
                        alive)

    def listed(self, parts) -> str:
        """``parts`` as the name of a fresh list of clauses."""
        if not isinstance(parts, _Members):
            return parts
        if parts.alive == "False":
            return self.assign("[]")
        clause = f"[{self.clause(parts)}]"
        if parts.alive != "True":
            clause += f" if {parts.alive} else []"
        return self.assign(clause)

    def plain(self, members: _Members):
        """The code of every member being there and on its own variables,
        so that the clause is laid out as the members are; None when that
        can never be."""
        atoms = members.atoms
        if any(atom.pairs is None for atom in atoms):
            return None
        refs = [[var for var, _ in members.lits]]
        refs += [[var for _, var in atom.pairs] for atom in atoms]
        # literals among themselves, and each atom's terms against the
        # terms of the atoms before it
        pairs = list(itertools.combinations(refs[0], 2))
        for i in range(2, len(refs)):
            pairs += [(a, b) for before in refs[1:i] for a in before
                      for b in refs[i]]
        if len(pairs) > 2 * _MEMBERS or any(a == b for a, b in pairs):
            return None
        code = self.all_of([atom.distinct for atom in atoms]
                           + [f"{a} != {b}" for a, b in pairs])
        return None if code == "False" else code

    def clause(self, members: _Members) -> str:
        """The code of the clause ``members`` make, when they are alive."""
        plain = self.plain(members)
        if plain is None:
            return self.general(members)
        if plain == "True":
            return self.laid_out(members)
        return (f"({self.laid_out(members)} if {plain} else "
                f"{self.general(members)})")

    def general(self, members: _Members) -> str:
        lits = "".join(f"({var}, {positive}), "
                       for var, positive in members.lits)
        atoms = "".join(f"({atom.terms}, {atom.bound}), "
                        for atom in members.atoms)
        return f"_clause(({lits}), ({atoms}))"

    def laid_out(self, members: _Members) -> str:
        """The code of the clause when every member is there, in order."""
        lits = "".join(f"{'LP' if positive else 'LN'}[{var}], "
                       for var, positive in members.lits)
        atoms = "".join(f"LinearAtom({atom.terms}, {atom.bound}), "
                        for atom in members.atoms)
        return f"Clause(({lits}), ({atoms}))"

    # -- comparisons ----------------------------------------------------------

    def compare(self, cmp: Comparison, neg: bool):
        """A comparison's ``>=`` atoms.  An atom reads ``big - small >=
        gap``; its parts are ``big``'s followed by ``small``'s negated, so
        one pass merges its terms in first-appearance order.  The side that
        the first atom reads first is evaluated first."""
        op = _NEGATED[cmp.op] if neg else cmp.op
        members = _ATOMS[op]
        if members[0][0][0]:
            right = self.linear(cmp.right)
            left = self.linear(cmp.left)
        else:
            left = self.linear(cmp.left)
            right = self.linear(cmp.right)
        sides = {False: left, True: right}
        built = []
        for atoms in members:
            member = []
            for swap, gap in atoms:
                big, big_constant = sides[swap]
                small, small_constant = sides[not swap]
                base = self.add(self.add(gap, self.mul(big_constant, -1)),
                                small_constant)
                member.append(self.atom(big + self.scaled(small, -1), base,
                                        len(members) == 1))
            built.append(member)
        if len(built) == 1:
            holds = [atom.hold for atom in built[0]]
            alive = self.all_of([f"not {hold}" for hold in holds
                                 if hold != "False"])
            return _Members([], built[0], alive)
        code = "".join("(" + "".join(f"({atom.terms}, {atom.bound}), "
                                     for atom in member) + "), "
                       for member in built)
        return self.assign(f"_compared(({code}))")

    def atom(self, parts, base, hold: bool) -> _Atom:
        """The atom ``parts >= base``: its terms merged by variable, zero
        coefficients left out.  Up to ``_TERMS`` terms with fixed nonzero
        coefficients, on distinct variables, and up to ``_TERMS`` integers
        are laid out as they are; anything else is merged per binding by
        ``_atom``.  Its ``hold`` is computed only when ``hold`` asks for it,
        as a one-member comparison does; it is None otherwise."""
        pairs = [(c, v) for kind, c, v in parts if kind == 0]
        ints = [(c, v) for kind, c, v in parts if kind == 1]
        refs = [v for _, v in pairs]
        if any(kind == 2 for kind, _, _ in parts) or len(pairs) > _TERMS \
                or len(ints) > _TERMS or len(set(refs)) < len(refs) or not all(
                    isinstance(c, int) and c != 0 for c, _ in pairs):
            terms, bound = self.temp(), self.temp()
            self.line(f"{terms}, {bound} = _atom({self.parts(parts)}, "
                      f"{_code(base)})")
            distinct, pairs = "False", None
        else:
            bound = self.bound(base, ints)
            if not pairs:
                return _Atom("()", bound, self.value(f"0 >= {bound}")
                             if hold else None, "False", None)
            layout = "".join(f"({_code(c)}, {v}), " for c, v in pairs)
            distinct = self.all_of(
                [f"{a} != {b}" for a, b in itertools.combinations(refs, 2)])
            if distinct == "True":
                return _Atom(self.assign(f"({layout})"), bound, "False",
                             "True", pairs)
            terms = self.assign(f"({layout}) if {distinct} else "
                                f"_terms(({layout}))")
        return _Atom(terms, bound, self.value(
            f"not {terms} and 0 >= {bound}") if hold else None, distinct,
            pairs)

    def bound(self, base, ints) -> str:
        """The code of ``base`` less each ``coeff * value`` of ``ints``."""
        steps = []
        for coeff, value in ints:
            if coeff == 1:
                steps.append(f" - {value}")
            elif coeff == -1:
                steps.append(f" + {value}")
            else:
                steps.append(f" - {_code(coeff)} * {value}")
        return self.value(_code(base) + "".join(steps)) if steps else \
            _code(base)

    # -- integer expressions as linear terms ------------------------------------

    def linear(self, expr, allow_b2i: bool = False):
        """An integer expression as ``(parts, constant)``: the parts ``(kind,
        coeff, value)`` in evaluation order, as ``_collect`` reads them,
        and the constant folded from literals and scalar parameters.  A
        coefficient or the constant is an int, or the name of a value when
        a scalar parameter is in it."""
        if isinstance(expr, IntLit):
            return [], expr.value
        if isinstance(expr, (Ident, ArrayAccess)):
            found = self.variable(expr)
            if found is None:
                value = None if expr.name in self.scope else \
                    self.grounder.params.get(expr.name)
                if isinstance(value, int):  # the same in every binding
                    return [], self.slot(expr.name, value)
                return [(1, 1, self.int_(expr))], 0
            var, declared = found
            if declared.sort is Sort.BOOL:
                self.var_fault(var, "'{}' is Boolean; it cannot appear in "
                               "arithmetic", expr.span)
                return [], 0
            return [(0, 1, var)], 0
        if isinstance(expr, Neg):
            parts, constant = self.linear(expr.operand, allow_b2i)
            return self.scaled(parts, -1), self.mul(constant, -1)
        if isinstance(expr, Bool2Int):
            if not allow_b2i:
                self.fail("bool2int is only allowed in the objective",
                          expr.span)
                return [], 0
            found = self.variable(expr.operand)
            if found is None:
                self.fail("bool2int needs a Boolean variable", expr.span)
            elif found[1].sort is Sort.BOOL:
                return [(0, 1, found[0])], 0
            else:
                self.var_fault(found[0], "bool2int needs a Boolean variable",
                               expr.span)
            return [], 0
        if isinstance(expr, Agg) and expr.kind == "sum":
            def body():
                parts, constant = self.linear(expr.body, allow_b2i)
                self.line(f"s += _collect({self.parts(parts)}, T) + "
                          f"{_code(constant)}")
                return "T, s"
            call = self.spill(expr, "", "", ["T = {}", "s = 0"], body)
            return [(2, 1, self.assign(call))], 0
        if isinstance(expr, BinOp) and expr.op in _ARITH:
            first, links = _chain(expr, _ARITH)
            parts, constant = self.linear(first, allow_b2i)
            for link in links:
                right, right_constant = self.linear(link.right, allow_b2i)
                if link.op == "*":
                    parts, constant = self.product(parts, constant, right,
                                                   right_constant, link.span)
                    continue
                sign = 1 if link.op == "+" else -1
                parts = parts + self.scaled(right, sign)
                constant = self.add(constant, self.mul(right_constant, sign))
            return parts, constant
        self.fail("expected an integer expression", _span_of(expr))
        return [], 0

    def product(self, left, left_constant, right, right_constant, span):
        """The parts of ``left * right``.  A fixed factor scales the other
        side here; otherwise one part multiplies the two sides per
        binding."""
        if not right:
            return (self.scaled(left, right_constant),
                    self.mul(left_constant, right_constant))
        if not left:
            return (self.scaled(right, left_constant),
                    self.mul(left_constant, right_constant))
        total = self.assign(
            f"_product({self.parts(left)}, {_code(left_constant)}, "
            f"{self.parts(right)}, {_code(right_constant)}, "
            f"{self.site('non-linear product', span)}, {self.env()})")
        return [(2, 1, total)], 0

    def parts(self, parts) -> str:
        return "(" + "".join(f"({kind}, {_code(c)}, {v}), "
                             for kind, c, v in parts) + ")"

    def scaled(self, parts, factor) -> list:
        return [(kind, self.mul(c, factor), v) for kind, c, v in parts]

    def mul(self, a, b):
        if isinstance(a, int) and isinstance(b, int):
            return a * b
        if a == 1 or b == 1:
            return b if a == 1 else a
        if b == -1:
            return self.value(f"-{a}")
        return self.value(f"{_code(a)} * {_code(b)}")

    def add(self, a, b):
        if isinstance(a, int) and isinstance(b, int):
            return a + b
        if a == 0 or b == 0:
            return b if a == 0 else a
        return self.value(f"{_code(a)} + {_code(b)}")


# -- the grounder ----------------------------------------------------------------


class _Grounder:
    def __init__(self, model: Model, data, founded_default):
        self.model = model
        self.data = tuple(data)
        self.founded_default = founded_default
        self.params: dict[str, object] = {}
        self.variables: list[Variable] = []
        # scalar vars: name -> id; array vars: name -> (ranges, the range
        # of the cells' ids, declaration as a Variable named like the array)
        self.scalars: dict[str, int] = {}
        self.arrays: dict[str, tuple] = {}
        self.literals = (_Literals(True), _Literals(False))

    def run(self) -> Program:
        self._bind_params()
        self._declare_vars()
        constraints = []
        for item in self.model.constraints:
            self._constraint(item, constraints)
        rules = []
        shapes = RuleShapes(self.variables)
        for item in self.model.rules:
            self._rule(item, shapes, rules)
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

    def _values(self, exprs) -> list:
        """The values of parameter expressions outside any aggregate, in
        order; literals and names of scalar parameters bound before are read
        as they are."""
        values = [e.value if type(e) is IntLit else
                  self.params.get(e.name) if type(e) is Ident else None
                  for e in exprs]
        if all(isinstance(value, int) for value in values):
            return values
        source = _Source(self, "", literals=False)
        source.line(f"return [{', '.join(source.int_(e) for e in exprs)}]")
        return source.call()

    def _dims(self, decl) -> list:
        """The declared index ranges of ``decl``, evaluated."""
        values = self._values([e for dim in decl.dims for e in dim])
        ranges = list(zip(values[::2], values[1::2]))
        if len(ranges) > 2:
            raise GroundingError("only 1- and 2-dimensional arrays are "
                                 "supported", decl.span)
        return ranges

    def _bind_one(self, decl: ParamDecl, value):
        ranges = self._dims(decl)
        elem_range = None
        if decl.elem_range is not None:
            elem_range = tuple(self._values(decl.elem_range))
        if not decl.dims:
            if isinstance(value, ArrayLit):
                raise GroundingError(
                    f"'{decl.name}' is a scalar, not an array", value.span)
            (bound,) = self._values([value])
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
        # a list of integer literals has its values, without element nodes
        ints = value.ints
        given = len(ints if ints is not None else value.elements)
        if given != size:
            raise GroundingError(
                f"'{decl.name}' needs {size} element(s), {given} given",
                value.span)
        if ints is not None:
            cells = list(ints)
        else:
            # a literal element is read as it is; only others are generated
            cells = [e.value if type(e) is IntLit else None
                     for e in value.elements]
            if None in cells:
                computed = iter(self._values([e for e in value.elements
                                              if type(e) is not IntLit]))
                cells = [next(computed) if c is None else c for c in cells]
        self._elem_check(decl.name, cells, elem_range, value.span)
        self.params[decl.name] = _ParamArray(ranges, cells)

    def _elem_check(self, name, values, elem_range, span):
        """Refuse the first of ``values`` outside ``elem_range``."""
        if elem_range is None or not values:
            return
        lo, hi = elem_range
        if lo <= min(values) and max(values) <= hi:
            return
        value = next(value for value in values if not lo <= value <= hi)
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
                lo, hi = self._values(decl.bounds)
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
            base = len(self.variables)
            for indices in itertools.product(
                    *(range(first, last + 1) for first, last in ranges)):
                self.variables.append(Variable(_cell_name(decl.name, indices),
                                               kind, decl.sort, lo, hi))
            self.arrays[decl.name] = (ranges, range(base, len(self.variables)),
                                      Variable(decl.name, kind, decl.sort))

    # -- items ---------------------------------------------------------------

    def _constraint(self, item, out: list) -> None:
        source = _Source(self, ", V, LP, LN, out", item.span)
        source.line("bud = 0")
        source.append(source.cnf(item.expr, False), "out")
        source.call(self.variables, *self.literals, out)

    def _rule(self, item, shapes: RuleShapes, rules: list) -> None:
        """Append the instances of a rule item to ``rules``, each numbered
        in ``shapes``; an instance of a shape not seen before is
        checked."""
        source = _Source(self, ", V, LP, LN, shapes, rules", item.span)
        source.line("bud = 0")
        source.line("add, repeat, numbers = shapes.add, shapes.repeat, {}")
        node, levels = item.expr, []
        while isinstance(node, Agg) and node.kind == "forall":
            levels.append(node)
            node = node.body
        # every level's bindings, each level over every binding of the ones
        # before it, before any instance
        envs = "((),)"
        for depth, level in enumerate(levels):
            scope = source.scope
            if depth == 0:
                envs = source.bind(level)
            else:
                spread = source.assign("[]")
                base = source.unpack(envs, (), scope)
                source.line(f"{spread} += _extended({base}, "
                            f"{source.bind(level)})")
                source.close()
                envs = spread
            source.scope = scope + tuple(n for gen in level.gens
                                         for n in gen.names)
        scope = source.scope
        source.scope = ()
        source.loop(envs, scope)
        self._instance(source, node)
        source.close()
        source.call(self.variables, *self.literals, shapes, rules)

    def _instance(self, source: _Source, node: HeadAnn) -> None:
        """Write the body of the instance loop: the head, then the body's
        one clause, the rule, and its shape number."""
        # the rule's faults give their own texts
        note = f"{source.site('', source.span)}, {source.env()}"
        head = source.variable(node.target)
        if head is None:
            what = "variable" if isinstance(node.target, Ident) else \
                "variable array"
            source.fail(f"'{node.target.name}' is not a {what}",
                        node.target.span)
            head = ("0", None)
        head, declared = head
        body = source.cnf(node.body, False)
        if isinstance(body, _Members):
            # a trivially true clause never forces its head
            if body.alive == "False":
                source.line("continue")
                return
            if body.alive != "True":
                source.line(f"if not {body.alive}: continue")
            plain, clause = source.plain(body), source.general(body)
        else:
            source.line(f"if not {body}: continue")
            source.line(f"if len({body}) > 1: "
                        f"raise _split(len({body}), {note})")
            plain, clause = None, f"{body}[0]"
        if plain is not None:
            # Every member is there, on its own variable, so the rule's
            # shape is the template's with the head at its place: keyed
            # once.
            refs = [var for var, _ in body.lits]
            refs += [var for atom in body.atoms for _, var in atom.pairs]
            if head in refs:
                place = str(refs.index(head))
            else:
                bool_head = declared is not None and \
                    declared.sort is Sort.BOOL
                same = range(len(body.lits)) if bool_head else \
                    range(len(body.lits), len(refs))
                place = "".join(f"{i} if {head} == {refs[i]} else "
                                for i in same) + str(len(refs))
            if plain != "True":
                source.open(f"if {plain}:")
            source.line(f"rule = Rule({source.laid_out(body)}, {head})")
            write_numbering(source, place,
                            f"if add(rule): _check_rule(rule, V, {note})")
            if plain != "True":
                source.close()
                source.open("else:")
        if plain != "True":
            # the rule's shape keyed in full
            source.line(f"rule = Rule({clause}, {head})")
            source.line(f"if add(rule): _check_rule(rule, V, {note})")
            if plain is not None:
                source.close()
        source.line("rules.append(rule)")

    def _objective(self, expr) -> LinearExpr:
        source = _Source(self, ", V")
        parts, constant = source.linear(expr, allow_b2i=True)
        source.line(f"return _objective({source.parts(parts)}, "
                    f"{_code(constant)})")
        return source.call(self.variables)


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
