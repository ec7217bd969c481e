"""Independent reference answers the solver is measured against.

Everything in this module recomputes results by brute force or by a
textbook algorithm.  It shares only the public data types with the package
and none of the propagation, reduct, or search code, so agreement between
the two sides is meaningful evidence.
"""

import itertools
import math
import re
from collections import deque

from bfasp import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    PositiveCP,
    Program,
    Rule,
    Sort,
    Truth,
    VarKind,
    Variable,
    eval_linear,
)
from bfasp.errors import FormatError, WatchdogError
from bfasp.fixpoint import FixpointResult
from bfasp.ground_format import _OPS, _TOKEN_RE, _line_only, _take_neg_inf
from bfasp.parser import Cursor
from bfasp.program import linear_sum

# -- ground normal logic programs -------------------------------------------


def gl_stable_masks(n_vars: int, rules) -> set:
    """All stable models of a normal program, as bitmasks over the atoms.

    ``rules`` holds (head, pos_mask, neg_mask) triples.  For each candidate
    set the negation-free reduct keeps the rules whose negative body misses
    the candidate; the least model is the closure under those rules, and
    the candidate is stable exactly when it reproduces itself.
    """
    stable = set()
    for candidate in range(1 << n_vars):
        kept = [(head, pos) for head, pos, neg in rules
                if not neg & candidate]
        closure = 0
        changed = True
        while changed:
            changed = False
            for head, pos in kept:
                bit = 1 << head
                if not closure & bit and closure & pos == pos:
                    closure |= bit
                    changed = True
        if closure == candidate:
            stable.add(candidate)
    return stable


def random_normal_rules(rand, n_vars: int, n_rules: int) -> list:
    """Random (head, pos_mask, neg_mask) triples.

    Bodies never mention the head (the clause encoding would place the head
    variable twice) and each body variable appears with one polarity.
    """
    rules = []
    for _ in range(n_rules):
        head = rand.randrange(n_vars)
        others = [v for v in range(n_vars) if v != head]
        rand.shuffle(others)
        pos = neg = 0
        for var in others[:rand.randint(0, min(3, len(others)))]:
            if rand.random() < 0.5:
                pos |= 1 << var
            else:
                neg |= 1 << var
        rules.append((head, pos, neg))
    return rules


def encode_normal(n_vars: int, rules) -> Program:
    """Clause encoding of a normal program over founded Booleans.

    ``h :- p, not n`` becomes the rule clause ``h | ~p | n`` with head h:
    positive body atoms turn into negated (kept) literals, negated body
    atoms into positive (guessed) literals.
    """
    variables = tuple(Variable(f"v{i}", VarKind.FOUNDED, Sort.BOOL)
                      for i in range(n_vars))
    encoded = []
    for head, pos, neg in rules:
        lits = [Literal(head, True)]
        for var in range(n_vars):
            if pos >> var & 1:
                lits.append(Literal(var, False))
            if neg >> var & 1:
                lits.append(Literal(var, True))
        encoded.append(Rule(Clause(lits=tuple(lits)), head))
    return Program(variables, rules=tuple(encoded))


def model_mask(model: dict, n_vars: int) -> int:
    mask = 0
    for var in range(n_vars):
        if model[var] is True:
            mask |= 1 << var
    return mask


# -- positive constraint programs by exhaustive enumeration ------------------


def _member_holds(lit_or_atom, head, values):
    """Truth of one clause member, with the head split out of its atom.

    A non-head term stuck at the bottom contributes +inf when its
    coefficient is negative (the member asks for less than nothing) and
    sinks the member when positive.  Head atoms reduce to ``head >= ceil``
    of the residual slack, which handles a bottom head value uniformly.
    """
    if isinstance(lit_or_atom, Literal):
        return values[lit_or_atom.var] == lit_or_atom.positive
    atom = lit_or_atom
    head_coeff = None
    slack = 0
    slack_up = False
    for coeff, var in atom.terms:
        if var == head:
            head_coeff = coeff
            continue
        value = values[var]
        if value == NEG_INF:
            if coeff < 0:
                slack_up = True
            else:
                return False
        else:
            slack += coeff * value
    if atom.bound == NEG_INF:
        return True
    if atom.bound == POS_INF:
        return False
    if head_coeff is None:
        return slack_up or slack >= atom.bound
    if slack_up:
        return True
    required = -((slack - atom.bound) // head_coeff)
    return values[head] >= required


def clause_holds(rule: Rule, values) -> bool:
    members = list(rule.clause.lits) + list(rule.clause.atoms)
    return any(_member_holds(m, rule.head, values) for m in members)


def solutions(pcp: PositiveCP):
    """Every total assignment satisfying all clauses, by full enumeration."""
    domains = []
    for info in pcp.variables:
        if info.sort is Sort.BOOL:
            domains.append((False, True))
        else:
            domains.append((NEG_INF, *range(info.lo, info.hi + 1)))
    for combo in itertools.product(*domains):
        values = dict(enumerate(combo))
        if all(clause_holds(rule, values) for rule in pcp.rules):
            yield values


def least_solution(pcp: PositiveCP):
    """Pointwise meet of all solutions, or None when there are none.

    The meet of solutions of a positive program is itself a solution; that
    is asserted here so a malformed input fails loudly instead of producing
    a misleading reference value.
    """
    meet = None
    for found in solutions(pcp):
        if meet is None:
            meet = dict(found)
        else:
            for var, value in found.items():
                if value < meet[var]:
                    meet[var] = value
    if meet is not None:
        assert all(clause_holds(rule, meet) for rule in pcp.rules)
    return meet


def random_positive_cp(rand, max_vars: int = 4,
                       max_rules: int = 6) -> PositiveCP:
    """Small positive programs over mixed Boolean/integer founded variables.

    Domains stay tiny (width at most three) so the enumeration oracle has
    at most a few hundred candidate assignments to scan.
    """
    n = rand.randint(1, max_vars)
    variables = []
    for i in range(n):
        if rand.random() < 0.4:
            variables.append(Variable(f"q{i}", VarKind.FOUNDED, Sort.BOOL))
        else:
            lo = rand.randint(-2, 1)
            variables.append(Variable(f"q{i}", VarKind.FOUNDED, Sort.INT,
                                      lo, lo + rand.randint(0, 2)))
    rules = []
    for _ in range(rand.randint(1, max_rules)):
        head = rand.randrange(n)
        others = [v for v in range(n) if v != head]
        rand.shuffle(others)
        body = others[:rand.randint(0, min(2, len(others)))]
        lits, atoms = [], []
        if variables[head].sort is Sort.BOOL:
            lits.append(Literal(head, True))
        else:
            terms = [(rand.randint(1, 2), head)]
            if body and variables[body[0]].sort is Sort.INT and \
                    rand.random() < 0.5:
                terms.append((-rand.randint(1, 2), body.pop(0)))
            atoms.append(LinearAtom(tuple(terms), rand.randint(-3, 4)))
        for var in body:
            if variables[var].sort is Sort.BOOL:
                lits.append(Literal(var, False))
            else:
                atoms.append(LinearAtom(((-1, var),), rand.randint(-3, 3)))
        rules.append(Rule(Clause(tuple(lits), tuple(atoms)), head))
    return PositiveCP(tuple(variables), tuple(rules))


# -- mixed full programs ------------------------------------------------------


def random_mixed_program(rand, max_vars: int = 4,
                         with_objective: bool = False) -> Program:
    """Tiny full programs: standard and founded variables, rules, constraints.

    Every variable occurs at most once per clause, so rule bodies are
    monotone by construction.  Objectives, when requested, range over
    Booleans and standard integers only (founded integers can sit at the
    bottom, where no finite objective value exists).
    """
    n = rand.randint(2, max_vars)
    variables = []
    for i in range(n):
        kind = VarKind.FOUNDED if rand.random() < 0.6 else VarKind.STANDARD
        if rand.random() < 0.5:
            variables.append(Variable(f"m{i}", kind, Sort.BOOL))
        else:
            lo = rand.randint(-1, 1)
            variables.append(Variable(f"m{i}", kind, Sort.INT,
                                      lo, lo + rand.randint(1, 2)))
    founded = [i for i, v in enumerate(variables) if v.is_founded]

    def body_members(pool, lits, atoms):
        for var in pool:
            if variables[var].sort is Sort.BOOL:
                lits.append(Literal(var, rand.random() < 0.5))
            else:
                atoms.append(LinearAtom(((rand.choice((-1, 1)), var),),
                                        rand.randint(-2, 2)))

    rules = []
    for _ in range(rand.randint(0, 4)):
        if not founded:
            break
        head = rand.choice(founded)
        others = [v for v in range(n) if v != head]
        rand.shuffle(others)
        lits, atoms = [], []
        if variables[head].sort is Sort.BOOL:
            lits.append(Literal(head, True))
        else:
            atoms.append(LinearAtom(((1, head),), rand.randint(-2, 2)))
        body_members(others[:rand.randint(0, 2)], lits, atoms)
        rules.append(Rule(Clause(tuple(lits), tuple(atoms)), head))

    constraints = []
    for _ in range(rand.randint(0, 3)):
        pool = list(range(n))
        rand.shuffle(pool)
        lits, atoms = [], []
        body_members(pool[:rand.randint(1, 2)], lits, atoms)
        constraints.append(Clause(tuple(lits), tuple(atoms)))

    objective = None
    if with_objective:
        terms = []
        for var in range(n):
            info = variables[var]
            if info.sort is Sort.INT and info.is_founded:
                continue
            if rand.random() < 0.7:
                terms.append((rand.choice((-2, -1, 1, 2)), var))
        objective = LinearExpr(tuple(terms), rand.randint(-1, 1))
    return Program(tuple(variables), tuple(constraints), tuple(rules),
                   objective)


def random_shaped_program(rand, templates: int = 3,
                          copies: int = 4) -> Program:
    """Programs whose rules repeat a few rule templates.

    Each template is a head and body members over slots, and each slot has
    a kind and sort; an instance maps every slot to a variable of that kind
    and sort, with its own atom bounds.  There are two variables of every
    kind and sort, with their own domains, so instances of one template
    often share a shape while their bounds and domains differ.  Two slots
    of one kind and sort may name the same variable, a self-loop, which
    changes the shape.  Signs are random, so bodies may be increasing (a
    guessed founded variable), non-monotone or repeat the head (sometimes
    as complementary literals), and atoms without terms are constants that
    may satisfy the rule.  Sorts always match: literals on Booleans, terms
    on integers.
    """
    classes = [(kind, sort) for kind in VarKind for sort in Sort]
    variables = []
    for kind, sort in classes:
        for _ in range(2):
            name = f"s{len(variables)}"
            if sort is Sort.BOOL:
                variables.append(Variable(name, kind, sort))
            else:
                lo = rand.randint(-2, 1)
                variables.append(Variable(name, kind, sort, lo,
                                          lo + rand.randint(0, 2)))
    pool = {cls: [i for i, v in enumerate(variables)
                  if (v.kind, v.sort) == cls] for cls in classes}
    rules = []
    for _ in range(templates):
        slots = [rand.choice(classes) for _ in range(rand.randint(1, 4))]
        head = rand.randrange(len(slots))
        lits, atoms = [], []
        for slot, (_, sort) in enumerate(slots):
            if sort is Sort.BOOL:
                lits.append((slot, slot == head or rand.random() < 0.3))
            elif slot == head or not atoms or rand.random() < 0.5:
                atoms.append([(rand.choice((-1, 1, 2)) if slot != head
                               else 1, slot)])
            else:
                atoms[-1].append((rand.choice((-2, -1, 1)), slot))
        if rand.random() < 0.3:
            atoms.append([])  # a constant
        if slots[head][1] is Sort.BOOL and rand.random() < 0.1:
            lits.append((head, False))  # complementary head literals
        for _ in range(copies):
            picked = [rand.choice(pool[cls]) for cls in slots]
            if rand.random() < 0.3:  # a self-loop, where classes allow it
                a, b = rand.randrange(len(slots)), rand.randrange(len(slots))
                if slots[a] == slots[b]:
                    picked[b] = picked[a]
            clause = Clause(
                tuple(Literal(picked[slot], positive)
                      for slot, positive in lits),
                tuple(LinearAtom(tuple((coeff, picked[slot])
                                       for coeff, slot in terms),
                                 rand.randint(-2, 2))
                      for terms in atoms))
            rules.append(Rule(clause, picked[head]))
    rand.shuffle(rules)
    return Program(tuple(variables), rules=tuple(rules))


def all_valuations(program: Program):
    """Every total in-domain valuation of the program, for exhaustive checks."""
    domains = []
    for info in program.variables:
        if info.sort is Sort.BOOL:
            domains.append((False, True))
        elif info.is_founded:
            domains.append((NEG_INF, *range(info.lo, info.hi + 1)))
        else:
            domains.append(tuple(range(info.lo, info.hi + 1)))
    for combo in itertools.product(*domains):
        yield dict(enumerate(combo))


def freeze(model: dict) -> tuple:
    """Hashable form of a valuation, for set comparisons."""
    return tuple((var, model[var]) for var in sorted(model))


# -- graphs -------------------------------------------------------------------


def bellman_ford(n: int, edges, source: int) -> list:
    """Single-source shortest paths; index 0 is unused, inf means unreachable."""
    dist = [math.inf] * (n + 1)
    dist[source] = 0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def random_digraph(rand, max_nodes: int = 15, max_weight: int = 50):
    n = rand.randint(2, max_nodes)
    possible = [(u, v) for u in range(1, n + 1)
                for v in range(1, n + 1) if u != v]
    count = rand.randint(1, min(len(possible), 2 * n))
    edges = [(u, v, rand.randint(1, max_weight))
             for u, v in rand.sample(possible, count)]
    return n, edges


def distance_cp(n: int, edges, source: int,
                max_weight: int = 50) -> PositiveCP:
    """Negated-distance rules: d_v >= d_u - w per edge, d_source >= 0."""
    floor = -(n * max_weight)
    variables = tuple(Variable(f"d{v}", VarKind.FOUNDED, Sort.INT, floor, 0)
                      for v in range(1, n + 1))
    rules = [Rule(Clause(atoms=(LinearAtom(((1, source - 1),), 0),)),
                  source - 1)]
    for u, v, w in edges:
        atom = LinearAtom(((1, v - 1), (-1, u - 1)), -w)
        rules.append(Rule(Clause(atoms=(atom,)), v - 1))
    return PositiveCP(variables, tuple(rules))


def mcds_optima(n: int, edges, cap: int):
    """Brute force over all node subsets: (best size, optimal subsets).

    A subset qualifies when every node is a member or points at one, and
    all member pairs reach each other within ``cap`` along edges whose
    endpoints are both members.  Returns None when no subset qualifies.
    """
    best = None
    optima = []
    for bits in range(1, 1 << n):
        picked = [v for v in range(1, n + 1) if bits >> (v - 1) & 1]
        member = set(picked)

        def dominated(v):
            return v in member or any(eu == v and ev in member
                                      for eu, ev, _ in edges)

        if not all(dominated(v) for v in range(1, n + 1)):
            continue
        dist = {(u, v): 0 if u == v else math.inf
                for u in picked for v in picked}
        for eu, ev, w in edges:
            if eu in member and ev in member and w < dist[eu, ev]:
                dist[eu, ev] = w
        for k in picked:
            for u in picked:
                for v in picked:
                    through = dist[u, k] + dist[k, v]
                    if through < dist[u, v]:
                        dist[u, v] = through
        if any(dist[u, v] > cap for u in picked for v in picked):
            continue
        if best is None or len(picked) < best:
            best = len(picked)
            optima = [tuple(picked)]
        elif len(picked) == best:
            optima.append(tuple(picked))
    if best is None:
        return None
    return best, optima


MCDS_EDGES = ((1, 2, 20), (2, 1, 20), (2, 3, 30),
              (3, 2, 30), (3, 4, 40), (4, 3, 40))


# -- tokens -------------------------------------------------------------------

# The token grammars of the text formats, written as one named group per
# kind: the model and data formats, and the ground-program and assignment
# formats.  ``kw`` holds the model keywords as whole words.
MODEL_TOKENS = re.compile(
    r"""(?P<skip>[ \t\r\n]+|%[^\n]*)
      | (?P<kw>(?:array|bool|bool2int|constraint|exists|false|forall|founded
                |head|in|int|minimize|not|of|rule|satisfy|solve|sum|true|var
                |where)\b)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<int>\d+)
      | (?P<op>::|\.\.|->|<-|/\\|\\/|[<>=!]=|[;:,()\[\]=<>+*-])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)

GROUND_TOKENS = re.compile(
    r"""(?P<skip>\s+|\#[^\n]*)
      | (?P<name>[A-Za-z_]\w*(?:\[-?\d+(?:,-?\d+)*\])?)
      | (?P<int>\d+)
      | (?P<op>>=|\.\.|[|~;*+=-])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)


def reference_scan(pattern: re.Pattern, text: str):
    """Yield ``(kind, value, line, col)`` for each token of ``text``.

    The kind is the name of the group that matched, and the location is
    counted while scanning: lines from the newlines in skipped text, both
    counted from 1.  A ``bad`` token ends the tokens; otherwise an ``end``
    token with the empty value does.
    """
    line, line_start = 1, 0
    for match in pattern.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind == "skip":
            if "\n" in value:
                line += value.count("\n")
                line_start = match.start() + value.rindex("\n") + 1
            continue
        yield kind, value, line, match.start() - line_start + 1
        if kind == "bad":
            return
    yield "end", "", line, len(text) - line_start + 1


# -- reading ground programs ----------------------------------------------------


class GroundReader(Cursor):
    """Reads a ground program token by token, the ground format's grammar
    as first written, through the package's ``Cursor`` (which
    ``test_scanner`` checks against ``reference_scan``).  Errors name the
    line of a token index, made only when one is raised."""

    def __init__(self, text: str):
        super().__init__(_TOKEN_RE, text, FormatError, _line_only, _OPS)
        self.variables: list[Variable] = []
        self.index: dict[str, int] = {}
        self.constraints: list[Clause] = []
        self.rules: list[Rule] = []
        self.objective: LinearExpr | None = None

    def run(self) -> Program:
        while not self.at_end():
            if self.take("var"):
                self._var_decl()
            elif self.take("constraint"):
                self.constraints.append(self._clause())
                self.expect(";")
            elif self.take("rule"):
                self._rule()
            elif self.take("minimize"):
                self._minimize()
            else:
                self.fail("an item")
        return Program(tuple(self.variables), tuple(self.constraints),
                       tuple(self.rules), self.objective)

    def _var_decl(self):
        at = self._at
        if self.take("bool"):
            sort, lo, hi = Sort.BOOL, None, None
        elif self.take("int"):
            sort = Sort.INT
            lo = self._bound()
            self.expect("..")
            hi = self._bound()
        else:
            self.fail("'bool' or 'int'")
        if self.take("standard"):
            kind = VarKind.STANDARD
        elif self.take("founded"):
            kind = VarKind.FOUNDED
        else:
            self.fail("'standard' or 'founded'")
        name = self.name("variable name")
        self.expect(";")
        if name in self.index:
            self._raise(f"duplicate variable '{name}'", at)
        self.index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, sort, lo, hi))

    def _bound(self):
        if self.take("inf"):
            return POS_INF
        if _take_neg_inf(self):
            return NEG_INF
        return self.integer()

    def _lookup(self, name: str, at: int) -> int:
        var = self.index.get(name)
        if var is None:
            self._raise(f"unknown variable '{name}'", at)
        return var

    def _clause(self) -> Clause:
        if self.take("false"):
            return Clause((), ())
        lits: list[Literal] = []
        atoms: list[LinearAtom] = []
        while True:
            self._member(lits, atoms)
            if not self.take("|"):
                break
        return Clause(tuple(lits), tuple(atoms))

    def _member(self, lits: list, atoms: list):
        """One clause member: ``~name``, ``name``, or a linear atom."""
        at = self._at
        if self.take("~"):
            var = self._lookup(self.name(), at)
            self._want_sort(var, Sort.BOOL, at)
            lits.append(Literal(var, False))
            return
        value = self._values[at]
        if self.kind(value) == "name" and not self._starts_atom():
            self._at += 1
            var = self._lookup(value, at)
            self._want_sort(var, Sort.BOOL, at)
            lits.append(Literal(var, True))
            return
        terms, constant = self._linear()
        self.expect(">=")
        bound = self._bound()
        if isinstance(constant, int) and isinstance(bound, int):
            bound -= constant
        atoms.append(LinearAtom(tuple(terms), bound))

    def _starts_atom(self) -> bool:
        """Lookahead: a bare name is an atom when an operator follows."""
        return self._values[self._at + 1] in (">=", "+", "-", "*")

    def _linear(self, *, allow_bool: bool = False):
        """Sum of ``k*name``, ``name``, and integer terms.

        Objectives may carry Boolean variables (counted 0/1); clause atoms
        may not.
        """
        values = self._values
        terms: list[tuple[int, int]] = []
        constant = 0
        sign = 1
        while True:
            if self.take("-"):
                sign = -sign
            at = self._at
            value = values[at]
            kind = self.kind(value)
            if kind == "int":
                self._at = at + 1
                coeff = sign * int(value)
                name = self.name() if self.take("*") else None
            elif kind == "name":
                self._at = at + 1
                coeff, name = sign, value
            else:
                self.fail("a term")
            if name is None:
                constant += coeff
            else:
                var = self._lookup(name, at)
                if not allow_bool:
                    self._want_sort(var, Sort.INT, at)
                terms.append((coeff, var))
            sign = 1
            if self.take("+"):
                continue
            if self.peek("-"):
                continue
            return terms, constant

    def _want_sort(self, var: int, sort: Sort, at: int):
        info = self.variables[var]
        if info.sort is not sort:
            place = "a literal" if sort is Sort.BOOL else "a linear term"
            self._raise(
                f"'{info.name}' is {info.sort.value}, not usable as {place}",
                at)

    def _rule(self):
        clause = self._clause()
        self.expect("head")
        name = self.name("head variable")
        head = self._lookup(name, self._at - 1)
        self.expect(";")
        self.rules.append(Rule(clause, head))

    def _minimize(self):
        if self.objective is not None:
            self._raise("more than one minimize item", self._at)
        terms, constant = self._linear(allow_bool=True)
        self.expect(";")
        self.objective = LinearExpr(tuple(terms), constant)


def reference_read_ground(text: str) -> Program:
    """``text`` read token by token by ``GroundReader``, its rule shapes
    left to be keyed rule by rule."""
    return GroundReader(text).run()


# -- minimal models as first written --------------------------------------------


def reference_requirement(rule: Rule, bounds, variables):
    """``fixpoint.clause_requirement`` as first written: a list for the
    head atom's rest, a generator per atom, ``eval_linear`` per body atom."""
    head = rule.head
    no_requirement = False if variables[head].sort is Sort.BOOL else NEG_INF
    head_atom = None
    for lit in rule.clause.lits:
        if lit.var == head:
            continue
        if bounds[lit.var] == lit.positive:
            return no_requirement
    for atom in rule.clause.atoms:
        if any(var == head for _, var in atom.terms):
            head_atom = atom
            continue
        if eval_linear(atom, bounds) is Truth.TRUE:
            return no_requirement

    if variables[head].sort is Sort.BOOL:
        return True
    if head_atom is None:
        return POS_INF
    rest = []
    for coeff, var in head_atom.terms:
        if var == head:
            coefficient = coeff
        else:
            rest.append((coeff, var))
    residual = head_atom.bound - linear_sum(rest, bounds)
    if isinstance(residual, int):
        return -((-residual) // coefficient)
    return NEG_INF if residual == NEG_INF else POS_INF


def reference_minimal_model(pcp: PositiveCP, *, on_update=None):
    """``fixpoint.minimal_model`` as first written, watch lists made from
    ``set(rule.clause.variables())``: the queue, the raises and their
    ``on_update`` calls, and the unsat index to compare a rewrite with."""
    variables = pcp.variables
    bounds = {i: v.least_value() for i, v in enumerate(variables)
              if v.is_founded}
    watchers: dict[int, list[int]] = {}
    for index, rule in enumerate(pcp.rules):
        for var in set(rule.clause.variables()):
            if var not in bounds:
                bounds[var] = variables[var].least_value()
            if var != rule.head:
                watchers.setdefault(var, []).append(index)
        if rule.head not in bounds:
            bounds[rule.head] = variables[rule.head].least_value()

    budget = len(pcp.rules)
    for var in bounds:
        info = variables[var]
        budget += 2 if info.sort is Sort.BOOL else info.hi - info.lo + 2
    raises = 0

    queue = deque(range(len(pcp.rules)))
    queued = [True] * len(pcp.rules)
    while queue:
        index = queue.popleft()
        queued[index] = False
        rule = pcp.rules[index]
        required = reference_requirement(rule, bounds, variables)
        if required == POS_INF:
            return FixpointResult(None, index)
        current = bounds[rule.head]
        if not required > current:
            continue
        info = variables[rule.head]
        new = required
        if info.sort is Sort.INT:
            if new < info.lo:
                new = info.lo
            if new > info.hi:
                return FixpointResult(None, index)
        if not new > current:
            continue
        if on_update is not None:
            on_update(rule.head, current, new, index)
        bounds[rule.head] = new
        raises += 1
        if raises > budget:
            raise WatchdogError("fixpoint watchdog: bound raises exceeded "
                                "the lattice budget")
        for watching in watchers.get(rule.head, ()):
            if not queued[watching]:
                queued[watching] = True
                queue.append(watching)
    return FixpointResult(bounds)
