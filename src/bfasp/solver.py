"""Stable-model checking, enumeration, and optimization.

A valuation is stable when it satisfies the constraints and reproduces
itself: the minimal model of the program's reduct under the valuation agrees
with it on every founded variable.  The search branches only on the guess
set (standard variables plus founded variables with substituted body
occurrences); everything else is determined by the fixpoint at each leaf.
"""

import enum
import itertools
import time
import warnings
from dataclasses import dataclass

from .analysis import ReductBuilder, guess_set, validate_positive_cp
from .errors import SolveError
from .fixpoint import DeadlinePassed, LeafEvaluator, minimal_model
from .program import (
    NEG_INF,
    Clause,
    Program,
    Sort,
    Truth,
    VarKind,
    eval_clause,
    eval_linear_expr,
    failing_constraint,
    format_value,
    linear_sum,
    validate_valuation,
)

# Guessed founded integers are enumerated over their whole extended domain;
# warn when that domain is large enough to dominate the search.
_GUESS_DOMAIN_WARN = 64


class StabilityReason(enum.Enum):
    CONSTRAINT_VIOLATED = "constraint violated"
    CONSTRAINT_UNDEFINED = "constraint evaluation undefined"
    MODEL_MISMATCH = "minimal model disagrees"
    REDUCT_UNSAT = "reduct has no model"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of check_stable, with a witness for every rejection."""

    stable: bool
    reason: StabilityReason | None = None
    clause_index: int | None = None
    rule_index: int | None = None
    var: int | None = None
    assigned: object = None
    derived: object = None

    def describe(self, program: Program) -> str:
        if self.stable:
            return "stable"
        if self.reason is StabilityReason.CONSTRAINT_VIOLATED:
            return f"constraint {self.clause_index} violated"
        if self.reason is StabilityReason.CONSTRAINT_UNDEFINED:
            return (f"constraint {self.clause_index} undefined "
                    f"(mixed infinite terms)")
        if self.reason is StabilityReason.REDUCT_UNSAT:
            return f"reduct unsatisfiable (rule {self.rule_index})"
        return (f"{program.name(self.var)} = {format_value(self.assigned)} "
                f"but minimal model gives {format_value(self.derived)}")


def check_stable(program: Program, valuation, *,
                 on_update=None) -> StabilityVerdict:
    """Decide stability of a total, in-domain valuation.

    Standard variables are free (only the constraints restrict them); every
    founded variable must equal its value in the minimal model of the reduct.
    Raises ValueError on partial or out-of-domain input.
    """
    issues = validate_valuation(program, valuation)
    if issues:
        raise ValueError("; ".join(issues))
    failing = failing_constraint(program, valuation)
    if failing is not None:
        index, verdict = failing
        reason = (StabilityReason.CONSTRAINT_UNDEFINED
                  if verdict is Truth.UNDEFINED
                  else StabilityReason.CONSTRAINT_VIOLATED)
        return StabilityVerdict(False, reason, clause_index=index)
    builder = ReductBuilder(program)
    reduct = builder.build(valuation)
    # Guards the folding logic; never expected to fire.  A reduct clause
    # keeps a subset of its shape's kept members, so the shapes stand for
    # every clause.  A failure is reported over the whole reduct, by its
    # clause numbers, or by shape when the reduct shows no issue.
    issues = validate_positive_cp(builder.shape_clauses)
    if issues:
        raise AssertionError("reduct is not positive: " + "; ".join(
            validate_positive_cp(reduct)
            or [issue.replace("clause", "shape", 1) for issue in issues]))
    result = minimal_model(reduct, on_update=on_update)
    if not result.ok:
        return StabilityVerdict(
            False, StabilityReason.REDUCT_UNSAT,
            rule_index=reduct.origin_of(result.unsat_index))
    for var, info in enumerate(program.variables):
        if info.kind is not VarKind.FOUNDED:
            continue
        if valuation[var] != result.model[var]:
            return StabilityVerdict(False, StabilityReason.MODEL_MISMATCH,
                                    var=var, assigned=valuation[var],
                                    derived=result.model[var])
    return StabilityVerdict(True)


class PropagationLevel(enum.Enum):
    LEAF_CHECK = "leaf"
    CLAUSE = "clause"


class ValueOrder(enum.Enum):
    MIN_FIRST = "min-first"
    MAX_FIRST = "max-first"


class SearchStatus(enum.Enum):
    EXHAUSTED = "exhausted"
    SOLUTION_LIMIT = "solution limit"
    TIME_LIMIT = "time limit"


@dataclass
class SearchConfig:
    value_order: ValueOrder = ValueOrder.MIN_FIRST
    propagation: PropagationLevel = PropagationLevel.CLAUSE
    solution_limit: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.solution_limit is not None and self.solution_limit <= 0:
            raise ValueError("solution limit must be positive")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time budget must be positive")


@dataclass
class SearchStats:
    """Work done by one ``Search.models()`` run, counted as it goes.

    ``nodes`` counts the search nodes entered, the root and the leaves
    included, and ``leaves`` the leaf fixpoints run.  A guess value refused
    before its subtree is searched counts once, under the check that
    refused it: a clause over guess variables (``pruned_clause``), the
    objective bound (``pruned_objective``), or the upper bounds on founded
    variables (``pruned_bounds``).  ``bound_runs`` counts the upper-bound
    fixpoints run for that last check, and ``bound_rules`` the rules in
    their cones, once per run.
    """

    nodes: int = 0
    leaves: int = 0
    pruned_clause: int = 0
    pruned_objective: int = 0
    pruned_bounds: int = 0
    bound_runs: int = 0
    bound_rules: int = 0


@dataclass
class OptimizeOutcome:
    """Best model found, its objective value, and whether optimality is proven."""

    model: dict
    value: int
    proven: bool


class _StopSearch(Exception):
    pass


class Search:
    """Depth-first stable-model search over one program.

    ``models()`` yields stable valuations in deterministic order; in
    objective mode each yielded model strictly improves on the previous one.
    ``status`` reports, after the generator finishes, whether the space was
    exhausted or a limit cut the run short, and ``stats`` counts the work
    done so far (see ``SearchStats``).  ``objective_value`` is the objective
    value of the last model the current run yielded, None before one.  A
    time budget is checked at every node, every value tried and every bound
    raise of a leaf or upper-bound fixpoint, so a long fixpoint stops at the
    budget too.

    Guess variables are branched on in index order.  A clause over guess
    variables only is checked once, at the guess that decides it (the last
    of them); any other constraint at the leaf, a variable-free one before
    the search.  A leaf constraint over founded variables the fixpoint
    settles is also checked at its last guess, unless that is the last guess
    of all, against upper bounds on those variables
    (``LeafEvaluator.upper_bounds``): it prunes when every member is FALSE
    with each such variable at its upper bound.  One that reads such a
    variable negatively is left to the leaf, since that member holds at the
    bottom.  A guessed founded variable is checked against its upper bound
    at its own guess, again not the last: no completion can be stable when
    its value exceeds the bound.  A guess's bound run folds and propagates
    only the cone of the founded variables its checks read
    (``LeafEvaluator.cone``), built at its first run.  Only subtrees
    without a stable model are pruned, so every level yields the same
    models in the same order.
    ``LEAF_CHECK`` moves every constraint to the leaf and turns the
    objective-bound and upper-bound prunes off.  Each leaf evaluates the
    program's reduct under the guesses without building it (see
    ``LeafEvaluator``), so ``on_update(var, old, new, index)`` receives the
    index of the source rule in ``program.rules`` that raised ``var``; the
    upper-bound runs do not call it.  ``check_stable`` builds the reduct,
    and there the index numbers the reduct's clauses instead.
    """

    def __init__(self, program: Program, config: SearchConfig | None = None,
                 *, on_update=None):
        self.program = program
        self.config = config or SearchConfig()
        self.status: SearchStatus | None = None
        self.stats = SearchStats()
        self.objective_value: int | None = None
        self._on_update = on_update
        self._evaluator = LeafEvaluator(program)
        self._guess = self._order_guesses()
        self._ranges = self._narrowed_ranges()
        self._guess_founded = [v for v in self._guess
                               if program.variables[v].is_founded]
        (self._at_root, self._at_guess, self._at_leaf,
         self._bounded) = self._schedule_checks()
        self._cones = [None] * len(self._guess)
        self._objective = program.objective
        self._bound: int | None = None
        self._floor_root, self._floor_steps = self._objective_floor()
        # the objective floor with the guesses down to each depth assigned
        self._floors = [None] * len(self._guess)
        self._emitted = 0
        self._deadline = None

    # -- setup -----------------------------------------------------------

    def _order_guesses(self) -> list[int]:
        chosen = sorted(guess_set(self.program))
        for var in chosen:
            info = self.program.variables[var]
            if info.is_founded and info.sort is Sort.INT:
                size = info.hi - info.lo + 2
                if size > _GUESS_DOMAIN_WARN:
                    warnings.warn(
                        f"founded variable '{info.name}' is guessed over "
                        f"{size} values; expect search blowup", stacklevel=3)
        return chosen

    def _narrowed_ranges(self) -> dict:
        """At ``CLAUSE``, each guessed integer's ``(lo, hi, bottom tried)``
        as cut by the constraints that are one atom over it alone.

        Such a constraint refuses a value outside at the variable's own
        guess anyway, so leaving those values out changes neither the
        models nor their order; a wide domain is just never walked.
        """
        if self.config.propagation is not PropagationLevel.CLAUSE:
            return {}
        guessed = set(self._guess)
        ranges = {}
        for clause in self.program.constraints:
            if clause.lits or len(clause.atoms) != 1:
                continue
            (atom,) = clause.atoms
            if len(atom.terms) != 1 or not isinstance(atom.bound, int):
                continue
            ((coeff, var),) = atom.terms
            if var not in guessed:
                continue
            info = self.program.variables[var]
            lo, hi, bottom = ranges.get(var, (info.lo, info.hi,
                                              info.is_founded))
            if coeff > 0:  # var >= bound / coeff, which the bottom fails
                lo = max(lo, -(-atom.bound // coeff))
                bottom = False
            else:  # var <= bound / coeff, which the bottom meets
                hi = min(hi, atom.bound // coeff)
            ranges[var] = (lo, hi, bottom)
        return ranges

    def _values_for(self, var: int):
        """The values tried for ``var``, made lazily: a domain may be wide."""
        info = self.program.variables[var]
        bottom = ()
        if info.sort is Sort.BOOL:
            values = (False, True)
        else:
            lo, hi, founded = self._ranges.get(
                var, (info.lo, info.hi, info.is_founded))
            values = range(lo, hi + 1)
            if founded:
                bottom = (NEG_INF,)
        if self.config.value_order is ValueOrder.MAX_FIRST:
            return itertools.chain(reversed(values), bottom)
        return itertools.chain(bottom, values)

    def _schedule_checks(self):
        """Constraints checked before the search, ``(clause, pruning
        verdicts)`` per deciding guess position, leaf constraints, and the
        upper-bound checks per guess position: ``(clause, its members over
        guess variables)`` pairs, ``(guessed founded variable, its least
        value)`` pairs, and the founded variables those checks read."""
        variables = self.program.variables
        position = {var: i for i, var in enumerate(self._guess)}
        by_guess = self.config.propagation is PropagationLevel.CLAUSE
        not_true = (Truth.FALSE, Truth.UNDEFINED)
        checks = [(clause, not_true) for clause in self.program.constraints]
        if by_guess:
            # An UNDEFINED rule clause can hold at a stable model.  A rule
            # clause over a settled variable (its head, say) is left to the
            # leaf fixpoint.
            checks += [(r.clause, (Truth.FALSE,)) for r in self.program.rules
                       if r.head in position]
        # At the last guess the leaf decides, so no bound run goes there.
        last = len(self._guess) - 1
        at_root, at_guess, at_leaf = [], [[] for _ in self._guess], []
        bounded = [([], []) for _ in self._guess]
        for clause, pruning in checks:
            slots = {position.get(var) for var in clause.variables()}
            if not slots:
                at_root.append(clause)
            elif by_guess and None not in slots:
                at_guess[max(slots)].append((clause, pruning))
            elif pruning is not_true:  # a constraint
                at_leaf.append(clause)
                slots.discard(None)
                if (by_guess and slots and max(slots) < last
                        and _bounds_can_falsify(clause, position)):
                    bounded[max(slots)][0].append(
                        (clause, _guess_members(clause, position)))
        if by_guess:
            for var in self._guess_founded:
                if position[var] < last:
                    bounded[position[var]][1].append(
                        (var, variables[var].least_value()))
        return at_root, at_guess, at_leaf, [
            (clauses, guessed, tuple(dict.fromkeys(
                [var for clause, _ in clauses for var in clause.variables()
                 if var not in position] + [var for var, _ in guessed])))
            for clauses, guessed in bounded]

    def _objective_floor(self):
        """The least objective value, and per guess position the
        ``(coefficient, minimising value)`` of each objective term over
        that guess; ``(None, None)`` disables the prune."""
        objective = self._objective
        if (objective is None
                or self.config.propagation is PropagationLevel.LEAF_CHECK):
            return None, None
        least = {}
        for coeff, var in objective.terms:
            info = self.program.variables[var]
            if info.sort is Sort.BOOL:
                least[var] = coeff < 0
            elif info.is_founded:
                return None, None  # -inf possible, no useful floor
            else:
                least[var] = info.lo if coeff > 0 else info.hi
        steps = [[] for _ in self._guess]
        position = {var: i for i, var in enumerate(self._guess)}
        for coeff, var in objective.terms:
            if var in position:
                steps[position[var]].append((coeff, least[var]))
        return (objective.constant + linear_sum(objective.terms, least),
                steps)

    # -- search ----------------------------------------------------------

    def models(self):
        cfg = self.config
        self.status = None
        self.stats = SearchStats()
        self.objective_value = None
        self._emitted = 0
        self._bound = None
        if cfg.time_budget is not None:
            self._deadline = time.monotonic() + cfg.time_budget
        if any(eval_clause(c, {}) is not Truth.TRUE for c in self._at_root):
            self.status = SearchStatus.EXHAUSTED
            return
        try:
            yield from self._search()
        except _StopSearch:
            return
        except DeadlinePassed:
            self.status = SearchStatus.TIME_LIMIT
            return
        self.status = SearchStatus.EXHAUSTED

    def _search(self):
        """Depth first over the guess variables, one value iterator per level.

        The stack replaces recursion, so the depth is not bounded by the
        interpreter's recursion limit.
        """
        guess = self._guess
        stats = self.stats
        assignment: dict = {}
        levels = []
        while True:
            # A node is entered: a leaf once every guess has a value.
            self._check_deadline()
            stats.nodes += 1
            if len(levels) == len(guess):
                stats.leaves += 1
                model = self._leaf(assignment)
                if model is not None:
                    yield model
                    self._emitted += 1
                    limit = self.config.solution_limit
                    if limit is not None and self._emitted >= limit:
                        self.status = SearchStatus.SOLUTION_LIMIT
                        raise _StopSearch
            else:
                levels.append(self._values_for(guess[len(levels)]))
            # Move to the next unpruned value of the deepest open level.
            while levels:
                depth = len(levels) - 1
                var = guess[depth]
                for value in levels[-1]:
                    # values refused without entering a node count too
                    self._check_deadline()
                    assignment[var] = value
                    if not self._pruned(assignment, depth):
                        break
                else:  # a narrowed domain may be empty
                    assignment.pop(var, None)
                    levels.pop()
                    continue
                break
            else:
                return

    def _check_deadline(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise DeadlinePassed

    def _pruned(self, assignment: dict, depth: int) -> bool:
        """Whether the value just given to the guess at ``depth`` is
        refused.  Keeps ``_floors[depth]`` for the deeper guesses."""
        stats = self.stats
        for clause, pruning in self._at_guess[depth]:
            if eval_clause(clause, assignment) in pruning:
                stats.pruned_clause += 1
                return True
        if self._floor_steps is not None:
            floor = self._floors[depth - 1] if depth else self._floor_root
            value = assignment[self._guess[depth]]
            for coeff, least in self._floor_steps[depth]:
                floor += coeff * (value - least)
            self._floors[depth] = floor
            if self._bound is not None and floor > self._bound:
                stats.pruned_objective += 1
                return True
        if self._refuted_by_bounds(assignment, depth):
            stats.pruned_bounds += 1
            return True
        return False

    def _refuted_by_bounds(self, assignment, depth) -> bool:
        """True when no completion of ``assignment`` is stable, by the
        upper bounds on the founded variables the checks at ``depth`` read.
        The bounds are computed only when a check could fail: a clause not
        TRUE on its guess members, or a guessed founded variable above its
        least value."""
        clauses, guessed, targets = self._bounded[depth]
        open_clauses = [clause for clause, members in clauses
                        if eval_clause(members, assignment) is not Truth.TRUE]
        raised = [var for var, least in guessed if assignment[var] != least]
        if not open_clauses and not raised:
            return False
        cone = self._cones[depth]
        if cone is None:
            cone = self._cones[depth] = self._evaluator.cone(targets)
        self.stats.bound_runs += 1
        self.stats.bound_rules += len(cone.rules)
        upper = self._evaluator.upper_bounds(assignment, cone,
                                             deadline=self._deadline)
        if any(assignment[var] > upper[var] for var in raised):
            return True
        upper.update(assignment)
        return any(eval_clause(clause, upper) is Truth.FALSE
                   for clause in open_clauses)

    def _leaf(self, assignment: dict):
        result = self._evaluator.minimal_model(assignment,
                                               on_update=self._on_update,
                                               deadline=self._deadline)
        if not result.ok:
            return None
        model = result.model
        for var in self._guess_founded:
            if model[var] != assignment[var]:
                return None
        candidate = dict(model)
        for var in self._guess:
            if self.program.variables[var].kind is VarKind.STANDARD:
                candidate[var] = assignment[var]
        for clause in self._at_leaf:
            if eval_clause(clause, candidate) is not Truth.TRUE:
                return None
        if self._objective is not None:
            value = eval_linear_expr(self._objective, candidate)
            if not isinstance(value, int):
                raise SolveError(
                    "objective has no finite value on a stable model "
                    f"(got {format_value(value) if value is not None else 'undefined'})")
            if self._bound is not None and value > self._bound:
                return None
            self._bound = value - 1
            self.objective_value = value
        return candidate


def _bounds_can_falsify(clause, position) -> bool:
    """Whether upper bounds alone can make ``clause`` FALSE.

    Its variables outside ``position`` must all occur positively: a
    negative literal or coefficient holds, or is undefined, with its
    variable at the bottom, which no upper bound rules out.
    """
    return (all(lit.positive for lit in clause.lits
                if lit.var not in position)
            and all(coeff > 0 for atom in clause.atoms
                    for coeff, var in atom.terms if var not in position))


def _guess_members(clause, position) -> Clause:
    """The members of ``clause`` over variables in ``position`` only."""
    return Clause(
        tuple(lit for lit in clause.lits if lit.var in position),
        tuple(atom for atom in clause.atoms
              if all(var in position for _, var in atom.terms)))


def enumerate_stable(program: Program, config: SearchConfig | None = None):
    """Yield every stable model, duplicate-free, in deterministic order."""
    yield from Search(program, config).models()


def optimize(program: Program,
             config: SearchConfig | None = None) -> OptimizeOutcome | None:
    """Minimize the program objective by branch and bound.

    Runs the enumeration with a shrinking objective bound and returns the
    last (best) model, or None when no stable model exists.  ``proven`` is
    True when the search space was exhausted.
    """
    if program.objective is None:
        raise SolveError("program has no objective to optimize")
    search = Search(program, config)
    best = None
    value = None
    for model in search.models():
        best = model
        value = search.objective_value
    if best is None:
        return None
    return OptimizeOutcome(best, value,
                           search.status is SearchStatus.EXHAUSTED)
