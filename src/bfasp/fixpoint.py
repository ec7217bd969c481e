"""Minimal models of positive constraint programs by bounds propagation.

Every variable starts at its least value (founded sorts at their bottom) and
clause requirements only ever push head bounds upward, so the propagation is
a monotone fixpoint computation on a finite lattice: it terminates, the
result is order-independent, and it is the unique minimal model when one
exists.  A requirement above a variable's domain ceiling witnesses
unsatisfiability.
"""

import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import PositiveCP, least_products, shape_forms
from .errors import WatchdogError
from .program import (
    NEG_INF,
    POS_INF,
    Program,
    Rule,
    Sort,
    Truth,
    eval_linear,
    linear_sum,
)


_WATCHDOG_MESSAGE = "fixpoint watchdog: bound raises exceeded the lattice budget"

_new = tuple.__new__


class DeadlinePassed(Exception):
    """A leaf or upper-bound run went past the deadline it was given."""


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def _member_literal_true(lit, bounds) -> bool:
    return bounds[lit.var] == lit.positive


def clause_requirement(rule: Rule, bounds, variables):
    """Least head value satisfying ``rule.clause`` with others at ``bounds``.

    Returns the head sort's bottom (False / NEG_INF) when some other member
    already satisfies the clause, POS_INF when no head value can.  For an
    integer head the value is the ceiling of the residual slack divided by
    the head coefficient.
    """
    head = rule.head
    no_requirement = False if variables[head].sort is Sort.BOOL else NEG_INF
    head_atom = None
    for lit in rule.clause.lits:
        if lit.var == head:
            continue
        if _member_literal_true(lit, bounds):
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
        # Head occurs as a literal in a clause with an integer-sorted head:
        # ruled out by validation.
        return POS_INF
    rest = []
    for coeff, var in head_atom.terms:
        if var == head:
            coefficient = coeff
        else:
            rest.append((coeff, var))
    residual = head_atom.bound - linear_sum(rest, bounds)
    if isinstance(residual, int):
        return _ceil_div(residual, coefficient)
    # A -inf residual owes nothing; +inf, or nan from a +inf bound against a
    # +inf sum, can never be met.
    return NEG_INF if residual == NEG_INF else POS_INF


@dataclass
class FixpointResult:
    """Either a minimal model or the clause that forced a bound past its hi."""

    model: dict | None
    unsat_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.model is not None


def minimal_model(pcp: PositiveCP, *, on_update=None) -> FixpointResult:
    """Propagate clause requirements to the least fixpoint.

    ``on_update(var, old, new, clause_index)`` observes every bound raise.
    The returned model covers every founded variable of the table plus any
    standard variables the clauses mention.
    """
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
        required = clause_requirement(rule, bounds, variables)
        if required == POS_INF:
            return FixpointResult(None, index)
        current = bounds[rule.head]
        if not required > current:
            continue
        info = variables[rule.head]
        new = required
        if info.sort is Sort.INT:
            if new < info.lo:
                new = info.lo  # least domain value meeting the requirement
            if new > info.hi:
                return FixpointResult(None, index)
        if not new > current:
            continue
        if on_update is not None:
            on_update(rule.head, current, new, index)
        bounds[rule.head] = new
        raises += 1
        if raises > budget:
            raise WatchdogError(_WATCHDOG_MESSAGE)
        for watching in watchers.get(rule.head, ()):
            if not queued[watching]:
                queued[watching] = True
                queue.append(watching)
    return FixpointResult(bounds)


class _LeafAtom(NamedTuple):
    kept: tuple  # (coeff, var) of kept occurrences other than the head
    substituted: tuple  # (coeff, var) read from the valuation
    least: tuple  # each substituted term's least coeff * value
    bound: int
    head_coeff: int | None  # the head's coefficient, when the head is here


class _LeafRule(NamedTuple):
    head: int
    lo: int | None  # integer head domain; None for a Boolean head
    hi: int | None
    substituted_lits: tuple  # (var, positive)
    kept_lits: tuple  # (var, positive), the head literal excluded
    atoms: tuple  # _LeafAtom
    # The atoms' fold, when no atom has a substituted term to fold.
    fixed_fold: tuple | None


class Cone(NamedTuple):
    """The rules an upper-bound run needs to bound ``targets``."""

    targets: tuple  # founded variables
    rules: tuple  # rule indices, in program order


class LeafEvaluator:
    """The reduct and its minimal model, compiled once per program.

    ``minimal_model(valuation)`` gives the same result as
    ``minimal_model(build_reduct(program, valuation))`` without building the
    reduct: every rule keeps its split into substituted and kept
    occurrences, and each call folds the valuation into the rules and runs
    the same bounds-raising fixpoint over the rules the fold leaves active.
    Rule indices, in ``on_update`` and in ``unsat_index``, are source rule
    indices: the reduct's ``origin_of`` mapping, applied.  The split is
    analysed once per rule shape, as its ``analysis.shape_form``; each rule
    of the shape then fills in its own variables and atom bounds, by
    position, and its head's and terms' domains.

    Kept occurrences other than the head are founded and decreasing, so
    their literals are negative and their coefficients negative.  A rule
    that owes nothing with them all at the bottom, decided once per rule,
    is not evaluated until one of them is raised: it stays in the queue at
    its program position, so the raises and their order are the spec
    path's.  Rules whose fold reads substituted terms are always evaluated.

    ``upper_bounds(partial)`` runs the same fold and fixpoint on a partial
    guess assignment, with every unassigned substituted occurrence at its
    least satisfying value.  The reduct is antitone in those values, so the
    result bounds the minimal model of every completion from above.  Given
    a ``cone(targets)``, it folds and propagates only the rules that can
    raise a target, which gives the targets the same bounds.
    """

    def __init__(self, program: Program):
        variables = program.variables
        self._founded = [i for i, v in enumerate(variables) if v.is_founded]
        self._template = [v.least_value() if v.is_founded else None
                          for v in variables]
        budget = len(program.rules)
        for var in self._founded:
            info = variables[var]
            budget += 2 if info.sort is Sort.BOOL else info.hi - info.lo + 2
        self._budget = budget
        # None for a rule that no reduct keeps, whatever the valuation:
        # complementary kept literals, or constant atoms that satisfy it.
        self._rules: list[_LeafRule | None] = []
        # var -> (rule index, atom index or None for a literal) for every
        # kept non-head occurrence, in rule order.
        self._watchers = [[] for _ in variables]
        self._by_head = [[] for _ in variables]
        # True for a rule that owes nothing while its kept occurrences are
        # at the bottom, whatever the valuation.
        self._idle = []
        rules, watchers, by_head, idle = (self._rules, self._watchers,
                                          self._by_head, self._idle)
        template = self._template
        forms = shape_forms(program)
        for index, (rule, number) in enumerate(zip(program.rules,
                                                   program.shapes)):
            form = forms[number]
            compiled = None if form.complementary else _instance(form, rule,
                                                                 variables)
            rules.append(compiled)
            if compiled is None:
                idle.append(False)
                continue
            by_head[compiled.head].append(index)
            for var, _ in compiled.kept_lits:
                watchers[var].append((index, None))
            for slot, atom in enumerate(compiled.atoms):
                for _, var in atom.kept:
                    watchers[var].append((index, slot))
            idle.append(compiled.fixed_fold is not None and _leaf_requirement(
                compiled.kept_lits, compiled.atoms, compiled.fixed_fold,
                template, compiled.lo is None) is None)
        self._all = tuple(i for i, rule in enumerate(rules)
                          if rule is not None)

    def minimal_model(self, valuation, *, on_update=None,
                      deadline=None) -> FixpointResult:
        """Least fixpoint of the program's reduct under ``valuation``.

        ``valuation`` must cover every substituted occurrence (the guess set
        suffices).  The model covers every founded variable.  Past the
        ``time.monotonic()`` value ``deadline``, a bound raise raises
        ``DeadlinePassed``.
        """
        bounds, unsat_index = self._fixpoint(self._all, valuation, on_update,
                                             False, deadline)
        if unsat_index is not None:
            return FixpointResult(None, unsat_index)
        return FixpointResult({var: bounds[var] for var in self._founded})

    def cone(self, targets) -> Cone:
        """The rules that can raise a variable of ``targets``: the backward
        closure from the targets over each rule's head and kept
        occurrences."""
        rules = self._rules
        seen = set(targets)
        pending = list(seen)
        chosen = []
        while pending:
            for index in self._by_head[pending.pop()]:
                chosen.append(index)
                rule = rules[index]
                kept = [var for var, _ in rule.kept_lits]
                kept += [var for atom in rule.atoms for _, var in atom.kept]
                for var in kept:
                    if var not in seen:
                        seen.add(var)
                        pending.append(var)
        return Cone(tuple(targets), tuple(sorted(chosen)))

    def upper_bounds(self, partial, cone: Cone | None = None, *,
                     deadline=None) -> dict:
        """An upper bound on every founded variable, for every completion;
        on the targets only, given their ``cone``.

        ``partial`` assigns some of the guess variables.  An unassigned
        substituted literal counts as false, so its rule stays, and an
        unassigned substituted term contributes its least ``coeff * value``.
        Every requirement is then at least what any completion's reduct
        asks, so the fixpoint bounds that reduct's minimal model, whenever
        one exists, from above.  A requirement past a head's ``hi`` is
        clamped to ``hi``, since it says nothing about whether a
        completion's reduct has a model.  ``deadline`` is as in
        ``minimal_model``.
        """
        if cone is None:
            cone = Cone(self._founded, self._all)
        bounds, _ = self._fixpoint(cone.rules, partial, None, True, deadline)
        return {var: bounds[var] for var in cone.targets}

    def _fixpoint(self, order, valuation, on_update, clamp, deadline):
        """Raise bounds from the bottom under the rules ``order`` lists.

        Each rule is first folded under ``valuation``: an unassigned
        substituted occurrence takes its least satisfying value, a literal
        counting as false and a term adding its least ``coeff * value``.
        Returns the bounds, indexed by variable, and None, or None and the
        index of a rule whose requirement passed its head's ``hi``; with
        ``clamp`` such a requirement raises the head to ``hi`` instead.
        Each raise counts against the watchdog's budget and checks the
        ``deadline``, when there is one.
        """
        rules = self._rules
        watchers = self._watchers
        # None for a rule outside ``order`` or one the reduct drops
        folds = [None] * len(rules)
        for index in order:
            folds[index] = _fold_rule(rules[index], valuation)
        bounds = self._template.copy()
        budget = self._budget
        raises = 0
        queue = deque([i for i in order if folds[i] is not None])
        # Inactive rules are never popped, so they stay marked and never
        # join the queue.
        queued = [True] * len(rules)
        # An idle rule is skipped at its first pop unless a raise woke it
        # while it was queued.
        idle = self._idle.copy()
        while queue:
            index = queue.popleft()
            queued[index] = False
            if idle[index]:
                idle[index] = False
                continue
            head, lo, hi, _, kept_lits, atoms, _ = rules[index]
            required = _leaf_requirement(kept_lits, atoms, folds[index],
                                         bounds, lo is None)
            if required is None:
                continue
            current = bounds[head]
            if lo is None:
                if current:
                    continue
                new = True
            else:
                new = required if required > lo else lo
                if new > hi:  # POS_INF too: no head value satisfies it
                    if not clamp:
                        return None, index
                    new = hi
                if new <= current:
                    continue
            if on_update is not None:
                on_update(head, current, new, index)
            bounds[head] = new
            raises += 1
            if raises > budget:
                raise WatchdogError(_WATCHDOG_MESSAGE)
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlinePassed
            for watching, slot in watchers[head]:
                if queued[watching]:
                    idle[watching] = False
                    continue
                if slot is None or folds[watching][slot] is not None:
                    queued[watching] = True
                    queue.append(watching)
        return bounds, None


def _instance(form, rule: Rule, variables) -> _LeafRule | None:
    """``rule``'s leaf form, from the ``analysis.shape_form`` of its shape;
    None when a constant atom satisfies it, so that no reduct keeps it.

    This runs once per rule, so it takes the terms' tuples from the rule
    itself and builds the rest with ``tuple.__new__``: a NamedTuple's own
    constructor is a Python function call, and every object that outlives
    the call adds to the garbage collector's work.
    """
    atoms = []
    fixed = True  # no atom has a substituted term
    for (kept, substituted, head_coeff), source in zip(form.atoms,
                                                      rule.clause.atoms):
        terms, least = source.terms, ()
        if kept:
            kept = tuple([terms[i] for i in kept])
        if substituted:
            fixed = False
            substituted = tuple([terms[i] for i in substituted])
            least = least_products(substituted, variables)
        atoms.append(_new(_LeafAtom, (kept, substituted, least, source.bound,
                                      head_coeff)))
    fixed_fold = None
    if fixed:
        fixed_fold = _fold_atoms(atoms, {})
        if fixed_fold is None:
            return None  # a constant member satisfies it
        fixed_fold = tuple(fixed_fold)
    lits = rule.clause.lits
    substituted_lits, kept_lits = form.substituted_lits, form.kept_lits
    if substituted_lits:
        substituted_lits = tuple([(lits[i].var, lits[i].positive)
                                  for i in substituted_lits])
    if kept_lits:
        kept_lits = tuple([(lits[i].var, lits[i].positive)
                           for i in kept_lits])
    info = variables[rule.head]
    return _new(_LeafRule, (rule.head, info.lo, info.hi, substituted_lits,
                            kept_lits, tuple(atoms), fixed_fold))


def _fold_rule(rule: _LeafRule, valuation):
    """Folded atom bounds of one rule, or None when the reduct drops it."""
    for var, positive in rule.substituted_lits:
        if valuation.get(var) == positive:  # unassigned counts as false
            return None
    if rule.fixed_fold is not None:
        return rule.fixed_fold
    return _fold_atoms(rule.atoms, valuation)


def _fold_atoms(atoms, valuation):
    """Folded bounds of a rule's atoms, or None when the reduct drops it.

    As in ReductBuilder.build, a satisfied member drops the rule and a
    falsified member is deleted (None in its slot).  A rule the reduct drops
    as a tautology stays: one of its members holds at every bound, so it
    never raises its head.  A ``nan`` bound, from infinities of both signs,
    holds for no sum, so such a member counts as falsified.
    """
    fold = []
    for kept, substituted, least, bound, head_coeff in atoms:
        total = 0  # an unassigned term adds its least value
        for (coeff, var), low in zip(substituted, least):
            total += coeff * valuation[var] if var in valuation else low
        # Substituted occurrences are standard (finite) or increasing, so a
        # bottom value among them makes the folded bound POS_INF.
        folded = bound - total
        if not kept and head_coeff is None:
            if folded <= 0:
                return None
            fold.append(None)
        elif folded == POS_INF and head_coeff is None:
            fold.append(None)
        else:
            fold.append(folded)
    return fold


def _leaf_requirement(kept_lits, atoms, fold, bounds, boolean_head):
    """clause_requirement of one folded rule, None when it owes nothing.

    An integer requirement is returned unclamped; POS_INF means that no
    head value satisfies the rule.  A kept non-head term at -inf has a
    negative coefficient, so its sum is +inf and satisfies its atom.
    """
    for var, positive in kept_lits:
        if bounds[var] == positive:
            return None
    head_atom = None
    for atom, bound in zip(atoms, fold):
        if bound is None:
            continue
        if atom.head_coeff is not None:
            head_atom = atom, bound
            continue
        if linear_sum(atom.kept, bounds) >= bound:
            return None
    if boolean_head:
        return True
    if head_atom is None:
        return POS_INF
    atom, bound = head_atom
    residual = bound - linear_sum(atom.kept, bounds)
    if isinstance(residual, int):
        return _ceil_div(residual, atom.head_coeff)
    return None if residual == NEG_INF else POS_INF  # as in clause_requirement


def satisfied_at(rule: Rule, valuation, variables) -> bool:
    """Head-aware satisfaction: the head meets the clause's requirement.

    At bottom-involved valuations the raw three-valued clause evaluation can
    be UNDEFINED even though the head owes nothing (its requirement is
    vacuous); this predicate is the one minimal models are guaranteed to
    pass.
    """
    required = clause_requirement(rule, valuation, variables)
    if required == POS_INF:
        return False
    return valuation[rule.head] >= required
