"""Minimal models of positive constraint programs by bounds propagation.

Every variable starts at its least value (founded sorts at their bottom) and
clause requirements only ever push head bounds upward, so the propagation is
a monotone fixpoint computation on a finite lattice: it terminates, the
result is order-independent, and it is the unique minimal model when one
exists.  A requirement above a variable's domain ceiling witnesses
unsatisfiability.
"""

import itertools
import operator
import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import PositiveCP, shape_forms
from .codegen import Writer, define
from .errors import WatchdogError
from .program import (
    NEG_INF,
    POS_INF,
    Program,
    Rule,
    Sort,
)


_WATCHDOG_MESSAGE = "fixpoint watchdog: bound raises exceeded the lattice budget"

class DeadlinePassed(Exception):
    """A leaf or upper-bound run went past the deadline it was given."""


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def clause_requirement(rule: Rule, bounds, variables):
    """Least head value satisfying ``rule.clause`` with others at ``bounds``.

    Returns the head sort's bottom (False / NEG_INF) when some other member
    already satisfies the clause, POS_INF when no head value can.  For an
    integer head the value is the ceiling of the residual slack divided by
    the head coefficient.

    One pass over the members, which makes no object: a literal holds as
    in ``eval_clause``; an atom without the head holds as in
    ``eval_linear``, its sum taken in term order, and an atom is the
    head's from its first head term on.  When the head is in several
    atoms, the last one counts, its last head term giving the coefficient
    and its other terms the sum; an integer head in none gives POS_INF.
    ``bounds`` holds every variable of the clause.
    """
    head = rule.head
    boolean = variables[head].sort is Sort.BOOL
    for lit in rule.clause.lits:
        if lit.var != head and bounds[lit.var] == lit.positive:
            return False if boolean else NEG_INF
    head_atom = None
    for atom in rule.clause.atoms:
        total = 0
        for coeff, var in atom.terms:
            if var == head:
                head_atom = atom
                break
            total += coeff * bounds[var]
        else:
            bound = atom.bound
            # +inf meets a +inf bound only as an undefined sum
            if total >= bound and not total == bound == POS_INF:
                return False if boolean else NEG_INF

    if boolean:
        return True
    if head_atom is None:
        # Head occurs as a literal in a clause with an integer-sorted head:
        # ruled out by validation.
        return POS_INF
    total = 0
    for coeff, var in head_atom.terms:
        if var == head:
            coefficient = coeff
        else:
            total += coeff * bounds[var]
    residual = head_atom.bound - total
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

    The set-up walks each clause's literals and terms in place: a variable
    gets one watch entry per clause it is a non-head member of, in clause
    order.  The clauses are queued in order, and each pop asks
    ``clause_requirement``.
    """
    variables = pcp.variables
    bounds = {i: v.least_value() for i, v in enumerate(variables)
              if v.is_founded}
    watchers: dict[int, list[int]] = {}

    def watch(var, index, head):
        if var not in bounds:
            bounds[var] = variables[var].least_value()
        if var != head:
            entries = watchers.get(var)
            if entries is None:
                watchers[var] = [index]
            elif entries[-1] != index:  # once per clause
                entries.append(index)

    for index, rule in enumerate(pcp.rules):
        head = rule.head
        for lit in rule.clause.lits:
            watch(lit.var, index, head)
        for atom in rule.clause.atoms:
            for _, var in atom.terms:
                watch(var, index, head)
        if head not in bounds:
            bounds[head] = variables[head].least_value()

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


class Cone(NamedTuple):
    """The rules an upper-bound run needs to bound ``targets``."""

    targets: tuple  # founded variables
    rules: tuple  # rule indices, in program order
    # per rule shape among them: its fold kernel and its rules here
    batches: tuple


class LeafEvaluator:
    """The reduct and its minimal model, compiled once per program.

    ``minimal_model(valuation)`` gives the same result as
    ``minimal_model(build_reduct(program, valuation))`` without building the
    reduct: every rule keeps its split into substituted and kept
    occurrences, and each call folds the valuation into the rules and runs
    the same bounds-raising fixpoint over the rules the fold leaves active.
    Rule indices, in ``on_update`` and in ``unsat_index``, are source rule
    indices: the reduct's ``origin_of`` mapping, applied.

    The split is analysed once per rule shape, as its
    ``analysis.shape_form``, and each shape gets three kernels, generated
    through ``codegen`` (``_kernels``), with its layout unrolled and its
    signs and coefficients written in: a fold, which folds the valuation
    into every rule of the shape that a run holds; a requirement, which is
    ``clause_requirement`` of one folded rule; and a set-up, run once here
    over every rule of the shape.  The set-up reads each rule by position
    and makes its plain tuple of its own variables, atom bounds, least
    products, head domain and fixed fold (laid out as above ``_KEPT``), its
    idle flag, and its entries in the watch lists and the lists of rules by
    head, which are then put in rule order.  No function object is made
    per rule.

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
        self._shapes = shapes = program.shapes
        # Per rule, its plain tuple (laid out as above ``_KEPT``), or None
        # for a rule that no reduct keeps, whatever the valuation:
        # complementary kept literals, or constant atoms that satisfy it.
        self._rules = [None] * len(shapes)
        # True for a rule that owes nothing while its kept occurrences are
        # at the bottom, whatever the valuation.
        self._idle = [False] * len(shapes)
        # var -> (rule index, atom index or None for a literal) for every
        # kept non-head occurrence, in rule order.
        self._watchers = [[] for _ in variables]
        self._by_head = [[] for _ in variables]
        # Per shape, its ``_kernels``; None when no reduct keeps its rules.
        self._kernels = []
        forms = shape_forms(program)
        members = [[] for _ in forms]  # per shape, its rules
        for index, number in enumerate(shapes):
            members[number].append(index)
        kept = []  # per shape, the rules that some reduct keeps
        for form, indices in zip(forms, members):
            first = program.rules[indices[0]]
            kernel = None if form.complementary else _kernels(
                form, first, variables[first.head].sort is Sort.BOOL)
            self._kernels.append(kernel)
            if kernel is not None:
                kept.append(kernel[3](indices, program.rules, variables,
                                      self._template, self._rules, self._idle,
                                      self._watchers, self._by_head))
        if sum(1 for rules in kept if rules) > 1:
            # each shape appended its rules in order, one shape after
            # another: put every list back in rule order
            for entries in self._by_head:
                entries.sort()
            for entries in self._watchers:
                entries.sort(key=_rule_index)
        # Per rule, its shape's requirement kernel.
        requirements = [kernel and kernel[1] for kernel in self._kernels]
        self._requirement_of = [requirements[number] for number in shapes]
        # the cone of every founded variable: each rule some reduct keeps
        self._whole = self._cone(self._founded, sorted(
            itertools.chain.from_iterable(kept)))

    def minimal_model(self, valuation, *, on_update=None,
                      deadline=None) -> FixpointResult:
        """Least fixpoint of the program's reduct under ``valuation``.

        ``valuation`` must cover every substituted occurrence (the guess set
        suffices).  The model covers every founded variable.  Past the
        ``time.monotonic()`` value ``deadline``, a bound raise raises
        ``DeadlinePassed``.
        """
        bounds, unsat_index = self._fixpoint(self._whole, valuation,
                                             on_update, False, deadline)
        if unsat_index is not None:
            return FixpointResult(None, unsat_index)
        return FixpointResult({var: bounds[var] for var in self._founded})

    def cone(self, targets) -> Cone:
        """The rules that can raise a variable of ``targets``: the backward
        closure from the targets over each rule's head and kept
        occurrences."""
        rules, shapes, kernels = self._rules, self._shapes, self._kernels
        seen = set(targets)
        pending = list(seen)
        chosen = []
        while pending:
            for index in self._by_head[pending.pop()]:
                chosen.append(index)
                kept = _KEPT + len(kernels[shapes[index]][2])
                for var in rules[index][_KEPT:kept]:
                    if var not in seen:
                        seen.add(var)
                        pending.append(var)
        return self._cone(targets, sorted(chosen))

    def _cone(self, targets, rules) -> Cone:
        """The Cone of ``rules``, in program order, with them batched by
        shape for the fold kernels."""
        shapes, kernels = self._shapes, self._kernels
        batches = {}
        for index in rules:
            batches.setdefault(shapes[index], []).append(index)
        return Cone(tuple(targets), tuple(rules), tuple(
            (kernels[number][0], tuple(indices))
            for number, indices in batches.items()))

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
            cone = self._whole
        bounds, _ = self._fixpoint(cone, partial, None, True, deadline)
        return {var: bounds[var] for var in cone.targets}

    def _fixpoint(self, cone, valuation, on_update, clamp, deadline):
        """Raise bounds from the bottom under the rules of ``cone``.

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
        requirement_of = self._requirement_of
        # None for a rule outside the cone or one the reduct drops
        folds = [None] * len(rules)
        for fold, indices in cone.batches:
            fold(indices, rules, valuation, folds)
        bounds = self._template.copy()
        budget = self._budget
        raises = 0
        queue = deque([i for i in cone.rules if folds[i] is not None])
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
            rule = rules[index]
            required = requirement_of[index](rule, folds[index], bounds)
            if required is None:
                continue
            head, lo, hi = rule[0], rule[1], rule[2]
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


# A rule's plain tuple, made by its shape's set-up kernel and read by its
# fold and requirement kernels at fixed positions:
#   0 head, 1 and 2 the head's lo and hi (None for a Boolean head),
#   3 the fixed fold, or None when an atom has a substituted term;
#   from 4, the kept non-head variables: the literals', then each atom's
#   terms', in member order ("the kept block", watched and followed by
#   ``cone``); then the substituted literals' variables; then per atom its
#   bound, then each substituted term's variable and least coeff * value.
_KEPT = 4

_rule_index = operator.itemgetter(0)


def _kernels(form, rule: Rule, boolean_head: bool) -> tuple:
    """The fold, requirement and set-up kernels of ``rule``'s shape,
    generated for the shape's layout from its ``form``, with the signs and
    coefficients that every rule of the shape shares written in; and the
    watch slot of each kept variable (an atom index, or None for a
    literal).  Returns ``(fold, requirement, slots, setup)``, written as one
    source and defined through ``codegen``.

    ``fold(indices, rules, valuation, folds)`` sets ``folds[i]``, for each
    listed rule of the shape, to the folded bound of each of its atoms; it
    leaves None there when the reduct drops the rule.  As in
    ``ReductBuilder.build``, a satisfied member drops the rule and a
    falsified member is deleted (None in its slot); an unassigned
    substituted occurrence takes its least satisfying value, a literal
    counting as false and a term adding its least ``coeff * value``.  A
    rule the reduct drops as a tautology stays: one of its members holds at
    every bound, so it never raises its head.  A ``nan`` bound, from
    infinities of both signs, holds for no sum, so such a member counts as
    falsified.  When the shape's atoms have no substituted term, the fold
    is the rule's fixed fold, made once by ``setup``.

    ``requirement(r, fold, bounds)`` is ``clause_requirement`` of the folded
    rule, or None when it owes nothing.  An integer requirement is returned
    unclamped; POS_INF means that no head value satisfies the rule.  A kept
    non-head term at -inf has a negative coefficient, so its sum is +inf
    and satisfies its atom.

    ``setup(indices, rules, variables, template, tuples, idle, watchers,
    by_head)`` reads each listed ``Rule`` of the shape by position and sets
    its plain tuple, and for a fixed fold its idle flag: whether
    ``requirement`` of that fold owes nothing at the ``template`` bounds,
    where every kept variable is at its bottom.  It appends the rule to
    its head's ``by_head`` list and to the watch list of each of its kept
    variables.  It returns the listed rules it keeps: not those a constant
    atom satisfies, whose tuple stays None.
    """
    lits, atoms = rule.clause.lits, rule.clause.atoms
    place = itertools.count(_KEPT)
    kept_lits = [(next(place), lits[i].positive) for i in form.kept_lits]
    kept_terms = [[(atom.terms[i][0], next(place)) for i in kept]
                  for (kept, _, _), atom in zip(form.atoms, atoms)]
    slots = [None] * len(kept_lits)
    for slot, terms in enumerate(kept_terms):
        slots += [slot] * len(terms)
    substituted_lits = [(next(place), lits[i].positive)
                        for i in form.substituted_lits]
    substituted_terms = []  # per atom: its bound's place and its terms
    for (_, substituted, _), atom in zip(form.atoms, atoms):
        bound = next(place)
        substituted_terms.append((bound, [
            (atom.terms[i][0], next(place), next(place))
            for i in substituted]))

    code = Writer()
    code.open("def fold(indices, rules, valuation, folds):")
    if substituted_lits:
        code.line("get = valuation.get")
    code.open("for i in indices:")
    code.line("r = rules[i]")
    for at, positive in substituted_lits:  # unassigned counts as false
        code.line(f"if get(r[{at}]) == {positive}: continue")
    if not any(terms for _, terms in substituted_terms):
        # every rule held here has the fixed fold that ``setup`` made
        code.line("folds[i] = r[3]")
    else:
        folded = []
        for j, ((kept, _, head_coeff), (bound, terms)) in enumerate(
                zip(form.atoms, substituted_terms)):
            # Substituted occurrences are standard (finite) or increasing,
            # so a bottom value among them makes the folded bound POS_INF.
            total = " + ".join(
                f"({coeff} * valuation[v] if (v := r[{at}]) in valuation "
                f"else r[{least}])" for coeff, at, least in terms)
            code.line(f"f{j} = r[{bound}]"
                      + (f" - ({total})" if total else ""))
            if not kept and head_coeff is None:
                code.line(f"if f{j} <= 0: continue")
                folded.append("None")
            elif head_coeff is None:
                folded.append(f"None if f{j} == inf else f{j}")
            else:
                folded.append(f"f{j}")
        code.line(f"folds[i] = ({''.join(slot + ', ' for slot in folded)})")
    code.close()
    code.close()

    code.open("def requirement(r, fold, bounds):")
    for at, positive in kept_lits:
        code.line(f"if bounds[r[{at}]] == {positive}: return None")
    head_atom = None
    for j, ((kept, _, head_coeff), terms) in enumerate(zip(form.atoms,
                                                          kept_terms)):
        total = " + ".join(f"{coeff} * bounds[r[{at}]]"
                           for coeff, at in terms)
        if head_coeff is not None:
            head_atom = j, head_coeff, total
        elif kept:
            code.line(f"if (b := fold[{j}]) is not None and {total} >= b: "
                      "return None")
    if boolean_head:
        code.line("return True")
    elif head_atom is None:
        code.line("return inf")
    else:
        j, head_coeff, total = head_atom
        code.line(f"residual = fold[{j}]" + (f" - ({total})" if total else ""))
        code.open("if isinstance(residual, int):")
        code.line("return residual" if head_coeff == 1 else
                  f"return -(-residual // {head_coeff})")  # the ceiling
        code.close()
        # as in clause_requirement
        code.line("return None if residual == -inf else inf")
    code.close()
    _setup(code, form, rule, slots)
    namespace = define(code.text(), {"inf": POS_INF})
    return (namespace["fold"], namespace["requirement"], tuple(slots),
            namespace["setup"])


def _setup(code: Writer, form, rule: Rule, slots) -> None:
    """Write ``_kernels``' set-up kernel."""
    lits, atoms = rule.clause.lits, rule.clause.atoms
    fixed = not any(substituted for _, substituted, _ in form.atoms)
    # a constant atom may satisfy a rule, which then stays out of ``kept``
    dropping = fixed and any(not kept and head_coeff is None
                             for kept, _, head_coeff in form.atoms)
    code.open("def setup(indices, rules, variables, template, tuples, idle, "
              "watchers, by_head):")
    if dropping:
        code.line("kept = []")
    code.open("for i in indices:")
    # each member the tuple holds, read by position
    code.line("rule = rules[i]")
    code.line("h = rule.head")
    read = set(form.kept_lits) | set(form.substituted_lits)
    if read:
        code.line("".join(f"l{i}, " if i in read else "_, "
                          for i in range(len(lits))) + "= rule.clause.lits")
        for i in sorted(read):
            code.line(f"u{i} = l{i}.var")
    if atoms:
        code.line("".join(f"a{j}, " for j in range(len(atoms)))
                  + "= rule.clause.atoms")
    for j, ((kept, substituted, _), atom) in enumerate(zip(form.atoms,
                                                          atoms)):
        if kept or substituted:
            code.line("".join(
                f"(_, v{j}_{k}), " if k in kept or k in substituted else "_, "
                for k in range(len(atom.terms))) + f"= a{j}.terms")
        code.line(f"b{j} = a{j}.bound")

    # the fixed fold, as the fold kernel would make it from no valuation
    folded = []
    for j, (kept, _, head_coeff) in enumerate(form.atoms if fixed else ()):
        if not kept and head_coeff is None:
            code.line(f"if b{j} <= 0: continue")  # the tuple stays None
            folded.append("None")
        elif head_coeff is None:
            folded.append(f"None if b{j} == inf else b{j}")
        else:
            folded.append(f"b{j}")
    watched = [f"u{i}" for i in form.kept_lits]
    for j, (kept, _, _) in enumerate(form.atoms):
        watched += [f"v{j}_{k}" for k in kept]
    row = ["h", "info.lo", "info.hi", "fixed" if fixed else "None",
           *watched, *[f"u{i}" for i in form.substituted_lits]]
    for j, ((_, substituted, _), atom) in enumerate(zip(form.atoms, atoms)):
        row.append(f"b{j}")
        for k in substituted:  # its least coeff * value, as least_products
            coeff = atom.terms[k][0]
            row += [f"v{j}_{k}", f"{coeff} * variables[v{j}_{k}].least_value()"
                    if coeff > 0 else f"{coeff} * variables[v{j}_{k}].hi"]
    if fixed:
        code.line(f"fixed = ({''.join(f + ', ' for f in folded)})")
    code.line("info = variables[h]")
    code.line(f"tuples[i] = r = ({''.join(f + ', ' for f in row)})")
    code.line("by_head[h].append(i)")
    for var, slot in zip(watched, slots):
        code.line(f"watchers[{var}].append((i, {slot}))")
    if fixed:
        code.line("idle[i] = requirement(r, fixed, template) is None")
    if dropping:
        code.line("kept.append(i)")
    code.close()
    code.line("return kept" if dropping else "return indices")
    code.close()


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
