"""Monotonicity analysis, rule validation, guess sets, and reducts.

A clause is *increasing* in a variable when raising that variable can only
help satisfy it, *decreasing* when raising can only hurt.  Rules must be
increasing in their head; every other rule-body variable must be decreasing
or absent.  The reduct of a program under a valuation substitutes values for
all standard and non-decreasing body occurrences, folds the constants, and
keeps what remains: a positive constraint program whose unique minimal model
the fixpoint module computes.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .program import (
    NEG_INF,
    POS_INF,
    Clause,
    FrozenRecord,
    LinearAtom,
    Program,
    Rule,
    Sort,
    VarKind,
    Variable,
    linear_sum,
)


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    NON_MONOTONE = "non-monotone"


def monotonicity(clause: Clause, var: int) -> Monotonicity:
    """Syntactic classification of ``var`` across all occurrences in ``clause``.

    Positive literals and positive coefficients are increasing, negative
    ones decreasing; mixed polarities are non-monotone, absence is constant.
    """
    up = down = False
    for lit in clause.lits:
        if lit.var == var:
            if lit.positive:
                up = True
            else:
                down = True
    for atom in clause.atoms:
        for coeff, v in atom.terms:
            if v == var:
                if coeff > 0:
                    up = True
                else:
                    down = True
    if up and down:
        return Monotonicity.NON_MONOTONE
    if up:
        return Monotonicity.INCREASING
    if down:
        return Monotonicity.DECREASING
    return Monotonicity.CONSTANT


class RuleViolation(enum.Enum):
    """Why a clause/head pair fails to be a rule."""

    HEAD_NOT_FOUNDED = "head is not a founded variable"
    HEAD_ABSENT = "head does not occur in the clause"
    HEAD_MULTIPLE_OCCURRENCES = "head occurs more than once"
    HEAD_NOT_INCREASING = "clause is not increasing in the head"

    def describe(self, head_name: str) -> str:
        return f"head '{head_name}': {self.value}"


def validate_rule(rule: Rule, variables) -> RuleViolation | None:
    """None when the rule is well-formed, else the first violation found."""
    head = rule.head
    if variables[head].kind is not VarKind.FOUNDED:
        return RuleViolation.HEAD_NOT_FOUNDED
    count = sum(1 for v in rule.clause.variables() if v == head)
    if count == 0:
        return RuleViolation.HEAD_ABSENT
    if count > 1:
        return RuleViolation.HEAD_MULTIPLE_OCCURRENCES
    if monotonicity(rule.clause, head) is not Monotonicity.INCREASING:
        return RuleViolation.HEAD_NOT_INCREASING
    return None


def rule_verdict(rule: Rule, variables) -> tuple:
    """``validate_rule``'s violation, or None, and the set of body variables
    the clause is non-monotone in.  Both read only the rule's shape
    (``Program.shapes``), so a shape passes when its first rule does."""
    return validate_rule(rule, variables), {
        var for var in set(rule.clause.variables()) if var != rule.head
        and monotonicity(rule.clause, var) is Monotonicity.NON_MONOTONE}


class ShapeForm(NamedTuple):
    """A rule's split into substituted and kept occurrences, by member
    position, so that it holds for every rule of the rule's shape.  Each
    atom is a triple: its kept term positions, the head's excluded; its
    substituted term positions; and the head's coefficient, or None when
    the head is not in it.  The reduct keeps the head in place, so it reads
    the kept positions with the head's included: ``reduct_lits``, and
    ``reduct_terms`` per atom."""

    substituted_lits: tuple  # literal positions
    kept_lits: tuple  # literal positions, the head's excluded
    atoms: tuple
    complementary: bool  # kept literals, so that no reduct keeps the rule
    reduct_lits: tuple  # literal positions, the head's included
    reduct_terms: tuple  # per atom, term positions, the head's included


def shape_form(rule: Rule, variables) -> ShapeForm:
    """Split the rule's members into substituted and kept occurrences.

    An occurrence is substituted when it is not the head and its variable is
    standard or not decreasing in the clause.  The split depends only on the
    program, so one form serves every valuation.
    """
    clause, head = rule.clause, rule.head
    substituted = {var for var in set(clause.variables()) if var != head and (
        variables[var].kind is VarKind.STANDARD
        or monotonicity(clause, var) is not Monotonicity.DECREASING)}
    lits, atoms = clause.lits, clause.atoms
    reduct_lits = tuple(i for i, lit in enumerate(lits)
                        if lit.var not in substituted)
    reduct_terms = tuple(tuple(i for i, (_, v) in enumerate(atom.terms)
                               if v not in substituted) for atom in atoms)
    return ShapeForm(
        tuple(i for i, lit in enumerate(lits) if lit.var in substituted),
        tuple(i for i in reduct_lits if lits[i].var != head),
        tuple((tuple(i for i in held if atom.terms[i][1] != head),
               tuple(i for i, (_, v) in enumerate(atom.terms)
                     if v in substituted),
               next((c for c, v in atom.terms if v == head), None))
              for atom, held in zip(atoms, reduct_terms)),
        is_tautology(Clause(tuple([lits[i] for i in reduct_lits])), ()),
        reduct_lits, reduct_terms)


def shape_forms(program: Program) -> list[ShapeForm]:
    """Each shape's ``shape_form``, by number, from its first rule."""
    return [shape_form(rule, program.variables)
            for rule in _first_rules(program)]


def _first_rules(program: Program) -> list[Rule]:
    """Each shape's first rule, by number."""
    shapes, rules = program.shapes, []
    first = 0
    for number in range(max(shapes, default=-1) + 1):
        first = shapes.index(number, first)  # shapes are numbered as first met
        rules.append(program.rules[first])
    return rules


def guess_set(program: Program) -> frozenset[int]:
    """Variables the stable-model search must branch on.

    All standard variables, plus every founded variable with at least one
    substituted occurrence: a non-head rule position where the clause is not
    decreasing in it.  Values of purely decreasing body variables never enter
    a reduct, so they need no guess.  Which positions are substituted is
    decided per rule shape (``shape_forms``), so only the rules of a shape
    with a substituted position are read.
    """
    guessed = {i for i, v in enumerate(program.variables)
               if v.kind is VarKind.STANDARD}
    forms = [form if form.substituted_lits or any(
        substituted for _, substituted, _ in form.atoms) else None
        for form in shape_forms(program)]
    if not any(forms):
        return frozenset(guessed)
    for rule, number in zip(program.rules, program.shapes):
        form = forms[number]
        if form is None:
            continue
        lits = rule.clause.lits
        for i in form.substituted_lits:
            guessed.add(lits[i].var)
        for (_, substituted, _), source in zip(form.atoms, rule.clause.atoms):
            for i in substituted:
                guessed.add(source.terms[i][1])
    return frozenset(guessed)


def is_tautology(clause: Clause, variables) -> bool:
    """Conservatively decide whether every in-domain valuation satisfies ``clause``.

    True when the clause holds a complementary literal pair, or an atom whose
    terms' least products (``least_products``) sum to at least its bound;
    any positive term on a founded integer, which bottoms out at -inf,
    blocks that argument.  Pre: clause is constant-folded.
    """
    positive = {lit.var for lit in clause.lits if lit.positive}
    negative = {lit.var for lit in clause.lits if not lit.positive}
    if positive & negative:
        return True
    for atom in clause.atoms:
        if sum(least_products(atom.terms, variables)) >= atom.bound:
            return True
    return False


def least_products(terms, variables) -> tuple:
    """Each term's least ``coeff * value`` over its variable's domain.

    Founded integers bottom out at -inf, where a negative coefficient
    pushes the product up, so such a term's least product sits at ``hi``.
    """
    return tuple(c * (variables[v].least_value() if c > 0 else variables[v].hi)
                 for c, v in terms)


@dataclass(init=False, repr=False, eq=False)
class PositiveCP(FrozenRecord):
    """A positive constraint program: head-tagged clauses over shared variables.

    Each clause is increasing in its head and decreasing in every other
    variable, so bounds propagation from the bottom reaches the unique
    minimal model.  ``origins`` maps each clause back to the source rule
    index it was folded from (None for hand-built programs).
    """

    variables: tuple[Variable, ...]
    rules: tuple[Rule, ...]
    origins: tuple = ()

    def origin_of(self, index: int):
        return self.origins[index] if index < len(self.origins) else None


def validate_positive_cp(pcp: PositiveCP) -> list[str]:
    """Issues breaking the positive-CP shape; empty list means well-formed."""
    issues = []
    for i, rule in enumerate(pcp.rules):
        violation = validate_rule(rule, pcp.variables)
        if violation is not None:
            issues.append(f"clause {i}: "
                          f"{violation.describe(pcp.variables[rule.head].name)}")
        for var in set(rule.clause.variables()) - {rule.head}:
            mono = monotonicity(rule.clause, var)
            if mono not in (Monotonicity.DECREASING, Monotonicity.CONSTANT):
                issues.append(f"clause {i}: not decreasing in "
                              f"'{pcp.variables[var].name}'")
    return issues


class ReductBuilder:
    """Builds explicit reducts of one program: the spec path, which
    ``check_stable`` runs and which search's leaf evaluation
    (``fixpoint.LeafEvaluator``) is tested against.

    Which occurrences are substituted depends only on the program, so one
    builder serves every valuation.  The split is made once per rule shape
    (``shape_forms``); each rule then folds the valuation into its own
    members by position.

    Whether the fold can change a rule or make it a tautology is decided
    once per shape too.  A term with a positive coefficient on a founded
    integer has least product -inf, and every other least product is
    finite, so an atom holding such a term is a tautology only at a -inf
    bound.  Signs, kinds and sorts are part of the shape, so the decision
    holds for every rule of it.  A rule asks ``is_tautology`` only when
    its shape's kept literals are complementary or a kept atom lacks such
    a term; otherwise a kept atom's bound at -inf, which no fold of a
    monotone body makes, is the test.  A shape with no substituted
    occurrence and such a term in every atom passes its rules through:
    the fold leaves each one as it is, so it enters the reduct as the
    program's own object.

    A reduct clause keeps some of its shape's kept members, the head among
    them, and the fold changes only their atoms' bounds.  ``shape_clauses``
    holds, as clause ``i``, shape ``i``'s first rule with all of its kept
    members: when it is a positive program (``validate_positive_cp``), so
    is every reduct.
    """

    def __init__(self, program: Program):
        self.program = program
        variables = program.variables
        self._forms = forms = shape_forms(program)
        firsts = _first_rules(program)
        self.shape_clauses = PositiveCP(variables, tuple(
            _kept_members(form, first) for form, first in zip(forms, firsts)))
        # Per shape: whether its folded rules need ``is_tautology``.
        self._checks = [_tautology_check(form, first, variables)
                        for form, first in zip(forms, firsts)]

    def build(self, valuation) -> PositiveCP:
        """Fold ``valuation`` into every rule and collect the surviving clauses.

        ``valuation`` must cover all substituted occurrences (the guess set
        suffices; totality is not required).
        """
        try:
            return self._fold(valuation)
        except KeyError as missing:
            name = self.program.variables[missing.args[0]].name
            raise ValueError(f"reduct needs a value for '{name}'") from None

    def _fold(self, valuation):
        program = self.program
        variables = program.variables
        forms, checks = self._forms, self._checks
        out_rules = []
        origins = []
        for index, (rule, number) in enumerate(zip(program.rules,
                                                   program.shapes)):
            form = forms[number]
            clause = rule.clause
            lits = clause.lits
            satisfied = False
            for i in form.substituted_lits:
                if valuation[lits[i].var] == lits[i].positive:
                    satisfied = True
                    break
            atoms = []
            rebuilt = False  # an atom lost an occurrence to the fold
            # without ``check``: whether a kept atom's bound fell to -inf
            tautology = False
            if not satisfied:
                for (_, substituted, head_coeff), held, atom in zip(
                        form.atoms, form.reduct_terms, clause.atoms):
                    terms, bound = atom.terms, atom.bound
                    if substituted:
                        # Substituted occurrences are standard (finite) or
                        # increasing, so a bottom value among them makes
                        # the folded bound POS_INF.
                        bound -= linear_sum([terms[i] for i in substituted],
                                            valuation)
                    if not held:
                        if bound <= 0:
                            satisfied = True
                            break
                        continue
                    if bound == POS_INF and head_coeff is None:
                        continue  # unsatisfiable member, deleted
                    if len(held) < len(terms):
                        atom = LinearAtom(tuple([terms[i] for i in held]),
                                          bound)
                        rebuilt = True
                    tautology = tautology or bound == NEG_INF
                    atoms.append(atom)
            if satisfied:
                continue
            kept = form.reduct_lits
            if (rebuilt or len(atoms) < len(clause.atoms)
                    or len(kept) < len(lits)):
                rule = Rule(Clause(tuple([lits[i] for i in kept]),
                                   tuple(atoms)), rule.head)
            # else the fold left the rule as it is
            if checks[number]:
                tautology = is_tautology(rule.clause, variables)
            if tautology:
                continue
            out_rules.append(rule)
            origins.append(index)
        return PositiveCP(variables, tuple(out_rules), tuple(origins))


def _tautology_check(form: ShapeForm, rule: Rule, variables) -> bool:
    """For ``ReductBuilder``: whether a folded rule of ``rule``'s shape
    needs ``is_tautology``: whether its kept literals are complementary or
    a kept atom lacks a term whose least product is -inf."""
    return form.complementary or any(
        held and not any(atom.terms[i][0] > 0 and variables[
            atom.terms[i][1]].least_value() == NEG_INF for i in held)
        for held, atom in zip(form.reduct_terms, rule.clause.atoms))


def _kept_members(form: ShapeForm, rule: Rule) -> Rule:
    """``rule`` with its substituted occurrences left out, bounds as they
    are; an atom without a kept term goes too."""
    lits = rule.clause.lits
    return Rule(Clause(tuple([lits[i] for i in form.reduct_lits]), tuple(
        LinearAtom(tuple([atom.terms[i] for i in held]), atom.bound)
        for held, atom in zip(form.reduct_terms, rule.clause.atoms) if held)),
        rule.head)


def build_reduct(program: Program, valuation) -> PositiveCP:
    """Reduct of ``program`` under ``valuation``.

    Substitutes the value of every non-head occurrence that is standard or
    not decreasing, folds constants (a satisfied substituted member makes the
    clause a tautology, a falsified one is deleted), and drops tautologies.
    Depends only on the valuation's restriction to substituted variables.
    """
    return ReductBuilder(program).build(valuation)
