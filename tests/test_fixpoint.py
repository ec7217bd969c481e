"""Bounds propagation: requirements, minimal models, and their invariants."""

import itertools

import pytest

from bfasp import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    Literal,
    Monotonicity,
    PositiveCP,
    Program,
    PropagationLevel,
    Rule,
    Search,
    SearchConfig,
    Sort,
    Truth,
    VarKind,
    Variable,
    build_reduct,
    clause_requirement,
    eval_clause,
    ground,
    guess_set,
    minimal_model,
    monotonicity,
    parse_data,
    parse_model,
    satisfied_at,
    validate_positive_cp,
    validate_program,
    validate_rule,
)
from bfasp.codegen import _compiled
from bfasp.fixpoint import LeafEvaluator

from conftest import MODELS, THETA_PRIME, build_example_one, valuation_of
from oracles import (
    distance_cp,
    least_solution,
    random_digraph,
    random_mixed_program,
    random_positive_cp,
    random_shaped_program,
    reference_minimal_model,
    reference_requirement,
)


def int_var(name, lo, hi, founded=True):
    kind = VarKind.FOUNDED if founded else VarKind.STANDARD
    return Variable(name, kind, Sort.INT, lo, hi)


def chain_cp(*links):
    """d0 >= 0 plus d_{i+1} >= d_i - w links, as a positive program."""
    variables = tuple(int_var(f"d{i}", -100, 0)
                      for i in range(len(links) + 1))
    rules = [Rule(Clause(atoms=(LinearAtom(((1, 0),), 0),)), 0)]
    for i, w in enumerate(links):
        atom = LinearAtom(((1, i + 1), (-1, i)), -w)
        rules.append(Rule(Clause(atoms=(atom,)), i + 1))
    return PositiveCP(variables, tuple(rules))


# -- clause_requirement ------------------------------------------------------


def test_requirement_bool_head():
    variables = (Variable("p", VarKind.FOUNDED, Sort.BOOL),
                 Variable("q", VarKind.FOUNDED, Sort.BOOL))
    rule = Rule(Clause(lits=(Literal(0), Literal(1, False))), 0)
    assert clause_requirement(rule, {0: False, 1: False}, variables) is False
    assert clause_requirement(rule, {0: False, 1: True}, variables) is True


def test_requirement_int_head_ceiling():
    variables = (int_var("h", -10, 10), int_var("u", -10, 10))
    rule = Rule(Clause(atoms=(LinearAtom(((2, 0), (-1, 1)), 5),)), 0)
    # 2h - u >= 5 at u = 1 needs h >= ceil(6 / 2) = 3
    assert clause_requirement(rule, {0: NEG_INF, 1: 1}, variables) == 3
    # at u = 2 the slack is -2, h >= ceil(7 / 2) = 4
    assert clause_requirement(rule, {0: NEG_INF, 1: 2}, variables) == 4


def test_requirement_vanishes_when_another_member_carries():
    variables = (int_var("h", 0, 9), Variable("p", VarKind.FOUNDED, Sort.BOOL))
    rule = Rule(Clause(lits=(Literal(1, False),),
                       atoms=(LinearAtom(((1, 0),), 7),)), 0)
    assert clause_requirement(rule, {0: NEG_INF, 1: False},
                              variables) == NEG_INF
    assert clause_requirement(rule, {0: NEG_INF, 1: True}, variables) == 7


def test_requirement_from_bottomed_decreasing_term_is_bottom():
    variables = (int_var("h", 0, 9), int_var("u", 0, 9))
    rule = Rule(Clause(atoms=(LinearAtom(((1, 0), (-1, 1)), 4),)), 0)
    assert clause_requirement(rule, {0: NEG_INF, 1: NEG_INF},
                              variables) == NEG_INF
    assert clause_requirement(rule, {0: NEG_INF, 1: 0}, variables) == 4


def test_requirement_infinite_bound_is_unmeetable():
    variables = (int_var("h", 0, 9),)
    rule = Rule(Clause(atoms=(LinearAtom(((1, 0),), POS_INF),)), 0)
    assert clause_requirement(rule, {0: NEG_INF}, variables) == POS_INF


# Hand-built rules that validation would refuse, as (name, rule, bounds,
# the requirement's repr) over h, z, w (founded integers), p and g
# (founded Booleans).  The values are clause_requirement's as it was
# first written: a rewrite must give them on every input.
H, Z, W, P, G = range(5)
REQUIREMENT_TABLE = [
    ("head in two atoms: the last wins",
     Rule(Clause(atoms=(LinearAtom(((1, H),), 9),
                        LinearAtom(((2, H), (-1, Z)), 5))), H),
     {H: NEG_INF, Z: 1}, "3"),
    ("head in two atoms, the other order",
     Rule(Clause(atoms=(LinearAtom(((2, H), (-1, Z)), 5),
                        LinearAtom(((1, H),), 9))), H),
     {H: NEG_INF, Z: 1}, "9"),
    ("int head only as a literal",
     Rule(Clause(lits=(Literal(H),), atoms=(LinearAtom(((1, Z),), 5),)), H),
     {H: NEG_INF, Z: 1}, "inf"),
    ("int head only as a literal, another atom holds",
     Rule(Clause(lits=(Literal(H),), atoms=(LinearAtom(((1, Z),), 5),)), H),
     {H: NEG_INF, Z: 5}, "-inf"),
    ("repeated head term: the last coefficient divides",
     Rule(Clause(atoms=(LinearAtom(((1, H), (2, H)), 5),)), H),
     {H: NEG_INF}, "3"),
    ("repeated head term around a rest term",
     Rule(Clause(atoms=(LinearAtom(((2, H), (-1, Z), (1, H)), 5),)), H),
     {H: 4, Z: 2}, "7"),
    ("+inf sum against a +inf bound does not hold",
     Rule(Clause(atoms=(LinearAtom(((-1, Z),), POS_INF),
                        LinearAtom(((1, H),), 2))), H),
     {H: NEG_INF, Z: NEG_INF}, "2"),
    ("+inf rest against a +inf bound in the head atom",
     Rule(Clause(atoms=(LinearAtom(((1, H), (-1, Z)), POS_INF),)), H),
     {H: NEG_INF, Z: NEG_INF}, "inf"),
    ("mixed (nan) sum does not hold",
     Rule(Clause(atoms=(LinearAtom(((1, Z), (-1, W)), 0),
                        LinearAtom(((1, H),), -3))), H),
     {H: NEG_INF, Z: NEG_INF, W: NEG_INF}, "-3"),
    ("mixed (nan) rest in the head atom",
     Rule(Clause(atoms=(LinearAtom(((1, H), (1, Z), (-1, W)), 0),)), H),
     {H: NEG_INF, Z: NEG_INF, W: NEG_INF}, "inf"),
    ("-inf bound in the head atom owes nothing",
     Rule(Clause(atoms=(LinearAtom(((1, H), (-1, Z)), NEG_INF),)), H),
     {H: NEG_INF, Z: 3}, "-inf"),
    ("finite float bound in the head atom",
     Rule(Clause(atoms=(LinearAtom(((1, H),), 2.5),)), H),
     {H: NEG_INF}, "inf"),
    ("negative head coefficient",
     Rule(Clause(atoms=(LinearAtom(((-2, H),), 5),)), H),
     {H: NEG_INF}, "-2"),
    ("Booleans count 0/1 in the rest",
     Rule(Clause(atoms=(LinearAtom(((1, H), (1, P)), 3),)), H),
     {H: NEG_INF, P: True}, "2"),
    ("a true literal carries an int head",
     Rule(Clause(lits=(Literal(P, False),), atoms=(LinearAtom(((1, H),), 3),)),
          H),
     {H: NEG_INF, P: False}, "-inf"),
    ("Boolean head with atoms, none holding",
     Rule(Clause(lits=(Literal(G),), atoms=(LinearAtom(((1, Z),), 3),
                                          LinearAtom(((-1, W),), 0))), G),
     {G: False, Z: 1, W: 2}, "True"),
    ("Boolean head with atoms, one holding",
     Rule(Clause(lits=(Literal(G),), atoms=(LinearAtom(((1, Z),), 3),
                                          LinearAtom(((-1, W),), 0))), G),
     {G: False, Z: 1, W: NEG_INF}, "False"),
    ("Boolean head in an atom",
     Rule(Clause(atoms=(LinearAtom(((1, G),), 1),)), G),
     {G: False}, "True"),
]


@pytest.mark.parametrize("name, rule, bounds, want", REQUIREMENT_TABLE,
                         ids=[row[0] for row in REQUIREMENT_TABLE])
def test_requirement_table_of_unvalidated_rules(name, rule, bounds, want):
    variables = (int_var("h", -10, 10), int_var("z", -10, 10),
                 int_var("w", -10, 10),
                 Variable("p", VarKind.FOUNDED, Sort.BOOL),
                 Variable("g", VarKind.FOUNDED, Sort.BOOL))
    assert repr(clause_requirement(rule, bounds, variables)) == want


# -- minimal models: pinned cases ---------------------------------------------


def test_walkthrough_fixpoint_sequence_is_stable_under_theta_prime():
    program = build_example_one()
    reduct = build_reduct(program, valuation_of(program, **THETA_PRIME))
    seen = []
    result = minimal_model(
        reduct, on_update=lambda var, old, new, idx: seen.append(
            (program.name(var), old, new, idx)))
    assert result.ok
    assert seen == [("a", NEG_INF, 0, 0), ("b", NEG_INF, 0, 1),
                    ("a", 0, 3, 2)]
    assert result.model == valuation_of(program, a=3, b=0, x=False, y=False)


def test_distance_chain_reaches_negated_path_lengths():
    result = minimal_model(chain_cp(20, 30))
    assert result.ok
    assert result.model == {0: 0, 1: -20, 2: -50}


def test_requirement_below_lo_clamps_up_to_lo():
    variables = (int_var("a", 5, 10),)
    pcp = PositiveCP(variables,
                     (Rule(Clause(atoms=(LinearAtom(((1, 0),), 0),)), 0),))
    result = minimal_model(pcp)
    assert result.ok and result.model == {0: 5}


def test_requirement_above_hi_is_unsat_with_clause_index():
    variables = (int_var("a", 0, 3),)
    pcp = PositiveCP(variables, (
        Rule(Clause(atoms=(LinearAtom(((1, 0),), 1),)), 0),
        Rule(Clause(atoms=(LinearAtom(((1, 0),), 4),)), 0),
    ))
    result = minimal_model(pcp)
    assert not result.ok
    assert result.unsat_index == 1
    assert result.model is None


def test_cyclic_ge_rules_rest_at_bottom():
    variables = (int_var("a", 0, 10), int_var("b", 0, 10))
    pcp = PositiveCP(variables, (
        Rule(Clause(atoms=(LinearAtom(((1, 0), (-1, 1)), 1),)), 0),
        Rule(Clause(atoms=(LinearAtom(((1, 1), (-1, 0)), 1),)), 1),
    ))
    result = minimal_model(pcp)
    assert result.ok
    assert result.model == {0: NEG_INF, 1: NEG_INF}


def test_standard_variables_in_clauses_sit_at_their_lower_bound():
    variables = (int_var("h", 0, 9), int_var("s", 3, 7, founded=False))
    pcp = PositiveCP(variables,
                     (Rule(Clause(atoms=(LinearAtom(((1, 0), (-1, 1)), 0),)),
                           0),))
    result = minimal_model(pcp)
    assert result.ok and result.model == {0: 3, 1: 3}


def test_validate_flag_rejects_non_positive_input():
    variables = (int_var("h", 0, 9), int_var("u", 0, 9))
    increasing_body = PositiveCP(
        variables,
        (Rule(Clause(atoms=(LinearAtom(((1, 0), (1, 1)), 0),)), 0),))
    assert validate_positive_cp(increasing_body) == [
        "clause 0: not decreasing in 'u'"]
    # the fixpoint does not check the shape; the run still terminates, the
    # increasing body term parks at the bottom and makes the requirement
    # unmeetable
    assert not minimal_model(increasing_body).ok


def test_validate_flag_names_a_faulty_head():
    variables = (int_var("h", 0, 9), int_var("s", 0, 9, founded=False))
    pcp = PositiveCP(variables, (
        Rule(Clause(atoms=(LinearAtom(((1, 1),), 1),)), 1),
        Rule(Clause(atoms=(LinearAtom(((-1, 0),), -3),)), 0),
    ))
    assert validate_positive_cp(pcp) == [
        "clause 0: head 's': head is not a founded variable",
        "clause 1: head 'h': clause is not increasing in the head"]


# -- head-aware satisfaction ----------------------------------------------------


def test_satisfied_at_bottom_where_plain_evaluation_is_undefined():
    variables = (int_var("a", 0, 10), int_var("b", 0, 10))
    rule = Rule(Clause(atoms=(LinearAtom(((1, 0), (-1, 1)), 1),)), 0)
    both_bottom = {0: NEG_INF, 1: NEG_INF}
    assert eval_clause(rule.clause, both_bottom) is Truth.UNDEFINED
    assert satisfied_at(rule, both_bottom, variables)
    assert not satisfied_at(rule, {0: NEG_INF, 1: 0}, variables)
    assert satisfied_at(rule, {0: 1, 1: 0}, variables)


def test_satisfied_at_fails_where_no_head_value_meets_the_rule():
    # an increasing body term at the bottom makes the residual +inf, so
    # even the head's hi falls short
    variables = (int_var("h", 0, 9), int_var("u", 0, 9))
    rule = Rule(Clause(atoms=(LinearAtom(((1, 0), (1, 1)), 0),)), 0)
    at_hi = {0: 9, 1: NEG_INF}
    assert clause_requirement(rule, at_hi, variables) == POS_INF
    assert reference_requirement(rule, at_hi, variables) == POS_INF
    assert not satisfied_at(rule, at_hi, variables)
    assert satisfied_at(rule, {0: 0, 1: 0}, variables)


def test_minimal_models_pass_their_own_rules(rng):
    for _ in range(80):
        pcp = random_positive_cp(rng)
        result = minimal_model(pcp)
        if result.ok:
            assert all(satisfied_at(rule, result.model, pcp.variables)
                       for rule in pcp.rules)


# -- invariants ------------------------------------------------------------------


def test_fixpoint_agrees_with_exhaustive_enumeration(rng):
    for _ in range(150):
        pcp = random_positive_cp(rng)
        reference = least_solution(pcp)
        result = minimal_model(pcp)
        if reference is None:
            assert not result.ok
        else:
            assert result.ok and result.model == reference


def test_fixpoint_is_order_independent(rng):
    """Any permutation of the clauses reaches the same least fixpoint."""
    for _ in range(12):
        pcp = random_positive_cp(rng, max_vars=4, max_rules=6)
        baseline = minimal_model(pcp)
        for _ in range(50):
            order = list(pcp.rules)
            rng.shuffle(order)
            shuffled = PositiveCP(pcp.variables, tuple(order))
            result = minimal_model(shuffled)
            assert result.ok == baseline.ok
            if result.ok:
                assert result.model == baseline.model


def test_updates_only_ever_raise(rng):
    for _ in range(40):
        pcp = random_positive_cp(rng)
        raised = []
        minimal_model(pcp, on_update=lambda var, old, new, idx:
                      raised.append(new > old))
        assert all(raised)


def test_adding_rules_never_lowers_the_model(rng):
    """The minimal model grows pointwise as clauses are appended."""
    for _ in range(40):
        pcp = random_positive_cp(rng, max_rules=5)
        prefix = minimal_model(PositiveCP(pcp.variables, pcp.rules[:-1]))
        full = minimal_model(pcp)
        if not (prefix.ok and full.ok):
            continue
        for var, value in prefix.model.items():
            assert not full.model[var] < value


# -- minimal models against the loop as first written ---------------------------


def with_unsat_rule(rand, pcp: PositiveCP) -> PositiveCP:
    """``pcp`` with a rule that asks one integer variable for more than its
    hi, put at a random place, so that the fixpoint stops there, or as it
    is when it has no integer variable."""
    ints = [i for i, v in enumerate(pcp.variables) if v.sort is Sort.INT]
    if not ints:
        return pcp
    var = rand.choice(ints)
    rules = list(pcp.rules)
    rules.insert(rand.randint(0, len(rules)), Rule(Clause(atoms=(LinearAtom(
        ((1, var),), pcp.variables[var].hi + 1),)), var))
    return PositiveCP(pcp.variables, tuple(rules))


def test_minimal_model_equals_the_loop_as_first_written(rng):
    """Model, unsat index and every ``on_update`` call, in order, on random
    positive programs, on distance programs of random digraphs, and on
    programs with an unsatisfiable rule."""
    programs = [random_positive_cp(rng) for _ in range(300)]
    for _ in range(200):
        n, edges = random_digraph(rng, max_nodes=30)
        programs.append(distance_cp(n, edges, rng.randint(1, n)))
    programs += [with_unsat_rule(rng, random_positive_cp(rng))
                 for _ in range(200)]
    unsat = raises = 0
    for pcp in programs:
        got, want = [], []
        result = minimal_model(pcp, on_update=lambda *raise_: got.append(
            raise_))
        reference = reference_minimal_model(
            pcp, on_update=lambda *raise_: want.append(raise_))
        assert typed(result.model) == typed(reference.model)
        assert result.unsat_index == reference.unsat_index
        assert repr(got) == repr(want)
        unsat += not result.ok
        raises += len(got)
    assert unsat > 250 and raises > 1200


def test_requirement_equals_the_requirement_as_first_written(rng):
    """On rules that validation may refuse (repeated and complementary
    heads, non-monotone bodies, constant atoms, infinite bounds) under
    random bounds, the bottom among them."""
    outcomes = set()
    for _ in range(300):
        program = random_shaped_program(rng)
        for program in (program, with_infinite_bounds(rng, program)):
            variables = program.variables
            for rule in program.rules:
                for _ in range(3):
                    bounds = [random_value(rng, info) for info in variables]
                    got = clause_requirement(rule, bounds, variables)
                    want = reference_requirement(rule, bounds, variables)
                    assert repr(got) == repr(want)
                    outcomes.add(repr(got) if isinstance(got, (bool, float))
                                 else type(got).__name__)
    assert outcomes == {"True", "False", "-inf", "inf", "int"}


# -- the compiled leaf evaluator against the explicit reduct ---------------------


def with_substituted_terms(rand, pcp: PositiveCP) -> Program:
    """A positive program turned mixed, with several terms per atom.

    Some variables that head no rule become standard, and atoms gain a
    term on a variable not yet in the clause.  Either way the occurrence is
    substituted, so kept, substituted and head terms share one atom, and a
    body atom whose substituted term sits at -inf is deleted.
    """
    heads = {rule.head for rule in pcp.rules}
    variables = tuple(
        Variable(v.name, VarKind.STANDARD, v.sort, v.lo, v.hi)
        if i not in heads and rand.random() < 0.5 else v
        for i, v in enumerate(pcp.variables))
    ints = [i for i, v in enumerate(variables) if v.sort is Sort.INT]
    rules = []
    for rule in pcp.rules:
        unused = [v for v in ints if v not in set(rule.clause.variables())]
        rand.shuffle(unused)
        atoms = list(rule.clause.atoms)
        for k, atom in enumerate(atoms):
            if unused and rand.random() < 0.7:
                extra = (rand.choice((-2, -1, 1, 2)), unused.pop())
                atoms[k] = LinearAtom(atom.terms + (extra,), atom.bound)
        rules.append(Rule(Clause(rule.clause.lits, tuple(atoms)), rule.head))
    return Program(variables, rules=tuple(rules))


def guess_domains(program: Program):
    """The guess variables in search order, and the values each takes."""
    guess = sorted(guess_set(program))
    domains = []
    for var in guess:
        info = program.variables[var]
        if info.sort is Sort.BOOL:
            domains.append((False, True))
        elif info.is_founded:
            domains.append((NEG_INF, *range(info.lo, info.hi + 1)))
        else:
            domains.append(range(info.lo, info.hi + 1))
    return guess, domains


def guess_assignments(program: Program):
    """Every assignment of the guess set, as the search reaches its leaves."""
    guess, domains = guess_domains(program)
    for combo in itertools.product(*domains):
        yield dict(zip(guess, combo))


def guess_prefixes(program: Program):
    """Every assignment of a prefix of the guess order, the empty one too."""
    guess, domains = guess_domains(program)
    for k in range(len(guess) + 1):
        for combo in itertools.product(*domains[:k]):
            yield dict(zip(guess, combo))


def typed(model):
    """A model with each value's type, so that False and 0 differ."""
    return None if model is None else {
        var: (type(value), value) for var, value in model.items()}


def differential_programs(rng):
    for _ in range(1000):
        yield random_mixed_program(rng, max_vars=5)
    for _ in range(300):
        pcp = random_positive_cp(rng)
        yield Program(pcp.variables, rules=pcp.rules)
    for _ in range(300):
        program = with_substituted_terms(rng, random_positive_cp(rng))
        if validate_program(program).ok:
            yield program


def test_leaf_evaluator_matches_the_explicit_reduct(rng):
    """Models, unsat rules and update sequences, on every guess assignment.

    The spec path's indices number the reduct's clauses; mapped through
    origin_of they must name the rules the evaluator reports.
    """
    leaves = unsat = 0
    for program in differential_programs(rng):
        evaluator = LeafEvaluator(program)
        for assignment in guess_assignments(program):
            reduct = build_reduct(program, assignment)
            spec_updates, updates = [], []
            spec = minimal_model(reduct, on_update=lambda v, old, new, i:
                                 spec_updates.append(
                                     (v, old, new, reduct.origin_of(i))))
            got = evaluator.minimal_model(
                assignment, on_update=lambda *update: updates.append(update))
            assert got.ok == spec.ok
            assert typed(got.model) == typed(spec.model)
            if not spec.ok:
                assert got.unsat_index == reduct.origin_of(spec.unsat_index)
            assert updates == spec_updates
            leaves += 1
            unsat += not spec.ok
    # the comparison covers both outcomes, many times over
    assert leaves > 6000 and unsat > 500


def substituted_by_rule(rule: Rule, variables) -> set:
    """The rule's substituted variables, classified on their own: each
    non-head variable that is standard or not decreasing in the clause."""
    clause = rule.clause
    return {var for var in set(clause.variables()) if var != rule.head and (
        variables[var].kind is VarKind.STANDARD
        or monotonicity(clause, var) is not Monotonicity.DECREASING)}


def per_rule_compile(rule: Rule, variables):
    """One rule's plain tuple, with its variables classified on their own,
    or None when no reduct keeps it.

    Complementary kept literals, or constant atoms that satisfy the rule,
    keep it out of every reduct.  The layout is the evaluator's: head, lo,
    hi, the fixed fold (when no atom has a substituted term), the kept
    non-head variables of the literals and then of each atom, the
    substituted literals' variables, and per atom its bound followed by
    each substituted term's variable and least ``coeff * value``.
    """
    head, clause = rule.head, rule.clause
    substituted = substituted_by_rule(rule, variables)
    kept_lits = {(lit.var, lit.positive) for lit in clause.lits
                 if lit.var not in substituted}
    if len({var for var, _ in kept_lits}) < len(kept_lits):
        return None  # complementary kept literals
    info = variables[head]
    row = [head, info.lo, info.hi, None]
    row += [var for var, _ in kept_occurrences(rule, substituted)]
    row += [lit.var for lit in clause.lits if lit.var in substituted]
    for atom in clause.atoms:
        row.append(atom.bound)
        for c, v in atom.terms:
            if v in substituted:
                row += (v, c * (variables[v].least_value() if c > 0
                                else variables[v].hi))
    if not any(v in substituted for atom in clause.atoms
               for _, v in atom.terms):
        fold = []
        for atom in clause.atoms:
            if not atom.terms:
                if atom.bound <= 0:
                    return None  # a constant member satisfies it
                fold.append(None)
            elif atom.bound == POS_INF and all(v != head
                                               for _, v in atom.terms):
                fold.append(None)  # falsified and deleted
            else:
                fold.append(atom.bound)
        row[3] = tuple(fold)
    return tuple(row)


def kept_occurrences(rule: Rule, substituted) -> list:
    """(variable, watch slot) of each kept non-head occurrence: the
    literals' first, with slot None, then each atom's, with its index."""
    head, clause = rule.head, rule.clause
    kept = [(lit.var, None) for lit in clause.lits
            if lit.var != head and lit.var not in substituted]
    for slot, atom in enumerate(clause.atoms):
        kept += [(v, slot) for _, v in atom.terms
                 if v != head and v not in substituted]
    return kept


def per_rule_state(program: Program):
    """The evaluator's compiled state, from a compile of each rule on its
    own: the plain tuples, the idle marks, the watch lists and the rules by
    head.  A rule with a fixed fold is idle when its reduct's
    clause_requirement asks nothing with every variable at the bottom."""
    variables = program.variables
    bottom = [v.least_value() if v.is_founded else None for v in variables]
    rules = [per_rule_compile(rule, variables) for rule in program.rules]
    watchers = [[] for _ in variables]
    by_head = [[] for _ in variables]
    idle = []
    for index, (rule, compiled) in enumerate(zip(program.rules, rules)):
        idle.append(False)
        if compiled is None:
            continue
        by_head[rule.head].append(index)
        substituted = substituted_by_rule(rule, variables)
        for var, slot in kept_occurrences(rule, substituted):
            watchers[var].append((index, slot))
        if compiled[3] is not None:
            lits = rule.clause.lits
            reduct = Rule(Clause(
                tuple(lit for lit in lits if lit.var not in substituted),
                tuple(atom for atom, bound in zip(rule.clause.atoms,
                                                  compiled[3])
                      if bound is not None)), rule.head)
            required = clause_requirement(reduct, bottom, variables)
            idle[-1] = required is False or required == NEG_INF
    return rules, idle, watchers, by_head


def per_rule_guess_set(program: Program) -> frozenset:
    """guess_set with every rule's variables classified on their own."""
    guessed = {i for i, v in enumerate(program.variables)
               if v.kind is VarKind.STANDARD}
    for rule in program.rules:
        for var in set(rule.clause.variables()):
            if var != rule.head and monotonicity(rule.clause, var) in (
                    Monotonicity.INCREASING, Monotonicity.NON_MONOTONE):
                guessed.add(var)
    return frozenset(guessed)


def test_shape_compiled_state_equals_a_per_rule_compile(rng):
    """The evaluator compiles one leaf form per rule shape and instantiates
    it per rule; that must give, rule by rule, the state a compile of each
    rule on its own gives, and guess_set must read the same guesses from
    the shapes.  repr compares the types too (True is not 1)."""
    rules = shared = self_loops = complementary = dropped = kept_apart = 0
    domains_apart = guessed = 0
    for _ in range(400):
        program = random_shaped_program(rng)
        evaluator = LeafEvaluator(program)
        got = (evaluator._rules, evaluator._idle, evaluator._watchers,
               evaluator._by_head)
        assert repr(got) == repr(per_rule_state(program))
        assert guess_set(program) == per_rule_guess_set(program)
        numbers = program.shapes
        rules += len(numbers)
        shared += len(numbers) - len(set(numbers))
        for rule, compiled in zip(program.rules, evaluator._rules):
            occurrences = [*rule.clause.variables()]
            self_loops += len(set(occurrences)) < len(occurrences)
            signs = {lit.positive for lit in rule.clause.lits
                     if lit.var == rule.head}
            complementary += len(signs) == 2
            dropped += compiled is None and len(signs) < 2
        # shapes whose rules differ in whether a constant drops them, and
        # in their heads' domains
        drops, domains = {}, {}
        for number, compiled in zip(numbers, evaluator._rules):
            drops.setdefault(number, set()).add(compiled is None)
            if compiled is not None:
                domains.setdefault(number, set()).add(compiled[1:3])
        kept_apart += sum(len(seen) > 1 for seen in drops.values())
        domains_apart += sum(len(seen) > 1 for seen in domains.values())
        guessed += sum(program.variables[var].is_founded
                       for var in guess_set(program))
    # shapes repeat, and the special cases are all met many times
    assert shared > rules // 2
    assert self_loops > 500 and complementary > 200
    assert dropped > 200 and kept_apart > 30 and domains_apart > 100
    assert guessed > 300


def test_a_second_data_file_sets_up_with_the_compiled_kernels():
    """A shape's set-up, fold and requirement kernels hold its layout
    alone, never a rule's variables or bounds: a Search over a second data
    file of one model compiles nothing new."""
    def search(data: str):
        model = parse_model((MODELS / "mcds_core.bfz").read_text())
        program = ground(model, parse_data((MODELS / data).read_text()),
                         founded_default=(-200, 0))
        before = _compiled.cache_info()
        Search(program)
        after = _compiled.cache_info()
        return after.misses - before.misses, after.hits - before.hits
    search("path4.bfd")
    misses, hits = search("cycle8.bfd")
    assert misses == 0 and hits > 0


def with_infinite_bounds(rand, program: Program) -> Program:
    """``program`` with about one atom bound in three at POS_INF or
    NEG_INF; mostly NEG_INF where a term rises, so that a founded term at
    the bottom folds the bound to nan.  Bounds are not part of a shape, so
    the shapes stay."""
    def infinite(atom):
        if any(c > 0 for c, _ in atom.terms) and rand.random() < 0.75:
            return NEG_INF
        return rand.choice((POS_INF, NEG_INF))

    rules = tuple(Rule(Clause(rule.clause.lits, tuple(
        LinearAtom(atom.terms, infinite(atom)) if rand.random() < 1 / 3
        else atom for atom in rule.clause.atoms)), rule.head)
        for rule in program.rules)
    return Program(program.variables, rules=rules)


def kernel_programs(rng):
    """Shaped programs (kept literals, Boolean heads, multi-term atoms,
    self-loops) and positive ones with substituted terms and heads with
    coefficient 2, each also with infinite atom bounds."""
    for _ in range(100):
        for program in (random_shaped_program(rng), with_substituted_terms(
                rng, random_positive_cp(rng))):
            yield program
            yield with_infinite_bounds(rng, program)


def random_value(rand, info):
    """A value of ``info``'s domain; a founded integer's bottom one time
    in three, since infinite bounds and nan folds start there."""
    if info.sort is Sort.BOOL:
        return rand.random() < 0.5
    if info.is_founded and rand.random() < 1 / 3:
        return NEG_INF
    return rand.randint(info.lo, info.hi)


def least_completion(rule: Rule, partial, variables, substituted):
    """``partial`` completed for ``rule``: each unassigned substituted
    variable at the value that puts its occurrences at their least, as
    the fold takes them (a literal false, a term at its least
    ``coeff * value``).  None when such a variable occurs with both
    signs, so that no one value does."""
    signs = {}
    for lit in rule.clause.lits:
        signs.setdefault(lit.var, set()).add(lit.positive)
    for atom in rule.clause.atoms:
        for coeff, var in atom.terms:
            signs.setdefault(var, set()).add(coeff > 0)
    completion = dict(partial)
    for var in substituted - set(partial):
        if len(signs[var]) > 1:
            return None
        up = signs[var].pop()
        info = variables[var]
        if info.sort is Sort.BOOL:
            completion[var] = not up
        else:
            completion[var] = info.least_value() if up else info.hi
    return completion


def test_every_kernel_equals_clause_requirement_on_the_reduct(rng):
    """Each shape's generated fold, on total and partial valuations,
    against the rule that build_reduct makes (its atoms' bounds, nan
    included); and its requirement, under random bounds, against
    clause_requirement of that rule, which owes nothing when it returns
    False or NEG_INF.  A rule the reduct drops as a tautology must owe
    nothing at every bound.  The kernels are shared within a shape."""
    compared = partial_folds = nan_folds = dropped = tautologies = 0
    outcomes = {}
    for program in kernel_programs(rng):
        variables = program.variables
        evaluator = LeafEvaluator(program)
        kernels = {id(f) for f in evaluator._requirement_of if f}
        assert len(kernels) <= len(set(program.shapes))
        valuations = [{var: random_value(rng, info)
                       for var, info in enumerate(variables)}
                      for _ in range(4)]
        valuations += [{var: value for var, value in valuation.items()
                        if rng.random() < 0.5} for valuation in valuations]
        for valuation in valuations:
            folds = [None] * len(program.rules)
            for fold, indices in evaluator._whole.batches:
                fold(indices, evaluator._rules, valuation, folds)
            for index, rule in enumerate(program.rules):
                compiled = evaluator._rules[index]
                if validate_rule(rule, variables) is not None:
                    continue
                completion = least_completion(
                    rule, valuation, variables,
                    substituted_by_rule(rule, variables))
                if completion is None:
                    continue
                partial_folds += len(completion) > len(valuation)
                reduct = build_reduct(Program(variables, rules=(rule,)),
                                      completion).rules
                if compiled is None or folds[index] is None:
                    assert not reduct
                    dropped += 1
                    continue
                fold = folds[index]
                nan_folds += any(b != b for b in fold if b is not None)
                if reduct:
                    assert repr([b for b in fold if b is not None]) == \
                        repr([atom.bound for atom in reduct[0].clause.atoms])
                else:
                    tautologies += 1
                for _ in range(3):
                    bounds = [random_value(rng, info)
                              for info in variables]
                    got = evaluator._requirement_of[index](compiled, fold,
                                                           bounds)
                    if reduct:
                        want = clause_requirement(reduct[0], bounds,
                                                  variables)
                        if want is False or want == NEG_INF:
                            want = None
                    else:
                        want = None
                    assert repr(got) == repr(want)
                    outcomes[type(got), got == POS_INF] = \
                        outcomes.get((type(got), got == POS_INF), 0) + 1
                    compared += 1
    # every kind of answer, and every kind of fold, many times over
    assert compared > 20000 and partial_folds > 1000 and nan_folds > 20
    assert dropped > 2000 and tautologies > 500
    assert all(outcomes.get(key, 0) > 500 for key in (
        (type(None), False), (bool, False), (int, False), (float, True)))


def bound_programs(rng):
    """Programs for the upper-bound tests: mixed ones, and positive ones
    with substituted terms."""
    programs = [random_mixed_program(rng) for _ in range(500)]
    for _ in range(200):
        program = with_substituted_terms(rng, random_positive_cp(rng))
        if validate_program(program).ok:
            programs.append(program)
    return programs


def test_upper_bounds_dominate_every_completed_leaf(rng):
    """upper_bounds on each partial guess assignment, over every prefix of
    the guess order, bounds the leaf model of each of its completions."""
    compared = below_top = 0
    for program in bound_programs(rng):
        evaluator = LeafEvaluator(program)
        guess = sorted(guess_set(program))
        founded = [v for v, info in enumerate(program.variables)
                   if info.is_founded]
        upper = {}
        for assignment in guess_assignments(program):
            leaf = evaluator.minimal_model(assignment)
            if not leaf.ok:
                continue
            for k in range(len(guess) + 1):
                prefix = tuple(assignment[v] for v in guess[:k])
                if prefix not in upper:
                    upper[prefix] = evaluator.upper_bounds(
                        dict(zip(guess, prefix)))
                for var in founded:
                    assert upper[prefix][var] >= leaf.model[var]
                    compared += 1
                    top = program.variables[var].hi
                    below_top += upper[prefix][var] < (True if top is None
                                                       else top)
    # the bounds are often informative, not just every domain's top
    assert compared > 10000 and below_top > 5000


def test_cone_bounds_equal_the_whole_program_bounds(rng):
    """upper_bounds restricted to a cone gives its targets the bounds of
    the whole program, on every guess prefix, for each founded variable
    alone and for each target set the search schedules."""
    compared = narrower = scheduled = 0
    for program in bound_programs(rng):
        evaluator = LeafEvaluator(program)
        singles = [(var,) for var, info in enumerate(program.variables)
                   if info.is_founded]
        slots = [targets for _, _, targets in Search(program)._bounded
                 if targets]
        cones = [evaluator.cone(targets) for targets in singles + slots]
        for partial in guess_prefixes(program):
            whole = evaluator.upper_bounds(partial)
            for cone in cones:
                assert typed(evaluator.upper_bounds(partial, cone)) == \
                    typed({var: whole[var] for var in cone.targets})
                compared += 1
                narrower += len(cone.rules) < len(program.rules)
            scheduled += len(slots)
    # many cones leave rules out, and the search's target sets are covered
    assert compared > 8000 and narrower > 4000 and scheduled > 1000


def test_model_values_are_bools_ints_or_the_bottom_constant(rng):
    """No computed float reaches a model: a bottom value is NEG_INF itself,
    so ``model[v] is NEG_INF`` holds, and nothing is nan or POS_INF."""
    def check(model):
        for value in model.values():
            assert value is NEG_INF or type(value) in (bool, int), value

    for _ in range(300):
        program = random_mixed_program(rng, max_vars=5,
                                       with_objective=rng.random() < 0.3)
        for level in PropagationLevel:
            config = SearchConfig(propagation=level)
            for model in Search(program, config).models():
                check(model)
        evaluator = LeafEvaluator(program)
        for assignment in guess_assignments(program):
            for result in (evaluator.minimal_model(assignment),
                           minimal_model(build_reduct(program, assignment))):
                if result.ok:
                    check(result.model)


def test_leaf_evaluator_ignores_raises_in_deleted_atoms():
    """A raise of v, which only a deleted atom of rule 0 holds, must not
    queue rule 0: z's rule, queued before w re-queues rule 0, goes first."""
    h, w, v, y, z, u = range(6)
    variables = tuple(int_var(name, 0, 5) for name in "hwvyzu")
    rules = (
        Rule(Clause(atoms=(LinearAtom(((1, h), (-1, w)), 0),
                           LinearAtom(((-1, v), (1, u)), 5))), h),
        Rule(Clause(atoms=(LinearAtom(((1, z), (-1, y)), 0),)), z),
        Rule(Clause(atoms=(LinearAtom(((1, v),), 0),)), v),
        Rule(Clause(atoms=(LinearAtom(((1, y),), 0),)), y),
        Rule(Clause(atoms=(LinearAtom(((1, w),), 0),)), w),
    )
    program = Program(variables, rules=rules)
    updates, spec_updates = [], []
    result = LeafEvaluator(program).minimal_model(
        {u: NEG_INF}, on_update=lambda var, old, new, i: updates.append(var))
    minimal_model(build_reduct(program, {u: NEG_INF}),
                  on_update=lambda var, old, new, i: spec_updates.append(var))
    assert result.ok and updates == spec_updates == [v, y, w, z, h]


def test_an_idle_rule_raised_in_the_first_pass_runs_at_its_place():
    """b's rule owes nothing while a is at the bottom, so the first pass
    may skip it; but a's rule raises a before its turn, so it must run in
    its place, before c's rule, as on the spec path."""
    a, b, c = range(3)
    variables = tuple(int_var(name, 0, 5) for name in "abc")
    rules = (
        Rule(Clause(atoms=(LinearAtom(((1, a),), 0),)), a),
        Rule(Clause(atoms=(LinearAtom(((1, b), (-1, a)), 0),)), b),
        Rule(Clause(atoms=(LinearAtom(((1, c),), 0),)), c),
    )
    program = Program(variables, rules=rules)
    updates, spec_updates = [], []
    result = LeafEvaluator(program).minimal_model(
        {}, on_update=lambda var, old, new, i: updates.append(var))
    minimal_model(build_reduct(program, {}),
                  on_update=lambda var, old, new, i: spec_updates.append(var))
    assert result.ok and updates == spec_updates == [a, b, c]


def test_rules_that_validation_refuses_still_meet_the_spec():
    # A head that its clause does not hold: validation refuses such a rule,
    # but neither fixpoint validates.  A standard head outside its clause
    # still gets a bound in the spec path, its least value.
    p = Variable("p", VarKind.FOUNDED, Sort.BOOL)
    s = Variable("s", VarKind.STANDARD, Sort.BOOL)
    pcp = PositiveCP((p, s), (Rule(Clause((Literal(0),)), 0),
                              Rule(Clause((Literal(0),)), 1)))
    assert validate_positive_cp(pcp)
    assert minimal_model(pcp).model == {0: True, 1: False}
    # An integer head in no atom can be met by no value of its own: the
    # requirement kernel owes POS_INF, as ``clause_requirement`` does.
    program = Program((Variable("q", VarKind.STANDARD, Sort.BOOL),
                       Variable("a", VarKind.FOUNDED, Sort.INT, 0, 3)),
                      rules=(Rule(Clause((Literal(0),)), 1),))
    assert not validate_program(program).ok
    evaluator = LeafEvaluator(program)
    for q in (False, True):
        reduct = build_reduct(program, {0: q})
        spec = minimal_model(reduct)
        got = evaluator.minimal_model({0: q})
        assert got.model == spec.model == (
            {1: NEG_INF} if q else None)
        assert got.unsat_index == (None if q else reduct.origin_of(
            spec.unsat_index)) == (None if q else 0)
