"""Stability checking, model enumeration, and branch-and-bound optimization."""

import time
import types
import warnings

import pytest

import bfasp.fixpoint
import bfasp.solver
from bfasp import (
    NEG_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    PropagationLevel,
    Rule,
    Search,
    SearchConfig,
    SearchStatus,
    SolveError,
    Sort,
    StabilityReason,
    ValueOrder,
    VarKind,
    Variable,
    check_stable,
    enumerate_stable,
    eval_linear_expr,
    ground,
    optimize,
    parse_data,
    parse_model,
)

import oracles
from conftest import MODELS, build_example_one, valuation_of


def founded_int(name, lo, hi):
    return Variable(name, kind=VarKind.FOUNDED, sort=Sort.INT, lo=lo, hi=hi)


def founded_bool(name):
    return Variable(name, kind=VarKind.FOUNDED, sort=Sort.BOOL)


def standard_int(name, lo, hi):
    return Variable(name, kind=VarKind.STANDARD, sort=Sort.INT, lo=lo, hi=hi)


def load(stem):
    return ground(parse_model((MODELS / f"{stem}.bfz").read_text()))


# -- check_stable on the walkthrough program ---------------------------------------


def test_walkthrough_assignment_is_stable(ex1, theta):
    verdict = check_stable(ex1, theta)
    assert verdict.stable
    assert verdict.describe(ex1) == "stable"


def test_walkthrough_variant_fails_with_a_witness(ex1, theta_prime):
    verdict = check_stable(ex1, theta_prime)
    assert not verdict.stable
    assert verdict.reason is StabilityReason.MODEL_MISMATCH
    assert ex1.name(verdict.var) == "a"
    assert verdict.assigned == 17 and verdict.derived == 3
    assert verdict.describe(ex1) == "a = 17 but minimal model gives 3"


def test_partial_and_out_of_domain_valuations_are_rejected(ex1, theta):
    short = dict(theta)
    del short[4]
    with pytest.raises(ValueError, match="variable 'y' is unassigned"):
        check_stable(ex1, short)
    bad = dict(theta)
    bad[0] = 99
    with pytest.raises(ValueError, match="out-of-domain value 99"):
        check_stable(ex1, bad)


def test_violated_constraint_is_named():
    program = Program(
        variables=(standard_int("s", 0, 9),),
        constraints=(Clause(atoms=(LinearAtom(((1, 0),), 5),)),),
        rules=())
    verdict = check_stable(program, {0: 3})
    assert verdict.reason is StabilityReason.CONSTRAINT_VIOLATED
    assert verdict.clause_index == 0
    assert verdict.describe(program) == "constraint 0 violated"


def test_undefined_constraint_is_reported_not_crashed():
    # both sides bottom out, so the comparison has no defined value
    program = Program(
        variables=(founded_int("a", -5, 0), founded_int("b", -5, 0)),
        constraints=(Clause(atoms=(LinearAtom(((1, 0), (-1, 1)), 0),)),),
        rules=())
    verdict = check_stable(program, {0: NEG_INF, 1: NEG_INF})
    assert verdict.reason is StabilityReason.CONSTRAINT_UNDEFINED
    assert verdict.describe(program) == "constraint 0 undefined (mixed infinite terms)"


def test_unsatisfiable_reduct_points_at_the_rule():
    program = Program(
        variables=(founded_int("a", 0, 5),),
        constraints=(),
        rules=(Rule(Clause(atoms=(LinearAtom(((1, 0),), 10),)), 0),))
    verdict = check_stable(program, {0: 0})
    assert verdict.reason is StabilityReason.REDUCT_UNSAT
    assert verdict.rule_index == 0
    assert verdict.describe(program) == "reduct unsatisfiable (rule 0)"


# -- enumeration --------------------------------------------------------------


def test_walkthrough_has_one_stable_model_per_standard_value(ex1):
    search = Search(ex1)
    models = list(search.models())
    assert len(models) == 41
    assert search.status is SearchStatus.EXHAUSTED
    assert [m[0] for m in models] == list(range(-20, 21))
    assert all(m[4] is False for m in models)
    assert len({oracles.freeze(m) for m in models}) == 41
    by_s = {m[0]: m for m in models}
    assert by_s[-20] == valuation_of(ex1, s=-20, a=0, b=0, x=False, y=False)
    assert by_s[9] == valuation_of(ex1, s=9, a=17, b=8, x=True, y=False)
    assert by_s[3] == valuation_of(ex1, s=3, a=3, b=0, x=False, y=False)


def test_max_first_value_order_starts_from_the_top(ex1):
    config = SearchConfig(value_order=ValueOrder.MAX_FIRST)
    first = next(enumerate_stable(ex1, config))
    assert first == valuation_of(ex1, s=20, a=28, b=8, x=True, y=False)


def test_positive_loops_settle_at_the_bottom():
    flags = load("circular")
    models = list(enumerate_stable(flags))
    assert models == [{0: False, 1: False}]

    chain = load("cyclic_bounds")
    models = list(enumerate_stable(chain))
    assert models == [{0: NEG_INF, 1: NEG_INF}]


def test_false_constraint_means_no_models():
    program = Program(
        variables=(standard_int("s", 0, 1),),
        constraints=(Clause(),),
        rules=(),
        objective=LinearExpr(((1, 0),), 0))
    search = Search(program)
    assert list(search.models()) == []
    assert search.status is SearchStatus.EXHAUSTED
    assert optimize(program) is None


def test_enumeration_matches_the_one_by_one_checker(rng):
    # the search prunes aggressively; the plain checker does not
    for _ in range(100):
        program = oracles.random_mixed_program(rng)
        expected = {oracles.freeze(v) for v in oracles.all_valuations(program)
                    if check_stable(program, v).stable}
        got = [oracles.freeze(m) for m in enumerate_stable(program)]
        assert len(got) == len(set(got))
        assert set(got) == expected


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    free = tuple(Variable(f"p{i}", VarKind.STANDARD, Sort.BOOL)
                 for i in range(1200))
    search = Search(Program(free), SearchConfig(solution_limit=1))
    models = list(search.models())
    assert models == [dict.fromkeys(range(1200), False)]
    assert search.status is SearchStatus.SOLUTION_LIMIT


def test_propagation_levels_agree(rng):
    leaf = SearchConfig(propagation=PropagationLevel.LEAF_CHECK)
    clause = SearchConfig(propagation=PropagationLevel.CLAUSE)
    for _ in range(40):
        program = oracles.random_mixed_program(rng)
        assert (list(enumerate_stable(program, leaf))
                == list(enumerate_stable(program, clause)))
    # with an objective: the improving sequences, so the bound prune too
    for _ in range(60):
        program = oracles.random_mixed_program(rng, with_objective=True)
        assert (list(enumerate_stable(program, leaf))
                == list(enumerate_stable(program, clause)))
        assert optimize(program, leaf) == optimize(program, clause)


def test_single_variable_constraints_narrow_a_wide_guess_domain():
    program = ground(parse_model(
        "var 0..1000000000000: n;\nconstraint n = 5;\n"))
    search = Search(program, SearchConfig(time_budget=60))
    assert list(search.models()) == [{0: 5}]
    assert search.status is SearchStatus.EXHAUSTED
    assert search.stats.pruned_clause == 0  # no refused value was tried


@pytest.mark.parametrize("constraints", [
    "2 * n >= 3;", "-3 * n >= -8;", "n >= 2 /\\ n <= 4;", "n != 4;",
    "2 * a >= 1;", "-a >= -2;", "-2 * a >= 3;", "a >= 7;", "n + a >= 1;",
    "3 * n >= 4 /\\ -2 * a >= -3 /\\ n <= 5;",
], ids=["ceil", "floor", "both", "two-atoms", "bottom-refused",
        "bottom-kept", "only-bottom", "empty", "two-variables", "mixed"])
def test_narrowed_guess_domains_keep_the_models_and_their_order(constraints):
    # a is founded and guessed: p's rule reads it positively.
    program = ground(parse_model(
        "var -6..6: n;\nvar -3..3: a :: founded;\nvar bool: p :: founded;\n"
        "rule (p <- a <= 1 :: head(p));\n"
        "rule (a >= n - 2 :: head(a));\n"
        "constraint " + constraints + "\n"))
    for order in ValueOrder:
        runs = [list(enumerate_stable(program, SearchConfig(
                    value_order=order, propagation=level)))
                for level in PropagationLevel]
        assert runs[0] == runs[1]


def test_undefined_rule_clause_holds_and_undefined_constraint_fails():
    # a and b are guessed (c and e read them in substituted positions), and
    # a - b is undefined at a = b = -inf, where the only stable model sits.
    a_ge_b = Clause(atoms=(LinearAtom(((1, 0), (-1, 1)), 0),))
    rules = (Rule(a_ge_b, 0),
             Rule(Clause((Literal(2),), (LinearAtom(((1, 1),), 1),)), 2),
             Rule(Clause((Literal(3),), (LinearAtom(((1, 0),), 1),)), 3))
    variables = (founded_int("a", 0, 5), founded_int("b", 0, 5),
                 founded_bool("c"), founded_bool("e"))
    ruled = Program(variables, (), rules)
    constrained = Program(variables, (a_ge_b,), rules)
    model = {0: NEG_INF, 1: NEG_INF, 2: True, 3: True}
    assert check_stable(ruled, model).stable
    for level in PropagationLevel:
        config = SearchConfig(propagation=level)
        assert list(enumerate_stable(ruled, config)) == [model]
        assert list(enumerate_stable(constrained, config)) == []


def test_overflowing_upper_bound_run_clamps_instead_of_pruning():
    # Guesses t, s.  At t = false the constraint needs a >= 1, and the
    # upper-bound run at that guess leaves s at its most permissive 5, so
    # a's rule asks a >= 5, past its hi of 2.  That says nothing about the
    # completions s = 1, 2, which are stable: the run clamps a to 2.
    t, s, a = range(3)
    program = Program(
        variables=(Variable("t", VarKind.STANDARD, Sort.BOOL),
                   standard_int("s", 0, 5), founded_int("a", 0, 2)),
        constraints=(Clause((Literal(t),), (LinearAtom(((1, a),), 1),)),),
        rules=(Rule(Clause(atoms=(LinearAtom(((1, a), (-1, s)), 0),)), a),))
    expected = [{t: False, s: 1, a: 1}, {t: False, s: 2, a: 2},
                {t: True, s: 0, a: 0}, {t: True, s: 1, a: 1},
                {t: True, s: 2, a: 2}]
    for level in PropagationLevel:
        search = Search(program, SearchConfig(propagation=level))
        assert list(search.models()) == expected
    assert search.stats.bound_runs == 1 and search.stats.pruned_bounds == 0


def test_negative_founded_occurrences_are_never_refuted_by_upper_bounds():
    # Guesses t, u.  q (or a) is raised only when u is true, so an
    # upper-bound run at t = false, u unassigned, would raise it; yet at
    # u = false it stays at the bottom, where ~q (or -a >= 0) holds.  Such
    # a clause gets no bound check.
    t, u, x = range(3)
    guesses = (Variable("t", VarKind.STANDARD, Sort.BOOL),
               Variable("u", VarKind.STANDARD, Sort.BOOL))
    negative_literal = Program(
        variables=guesses + (founded_bool("q"),),
        constraints=(Clause((Literal(t), Literal(x, False))),),
        rules=(Rule(Clause((Literal(x), Literal(u, False))), x),))
    negative_coefficient = Program(
        variables=guesses + (founded_int("a", 0, 2),),
        constraints=(Clause((Literal(t),), (LinearAtom(((-1, x),), 0),)),),
        rules=(Rule(Clause((Literal(u, False),),
                           (LinearAtom(((1, x),), 2),)), x),))
    for program, raised in ((negative_literal, True),
                            (negative_coefficient, 2)):
        bottom = program.variables[x].least_value()
        expected = [{t: False, u: False, x: bottom},
                    {t: True, u: False, x: bottom},
                    {t: True, u: True, x: raised}]
        for level in PropagationLevel:
            search = Search(program, SearchConfig(propagation=level))
            assert list(search.models()) == expected
            assert search.stats.bound_runs == 0


def test_upper_bounds_prune_cycle_mcds_without_changing_the_models():
    n = 6
    edges = []
    for i in range(n):
        a, b, w = i + 1, (i + 1) % n + 1, 10 + 7 * i
        edges += [(a, b, w), (b, a, w)]
    core = parse_model((MODELS / "mcds_core.bfz").read_text())
    for cap in (20, 60, 100):
        data = parse_data(f"N = {n}; E = {len(edges)}; K = {cap};\n"
                          f"from = {[u for u, _, _ in edges]};\n"
                          f"to = {[v for _, v, _ in edges]};\n"
                          f"weight = {[w for _, _, w in edges]};\n")
        program = ground(core, data, founded_default=(-200, 0))
        runs = {}
        for level in PropagationLevel:
            search = Search(program, SearchConfig(propagation=level))
            runs[level] = list(search.models()), search.stats
        leaf_models, leaf_stats = runs[PropagationLevel.LEAF_CHECK]
        models, stats = runs[PropagationLevel.CLAUSE]
        assert models == leaf_models
        oracle = oracles.mcds_optima(n, edges, cap)
        if oracle is None:
            assert models == []
        else:
            assert eval_linear_expr(program.objective, models[-1]) == oracle[0]
        # generate and test reaches every one of the 2**6 leaves
        assert leaf_stats.leaves == 64 and leaf_stats.nodes == 127
        assert leaf_stats.bound_runs == leaf_stats.pruned_bounds == 0
        assert stats.pruned_bounds > 0 and stats.leaves < 16
    # the counters start again with each run
    search = Search(program)
    list(search.models())
    first = search.stats
    list(search.models())
    assert search.stats == first and search.stats is not first


def test_normal_rules_match_the_guess_and_close_oracle(rng):
    for _ in range(30):
        n_vars = rng.randint(1, 6)
        rules = oracles.random_normal_rules(rng, n_vars, rng.randint(0, 9))
        program = oracles.encode_normal(n_vars, rules)
        expected = oracles.gl_stable_masks(n_vars, rules)
        got = {oracles.model_mask(m, n_vars) for m in enumerate_stable(program)}
        assert got == expected


# -- limits and configuration -------------------------------------------------


def test_solution_limit_stops_early(ex1):
    search = Search(ex1, SearchConfig(solution_limit=5))
    assert len(list(search.models())) == 5
    assert search.status is SearchStatus.SOLUTION_LIMIT


def test_time_budget_stops_early():
    program = load("mcds")
    search = Search(program, SearchConfig(time_budget=1e-9))
    models = list(search.models())
    assert search.status is SearchStatus.TIME_LIMIT
    assert models == []


def test_time_budget_covers_values_refused_without_a_node(monkeypatch):
    # After the first model every other value is refused by the objective
    # bound, so no further node is entered.
    program = ground(parse_model(
        "var 0..1000000: n;\nsolve minimize n;\n"))
    clock = [0.0]
    monkeypatch.setattr(bfasp.solver.time, "monotonic", lambda: clock[0])
    search = Search(program, SearchConfig(time_budget=1))
    models = search.models()
    assert next(models) == {0: 0}
    clock[0] = 2.0
    assert list(models) == []
    assert search.status is SearchStatus.TIME_LIMIT


def test_objective_value_is_none_until_a_run_yields_a_model(monkeypatch):
    program = ground(parse_model("var 0..9: n;\nsolve minimize n;\n"))
    monkeypatch.setattr(bfasp.solver.time, "monotonic", lambda: 0.0)
    search = Search(program, SearchConfig(time_budget=1))
    assert search.objective_value is None
    assert list(search.models()) == [{0: 0}]
    assert search.objective_value == 0
    # a second run whose budget is spent before its first model
    reads = iter([0.0])
    monkeypatch.setattr(bfasp.solver.time, "monotonic",
                        lambda: next(reads, 2.0))
    assert list(search.models()) == []
    assert search.status is SearchStatus.TIME_LIMIT
    assert search.objective_value is None
    # an optimizing run without a model
    search = Search(ground(parse_model(
        "var 0..9: n;\nconstraint n > 9;\nsolve minimize n;\n")))
    assert list(search.models()) == []
    assert search.status is SearchStatus.EXHAUSTED
    assert search.objective_value is None


def an_hour_ahead_in_the_fixpoint(monkeypatch):
    """Move the clock an hour ahead for the fixpoint's reads only: the
    search's own checks see the real time, far from its budget."""
    monkeypatch.setattr(bfasp.fixpoint, "time", types.SimpleNamespace(
        monotonic=lambda: time.monotonic() + 3600))


def test_time_budget_stops_a_long_leaf_fixpoint(monkeypatch):
    # No guesses: the root is the only leaf, whose fixpoint raises each
    # link of the chain d0 >= 0, d(i+1) >= d(i) - 1.
    variables = tuple(founded_int(f"d{i}", -100, 0) for i in range(50))
    rules = [Rule(Clause(atoms=(LinearAtom(((1, 0),), 0),)), 0)]
    rules += [Rule(Clause(atoms=(LinearAtom(((1, i + 1), (-1, i)), -1),)),
                   i + 1) for i in range(49)]
    program = Program(variables, rules=tuple(rules))
    config = SearchConfig(time_budget=60)
    assert len(list(Search(program, config).models())) == 1
    an_hour_ahead_in_the_fixpoint(monkeypatch)
    search = Search(program, config)
    assert list(search.models()) == []
    assert search.status is SearchStatus.TIME_LIMIT
    assert search.stats.nodes == search.stats.leaves == 1


def test_time_budget_stops_an_upper_bound_run(monkeypatch):
    # At t = false, the first guess tried, the constraint asks a >= 1, and
    # the upper-bound run for it raises a before any leaf is reached.
    t, s, a = range(3)
    program = Program(
        variables=(Variable("t", VarKind.STANDARD, Sort.BOOL),
                   standard_int("s", 0, 5), founded_int("a", 0, 2)),
        constraints=(Clause((Literal(t),), (LinearAtom(((1, a),), 1),)),),
        rules=(Rule(Clause(atoms=(LinearAtom(((1, a), (-1, s)), 0),)), a),))
    an_hour_ahead_in_the_fixpoint(monkeypatch)
    search = Search(program, SearchConfig(time_budget=60))
    assert list(search.models()) == []
    assert search.status is SearchStatus.TIME_LIMIT
    assert search.stats.bound_runs == 1 and search.stats.leaves == 0
    # without a budget the clock is never read
    search = Search(program)
    assert len(list(search.models())) == 5
    assert search.status is SearchStatus.EXHAUSTED


def test_an_empty_founded_interval_has_no_model_at_either_level():
    # Hand-built and unvalidated: x's interval 5..0 is empty, which
    # validate_program refuses.  Each raise still lifts x strictly, so the
    # fixpoints end; the upper-bound run clamps x to its hi, and the leaf
    # finds x's rule past that hi.
    x = 0
    rule = Rule(Clause(atoms=(LinearAtom(((1, x),), 3),)), x)
    alone = Program(variables=(founded_int("x", 5, 0),), rules=(rule,))
    assert bfasp.fixpoint.LeafEvaluator(alone).upper_bounds({}) == {x: 0}
    # g's guess decides g \/ x >= 1, so an upper-bound run is made there
    g, h, x = range(3)
    rule = Rule(Clause(atoms=(LinearAtom(((1, x),), 3),)), x)
    program = Program(
        variables=(Variable("g", VarKind.STANDARD, Sort.BOOL),
                   Variable("h", VarKind.STANDARD, Sort.BOOL),
                   founded_int("x", 5, 0)),
        constraints=(Clause((Literal(g),), (LinearAtom(((1, x),), 1),)),
                     Clause((Literal(h), Literal(g, False)))),
        rules=(rule,))
    for level in PropagationLevel:
        search = Search(program, SearchConfig(propagation=level))
        assert list(search.models()) == []
        assert search.status is SearchStatus.EXHAUSTED
    assert search.stats.bound_runs == 1


def test_config_rejects_nonpositive_limits():
    with pytest.raises(ValueError, match="solution limit must be positive"):
        SearchConfig(solution_limit=0)
    for budget in (0, float("nan")):
        with pytest.raises(ValueError, match="time budget must be positive"):
            SearchConfig(time_budget=budget)


def test_wide_guess_domains_draw_a_warning():
    program = Program(
        variables=(founded_int("a", -40, 40), founded_int("b", -40, 40)),
        constraints=(),
        rules=(Rule(Clause(atoms=(LinearAtom(((1, 1), (1, 0)), 0),)), 1),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Search(program)
    assert any("'a' is guessed over 82 values" in str(w.message)
               for w in caught)


# -- optimization --------------------------------------------------------------


def test_dominating_set_optimum_is_frozen():
    program = load("mcds")
    outcome = optimize(program)
    assert outcome is not None and outcome.proven
    assert outcome.value == 2
    names = {v.name: i for i, v in enumerate(program.variables)}
    chosen = {n for n in range(1, 5) if outcome.model[names[f"dom[{n}]"]]}
    assert chosen == {2, 3}
    for n in range(1, 5):
        assert outcome.model[names[f"d[{n},{n}]"]] == 0
    assert outcome.model[names["d[2,3]"]] == -30
    assert outcome.model[names["d[3,2]"]] == -30
    assert outcome.model[names["d[1,4]"]] is NEG_INF


def test_objective_mode_yields_strictly_improving_models():
    program = load("mcds")
    values = [eval_linear_expr(program.objective, m)
              for m in enumerate_stable(program)]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)
    assert values[-1] == 2


def test_optimization_agrees_with_exhaustive_enumeration(rng):
    for _ in range(80):
        program = oracles.random_mixed_program(rng, with_objective=True)
        stripped = Program(program.variables, program.constraints,
                           program.rules)
        models = list(enumerate_stable(stripped))
        outcome = optimize(program)
        if not models:
            assert outcome is None
            continue
        best = min(eval_linear_expr(program.objective, m) for m in models)
        assert outcome is not None and outcome.proven
        assert outcome.value == best
        assert eval_linear_expr(program.objective, outcome.model) == best
        assert check_stable(stripped, outcome.model).stable


def test_optimize_needs_an_objective(ex1):
    with pytest.raises(SolveError, match="program has no objective to optimize"):
        optimize(ex1)


def test_unbounded_objective_values_are_an_error():
    # the only stable model leaves the term at the bottom
    program = Program(
        variables=(founded_int("a", -5, 0),),
        constraints=(),
        rules=(),
        objective=LinearExpr(((1, 0),), 0))
    with pytest.raises(SolveError,
                       match=r"objective has no finite value on a stable "
                             r"model \(got -inf\)"):
        optimize(program)


@pytest.mark.parametrize("level", PropagationLevel)
@pytest.mark.parametrize("terms, rules, got", [
    # -1 * b with b at the bottom
    (((-1, 1),), (), "inf"),
    # 1 * a - 1 * b with a raised to 0 and b at the bottom
    (((1, 0), (-1, 1)),
     (Rule(Clause(atoms=(LinearAtom(((1, 0),), 0),)), 0),), "inf"),
    # 1 * a - 1 * b with both at the bottom: -inf + inf
    (((1, 0), (-1, 1)), (), "undefined"),
])
def test_infinite_and_undefined_objective_values_are_errors(level, terms,
                                                            rules, got):
    program = Program(
        variables=(founded_int("a", -5, 0), founded_int("b", -5, 0)),
        constraints=(),
        rules=rules,
        objective=LinearExpr(terms, 0))
    with pytest.raises(SolveError,
                       match=r"objective has no finite value on a stable "
                             rf"model \(got {got}\)"):
        optimize(program, SearchConfig(propagation=level))
