"""Monotonicity, rule validation, guess sets, and reduct construction."""

import pytest

import bfasp
from bfasp import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    Literal,
    Monotonicity,
    PositiveCP,
    Program,
    ReductBuilder,
    Rule,
    RuleViolation,
    Search,
    Sort,
    VarKind,
    Variable,
    build_reduct,
    check_stable,
    format_assignment,
    format_program,
    ground,
    guess_set,
    is_tautology,
    minimal_model,
    monotonicity,
    parse_assignment,
    parse_data,
    parse_ground_program,
    parse_model,
    validate_positive_cp,
    validate_program,
    validate_rule,
)

from conftest import THETA, THETA_PRIME, build_example_one, valuation_of
from oracles import (
    random_mixed_program,
    random_positive_cp,
    random_shaped_program,
)
from test_ground_output import GOLDEN_CASES, ROOT


def bools(*names, founded=True):
    kind = VarKind.FOUNDED if founded else VarKind.STANDARD
    return tuple(Variable(n, kind, Sort.BOOL) for n in names)


# -- monotonicity ---------------------------------------------------------------


def test_monotonicity_of_literals_and_coefficients():
    clause = Clause(lits=(Literal(0), Literal(1, False)),
                    atoms=(LinearAtom(((2, 2), (-1, 3)), 0),))
    assert monotonicity(clause, 0) is Monotonicity.INCREASING
    assert monotonicity(clause, 1) is Monotonicity.DECREASING
    assert monotonicity(clause, 2) is Monotonicity.INCREASING
    assert monotonicity(clause, 3) is Monotonicity.DECREASING
    assert monotonicity(clause, 9) is Monotonicity.CONSTANT


def test_monotonicity_combines_across_occurrences():
    both_lits = Clause(lits=(Literal(0), Literal(0, False)))
    assert monotonicity(both_lits, 0) is Monotonicity.NON_MONOTONE
    lit_and_atom = Clause(lits=(Literal(0),),
                          atoms=(LinearAtom(((-1, 0),), 0),))
    assert monotonicity(lit_and_atom, 0) is Monotonicity.NON_MONOTONE
    two_atoms = Clause(atoms=(LinearAtom(((1, 0),), 0),
                              LinearAtom(((3, 0),), 5)))
    assert monotonicity(two_atoms, 0) is Monotonicity.INCREASING


# -- rule validation -------------------------------------------------------------


def test_validate_rule_accepts_increasing_heads():
    variables = bools("p", "q")
    rule = Rule(Clause(lits=(Literal(0), Literal(1, False))), 0)
    assert validate_rule(rule, variables) is None


@pytest.mark.parametrize("head,clause,violation", [
    (0, Clause(lits=(Literal(0),)), RuleViolation.HEAD_NOT_FOUNDED),
    (1, Clause(lits=(Literal(2),)), RuleViolation.HEAD_ABSENT),
    (1, Clause(lits=(Literal(1),),
               atoms=()), None),
])
def test_validate_rule_head_shape(head, clause, violation):
    variables = (Variable("s", VarKind.STANDARD, Sort.BOOL),
                 *bools("p", "q"))
    assert validate_rule(Rule(clause, head), variables) is violation


def test_validate_rule_rejects_repeated_and_negated_heads():
    variables = (Variable("h", VarKind.FOUNDED, Sort.INT, 0, 5),
                 *bools("p"))
    twice = Rule(Clause(atoms=(LinearAtom(((1, 0),), 0),
                               LinearAtom(((1, 0),), 3))), 0)
    assert validate_rule(twice, variables) is \
        RuleViolation.HEAD_MULTIPLE_OCCURRENCES
    decreasing = Rule(Clause(atoms=(LinearAtom(((-1, 0),), 0),)), 0)
    assert validate_rule(decreasing, variables) is \
        RuleViolation.HEAD_NOT_INCREASING
    negated = Rule(Clause(lits=(Literal(1, False),)), 1)
    assert validate_rule(negated, variables) is \
        RuleViolation.HEAD_NOT_INCREASING


def test_violation_messages_name_the_head():
    text = RuleViolation.HEAD_ABSENT.describe("d[2,3]")
    assert text == "head 'd[2,3]': head does not occur in the clause"


# -- guess sets -------------------------------------------------------------------


def test_guess_set_of_the_walkthrough_is_s_and_y():
    program = build_example_one()
    names = {program.name(v) for v in guess_set(program)}
    assert names == {"s", "y"}


def test_guess_set_ignores_constraints():
    # p appears positively in a constraint; that alone must not guess it.
    variables = bools("p", "q")
    program = Program(variables,
                      constraints=(Clause(lits=(Literal(0),)),),
                      rules=(Rule(Clause(lits=(Literal(1),
                                               Literal(0, False))), 1),))
    assert guess_set(program) == frozenset()


def test_guess_set_includes_standard_and_substituted_founded():
    variables = (Variable("s", VarKind.STANDARD, Sort.BOOL),
                 *bools("p", "q", "r"))
    # q appears positively (substituted) in p's body; r only negatively.
    rule = Rule(Clause(lits=(Literal(1), Literal(2), Literal(3, False))), 1)
    program = Program(variables, rules=(rule,))
    assert guess_set(program) == frozenset({0, 2})


def test_rules_are_analysed_once_per_shape(monkeypatch):
    """Grounding and validating check each rule shape once, setting up a
    search splits it twice (the leaf evaluator and the guess set), and a
    stability check of the printed program splits it once and validates
    its reduct once per shape: no count grows with the rules of a shape."""
    calls = dict.fromkeys(("shape_form", "validate_rule"), 0)
    for name in calls:
        original = getattr(bfasp.analysis, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for module in (bfasp, bfasp.analysis, bfasp.fixpoint, bfasp.grounder,
                       bfasp.program, bfasp.solver):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    path, data, founded_default = GOLDEN_CASES["bench_sssp"]
    program = ground(parse_model((ROOT / path).read_text(), path),
                     parse_data(data), founded_default=founded_default)
    shapes = len(set(program.shapes))
    assert len(program.rules) > 2 * shapes
    assert calls == {"shape_form": 0, "validate_rule": shapes}
    assert validate_program(program).ok
    assert calls == {"shape_form": 0, "validate_rule": 2 * shapes}
    model = list(Search(program).models())[-1]
    assert calls == {"shape_form": 2 * shapes, "validate_rule": 2 * shapes}
    reread = parse_ground_program(format_program(program))
    valuation = parse_assignment(format_assignment(program, model), reread)
    # the reduct keeps many clauses per shape, so a count that grew with
    # them would show
    reduct = build_reduct(reread, valuation)
    assert len(set(reread.shapes)) == shapes
    assert len(reduct.rules) > 2 * shapes
    before = dict(calls)
    assert check_stable(reread, valuation).stable
    assert calls["shape_form"] - before["shape_form"] == shapes
    assert calls["validate_rule"] - before["validate_rule"] == shapes


# -- tautology detection ------------------------------------------------------------


def test_is_tautology_on_complementary_literals():
    variables = bools("p")
    assert is_tautology(Clause(lits=(Literal(0), Literal(0, False))),
                        variables)
    assert not is_tautology(Clause(lits=(Literal(0),)), variables)


def test_is_tautology_on_unbeatable_atoms():
    variables = (Variable("n", VarKind.STANDARD, Sort.INT, 2, 9),
                 Variable("m", VarKind.FOUNDED, Sort.INT, 2, 9))
    # n >= 2 holds across the whole domain; n >= 3 does not.
    assert is_tautology(Clause(atoms=(LinearAtom(((1, 0),), 2),)), variables)
    assert not is_tautology(Clause(atoms=(LinearAtom(((1, 0),), 3),)),
                            variables)
    # founded integers can sit at -inf, so m >= 2 is beatable
    assert not is_tautology(Clause(atoms=(LinearAtom(((1, 1),), 2),)),
                            variables)
    # but -m >= -9 cannot fail: at -inf the negated term soars
    assert is_tautology(Clause(atoms=(LinearAtom(((-1, 1),), -9),)),
                        variables)
    assert is_tautology(Clause(atoms=(LinearAtom(((1, 0),), NEG_INF),)),
                        variables)


def test_is_tautology_sums_each_term_of_a_repeated_variable():
    """Each term takes its own least product: -2*x + x >= 0 fails at x = 1,
    though x's last term alone would take x at its lowest."""
    variables = (Variable("x", VarKind.STANDARD, Sort.INT, 0, 1),)
    clause = Clause(atoms=(LinearAtom(((-2, 0), (1, 0)), 0),))
    assert not is_tautology(clause, variables)
    assert is_tautology(Clause(atoms=(LinearAtom(((-2, 0), (1, 0)), -2),)),
                        variables)


# -- reducts: the frozen walkthrough -------------------------------------------------


def reduct_shape(pcp, program):
    """Readable (head, lits, atoms) triples for structural comparison."""
    shaped = []
    for rule in pcp.rules:
        lits = sorted((program.name(l.var), l.positive)
                      for l in rule.clause.lits)
        atoms = sorted((tuple(sorted((c, program.name(v))
                                     for c, v in a.terms)), a.bound)
                       for a in rule.clause.atoms)
        shaped.append((program.name(rule.head), tuple(lits), tuple(atoms)))
    return shaped


def test_reduct_of_theta_matches_the_walkthrough():
    program = build_example_one()
    reduct = build_reduct(program, valuation_of(program, **THETA))
    assert reduct_shape(reduct, program) == [
        ("a", (), ((((1, "a"),), 0),)),
        ("b", (), ((((1, "b"),), 0),)),
        ("a", (), ((((-1, "b"), (1, "a")), 9),)),
        ("b", (("x", False),), ((((1, "b"),), 8),)),
        ("x", (("x", True),), ((((-1, "a"),), -4),)),
    ]
    assert reduct.origins == (0, 1, 2, 3, 4)


def test_reduct_of_theta_prime_shifts_only_the_s_rule():
    program = build_example_one()
    reduct = build_reduct(program, valuation_of(program, **THETA_PRIME))
    assert reduct_shape(reduct, program)[2] == \
        ("a", (), ((((-1, "b"), (1, "a")), 3),))


def test_reduct_drops_clauses_satisfied_by_substitution():
    program = build_example_one()
    # with y true the last rule's body is already satisfied
    v = valuation_of(program, s=0, a=0, b=0, x=False, y=True)
    reduct = build_reduct(program, v)
    assert len(reduct.rules) == 4
    assert reduct.origins == (0, 1, 2, 3)


def test_reduct_depends_only_on_substituted_variables():
    program = build_example_one()
    full = valuation_of(program, **THETA)
    trimmed = {v: full[v] for v in guess_set(program)}
    assert build_reduct(program, full) == build_reduct(program, trimmed)


def test_reduct_missing_value_is_reported_by_name():
    program = build_example_one()
    with pytest.raises(ValueError, match="reduct needs a value for 'y'"):
        build_reduct(program, valuation_of(program, s=3))


def test_builder_is_reusable_across_valuations():
    program = build_example_one()
    builder = ReductBuilder(program)
    first = builder.build(valuation_of(program, **THETA))
    second = builder.build(valuation_of(program, **THETA_PRIME))
    assert first != second
    assert first == build_reduct(program, valuation_of(program, **THETA))


def test_substituted_bottom_yields_infinite_bound():
    # rule: ~p | h + q >= 4 with q increasing (substituted); at q = -inf the
    # head atom keeps an infinite bound but the kept literal still carries.
    variables = (Variable("h", VarKind.FOUNDED, Sort.INT, 0, 9),
                 Variable("q", VarKind.FOUNDED, Sort.INT, 0, 9),
                 Variable("p", VarKind.FOUNDED, Sort.BOOL))
    rule = Rule(Clause(lits=(Literal(2, False),),
                       atoms=(LinearAtom(((1, 0), (1, 1)), 4),)), 0)
    program = Program(variables, rules=(rule,))
    reduct = build_reduct(program, {1: NEG_INF})
    (folded,) = reduct.rules
    assert folded.clause.atoms[0].bound == POS_INF
    result = minimal_model(reduct)
    assert result.ok
    assert result.model[0] == NEG_INF and result.model[2] is False


def test_substituted_bottom_without_carrier_is_unsatisfiable():
    variables = (Variable("h", VarKind.FOUNDED, Sort.INT, 0, 9),
                 Variable("q", VarKind.FOUNDED, Sort.INT, 0, 9))
    rule = Rule(Clause(atoms=(LinearAtom(((1, 0), (1, 1)), 4),)), 0)
    program = Program(variables, rules=(rule,))
    result = minimal_model(build_reduct(program, {1: NEG_INF}))
    assert not result.ok and result.unsat_index == 0


# -- tautologies decided per shape ---------------------------------------------------


def counted_tautologies(monkeypatch) -> list:
    """Patch ``analysis.is_tautology`` to record each call's variable
    count: 0 for a shape's kept literals (``shape_form``), the program's
    for a folded rule."""
    calls = []
    original = bfasp.analysis.is_tautology

    def counted(clause, variables):
        calls.append(len(variables))
        return original(clause, variables)
    monkeypatch.setattr(bfasp.analysis, "is_tautology", counted)
    return calls


def test_checking_the_sssp_golden_folds_no_rule_through_is_tautology(
        monkeypatch):
    """Every sssp rule shape passes its rules through: each atom holds the
    head, a founded integer with a positive coefficient, and nothing is
    substituted.  So the fold asks ``is_tautology`` nothing, and each rule
    enters the reduct as the program's own object."""
    reread = parse_ground_program((ROOT / "tests/golden/bench_sssp.bfg")
                                  .read_text())
    model = list(Search(reread).models())[-1]
    calls = counted_tautologies(monkeypatch)
    assert check_stable(reread, model).stable
    assert calls == [0] * len(set(reread.shapes))
    reduct = build_reduct(reread, model)
    assert len(reduct.rules) == len(reread.rules)
    assert all(rule is source
               for rule, source in zip(reduct.rules, reread.rules))


@pytest.mark.parametrize("hi, kept", [(4, False), (5, True)])
def test_a_kept_atom_that_always_holds_still_drops_its_rule(hi, kept,
                                                            monkeypatch):
    """ex1's ``x | -1*a >= -4 head x``, folded at y false, is a tautology
    once a's hi is 4: its atom's least sum -hi meets -4.  Its shape is
    folded rule by rule and asks ``is_tautology``, which drops it."""
    program = build_example_one()
    variables = list(program.variables)
    variables[1] = Variable("a", VarKind.FOUNDED, Sort.INT, -50, hi)
    program = Program(tuple(variables), rules=program.rules)
    calls = counted_tautologies(monkeypatch)
    reduct = build_reduct(program, valuation_of(program, s=9, y=False))
    x_rule = [("x", (("x", True),), ((((-1, "a"),), -4),))] if kept else []
    assert reduct_shape(reduct, program) == [
        ("a", (), ((((1, "a"),), 0),)),
        ("b", (), ((((1, "b"),), 0),)),
        ("a", (), ((((-1, "b"), (1, "a")), 9),)),
        ("b", (("x", False),), ((((1, "b"),), 8),)),
    ] + x_rule
    assert reduct.origins == (0, 1, 2, 3, 4)[:4 + kept]
    # one call per shape's kept literals, and one for the x rule alone
    assert calls.count(0) == len(set(program.shapes))
    assert calls.count(len(variables)) == 1


def test_a_pass_through_rule_enters_the_reduct_as_itself():
    """ex1's ``a >= 0 head a`` has a pass-through shape; the rule that
    substitutes s is rebuilt."""
    program = build_example_one()
    reduct = build_reduct(program, valuation_of(program, **THETA))
    assert reduct.rules[0] is program.rules[0]
    assert reduct.rules[1] is program.rules[1]
    assert reduct.rules[2] is not program.rules[2]


def test_infinite_source_bounds_fold_as_the_per_rule_reference(rng):
    """Validation refuses infinite bounds outside a reduct, but the fold
    keeps to the reference on them: a -inf bound on an atom whose least
    sum is -inf makes a tautology, in a pass-through shape too."""
    from test_fixpoint import with_infinite_bounds
    for _ in range(200):
        program = with_infinite_bounds(rng, random_shaped_program(rng))
        assert_reducts_match(program, [random_valuation(rng, program)
                                       for _ in range(4)])


# -- reducts on random programs ---------------------------------------------------


def test_every_reduct_is_a_positive_program(rng):
    """Folding a valid program never leaves a non-positive clause behind."""
    from oracles import all_valuations
    for _ in range(60):
        program = random_mixed_program(rng)
        builder = ReductBuilder(program)
        picks = [v for i, v in enumerate(all_valuations(program)) if i % 3 == 0]
        for v in picks[:6]:
            assert validate_positive_cp(builder.build(v)) == []


def test_random_positive_cps_validate(rng):
    for _ in range(50):
        assert validate_positive_cp(random_positive_cp(rng)) == []


# -- reducts against the per-rule reference ----------------------------------------


def random_valuation(rand, program, keep=1.0):
    """A random in-domain value for each variable, each kept with
    probability ``keep``; founded integers are often at the bottom."""
    valuation = {}
    for var, info in enumerate(program.variables):
        if rand.random() >= keep:
            continue
        if info.sort is Sort.BOOL:
            valuation[var] = rand.random() < 0.5
        elif info.is_founded and rand.random() < 0.3:
            valuation[var] = NEG_INF
        else:
            valuation[var] = rand.randint(info.lo, info.hi)
    return valuation


def per_rule_reduct(program: Program, valuation) -> PositiveCP:
    """The reduct of ``program`` under ``valuation``, rule by rule.

    A non-head variable is substituted when it is standard or some
    occurrence is not decreasing (a positive literal or coefficient).  A
    substituted literal that holds drops the rule.  An atom's substituted
    terms fold into its bound; an atom left without terms drops the rule
    when its bound is at most 0 and is deleted otherwise, and an atom
    without the head is deleted at an infinite bound.  What remains keeps
    its members in order, unless ``is_tautology`` drops it.  A missing value
    raises KeyError with the variable's index.
    """
    variables = program.variables
    rules, origins = [], []
    for index, rule in enumerate(program.rules):
        head, clause = rule.head, rule.clause
        rising = {lit.var for lit in clause.lits if lit.positive}
        rising |= {v for atom in clause.atoms for c, v in atom.terms if c > 0}

        def substituted(var, head=head, rising=rising):
            return var != head and (
                variables[var].kind is VarKind.STANDARD or var in rising)
        if any(valuation[lit.var] == lit.positive
               for lit in clause.lits if substituted(lit.var)):
            continue
        atoms, dropped = [], False
        for atom in clause.atoms:
            bound = atom.bound - sum(c * valuation[v] for c, v in atom.terms
                                     if substituted(v))
            kept = tuple((c, v) for c, v in atom.terms if not substituted(v))
            if not kept:
                if bound <= 0:
                    dropped = True
                    break
            elif bound != POS_INF or any(v == head for _, v in kept):
                atoms.append(LinearAtom(kept, bound))
        if dropped:
            continue
        lits = tuple(lit for lit in clause.lits if not substituted(lit.var))
        folded = Clause(lits, tuple(atoms))
        if not is_tautology(folded, variables):
            rules.append(Rule(folded, head))
            origins.append(index)
    return PositiveCP(variables, tuple(rules), tuple(origins))


def assert_reducts_match(program, valuations):
    """Every reduct, member order and origins included, is the per-rule
    reference's (by ``repr``, which tells ``nan`` bounds equal), and a
    missing value is named as the reference misses it; returns the reducts
    built."""
    builder = ReductBuilder(program)
    built = []
    for valuation in valuations:
        try:
            reduct = builder.build(valuation)
        except ValueError as err:
            with pytest.raises(KeyError) as missing:
                per_rule_reduct(program, valuation)
            name = program.name(missing.value.args[0])
            assert str(err) == f"reduct needs a value for '{name}'"
            continue
        assert repr(reduct) == repr(per_rule_reduct(program, valuation))
        built.append(reduct)
    return built


def test_reducts_of_shaped_programs_match_the_per_rule_reference(rng):
    kept = rules = rebuilt = dropped_atoms = missing = 0
    for _ in range(300):
        program = random_shaped_program(rng)
        valuations = [random_valuation(rng, program) for _ in range(6)]
        valuations.append(random_valuation(rng, program, keep=0.7))
        built = assert_reducts_match(program, valuations)
        missing += len(valuations) - len(built)
        for reduct in built:
            rules += len(program.rules)
            kept += len(reduct.rules)
            for rule, origin in zip(reduct.rules, reduct.origins):
                source = program.rules[origin]
                rebuilt += rule is not source
                dropped_atoms += (len(rule.clause.atoms)
                                  < len(source.clause.atoms))
    # the comparison covers dropped, kept, rebuilt, unchanged and thinned
    # rules, and partial valuations that miss a value
    assert 0.2 * rules < kept < 0.8 * rules
    assert rebuilt > 2000 and kept - rebuilt > 2000
    assert dropped_atoms > 1000 and missing > 100


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_reducts_of_golden_programs_match_the_per_rule_reference(name, rng):
    path, data, founded_default = GOLDEN_CASES[name]
    program = ground(parse_model((ROOT / path).read_text(), path),
                     parse_data(data) if data else (),
                     founded_default=founded_default)
    built = assert_reducts_match(
        program, [random_valuation(rng, program) for _ in range(20)])
    assert len(built) == 20


def test_the_positive_cp_guard_fires_on_a_kept_substituted_occurrence(
        monkeypatch):
    """A shape form that keeps a substituted, non-decreasing occurrence
    yields a reduct that is not positive, and check_stable says so."""
    p, q, h, x = (Variable("p", VarKind.FOUNDED, Sort.BOOL),
                  Variable("q", VarKind.FOUNDED, Sort.BOOL),
                  Variable("h", VarKind.FOUNDED, Sort.INT, 0, 5),
                  Variable("x", VarKind.STANDARD, Sort.INT, 0, 5))
    program = Program((p, q, h, x), rules=(
        Rule(Clause(lits=(Literal(0), Literal(1))), 0),  # p <- ~q
        Rule(Clause(atoms=(LinearAtom(((1, 2), (1, 3)), 3),)), 2),  # h+x >= 3
    ))
    valuation = {0: True, 1: False, 2: 3, 3: 0}
    assert check_stable(program, valuation).stable
    forms = bfasp.analysis.shape_forms(program)
    (_, substituted, head_coeff), = forms[1].atoms
    assert forms[0].substituted_lits == (1,) and substituted == (1,)
    corrupt = [forms[0]._replace(substituted_lits=(), kept_lits=(1,),
                                 reduct_lits=(0, 1)),
               forms[1]._replace(atoms=(((1,), (), head_coeff),),
                                 reduct_terms=((0, 1),))]
    monkeypatch.setattr(bfasp.analysis, "shape_forms", lambda _: corrupt)
    with pytest.raises(AssertionError) as raised:
        check_stable(program, valuation)
    assert str(raised.value) == (
        "reduct is not positive: clause 0: not decreasing in 'q'; "
        "clause 1: not decreasing in 'x'")


def test_the_guard_checks_each_folded_form_of_a_shape(monkeypatch):
    """Two rules of one shape fold differently when a bottom value deletes
    an atom of the first only; the guard reports the clause of the second
    that keeps the corrupt occurrence."""
    names = ("h1", "z1", "y1", "w1", "h2", "z2", "y2", "w2")
    variables = tuple(Variable(name, VarKind.FOUNDED, Sort.INT, 0, 5)
                      for name in names)

    def rule(h, z, y, w):  # h >= 1 | -z + y + w >= 0
        return Rule(Clause(atoms=(LinearAtom(((1, h),), 1),
                                  LinearAtom(((-1, z), (1, y), (1, w)), 0))),
                    h)
    program = Program(variables, rules=(rule(0, 1, 2, 3), rule(4, 5, 6, 7)))
    assert program.shapes == (0, 0)
    valuation = dict.fromkeys(range(8), NEG_INF) | {0: 1, 7: 0}
    (form,) = bfasp.analysis.shape_forms(program)
    assert form.atoms[1][:2] == ((0,), (1, 2))
    corrupt = form._replace(atoms=(form.atoms[0], ((0, 1), (2,), None)),
                            reduct_terms=((0,), (0, 1)))
    monkeypatch.setattr(bfasp.analysis, "shape_forms", lambda _: [corrupt])
    with pytest.raises(AssertionError) as raised:
        check_stable(program, valuation)
    assert str(raised.value) == (
        "reduct is not positive: clause 1: not decreasing in 'y2'")


def test_the_guard_fires_for_a_corrupt_form_the_fold_hides(monkeypatch):
    """A corrupt form whose kept, non-decreasing occurrence sits in an atom
    that the valuation deletes from every rule still fires the guard: the
    reduct shows no issue, so the message names the shape's."""
    names = ("h1", "z1", "y1", "w1", "h2", "z2", "y2", "w2")
    variables = tuple(Variable(name, VarKind.FOUNDED, Sort.INT, 0, 5)
                      for name in names)

    def rule(h, z, y, w):  # h >= 1 | -z + y + w >= 0
        return Rule(Clause(atoms=(LinearAtom(((1, h),), 1),
                                  LinearAtom(((-1, z), (1, y), (1, w)), 0))),
                    h)
    program = Program(variables, rules=(rule(0, 1, 2, 3), rule(4, 5, 6, 7)))
    # w at the bottom deletes the second atom of both rules
    valuation = dict.fromkeys(range(8), NEG_INF) | {0: 1, 4: 1}
    assert check_stable(program, valuation).stable
    (form,) = bfasp.analysis.shape_forms(program)
    corrupt = form._replace(atoms=(form.atoms[0], ((0, 1), (2,), None)),
                            reduct_terms=((0,), (0, 1)))
    monkeypatch.setattr(bfasp.analysis, "shape_forms", lambda _: [corrupt])
    reduct = build_reduct(program, valuation)
    assert [len(rule.clause.atoms) for rule in reduct.rules] == [1, 1]
    assert validate_positive_cp(reduct) == []
    with pytest.raises(AssertionError) as raised:
        check_stable(program, valuation)
    assert str(raised.value) == (
        "reduct is not positive: shape 0: not decreasing in 'y1'")
