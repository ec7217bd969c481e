"""Core representation: values, evaluation, and structural validation."""

import pytest

from bfasp import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    Rule,
    Sort,
    Truth,
    VarKind,
    Variable,
    eval_clause,
    eval_linear,
    eval_linear_expr,
    failing_constraint,
    format_value,
    satisfies,
    validate_program,
    validate_valuation,
)

from bfasp import Monotonicity, monotonicity, validate_rule
from bfasp.program import _check_clause

from conftest import build_example_one, valuation_of
from oracles import random_shaped_program


# -- the extended value order -------------------------------------------------


def test_infinities_bracket_every_integer():
    for n in (-10**9, -1, 0, 1, 10**9):
        assert NEG_INF < n < POS_INF
        assert n > NEG_INF
        assert n < POS_INF
        assert not NEG_INF > n
        assert NEG_INF <= n <= POS_INF


def test_infinity_identity_and_negation():
    assert NEG_INF == NEG_INF
    assert NEG_INF != POS_INF
    assert -NEG_INF == POS_INF
    assert -POS_INF == NEG_INF
    assert NEG_INF < POS_INF
    assert NEG_INF <= NEG_INF
    assert POS_INF >= POS_INF
    assert hash(NEG_INF) != hash(POS_INF)


def test_infinity_sorts_deterministically():
    values = [3, NEG_INF, -7, 0]
    assert sorted(values) == [NEG_INF, -7, 0, 3]


def test_format_value_spellings():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(NEG_INF) == "-inf"
    assert format_value(POS_INF) == "inf"
    assert format_value(-42) == "-42"


# -- variables ---------------------------------------------------------------


def test_least_value_per_sort_and_kind():
    assert Variable("p", VarKind.FOUNDED, Sort.BOOL).least_value() is False
    assert Variable("q", VarKind.STANDARD, Sort.BOOL).least_value() is False
    assert Variable("n", VarKind.STANDARD, Sort.INT, 2, 9).least_value() == 2
    assert Variable("m", VarKind.FOUNDED, Sort.INT, 2, 9).least_value() == NEG_INF


def test_admits_respects_sort_kind_and_interval():
    founded = Variable("m", VarKind.FOUNDED, Sort.INT, -3, 3)
    standard = Variable("n", VarKind.STANDARD, Sort.INT, -3, 3)
    flag = Variable("p", VarKind.FOUNDED, Sort.BOOL)
    assert founded.admits(NEG_INF)
    assert founded.admits(0) and founded.admits(-3) and founded.admits(3)
    assert not founded.admits(4)
    assert not founded.admits(POS_INF)
    assert not founded.admits(True)  # bool is not an int value here
    assert not standard.admits(NEG_INF)
    assert flag.admits(True) and flag.admits(False)
    assert not flag.admits(0)
    assert not flag.admits(NEG_INF)
    standard_flag = Variable("q", VarKind.STANDARD, Sort.BOOL)
    for info in (founded, standard, flag, standard_flag):
        for value in (2.0, float("nan"), POS_INF):
            assert not info.admits(value)


# -- extended evaluation ------------------------------------------------------


def atom(*terms, bound):
    return LinearAtom(tuple(terms), bound)


# (coeff, value) per term, bound, verdict: NEG_INF times a positive
# coefficient sinks the sum, times a negative one lifts it, and both at once
# leave it undefined; a -inf bound holds for every defined sum, a +inf bound
# for none, and against a +inf sum it is undefined.
EXTENDED_ARITHMETIC = [
    (((2, 3),), 5, Truth.TRUE),
    (((2, 3),), 7, Truth.FALSE),
    (((2, 3),), NEG_INF, Truth.TRUE),
    (((2, 3),), POS_INF, Truth.FALSE),
    (((-2, 3),), -6, Truth.TRUE),
    (((-2, 3),), 5, Truth.FALSE),
    (((-2, 3),), NEG_INF, Truth.TRUE),
    (((-2, 3),), POS_INF, Truth.FALSE),
    (((1, NEG_INF),), 0, Truth.FALSE),
    (((2, NEG_INF),), -10**9, Truth.FALSE),
    (((2, NEG_INF),), NEG_INF, Truth.TRUE),
    (((2, NEG_INF),), POS_INF, Truth.FALSE),
    (((-1, NEG_INF),), -4, Truth.TRUE),
    (((-2, NEG_INF),), 10**9, Truth.TRUE),
    (((-2, NEG_INF),), NEG_INF, Truth.TRUE),
    (((-2, NEG_INF),), POS_INF, Truth.UNDEFINED),  # though inf >= inf
    (((2, 2), (-1, 1)), 3, Truth.TRUE),
    (((2, 1), (-1, 0)), 3, Truth.FALSE),
    (((1, 100), (1, NEG_INF)), 0, Truth.FALSE),
    (((-1, 100), (-1, NEG_INF)), 0, Truth.TRUE),
    (((1, NEG_INF), (-1, NEG_INF)), 1, Truth.UNDEFINED),
    (((1, NEG_INF), (-1, NEG_INF)), NEG_INF, Truth.UNDEFINED),
    (((1, NEG_INF), (-1, NEG_INF)), POS_INF, Truth.UNDEFINED),
]


def spelled(terms, bound):
    return "+".join(f"{c}*{format_value(v)}" for c, v in terms) \
        + f">={format_value(bound)}"


@pytest.mark.parametrize(
    "terms,bound,verdict", EXTENDED_ARITHMETIC,
    ids=[spelled(terms, bound) for terms, bound, _ in EXTENDED_ARITHMETIC])
def test_eval_linear_extended_arithmetic(terms, bound, verdict):
    a = LinearAtom(tuple((c, i) for i, (c, _) in enumerate(terms)), bound)
    valuation = {i: value for i, (_, value) in enumerate(terms)}
    assert eval_linear(a, valuation) is verdict


def test_eval_clause_member_combination():
    c = Clause(lits=(Literal(0),), atoms=(atom((1, 1), bound=0),))
    assert eval_clause(c, {0: True, 1: -5}) is Truth.TRUE
    assert eval_clause(c, {0: False, 1: 5}) is Truth.TRUE
    assert eval_clause(c, {0: False, 1: -5}) is Truth.FALSE
    mixed = Clause(atoms=(atom((1, 0), (-1, 1), bound=1),))
    assert eval_clause(mixed, {0: NEG_INF, 1: NEG_INF}) is Truth.UNDEFINED
    # one true member outweighs an undefined one
    both = Clause(lits=(Literal(2),),
                  atoms=(atom((1, 0), (-1, 1), bound=1),))
    assert eval_clause(both, {0: NEG_INF, 1: NEG_INF, 2: True}) is Truth.TRUE


def test_empty_clause_is_false():
    assert eval_clause(Clause(), {}) is Truth.FALSE
    assert Clause().is_empty


def test_failing_constraint_reports_first_in_program_order():
    variables = (Variable("p", VarKind.STANDARD, Sort.BOOL),)
    failing = Clause(lits=(Literal(0),))
    program = Program(variables, constraints=(failing, failing))
    assert failing_constraint(program, {0: False}) == (0, Truth.FALSE)
    assert satisfies(program, {0: True})
    assert not satisfies(program, {0: False})


def test_undefined_constraint_is_not_satisfied():
    variables = (Variable("u", VarKind.FOUNDED, Sort.INT, 0, 5),
                 Variable("v", VarKind.FOUNDED, Sort.INT, 0, 5))
    clause = Clause(atoms=(atom((1, 0), (-1, 1), bound=0),))
    program = Program(variables, constraints=(clause,))
    witness = failing_constraint(program, {0: NEG_INF, 1: NEG_INF})
    assert witness == (0, Truth.UNDEFINED)


def test_eval_linear_expr_counts_bools_as_01():
    expr = LinearExpr(((3, 0), (2, 1), (1, 2)), 10)
    value = eval_linear_expr(expr, {0: True, 1: False, 2: -4})
    assert value == 3 + 0 - 4 + 10


def test_eval_linear_expr_infinite_and_mixed():
    expr = LinearExpr(((1, 0), (1, 1)), 0)
    assert eval_linear_expr(expr, {0: NEG_INF, 1: 3}) == NEG_INF
    assert eval_linear_expr(LinearExpr(((-1, 0),), 0), {0: NEG_INF}) == POS_INF
    mixed = LinearExpr(((1, 0), (-1, 1)), 0)
    assert eval_linear_expr(mixed, {0: NEG_INF, 1: NEG_INF}) is None


def test_eval_linear_random_matches_plain_arithmetic(rng):
    """On finite valuations the extended evaluation is ordinary arithmetic."""
    for _ in range(200):
        n = rng.randint(1, 5)
        terms = tuple((rng.choice((-3, -2, -1, 1, 2, 3)), v)
                      for v in range(n))
        a = LinearAtom(terms, rng.randint(-10, 10))
        values = {v: rng.randint(-6, 6) for v in range(n)}
        plain = sum(c * values[v] for c, v in terms) >= a.bound
        assert (eval_linear(a, values) is Truth.TRUE) == plain


# -- validation ---------------------------------------------------------------


def test_validate_program_accepts_the_walkthrough():
    assert validate_program(build_example_one()).ok


def test_validate_program_flags_variable_issues():
    program = Program((
        Variable("a", VarKind.STANDARD, Sort.INT, 0, 5),
        Variable("a", VarKind.STANDARD, Sort.INT),
        Variable("b", VarKind.STANDARD, Sort.INT, 5, 0),
        Variable("c", VarKind.STANDARD, Sort.BOOL, 0, 1),
    ))
    issues = validate_program(program).issues
    assert any("duplicate name 'a'" in i for i in issues)
    assert any("integer without interval" in i for i in issues)
    assert any("empty interval" in i for i in issues)
    assert any("interval on a Boolean" in i for i in issues)


def test_validate_program_flags_clause_issues():
    variables = (Variable("p", VarKind.STANDARD, Sort.BOOL),
                 Variable("n", VarKind.STANDARD, Sort.INT, 0, 3))
    bad = Clause(lits=(Literal(1), Literal(7)),
                 atoms=(LinearAtom(((1, 0), (0, 1), (2, 1), (1, 1)), 0),))
    issues = validate_program(Program(variables, constraints=(bad,))).issues
    assert any("literal on non-Boolean" in i for i in issues)
    assert any("unknown variable 7" in i for i in issues)
    assert any("atom term on non-integer" in i for i in issues)
    assert any("zero coefficient" in i for i in issues)
    assert any("repeats within one atom" in i for i in issues)


def test_validate_program_flags_rule_issues():
    variables = (Variable("p", VarKind.STANDARD, Sort.BOOL),
                 Variable("q", VarKind.FOUNDED, Sort.BOOL),
                 Variable("r", VarKind.FOUNDED, Sort.BOOL))
    head_not_founded = Rule(Clause(lits=(Literal(0),)), 0)
    head_absent = Rule(Clause(lits=(Literal(2),)), 1)
    empty = Rule(Clause(), 1)
    non_monotone = Rule(Clause(lits=(Literal(1), Literal(2),
                                     Literal(2, False))), 1)
    program = Program(variables, rules=(head_not_founded, head_absent,
                                        empty, non_monotone))
    issues = validate_program(program).issues
    assert any("head 'p': head is not a founded variable" in i for i in issues)
    assert any("head 'q': head does not occur" in i for i in issues)
    assert any("empty clause" in i for i in issues)
    assert any("non-monotone occurrence of 'r'" in i for i in issues)


def test_non_monotone_variables_are_named_in_validation_order():
    # Validation iterates the body variables without the head, 42; with the
    # head among them the same ids iterate as 37, 42, 12, 15, 23.
    variables = tuple(Variable(f"v{i}", VarKind.FOUNDED if i == 42
                               else VarKind.STANDARD, Sort.BOOL)
                      for i in range(43))
    lits = tuple(Literal(var, positive) for var in (12, 23, 37, 15)
                 for positive in (True, False))
    rule = Rule(Clause(lits + (Literal(42),)), 42)
    assert validate_program(Program(variables, rules=(rule,))).issues == [
        f"rule 0: non-monotone occurrence of '{name}' in a rule body"
        for name in ("v23", "v12", "v37", "v15")]


def test_an_unknown_variable_in_both_signs_is_no_traceback():
    variables = (Variable("h", VarKind.FOUNDED, Sort.BOOL),)
    rule = Rule(Clause((Literal(0), Literal(9), Literal(9, False))), 0)
    assert validate_program(Program(variables, rules=(rule,))).issues == [
        "rule 0: literal references unknown variable 9",
        "rule 0: literal references unknown variable 9"]


def test_rules_that_differ_in_bounds_and_domains_share_a_shape():
    h, g, x, y = range(4)
    variables = (Variable("h", VarKind.FOUNDED, Sort.INT, 0, 5),
                 Variable("g", VarKind.FOUNDED, Sort.INT, -3, 9),
                 Variable("x", VarKind.FOUNDED, Sort.INT, 1, 2),
                 Variable("y", VarKind.STANDARD, Sort.INT, 1, 2))

    def edge(head, tail, bound, coeff=-1):
        return Rule(Clause(atoms=(LinearAtom(((1, head), (coeff, tail)),
                                             bound),)), head)

    program = Program(variables, rules=(
        edge(h, x, 3), edge(g, h, -7), edge(h, h, 0),  # a self-loop
        edge(h, y, 0), edge(h, x, 0, coeff=-2)))
    assert program.shapes == (0, 0, 1, 2, 3)


def per_rule_rule_issues(program: Program) -> list:
    """validate_program's rule issues, with every rule checked on its own."""
    variables = program.variables
    issues = []
    for i, rule in enumerate(program.rules):
        where = f"rule {i}"
        _check_clause(rule.clause, variables, where, issues)
        if rule.clause.is_empty:
            issues.append(f"{where}: empty clause")
            continue
        if not 0 <= rule.head < len(variables):
            issues.append(f"{where}: unknown head variable {rule.head}")
            continue
        violation = validate_rule(rule, variables)
        if violation is not None:
            issues.append(f"{where}: "
                          f"{violation.describe(variables[rule.head].name)}")
        for var in set(rule.clause.variables()) - {rule.head}:
            if (0 <= var < len(variables) and monotonicity(rule.clause, var)
                    is Monotonicity.NON_MONOTONE):
                issues.append(f"{where}: non-monotone occurrence of "
                              f"'{variables[var].name}' in a rule body")
    return issues


def malformed(rand, rule: Rule, variables) -> Rule:
    """``rule`` with one fault of a random kind added."""
    lits, atoms = list(rule.clause.lits), list(rule.clause.atoms)
    ints = [i for i, v in enumerate(variables) if v.sort is Sort.INT]
    bools = [i for i, v in enumerate(variables) if v.sort is Sort.BOOL]
    head = rule.head
    fault = rand.randrange(11)
    if fault == 0:  # unknown variable, in one or both signs
        var = rand.choice((-1, len(variables), len(variables) + 5))
        lits.append(Literal(var, rand.random() < 0.5))
        if rand.random() < 0.5:
            atoms.append(LinearAtom(((1, var), (-1, var)), 0))
    elif fault == 1:  # wrong sort
        if rand.random() < 0.5:
            lits.append(Literal(rand.choice(ints)))
        else:
            atoms.append(LinearAtom(((-1, rand.choice(bools)),), 1))
    elif fault == 2:
        atoms.append(LinearAtom(((0, rand.choice(ints)),), 1))
    elif fault == 3:  # a variable repeated within one atom
        var = rand.choice(ints)
        atoms.append(LinearAtom(((-1, var), (rand.choice((-1, 1)), var)), 0))
    elif fault == 4:  # the head twice
        if variables[head].sort is Sort.BOOL:
            lits.append(Literal(head, rand.random() < 0.5))
        else:
            atoms.append(LinearAtom(((rand.choice((-1, 1)), head),), 0))
    elif fault == 5:  # the head absent
        lits = [lit for lit in lits if lit.var != head]
        atoms = [LinearAtom(tuple(t for t in atom.terms if t[1] != head),
                            atom.bound) for atom in atoms]
    elif fault == 6:  # a standard head
        head = rand.choice([i for i, v in enumerate(variables)
                            if v.kind is VarKind.STANDARD])
    elif fault == 7:  # a body variable in both signs
        var = rand.choice(bools)
        lits += [Literal(var, True), Literal(var, False)]
    elif fault == 8:
        lits, atoms = [], []
    elif fault == 9:
        head = len(variables) + rand.randrange(3)
    else:  # a bound no source program may hold; the shape stays the same
        bound = rand.choice((POS_INF, NEG_INF, 2**256 + 1, -2**256 - 7))
        if atoms:
            at = rand.randrange(len(atoms))
            atoms[at] = LinearAtom(atoms[at].terms, bound)
        else:
            atoms.append(LinearAtom(((1, rand.choice(ints)),), bound))
    return Rule(Clause(tuple(lits), tuple(atoms)), head)


def test_validation_by_shape_equals_a_per_rule_check(rng):
    """Text for text and in order, on programs whose rules repeat shapes:
    the valid rules of each program on their own, and the whole program
    with faults of every kind validation reports added."""
    markers = ("unknown variable", "literal on non-Boolean",
               "atom term on non-integer", "zero coefficient",
               "repeats within one atom", "head occurs more than once",
               "head does not occur", "head is not a founded variable",
               "non-monotone occurrence", "empty clause",
               "unknown head variable", "infinite bound outside a reduct",
               "bound beyond ±2**256")
    met = dict.fromkeys(markers, 0)
    valid_rules = 0
    for _ in range(600):
        program = random_shaped_program(rng)
        faulty = {int(issue.split(":")[0].split()[1])
                  for issue in per_rule_rule_issues(program)}
        valid = Program(program.variables, rules=tuple(
            rule for i, rule in enumerate(program.rules) if i not in faulty))
        assert validate_program(valid).ok
        valid_rules += len(valid.rules)
        rules = [malformed(rng, rule, program.variables)
                 if rng.random() < 0.3 else rule for rule in program.rules]
        program = Program(program.variables, rules=tuple(rules))
        issues = validate_program(program).issues
        assert issues == per_rule_rule_issues(program)
        for marker in markers:
            met[marker] += any(marker in issue for issue in issues)
    assert valid_rules > 1000
    assert min(met.values()) > 20, met


def test_validate_program_flags_objective_issues():
    variables = (Variable("n", VarKind.STANDARD, Sort.INT, 0, 3),)
    objective = LinearExpr(((0, 0), (1, 0), (2, 9)), 0)
    issues = validate_program(Program(variables,
                                      objective=objective)).issues
    assert any("objective: zero coefficient" in i for i in issues)
    assert any("objective: variable 'n' repeats" in i for i in issues)
    assert any("objective: unknown variable 9" in i for i in issues)


def test_validate_program_flags_integers_beyond_float_range():
    """Sums meet the float infinities, so integers past ±2**256 are refused:
    in a sum with a bottom value they could not convert to a float."""
    big = 2**256
    variables = (Variable("n", VarKind.FOUNDED, Sort.INT, 0, big),
                 Variable("m", VarKind.FOUNDED, Sort.INT, -big - 1, 0))
    rule = Rule(Clause(atoms=(LinearAtom(((1, 0), (-big - 1, 1)), big),)), 0)
    wide = Clause(atoms=(LinearAtom(((1, 0),), -big - 1),))
    objective = LinearExpr(((big + 1, 0), (-big, 1)), big + 1)
    issues = validate_program(Program(variables, constraints=(wide,),
                                      rules=(rule,),
                                      objective=objective)).issues
    assert issues == [
        "variable 'm': interval beyond ±2**256",
        "constraint 0: bound beyond ±2**256",
        "rule 0: coefficient beyond ±2**256 on 'm'",
        "objective: coefficient beyond ±2**256 on 'n'",
        "objective: constant beyond ±2**256",
    ]


def test_validate_valuation_totality_and_domains():
    program = build_example_one()
    good = valuation_of(program, s=0, a=NEG_INF, b=0, x=False, y=False)
    assert validate_valuation(program, good) == []
    partial = valuation_of(program, s=0, a=0, b=0, x=False)
    assert validate_valuation(program, partial) == \
        ["variable 'y' is unassigned"]
    bad = valuation_of(program, s=NEG_INF, a=0, b=0, x=False, y=False)
    assert validate_valuation(program, bad) == \
        ["variable 's' has out-of-domain value -inf"]


def test_index_by_name_matches_declaration_order():
    program = build_example_one()
    assert program.index_by_name == {"s": 0, "a": 1, "b": 2, "x": 3, "y": 4}
    assert program.name(3) == "x"


@pytest.mark.parametrize("value,admitted", [
    (NEG_INF, True), (0, True), (True, False), (POS_INF, False)])
def test_founded_int_domain_edges(value, admitted):
    info = Variable("z", VarKind.FOUNDED, Sort.INT, -1, 1)
    assert info.admits(value) is admitted
