"""Instantiation: parameter binding, expansion, normalization, rule checks."""

import hashlib
import random
from dataclasses import replace

import pytest

from bfasp import (
    BfaspError,
    GroundingError,
    LinearAtom,
    LinearExpr,
    Sort,
    VarKind,
    format_program,
    ground,
    parse_data,
    parse_model,
    validate_program,
)
from bfasp import grounder
from bfasp.codegen import _compiled
from bfasp.model_ast import Not, Span

from conftest import MODELS, build_example_one, keyed_shapes


def g(text: str, data: str = "", founded_default=None):
    model = parse_model(text)
    assigns = parse_data(data) if data else ()
    return ground(model, assigns, founded_default=founded_default)


def path_data(n: int) -> str:
    """Data text for an undirected path over n nodes (edges both ways)."""
    froms, tos = [], []
    for u in range(1, n):
        froms += [u, u + 1]
        tos += [u + 1, u]
    e = len(froms)
    return (f"N = {n}; E = {e}; K = 100;\n"
            f"from = [{', '.join(map(str, froms))}];\n"
            f"to = [{', '.join(map(str, tos))}];\n"
            f"weight = [{', '.join(['10'] * e)}];\n")


# -- the bundled models -----------------------------------------------------------


def test_walkthrough_grounds_to_the_hand_built_program():
    program = ground(parse_model((MODELS / "ex1.bfz").read_text()))
    assert program == build_example_one()


def test_dominating_set_ground_counts():
    program = ground(parse_model((MODELS / "mcds.bfz").read_text()))
    assert validate_program(program).ok
    assert len(program.variables) == 20  # 4 dom + 16 distance cells
    assert len(program.constraints) == 16  # 4 domination + 12 diameter
    assert len(program.rules) == 28  # 4 base + 24 edge relaxations
    assert len(program.objective.terms) == 4


def test_core_model_with_data_file_matches_the_inline_model():
    inline = ground(parse_model((MODELS / "mcds.bfz").read_text()))
    core = ground(parse_model((MODELS / "mcds_core.bfz").read_text()),
                  parse_data((MODELS / "path4.bfd").read_text()),
                  founded_default=(-200, 0))
    assert core == inline


def test_a_second_data_file_compiles_nothing_new():
    # the generated source holds the model alone: data is passed in
    def load(data: str):
        model = parse_model((MODELS / "mcds_core.bfz").read_text())
        return ground(model, parse_data((MODELS / data).read_text()),
                      founded_default=(-200, 0))
    load("path4.bfd")
    before = _compiled.cache_info()
    program = load("cycle8.bfd")
    after = _compiled.cache_info()
    assert len(program.rules) == 8 + 16 * 8
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_an_atom_level_equality_computes_no_unread_truth(monkeypatch):
    # an atom's truth without terms is read only by a one-member
    # comparison; `=` has two members, each made of one atom
    sources = []
    define = grounder.define
    monkeypatch.setattr(grounder, "define", lambda source, names: (
        sources.append(source), define(source, names))[1])
    for text in ["var bool: p;\nconstraint 2 = 2 \\/ p;\n",
                 "var bool: p;\nconstraint 2 >= 2 \\/ p;\n"]:
        assert g(text).constraints == ()
    equal, at_least = sources
    assert "0 >= 0" not in equal
    assert "    t0 = 0 >= 0\n    t1 = (not t0)\n" in at_least


def test_grounding_is_deterministic():
    text = (MODELS / "mcds.bfz").read_text()
    assert ground(parse_model(text)) == ground(parse_model(text))


def test_ground_size_scales_with_the_instance():
    core = (MODELS / "mcds_core.bfz").read_text()
    for n in (3, 5):
        e = 2 * (n - 1)
        program = ground(parse_model(core), parse_data(path_data(n)),
                         founded_default=(-200, 0))
        assert len(program.variables) == n + n * n
        assert len(program.constraints) == n + n * (n - 1)
        assert len(program.rules) == n + e * n


def test_array_cells_are_named_and_ordered_row_major():
    program = ground(parse_model((MODELS / "mcds.bfz").read_text()))
    names = [v.name for v in program.variables]
    assert names[:4] == ["dom[1]", "dom[2]", "dom[3]", "dom[4]"]
    assert names[4:8] == ["d[1,1]", "d[1,2]", "d[1,3]", "d[1,4]"]
    assert names[8] == "d[2,1]"
    dom = program.variables[0]
    assert dom.sort is Sort.BOOL and dom.kind is VarKind.STANDARD
    cell = program.variables[4]
    assert cell.kind is VarKind.FOUNDED and (cell.lo, cell.hi) == (-200, 0)


# -- parameter binding ---------------------------------------------------------------


def test_missing_parameters_are_listed():
    with pytest.raises(GroundingError,
                       match="parameters not fixed by the model or data: N, E"):
        g("int: N;\nint: E;\nvar bool: p;\n")


def test_data_cannot_rebind_or_invent_parameters():
    with pytest.raises(GroundingError, match="'N' is set in the model and in"):
        g("int: N = 3;\nvar bool: p;\n", data="N = 4;")
    with pytest.raises(GroundingError,
                       match="data assigns unknown parameter 'M'"):
        g("int: N;\nvar bool: p;\n", data="N = 3; M = 4;")
    with pytest.raises(GroundingError,
                       match="parameter 'N' is assigned twice in data"):
        g("int: N;\nvar bool: p;\n", data="N = 3; N = 4;")


def test_array_parameter_sizes_and_element_ranges_are_checked():
    with pytest.raises(GroundingError, match="'w' needs 3 element\\(s\\), 2"):
        g("array[1..3] of int: w;\nvar bool: p;\n", data="w = [1, 2];")
    with pytest.raises(GroundingError,
                       match="value 9 for 'w' is outside 1..4"):
        g("array[1..2] of 1..4: w = [2, 9];\nvar bool: p;\n")
    with pytest.raises(GroundingError, match="'w' is a scalar, not an array"):
        g("int: w;\nvar bool: p;\n", data="w = [1];")
    with pytest.raises(GroundingError, match="'w' needs a \\[...\\] value"):
        g("array[1..2] of int: w;\nvar bool: p;\n", data="w = 7;")


def test_parameter_arithmetic_in_declarations():
    program = g("int: N = 3;\nvar 0..N*N-1: n;\nvar bool: p;\n")
    assert (program.variables[0].lo, program.variables[0].hi) == (0, 8)


def test_index_errors_carry_the_binding_note():
    with pytest.raises(GroundingError,
                       match=r"index 4 is outside 1\.\.3 in 'w' \(i=4\)"):
        g("array[1..3] of int: w = [5, 6, 7];\nvar 0..9: n;\n"
          "constraint forall (i in 1..4) (n >= w[i]);\n")
    with pytest.raises(GroundingError,
                       match=r"index 4 is outside 1\.\.3 in 'w' \(i=4\)"):
        g("array[1..3] of int: w = [5, 6, 7];\nvar bool: p;\n"
          "constraint forall (i in 1..4, j in 1..w[i]) (p);\n")


def test_more_than_two_dimensions_are_rejected():
    with pytest.raises(GroundingError, match="1- and 2-dimensional"):
        g("array[1..2, 1..2, 1..2] of var bool: c;\n")


MIXED = "[1, 2+3, -4, N]"


@pytest.mark.parametrize("in_data", [False, True])
def test_literal_and_computed_elements_bind_alike(in_data):
    # literal elements are read as they are, the others evaluated
    decl = "array[1..4] of int: a" + ("" if in_data else f" = {MIXED}")
    program = g(f"int: N = 7;\n{decl};\nvar -9..9: x;\n"
                "constraint forall (i in 1..4) (x >= a[i]);\n",
                data=f"a = {MIXED};" if in_data else "")
    assert [c.atoms[0].bound for c in program.constraints] == [1, 5, -4, 7]


@pytest.mark.parametrize("elements,elem_range,model,data", [
    (MIXED, "-4..4", "<model>:2:27: value 5 for 'a' is outside -4..4",
     "<data>:1:5: value 5 for 'a' is outside -4..4"),
    ("[5, 2+3, -4, N]", "0..4", "<model>:2:26: value 5 for 'a' is outside "
     "0..4", "<data>:1:5: value 5 for 'a' is outside 0..4"),
])
def test_an_element_outside_its_range_is_reported_at_the_array(
        elements, elem_range, model, data):
    decl = f"int: N = 7;\narray[1..4] of {elem_range}: a"
    for text, assigns, expected in [
            (f"{decl} = {elements};\nvar bool: p;\n", "", model),
            (f"{decl};\nvar bool: p;\n", f"a = {elements};", data)]:
        with pytest.raises(GroundingError) as caught:
            g(text, data=assigns)
        assert str(caught.value) == expected


def weighted_graph_model(rows: bool) -> str:
    """The shortest-path model over 1-D arrays, or over one-row 2-D arrays
    (``rows``), whose accesses take the generic path; row-major layout
    gives both the same cells in the same order."""
    dims, at = ("1..1, ", "1, ") if rows else ("", "")
    return ("int: N;\nint: E;\nint: S;\n"
            f"array[{dims}1..E] of 1..N: from;\n"
            f"array[{dims}1..E] of int: to;\n"
            f"array[{dims}1..E] of int: weight;\n"
            f"array[{dims}1..N] of var int: d :: founded;\n"
            f"rule (d[{at}S] >= 0 :: head(d[{at}S]));\n"
            "rule (forall (e in 1..E)\n"
            f"    (d[{at}to[{at}e]] >= d[{at}from[{at}e]] - weight[{at}e] "
            f":: head(d[{at}to[{at}e]])));\n")


def weighted_graph_data(rand, n: int, e: int) -> str:
    edges = [(rand.randint(1, n), rand.randint(1, n), rand.randint(0, 9))
             for _ in range(e)]  # self-loops and repeated edges included
    return (f"N = {n}; E = {e}; S = {rand.randint(1, n)};\n"
            + "".join(f"{name} = {[edge[k] for edge in edges]};\n"
                      for k, name in enumerate(["from", "to", "weight"])))


@pytest.mark.parametrize("seed", range(4))
def test_one_index_access_grounds_like_the_generic_path(seed):
    rand = random.Random(seed)
    data = weighted_graph_data(rand, rand.randint(1, 12), rand.randint(0, 40))
    flat, rows = (g(weighted_graph_model(r), data, founded_default=(-99, 0))
                  for r in (False, True))
    assert flat.rules == rows.rules
    assert flat.shapes == rows.shapes
    assert [replace(v, name="") for v in flat.variables] == \
        [replace(v, name="") for v in rows.variables]
    assert format_program(flat).replace("d[", "d[1,") == format_program(rows)


def test_an_index_outside_a_variable_array_keeps_its_text_and_span():
    data = "N = 3; E = 3; S = 1;\nfrom = [1, 2, 3];\nto = [2, 7, 1];\n" \
           "weight = [1, 2, 3];\n"
    for rows, col in [(False, 49), (True, 64)]:
        with pytest.raises(GroundingError) as caught:
            g(weighted_graph_model(rows), data, founded_default=(-9, 0))
        assert str(caught.value) == \
            f"<model>:10:{col}: index 7 is outside 1..3 in 'd' (e=2)"
        assert caught.value.span == Span("<model>", 10, col)


# -- variable intervals ----------------------------------------------------------------


def test_founded_default_fills_missing_intervals():
    program = g("var int: d :: founded;\nvar bool: p;\n",
                founded_default=(-5, 0))
    assert (program.variables[0].lo, program.variables[0].hi) == (-5, 0)


def test_missing_intervals_are_errors():
    with pytest.raises(GroundingError,
                       match="founded variable 'd' has no interval and no "
                             "default interval was supplied"):
        g("var int: d :: founded;\n")
    with pytest.raises(GroundingError, match="variable 'n' needs an interval"):
        g("var int: n;\n", founded_default=(-5, 0))


# -- clause flattening -------------------------------------------------------------------


def test_comparison_normalization():
    program = g("var 0..9: n;\nvar 0..9: m;\n"
                "constraint n < 3;\n"
                "constraint n > m;\n"
                "constraint n <= m;\n"
                "constraint not (n >= 3);\n")
    lt, gt, le, not_ge = program.constraints
    assert lt.atoms == (LinearAtom(((-1, 0),), -2),)
    assert gt.atoms == (LinearAtom(((1, 0), (-1, 1)), 1),)
    assert le.atoms == (LinearAtom(((1, 1), (-1, 0)), 0),)
    assert not_ge.atoms == (LinearAtom(((-1, 0),), -2),)


def test_equality_splits_and_disequality_disjoins():
    program = g("var 0..9: n;\nvar 0..9: m;\n"
                "constraint n = m;\nconstraint n != m;\n")
    assert len(program.constraints) == 3
    first, second, third = program.constraints
    assert len(first.atoms) == 1 and len(second.atoms) == 1
    assert len(third.atoms) == 2  # one clause, two members


def test_equality_with_constant_sides_drops_the_members_that_hold():
    # each side of `=` is one member: a constant one that holds drops its
    # clause, one that fails leaves the empty clause, and p stays
    program = g("var bool: p; var 0..3: n;\n"
                "constraint 2 = 2 \\/ p;\n"
                "constraint 2 = 3 \\/ p;\n"
                "constraint n - n = 0 \\/ p;\n"
                "constraint n = 2 \\/ p;\n")
    assert format_program(program).splitlines() == [
        "var bool standard p;",
        "var int 0..3 standard n;",
        "constraint p;",
        "constraint p | 1*n >= 2;",
        "constraint p | -1*n >= -2;",
    ]


def test_static_truths_vanish_and_static_falsehoods_stay():
    program = g("var bool: p;\n"
                "constraint 1 >= 0;\n"
                "constraint p \\/ 2 >= 1;\n"
                "constraint 0 >= 1;\n")
    assert len(program.constraints) == 1
    assert program.constraints[0].is_empty


def test_statically_true_rule_clauses_are_dropped():
    # a tautological clause can never force its head, so nothing is lost
    program = g("var 0..9: a :: founded;\n"
                "rule (a >= 0 \\/ 2 >= 1 :: head(a));\n")
    assert program.rules == ()


def test_empty_aggregates():
    program = g("var bool: p;\n"
                "constraint forall (i in 1..0) (p);\n"
                "constraint exists (i in 1..0) (p);\n")
    # an empty forall holds vacuously; an empty exists cannot hold
    assert len(program.constraints) == 1
    assert program.constraints[0].is_empty


def test_where_guards_filter_instances():
    program = g("var bool: p;\nvar 0..9: n;\n"
                "constraint forall (i in 1..4 where i != 2) (n >= i);\n")
    assert len(program.constraints) == 3


def test_reverse_implication_in_a_guard_reads_as_in_a_body():
    # i = 1 <- i = 2 is i = 1 \/ not i = 2: it keeps i = 1 and i = 3
    program = g("var 0..9: n;\nconstraint forall "
                "(i in 1..3 where i = 1 <- i = 2) (n >= i);\n")
    assert [c.atoms[0].bound for c in program.constraints] == [1, 3]


# each guard's truth for a binding of i, as Python reads it
_GUARD_TRUTHS = {
    "not (i = 2)": lambda i: not i == 2,
    "i > 1 -> i < 4": lambda i: not i > 1 or i < 4,
    "i > 1 /\\ i != 3": lambda i: i > 1 and i != 3,
    "not (i = 1 \\/ i = 4) -> i = 2":
        lambda i: not (not (i == 1 or i == 4)) or i == 2,
    "i = 1 <- i = 2": lambda i: i == 1 or not i == 2,
    "i < 3 /\\ not (i = 1) -> i = 5":
        lambda i: not (i < 3 and not i == 1) or i == 5,
}


@pytest.mark.parametrize("guard", sorted(_GUARD_TRUTHS))
def test_guard_connectives_keep_the_bindings_python_keeps(guard):
    program = g("var 0..9: n;\nconstraint forall "
                f"(i in 1..5 where {guard}) (n >= i);\n")
    assert [c.atoms[0].bound for c in program.constraints] == \
        [i for i in range(1, 6) if _GUARD_TRUTHS[guard](i)]


def test_nested_guard_connectives_evaluate_only_what_decides_them():
    # w[i] for i = 4, and w[i + 1] for i = 3, are outside w; each sits in
    # a chain that an earlier operand decides for that binding
    program = g("array[1..3] of int: w = [1, 2, 3];\nvar 0..9: n;\n"
                "constraint forall (i in 1..4 where i = 4 \\/ (i = 1 \\/ "
                "(w[i] > 2 /\\ (i = 3 \\/ w[i + 1] > 0)))) (n >= i);\n")
    assert [c.atoms[0].bound for c in program.constraints] == [1, 3, 4]


@pytest.mark.parametrize("flat,nested", [
    ("constraint forall (i in 1..3, j in 1..i) (x[i, j]);",
     "constraint forall (i in 1..3) (forall (j in 1..i) (x[i, j]));"),
    ("constraint sum (i in 1..3, j in i..3) (c[i, j]) >= 2;",
     "constraint sum (i in 1..3) (sum (j in i..3) (c[i, j])) >= 2;"),
], ids=["forall", "sum"])
def test_a_generator_range_may_name_an_earlier_generator(flat, nested):
    decls = ("array[1..3, 1..3] of var bool: x;\n"
             "array[1..3, 1..3] of var 0..1: c;\n")
    program = g(decls + flat + "\n")
    assert program == g(decls + nested + "\n")
    assert program.constraints


@pytest.mark.parametrize("nested", [
    "rule (forall (i in 1..3) (forall (j in i..3 where i != j) (BODY)));",
    "rule (forall (i in 1..3) (forall (j in i..3) (forall (k in 1..2 "
    "where i != j /\\ k = 1) (BODY))));",
], ids=["two", "three"])
def test_a_rule_over_nested_forall_levels_grounds_as_one_level(nested):
    decls = "var bool: p;\narray[1..3] of var -9..0: d :: founded;\n"
    body = "d[j] >= d[i] + 1 \\/ p :: head(d[j])"
    flat = ("rule (forall (i in 1..3, j in i..3 where i != j) "
            f"({body}));")
    program = g(decls + nested.replace("BODY", body) + "\n")
    assert format_program(program) == format_program(g(decls + flat + "\n"))
    assert len(program.rules) == 3


def _flat(op: str, term: str, n: int = 3000) -> str:
    return f" {op} ".join([term] * n)


@pytest.mark.parametrize("text,data,last_line", [
    ("var 0..9: n;\nconstraint " + _flat("+", "n") + " >= 0;\n", "",
     "constraint 3000*n >= 0;"),
    ("var 0..9: n;\nconstraint " + _flat("-", "n") + " <= 0;\n", "",
     "constraint 2998*n >= 0;"),
    ("var bool: p;\nvar bool: q;\nconstraint q \\/ "
     + _flat("/\\", "p") + ";\n", "", "constraint q | p;"),
    ("var bool: p;\nconstraint forall (i in 1..2 where "
     + _flat("/\\", "i >= 2") + ") (p);\n", "", "constraint p;"),
    ("int: k;\nvar 0..9: n;\nconstraint n >= k;\n",
     "k = " + _flat("-", "1") + ";\n", "constraint 1*n >= -2998;"),
    ("var 0..9: n;\nsolve minimize " + _flat("+", "n") + ";\n", "",
     "minimize 3000*n;"),
], ids=["sum", "minus", "conjunction", "where", "data", "objective"])
def test_flat_chains_of_three_thousand_terms_ground(text, data, last_line):
    program = g(text, data)
    assert format_program(program).splitlines()[-1] == last_line


def test_implication_and_nesting_flatten_to_cnf():
    program = g("var bool: p;\nvar bool: q;\nvar bool: r;\n"
                "constraint p /\\ q -> r;\n")
    (clause,) = program.constraints
    polarities = {(l.var, l.positive) for l in clause.lits}
    assert polarities == {(0, False), (1, False), (2, True)}


def test_expansion_budget_is_enforced():
    lines = ["var bool: p;\n", "array[1..15] of var bool: u;\n",
             "array[1..15] of var bool: v;\n",
             "constraint exists (i in 1..15) (u[i] /\\ v[i]);\n"]
    with pytest.raises(GroundingError, match="flattening needs more than"):
        g("".join(lines))
    # every pair tried counts, tautologies too: 2 + 4 * 4999 pairs fit the
    # 20,000 cap, and one more instance (ERROR_CASES in
    # test_ground_output.py) does not
    program = g("var bool: p;\n"
                "constraint exists (i in 1..5000) (p /\\ not p);\n")
    assert format_program(program).splitlines()[-2:] == \
        ["constraint p;", "constraint ~p;"]


def test_duplicate_members_collapse():
    program = g("var bool: p;\nconstraint p \\/ p;\n")
    assert len(program.constraints[0].lits) == 1


def test_complementary_members_make_a_tautology():
    program = g("var bool: p;\nconstraint p \\/ not p;\n")
    assert program.constraints == ()


# -- rule instantiation ---------------------------------------------------------------


def test_self_loop_cancels_the_head_occurrence():
    # with from = to the head terms fold away, leaving only the carrier
    text = ("int: E = 1;\n"
            "array[1..E] of int: from = [1];\n"
            "array[1..E] of int: to = [1];\n"
            "var bool: p;\n"
            "array[1..2] of var -9..0: d :: founded;\n"
            "rule (forall (e in 1..E)"
            " (d[from[e]] >= d[to[e]] + 1 \\/ p :: head(d[from[e]])));\n")
    with pytest.raises(GroundingError,
                       match=r"head 'd\[1\]': head does not occur in the "
                             r"clause \(e=1\)"):
        g(text)


def test_self_loops_that_fold_to_truths_are_dropped():
    # the same cancellation with a slack bound is a tautology, not an error
    program = g("array[1..2] of var -9..0: d :: founded;\n"
                "rule (forall (i in 1..2)"
                " (d[i] >= d[i] - 1 :: head(d[i])));\n")
    assert program.rules == ()


_APART_HEADER = ("array[1..5] of var 0..9: x :: founded;\n"
                 "array[1..5] of var bool: p :: founded;\n"
                 "var bool: q;\n")


@pytest.mark.parametrize("rule, written, apart", [
    ("rule (forall (i in 1..4) (x[i] >= x[i + 1] + 1 :: head(x[{}])));",
     "i", "i + 0"),
    ("rule (forall (i in 1..4) (x[5 - i] >= x[i] + 2 \\/ q "
     ":: head(x[{}])));", "5 - i", "4 - i + 1"),
    ("rule (forall (i in 1..4) (p[i] \\/ not p[i + 1] \\/ q "
     ":: head(p[{}])));", "i", "i * 1"),
])
def test_a_head_written_apart_from_the_body_grounds_as_written_alike(
        rule, written, apart):
    # The head reference is none of the body's, so the rule's shape is
    # keyed in full; it comes out as when the head is written as the body's.
    alike = g(_APART_HEADER + rule.format(written) + "\n")
    program = g(_APART_HEADER + rule.format(apart) + "\n")
    assert len(program.rules) == 4
    assert format_program(program) == format_program(alike)
    assert vars(program)["shapes"] == vars(alike)["shapes"] \
        == keyed_shapes(program)


def test_rule_head_must_be_founded_and_increasing():
    with pytest.raises(GroundingError,
                       match="head 'p': head is not a founded variable"):
        g("var bool: p;\nrule (p :: head(p));\n")
    with pytest.raises(GroundingError,
                       match="head 'p': clause is not increasing"):
        g("var bool: p :: founded;\nrule (not p :: head(p));\n")


def test_rule_bodies_must_be_monotone():
    with pytest.raises(GroundingError,
                       match="non-monotone in 'n'"):
        g("var 0..9: a :: founded;\nvar 0..9: n;\n"
          "rule (a >= -n <- n >= 3 :: head(a));\n")


def test_the_grounder_names_the_first_non_monotone_variable_it_meets():
    # Iterating the rule's variables, ids 0 (the head), 1 and 8, meets 1
    # before 8; without the head, as validation iterates them, 8 comes first.
    with pytest.raises(GroundingError) as caught:
        g("var 0..99: a :: founded;\narray[1..8] of var 0..9: x;\n"
          "rule (a >= 1 \\/ x[1] >= 1 \\/ -x[1] >= 0 \\/ x[8] >= 1 "
          "\\/ -x[8] >= 0 :: head(a));\n")
    assert str(caught.value) == \
        "<model>:3:1: rule clause is non-monotone in 'x[1]'"


def test_nesting_past_the_recursion_limit_is_a_grounding_error():
    # the parser refuses such input, but a model built by hand can hold it
    model = parse_model("var bool: p;\nconstraint p;\n")
    item = model.constraints[0]
    expr = item.expr
    for _ in range(5000):
        expr = Not(expr, item.span)
    with pytest.raises(GroundingError) as caught:
        ground(replace(model, constraints=(replace(item, expr=expr),)))
    assert str(caught.value) == "input nested too deeply to process"


def test_rules_must_flatten_to_one_clause():
    with pytest.raises(GroundingError,
                       match="a rule must flatten to a single clause, this "
                             "one needs 2"):
        g("var bool: p :: founded;\nvar bool: q;\n"
          "rule (p <- q \\/ not q :: head(p));\n")


def test_rule_errors_name_the_failing_instance():
    text = ("var bool: p;\n"
            "array[1..2] of var -9..0: d :: founded;\n"
            "rule (forall (i in 1..2, j in 1..2)"
            " (d[i] >= d[j] + 1 \\/ p :: head(d[i])));\n")
    with pytest.raises(GroundingError, match=r"\(i=1, j=1\)"):
        g(text)


# -- integers, Booleans, and the objective ------------------------------------------


def test_sort_confusion_is_reported():
    with pytest.raises(GroundingError, match="'n' is an integer, not a"):
        g("var 0..9: n;\nconstraint n;\n")
    with pytest.raises(GroundingError,
                       match="'p' is Boolean; it cannot appear in arithmetic"):
        g("var bool: p;\nconstraint p + 1 >= 1;\n")
    with pytest.raises(GroundingError, match="non-linear product"):
        g("var 0..9: n;\nvar 0..9: m;\nconstraint n * m >= 0;\n")
    with pytest.raises(GroundingError, match="sum is not a condition"):
        g("array[1..2] of int: w = [1, 2];\nvar bool: p;\n"
          "constraint exists (i in 1..2) (sum (j in 1..2) (w[j]));\n")


def test_objective_collects_bool2int_and_folds_zeros():
    program = g("var bool: p;\nvar bool: q;\nvar 0..5: n;\n"
                "solve minimize bool2int(p) + 2*bool2int(q) + n - n + 3;\n")
    assert program.objective == LinearExpr(((1, 0), (2, 1)), 3)


def test_bool2int_requires_a_boolean_variable():
    with pytest.raises(GroundingError, match="bool2int needs a Boolean"):
        g("var 0..5: n;\nsolve minimize bool2int(n);\n")
    # a parameter is no variable at all
    with pytest.raises(GroundingError, match="bool2int needs a Boolean"):
        g("int: k = 1;\nvar 0..5: n;\nsolve minimize bool2int(k) + n;\n")


def test_sum_objective_merges_terms():
    program = g("array[1..3] of var 0..5: c;\n"
                "solve minimize sum (i in 1..3) (2 * c[i]);\n")
    assert program.objective == LinearExpr(((2, 0), (2, 1), (2, 2)), 0)


# -- pinned flattening ----------------------------------------------------------------

# Every random model declares these names; ``w`` is a parameter array, ``a``
# the founded array that rules raise.
_HEADER = ("array[1..3] of int: w = [{}, {}, {}];\n"
           "var bool: p;\nvar bool: q;\nvar bool: r;\n"
           "array[1..3] of var bool: b;\n"
           "var 0..3: n;\nvar 0..3: m;\n"
           "array[1..3] of var 0..3: x;\n"
           "array[1..3] of var 0..5: a :: founded;\n")
_GENERATOR_NAMES = ("i", "j", "k")

# The digest of the outcomes of test_random_model_flattening_is_pinned.
FLATTENING_DIGEST = "4d7e3cef15b05a74"


def _index(rand, scope) -> str:
    choices = ["1", "2", "3"] + list(scope)
    if scope and rand.random() < 0.1:
        choices.append(f"{scope[0]} + 1")  # outside 1..3 for one binding
    return rand.choice(choices)


def _term(rand, scope) -> str:
    pick = rand.randrange(8)
    if pick == 0:
        return str(rand.randint(-2, 3))
    if pick == 1 and scope:
        return rand.choice(scope)
    if pick == 2:
        return f"w[{_index(rand, scope)}]"
    if pick == 3:
        return f"x[{_index(rand, scope)}]"
    if pick == 4:
        name = next((g for g in _GENERATOR_NAMES if g not in scope), None)
        if name is not None:
            return f"sum ({name} in 1..2) (x[{name}])"
    if pick == 5:
        return f"{rand.randint(-2, 2)} * {rand.choice(['n', 'm'])}"
    return rand.choice(["n", "m"])


def _int_expr(rand, scope) -> str:
    text = _term(rand, scope)
    for _ in range(rand.randrange(3)):
        text += f" {rand.choice('+-')} {_term(rand, scope)}"
    return text


def _comparison(rand, scope) -> str:
    op = rand.choice(["=", "!=", "<", "<=", ">", ">="])
    if rand.random() < 0.2:  # folds to a constant, or cancels its terms
        side = rand.choice(["n", "x[1]", "2"])
        return f"{side} {op} {side} + {rand.randint(-1, 1)}"
    return f"{_int_expr(rand, scope)} {op} {_int_expr(rand, scope)}"


def _condition(rand, scope, depth: int) -> str:
    pick = rand.randrange(10) if depth > 0 else rand.randrange(3)
    if pick == 0:
        return rand.choice(["p", "q", "r", "not p", "not q"])
    if pick == 1:
        return f"b[{_index(rand, scope)}]"
    if pick == 2:
        return _comparison(rand, scope)
    if pick == 3:
        return f"not ({_condition(rand, scope, depth - 1)})"
    if pick in (4, 5, 6, 7):
        op = ["\\/", "/\\", "->", "<-"][pick - 4]
        left = _condition(rand, scope, depth - 1)
        if rand.random() < 0.2:  # the same member again, or its negation
            right = rand.choice([left, f"not ({left})"])
        else:
            right = _condition(rand, scope, depth - 1)
        return f"({left}) {op} ({right})"
    name = next((g for g in _GENERATOR_NAMES if g not in scope), None)
    if name is None:
        return _condition(rand, scope, depth - 1)
    kind = rand.choice(["exists", "forall"])
    where = ""
    if rand.random() < 0.5:
        other = rand.choice(list(scope) + ["2"])
        where = f" where {name} {rand.choice(['=', '!=', '<'])} {other}"
    body = _condition(rand, scope + (name,), depth - 1)
    return f"{kind} ({name} in 1..{rand.randint(0, 3)}{where}) ({body})"


def _random_models(rand) -> list:
    """One random model of constraints and, at random, one of a rule, each
    under a random header: a faulty rule must not hide the constraints."""
    header = _HEADER.format(*(rand.randint(0, 3) for _ in range(3)))
    constraints = "".join(f"constraint {_condition(rand, (), 3)};\n"
                          for _ in range(rand.randint(1, 3)))
    models = [header + constraints]
    if rand.random() < 0.5:
        body = _condition(rand, ("i",), 2)
        head = f"a[i] >= {_int_expr(rand, ('i',))}"
        op = rand.choice(["<-", "\\/"])
        models.append(f"{header}rule (forall (i in 1..3) ({head} {op} "
                      f"({body}) :: head(a[i])));\n")
    return models


def _flattened(text: str) -> str:
    try:
        program = ground(parse_model(text))
    except BfaspError as err:
        return f"{type(err).__name__}: {err}"
    # the grounder hands its own shape numbers on to the program
    assert vars(program)["shapes"] == keyed_shapes(program)
    return format_program(program)


def test_random_model_flattening_is_pinned():
    # A digest of the printed ground program, or the error text, of each
    # model; it changes exactly when some flattening changes.
    rand = random.Random(20261019)
    outcomes = [_flattened(text) for _ in range(200)
                for text in _random_models(rand)]
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
    assert digest == FLATTENING_DIGEST


# Random models over 2-D arrays whose cells are picked by parameter
# accesses (``y[w[i], j]``, ``b[w[i]]``), with repeated index expressions,
# ``where`` guards that read parameter arrays, and nested indices that fall
# outside their arrays for some bindings: ``w`` and ``t`` hold 0..4, and
# their arrays' ranges are 1..3.
_NESTED_HEADER = ("array[1..3] of int: w = [{}, {}, {}];\n"
                  "array[1..2, 1..3] of int: t = [{}, {}, {}, {}, {}, {}];\n"
                  "var bool: p;\nvar bool: q;\n"
                  "array[1..3] of var bool: b;\n"
                  "array[1..3, 1..3] of var bool: c;\n"
                  "var 0..3: n;\n"
                  "array[1..3] of var 0..3: x;\n"
                  "array[1..3, 1..3] of var 0..3: y;\n"
                  "array[1..3, 1..3] of var 0..5: a :: founded;\n")

# The digest of the outcomes of test_random_nested_index_grounding_is_pinned.
NESTED_INDEX_DIGEST = "220096471438981b"


class _NestedModel:
    """One random model: index expressions already made are reused, so
    that the same access recurs within an item."""

    def __init__(self, rand):
        self.rand = rand
        self.made = []

    def index(self, scope, depth=2) -> str:
        rand = self.rand
        reuse = [i for i in self.made if all(
            name in scope for name in _GENERATOR_NAMES if name in i)]
        if reuse and rand.random() < 0.35:
            return rand.choice(reuse)
        pick = rand.randrange(6) if depth > 0 else rand.randrange(2)
        if pick == 0 or not scope and pick == 1:
            text = rand.choice(["1", "2", "3"])
        elif pick == 1:
            text = rand.choice(scope)
        elif pick == 2:
            text = f"w[{self.index(scope, depth - 1)}]"
        elif pick == 3:
            text = (f"t[{rand.choice(['1', '2'])}, "
                    f"{self.index(scope, depth - 1)}]")
        elif pick == 4 and scope and rand.random() < 0.3:
            text = f"{rand.choice(scope)} + {rand.choice(['1', 'w[1]'])}"
        else:
            text = f"4 - {self.index(scope, depth - 1)}"
        if "w[" in text or "t[" in text:
            self.made.append(text)
        return text

    def cell(self, scope, one: str, two: str) -> str:
        if self.rand.random() < 0.5:
            return f"{one}[{self.index(scope)}]"
        return f"{two}[{self.index(scope)}, {self.index(scope)}]"

    def term(self, scope) -> str:
        rand = self.rand
        pick = rand.randrange(8)
        if pick == 0:
            return str(rand.randint(-2, 3))
        if pick == 1 and scope:
            return rand.choice(scope)
        if pick == 2:
            return f"w[{self.index(scope)}]"
        if pick == 3:
            return f"t[2, {self.index(scope)}]"
        if pick == 4:
            return f"w[{self.index(scope)}] * {self.cell(scope, 'x', 'y')}"
        if pick == 5:
            name = next((g for g in _GENERATOR_NAMES if g not in scope), None)
            if name is not None:
                return (f"sum ({name} in 1..w[{self.index(scope)}]) "
                        f"({self.cell(scope + (name,), 'x', 'y')})")
        if pick == 6:
            return "n"
        return self.cell(scope, "x", "y")

    def int_expr(self, scope) -> str:
        text = self.term(scope)
        for _ in range(self.rand.randrange(3)):
            text += f" {self.rand.choice('+-')} {self.term(scope)}"
        return text

    def comparison(self, scope) -> str:
        op = self.rand.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{self.int_expr(scope)} {op} {self.int_expr(scope)}"

    def where(self, scope) -> str:
        rand = self.rand
        guard = (f"{self.index(scope)} {rand.choice(['=', '!=', '<'])} "
                 f"{self.index(scope)}")
        if rand.random() < 0.3:
            connective = rand.choice(["/\\", "\\/"])
            guard += f" {connective} w[{self.index(scope)}] > 1"
        return guard

    def condition(self, scope, depth: int) -> str:
        rand = self.rand
        pick = rand.randrange(9) if depth > 0 else rand.randrange(3)
        if pick == 0:
            return rand.choice(["p", "q", "not p"])
        if pick == 1:
            return self.cell(scope, "b", "c")
        if pick == 2:
            return self.comparison(scope)
        if pick == 3:
            return f"not ({self.condition(scope, depth - 1)})"
        if pick in (4, 5, 6):
            op = ["\\/", "/\\", "->"][pick - 4]
            return (f"({self.condition(scope, depth - 1)}) {op} "
                    f"({self.condition(scope, depth - 1)})")
        name = next((g for g in _GENERATOR_NAMES if g not in scope), None)
        if name is None:
            return self.condition(scope, depth - 1)
        inner = scope + (name,)
        where = f" where {self.where(inner)}" if rand.random() < 0.6 else ""
        return (f"{rand.choice(['exists', 'forall'])} ({name} in "
                f"1..{rand.randint(0, 3)}{where}) "
                f"({self.condition(inner, depth - 1)})")

    def rule(self) -> str:
        rand = self.rand
        scope = ("i", "j")
        head = f"a[{self.index(scope)}, {self.index(scope)}]"
        where = f" where {self.where(scope)}" if rand.random() < 0.5 else ""
        if rand.random() < 0.5:  # the shape of an edge relaxation
            body = (f"{head} >= a[{self.index(scope)}, j] - "
                    f"w[{self.index(scope)}] <- b[{self.index(scope)}] /\\ "
                    f"b[{self.index(scope)}]")
        else:
            op = rand.choice(["<-", "\\/"])
            body = (f"{head} >= {self.int_expr(scope)} {op} "
                    f"({self.condition(scope, 1)})")
        return (f"rule (forall (i in 1..3, j in 1..2{where}) "
                f"({body} :: head({head})));\n")


def _nested_models(rand) -> list:
    """A random model of constraints (and at times an objective), and at
    random one of rules, under one random header."""
    header = _NESTED_HEADER.format(*(rand.choice([0, 4] + [1, 2, 3] * 6)
                                     for _ in range(9)))
    make = _NestedModel(rand)
    text = "".join(f"constraint {make.condition((), 3)};\n"
                   for _ in range(rand.randint(1, 3)))
    if rand.random() < 0.3:
        text += (f"solve minimize sum (i in 1..3) "
                 f"({make.cell(('i',), 'x', 'y')});\n")
    models = [header + text]
    if rand.random() < 0.6:
        models.append(header + "".join(make.rule()
                                       for _ in range(rand.randint(1, 2))))
    return models


def test_random_nested_index_grounding_is_pinned():
    # as test_random_model_flattening_is_pinned, over the models above
    rand = random.Random(20261020)
    outcomes = [_flattened(text) for _ in range(300)
                for text in _nested_models(rand)]
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
    assert digest == NESTED_INDEX_DIGEST
