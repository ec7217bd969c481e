"""Surface syntax: lexing, precedence, spans, and name resolution."""

import pytest

from bfasp import ParseError, Sort, parse_data, parse_model
from bfasp.model_ast import (
    Agg,
    ArrayLit,
    BinOp,
    Comparison,
    HeadAnn,
    Ident,
    IntLit,
    Neg,
    Not,
)

from conftest import MODELS


def model_expr(text: str):
    """Parse one constraint and return its expression tree."""
    model = parse_model("var bool: p;\nvar bool: q;\nvar bool: r;\n"
                        "var 0..9: n;\nvar 0..9: m;\n"
                        f"constraint {text};\n")
    return model.constraints[0].expr


# -- whole files ----------------------------------------------------------------


def test_bundled_walkthrough_item_counts():
    model = parse_model((MODELS / "ex1.bfz").read_text(), "ex1.bfz")
    assert len(model.params) == 0
    assert len(model.vars) == 5
    assert [v.name for v in model.vars] == ["s", "a", "b", "x", "y"]
    assert [v.founded for v in model.vars] == [False, True, True, True, True]
    assert len(model.constraints) == 0
    assert len(model.rules) == 5
    assert model.solve is None


def test_bundled_dominating_set_item_counts():
    model = parse_model((MODELS / "mcds.bfz").read_text(), "mcds.bfz")
    assert len(model.params) == 6
    assert [p.name for p in model.params] == \
        ["N", "E", "K", "from", "to", "weight"]
    assert len(model.vars) == 2
    assert model.vars[1].dims and len(model.vars[1].dims) == 2
    assert len(model.constraints) == 2
    assert len(model.rules) == 2
    assert model.solve is not None and model.solve.objective is not None


def test_data_file_items():
    assigns = parse_data((MODELS / "path4.bfd").read_text(), "path4.bfd")
    assert [a.name for a in assigns] == \
        ["N", "E", "K", "from", "to", "weight"]
    assert isinstance(assigns[0].value, IntLit)
    assert isinstance(assigns[3].value, ArrayLit)
    assert len(assigns[3].value.elements) == 6


# -- precedence --------------------------------------------------------------------


def test_conjunction_binds_tighter_than_disjunction():
    expr = model_expr(r"p \/ q /\ r")
    assert isinstance(expr, BinOp) and expr.op == "\\/"
    assert isinstance(expr.right, BinOp) and expr.right.op == "/\\"


def test_implication_is_weakest():
    expr = model_expr(r"p /\ q -> r \/ p")
    assert isinstance(expr, BinOp) and expr.op == "->"
    assert expr.left.op == "/\\" and expr.right.op == "\\/"
    expr = model_expr(r"p <- q /\ r")
    assert isinstance(expr, BinOp) and expr.op == "<-"
    assert isinstance(expr.right, BinOp) and expr.right.op == "/\\"


def test_not_scopes_over_a_whole_comparison():
    expr = model_expr("not n >= 5")
    assert isinstance(expr, Not)
    assert isinstance(expr.operand, Comparison) and expr.operand.op == ">="
    expr = model_expr(r"not p /\ q")
    assert isinstance(expr, BinOp) and expr.op == "/\\"
    assert isinstance(expr.left, Not)


@pytest.mark.parametrize("text", ["n + not p >= 0", "n >= not m"])
def test_not_is_no_arithmetic_or_comparison_operand(text):
    with pytest.raises(ParseError, match="expected an expression, found 'not'"):
        model_expr(text)


def test_multiplication_binds_tighter_than_addition():
    expr = model_expr("n + 2 * m >= 0")
    left = expr.left
    assert isinstance(left, BinOp) and left.op == "+"
    assert isinstance(left.right, BinOp) and left.right.op == "*"


def test_subtraction_associates_to_the_left():
    expr = model_expr("n - m - 1 >= 0").left
    assert isinstance(expr, BinOp) and expr.op == "-"
    assert isinstance(expr.left, BinOp) and expr.left.op == "-"
    assert isinstance(expr.right, IntLit) and expr.right.value == 1


def test_unary_minus_attaches_to_the_factor():
    expr = model_expr("-n * m >= -9")
    product = expr.left
    assert isinstance(product, BinOp) and product.op == "*"
    assert isinstance(product.left, Neg)
    assert isinstance(expr.right, Neg)


def test_double_equals_is_normalized():
    assert model_expr("n == m").op == "="
    assert model_expr("n = m").op == "="


def test_parentheses_override_precedence():
    expr = model_expr(r"(p \/ q) /\ r")
    assert isinstance(expr, BinOp) and expr.op == "/\\"
    assert expr.left.op == "\\/"


# -- non-chaining ---------------------------------------------------------------


def test_implications_do_not_chain():
    with pytest.raises(ParseError, match="implications do not chain"):
        model_expr("p -> q -> r")
    with pytest.raises(ParseError, match="implications do not chain"):
        model_expr("p <- q -> r")
    with pytest.raises(ParseError, match="implications do not chain"):
        model_expr("p -> q <- r")


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError, match="comparisons do not chain"):
        model_expr("0 <= n <= 9")


# -- spans and reporting ------------------------------------------------------------


def test_parse_errors_carry_file_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_model("var bool: p;\nconstraint p @@ p;\n", "bad.bfz")
    assert "bad.bfz:2:14" in str(err.value)
    assert err.value.span.line == 2


@pytest.mark.parametrize("parse,text,where,message", [
    # numerals are ASCII digits only
    (parse_model, "int: N = 1\u0663;\n", "bad.bfz:1:11",
     "unexpected character '\u0663'"),
    (parse_data, "N = \u00b2;\n", "bad.bfz:1:5",
     "unexpected character '\u00b2'"),
    (parse_model, "int: N = 1\n", "bad.bfz:2:1",
     "expected ';', found end of input"),
], ids=["non-ascii-digit", "superscript-digit", "end-of-input"])
def test_token_errors_carry_file_line_and_column(parse, text, where,
                                                 message):
    with pytest.raises(ParseError) as err:
        parse(text, "bad.bfz")
    assert str(err.value) == f"{where}: {message}"


def test_resolution_errors_point_at_the_use_site():
    with pytest.raises(ParseError) as err:
        parse_model("var bool: p;\nconstraint p /\\ ghost;\n", "bad.bfz")
    assert "'ghost' is not declared" in str(err.value)
    assert "bad.bfz:2:17" in str(err.value)


@pytest.mark.parametrize("text,where,message", [
    ("var 0..9: n;\nconstraint " + " + ".join(["n"] * 2999)
     + " + ghost >= 0;\n", "bad.bfz:2:12008", "'ghost' is not declared"),
    ("var bool: p;\nconstraint forall (i in 1..2 where "
     + " /\\ ".join(["i >= 1"] * 2999) + " /\\ ghost >= 1) (p);\n",
     "bad.bfz:2:30026", "'ghost' is not declared"),
    ("var 0..9: n;\nint: k = " + " - ".join(["1"] * 2999) + " - n;\n",
     "bad.bfz:2:12006", "'n' is a variable; only parameters are allowed here"),
], ids=["sum", "where", "parameter"])
def test_an_error_at_the_end_of_a_long_chain_keeps_its_span(text, where,
                                                           message):
    with pytest.raises(ParseError) as err:
        parse_model(text, "bad.bfz")
    assert str(err.value) == f"{where}: {message}"


# -- rules and head annotations ------------------------------------------------------


def test_rule_body_keeps_the_head_annotation_inside_aggregates():
    model = parse_model(
        "int: N = 3;\n"
        "array[1..N] of var 0..9: d :: founded;\n"
        "rule (forall (i in 1..N) (d[i] >= 0 :: head(d[i])));\n")
    rule = model.rules[0].expr
    assert isinstance(rule, Agg) and rule.kind == "forall"
    assert isinstance(rule.body, HeadAnn)


def test_head_annotation_outside_a_rule_is_rejected():
    with pytest.raises(ParseError,
                       match="head annotations are only allowed in rules"):
        parse_model("var bool: p :: founded;\n"
                    "constraint (p :: head(p));\n")


def test_rule_without_head_annotation_is_rejected():
    with pytest.raises(ParseError, match="a rule needs one ':: head"):
        parse_model("var bool: p :: founded;\nrule (p);\n")


def test_nested_head_annotations_are_rejected():
    with pytest.raises(ParseError, match="misplaced head annotation"):
        parse_model("var bool: p :: founded;\n"
                    "rule ((p :: head(p)) :: head(p));\n")


def test_rule_head_must_be_a_variable():
    with pytest.raises(ParseError, match="head 'N' is not a variable"):
        parse_model("int: N = 3;\nvar bool: p :: founded;\n"
                    "rule (p :: head(N));\n")


def test_rule_head_arity_is_checked():
    with pytest.raises(ParseError, match="'d' has 1 dimension"):
        parse_model("array[1..3] of var 0..9: d :: founded;\n"
                    "rule (d[1] >= 0 :: head(d[1, 2]));\n")


# -- resolution rules -----------------------------------------------------------------


def test_duplicate_declarations_are_rejected():
    with pytest.raises(ParseError, match="'p' is already declared"):
        parse_model("var bool: p;\nint: p = 3;\n")


def test_variables_cannot_fix_parameter_positions():
    with pytest.raises(ParseError, match="'n' is a variable; only parameters"):
        parse_model("var 0..9: n;\nvar 0..n: m;\n")


def test_arrays_need_indices_and_correct_arity():
    with pytest.raises(ParseError, match="array 'w' needs indices"):
        parse_model("array[1..3] of int: w = [1, 2, 3];\n"
                    "var bool: p;\nconstraint p /\\ w >= 1;\n")
    with pytest.raises(ParseError, match="'w' has 1 dimension"):
        parse_model("array[1..3] of int: w = [1, 2, 3];\n"
                    "var bool: p;\nconstraint p /\\ w[1, 2] >= 1;\n")
    with pytest.raises(ParseError, match="'n' is not an array"):
        parse_model("int: n = 3;\nvar bool: p;\n"
                    "constraint p /\\ n[1] >= 1;\n")


@pytest.mark.parametrize("text,message", [
    ("constraint forall (g in 1..3) (x[g[1]] >= 0);",
     "<model>:2:34: 'g' is not a parameter array"),
    ("constraint forall (g in 1..3) (x[1] >= g[1]);",
     "<model>:2:40: 'g' is not an array"),
])
def test_generator_names_are_not_arrays(text, message):
    # an index is a parameter context, an operand is not
    with pytest.raises(ParseError) as caught:
        parse_model("array[1..3] of var 0..3: x;\n" + text + "\n")
    assert str(caught.value) == message


def test_where_guards_must_be_parameter_conditions():
    # a variable inside a guard comparison is named directly
    with pytest.raises(ParseError, match="'n' is a variable; only parameters"):
        parse_model("var 0..9: n;\nvar bool: p :: founded;\n"
                    "constraint exists (i in 1..3 where n >= i) (p);\n")
    # a guard that is not a condition shape at all gets the generic message
    with pytest.raises(ParseError, match="where guard must be a parameter"):
        parse_model("var bool: p;\n"
                    "constraint exists (i in 1..3 where p) (p);\n")


def test_generator_names_cannot_shadow():
    with pytest.raises(ParseError, match="generator name 'i' shadows"):
        parse_model("int: i = 3;\nvar bool: p;\n"
                    "constraint exists (i in 1..3) (p);\n")
    with pytest.raises(ParseError, match="generator name 'j' shadows"):
        parse_model("var bool: p;\n"
                    "constraint exists (j in 1..2, j in 1..3) (p);\n")


def test_bool2int_is_objective_only():
    with pytest.raises(ParseError, match="bool2int is only allowed in the"):
        parse_model("var bool: p;\nconstraint bool2int(p) >= 1;\n")
    model = parse_model("var bool: p;\nsolve minimize bool2int(p);\n")
    assert model.solve.objective is not None


def test_more_than_one_solve_item_is_rejected():
    with pytest.raises(ParseError, match="more than one solve item"):
        parse_model("var bool: p;\nsolve satisfy;\nsolve satisfy;\n")


def test_array_parameter_values_must_be_literal_lists():
    # the grammar itself demands a bracketed list after the equals sign
    with pytest.raises(ParseError, match="expected '\\['"):
        parse_model("array[1..2] of int: w = 5;\n")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_model("var bool: not;\n")


def test_comments_and_multiple_generators_parse():
    model = parse_model(
        "% heading comment\n"
        "int: N = 2; % trailing\n"
        "array[1..N, 1..N] of var bool: g;\n"
        "constraint forall (u, v in 1..N) (g[u, v]);\n")
    agg = model.constraints[0].expr
    assert agg.gens[0].names == ("u", "v")


@pytest.mark.parametrize("parse,text", [
    (parse_model, "var bool: p;\nconstraint " + "(" * 3000 + "p"
     + ")" * 3000 + ";\n"),
    (parse_data, "n = " + "(" * 3000 + "1" + ")" * 3000 + ";\n"),
], ids=["model", "data"])
def test_deep_nesting_is_a_parse_error(parse, text):
    with pytest.raises(ParseError,
                       match="^input nested too deeply to process$"):
        parse(text)


@pytest.mark.parametrize("parse,text", [
    (parse_model, "var bool: p;\nconstraint " + "(" * 200 + "p"
     + ")" * 200 + ";\n"),
    (parse_data, "n = " + "(" * 200 + "1" + ")" * 200 + ";\n"),
], ids=["model", "data"])
def test_two_hundred_nested_parentheses_parse(parse, text):
    assert parse(text)
