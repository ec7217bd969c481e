"""Text round trips and error reporting for the ground exchange format."""

import pytest

from bfasp import (
    NEG_INF,
    POS_INF,
    Clause,
    FormatError,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    Rule,
    Sort,
    VarKind,
    Variable,
    build_reduct,
    format_assignment,
    format_clause,
    format_program,
    parse_assignment,
    parse_ground_program,
    validate_program,
)

from conftest import THETA, build_example_one, valuation_of
from oracles import random_mixed_program

EX1_TEXT = """\
var int -20..20 standard s;
var int -50..50 founded a;
var int -50..50 founded b;
var bool founded x;
var bool founded y;
rule 1*a >= 0 head a;
rule 1*b >= 0 head b;
rule 1*a - 1*b - 1*s >= 0 head a;
rule ~x | 1*b >= 8 head b;
rule y | x | -1*a >= -4 head x;
"""


def test_walkthrough_formats_to_the_expected_text():
    assert format_program(build_example_one()) == EX1_TEXT


def test_walkthrough_round_trips():
    program = build_example_one()
    assert parse_ground_program(format_program(program)) == program


def test_random_programs_round_trip(rng):
    for _ in range(120):
        program = random_mixed_program(rng, with_objective=rng.random() < 0.5)
        if not validate_program(program).ok:
            continue
        text = format_program(program)
        assert parse_ground_program(text) == program
        # a second pass through the writer is byte-identical
        assert format_program(parse_ground_program(text)) == text


def test_reducts_with_infinite_bounds_round_trip():
    variables = (Variable("h", VarKind.FOUNDED, Sort.INT, 0, 9),
                 Variable("q", VarKind.FOUNDED, Sort.INT, 0, 9),
                 Variable("p", VarKind.FOUNDED, Sort.BOOL))
    rule = Rule(Clause(lits=(Literal(2, False),),
                       atoms=(LinearAtom(((1, 0), (1, 1)), 4),)), 0)
    program = Program(variables, rules=(rule,))
    reduct = build_reduct(program, {1: NEG_INF})
    as_program = Program(reduct.variables, (), reduct.rules, None)
    text = format_program(as_program)
    assert "inf" in text
    assert parse_ground_program(text) == as_program


def test_format_clause_spellings():
    program = build_example_one()
    index = program.index_by_name
    clause = Clause(lits=(Literal(index["x"]), Literal(index["y"], False)),
                    atoms=(LinearAtom(((-2, index["a"]), (1, index["s"])), -7),))
    assert format_clause(clause, program) == "x | ~y | -2*a + 1*s >= -7"
    assert format_clause(Clause(), program) == "false"


def test_parser_accepts_bare_names_and_constants_in_atoms():
    program = parse_ground_program(
        "var int 0..9 founded a;\n"
        "constraint a >= 3;\n"
        "constraint a + 2 >= 5;\n"
        "constraint 2 - 1*a >= 0;\n")
    first, second, third = program.constraints
    assert first.atoms[0] == LinearAtom(((1, 0),), 3)
    # constants fold into the bound
    assert second.atoms[0] == LinearAtom(((1, 0),), 3)
    assert third.atoms[0] == LinearAtom(((-1, 0),), -2)


def test_parser_handles_bracketed_names_and_comments():
    text = ("# produced by a grounder\n"
            "var int -5..5 founded d[1,2];\n"
            "rule 1*d[1,2] >= 0 head d[1,2]; # base case\n")
    program = parse_ground_program(text)
    assert program.variables[0].name == "d[1,2]"
    assert program.rules[0].head == 0


def test_parser_accepts_false_clause_and_minimize():
    program = parse_ground_program(
        "var bool standard p;\n"
        "constraint false;\n"
        "minimize 2;\n")
    assert program.constraints[0].is_empty
    assert program.objective == LinearExpr((), 2)


def test_duplicate_minimize_rejected():
    with pytest.raises(FormatError, match="more than one minimize"):
        parse_ground_program("minimize 1;\nminimize 2;\n")


@pytest.mark.parametrize("text,message,line", [
    ("var bool standard p;\nvar bool standard p;\n",
     "duplicate variable 'p'", 2),
    ("constraint zz >= 1;\n", "unknown variable 'zz'", 1),
    ("var real x;\n", "expected 'bool' or 'int'", 1),
    ("var int 0..5 sometimes n;\n", "expected 'standard' or 'founded'", 1),
    ("var bool founded p;\nconstraint 1*p >= 0;\n",
     "'p' is bool, not usable as a linear term", 2),
    ("var int 0..5 founded n;\nconstraint ~n;\n",
     "'n' is int, not usable as a literal", 2),
    ("frobnicate;\n", "expected an item", 1),
    ("var int 0..5 founded n;\nrule 1*n >= 0;\n", "expected 'head'", 2),
    ("var int 0..5 founded n;\nconstraint 1*n >= \u0663;\n",
     "unexpected character '\u0663'", 2),
    ("var bool standard p;\nconstraint p", "expected ';', found end of input",
     2),
    # a bracketed name is written without spaces, on one line
    ("var bool standard p;\nvar bool standard d[1, 2];\nconstraint d[1,2];\n",
     "unexpected character '['", 2),
    ("var bool standard d[1,\n2];\nconstraint q;\n",
     "unexpected character '['", 1),
])
def test_reader_errors_carry_line_numbers(text, message, line):
    with pytest.raises(FormatError) as err:
        parse_ground_program(text)
    assert message in str(err.value)
    assert f"line {line}:" in str(err.value)


def test_stray_characters_are_rejected():
    with pytest.raises(FormatError, match="unexpected character"):
        parse_ground_program("var bool standard p$;\n")


# -- assignments ----------------------------------------------------------------


def test_assignment_round_trip():
    program = build_example_one()
    v = valuation_of(program, **THETA)
    assert parse_assignment(format_assignment(program, v), program) == v


def test_assignment_accepts_bottom_for_founded_only():
    program = build_example_one()
    v = valuation_of(program, s=0, a=NEG_INF, b=0, x=False, y=False)
    text = format_assignment(program, v)
    assert "a = -inf;" in text
    assert parse_assignment(text, program) == v
    bad = text.replace("s = 0;", "s = -inf;", 1)
    with pytest.raises(FormatError,
                       match="value -inf is outside the domain of 's'"):
        parse_assignment(bad, program)


@pytest.mark.parametrize("text,message", [
    ("zz = 1;", "unknown variable 'zz'"),
    ("s = 0;\ns = 1;", "'s' assigned twice"),
    ("s = 99;", "outside the domain of 's'"),
    ("s = 0;", "missing assignments: a, b, x, y"),
    ("x = 2;", "outside the domain of 'x'"),
    ("a = inf;", "expected integer, found 'inf'"),
    ("a = nan;", "expected integer, found 'nan'"),
    ("s = 2.0;", "unexpected character '.'"),
    ("s = \u0663;", "line 1: unexpected character '\u0663'"),
    ("s = 0", "line 1: expected ';', found end of input"),
    ("s = 0;\nb[1, 2] = 0;", "line 2: unexpected character '\\['"),
])
def test_assignment_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_assignment(text, build_example_one())


def test_assignment_infinite_bound_never_parses_as_positive():
    program = Program((Variable("m", VarKind.FOUNDED, Sort.INT, 0, 5),))
    with pytest.raises(FormatError):
        parse_assignment("m = inf;", program)


def test_assignment_ignores_solver_chrome():
    # solve output pastes straight back in: markers and comments are noise
    program = build_example_one()
    v = valuation_of(program, **THETA)
    text = ("# objective = 2\n" + format_assignment(program, v)
            + "----------\n==========\n")
    assert parse_assignment(text, program) == v


def test_assignment_error_lines_survive_chrome_removal():
    text = "----------\ns = 0;\n----------\ns = 1;\n"
    with pytest.raises(FormatError, match="line 4: 's' assigned twice"):
        parse_assignment(text, build_example_one())


def _two_ints() -> Program:
    return Program((Variable("a", VarKind.STANDARD, Sort.INT, 0, 5),
                    Variable("b", VarKind.STANDARD, Sort.INT, 0, 5)))


def test_assignment_lines_end_at_newline_only():
    # form feeds, NEL and the line separator break no line, as in .bfg text
    with pytest.raises(FormatError, match="^line 2: unknown variable 'zz'$"):
        parse_assignment("a = 1;\x0cb = 2;\nzz = 3;", _two_ints())
    with pytest.raises(FormatError, match="^line 2: unknown variable 'zz'$"):
        parse_ground_program("var bool standard p;\x0cvar bool standard q;"
                             "\nconstraint zz;")
    with pytest.raises(FormatError,
                       match="^line 1: unexpected character '\\\\u2028'$"):
        parse_assignment("a = 1;\u2028zz = 3;", _two_ints())


def test_assignment_comments_run_to_the_newline():
    text = "a = 1; # note \x85 x\u2028 y\nb = 2;\n"
    assert parse_assignment(text, _two_ints()) == {0: 1, 1: 2}


def test_assignment_reads_crlf_solver_output():
    text = "# objective = 3\r\na = 1;\r\nb = 2;\r\n----------\r\n==========\r\n"
    assert parse_assignment(text, _two_ints()) == {0: 1, 1: 2}
    with pytest.raises(FormatError, match="^line 3: 'a' assigned twice$"):
        parse_assignment("a = 1;\r\n----------\r\na = 2;\r\n", _two_ints())
