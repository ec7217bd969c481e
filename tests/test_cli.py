"""End-to-end command line behavior, run in process."""

import random
import types
from pathlib import Path

import pytest

import bfasp.fixpoint
from bfasp import (
    format_assignment,
    ground,
    parse_assignment,
    parse_ground_program,
    parse_model,
)
from bfasp.cli import run
from bfasp.errors import WatchdogError

from conftest import MODELS
from test_ground_format import EX1_TEXT

REDUCTS = Path(__file__).resolve().parent / "reducts"

EX1 = str(MODELS / "ex1.bfz")
MCDS = str(MODELS / "mcds.bfz")

FIRST_MODEL = """\
s = -20;
a = 0;
b = 0;
x = false;
y = false;
----------
"""

MCDS_BLOCK = """\
# objective = 2
dom[1] = false;
dom[2] = true;
dom[3] = true;
dom[4] = false;
d[1,1] = 0;
d[1,2] = -inf;
d[1,3] = -inf;
d[1,4] = -inf;
d[2,1] = -inf;
d[2,2] = 0;
d[2,3] = -30;
d[2,4] = -inf;
d[3,1] = -inf;
d[3,2] = -30;
d[3,3] = 0;
d[3,4] = -inf;
d[4,1] = -inf;
d[4,2] = -inf;
d[4,3] = -inf;
d[4,4] = 0;
----------
==========
"""

REDUCT_DUMP = """\
var int -20..20 standard s;
var int -50..50 founded a;
var int -50..50 founded b;
var bool founded x;
var bool founded y;
rule 1*a >= 0 head a;
rule 1*b >= 0 head b;
rule 1*a - 1*b >= 3 head a;
rule ~x | 1*b >= 8 head b;
rule x | -1*a >= -4 head x;
"""


def test_solve_prints_the_first_model(capsys):
    assert run(["solve", EX1]) == 0
    assert capsys.readouterr().out == FIRST_MODEL


def test_solve_all_enumerates_and_proves(capsys):
    assert run(["solve", EX1, "--all"]) == 0
    out = capsys.readouterr().out
    assert out.count("----------\n") == 41
    assert out.endswith("----------\n==========\n")
    assert out.startswith(FIRST_MODEL)


def test_solve_limit_stops_without_the_proof_line(capsys):
    assert run(["solve", EX1, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("----------\n") == 3
    assert "==========" not in out


def test_solve_minimizes_when_an_objective_is_present(capsys):
    assert run(["solve", MCDS]) == 0
    assert capsys.readouterr().out == MCDS_BLOCK


def test_leaf_propagation_gives_the_same_answer(capsys):
    assert run(["solve", EX1, "--prop", "leaf"]) == 0
    assert capsys.readouterr().out == FIRST_MODEL


def test_unsatisfiable_model(tmp_path, capsys):
    bad = tmp_path / "contradiction.bfz"
    bad.write_text("var bool: p;\nconstraint p /\\ not p;\n")
    assert run(["solve", str(bad)]) == 2
    assert capsys.readouterr().out == "=====UNSATISFIABLE=====\n"


def test_tiny_time_budget_reports_unknown(capsys):
    assert run(["solve", MCDS, "--time-budget", "0.000001"]) == 4
    assert capsys.readouterr().out == "=====UNKNOWN=====\n"


def test_time_budget_inside_a_fixpoint_exits_four(monkeypatch, capsys):
    # the clock jumps an hour ahead for the fixpoint's reads only, so the
    # first bound raise of the first leaf passes the budget
    real = bfasp.fixpoint.time.monotonic
    monkeypatch.setattr(bfasp.fixpoint, "time", types.SimpleNamespace(
        monotonic=lambda: real() + 3600))
    assert run(["solve", MCDS, "--time-budget", "60"]) == 4
    assert capsys.readouterr().out == "=====UNKNOWN=====\n"


def test_nan_time_budget_is_bad_input(capsys):
    assert run(["solve", EX1, "--time-budget", "nan"]) == 3
    assert "time budget must be positive" in capsys.readouterr().err


def test_check_stable_assignment(capsys):
    assert run(["check", EX1, "--assign", str(MODELS / "ex1_stable.bfa")]) == 0
    assert capsys.readouterr().out == "STABLE\n"


def test_check_unstable_assignment_names_the_witness(capsys):
    code = run(["check", EX1, "--assign", str(MODELS / "ex1_unstable.bfa")])
    assert code == 1
    out = capsys.readouterr().out
    assert out == "NOT STABLE: a = 17 but minimal model gives 3\n"


def test_check_can_dump_the_reduct(capsys):
    code = run(["check", EX1, "--assign", str(MODELS / "ex1_unstable.bfa"),
                "--dump-reduct"])
    assert code == 1
    out = capsys.readouterr().out
    assert out == REDUCT_DUMP + "NOT STABLE: a = 17 but minimal model gives 3\n"


@pytest.mark.parametrize("name, code", [("mcds_core_path4", 0),
                                        ("mcds_core_path4_all", 1)])
def test_check_dumps_the_pinned_reduct_of_a_many_rule_model(name, code,
                                                           capsys):
    """``tests/reducts/<name>.reduct`` is the pinned output for the
    assignment ``<name>.bfa``: the solved model, then every ``dom`` true."""
    assert run(["check", str(MODELS / "mcds_core.bfz"),
                "--data", str(MODELS / "path4.bfd"),
                "--founded-default=-200..0",
                "--assign", str(REDUCTS / f"{name}.bfa"),
                "--dump-reduct"]) == code
    assert capsys.readouterr().out == (REDUCTS / f"{name}.reduct").read_text()


@pytest.mark.parametrize("name, code", [("mcds_core_path4", 0),
                                        ("mcds_core_path4_all", 1)])
def test_check_traces_the_pinned_fixpoint_of_a_many_rule_model(name, code,
                                                              capsys):
    """``tests/reducts/<name>.trace`` is the pinned stderr of
    ``--trace-fixpoint`` for the assignment ``<name>.bfa``: every bound
    raise, in order, with the reduct clause that made it."""
    assert run(["check", str(MODELS / "mcds_core.bfz"),
                "--data", str(MODELS / "path4.bfd"),
                "--founded-default=-200..0",
                "--assign", str(REDUCTS / f"{name}.bfa"),
                "--trace-fixpoint"]) == code
    assert capsys.readouterr().err == (REDUCTS / f"{name}.trace").read_text()


def test_fixpoint_trace_goes_to_stderr(capsys):
    run(["check", EX1, "--assign", str(MODELS / "ex1_unstable.bfa"),
         "--trace-fixpoint"])
    err = capsys.readouterr().err
    assert err == ("a -inf -> 0 by clause 0\n"
                   "b -inf -> 0 by clause 1\n"
                   "a 0 -> 3 by clause 2\n")


def test_solve_traces_source_rules_and_check_reduct_clauses(tmp_path,
                                                           capsys):
    # at p = false rule 0 is satisfied and left out of the reduct, so r's
    # rule is rule 1 of the program but clause 0 of the reduct
    program = tmp_path / "shift.bfg"
    program.write_text("var bool standard p;\nvar bool founded q;\n"
                       "var bool founded r;\nrule ~p | q head q;\n"
                       "rule r head r;\n")
    assert run(["solve", str(program), "--trace-fixpoint"]) == 0
    solved = capsys.readouterr()
    assert solved.err == "r false -> true by rule 1\n"
    model = tmp_path / "model.bfa"
    model.write_text(solved.out.replace("----------\n", ""))
    assert run(["check", str(program), "--assign", str(model),
                "--trace-fixpoint"]) == 0
    assert capsys.readouterr().err == "r false -> true by clause 0\n"


def test_solve_stats_follow_the_models_as_comments(tmp_path, capsys):
    assert run(["solve", EX1, "--stats"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(FIRST_MODEL)
    stats = out[len(FIRST_MODEL):].splitlines()
    assert [line.split(" = ")[0] for line in stats] == [
        "# nodes", "# leaves", "# pruned_clause", "# pruned_objective",
        "# pruned_bounds", "# bound_runs", "# bound_rules"]
    assert "# leaves = 1" in stats
    # the whole output, counters included, is still an assignment file
    model = tmp_path / "model.bfa"
    model.write_text(out.replace("----------\n", ""))
    program = ground(parse_model((MODELS / "ex1.bfz").read_text()))
    assert parse_assignment(model.read_text(), program) == \
        parse_assignment(FIRST_MODEL, program)
    assert run(["check", EX1, "--assign", str(model)]) == 0
    assert capsys.readouterr().out == "STABLE\n"


def test_ground_prints_the_normalized_text(capsys):
    assert run(["ground", EX1]) == 0
    assert capsys.readouterr().out == EX1_TEXT


def test_data_files_and_default_intervals_reproduce_the_inline_model(capsys):
    assert run(["ground", MCDS]) == 0
    inline = capsys.readouterr().out
    code = run(["ground", str(MODELS / "mcds_core.bfz"),
                "--data", str(MODELS / "path4.bfd"),
                "--founded-default=-200..0"])
    assert code == 0
    assert capsys.readouterr().out == inline


def test_ground_files_solve_like_their_models(tmp_path, capsys):
    run(["ground", EX1])
    (tmp_path / "ex1.bfg").write_text(capsys.readouterr().out)
    assert run(["solve", str(tmp_path / "ex1.bfg")]) == 0
    assert capsys.readouterr().out == FIRST_MODEL

    run(["ground", MCDS])
    (tmp_path / "mcds.bfg").write_text(capsys.readouterr().out)
    assert run(["solve", str(tmp_path / "mcds.bfg")]) == 0
    assert capsys.readouterr().out == MCDS_BLOCK


def test_solve_output_feeds_back_into_check(tmp_path, capsys):
    run(["solve", MCDS])
    answer = tmp_path / "answer.bfa"
    answer.write_text(capsys.readouterr().out)
    assert run(["check", MCDS, "--assign", str(answer)]) == 0
    assert capsys.readouterr().out == "STABLE\n"


def test_ground_files_reject_model_only_flags(tmp_path, capsys):
    run(["ground", EX1])
    path = tmp_path / "ex1.bfg"
    path.write_text(capsys.readouterr().out)
    code = run(["solve", str(path), "--founded-default=0..1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "only apply to model files" in err


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve"])
    assert exc.value.code == 3
    assert "the following arguments are required: model" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["solve", EX1, "--all", "--limit", "2"])
    assert exc.value.code == 3


def test_enumeration_flags_clash_with_objectives(capsys):
    assert run(["solve", MCDS, "--all"]) == 3
    err = capsys.readouterr().err
    assert err == ("error: --all and --limit do not apply when the model "
                   "has an objective\n")


def test_bad_limit_value_exits_three(capsys):
    assert run(["solve", EX1, "--limit", "0"]) == 3
    assert "solution limit must be positive" in capsys.readouterr().err


def test_missing_files_exit_three(capsys):
    assert run(["solve", "/no/such/file.bfz"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["check", EX1, "--assign", "/no/such/file.bfa"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_errors_carry_positions(tmp_path, capsys):
    bad = tmp_path / "bad.bfz"
    bad.write_text("var bool p;\n")
    assert run(["solve", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1:")


def test_empty_ground_program_prints_only_the_separator(tmp_path, capsys):
    empty = tmp_path / "empty.bfg"
    empty.write_text("")
    assert run(["solve", str(empty)]) == 0
    assert capsys.readouterr().out == "----------\n"
    assert format_assignment(parse_ground_program(""), {}) == ""


def test_incomplete_assignments_exit_three(tmp_path, capsys):
    partial = tmp_path / "partial.bfa"
    partial.write_text("s = 9;\n")
    assert run(["check", EX1, "--assign", str(partial)]) == 3
    assert "missing assignments" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["leaf", "clause"])
@pytest.mark.parametrize("text, got", [
    ("var int -5..0 founded b;\nminimize -1*b;\n", "inf"),
    ("var int -5..0 founded a;\nvar int -5..0 founded b;\n"
     "minimize 1*a - 1*b;\n", "undefined"),
])
def test_non_finite_objectives_exit_three(tmp_path, capsys, prop, text, got):
    program = tmp_path / "objective.bfg"
    program.write_text(text)
    assert run(["solve", str(program), "--prop", prop]) == 3
    assert capsys.readouterr().err == ("error: objective has no finite "
                                       f"value on a stable model (got {got})\n")


def test_deep_nesting_exits_three_without_a_traceback(tmp_path, capsys):
    deep = tmp_path / "deep.bfz"
    deep.write_text("var bool: p;\nconstraint " + "(" * 3000 + "p"
                    + ")" * 3000 + ";\n")
    assert run(["solve", str(deep)]) == 3
    err = capsys.readouterr().err
    assert err == "error: input nested too deeply to process\n"


def test_two_hundred_nested_parentheses_ground(tmp_path, capsys):
    deep = tmp_path / "deep.bfz"
    deep.write_text("var bool: p;\nconstraint " + "(" * 200 + "p"
                    + ")" * 200 + ";\n")
    assert run(["ground", str(deep)]) == 0
    assert capsys.readouterr().out == ("var bool standard p;\n"
                                       "constraint p;\n")


def test_three_thousand_term_sum_grounds(tmp_path, capsys):
    flat = tmp_path / "flat.bfz"
    flat.write_text("var 0..9: n;\nconstraint " + " + ".join(["n"] * 3000)
                    + " >= 0;\n")
    assert run(["ground", str(flat)]) == 0
    assert capsys.readouterr().out == ("var int 0..9 standard n;\n"
                                       "constraint 3000*n >= 0;\n")


def test_a_wide_integer_domain_solves(tmp_path, capsys):
    wide = tmp_path / "wide.bfz"
    wide.write_text("var 0..1000000000000: n;\nconstraint n = 5;\n")
    assert run(["solve", str(wide)]) == 0
    assert capsys.readouterr().out == "n = 5;\n----------\n"


def test_fixpoint_watchdog_exits_four(monkeypatch, capsys):
    def runaway(*args, **kwargs):
        raise WatchdogError("fixpoint watchdog: bound raises exceeded the "
                            "lattice budget")
    monkeypatch.setattr(bfasp.fixpoint.LeafEvaluator, "minimal_model",
                        runaway)
    assert run(["solve", EX1]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: fixpoint watchdog: bound raises exceeded "
                            "the lattice budget\n")


# -- mutated inputs -------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
_INSERTED = list("0123456789axz_-+*;:,.|~=<>[](){}#%@\\/ \n\t") + ["٣"]


def _mutated(rand, text: str) -> str:
    """``text`` with one random edit: a character or a span deleted,
    repeated or inserted, two lines swapped, or the end cut off."""
    at = rand.randrange(len(text) + 1)
    span = text[at:at + rand.randint(1, 8)]
    edit = rand.randrange(5)
    if edit == 0:
        return text[:at] + text[at + len(span):]
    if edit == 1:
        return text[:at] + span + text[at:]
    if edit == 2:
        return text[:at] + rand.choice(_INSERTED) + text[at:]
    if edit == 3:
        lines = text.split("\n")
        i = rand.randrange(len(lines))
        lines[i - 1], lines[i] = lines[i], lines[i - 1]
        return "\n".join(lines)
    return text[:at]


def test_mutated_inputs_of_every_format_end_in_an_exit_code(tmp_path,
                                                             capsys):
    # every run ends in exit code 0-4, never in another exception
    core = ["--founded-default=-200..0"]
    cases = [(path, lambda p: ["ground", p] + (
                 ["--data", str(MODELS / "path4.bfd")] + core
                 if p.endswith("core.bfz") else []))
             for path in sorted(MODELS.glob("*.bfz"))]
    cases += [(path, lambda p: ["ground", str(MODELS / "mcds_core.bfz"),
                                "--data", p] + core)
              for path in sorted(MODELS.glob("*.bfd"))]
    cases += [(path, lambda p: ["ground", p])
              for path in sorted(GOLDEN.glob("*.bfg"))]
    cases += [(path, lambda p: ["check", EX1, "--assign", p])
              for path in sorted(MODELS.glob("*.bfa"))]
    assert {path.suffix for path, _ in cases} == {".bfz", ".bfd", ".bfg",
                                                  ".bfa"}
    rand = random.Random(0x4D75)
    codes = set()
    for path, argv in cases:
        text = path.read_text()
        for i in range(1200 // len(cases)):
            mutant = tmp_path / f"m{i}{path.suffix}"
            mutant.write_text(_mutated(rand, text))
            code = run(argv(str(mutant)))
            assert code in range(5), (path.name, mutant.read_text())
            codes.add(code)
    capsys.readouterr()
    assert {0, 3} <= codes
