"""Tests of the benchmark's own arithmetic, references and determinism.

    python3 -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import bfasp  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from pipeline import run_instance  # noqa: E402
from run import _instance_time, percentile, tail_percentile  # noqa: E402
from workloads import MCDS_NODES, WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    rec = spans.Recorder(FakeClock(0, 1, 2, 4, 5, 6, 9, 10))
    a = rec.open("solver.search")
    b = rec.open("analysis.reduct_build")
    c = rec.open("fixpoint.minimal_model")
    rec.close(c)  # 2..4
    rec.close(b)  # 1..5
    d = rec.open("program.failing_constraint")
    rec.close(d)  # 6..9
    rec.close(a)  # 0..10
    assert rec.self_times() == {
        "solver.search": 10 - 4 - 3,
        "analysis.reduct_build": 4 - 2,
        "fixpoint.minimal_model": 2,
        "program.failing_constraint": 3,
    }
    assert sum(rec.self_times().values()) == rec.root_time() == 10
    assert rec.parent_name(b) == "solver.search"
    assert rec.parent_name(a) is None


def test_self_times_add_up_across_roots_and_repeated_names():
    rec = spans.Recorder(FakeClock(0, 1, 2, 3, 10, 11, 15, 20))
    first = rec.open("solver.search")
    leaf = rec.open("fixpoint.minimal_model")
    rec.close(leaf)  # 1..2
    leaf = rec.open("fixpoint.minimal_model")
    rec.close(leaf)  # 3..10
    rec.close(first)  # 0..11
    second = rec.open("fixpoint.minimal_model")
    rec.close(second)  # 15..20
    assert rec.self_times() == {"solver.search": 11 - 1 - 7,
                                "fixpoint.minimal_model": 1 + 7 + 5}
    assert rec.root_time() == 16


def test_spans_must_close_innermost_first():
    rec = spans.Recorder(FakeClock(0, 1, 2))
    outer = rec.open("solver.search")
    rec.open("fixpoint.minimal_model")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_installed_wrappers_are_removed_afterwards():
    before = (bfasp.ground, bfasp.solver.minimal_model,
              vars(bfasp.solver.Search)["models"])
    with spans.installed(spans.Recorder()):
        assert bfasp.ground is not before[0]
    assert (bfasp.ground, bfasp.solver.minimal_model,
            vars(bfasp.solver.Search)["models"]) == before


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9), (10 ** 6, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 57, 100, 1000, 4321, 10000])
def test_tail_leaves_at_least_ten_distinct_samples_beyond(n):
    values = list(range(n))
    p = tail_percentile(n)
    assert sum(v > percentile(values, p) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 99) == 10
    assert percentile(list(range(1, 1001)), 99.9) == 999


def test_instance_time_is_p90_of_its_passes_but_the_slowest():
    assert _instance_time([0.5, 0.1, 0.9, 0.3, 0.2, 0.4, 0.8, 0.6, 0.7,
                           1.0]) == 0.9
    assert _instance_time([1.1, 0.5, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
                           0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
                           0.5, 0.5]) == 0.5
    assert _instance_time([2.0, None, 1.0]) == 1.0
    assert _instance_time([3.0]) == 3.0
    assert _instance_time([None, None]) is None


def test_references_on_known_answers():
    path = ((1, 2, 20), (2, 1, 20), (2, 3, 30), (3, 2, 30), (3, 4, 40),
            (4, 3, 40))
    assert reference.mcds_optimum(4, path, 35) == (2, [(2, 3)])
    assert reference.mcds_optimum(4, path, 10) is None
    assert reference.bellman_ford(3, [(1, 2, 5), (2, 3, 1), (1, 3, 9)], 1) \
        == [float("inf"), 0, 5, 6]
    # p :- not q.  q :- not p.  r :- p.
    rules = [(0, 0, 0b010), (1, 0, 0b001), (2, 0b001, 0)]
    assert reference.gl_stable_masks(rules) == {0b101, 0b010}


def test_mcds_cap_mix_gives_the_intended_optima():
    stream = WORKLOADS["mcds-cycle"].stream(5)
    kinds = []
    for _ in range(8):
        instance = next(stream)
        if instance.expected is None:
            kinds.append("unsat")
        else:
            kinds.append({MCDS_NODES - 2: "loose",
                          MCDS_NODES: "full"}[instance.expected[0]])
    assert kinds == ["loose", "unsat", "full", "loose"] * 2


def test_sssp_instances_have_unreachable_nodes():
    instance = next(WORKLOADS["sssp-ground"].stream(5))
    assert float("inf") in instance.expected[1:]


def traced_counts(name: str, seed: int, count: int) -> dict:
    """Counters of one traced pass over the first ``count`` instances."""
    stream = WORKLOADS[name].stream(seed)
    instances = [next(stream) for _ in range(count)]
    rec = spans.Recorder()
    with spans.installed(rec):
        for instance in instances:
            outcome = run_instance(instance, rec.on_update)
            assert not WORKLOADS[name].verify(instance, outcome)
    return rec.counts


REPEATED = ("solver.leaves", "fixpoint.raises", "grounder.clauses",
            "analysis.guess_vars")


@pytest.mark.parametrize("name, count", [
    ("mcds-cycle", 1), ("sssp-ground", 1), ("normal-many", 40)])
def test_counts_repeat_exactly_across_two_traced_runs(name, count):
    code = (f"import json, sys; sys.path[:0] = {[str(BENCH / 'tests')]!r}; "
            f"from test_bench import traced_counts; "
            f"print(json.dumps(traced_counts({name!r}, 3, {count})))")
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert set(REPEATED) - {"grounder.clauses"} <= set(runs[0])
    assert runs[0]["solver.leaves"] > 0 and runs[0]["fixpoint.raises"] > 0


def test_reported_metrics_match_benchmark_json():
    import run
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == run.UNITS
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    reported = set(spans.layer_metrics(spans.Recorder())) | {
        "trace.e2e_s", "trace.overhead_ratio"}
    assert set(per_layer) == reported
    assert all(run._unit(name) == unit for name, unit in per_layer.items())
