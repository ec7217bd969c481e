"""bfasp benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload mcds-cycle --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; bfasp is imported from its ``src``
directory.  Prints one ``workload metric = value unit`` line per metric and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  ``--workload all`` runs every workload, each in a
fresh process, and prints their lines.

Every answer is checked against an independent reference outside the timed
region; an instance that raises or disagrees counts as failed and the run
goes on.  Span traces are written under ``.bench_out/`` at the end.
"""

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("mcds-cycle", "sssp-ground", "normal-many")

# Fresh-interpreter imports per setup_s measurement, after one warm-up
# import that compiles the bytecode cache.  They are spread evenly over the
# run, so that their median does not hang on the host's speed in the few
# seconds one burst of imports would take.
SETUP_IMPORTS = 15
# Percentiles a tail may be reported at; see tail_percentile.
TAIL_LADDER = (50, 90, 99, 99.9)
# An instance's time is this percentile of its timings over the passes of a
# run, leaving out the slowest one; see run_e2e.
INSTANCE_PERCENTILE = 90
# A run makes at least this many passes over its instances.
MIN_PASSES = 3
# Past this, a run stops even short of MIN_PASSES, so that it ends well
# within its time limit on a much slower program.
MAX_LOOP_S = 120

UNITS = {
    "solve_s_p50": "s", "solve_s_tail": "s", "first_model_s_p50": "s",
    "instances_per_s": "1/s", "ground_s_p50": "s", "check_s_p50": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


# -- statistics ---------------------------------------------------------------

def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    return ordered[max(_rank(len(ordered), p), 1) - 1]


def _rank(n: int, p: float) -> int:
    # ceil(n * p / 100) in integers, p given to a tenth
    return -(-n * round(p * 10) // 1000)


def tail_percentile(n: int):
    """The highest ladder percentile with at least ten samples beyond it.

    Runs apply this to their fixed instance count, not to the number of
    solves a run happens to reach, so the percentile reported stays the
    same when the program gets faster or slower.  None when even the median
    has fewer than ten samples beyond it.
    """
    chosen = None
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= 10:
            chosen = p
    return chosen


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds() -> float:
    """Seconds ``import bfasp`` takes in a fresh interpreter."""
    code = ("import time\nstart = time.perf_counter()\nimport bfasp\n"
            "print(time.perf_counter() - start)")
    env = {**os.environ, "PYTHONPATH": str(SOURCE)}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout)


# -- the two kinds of run -------------------------------------------------------

def run_e2e(workload, seed: int, seconds: float) -> dict:
    """Solve a fixed list of instances in passes until the time is up.

    The host runs this code at two speeds, and how much of a minute it
    spends at the fast one changes from minute to minute, so the median of
    single timings moves with that share.  The slow speed turns up in every
    run.  Each instance is therefore timed once per pass, and its time is the
    INSTANCE_PERCENTILE of those timings, with the slowest left out as an
    outlier; the metrics are medians and tails over instances of these times.
    """
    from pipeline import run_instance

    import_seconds()  # warm-up: writes the bytecode cache
    imports = []
    stream = workload.stream(seed)
    _run(run_instance, next(stream))  # warm-up, not measured
    instances = [next(stream) for _ in range(workload.instances)]
    # (solve, first model, ground, check) per instance and pass
    timings = [[] for _ in instances]
    attempted = failed = 0
    start = time.perf_counter()
    for number in itertools.count():
        elapsed = time.perf_counter() - start
        passes = number // len(instances)
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds
                                     and passes >= MIN_PASSES):
            break
        if len(imports) < SETUP_IMPORTS * min(elapsed / seconds, 1):
            imports.append(import_seconds())
        instance = instances[number % len(instances)]
        attempted += 1
        outcome = _checked(workload, instance, *_run(run_instance, instance))
        if outcome is None:
            failed += 1
        else:
            timings[number % len(instances)].append(
                (outcome.solve_s, outcome.first_model_s, outcome.ground_s,
                 outcome.check_s))
    while len(imports) < SETUP_IMPORTS:
        imports.append(import_seconds())
    if passes < MIN_PASSES or not any(timings):
        raise SystemExit(f"{passes} passes over {len(instances)} instances "
                         f"in {elapsed:.0f} s, {MIN_PASSES} needed; "
                         f"{failed} of {attempted} solves failed")
    per_instance = [[_instance_time(column) for column in zip(*runs)]
                    for runs in timings if runs]
    solves, firsts, grounds, checks = zip(*per_instance)
    firsts = [t for t in firsts if t is not None]
    checks = [t for t in checks if t is not None]
    tail_p = tail_percentile(len(instances)) or 100
    counts = sorted({len(runs) for runs in timings if runs})
    notes = [f"{len(solves)} instances, {len(firsts)} with a model, each "
             f"timed in {' or '.join(map(str, counts))} passes; an "
             f"instance's time is the p{INSTANCE_PERCENTILE} of its passes "
             f"but the slowest",
             f"solve_s_tail is p{tail_p:g} of {len(solves)} instances",
             f"error_rate = {failed / attempted:.6g} ratio ({failed} failed "
             f"/ {attempted} attempted)"]
    metrics = {
        "solve_s_p50": statistics.median(solves),
        "solve_s_tail": percentile(solves, tail_p),
        "first_model_s_p50": statistics.median(firsts),
        "instances_per_s": len(solves) / sum(solves),
        "ground_s_p50": statistics.median(grounds),
        "check_s_p50": statistics.median(checks),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(imports),
    }
    return _result(workload.name, metrics, attempted, failed, notes)


def _instance_time(values):
    """An instance's time over its passes; None where it had no model."""
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    return percentile(values[:-1] or values, INSTANCE_PERCENTILE)


def run_traced(workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes over a fixed list of instances.

    Counts must repeat exactly from pass to pass.  Times come from the
    traced pass with the median end-to-end time, so that its self times
    add up; the overhead ratio compares median traced and untraced passes.
    The spans of the last traced pass are written out.
    """
    import spans
    from pipeline import run_instance

    stream = workload.stream(seed)
    _run(run_instance, next(stream))  # warm-up, not measured
    instances = [next(stream) for _ in range(workload.traced)]
    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for tracing in (False, True):
            rec = spans.Recorder()
            hook = rec.on_update if tracing else None
            runs = []
            with spans.installed(rec) if tracing else contextlib.nullcontext():
                for number, instance in enumerate(instances):
                    rec.instance = number
                    runs.append(_run(run_instance, instance, hook))
            # Checked once the wrappers are gone, so that the checks' own
            # bfasp calls leave no spans.
            timed = 0.0
            for instance, (outcome, problems) in zip(instances, runs):
                attempted += 1
                if _checked(workload, instance, outcome, problems) is None:
                    failed += 1
                if outcome is not None:
                    timed += outcome.timed_s
            if tracing:  # keep numbers, not spans, of all but the last pass
                traced.append((timed, spans.layer_metrics(rec),
                               tuple(sorted(rec.counts.items()))))
                last = rec
            else:
                plain.append(timed)
    counts = {pass_counts for _, _, pass_counts in traced}
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes over "
             f"{len(instances)} instances",
             "counts repeat exactly across passes" if len(counts) == 1
             else "COUNTS DIFFER BETWEEN PASSES"]
    timed, metrics, _ = sorted(traced, key=lambda p: p[0])[
        (len(traced) - 1) // 2]
    metrics["trace.e2e_s"] = timed
    metrics["trace.overhead_ratio"] = (
        statistics.median(t for t, _, _ in traced) / statistics.median(plain))
    _write_spans(workload.name, seed, last)
    return _result(workload.name, metrics, attempted, failed, notes,
                   correct=len(counts) == 1)


def _run(run_instance, instance, *args):
    """(outcome, []) or, when bfasp raised, (None, [what it raised])."""
    try:
        return run_instance(instance, *args), []
    except Exception as err:  # counted as a failed instance; the run goes on
        return None, [f"raised {type(err).__name__}: {err}"]


def _checked(workload, instance, outcome, problems):
    """The outcome if it matches the reference, else None (and a report)."""
    if outcome is not None:
        problems = workload.verify(instance, outcome)
    if not problems:
        return outcome
    print(f"FAILED {instance.label}: {'; '.join(problems)}", file=sys.stderr)
    return None


def _write_spans(name: str, seed: int, rec):
    OUT.mkdir(exist_ok=True)
    origin = rec.spans[0][1] if rec.spans else 0.0
    path = OUT / f"{name}-seed{seed}-spans.jsonl"
    with path.open("w") as out:
        for index, (span, start, end, parent, instance, child) in \
                enumerate(rec.spans):
            out.write(json.dumps({
                "id": index, "name": span, "parent": parent,
                "instance": instance, "start": start - origin,
                "end": end - origin, "self": end - start - child}) + "\n")


def _result(name, metrics, attempted, failed, notes, *, correct=True):
    for note in notes:
        print(f"# {name}: {note}")
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {_unit(key)}")
    return {"correct": correct and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": _unit(key)}
                        for key, value in metrics.items()}}


def _unit(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_per_s"):
        return "B/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


# -- entry point ----------------------------------------------------------------

def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(line + "\n"
                                 for line in done.stdout.splitlines()
                                 if not line.startswith("{")))
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "bfasp" / "__init__.py").is_file():
        print(f"error: no bfasp sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SOURCE))
    import bfasp
    if Path(bfasp.__file__).resolve().parent != SOURCE / "bfasp":
        print(f"error: imported bfasp from {bfasp.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_e2e
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
