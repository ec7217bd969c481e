"""Command line entry points: solve, check, and ground.

Exit codes: 0 model found / assignment stable, 1 assignment not stable,
2 no model exists, 3 bad input, 4 resource limit hit before an answer.
"""

import argparse
import re
import sys
from pathlib import Path

from .errors import BfaspError, GroundingError, WatchdogError
from .ground_format import format_assignment, format_program, \
    parse_assignment, parse_ground_program
from .grounder import ground
from .analysis import build_reduct
from .parser import parse_data, parse_model
from .program import Program, format_value, validate_program
from .solver import (
    PropagationLevel,
    Search,
    SearchConfig,
    SearchStatus,
    check_stable,
)

_MODEL_SEP = "-" * 10
_PROVEN_SEP = "=" * 10
_UNSAT = "=====UNSATISFIABLE====="
_UNKNOWN = "=====UNKNOWN====="

_INTERVAL_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _interval(text: str):
    match = _INTERVAL_RE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI (for negatives write --founded-default=-50..50),"
            f" got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty interval {text!r}")
    return lo, hi


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means 'no model' here, so use 3."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("model", help="model file (.bfz) or ground program")
    shared.add_argument("--data", action="append", metavar="FILE",
                        help="data file (.bfd); may be repeated")
    shared.add_argument("--founded-default", type=_interval, metavar="LO..HI",
                        help="interval for founded integers declared without "
                             "one")
    shared.add_argument("--trace-fixpoint", action="store_true",
                        help="log every bound raise to stderr")

    parser = _ArgumentParser(
        prog="bfasp",
        description="Solve and inspect programs with founded variables.")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", parents=[shared],
        help="search for stable models (optimizing when the model has an "
             "objective)")
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="enumerate every stable model")
    group.add_argument("--limit", type=int, metavar="N",
                       help="stop after N models")
    solve.add_argument("--time-budget", type=float, metavar="SECONDS",
                       help="give up after this much search time")
    solve.add_argument("--prop", choices=["leaf", "clause"], default="clause",
                       help="pruning level during search (default: clause)")
    solve.add_argument("--stats", action="store_true",
                       help="print search counters as '# key = value' lines "
                            "after the models")

    check = commands.add_parser(
        "check", parents=[shared],
        help="decide whether an assignment is a stable model")
    check.add_argument("--assign", required=True, metavar="FILE",
                       help="assignment file (.bfa) with name = value; lines")
    check.add_argument("--dump-reduct", action="store_true",
                       help="print the reduct under the assignment")

    commands.add_parser("ground", parents=[shared],
                        help="print the ground program")
    return parser


def _load_program(args) -> Program:
    path = Path(args.model)
    text = path.read_text()
    if path.suffix == ".bfg":
        if args.data or args.founded_default:
            raise GroundingError("--data and --founded-default only apply "
                                 "to model files")
        program = parse_ground_program(text)
    else:
        model = parse_model(text, args.model)
        assigns = []
        for data_path in args.data or ():
            assigns.extend(parse_data(Path(data_path).read_text(), data_path))
        program = ground(model, assigns,
                         founded_default=args.founded_default)
    report = validate_program(program)
    if not report.ok:
        raise GroundingError("; ".join(report.issues))
    return program


def _tracer(program: Program, numbered: str):
    """Bound-raise log; ``numbered`` names what the hook's index counts."""
    def on_update(head, old, new, index):
        print(f"{program.name(head)} {format_value(old)} -> "
              f"{format_value(new)} by {numbered} {index}", file=sys.stderr)
    return on_update


def _cmd_solve(args) -> int:
    program = _load_program(args)
    optimizing = program.objective is not None
    if optimizing and (args.all or args.limit is not None):
        print("error: --all and --limit do not apply when the model has an "
              "objective", file=sys.stderr)
        return 3
    if args.all:
        limit = None
    elif args.limit is not None:
        limit = args.limit
    else:
        limit = None if optimizing else 1
    config = SearchConfig(
        propagation=(PropagationLevel.LEAF_CHECK if args.prop == "leaf"
                     else PropagationLevel.CLAUSE),
        solution_limit=limit,
        time_budget=args.time_budget,
    )
    # Search reports source rule indices, as `ground` prints the rules.
    tracer = _tracer(program, "rule") if args.trace_fixpoint else None
    search = Search(program, config, on_update=tracer)
    found = 0
    for model in search.models():
        if optimizing:
            print(f"# objective = {search.objective_value}")
        sys.stdout.write(format_assignment(program, model))
        print(_MODEL_SEP)
        found += 1
    if found:
        if (search.status is SearchStatus.EXHAUSTED
                and (optimizing or args.all)):
            print(_PROVEN_SEP)
        code = 0
    elif search.status is SearchStatus.TIME_LIMIT:
        print(_UNKNOWN)
        code = 4
    else:
        print(_UNSAT)
        code = 2
    if args.stats:
        for key, value in vars(search.stats).items():
            print(f"# {key} = {value}")
    return code


def _cmd_check(args) -> int:
    program = _load_program(args)
    valuation = parse_assignment(Path(args.assign).read_text(), program)
    if args.dump_reduct:
        reduct = build_reduct(program, valuation)
        sys.stdout.write(format_program(
            Program(reduct.variables, (), reduct.rules, None)))
    # check_stable numbers the reduct's clauses, as --dump-reduct prints them.
    tracer = _tracer(program, "clause") if args.trace_fixpoint else None
    verdict = check_stable(program, valuation, on_update=tracer)
    if verdict.stable:
        print("STABLE")
        return 0
    print(f"NOT STABLE: {verdict.describe(program)}")
    return 1


def _cmd_ground(args) -> int:
    program = _load_program(args)
    sys.stdout.write(format_program(program))
    return 0


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"solve": _cmd_solve, "check": _cmd_check,
               "ground": _cmd_ground}[args.command]
    try:
        return handler(args)
    except (BfaspError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except WatchdogError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
