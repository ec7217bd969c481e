"""Seeded instance streams for the benchmark workloads, with their checks.

Every stream draws from ``random.Random(f"<workload>:<seed>")``, so one
seed always yields the same instances in the same order.  bfasp receives
only what an instance carries: model and data text, or (normal-many) a
ground Program built from generated rules.  The expected answer comes
from ``reference`` and is kept beside the instance for ``verify``.

Why each workload exists and which layer it loads is recorded in
``BENCHMARK.json`` and in the README next to this file.
"""

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import bfasp
from bfasp import (
    Clause,
    Literal,
    Program,
    Rule,
    SearchStatus,
    Sort,
    VarKind,
    Variable,
)

import reference

MODELS = Path(__file__).resolve().parent / "models"


@dataclass
class Instance:
    label: str
    expected: object
    model_text: str = ""
    data_text: str = ""
    founded_default: tuple | None = None
    # Ground inputs arrive as a factory so that every run gets a fresh
    # Program object, never one a previous run has touched.
    make_program: Callable[[], Program] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int], Iterator[Instance]]
    verify: Callable
    # Instances of one end-to-end pass: a fixed prefix of the stream, solved
    # once per pass until the run's time is up.  The tail percentile is
    # chosen from this count (see run.tail_percentile), so it is the same on
    # every run.
    instances: int
    # Instances in one pass of the traced run: a fixed prefix of the stream,
    # so that the counts it reports repeat exactly.
    traced: int


# -- mcds-cycle ---------------------------------------------------------------

MCDS_NODES = 10
MCDS_WEIGHTS = (10, 40)
# loose: every arc of N-2 nodes meets the cap, so the optimum is N-2 and the
#   first model turns up at the same point of the search on every instance;
# unsat: the cap is below the whole cycle's diameter, so search must prove
#   that no model exists;
# full: only the whole cycle meets the cap, so the optimum is N, found late.
MCDS_CAP_MIX = ("loose", "unsat", "full", "loose")


def _cycle_caps(weights):
    """Cap intervals per kind for a two-way cycle, None if 'full' is empty.

    Edge i joins nodes i+1 and i+2 (mod N).  An arc of N-2 nodes drops three
    consecutive edges and its diameter is the sum of the rest; the whole
    cycle's diameter is the longest of the shorter ways round.
    """
    n = len(weights)
    total = sum(weights)
    drops = [weights[i] + weights[(i + 1) % n] + weights[(i + 2) % n]
             for i in range(n)]
    best_arc, worst_arc = total - max(drops), total - min(drops)
    prefix = list(itertools.accumulate(weights, initial=0))
    cycle = max(min(prefix[v] - prefix[u], total - prefix[v] + prefix[u])
                for u in range(n) for v in range(u + 1, n))
    if cycle >= best_arc:
        return None
    return {"loose": (worst_arc, total), "unsat": (cycle // 2, cycle - 1),
            "full": (cycle, best_arc - 1)}


def mcds_cycle(seed: int) -> Iterator[Instance]:
    rand = random.Random(f"mcds-cycle:{seed}")
    model_text = (MODELS / "mcds_core.bfz").read_text()
    n = MCDS_NODES
    for index in itertools.count():
        kind = MCDS_CAP_MIX[index % len(MCDS_CAP_MIX)]
        caps = None
        while caps is None:
            weights = [rand.randint(*MCDS_WEIGHTS) for _ in range(n)]
            caps = _cycle_caps(weights)
        cap = rand.randint(*caps[kind])
        edges = []
        for i, w in enumerate(weights):
            a, b = i + 1, (i + 1) % n + 1
            edges += [(a, b, w), (b, a, w)]
        data = (f"N = {n};\nE = {len(edges)};\nK = {cap};\n"
                f"from = {[u for u, _, _ in edges]};\n"
                f"to = {[v for _, v, _ in edges]};\n"
                f"weight = {[w for _, _, w in edges]};\n")
        yield Instance(f"mcds-cycle#{index} ({kind}, K = {cap})",
                       reference.mcds_optimum(n, edges, cap), model_text,
                       data, founded_default=(-sum(weights), 0))


def verify_mcds(instance: Instance, outcome) -> list:
    problems = _exhausted(outcome)
    if instance.expected is None:
        if outcome.models:
            problems.append("found a model, but none exists")
        return problems
    size, optima = instance.expected
    if not outcome.models:
        return problems + [f"no model found, optimum is {size}"]
    if outcome.objective != size:
        problems.append(f"objective {outcome.objective}, optimum is {size}")
    index = outcome.program.index_by_name
    best = outcome.models[-1]
    chosen = tuple(v for v in range(1, MCDS_NODES + 1)
                   if best[index[f"dom[{v}]"]])
    if chosen not in optima:
        problems.append(f"picked {chosen}, not an optimal set")
    problems += _verdict(outcome)
    for model in outcome.models[:-1]:
        if not bfasp.check_stable(outcome.program, model).stable:
            problems.append("an improving model is not stable")
    return problems


# -- sssp-ground ------------------------------------------------------------

SSSP_NODES = 300
SSSP_EDGES = 3000
SSSP_MAX_WEIGHT = 50
# The last tenth of the nodes only has edges among itself and towards the
# rest, so nothing reaches it from the source: those distances stay -inf.
SSSP_UNREACHABLE_SHARE = 10


def sssp_ground(seed: int) -> Iterator[Instance]:
    rand = random.Random(f"sssp-ground:{seed}")
    model_text = (MODELS / "sssp.bfz").read_text()
    n, island = SSSP_NODES, SSSP_NODES - SSSP_NODES // SSSP_UNREACHABLE_SHARE
    for index in itertools.count():
        edges = []
        for _ in range(SSSP_EDGES):
            u = rand.randint(1, n)
            v = rand.randint(1, n - 1)
            v += v >= u
            if v > island >= u:
                u, v = v, u
            edges.append((u, v, rand.randint(1, SSSP_MAX_WEIGHT)))
        data = (f"N = {n};\nE = {len(edges)};\nS = 1;\n"
                f"from = {[u for u, _, _ in edges]};\n"
                f"to = {[v for _, v, _ in edges]};\n"
                f"weight = {[w for _, _, w in edges]};\n")
        yield Instance(f"sssp-ground#{index}",
                       reference.bellman_ford(n, edges, 1), model_text, data,
                       founded_default=(-SSSP_MAX_WEIGHT * (n - 1), 0))


def verify_sssp(instance: Instance, outcome) -> list:
    problems = _exhausted(outcome)
    if len(outcome.models) != 1:
        return problems + [f"{len(outcome.models)} models, expected one"]
    index = outcome.program.index_by_name
    model = outcome.models[0]
    wrong = 0
    for v, dist in enumerate(instance.expected[1:], start=1):
        want = bfasp.NEG_INF if dist == math.inf else -dist
        wrong += model[index[f"d[{v}]"]] != want
    if wrong:
        problems.append(f"{wrong} distances disagree with Bellman-Ford")
    return problems + _verdict(outcome)


# -- normal-many ------------------------------------------------------------

NORMAL_ATOMS = (8, 12)
NORMAL_MAX_RULES = 15


def _normal_rules(rand, n_atoms: int, n_rules: int) -> list:
    """(head, pos_mask, neg_mask) triples in the shape of criterion 4.

    Bodies never mention their head and use each atom with one polarity.
    """
    rules = []
    for _ in range(n_rules):
        head = rand.randrange(n_atoms)
        others = [v for v in range(n_atoms) if v != head]
        rand.shuffle(others)
        pos = neg = 0
        for var in others[:rand.randint(0, 3)]:
            if rand.random() < 0.5:
                pos |= 1 << var
            else:
                neg |= 1 << var
        rules.append((head, pos, neg))
    return rules


def _encode_normal(n_atoms: int, rules) -> Program:
    """``h :- p, not q`` becomes the rule clause ``h | ~p | q`` with head h."""
    variables = tuple(Variable(f"v{i}", VarKind.FOUNDED, Sort.BOOL)
                      for i in range(n_atoms))
    encoded = []
    for head, pos, neg in rules:
        lits = [Literal(head, True)]
        for var in range(n_atoms):
            if pos >> var & 1:
                lits.append(Literal(var, False))
            if neg >> var & 1:
                lits.append(Literal(var, True))
        encoded.append(Rule(Clause(lits=tuple(lits)), head))
    return Program(variables, rules=tuple(encoded))


def normal_many(seed: int) -> Iterator[Instance]:
    rand = random.Random(f"normal-many:{seed}")
    for index in itertools.count():
        n_atoms = rand.randint(*NORMAL_ATOMS)
        rules = _normal_rules(rand, n_atoms,
                              rand.randint(0, NORMAL_MAX_RULES))
        yield Instance(
            f"normal-many#{index}", reference.gl_stable_masks(rules),
            make_program=lambda n_atoms=n_atoms, rules=rules:
                _encode_normal(n_atoms, rules))


def verify_normal(instance: Instance, outcome) -> list:
    problems = _exhausted(outcome)
    masks = {sum(1 << var for var, value in model.items() if value is True)
             for model in outcome.models}
    if len(masks) != len(outcome.models):
        problems.append("duplicate models")
    if masks != instance.expected:
        problems.append(f"stable models {sorted(masks)}, "
                        f"GL reduct gives {sorted(instance.expected)}")
    return problems + _verdict(outcome)


# -- shared -------------------------------------------------------------------

def _exhausted(outcome) -> list:
    if outcome.status is not SearchStatus.EXHAUSTED:
        return [f"search ended with {outcome.status}, not exhausted"]
    return []


def _verdict(outcome) -> list:
    if outcome.verdict is not None and not outcome.verdict.stable:
        return ["check_stable rejects the printed model: "
                + outcome.verdict.describe(outcome.program)]
    return []


WORKLOADS = {
    "mcds-cycle": Workload("mcds-cycle", mcds_cycle, verify_mcds,
                           instances=len(MCDS_CAP_MIX),
                           traced=len(MCDS_CAP_MIX)),
    "sssp-ground": Workload("sssp-ground", sssp_ground, verify_sssp,
                            instances=1, traced=3),
    "normal-many": Workload("normal-many", normal_many, verify_normal,
                            instances=2000, traced=400),
}
