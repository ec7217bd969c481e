"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports bfasp.  Each function recomputes the expected answer
from the generated instance by brute force or by a textbook algorithm, in
the style of ``tests/oracles.py``, so agreement with the solver is evidence
rather than a tautology.
"""

import itertools
import math


def mcds_optimum(n: int, edges, cap: int):
    """Minimum connected dominating set with a distance cap, by brute force.

    ``edges`` holds directed ``(u, v, w)`` triples over nodes 1..n.  A node
    set qualifies when every node is in it or has an out-neighbour in it,
    and every ordered pair of members is joined within ``cap`` by a path
    that steps only along edges between members.  Subsets are tried by
    increasing size; returns ``(size, optimal subsets)`` with each subset a
    sorted tuple, or None when no subset qualifies.
    """
    closed = [0] * (n + 1)  # bit v-1: node v itself or an out-neighbour
    succ = [0] * (n + 1)
    pred = [0] * (n + 1)
    for v in range(1, n + 1):
        closed[v] = 1 << (v - 1)
    for u, v, _ in edges:
        closed[u] |= 1 << (v - 1)
        succ[u] |= 1 << (v - 1)
        pred[v] |= 1 << (u - 1)
    nodes = range(1, n + 1)
    for size in nodes:
        optima = []
        for picked in itertools.combinations(nodes, size):
            mask = 0
            for v in picked:
                mask |= 1 << (v - 1)
            if not all(closed[v] & mask for v in nodes):
                continue
            # Cheap filter before the distance check: members must be
            # strongly connected inside the subset.
            start = picked[0]
            if (_reach(start, succ, mask) != mask
                    or _reach(start, pred, mask) != mask):
                continue
            if _diameter(picked, edges) <= cap:
                optima.append(picked)
        if optima:
            return size, optima
    return None


def _reach(start: int, step, mask: int) -> int:
    seen = 1 << (start - 1)
    frontier = [start]
    while frontier:
        node = frontier.pop()
        fresh = step[node] & mask & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            frontier.append(low.bit_length())
            fresh ^= low
    return seen


def _diameter(picked, edges):
    """Longest shortest path between members, inside the member subgraph."""
    member = set(picked)
    dist = {(u, v): 0 if u == v else math.inf for u in picked for v in picked}
    for u, v, w in edges:
        if u in member and v in member and w < dist[u, v]:
            dist[u, v] = w
    for k in picked:
        for u in picked:
            through_k = dist[u, k]
            for v in picked:
                if through_k + dist[k, v] < dist[u, v]:
                    dist[u, v] = through_k + dist[k, v]
    return max(dist.values())


def bellman_ford(n: int, edges, source: int) -> list:
    """Single-source shortest paths; index 0 unused, math.inf = unreachable."""
    dist = [math.inf] * (n + 1)
    dist[source] = 0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def gl_stable_masks(rules) -> set:
    """Stable models of a normal program, as bitmasks over the atoms.

    ``rules`` holds ``(head, pos_mask, neg_mask)`` triples.  For each
    candidate set the Gelfond-Lifschitz reduct keeps the rules whose
    negative body misses the candidate; the candidate is stable when the
    least model of those rules is the candidate itself.  A least model only
    ever contains rule heads, so only subsets of the heads are candidates.
    """
    heads = 0
    for head, _, _ in rules:
        heads |= 1 << head
    stable = set()
    candidate = heads
    while True:
        kept = [(1 << head, pos) for head, pos, neg in rules
                if not neg & candidate]
        closure = 0
        changed = True
        while changed:
            changed = False
            for bit, pos in kept:
                if not closure & bit and closure & pos == pos:
                    closure |= bit
                    changed = True
        if closure == candidate:
            stable.add(candidate)
        if candidate == 0:
            return stable
        candidate = (candidate - 1) & heads
