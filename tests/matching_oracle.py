"""Reference k-matchings that the dense solver of :mod:`toruslb.evaluate` is
compared with.

* :func:`ssp_k_matching` is a heap successive-shortest-path solver that
  shares no code with the dense one.  Its duals need not equal the dense
  solver's, as duals are not unique; both objectives equal the value.
* :func:`copying_k_matching` is the dense solver as it was before it kept
  column-major free costs: each augmentation copies the free rows' costs and
  takes their column argmin.  The dense solver must return exactly what it
  returns, value, pairs and duals alike."""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Sequence

import numpy as np

from toruslb.evaluate import MatchingResult


def ssp_k_matching(
    weights: dict[tuple[Hashable, Hashable], float], k: int
) -> MatchingResult:
    """Maximum-weight bipartite matching with at most k edges, by successive
    shortest paths on the min-cost-flow formulation (costs are negated
    weights; augmentation stops when the marginal path is unprofitable).

    A heap Dijkstra over an adjacency list built from the positive entries of
    ``weights``; it shares no code with :func:`k_matching_max`.  Its final
    potentials give the hose-model row, column and cardinality duals.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rows = sorted({r for r, _ in weights})
    cols = sorted({c for _, c in weights})
    nr, nc = len(rows), len(cols)
    if nr == 0:
        return MatchingResult(0.0, [], {}, {}, 0.0)
    row_id = {r: i for i, r in enumerate(rows)}
    col_id = {c: nr + i for i, c in enumerate(cols)}
    src, sink = nr + nc, nr + nc + 1
    n = nr + nc + 2

    # adjacency: lists of [to, cap, cost, rev_index]
    graph: list[list[list]] = [[] for _ in range(n)]

    def add_arc(u: int, v: int, cap: int, cost: float) -> None:
        graph[u].append([v, cap, cost, len(graph[v])])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1])

    for r in rows:
        add_arc(src, row_id[r], 1, 0.0)
    for (r, c), w in sorted(weights.items()):
        if w > 0:
            add_arc(row_id[r], col_id[c], k, -w)
    for c in cols:
        add_arc(col_id[c], sink, 1, 0.0)

    potential = [0.0] * n
    # initial exact distances on the (acyclic) zero-flow graph
    dist0 = [float("inf")] * n
    dist0[src] = 0.0
    for u in (src, *range(nr), *range(nr, nr + nc)):
        if dist0[u] == float("inf"):
            continue
        for arc in graph[u]:
            v, cap, cost, _ = arc
            if cap > 0 and dist0[u] + cost < dist0[v]:
                dist0[v] = dist0[u] + cost
    finite = [x for x in dist0 if x < float("inf")]
    ceiling = max(finite) if finite else 0.0
    potential = [x if x < float("inf") else ceiling for x in dist0]

    value = 0.0
    flow_pairs: dict[tuple[int, int], int] = {}
    pushed = 0
    while pushed < k:
        # Dijkstra on reduced costs
        dist = [float("inf")] * n
        prev: list[tuple[int, int] | None] = [None] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if d_u > dist[u] + 1e-15:
                continue
            for idx, arc in enumerate(graph[u]):
                v, cap, cost, _ = arc
                if cap <= 0:
                    continue
                nd = d_u + cost + potential[u] - potential[v]
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    prev[v] = (u, idx)
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == float("inf"):
            break
        true_cost = dist[sink] + potential[sink] - potential[src]
        ceiling = max(x for x in dist if x < float("inf"))
        for v in range(n):
            potential[v] += dist[v] if dist[v] < float("inf") else ceiling
        if true_cost >= 0.0:
            break
        # augment one unit along the recorded path
        v = sink
        while v != src:
            u, idx = prev[v]
            arc = graph[u][idx]
            arc[1] -= 1
            graph[v][arc[3]][1] += 1
            v = u
        value += -true_cost
        pushed += 1

    for u in range(nr):
        for arc in graph[u]:
            v, cap, cost, rev = arc
            if nr <= v < nr + nc and cost < 0 and graph[v][rev][1] > 0:
                flow_pairs[(u, v)] = graph[v][rev][1]

    assignment = [(rows[u], cols[v - nr]) for (u, v) in sorted(flow_pairs)]

    # Hose-model duals from the final potentials (cardinality multiplier from
    # clamping the sink potential at the source's level).
    pi_src = potential[src]
    pi_sink = min(potential[sink], pi_src)
    card_dual = pi_src - pi_sink
    row_duals = {r: max(0.0, potential[row_id[r]] - pi_src) for r in rows}
    col_duals = {c: max(0.0, pi_sink - potential[col_id[c]]) for c in cols}
    return MatchingResult(value, assignment, row_duals, col_duals, card_dual)


def copying_k_matching(
    weights: Sequence[Sequence[float]] | np.ndarray, k: int
) -> tuple[float, list[tuple[int, int]], np.ndarray, np.ndarray, float]:
    """:func:`toruslb.evaluate._k_matching` with a copy of the free rows' costs
    per augmentation: the value and pairs, plus the duals its final
    potentials hold: per-row a >= 0, per-column b >= 0 and gamma >= 0 with
    ``a[i] + b[j] + gamma >= W[i, j]`` everywhere and ``sum(a) + sum(b) + k *
    gamma`` equal to the value.  Rows and columns without a positive weight
    get 0."""
    if k < 1:
        raise ValueError("k must be at least 1")
    w = np.maximum(np.atleast_2d(np.asarray(weights, dtype=float)), 0.0)
    a, b = np.zeros(w.shape[0]), np.zeros(w.shape[1])
    rows = np.flatnonzero((w > 0).any(axis=1))
    cols = np.flatnonzero((w > 0).any(axis=0))
    if not rows.size:
        return 0.0, [], a, b, 0.0
    cost = -w[np.ix_(rows, cols)]
    nr, nc = cost.shape
    pr = np.zeros(nr)
    pc = cost.min(axis=0)
    pt = pc.min()
    row_of = np.full(nc, -1)  # matched row of each column, -1 if free
    col_of = np.full(nr, -1)  # matched column of each row, -1 if free
    for _ in range(min(k, nr, nc)):
        # One Dijkstra from every free row at once (their potential is 0).  A
        # matched column's key is its label and a free column's key is the
        # sink's label through it; a scanned column's key is inf, and its
        # base of -inf keeps later rows from relaxing it again.
        free_rows = np.flatnonzero(col_of < 0)
        best = cost[free_rows].argmin(axis=0)
        pred = free_rows[best]
        gap = np.where(row_of < 0, pc - pt, 0.0)
        key = cost[pred, np.arange(nc)] - pc + gap
        base = pc - gap
        dist_row = np.where(col_of < 0, 0.0, np.inf)
        dist_col = np.full(nc, np.inf)
        while True:
            j = int(key.argmin())
            i = row_of[j]
            if i < 0:
                break
            d = key[j]
            dist_row[i] = dist_col[j] = d
            key[j], base[j] = np.inf, -np.inf
            cand = cost[i] - base + (d + pr[i])
            better = cand < key
            np.copyto(key, cand, where=better)
            np.copyto(pred, i, where=better)
        d_sink = key[j]
        # updated before the stop test, so the duals below see the last search
        pr += np.minimum(dist_row, d_sink)
        # unscanned columns' labels are key - gap; every label caps at d_sink
        pc += np.minimum(np.minimum(dist_col, key - gap), d_sink)
        pt += d_sink
        if pt >= 0.0:
            break
        while j >= 0:
            i = pred[j]
            nxt = col_of[i]
            row_of[j], col_of[i] = i, j
            j = nxt
    pairs = sorted(
        (int(rows[i]), int(cols[j])) for j, i in enumerate(row_of) if i >= 0 and cost[i, j] < 0
    )
    # Clamp the sink's potential to one level: with k pairs matched the rows
    # pay from 0 and gamma = -level; with fewer, gamma = 0 and the rows pay
    # from the level, which is at least 0 while a row is left free.
    pt = float(pt)
    if (row_of >= 0).sum() == k:
        gamma = max(-pt, 0.0)
        level, shift = -gamma, 0.0
    else:
        gamma = 0.0
        level = shift = max(pt, 0.0) if (col_of < 0).any() else pt
    a[rows] = np.maximum(pr - shift, 0.0)
    b[cols] = np.maximum(level - pc, 0.0)
    return math.fsum(w[r, c] for r, c in pairs), pairs, a, b, gamma
