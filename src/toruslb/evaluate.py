"""Exact load evaluation and worst-case analysis over k-limited traffic.

Loads on concrete demands come from one block evaluator: a run of demands
with the same number of entries W is packed into ``[B, W]`` pair and amount
arrays, read with one :meth:`~toruslb.policy.OriginPolicy.gather`, and
reduced to per-demand loads and mean hops.  :func:`run_trials` evaluates its
generated demands in such blocks, and :func:`edge_loads` is the one-demand
block; both give what adding one pair at a time in entry order gives, to
the bit.

The worst case over the k-limited polytope is computed combinatorially: for a
fixed edge the load is linear in the demand, the polytope's vertices are 0/1
matrices with per-source and per-sink multiplicity one and at most k entries,
so maximizing load on that edge is a maximum-weight bipartite matching with a
cardinality cap (Towles & Dally 2002).  :func:`worst_case_load` solves it on
the dense ``W[s, t]`` of :meth:`on_edge` with :func:`k_matching_max`, a numpy
shortest-augmenting-path solver.  :func:`_k_matching_sparse`, a separate
successive-shortest-path solver over a pair-keyed weight dict, yields the
hose-model dual multipliers that the LP export's feasibility checks read, and
serves as the dense solver's independent oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from toruslb.policy import FullPolicy, Policy, edge_entries
from toruslb.torus import DirectedEdge, Direction, Node, TorusSpec
from toruslb.traffic import TrafficMatrix

VALUE_TOL = 1e-9


class SpecMismatch(ValueError):
    pass


@dataclass
class LoadReport:
    load: np.ndarray  # capacity-normalized load per edge, [dir, y, x]
    max_load: float
    avg_hops: float

    @property
    def per_edge(self) -> dict[DirectedEdge, float]:
        """Load of every loaded edge, in sorted edge order."""
        return dict(edge_entries(self.load))


@dataclass
class WorstCaseResult:
    value: float
    witness: TrafficMatrix
    edge: DirectedEdge


# Cap on B * W * 4 * num_nodes, the elements of one block's flow array and of
# the gather's index array: 128 KB each on any torus.  Blocks twice as large
# ran about 10% faster at 10x10 in some processes; in others, depending on
# what the process had allocated before, the allocator gave their freed
# temporaries back to the system after every block, and the next block
# page-faulted them in again.
_BLOCK_ELEMENTS = 1 << 14


def _blocks(p: Policy, demands: Iterable[TrafficMatrix]) -> Iterator[list[TrafficMatrix]]:
    """Runs of consecutive demands with the same number of entries, each
    checked against ``p``'s spec as it arrives, cut where a run would pass
    ``_BLOCK_ELEMENTS``.  A demand wider than the cap is a block of one."""
    slab = 4 * p.spec.num_nodes
    block: list[TrafficMatrix] = []
    for d in demands:
        if p.spec != d.spec:
            raise SpecMismatch("policy and traffic use different torus specs")
        width = len(d.entries)
        if block and (
            width != len(block[0].entries) or (len(block) + 1) * width * slab > _BLOCK_ELEMENTS
        ):
            yield block
            block = []
        block.append(d)
    if block:
        yield block


def _evaluate_block(
    p: Policy, block: list[TrafficMatrix]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loads ``[B, dir, y, x]``, max loads ``[B]`` and mean hops ``[B]`` of B
    demands with W entries each, from one gather of all B * W pairs.

    Bit-identical to evaluating one pair at a time: a reduction over the
    pair axis, which is not the innermost, adds each demand's rows in entry
    order; a row sum is the same pairwise sum that a lone slab's ``.sum()``
    gives; and the hops are a running sum, from 0.0, in entry order."""
    spec = p.spec
    b, w = len(block), len(block[0].entries)
    cv, ch = spec.cap_vertical, spec.cap_horizontal
    caps = np.array([cv, cv, ch, ch])[:, None, None]  # by Direction's axis bit
    flat = np.array(
        [u.y * spec.cols + u.x for d in block for pair in d.entries for u in pair], dtype=np.intp
    ).reshape(b * w, 2)  # [pair, (src, dst)]
    amount = np.array([v for d in block for v in d.entries.values()], dtype=float).reshape(b, w)
    flows = p.gather(flat[:, 0], flat[:, 1])  # a fresh array, scaled in place below
    terms = np.zeros((b, w + 1))
    np.multiply(amount, flows.reshape(b, w, 4 * spec.num_nodes).sum(axis=2), out=terms[:, 1:])
    hops = terms.cumsum(axis=1)[:, -1]
    np.multiply(amount.reshape(b * w, 1, 1, 1), flows, out=flows)
    np.divide(flows, caps, out=flows)
    load = np.add.reduce(flows.reshape(b, w, 4, spec.rows, spec.cols), axis=1, initial=0.0)
    # every entry is positive, so a demand's total is positive iff it has entries
    avg_hops = hops / np.array([d.total() for d in block]) if w else hops
    return load, load.reshape(b, -1).max(axis=1), avg_hops


def edge_loads(p: Policy, d: TrafficMatrix) -> LoadReport:
    """Capacity-normalized load of every edge under demand ``d``, plus the
    demand-weighted mean path length: the one-demand block of the trial
    evaluator."""
    (block,) = _blocks(p, [d])
    load, max_load, avg_hops = _evaluate_block(p, block)
    return LoadReport(load=load[0], max_load=float(max_load[0]), avg_hops=float(avg_hops[0]))


@dataclass
class MatchingResult:
    value: float
    assignment: list[tuple[Hashable, Hashable]]
    row_duals: dict[Hashable, float]
    col_duals: dict[Hashable, float]
    card_dual: float


def _k_matching_sparse(
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
        if true_cost >= -VALUE_TOL:
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


def k_matching_max(
    weights: Sequence[Sequence[float]] | np.ndarray, k: int
) -> tuple[float, list[tuple[int, int]]]:
    """Maximum total weight of a matching using at most k entries of a dense
    matrix, with row/column multiplicity at most one.

    Weights are clipped at 0 and only rows and columns with a positive entry
    are kept.  Successive shortest augmenting paths then run on the costs
    ``C = -W`` with row, column and sink potentials that keep every reduced
    cost nonnegative.  Each augmentation is one Dijkstra: every free row
    relaxes all columns in one array operation, then matched columns are
    scanned in label order (each reaches its row through the tight matched
    edge, and that row relaxes all columns) until the sink's label is final.
    It stops after ``min(k, rows, cols)`` augmentations or at the first one
    that gains at most ``VALUE_TOL``.  Returns the value (the ``math.fsum`` of
    the matched weights) and the sorted matched pairs of positive weight.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    w = np.maximum(np.atleast_2d(np.asarray(weights, dtype=float)), 0.0)
    rows = np.flatnonzero((w > 0).any(axis=1))
    cols = np.flatnonzero((w > 0).any(axis=0))
    if not rows.size:
        return 0.0, []
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
        if -(d_sink + pt) <= VALUE_TOL:
            break
        pr += np.minimum(dist_row, d_sink)
        # unscanned columns' labels are key - gap; every label caps at d_sink
        pc += np.minimum(np.minimum(dist_col, key - gap), d_sink)
        pt += d_sink
        while j >= 0:
            i = pred[j]
            nxt = col_of[i]
            row_of[j], col_of[i] = i, j
            j = nxt
    pairs = sorted(
        (int(rows[i]), int(cols[j])) for j, i in enumerate(row_of) if i >= 0 and cost[i, j] < 0
    )
    return math.fsum(w[r, c] for r, c in pairs), pairs


def pair_weights_on_edge(p: Policy, edge: DirectedEdge) -> dict[tuple[Node, Node], float]:
    """f^{s,t}_edge for every pair with nonzero flow on ``edge``."""
    nodes = list(p.spec.nodes())
    weights = p.on_edge(edge)
    s_idx, t_idx = np.nonzero(weights > 0)
    return {
        (nodes[s], nodes[t]): v
        for s, t, v in zip(s_idx.tolist(), t_idx.tolist(), weights[s_idx, t_idx].tolist())
    }


def load_edge_classes(spec: TorusSpec) -> list[tuple[str, DirectedEdge, float]]:
    """Representative load edges of a reflection-invariant origin policy,
    labelled and with their capacities: the origin's ``POS_VERT`` edge, plus
    its ``POS_HOR`` edge unless the x=y reflection identifies the two axes."""
    origin = Node(0, 0)
    classes = [("v", DirectedEdge(origin, Direction.POS_VERT), spec.cap_vertical)]
    if not spec.is_square_symmetric():
        classes.append(("h", DirectedEdge(origin, Direction.POS_HOR), spec.cap_horizontal))
    return classes


def candidate_edges(p: Policy) -> list[DirectedEdge]:
    """Edges whose k-limited maxima determine the worst case.

    Origin policies are translation invariant, so only the four origin edges
    can differ; reflection invariance further collapses opposite directions
    to :func:`load_edge_classes`.  The invariance check runs once per policy
    (:attr:`~toruslb.policy.OriginPolicy.reflection_invariant`).
    """
    if isinstance(p, FullPolicy):
        return sorted(p.spec.edges())
    if p.reflection_invariant:
        return [edge for _, edge, _ in load_edge_classes(p.spec)]
    return [DirectedEdge(Node(0, 0), d) for d in Direction]


def worst_case_load(
    p: Policy, k: int, edges: list[DirectedEdge] | None = None
) -> WorstCaseResult:
    """Exact maximum of MaxLoad(p, d) over all k-limited demands, with an
    integral k-sparse witness: one :func:`k_matching_max` per candidate edge.
    Raises ``ValueError`` for k < 1 on every policy."""
    if k < 1:
        raise ValueError("k must be at least 1")
    spec = p.spec
    nodes = list(spec.nodes())
    best: WorstCaseResult | None = None
    for edge in edges if edges is not None else candidate_edges(p):
        value, pairs = k_matching_max(p.on_edge(edge), k)
        load = value / spec.capacity(edge.dir)
        if pairs and (best is None or load > best.value + VALUE_TOL):
            witness = TrafficMatrix(
                spec=spec, entries={(nodes[s], nodes[t]): 1.0 for s, t in pairs}
            )
            best = WorstCaseResult(value=load, witness=witness, edge=edge)
    if best is None:
        empty_edge = DirectedEdge(Node(0, 0), Direction.POS_VERT)
        return WorstCaseResult(
            value=0.0, witness=TrafficMatrix(spec=spec, entries={}), edge=empty_edge
        )
    return best


@dataclass
class TrialSummary:
    trials: int
    base_seed: int
    max_load_mean: float
    max_load_min: float
    max_load_max: float
    avg_hops_mean: float


def run_trials(
    p: Policy,
    generator: Callable[[int], TrafficMatrix],
    trials: int,
    base_seed: int,
) -> TrialSummary:
    """Evaluate a policy on ``trials`` generated demands (trial i uses seed
    base_seed + i, generated in order) and summarize max load and mean hops.

    Demands are evaluated in blocks of consecutive demands with the same
    number of entries, one gather per block, with the same arithmetic as
    :func:`edge_loads` on each demand."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    demands = (generator(base_seed + i) for i in range(trials))
    per_block = [_evaluate_block(p, block)[1:] for block in _blocks(p, demands)]
    loads, hops = (np.concatenate(parts) for parts in zip(*per_block))
    return TrialSummary(
        trials=trials,
        base_seed=base_seed,
        max_load_mean=float(loads.mean()),
        max_load_min=float(loads.min()),
        max_load_max=float(loads.max()),
        avg_hops_mean=float(hops.mean()),
    )


def load_report_to_csv(report: LoadReport) -> str:
    lines = ["edge_tail_x,edge_tail_y,dir,load"]
    for edge, load in sorted(report.per_edge.items()):
        lines.append(f"{edge.tail.x},{edge.tail.y},{edge.dir.token},{load!r}")
    return "\n".join(lines) + "\n"
