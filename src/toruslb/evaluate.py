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
shortest-augmenting-path solver.  It keeps a column-major copy of the costs in
which matched rows read inf, so each augmentation's cheapest free row per
column is one contiguous argmin, with no copy, and matching a row is one row
write.  Its final potentials also give the hose-model dual multipliers, which
:func:`_k_matching_sparse` returns keyed by node for the LP export's
feasibility checks.
"""

from __future__ import annotations

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
    """:func:`k_matching_max` on a pair-keyed weight dict, with the hose-model
    row, column and cardinality duals keyed as the rows and columns are."""
    rows = sorted({r for r, _ in weights})
    cols = sorted({c for _, c in weights})
    row_id = {r: i for i, r in enumerate(rows)}
    col_id = {c: j for j, c in enumerate(cols)}
    w = np.zeros((len(rows), len(cols)))
    for (r, c), v in weights.items():
        w[row_id[r], col_id[c]] = v
    value, pairs, a, b, gamma = _k_matching(w, k)
    assignment = [(rows[i], cols[j]) for i, j in pairs]
    return MatchingResult(
        value, assignment, dict(zip(rows, a.tolist())), dict(zip(cols, b.tolist())), gamma
    )


def k_matching_max(
    weights: Sequence[Sequence[float]] | np.ndarray, k: int
) -> tuple[float, list[tuple[int, int]]]:
    """Maximum total weight of a matching using at most k entries of a dense
    matrix, with row/column multiplicity at most one.

    Weights are clipped at 0 and only rows and columns with a positive entry
    are kept.  Successive shortest augmenting paths then run on the costs
    ``C = -W`` with row, column and sink potentials that keep every reduced
    cost nonnegative.  Each augmentation is one Dijkstra: every free row
    relaxes all columns in one array operation, the first cheapest free row
    of each column read by one ``argmin`` over a column-major copy of ``C``
    whose matched rows are inf; then matched columns are scanned in label
    order (each reaches its row through the tight matched edge, and that row
    relaxes all columns) until the sink's label is final.
    It stops after ``min(k, rows, cols)`` augmentations or at the first one
    that gains nothing, so the duals of :func:`_k_matching` price exactly the
    optimum; a tolerance on the gain would leave up to ``k`` uncertified gains
    below it.  Returns the value (the ``math.fsum`` of the matched weights)
    and the sorted matched pairs of positive weight.
    """
    value, pairs, *_ = _k_matching(weights, k)
    return value, pairs


def _k_matching(
    weights: Sequence[Sequence[float]] | np.ndarray, k: int
) -> tuple[float, list[tuple[int, int]], np.ndarray, np.ndarray, float]:
    """:func:`k_matching_max`'s value and pairs, plus the duals its final
    potentials hold: per-row a >= 0, per-column b >= 0 and gamma >= 0 with
    ``a[i] + b[j] + gamma >= W[i, j]`` everywhere and ``sum(a) + sum(b) + k *
    gamma`` equal to the value.  Rows and columns without a positive weight
    get 0."""
    if k < 1:
        raise ValueError("k must be at least 1")
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    a, b = np.zeros(w.shape[0]), np.zeros(w.shape[1])
    rows = np.flatnonzero((w > 0).any(axis=1))
    cols = np.flatnonzero((w > 0).any(axis=0))
    if not rows.size:
        return 0.0, [], a, b, 0.0
    cost = w[np.ix_(rows, cols)]  # a copy, clipped at 0 and negated in place: C = -W
    np.negative(np.maximum(cost, 0.0, out=cost), out=cost)
    nr, nc = cost.shape
    pr = np.zeros(nr)
    pc = cost.min(axis=0)
    pt = pc.min()
    row_of = np.full(nc, -1)  # matched row of each column, -1 if free
    col_of = np.full(nr, -1)  # matched column of each row, -1 if free
    # The costs column-major with matched rows at inf, so each column's first
    # cheapest free row is one contiguous argmin.  Copied explicitly:
    # np.asfortranarray returns a one-row matrix itself.
    free_cost = cost.copy(order="F")
    for _ in range(min(k, nr, nc)):
        # One Dijkstra from every free row at once (their potential is 0).  A
        # matched column's key is its label and a free column's key is the
        # sink's label through it; a scanned column's key is inf, and its
        # base of -inf keeps later rows from relaxing it again.
        pred = free_cost.argmin(axis=0)
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
        free_cost[i] = np.inf  # the path's free row, matched now
    matched = [(i, j) for j, i in enumerate(row_of.tolist()) if i >= 0 and cost[i, j] < 0]
    pairs = sorted((int(rows[i]), int(cols[j])) for i, j in matched)
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
    # -cost is W exactly, and fsum does not depend on the order it adds in
    return math.fsum(-cost[i, j] for i, j in matched), pairs, a, b, gamma


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


def worst_case_load(p: Policy, k: int) -> WorstCaseResult:
    """Exact maximum of MaxLoad(p, d) over all k-limited demands, with an
    integral k-sparse witness: one :func:`k_matching_max` per candidate edge.
    Raises ``ValueError`` for k < 1 on every policy."""
    if k < 1:
        raise ValueError("k must be at least 1")
    spec = p.spec
    nodes = list(spec.nodes())
    best: WorstCaseResult | None = None
    for edge in candidate_edges(p):
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
    lines += [f"{e.tail.x},{e.tail.y},{e.dir.token},{load!r}" for e, load in edge_entries(report.load)]
    return "\n".join(lines) + "\n"
