"""Exact load evaluation and worst-case analysis over k-limited traffic.

Loads on concrete demands come from one block evaluator: a run of demands
with the same number of entries W is packed into ``[B, W]`` pair and amount
arrays, read with one :meth:`~toruslb.policy.OriginPolicy.gather`, and
reduced to per-demand loads and mean hops.  :func:`run_trials` evaluates its
generated demands in such blocks, and :func:`edge_loads` is the one-demand
block; both give what adding one pair at a time in entry order gives, to
the bit.  The gathered flows are multiplied by their amounts only if some
amount in the block is not 1.0, and divided by their capacities only if a
capacity is not 1.0: x * 1.0 and x / 1.0 are x in IEEE 754, so the skip is
exact, and unit demands on a unit-capacity torus (every ``table1`` trial)
pay for neither pass.

The worst case over the k-limited polytope is computed combinatorially: for a
fixed edge the load is linear in the demand, the polytope's vertices are 0/1
matrices with per-source and per-sink multiplicity one and at most k entries,
so maximizing load on that edge is a maximum-weight bipartite matching with a
cardinality cap (Towles & Dally 2002).  :func:`worst_case_load` solves it on
the dense ``W[s, t]`` of :meth:`on_edge` with :func:`k_matching_max`, a numpy
shortest-augmenting-path solver.  It keeps a column-major copy of the costs in
which matched rows read inf, so each augmentation's cheapest free row per
column is one contiguous argmin, with no copy, and matching a row is one row
write.  Each Dijkstra scan is one argmin and three array calls into buffers
allocated once per solve: the scanned row's offers go into a row of a table,
labels fall through one ``np.minimum`` (which returns the old label on a tie,
``±0.0`` included, so a tie changes no bit), and only the augmenting path's
columns look up which offer set their label.  Weights must be finite.
Successive shortest paths pass through a maximum matching of every size on
the way to k (Ahuja, Magnanti & Orlin 1993), so :func:`worst_case_profile`
reads the worst case at every k up to a bound from one run per edge.  The
final potentials also give the hose-model dual multipliers, which
:func:`_k_matching_sparse` returns keyed by node for the LP export's
feasibility checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from toruslb.policy import FullPolicy, Policy
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
    gives; and the hops are a running sum, from 0.0, in entry order.

    The ``× amount`` passes run unless every amount in the block is 1.0, and
    the ``÷ capacity`` pass unless both capacities are 1.0: x * 1.0 and
    x / 1.0 are x in IEEE 754, so skipping them changes no bit."""
    spec = p.spec
    b, w = len(block), len(block[0].entries)
    cv, ch = spec.cap_vertical, spec.cap_horizontal
    flat = np.array(
        [u.y * spec.cols + u.x for d in block for pair in d.entries for u in pair], dtype=np.intp
    ).reshape(b * w, 2)  # [pair, (src, dst)]
    amount = np.array([v for d in block for v in d.entries.values()], dtype=float).reshape(b, w)
    flows = p.gather(flat[:, 0], flat[:, 1])  # a fresh array, scaled in place below
    terms = np.zeros((b, w + 1))
    terms[:, 1:] = flows.reshape(b, w, 4 * spec.num_nodes).sum(axis=2)
    if not (amount == 1.0).all():
        np.multiply(amount, terms[:, 1:], out=terms[:, 1:])
        np.multiply(amount.reshape(b * w, 1, 1, 1), flows, out=flows)
    hops = terms.cumsum(axis=1)[:, -1]
    if cv != 1.0 or ch != 1.0:
        caps = np.array([cv, cv, ch, ch])[:, None, None]  # by Direction's axis bit
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
    w[[row_id[r] for r, _ in weights], [col_id[c] for _, c in weights]] = list(weights.values())
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
    and the sorted matched pairs of positive weight.  Raises ``ValueError``
    naming the first NaN or infinite weight, and for k < 1, a bool or a
    k that is not an integer.
    """
    value, pairs, *_ = _k_matching(weights, k)
    return value, pairs


def _check_k(k: int) -> None:
    """Raise ``ValueError`` naming ``k`` unless it is an integer, Python or
    numpy but not a bool, of at least 1."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, not {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")


def _k_matching(
    weights: Sequence[Sequence[float]] | np.ndarray, k: int, values: list[float] | None = None
) -> tuple[float, list[tuple[int, int]], np.ndarray, np.ndarray, float]:
    """:func:`k_matching_max`'s value and pairs, plus the duals its final
    potentials hold: per-row a >= 0, per-column b >= 0 and gamma >= 0 with
    ``a[i] + b[j] + gamma >= W[i, j]`` everywhere and ``sum(a) + sum(b) + k *
    gamma`` equal to the value.  Rows and columns without a positive weight
    get 0.

    A run to k passes through the run to every smaller k: after its t-th
    augmentation it holds what the run to t ends with.  If ``values`` is a
    list, the value after each augmentation is appended to it."""
    _check_k(k)
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if not np.isfinite(w).all():
        index = [int(v) for v in np.unravel_index(np.isfinite(w).argmin(), w.shape)]
        raise ValueError(f"weights{index} is {w[tuple(index)]}; weights must be finite")
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
    pt = float(pc.min())
    row_of = [-1] * nc  # matched row of each column, -1 if free
    col_of = [-1] * nr  # matched column of each row, -1 if free
    matched_col = np.zeros(nc, dtype=bool)
    row_start = np.zeros(nr)  # a row's label before a search: 0 if free, inf if matched
    # The costs column-major with matched rows at inf, so each column's first
    # cheapest free row is one contiguous argmin.  Copied explicitly:
    # np.asfortranarray returns a one-row matrix itself.
    free_cost = cost.copy(order="F")
    # Row 0 holds the free rows' offers to each column, row s the s-th
    # scanned row's; a search scans at most the matched rows, fewer than m.
    m = min(k, nr, nc)
    offers = np.empty((m, nc))
    offer_rows, cost_rows = list(offers), list(cost)
    key = np.empty(nc)
    lift = np.empty(())  # d + pr[i], a 0-d array that numpy adds without conversion

    def matched_value() -> float:
        # -cost is W exactly, and fsum does not depend on the order it adds in
        return math.fsum(-cost[i, j] for j, i in enumerate(row_of) if i >= 0 and cost[i, j] < 0)

    for _ in range(m):
        # One Dijkstra from every free row at once (their potential is 0).  A
        # matched column's key is its label and a free column's key is the
        # sink's label through it; a scanned column's key is inf, and its
        # base of -inf keeps later rows from relaxing it again.
        first = free_cost.argmin(axis=0)
        gap = np.where(matched_col, 0.0, pc - pt)
        offers[0] = cost[first, np.arange(nc)] - pc + gap
        key[:] = offers[0]
        base = pc - gap
        pr_at = pr.tolist()
        scan_rows: list[int] = []
        scan_cols: list[int] = []
        labels: list[float] = []
        while True:
            j = key.argmin()
            i = row_of[j]
            if i < 0:
                break
            d = key.item(j)
            scan_rows.append(i)
            scan_cols.append(j)
            labels.append(d)
            key[j], base[j] = np.inf, -np.inf
            offer = offer_rows[len(labels)]
            np.subtract(cost_rows[i], base, out=offer)
            lift[()] = d + pr_at[i]
            np.add(offer, lift, out=offer)
            np.minimum(offer, key, out=key)
        d_sink = key.item(j)
        # updated before the stop test, so the duals below see the last search
        dist_row = row_start.copy()
        dist_row[scan_rows] = labels
        pr += np.minimum(dist_row, d_sink)
        # unscanned columns' labels are key - gap; every label caps at d_sink
        dist_col = key - gap
        dist_col[scan_cols] = labels
        pc += np.minimum(dist_col, d_sink)
        pt += d_sink
        if pt >= 0.0:
            break
        # Each path column's predecessor is the first source whose offer set
        # its final label: np.minimum returns the label, its second operand,
        # on a tie, so a later equal offer neither takes the column nor flips
        # the sign of a zero.  It is the row of that scan, which reached the
        # column through the column it holds, or the free rows' first
        # cheapest row.
        matched_col[j] = True
        d, sources = d_sink, offers[: len(labels) + 1]
        while s := int((sources[:, j] == d).argmax()):
            i = scan_rows[s - 1]
            row_of[j], col_of[i] = i, j
            j, d = scan_cols[s - 1], labels[s - 1]
        i = int(first[j])
        row_of[j], col_of[i] = i, j
        free_cost[i] = row_start[i] = np.inf  # the path's free row, matched now
        if values is not None:
            values.append(matched_value())
    matched = [(i, j) for j, i in enumerate(row_of) if i >= 0 and cost[i, j] < 0]
    pairs = sorted((int(rows[i]), int(cols[j])) for i, j in matched)
    # Clamp the sink's potential to one level: with k pairs matched the rows
    # pay from 0 and gamma = -level; with fewer, gamma = 0 and the rows pay
    # from the level, which is at least 0 while a row is left free.
    if nc - row_of.count(-1) == k:
        gamma = max(-pt, 0.0)
        level, shift = -gamma, 0.0
    else:
        gamma = 0.0
        level = shift = max(pt, 0.0) if -1 in col_of else pt
    a[rows] = np.maximum(pr - shift, 0.0)
    b[cols] = np.maximum(level - pc, 0.0)
    return matched_value(), pairs, a, b, gamma


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
    Raises ``ValueError`` for k < 1, a bool or a non-integer k on every
    policy, and for a NaN or infinite flow on a candidate edge."""
    _check_k(k)
    spec = p.spec
    cols = spec.cols
    best: WorstCaseResult | None = None
    for edge in candidate_edges(p):
        value, pairs = k_matching_max(p.on_edge(edge), k)
        load = value / spec.capacity(edge.dir)
        if pairs and (best is None or load > best.value + VALUE_TOL):
            entries = {
                (Node(s % cols, s // cols), Node(t % cols, t // cols)): 1.0 for s, t in pairs
            }
            witness = TrafficMatrix(spec=spec, entries=entries)
            best = WorstCaseResult(value=load, witness=witness, edge=edge)
    if best is None:
        empty_edge = DirectedEdge(Node(0, 0), Direction.POS_VERT)
        return WorstCaseResult(
            value=0.0, witness=TrafficMatrix(spec=spec, entries={}), edge=empty_edge
        )
    return best


def worst_case_profile(p: Policy, kmax: int) -> np.ndarray:
    """``worst_case_load(p, k).value`` at entry k - 1 for every 1 <= k <=
    ``kmax``, to the bit, from one matching run to ``kmax`` per candidate
    edge: the run passes through the optimum for every smaller k.  Across
    edges each k keeps :func:`worst_case_load`'s rule, so a later edge wins
    only by more than ``VALUE_TOL``."""
    _check_k(kmax)
    best = np.full(kmax, -np.inf)  # until an edge's matching has a pair
    for edge in candidate_edges(p):
        values = [0.0]
        _k_matching(p.on_edge(edge), kmax, values)
        # the run to k stops where the run to kmax stopped, if that is sooner
        value = np.array(values)[np.minimum(np.arange(1, kmax + 1), len(values) - 1)]
        load = value / p.spec.capacity(edge.dir)
        # a matching has a pair of positive weight iff its value is positive
        take = (value > 0) & (load > best + VALUE_TOL)
        best[take] = load[take]
    return np.maximum(best, 0.0)


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

