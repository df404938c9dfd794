"""Constructors for the routing schemes under study.

Each constructor writes its routes straight into the dense origin-policy
array ``G[t, dir, y, x]`` (see :mod:`toruslb.policy`).

* ECMP: equal split over all shortest paths.  ``C[u] = binom(|ux| + |uy|,
  |ux|)`` over u's axis distances, doubled for each axis where u is
  antipodal, counts the shortest paths from the origin to u; edge (u, d)
  carries ``C[u] * C[t - u - delta_d] / C[t]`` of t's route when it lies on
  one of them.
* VLB: two-phase routing through a uniformly random intermediate node.
* LLB(r): spread over the source stem, cross on edge-disjoint paths, and
  aggregate at the destination stem, which is the source stem reflected
  through t/2 (u -> t - u, edges reversed); near destinations cancel the
  shared stem work instead of crossing.  Each route is a slab of integer
  quanta.
* GLLB(r1, r2): the N x M generalization with per-axis radii; when the cut
  between stems is bisection-limited it falls back to ring load balancing.
* Ring load balancing: spread around the short-dimension ring, cross on both
  arcs of the long dimension, aggregate.  Only vertical rings are built;
  horizontal rings are vertical rings of the transposed torus, mapped back by
  swapping the node axes and the vertical and horizontal directions.

Every constructor returns an origin policy that is translation and
reflection invariant by construction: ECMP and VLB as built, the stem and
ring schemes by averaging over the spec's point group.
"""

from __future__ import annotations

import math

import numpy as np

from toruslb.paths import (
    CutTooSmall,
    PathError,
    RadiusTooLarge,
    StemsOverlap,
    min_cut_between_stems,
    route_disjoint_quanta,
)
from toruslb.policy import OriginPolicy, symmetrize_origin, translate
from toruslb.torus import Direction, Node, TorusSpec, node_neg, node_sub


# ---------------------------------------------------------------------------
# ECMP


def build_ecmp(spec: TorusSpec) -> OriginPolicy:
    """Equal-cost multipath: per destination, split evenly over all shortest
    paths.

    ``C[u]``, the number of shortest paths from the origin to u, is the
    binomial of u's two axis distances, doubled on each axis where u is
    antipodal.  Edge (u, d) lies on a shortest path to t exactly when
    ``dist(u) + 1 + dist(w) == dist(t)`` with ``w = t - u - delta_d``, and then
    carries ``C[u] * C[w] / C[t]`` of the route.  The counts are Python ints,
    exact on every torus, and each share is one correctly rounded division.
    """
    rows, cols = spec.rows, spec.cols
    ay = [min(y, rows - y) for y in range(rows)]
    ax = [min(x, cols - x) for x in range(cols)]
    dist = np.add.outer(ay, ax)
    count = np.array(
        [
            [math.comb(a + b, b) * (1 + (2 * a == rows)) * (1 + (2 * b == cols)) for b in ax]
            for a in ay
        ],
        dtype=object,
    )
    ty, tx = np.divmod(np.arange(spec.num_nodes), cols)
    ys, xs = np.arange(rows)[:, None], np.arange(cols)
    flows = np.zeros((spec.num_nodes, 4, rows, cols))
    for d in Direction:
        dx, dy = d.delta
        wy = (ty[:, None, None] - ys - dy) % rows
        wx = (tx[:, None, None] - xs - dx) % cols
        t, y, x = np.nonzero(dist + 1 + dist[wy, wx] == dist[ty, tx][:, None, None])
        flows[t, d, y, x] = (
            count[y, x] * count[wy[t, y, 0], wx[t, 0, x]] / count[ty[t], tx[t]]
        )
    return OriginPolicy(spec=spec, flows=flows)


# ---------------------------------------------------------------------------
# VLB


def build_vlb(spec: TorusSpec) -> OriginPolicy:
    """Route through every node as an intermediate with weight 1/(rows*cols),
    each phase following ECMP shortest-path splitting.  The source and the
    destination participate as intermediates themselves.

    Phase 1 spreads from the origin to every node and is the same for every
    destination.  Phase 2 collects from every node into t, which is the
    collection into the origin translated by t; that in turn is the sum of
    every ECMP route translated to end at the origin."""
    weight = 1.0 / spec.num_nodes
    ecmp = build_ecmp(spec).flows
    nodes = list(spec.nodes())
    spread = np.zeros_like(ecmp[0])
    collect = np.zeros_like(ecmp[0])
    for m, route in zip(nodes, ecmp):
        spread += weight * route
        collect += weight * translate(route, node_neg(spec, m))
    flows = np.stack([spread + translate(collect, t) for t in nodes])
    flows[0] = 0.0  # the origin's own slab
    return OriginPolicy(spec=spec, flows=flows)


# ---------------------------------------------------------------------------
# Stem-based routing (LLB and the high-cut GLLB cases)


def _stem_route(spec: TorusSpec, t: Node, r1: int, r2: int) -> np.ndarray:
    """Three-phase stem routing for one destination, as a ``[dir, y, x]``
    slab.

    Legs pointing along the axis through the destination are trimmed at the
    midline: the trimmed tip absorbs the leg's remaining share and hands the
    excess across the midline on the axis edge it already owns, and a node
    exactly on the midline holds its share for the destination's aggregation
    instead of crossing.  Perpendicular stem overlaps simply cancel.  Every
    other stem node ships its share on two crossing paths, and the crossing
    quanta may ride whatever leg-edge budget the trimming left unused.

    Only the source stem is walked.  The destination stem and its
    aggregation are the source stem reflected through t/2: node u maps to
    t - u with every edge reversed, so edge (d, u) reads edge
    (d, t - u - delta_d).  The crossing runs from the source-stem nodes
    within each leg's trimmed length to their mirrors, less the nodes on
    both lists, which hold the same share in both stems: such a node is its
    own mirror (the midpoint of a trimmed leg) or lies on untrimmed legs,
    which hold two quanta at every node.

    All accounting is in integer quanta of 1/(4*(r1+r2)), so the edge flows
    never exceed the leg profile on axis edges or one quantum elsewhere; that
    per-pair cap is what pins the scheme's exact worst-case load.
    """
    if 2 * r1 >= spec.rows or 2 * r2 >= spec.cols:
        raise RadiusTooLarge(
            f"need 2*r1 < rows and 2*r2 < cols, got r1={r1}, r2={r2}"
        )
    rows, cols = spec.rows, spec.cols
    unit = 1.0 / (4 * (r1 + r2))
    shape = (4, rows, cols)
    # cap: leg profile 2*(radius - h) on the h-th edge of each leg; spread:
    # that profile cut at the trimmed length; q starts with the midline
    # handoffs, which are not mirrored
    cap = np.zeros(shape, dtype=int)
    spread = np.zeros(shape, dtype=int)
    q = np.zeros(shape, dtype=int)
    held: list[Node] = []  # source-stem nodes that hold their share, leg by leg
    for direction, radius, along, across, extent in (
        (Direction.POS_VERT, r1, t.y, t.x, rows),
        (Direction.NEG_VERT, r1, -t.y, t.x, rows),
        (Direction.POS_HOR, r2, t.x, t.y, cols),
        (Direction.NEG_HOR, r2, -t.x, t.y, cols),
    ):
        # hops to t along the leg; a leg off t's axis line is never trimmed
        d_seg = along % extent if across == 0 else 2 * radius
        length = min(radius, d_seg // 2)
        node = Node(0, 0)
        for h in range(radius):
            profile = 2 * (radius - h)
            cap[direction, node.y, node.x] = profile
            if h < length:
                spread[direction, node.y, node.x] = profile
            elif h == length and d_seg % 2:
                q[direction, node.y, node.x] = profile
            node = spec.step(node, direction)
            if h < length:
                held.append(node)

    # the destination stem: edge (d, u) reads edge (d, t - u - delta_d)
    dx, dy = np.array([d.delta for d in Direction]).T
    ys = (t.y - dy[:, None] - np.arange(rows))[:, :, None] % rows
    xs = (t.x - dx[:, None] - np.arange(cols))[:, None, :] % cols
    cap_dst, aggregation = np.stack([cap, spread])[:, np.arange(4)[:, None, None], ys, xs]
    q += spread + aggregation
    # Per-pair slot capacities in quanta: distribution edges of the source
    # stem and aggregation edges of the destination stem.  An edge serving
    # both roles for this pair may carry their sum minus one quantum: using
    # two slots with one demand frees a pool seat elsewhere, and the forfeited
    # quantum is what keeps the stacked worst case unchanged.
    slot_cap = np.where((cap > 0) & (cap_dst > 0), cap + cap_dst - 1, np.maximum(cap, cap_dst))

    mirror = [node_sub(spec, t, u) for u in held]
    shared = set(held) & set(mirror)
    suppliers = [(u, 2) for u in held if u not in shared]
    demanders = [(v, 2) for v in mirror if v not in shared]
    if suppliers:
        # Tight geometries (legs spanning nearly the whole extent) can leave
        # the crossing corridors short of one-quantum capacity; widening the
        # non-leg quantum keeps conservation and stays within the generalized
        # bound's additive slack.  The square acceptance grids never relax.
        # Only a cut too small widens; any other failure propagates.
        for pool in (1, 2, 3, 4):
            capacity = np.where(slot_cap > 0, np.maximum(slot_cap - q, 0), pool)
            try:
                paths = route_disjoint_quanta(spec, suppliers, demanders, capacity)
                break
            except CutTooSmall:
                continue
        else:
            raise PathError(f"stem crossing infeasible for destination {t}")
        q += np.bincount([e for path in paths for e in path], minlength=q.size).reshape(shape)
    return q * unit


def _stem_policy(spec: TorusSpec, r1: int, r2: int) -> OriginPolicy:
    """Stem routing to every destination, averaged over the point group."""
    flows = np.zeros((spec.num_nodes, 4, spec.rows, spec.cols))
    for i, t in enumerate(spec.nodes()):
        if i:
            flows[i] = _stem_route(spec, t, r1, r2)
    return symmetrize_origin(OriginPolicy(spec=spec, flows=flows))


def build_llb(spec: TorusSpec, r: int) -> OriginPolicy:
    """Local load balancing with stem radius r on a square symmetric torus."""
    if not spec.is_square_symmetric():
        raise ValueError("LLB is defined on square symmetric tori; use build_gllb")
    if r < 1 or 2 * r >= spec.rows:
        raise RadiusTooLarge(f"need 1 <= r < rows/2, got r={r}")
    return _stem_policy(spec, r, r)


# ---------------------------------------------------------------------------
# Ring load balancing


def _vertical_ring_flows(rows: int, cols: int) -> np.ndarray:
    """``G[t, dir, y, x]`` of ring load balancing over the vertical rings of
    a rows x cols torus: spread 1/rows to every node of column 0 the short
    way round the ring (antipodes split both ways), cross to column t.x on
    both arcs with 0.5/rows per ring position, and aggregate down column t.x
    into t, the spread's edge-reversed mirror."""
    up, down = np.zeros(rows), np.zeros(rows)  # spread flows on +v and -v edges
    for d in range(1, rows):
        share = (0.5 if 2 * d == rows else 1.0) / rows
        if 2 * d <= rows:
            up[:d] += share
        if 2 * d >= rows:
            down[-np.arange(rows - d)] += share
    n = rows * cols
    ty, tx = np.divmod(np.arange(n), cols)
    ys, xs = np.arange(rows), np.arange(cols)
    flows = np.zeros((n, 4, rows, cols))  # the origin's slab G[0] stays zero
    flows[1:, Direction.POS_VERT, :, 0] = up
    flows[1:, Direction.NEG_VERT, :, 0] = down
    # crossing arcs: +h over columns [0, t.x), -h over column 0 and (t.x, cols)
    forward = xs < tx[:, None]
    backward = ((xs == 0) | (xs > tx[:, None])) & (tx[:, None] > 0)
    flows[:, Direction.POS_HOR] = (0.5 / rows * forward)[:, None, :]
    flows[:, Direction.NEG_HOR] = (0.5 / rows * backward)[:, None, :]
    t = np.arange(1, n)[:, None]
    flows[t, Direction.NEG_VERT, ys, tx[t]] += up[(ys - ty[t] - 1) % rows]
    flows[t, Direction.POS_VERT, ys, tx[t]] += down[(ys - ty[t] + 1) % rows]
    return flows


def build_ring_lb(spec: TorusSpec) -> OriginPolicy:
    """Ring load balancing along the dimension with the smaller crossing
    bisection (ties go to vertical rings).  Horizontal rings are vertical
    rings of the transposed torus, mapped back by swapping the node axes and
    the vertical and horizontal directions (``d ^ 2``, the axis bit of
    :class:`~toruslb.torus.Direction`)."""
    rows, cols = spec.rows, spec.cols
    if rows * spec.cap_horizontal <= cols * spec.cap_vertical:
        flows = _vertical_ring_flows(rows, cols)
    else:
        flows = (
            _vertical_ring_flows(cols, rows)
            .reshape(cols, rows, 4, cols, rows)
            .transpose(1, 0, 2, 4, 3)[:, :, np.arange(4) ^ 2]
            .reshape(spec.num_nodes, 4, rows, cols)
        )
    return symmetrize_origin(OriginPolicy(spec=spec, flows=flows))


# ---------------------------------------------------------------------------
# GLLB


def gllb_radii(spec: TorusSpec, k: int) -> tuple[int, int]:
    """Stem radii minimizing the worst-case bound for k-limited traffic."""
    c1, c2 = spec.cap_vertical, spec.cap_horizontal
    r1 = max(1, math.ceil(math.sqrt(c1 * k / (2 * c2))))
    r2 = max(1, math.ceil(math.sqrt(c2 * k / (2 * c1))))
    return r1, r2


def _probe_high_cut(spec: TorusSpec, r1: int, r2: int) -> bool:
    """True when the unit-capacity cut between distant stems supports two
    paths per stem node; bisection-limited geometries fail this and use the
    ring scheme instead."""
    if 2 * r1 >= spec.rows or 2 * r2 >= spec.cols:
        return False
    unit = TorusSpec(spec.rows, spec.cols)
    far = Node(spec.cols // 2, spec.rows // 2)
    try:
        return min_cut_between_stems(unit, Node(0, 0), far, r1, r2) >= 4 * (r1 + r2)
    except StemsOverlap:
        return False


def build_gllb(spec: TorusSpec, r1: int, r2: int) -> OriginPolicy:
    """Generalized local load balancing with per-axis radii.

    High-cut geometries use stem routing for every destination (reducing to
    LLB when the spec is square and r1 == r2); when the stem-to-stem cut is
    capped by the torus bisection, the whole policy becomes ring load
    balancing, whose crossing phase saturates that bisection evenly.
    """
    if r1 < 1 or r2 < 1 or 2 * r1 > spec.rows or 2 * r2 > spec.cols:
        raise RadiusTooLarge("need 1 <= r1 <= rows/2 and 1 <= r2 <= cols/2")
    if not _probe_high_cut(spec, r1, r2):
        return build_ring_lb(spec)
    return _stem_policy(spec, r1, r2)
