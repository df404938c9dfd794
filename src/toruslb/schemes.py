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
  quanta.  Destinations are built in blocks: the leg tables are made once,
  each block's stems and capacities are ``[B, 4N]`` array operations, and
  only the crossing runs per destination, in the unchecked max-flow core
  of :mod:`toruslb.paths`.
* GLLB(r1, r2): the N x M generalization with per-axis radii; when the cut
  between stems is bisection-limited it falls back to ring load balancing.
* Ring load balancing: spread around the short-dimension ring, cross on both
  arcs of the long dimension, aggregate.  Only vertical rings are built;
  horizontal rings are vertical rings of the transposed torus, mapped back by
  swapping the node axes and the vertical and horizontal directions.

Every constructor returns an origin policy that is translation and
reflection invariant by construction, and records that without a check
(:attr:`~toruslb.policy.OriginPolicy.reflection_invariant`): ECMP and VLB as
built, the stem and ring schemes by averaging over the spec's point group.
"""

from __future__ import annotations

import math

import numpy as np

from toruslb.bounds import best_llb_radius
from toruslb.paths import (
    CutTooSmall,
    PathError,
    RadiusTooLarge,
    StemsOverlap,
    _route_quanta,
    _stem_legs,
    _whole_radius,
    min_cut_between_stems,
)
from toruslb.policy import OriginPolicy, _invariant_by_construction, symmetrize_origin, translate
from toruslb.torus import Direction, Node, TorusSpec, node_neg


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
    return _invariant_by_construction(OriginPolicy(spec=spec, flows=flows))


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
    return _invariant_by_construction(OriginPolicy(spec=spec, flows=flows))


# ---------------------------------------------------------------------------
# Stem-based routing (LLB and the high-cut GLLB cases)


# Cap on B * 4 * num_nodes, the elements of each ``[B, 4N]`` array that one
# block of B destinations builds: 32 KB each on any torus.  Against one
# destination at a time, building LLB(4) on 12x12 raised peak RSS by 0.05 MB
# at this cap, 0.2 MB at 1 << 14, 2.2 MB at 1 << 16 and 3.4 MB with every
# destination in one block.
_BLOCK_ELEMENTS = 1 << 12


def _stem_flows(spec: TorusSpec, r1: int, r2: int) -> np.ndarray:
    """Three-phase stem routing to every destination, ``G[t, dir, y, x]``
    before symmetrization, built in blocks of destinations.

    Legs pointing along the axis through the destination are trimmed at the
    midline: the trimmed tip absorbs the leg's remaining share and hands the
    excess across the midline on the axis edge it already owns, and a node
    exactly on the midline holds its share for the destination's aggregation
    instead of crossing.  Perpendicular stem overlaps simply cancel.  Every
    other stem node ships its share on two crossing paths, and the crossing
    quanta may ride whatever leg-edge budget the trimming left unused.

    Only the source stem is walked.  The destination stem and its
    aggregation are the source stem reflected through t/2: node u maps to
    t - u with every edge reversed, so edge (d, u) becomes edge
    (d, t - u - delta_d), whose tail is t less the head of (d, u).  The
    crossing runs from the source-stem nodes within each leg's trimmed
    length to their mirrors, less the nodes on both lists, which hold the
    same share in both stems: such a node is its own mirror (the midpoint of
    a trimmed leg) or lies on untrimmed legs, which hold two quanta at every
    node.

    All accounting is in integer quanta of 1/(4*(r1+r2)), so the edge flows
    never exceed the leg profile on axis edges or one quantum elsewhere; that
    per-pair cap is what pins the scheme's exact worst-case load.

    The leg tables (``paths._stem_legs`` and each leg edge's profile
    2*(radius - hop)) and the source stem's capacities are built once.
    Each block of destinations, capped at ``_BLOCK_ELEMENTS``, computes its
    trimmed spreads, handoffs, mirrored stems, slot capacities and first-pool
    capacities as ``[B, 4N]`` arrays and turns them into lists once; then
    each destination with suppliers left routes its crossing through
    ``paths._route_quanta``, and one ``np.bincount`` adds the block's paths.
    The core checks nothing: capacities and quotas are nonnegative ints and
    nodes are grid ids by construction.
    """
    rows, cols, n = spec.rows, spec.cols, spec.num_nodes
    if 2 * r1 >= rows or 2 * r2 >= cols:
        raise RadiusTooLarge(
            f"need 2*r1 < rows and 2*r2 < cols, got r1={r1}, r2={r2}"
        )
    size = 4 * n
    unit = 1.0 / (4 * (r1 + r2))
    radius = np.array([r1, r1, r2, r2])
    extent = np.array([rows, rows, cols, cols])
    leg, hop, edge, head_y, head_x = _stem_legs(rows, cols, r1, r2)
    profile = 2 * (radius[leg] - hop)
    head = head_y * cols + head_x
    heads = head.tolist()
    cap = np.zeros(size, dtype=int)
    cap[edge] = profile

    flows = np.zeros((n, 4, rows, cols))
    per_block = max(1, _BLOCK_ELEMENTS // size)
    for start in range(1, n, per_block):
        ty, tx = np.divmod(np.arange(start, min(start + per_block, n)), cols)
        batch = len(ty)
        b = np.arange(batch)[:, None]
        # hops to t along each leg; a leg off t's axis line is never trimmed
        across = np.stack([tx, tx, ty, ty], axis=1)
        along = np.stack([ty, -ty, tx, -tx], axis=1) % extent
        d_seg = np.where(across == 0, along, 2 * radius)
        length = np.minimum(radius, d_seg // 2)[:, leg]
        held = hop < length  # [B, leg edge]: spread edges, the nodes they enter
        spread = np.where(held, profile, 0)
        handoff = np.where((hop == length) & (d_seg % 2 == 1)[:, leg], profile, 0)
        mirror = ((ty[:, None] - head_y) % rows) * cols + (tx[:, None] - head_x) % cols
        mirror_edge = leg * n + mirror
        # q: spread, the (unmirrored) midline handoffs and the aggregation
        q = np.zeros((batch, size), dtype=int)
        q[:, edge] = spread + handoff
        q[b, mirror_edge] += spread
        cap_dst = np.zeros((batch, size), dtype=int)
        cap_dst[b, mirror_edge] = profile
        # Per-pair slot capacities in quanta: distribution edges of the source
        # stem and aggregation edges of the destination stem.  An edge serving
        # both roles for this pair may carry their sum minus one quantum: using
        # two slots with one demand frees a pool seat elsewhere, and the
        # forfeited quantum is what keeps the stacked worst case unchanged.
        slot_cap = np.where((cap > 0) & (cap_dst > 0), cap + cap_dst - 1, np.maximum(cap, cap_dst))
        seat = slot_cap > 0
        free = np.maximum(slot_cap - q, 0)
        # held node j is shared when some held node j' has head[j] + head[j']
        # == t; the relation is symmetric, so the mirrors of the shared nodes
        # are the shared mirrors, and one mask keeps both terminal lists
        pairs = (head[:, None] == mirror[:, None, :]) & held[:, None, :]
        keep = held & ~pairs.any(axis=2)
        crossed: list[int] = []
        for i, (kept, mirrors, first) in enumerate(
            zip(keep.tolist(), mirror.tolist(), np.where(seat, free, 1).tolist())
        ):
            sources = [(u, 2) for u, k in zip(heads, kept) if k]
            if not sources:
                continue
            sinks = [(v, 2) for v, k in zip(mirrors, kept) if k]
            # Tight geometries (legs spanning nearly the whole extent) can
            # leave the crossing corridors short of one-quantum capacity;
            # widening the non-leg quantum keeps conservation and stays within
            # the generalized bound's additive slack.  The square acceptance
            # grids never relax.  Only a cut too small widens; any other
            # failure propagates.
            for pool in (1, 2, 3, 4):
                capacity = first if pool == 1 else np.where(seat[i], free[i], pool).tolist()
                try:
                    paths = _route_quanta(rows, cols, sources, sinks, capacity)
                    break
                except CutTooSmall:
                    continue
            else:
                t = Node(int(tx[i]), int(ty[i]))
                raise PathError(f"stem crossing infeasible for destination {t}")
            offset = i * size
            crossed.extend(e + offset for path in paths for e in path)
        q += np.bincount(np.array(crossed, dtype=int), minlength=q.size).reshape(q.shape)
        flows[start : start + batch] = (q * unit).reshape(batch, 4, rows, cols)
    return flows


def build_llb(spec: TorusSpec, r: int) -> OriginPolicy:
    """Local load balancing with stem radius r on a square symmetric torus."""
    r = _whole_radius("r", r)
    if not spec.is_square_symmetric():
        raise ValueError("LLB is defined on square symmetric tori; use build_gllb")
    if r < 1 or 2 * r >= spec.rows:
        raise RadiusTooLarge(f"need 1 <= r < rows/2, got r={r}")
    return symmetrize_origin(OriginPolicy(spec=spec, flows=_stem_flows(spec, r, r)))


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
# Radii for k-limited traffic, and GLLB


def llb_radius(spec: TorusSpec, k: int) -> int:
    """The radius minimizing ``llb_load_upper`` for k among those that
    :func:`build_llb` accepts on ``spec``, 1 <= r < rows/2 (1 when none is)."""
    return best_llb_radius(k, max(1, (spec.rows - 1) // 2))


def gllb_radii(spec: TorusSpec, k: int) -> tuple[int, int]:
    """Stem radii minimizing the worst-case bound for k-limited traffic,
    capped at half of each extent so that :func:`build_gllb` accepts them."""
    c1, c2 = spec.cap_vertical, spec.cap_horizontal
    r1 = max(1, math.ceil(math.sqrt(c1 * k / (2 * c2))))
    r2 = max(1, math.ceil(math.sqrt(c2 * k / (2 * c1))))
    return min(r1, spec.rows // 2), min(r2, spec.cols // 2)


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
    r1, r2 = _whole_radius("r1", r1), _whole_radius("r2", r2)
    if r1 < 1 or r2 < 1 or 2 * r1 > spec.rows or 2 * r2 > spec.cols:
        raise RadiusTooLarge("need 1 <= r1 <= rows/2 and 1 <= r2 <= cols/2")
    if not _probe_high_cut(spec, r1, r2):
        return build_ring_lb(spec)
    return symmetrize_origin(OriginPolicy(spec=spec, flows=_stem_flows(spec, r1, r2)))
