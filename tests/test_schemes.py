import hashlib
import tracemalloc

import numpy as np
import pytest

from toruslb.evaluate import edge_loads, worst_case_load
from toruslb import paths, schemes
from toruslb.paths import PathError, RadiusTooLarge
from toruslb.policy import check_reflection_invariance, edge_entries, expand, validate_policy
from toruslb.schemes import (
    build_ecmp,
    build_gllb,
    build_llb,
    build_ring_lb,
    build_vlb,
    _probe_high_cut,
    _stem_flows,
    gllb_radii,
)
from toruslb.torus import DirectedEdge, Direction, Node, TorusSpec, hop_distance
from toruslb.traffic import gen_split_diamond


def route(policy, t):
    """A policy's origin-to-t route as {DirectedEdge: fraction}."""
    return dict(edge_entries(policy.pair_flows(Node(0, 0), t)))


def brute_force_shortest_paths(spec, t):
    """All shortest origin-to-t paths by DFS enumeration."""
    origin = Node(0, 0)
    dist = hop_distance(spec, origin, t)
    paths = []

    def walk(node, trail):
        if node == t and len(trail) == dist:
            paths.append(tuple(trail))
            return
        if len(trail) >= dist:
            return
        for d in Direction:
            nxt = spec.edge_head(DirectedEdge(node, d))
            if hop_distance(spec, origin, nxt) == len(trail) + 1 and hop_distance(
                spec, nxt, t
            ) == dist - len(trail) - 1:
                trail.append(DirectedEdge(node, d))
                walk(nxt, trail)
                trail.pop()

    walk(origin, [])
    return paths


def test_ecmp_one_hop_and_diagonal():
    spec = TorusSpec(10, 10)
    g = build_ecmp(spec)
    assert route(g, Node(1, 0)) == {DirectedEdge(Node(0, 0), Direction.POS_HOR): 1.0}
    diag = route(g, Node(1, 1))
    assert diag[DirectedEdge(Node(0, 0), Direction.POS_HOR)] == pytest.approx(0.5)
    assert diag[DirectedEdge(Node(0, 0), Direction.POS_VERT)] == pytest.approx(0.5)


def test_ecmp_against_path_enumeration():
    # four offsets on 10x10, and every destination of the small tori, where
    # antipodal offsets have shortest paths both ways round an axis
    cases = [(TorusSpec(10, 10), [Node(1, 2), Node(2, 1), Node(3, 2), Node(2, 0)])]
    for dims in ((4, 4), (4, 6), (5, 6)):
        spec = TorusSpec(*dims)
        cases.append((spec, [t for t in spec.nodes() if t != Node(0, 0)]))
    for spec, dests in cases:
        g = build_ecmp(spec)
        for t in dests:
            paths = brute_force_shortest_paths(spec, t)
            per_edge = {}
            for p in paths:
                for e in p:
                    per_edge[e] = per_edge.get(e, 0) + 1
            expected = {e: count / len(paths) for e, count in per_edge.items()}
            assert route(g, t) == pytest.approx(expected, rel=1e-12), (spec, t)
    # the (1,2) offset on 10x10 has 3 shortest paths, first hop split 2/3
    # toward the longer axis and 1/3 toward the shorter one
    spec = TorusSpec(10, 10)
    assert len(brute_force_shortest_paths(spec, Node(1, 2))) == 3
    flows = route(build_ecmp(spec), Node(1, 2))
    assert flows[DirectedEdge(Node(0, 0), Direction.POS_VERT)] == pytest.approx(2 / 3)
    assert flows[DirectedEdge(Node(0, 0), Direction.POS_HOR)] == pytest.approx(1 / 3)


def test_ecmp_supported_on_shortest_edges_only():
    spec = TorusSpec(7, 7)
    g = build_ecmp(spec)
    origin = Node(0, 0)
    for t in spec.nodes():
        for e, v in route(g, t).items():
            head = spec.edge_head(e)
            assert hop_distance(spec, origin, e.tail) + 1 + hop_distance(
                spec, head, t
            ) == hop_distance(spec, origin, t)


@pytest.mark.parametrize("dims", [(4, 4), (5, 5), (4, 6), (6, 6), (7, 7)])
def test_schemes_conserve_and_reflect(dims):
    spec = TorusSpec(*dims)
    builders = [build_ecmp, build_vlb, build_ring_lb]
    if spec.is_square_symmetric() and spec.rows >= 6:
        builders.append(lambda s: build_llb(s, 2))
    for builder in builders:
        policy = builder(spec)
        assert validate_policy(policy) == []
        assert check_reflection_invariance(policy)


def test_llb_radius_validation():
    with pytest.raises(RadiusTooLarge):
        build_llb(TorusSpec(8, 8), 4)
    with pytest.raises(ValueError):
        build_llb(TorusSpec(4, 6), 1)


def test_llb_radius_must_be_a_whole_number():
    spec = TorusSpec(8, 8)
    with pytest.raises(ValueError, match=r"radius r=1\.5 is not a whole number"):
        build_llb(spec, 1.5)
    with pytest.raises(ValueError, match="radius r=True is not a whole number"):
        build_llb(spec, True)
    assert np.array_equal(build_llb(spec, 2.0).flows, build_llb(spec, 2).flows)


def test_gllb_radii_must_be_whole_numbers():
    spec = TorusSpec(8, 10)
    with pytest.raises(ValueError, match=r"radius r1=1\.5 is not a whole number"):
        build_gllb(spec, 1.5, 2)
    with pytest.raises(ValueError, match="radius r2=True is not a whole number"):
        build_gllb(spec, 2, True)
    assert np.array_equal(build_gllb(spec, 2.0, 2).flows, build_gllb(spec, 2, 2).flows)


def test_stem_route_radius_guard():
    # a typed error that ``python -O`` keeps, not an assert
    with pytest.raises(RadiusTooLarge):
        _stem_flows(TorusSpec(6, 6), 3, 3)


def test_llb_stem_edge_profile():
    # distribution edge h hops out carries (r-h)/(4r) for a distant pair
    spec = TorusSpec(10, 10)
    r = 3
    g = build_llb(spec, r)
    flows = route(g, Node(5, 5))
    for h in range(r):
        edge = DirectedEdge(Node(0, h), Direction.POS_VERT)
        assert flows[edge] == pytest.approx((r - h) / (4 * r))


def test_llb_non_stem_flow_cap():
    spec = TorusSpec(10, 10)
    r = 3
    g = build_llb(spec, r)
    quantum = 1 / (8 * r)
    t = Node(5, 5)
    stem_axis = {(0, d) for d in range(1, r + 1)}
    for e, v in route(g, t).items():
        on_source_axis = (e.tail.x == 0 and min(e.tail.y, 10 - e.tail.y) <= r) or (
            e.tail.y == 0 and min(e.tail.x, 10 - e.tail.x) <= r
        )
        on_dest_axis = (e.tail.x == 5 and abs(e.tail.y - 5) <= r) or (
            e.tail.y == 5 and abs(e.tail.x - 5) <= r
        )
        if not on_source_axis and not on_dest_axis:
            assert v <= quantum + 1e-12, (e, v)


def test_vlb_split_diamond_value():
    spec = TorusSpec(10, 10)
    vlb = build_vlb(spec)
    assert edge_loads(vlb, gen_split_diamond(spec, 3)).max_load == pytest.approx(
        1.5, abs=1e-9
    )


@pytest.mark.parametrize("dims", [(4, 4), (4, 6), (5, 5)])
def test_vlb_equals_two_phase_ecmp_average(dims):
    # every pair's VLB flows equal (1/NM) * sum_m [ECMP(s->m) + ECMP(m->t)],
    # summed here over the expanded per-pair ECMP policy
    spec = TorusSpec(*dims)
    ecmp = expand(build_ecmp(spec)).flows
    via = (ecmp.sum(axis=1)[:, None] + ecmp.sum(axis=0)[None, :]) / spec.num_nodes
    vlb = build_vlb(spec)
    nodes = list(spec.nodes())
    for i, s in enumerate(nodes):
        for j, t in enumerate(nodes):
            if s != t:
                np.testing.assert_allclose(vlb.pair_flows(s, t), via[i, j], rtol=0, atol=1e-12)


def test_gllb_radii_formula():
    assert gllb_radii(TorusSpec(10, 10), 18) == (3, 3)
    assert gllb_radii(TorusSpec(4, 10), 8) == (2, 2)
    r1, r2 = gllb_radii(TorusSpec(6, 8, cap_vertical=4.0, cap_horizontal=1.0), 8)
    assert (r1, r2) == (4, 1)


def test_gllb_matches_llb_on_square():
    # both geometries have a high stem-to-stem cut, so GLLB stem-routes
    for n, r, k in ((8, 2, 8), (10, 3, 18)):
        spec = TorusSpec(n, n)
        g = build_gllb(spec, r, r)
        l = build_llb(spec, r)
        assert np.array_equal(g.flows, l.flows)
        assert abs(worst_case_load(g, k).value - worst_case_load(l, k).value) < 1e-9


def test_gllb_low_cut_is_ring():
    spec = TorusSpec(4, 10)
    assert np.array_equal(build_gllb(spec, 2, 2).flows, build_ring_lb(spec).flows)


def test_probe_high_cut_choices_pinned():
    # sha256 of every case's high-cut verdict, recorded while the probe still
    # rebuilt both stems and ran its own unit-capacity max flow; the probe is
    # capacity-blind, so (2, 1) must repeat the (1, 1) verdicts
    verdicts = [
        _probe_high_cut(TorusSpec(rows, cols, *caps), r1, r2)
        for rows in range(3, 13)
        for cols in range(3, 13)
        for r1 in range(1, rows // 2 + 1)
        for r2 in range(1, cols // 2 + 1)
        for caps in ((1.0, 1.0), (2.0, 1.0))
    ]
    assert (len(verdicts), sum(verdicts)) == (2450, 1246)
    assert (
        hashlib.sha256(bytes(verdicts)).hexdigest()
        == "a1f26cd8aa42ca0b71df671a67cdf821806f523fd7ead6945d3d234059e96a92"
    )


def test_ring_per_pair_caps():
    # every crossing-direction edge carries at most 1/(2 * ring length) of a
    # pair: vertical rings of 4 on 4x10 cross horizontally; horizontal rings
    # of 4 on 10x4, and of 6 on 6x6 with doubled horizontal capacity, cross
    # vertically
    for spec, crossing_vertical, ring_length in (
        (TorusSpec(4, 10), False, 4),
        (TorusSpec(10, 4), True, 4),
        (TorusSpec(6, 6, 1.0, 2.0), True, 6),
    ):
        ring = build_ring_lb(spec)
        cap = 1 / (2 * ring_length)
        peak = 0.0
        for t in spec.nodes():
            for e, v in route(ring, t).items():
                if e.dir.is_vertical == crossing_vertical:
                    assert v <= cap + 1e-12, (spec, t, e, v)
                    peak = max(peak, v)
        assert peak == pytest.approx(cap), spec


def test_ring_worst_case_value():
    spec = TorusSpec(4, 10)
    assert worst_case_load(build_ring_lb(spec), 20).value == pytest.approx(
        2.5, abs=1e-6
    )


def test_worst_case_representative_edge_consistency():
    # evaluating only the representative edges equals scanning all four
    spec = TorusSpec(6, 6)
    g = build_llb(spec, 2)
    assert check_reflection_invariance(g)
    fast = worst_case_load(g, 4).value
    full = worst_case_load(expand(g), 4).value
    assert fast == pytest.approx(full, abs=1e-12)


def test_stem_route_widens_only_for_a_cut_too_small(monkeypatch):
    # any other routing failure is a fault, not a reason to widen the pool
    decompose = paths._decompose_flow
    calls = []

    def fail_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise PathError("flow decomposition failed to terminate")
        return decompose(*args)

    monkeypatch.setattr(paths, "_decompose_flow", fail_once)
    with pytest.raises(PathError, match="failed to terminate"):
        build_llb(TorusSpec(6, 6), 2)
    assert len(calls) == 1


def test_stem_route_slabs_pinned():
    # one sha256 over every stem slab of rows, cols 3..8 and every radius
    # pair, recorded while the destination stem was still walked on its own;
    # the tight geometries here widen the crossing pool
    digest = hashlib.sha256()
    slabs = 0
    for rows in range(3, 9):
        for cols in range(3, 9):
            spec = TorusSpec(rows, cols)
            for r1 in range(1, (rows - 1) // 2 + 1):
                for r2 in range(1, (cols - 1) // 2 + 1):
                    for slab in _stem_flows(spec, r1, r2)[1:]:
                        digest.update(slab.tobytes())
                        slabs += 1
    assert slabs == 5332
    assert (
        digest.hexdigest()
        == "3d9bfb64c23b5b436b1886d8c727a08c7c62ff140891e886aba88810588e654e"
    )


@pytest.mark.parametrize("shape,radii", [((10, 10), (3, 3)), ((5, 9), (2, 3)), ((8, 10), (3, 3))])
def test_stem_flows_do_not_depend_on_block_boundaries(monkeypatch, shape, radii):
    # the default cap splits each of these into several blocks; 5x9 widens
    # the crossing pool
    spec = TorusSpec(*shape)
    default = _stem_flows(spec, *radii)
    assert schemes._BLOCK_ELEMENTS // (4 * spec.num_nodes) < spec.num_nodes - 1
    for cap in (1, 4 * spec.num_nodes**2):  # one destination per block; all in one
        monkeypatch.setattr(schemes, "_BLOCK_ELEMENTS", cap)
        assert np.array_equal(_stem_flows(spec, *radii), default)


def test_llb_build_peak_memory_stays_within_four_policies():
    # blocks cap the builder's temporaries: it reads 3.50x, as the build one
    # destination at a time did, and one block of every destination 8.5x
    tracemalloc.start()
    try:
        policy = build_llb(TorusSpec(12, 12), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * policy.flows.nbytes
