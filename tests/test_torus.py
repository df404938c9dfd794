import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslb.torus import (
    DIRECTION_FROM_TOKEN,
    Automorphism,
    Direction,
    InvalidAutomorphism,
    Node,
    TorusError,
    TorusSpec,
    apply_automorphism,
    apply_to_edge,
    automorphism_group,
    automorphism_index_maps,
    hop_distance,
    node_add,
    node_neg,
    weighted_distance,
)


def test_node_add_examples():
    assert node_add(TorusSpec(4, 4), Node(3, 3), Node(1, 1)) == Node(0, 0)
    spec = TorusSpec(8, 8)
    assert node_add(spec, Node(7, 0), Node(1, 0)) == Node(0, 0)
    for u in TorusSpec(5, 7).nodes():
        assert node_add(TorusSpec(5, 7), u, Node(0, 0)) == u


def test_node_add_sub_inverse():
    spec = TorusSpec(4, 5)
    for u in spec.nodes():
        for v in spec.nodes():
            w = node_add(spec, u, v)
            assert spec.wrap(w.x - v.x, w.y - v.y) == u


def test_hop_distance_examples():
    assert hop_distance(TorusSpec(8, 8), Node(0, 0), Node(4, 4)) == 8
    assert hop_distance(TorusSpec(10, 10), Node(0, 0), Node(9, 9)) == 2
    spec = TorusSpec(6, 6)
    for u in spec.nodes():
        assert hop_distance(spec, u, u) == 0


@settings(max_examples=200)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
       st.integers(0, 9), st.integers(0, 9))
def test_hop_distance_metric(ax, ay, bx, by, cx, cy):
    spec = TorusSpec(10, 10)
    a, b, c = Node(ax, ay), Node(bx, by), Node(cx, cy)
    assert hop_distance(spec, a, b) == hop_distance(spec, b, a)
    assert hop_distance(spec, a, c) <= hop_distance(spec, a, b) + hop_distance(spec, b, c)


def test_weighted_distance():
    spec = TorusSpec(4, 10)
    assert weighted_distance(spec, Node(0, 0), Node(5, 2), 1.0, 0.5) == pytest.approx(4.5)
    uniform = TorusSpec(7, 7)
    for u in uniform.nodes():
        assert weighted_distance(uniform, Node(2, 3), u, 1.0, 1.0) == hop_distance(
            uniform, Node(2, 3), u
        )


def test_weighted_ball_membership():
    # one vertical hop is inside radius 2 with unit vertical weight; two are not
    spec = TorusSpec(4, 10)
    assert weighted_distance(spec, Node(0, 0), Node(0, 1), 1.0, 0.5) < 2
    assert not weighted_distance(spec, Node(0, 0), Node(0, 2), 1.0, 0.5) < 2


def test_reflections():
    spec = TorusSpec(8, 8)
    r0 = Automorphism(reflect_origin=True)
    rxy = Automorphism(reflect_xy=True)
    assert apply_automorphism(spec, r0, Node(1, 2)) == Node(7, 6)
    assert apply_automorphism(spec, rxy, Node(1, 2)) == Node(2, 1)
    assert apply_automorphism(spec, Automorphism(), Node(3, 5)) == Node(3, 5)


def test_reflect_xy_requires_square():
    with pytest.raises(InvalidAutomorphism):
        apply_automorphism(TorusSpec(4, 5), Automorphism(reflect_xy=True), Node(0, 0))


@pytest.mark.parametrize(
    "dims,count", [((4, 4), 64), ((4, 5), 40), ((3, 3), 36)]
)
def test_group_sizes(dims, count):
    assert len(automorphism_group(TorusSpec(*dims))) == count


@pytest.mark.parametrize("dims", [(3, 3), (4, 4), (3, 5), (4, 6)])
def test_group_closure_and_edge_preservation(dims):
    spec = TorusSpec(*dims)
    group = automorphism_group(spec)
    as_maps = {
        tuple(apply_automorphism(spec, phi, u) for u in spec.nodes()) for phi in group
    }
    assert len(as_maps) == len(group)
    for phi in group:
        for edge in spec.edges():
            image = apply_to_edge(spec, phi, edge)
            assert spec.edge_head(image) == apply_automorphism(
                spec, phi, spec.edge_head(edge)
            )
            assert spec.capacity(image.dir) == spec.capacity(edge.dir)


def test_automorphisms_are_isometries():
    spec = TorusSpec(6, 6)
    group = automorphism_group(spec)
    pairs = [(Node(0, 1), Node(3, 4)), (Node(2, 2), Node(5, 1))]
    for phi in group:
        for a, b in pairs:
            assert hop_distance(spec, a, b) == hop_distance(
                spec, apply_automorphism(spec, phi, a), apply_automorphism(spec, phi, b)
            )


def test_edge_count_and_spec_validation():
    spec = TorusSpec(4, 6)
    assert len(list(spec.edges())) == 4 * 4 * 6
    with pytest.raises(ValueError):
        TorusSpec(2, 5)
    with pytest.raises(ValueError):
        TorusSpec(4, 4, cap_vertical=0.0)
    assert TorusSpec(5, 5).is_square_symmetric()
    assert not TorusSpec(5, 5, cap_vertical=2.0).is_square_symmetric()
    assert node_neg(spec, Node(1, 2)) == Node(5, 2)


@pytest.mark.parametrize(
    "rows,cols", [(4.5, 4), (4, 4.0), ("4", 4), (True, 4), (4, None)]
)
def test_spec_requires_integer_extents(rows, cols):
    with pytest.raises(TorusError):
        TorusSpec(rows, cols)


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_spec_requires_finite_positive_capacities(cap):
    with pytest.raises(TorusError):
        TorusSpec(6, 6, cap_vertical=cap)
    with pytest.raises(TorusError):
        TorusSpec(6, 8, cap_horizontal=cap)


def test_spec_accepts_numpy_integer_extents():
    spec = TorusSpec(np.int64(4), np.int32(5), np.float64(2.0))
    assert spec.num_nodes == 20


def test_direction_bits():
    table = {
        Direction.POS_VERT: ((0, 1), Direction.NEG_VERT, True, "+v"),
        Direction.NEG_VERT: ((0, -1), Direction.POS_VERT, True, "-v"),
        Direction.POS_HOR: ((1, 0), Direction.NEG_HOR, False, "+h"),
        Direction.NEG_HOR: ((-1, 0), Direction.POS_HOR, False, "-h"),
    }
    for d, (delta, opposite, is_vertical, token) in table.items():
        assert d.delta == delta
        assert Direction(d ^ 1) is opposite
        assert d.is_vertical is is_vertical
        assert d.token == token
        assert DIRECTION_FROM_TOKEN[token] is d
    assert len(DIRECTION_FROM_TOKEN) == 4


# direction images by (reflect_xy, reflect_origin), spelled out
DIRECTION_IMAGES = {
    (False, False): [Direction.POS_VERT, Direction.NEG_VERT, Direction.POS_HOR, Direction.NEG_HOR],
    (False, True): [Direction.NEG_VERT, Direction.POS_VERT, Direction.NEG_HOR, Direction.POS_HOR],
    (True, False): [Direction.POS_HOR, Direction.NEG_HOR, Direction.POS_VERT, Direction.NEG_VERT],
    (True, True): [Direction.NEG_HOR, Direction.POS_HOR, Direction.NEG_VERT, Direction.POS_VERT],
}


def test_index_maps_match_per_node_images(monkeypatch):
    def scalar_call(*args):
        raise AssertionError("index maps must not call apply_automorphism")

    monkeypatch.setattr("toruslb.torus.apply_automorphism", scalar_call)
    checked = 0
    for rows in range(3, 9):
        for cols in range(3, 9):
            for caps in ((1.0, 1.0), (2.0, 1.0)):
                spec = TorusSpec(rows, cols, *caps)
                for phi in automorphism_group(spec):
                    nodes, dirs = automorphism_index_maps(spec, phi)
                    images = [apply_automorphism(spec, phi, u) for u in spec.nodes()]
                    assert nodes.tolist() == [v.y * cols + v.x for v in images]
                    assert dirs.tolist() == DIRECTION_IMAGES[phi.reflect_xy, phi.reflect_origin]
                    checked += 1
    assert checked == 4754
    with pytest.raises(InvalidAutomorphism):
        automorphism_index_maps(TorusSpec(4, 5), Automorphism(reflect_xy=True))
    with pytest.raises(InvalidAutomorphism):
        automorphism_index_maps(TorusSpec(4, 4, 2.0), Automorphism(reflect_xy=True))
