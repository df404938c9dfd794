import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslb.evaluate import (
    candidate_edges,
    load_edge_classes,
    pair_weights_on_edge,
    worst_case_load,
)
from toruslb.policy import (
    OriginPolicy,
    check_reflection_invariance,
    edge_entries,
    expand,
    origin_policy_from_csv,
    policy_to_csv,
    symmetrize,
    symmetrize_origin,
    validate_policy,
)
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb
from toruslb.torus import (
    Automorphism,
    DirectedEdge,
    Direction,
    Node,
    TorusSpec,
    automorphism_group,
    node_add,
    node_index,
    point_group,
)

from tests.test_evaluate import random_origin_policy


def pair_slab(policy, s, t):
    """Edge flows ``[dir, y, x]`` of the one pair s -> t, read through the
    policy's ``gather``; a node off the grid raises ``ValueError``."""
    src, dst = np.array([[node_index(policy.spec, s)], [node_index(policy.spec, t)]])
    return policy.gather(src, dst)[0]


def test_validate_ecmp_clean():
    assert validate_policy(build_ecmp(TorusSpec(6, 6))) == []


def test_validate_flags_injected_fault():
    policy = build_ecmp(TorusSpec(6, 6))
    victim = Node(2, 1)
    broken = policy.flows.copy()
    slab = broken[victim.y * 6 + victim.x]
    edge = edge_entries(slab)[0][0]
    slab[edge.dir, edge.tail.y, edge.tail.x] = 0.0
    violations = validate_policy(OriginPolicy(spec=policy.spec, flows=broken))
    assert violations
    assert any("residual" in v for v in violations)


def test_validate_empty_policy():
    assert validate_policy(OriginPolicy(TorusSpec(4, 4), np.zeros((16, 4, 4, 4)))) == []


def test_expand_bytes_pinned():
    # sha256 of the expanded LLB(2) 6x6 array, recorded while expand still
    # stacked one rolled slab per pair.
    flows = expand(build_llb(TorusSpec(6, 6), 2)).flows
    assert flows.shape == (36, 36, 4, 6, 6)
    assert (
        hashlib.sha256(flows.tobytes()).hexdigest()
        == "05c98a5ee9704c9eacfce0e7971ddc6a7849c7a93988d269da8800072fb8e938"
    )


def test_expand_translation():
    spec = TorusSpec(6, 6)
    g = build_ecmp(spec)
    full = expand(g)
    assert validate_policy(full) == []
    s, t_off = Node(2, 3), Node(1, 2)
    translated = dict(edge_entries(pair_slab(full, s, node_add(spec, s, t_off))))
    base = dict(edge_entries(pair_slab(g, Node(0, 0), t_off)))
    for edge, v in base.items():
        shifted = DirectedEdge(node_add(spec, edge.tail, s), edge.dir)
        assert translated[shifted] == pytest.approx(v)
    origin_pair = dict(edge_entries(pair_slab(full, Node(0, 0), t_off)))
    assert origin_pair == base


def test_expand_llb_validates():
    spec = TorusSpec(8, 8)
    assert validate_policy(expand(build_llb(spec, 2))) == []


def test_symmetrize_fixed_point_and_idempotence():
    spec = TorusSpec(4, 4)
    group = automorphism_group(spec)
    invariant = expand(build_ecmp(spec))
    fixed = symmetrize(invariant, group)
    np.testing.assert_allclose(fixed.flows, invariant.flows, rtol=0, atol=1e-12)
    rng = np.random.default_rng(4)
    random_full = expand(random_origin_policy(spec, rng))
    once = symmetrize(random_full, group)
    twice = symmetrize(once, group)
    np.testing.assert_allclose(twice.flows, once.flows, rtol=0, atol=1e-12)


def test_symmetrize_singleton_identity():
    spec = TorusSpec(4, 4)
    f = expand(random_origin_policy(spec, np.random.default_rng(9)))
    same = symmetrize(f, [Automorphism()])
    assert np.array_equal(same.flows, f.flows)


def test_symmetrize_never_increases_worst_case():
    spec = TorusSpec(4, 4)
    group = automorphism_group(spec)
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = expand(random_origin_policy(spec, rng))
        avg = symmetrize(f, group)
        assert validate_policy(avg) == []
        before = worst_case_load(f, 2).value
        after = worst_case_load(avg, 2).value
        assert after <= before + 1e-9


def test_reflection_invariance_checks():
    assert check_reflection_invariance(build_llb(TorusSpec(8, 8), 2))
    assert check_reflection_invariance(build_gllb(TorusSpec(4, 10), 2, 2))
    # a policy routing clockwise-only is asymmetric by construction
    spec = TorusSpec(5, 5)
    g = np.zeros((25, 4, 5, 5))
    for t in spec.nodes():
        node = Node(0, 0)
        for d, steps in ((Direction.POS_HOR, t.x), (Direction.POS_VERT, t.y)):
            for _ in range(steps):
                g[t.y * 5 + t.x, d, node.y, node.x] = 1.0
                node = spec.edge_head(DirectedEdge(node, d))
    assert not check_reflection_invariance(OriginPolicy(spec, g))


def test_reflection_verdict_kept_until_flows_change(monkeypatch):
    checks = []
    monkeypatch.setattr(
        "toruslb.policy.check_reflection_invariance",
        lambda g: checks.append(g) or check_reflection_invariance(g),
    )
    g = build_llb(TorusSpec(6, 6), 2)
    for _ in range(3):
        assert candidate_edges(g) == [DirectedEdge(Node(0, 0), Direction.POS_VERT)]
    # symmetrize_origin recorded LLB's verdict, so nothing is checked
    assert checks == []
    # the flows are read-only, so the verdict holds for the policy's life;
    # edited flows make a new policy, which is checked exactly once
    with pytest.raises(ValueError):
        g.flows[1] = np.roll(g.flows[1], 1, axis=-1)
    edited = g.flows.copy()
    edited[1] = np.roll(edited[1], 1, axis=-1)
    h = OriginPolicy(g.spec, edited)
    assert candidate_edges(h) == [DirectedEdge(Node(0, 0), d) for d in Direction]
    assert checks == [h]
    assert worst_case_load(h, 4).value == pytest.approx(worst_case_load(expand(h), 4).value)
    assert checks == [h]


@pytest.mark.parametrize("full", [False, True], ids=["origin", "full"])
def test_policies_reject_nodes_off_the_grid(full):
    # on 4x4, Node(5, 0) used to alias flat index 5, the node (1, 1), and
    # Node(-1, 0) to read (3, 0)
    policy = build_ecmp(TorusSpec(4, 4))
    policy = expand(policy) if full else policy
    for off in (Node(5, 0), Node(-1, 0)):
        edge = DirectedEdge(off, Direction.POS_VERT)
        for call in (
            lambda: policy.on_edge(edge),
            lambda: pair_weights_on_edge(policy, edge),
            lambda: pair_slab(policy, off, Node(0, 0)),
            lambda: pair_slab(policy, Node(0, 0), off),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{off!r} is not a node of the 4x4")):
                call()
    # a node equal to a grid node reads as that node, as in toruslb.paths
    edges = [DirectedEdge(u, Direction.POS_HOR) for u in (Node(2.0, 0), Node(2, 0))]
    assert np.array_equal(*(policy.on_edge(e) for e in edges))
    pairs = [(Node(2.0, 0), Node(0, 1.0)), (Node(2, 0), Node(0, 1))]
    assert np.array_equal(*(pair_slab(policy, *pair) for pair in pairs))


@pytest.mark.parametrize("full", [False, True], ids=["origin", "full"])
def test_policies_read_the_edge_direction_as_a_direction(full):
    # -1 used to read the NEG_HOR weights, 4 and 2.0 to raise a bare IndexError
    policy = build_ecmp(TorusSpec(4, 4))
    policy = expand(policy) if full else policy
    tail = Node(1, 0)
    for bad in (-1, 4, 1.5):
        edge = DirectedEdge(tail, bad)
        for call in (lambda: policy.on_edge(edge), lambda: pair_weights_on_edge(policy, edge)):
            with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not a valid Direction")):
                call()
    # a whole float reads as its direction, as Node(2.0, 0) reads as (2, 0)
    edges = [DirectedEdge(tail, d) for d in (2.0, Direction.POS_HOR)]
    assert np.array_equal(*(policy.on_edge(e) for e in edges))
    assert pair_weights_on_edge(policy, edges[0]) == pair_weights_on_edge(policy, edges[1])


def test_reflection_check_holds_one_copy_of_the_flows():
    # a user copy of VLB's flows is checked, not recorded invariant; the check
    # used to hold the pulled-back flows and their difference at once (2x)
    vlb = build_vlb(TorusSpec(20, 20))
    g = OriginPolicy(vlb.spec, vlb.flows.copy())
    tracemalloc.start()
    try:
        assert check_reflection_invariance(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * g.flows.nbytes


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_llb(TorusSpec(7, 7), 3),
        lambda: build_gllb(TorusSpec(6, 10), 2, 2),  # stem routing
        lambda: build_gllb(TorusSpec(4, 10), 2, 2),  # the ring fallback
        lambda: build_gllb(TorusSpec(8, 8, cap_vertical=2.0, cap_horizontal=1.0), 2, 1),
        lambda: build_ring_lb(TorusSpec(5, 8)),
        lambda: build_ring_lb(TorusSpec(9, 4, cap_vertical=1.0, cap_horizontal=3.0)),
        lambda: build_ecmp(TorusSpec(5, 7, cap_vertical=2.0, cap_horizontal=1.0)),
        lambda: build_vlb(TorusSpec(6, 6)),
    ],
    ids=["llb", "gllb-stems", "gllb-ring", "gllb-unequal", "ring", "ring-horizontal", "ecmp", "vlb"],
)
def test_symmetrized_schemes_record_invariance_without_a_check(monkeypatch, build):
    def refuse(g):
        raise AssertionError("reflection check ran on a symmetrized policy")

    monkeypatch.setattr("toruslb.policy.check_reflection_invariance", refuse)
    policy = build()
    assert policy.reflection_invariant is True
    assert candidate_edges(policy) == [edge for _, edge, _ in load_edge_classes(policy.spec)]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(
        [
            TorusSpec(4, 4),
            TorusSpec(5, 5),
            TorusSpec(4, 6),
            TorusSpec(5, 7),
            TorusSpec(5, 5, cap_vertical=2.0, cap_horizontal=1.0),
            TorusSpec(4, 6, cap_vertical=1.0, cap_horizontal=3.0),
        ]
    ),
    st.integers(0, 2**32 - 1),
)
def test_symmetrize_origin_output_passes_the_reflection_check(spec, seed):
    """What symmetrize_origin records without a check, the check confirms."""
    policy = symmetrize_origin(random_origin_policy(spec, np.random.default_rng(seed)))
    assert check_reflection_invariance(policy)
    assert policy.reflection_invariant


def test_policy_flows_are_read_only():
    spec = TorusSpec(6, 6)
    ecmp = build_ecmp(TorusSpec(4, 4))
    policies = [
        build_ecmp(spec),
        build_vlb(spec),
        build_llb(spec, 2),
        build_gllb(TorusSpec(6, 8), 2, 2),
        build_gllb(TorusSpec(4, 10), 2, 5),
        build_ring_lb(TorusSpec(4, 6)),
        build_ring_lb(TorusSpec(6, 4)),
        expand(ecmp),
        symmetrize(expand(ecmp), point_group(ecmp.spec)),
        symmetrize_origin(ecmp),
        OriginPolicy(spec, np.zeros((36, 4, 6, 6))),
    ]
    for p in policies:
        assert p.flows.flags.writeable is False
        with pytest.raises(ValueError):
            p.flows[(0,) * p.flows.ndim] = 0.5


def test_policy_csv_roundtrip():
    spec = TorusSpec(5, 5)
    g = build_ecmp(spec)
    text = policy_to_csv(g)
    assert text.splitlines()[0] == "dst_x,dst_y,tail_x,tail_y,dir,fraction"
    back = origin_policy_from_csv(spec, text)
    assert np.array_equal(back.flows, g.flows)


def test_full_policy_csv_bytes_pinned():
    # sha256 of the CSV, recorded while policy_to_csv still walked one pair's
    # slab at a time
    text = policy_to_csv(expand(build_ecmp(TorusSpec(4, 4))))
    assert text.splitlines()[0] == "src_x,src_y,dst_x,dst_y,tail_x,tail_y,dir,fraction"
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "354dcf8fd02e248ca3353e2ae3ae169f9602e925590ba105ab6072f36efe7a31"
    )


@pytest.mark.parametrize(
    "row,reason",
    [
        ("-1,0,0,0,+h,1.0", "off the grid"),  # destination
        ("9,0,0,0,+h,1.0", "off the grid"),
        ("0,4,0,0,+v,1.0", "off the grid"),
        ("1,0,-1,0,+h,1.0", "off the grid"),  # tail
        ("1,0,0,4,+h,1.0", "off the grid"),
        ("0,0,0,0,+h,1.0", "destination (0, 0)"),
        ("1,0,0,0,+x,1.0", "unknown direction '+x'"),
        ("1,0,0,0,+h", "not enough values"),
        ("1,0,0,0,+h,1.0,2", "too many values"),
        ("1,0,0,0,+h,half", "could not convert"),
        ("1.5,0,0,0,+h,1.0", "invalid literal"),
        ("1,0,0,0,+h,nan", "fraction nan is not finite"),
        ("1,0,0,0,+h,inf", "fraction inf is not finite"),
        ("1,0,0,0,+h,-inf", "fraction -inf is not finite"),
    ],
)
def test_origin_policy_csv_names_a_row_it_cannot_place(row, reason):
    text = "dst_x,dst_y,tail_x,tail_y,dir,fraction\n1,0,0,0,+h,1.0\n" + row + "\n"
    with pytest.raises(ValueError, match=re.escape(f"line 3: {row}: ") + ".*" + re.escape(reason)):
        origin_policy_from_csv(TorusSpec(4, 4), text)


def test_origin_policy_csv_later_row_overrides():
    text = "dst_x,dst_y,tail_x,tail_y,dir,fraction\n1,0,0,0,+h,0.25\n\n1,0,0,0,+h,1.0\n"
    g = origin_policy_from_csv(TorusSpec(4, 4), text).flows
    assert g[1, Direction.POS_HOR, 0, 0] == 1.0
    assert np.count_nonzero(g) == 1
    assert validate_policy(OriginPolicy(TorusSpec(4, 4), g)) == []


def test_validate_policy_rejects_a_nan_flow():
    # every comparison with NaN is False, so each box and balance check must
    # be written so that NaN fails it; the CSV reader refuses NaN, so the
    # policy is built from an array
    spec = TorusSpec(4, 4)
    g = build_ecmp(spec).flows.copy()
    t, d, y, x = np.argwhere(g > 0)[0].tolist()
    g[t, d, y, x] = np.nan
    violations = validate_policy(OriginPolicy(spec, g))
    dst, tail = Node(t % spec.cols, t // spec.cols), Node(x, y)
    edge = DirectedEdge(tail, Direction(d))
    head = node_add(spec, tail, Node(*edge.dir.delta))
    # the flow itself, then the residual at both ends of its edge, by (y, x)
    assert violations == [f"dest {dst}: flow nan on {edge} outside [0, 1]"] + [
        f"dest {dst}: node {u} residual nan" for u in sorted((tail, head), key=lambda u: (u.y, u.x))
    ]


def test_validate_policy_names_flows_outside_the_box():
    spec = TorusSpec(4, 4)
    g = np.zeros((16, 4, 4, 4))
    g[1, Direction.POS_HOR, 0, 0] = 1.5
    violations = validate_policy(OriginPolicy(spec, g))
    edge = DirectedEdge(Node(0, 0), Direction.POS_HOR)
    assert f"dest {Node(1, 0)}: flow 1.5 on {edge} outside [0, 1]" in violations
