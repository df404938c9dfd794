import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslb.evaluate import (
    SpecMismatch,
    _k_matching_sparse,
    pair_weights_on_edge,
    worst_case_load,
)
from toruslb.lpexport import (
    _g_name,
    _OrbitIndex,
    check_oblivious_feasibility,
    export_opt_lp,
    export_reduced_oblivious_lp,
    load_edge_classes,
    parse_lp,
)
from toruslb.schemes import build_ecmp, build_llb
from toruslb.torus import (
    Direction,
    Node,
    TorusSpec,
    apply_automorphism,
    apply_to_edge,
    point_group,
)
from toruslb.traffic import gen_split_diamond


def export_text(spec, k):
    buf = io.StringIO()
    counts = export_reduced_oblivious_lp(spec, k, buf)
    return buf.getvalue(), counts


def test_reduced_lp_roundtrip_counts():
    spec = TorusSpec(6, 6)
    text, counts = export_text(spec, 2)
    model = parse_lp(text)
    assert len(model.variables()) == counts.variables
    assert len(model.constraints) == counts.constraints
    assert model.sense == "min"
    assert model.objective == {"th": 1.0}
    assert max(len(line) for line in text.splitlines()) <= 255


def test_reduced_lp_variable_names():
    spec = TorusSpec(4, 4)
    text, _ = export_text(spec, 1)
    model = parse_lp(text)
    names = model.variables()
    assert "th" in names
    assert "gam_v" in names
    assert any(n.startswith("g_t") and "_e" in n for n in names)
    assert any(n.startswith("a_v_s") for n in names)
    assert any(n.startswith("b_v_t") for n in names)
    # square symmetric spec emits a single load-edge class
    assert "gam_h" not in names


def test_asymmetric_spec_emits_two_classes():
    spec = TorusSpec(4, 6)
    text, _ = export_text(spec, 2)
    model = parse_lp(text)
    names = model.variables()
    assert "gam_v" in names and "gam_h" in names
    load_names = {c.name for c in model.constraints if c.name.startswith("load_")}
    assert load_names == {"load_v", "load_h"}


def test_reduced_lp_coefficients_survive_roundtrip():
    spec = TorusSpec(4, 4)
    text, _ = export_text(spec, 1)
    again = io.StringIO()
    export_reduced_oblivious_lp(spec, 1, again)
    assert again.getvalue() == text
    model = parse_lp(text)
    load = next(c for c in model.constraints if c.name == "load_v")
    assert load.terms["th"] == -1.0
    assert load.terms["gam_v"] == 1.0
    hose = next(c for c in model.constraints if c.name.startswith("hose_"))
    assert sorted(hose.terms.values()) == [-1.0, 1.0, 1.0, 1.0]


def test_opt_lp_roundtrip():
    spec = TorusSpec(6, 6)
    demand = gen_split_diamond(spec, 2)
    buf = io.StringIO()
    counts = export_opt_lp(spec, demand, buf)
    model = parse_lp(buf.getvalue())
    assert len(model.variables()) == counts.variables
    assert len(model.constraints) == counts.constraints
    assert counts.flow_variables == len(demand.entries) * 4 * 36
    # one load constraint per directed edge, conservation per pair per node
    assert counts.constraints == 4 * 36 + len(demand.entries) * 36


def test_llb_feasibility_injection():
    spec = TorusSpec(6, 6)
    k = 2
    text, _ = export_text(spec, k)
    model = parse_lp(text)
    policy = build_llb(spec, 1)
    wc = worst_case_load(policy, k)
    duals = {}
    for label, edge, _cap in load_edge_classes(spec):
        res = _k_matching_sparse(pair_weights_on_edge(policy, edge), k)
        for s, v in res.row_duals.items():
            duals[f"a_{label}_s{s.x}_{s.y}"] = v
        for t, v in res.col_duals.items():
            duals[f"b_{label}_t{t.x}_{t.y}"] = v
        duals[f"gam_{label}"] = res.card_dual
    failures = check_oblivious_feasibility(spec, k, model, policy, wc.value, duals)
    assert failures == []


def test_infeasible_theta_is_caught():
    spec = TorusSpec(4, 4)
    k = 1
    text, _ = export_text(spec, k)
    model = parse_lp(text)
    policy = build_llb(spec, 1)
    wc = worst_case_load(policy, k)
    duals = {}
    for label, edge, _cap in load_edge_classes(spec):
        res = _k_matching_sparse(pair_weights_on_edge(policy, edge), k)
        for s, v in res.row_duals.items():
            duals[f"a_{label}_s{s.x}_{s.y}"] = v
        for t, v in res.col_duals.items():
            duals[f"b_{label}_t{t.x}_{t.y}"] = v
        duals[f"gam_{label}"] = res.card_dual
    bogus = check_oblivious_feasibility(spec, k, model, policy, wc.value / 2, duals)
    assert bogus


def test_opt_lp_accepts_real_routing():
    from toruslb.evaluate import edge_loads
    from toruslb.lpexport import check_opt_feasibility
    from toruslb.schemes import build_ecmp

    spec = TorusSpec(6, 6)
    demand = gen_split_diamond(spec, 2)
    buf = io.StringIO()
    export_opt_lp(spec, demand, buf)
    model = parse_lp(buf.getvalue())
    policy = build_ecmp(spec)
    flows = {pair: policy.pair_flows(*pair) for pair in demand.entries}
    theta = edge_loads(policy, demand).max_load
    assert check_opt_feasibility(spec, demand, model, flows, theta) == []
    # an understated bound must violate some load constraint
    assert check_opt_feasibility(spec, demand, model, flows, theta / 2)


def test_opt_feasibility_reports_bound_violations():
    from toruslb.evaluate import edge_loads
    from toruslb.lpexport import check_opt_feasibility
    from toruslb.traffic import gen_hotspot

    spec = TorusSpec(6, 6)
    demand = gen_hotspot(spec, 4)
    buf = io.StringIO()
    export_opt_lp(spec, demand, buf)
    model = parse_lp(buf.getvalue())
    policy = build_ecmp(spec)
    flows = {pair: policy.pair_flows(*pair).copy() for pair in demand.entries}
    theta = edge_loads(policy, demand).max_load
    # a -0.5 circulation around the unit square with corner (3, 3), off the
    # first pair's route: conservation still holds and no load rises, so only
    # the flows' lower bounds catch it
    first = flows[min(demand.entries)]
    for d, x, y in ((Direction.POS_HOR, 3, 3), (Direction.POS_VERT, 4, 3),
                    (Direction.NEG_HOR, 4, 4), (Direction.NEG_VERT, 3, 4)):
        first[d, y, x] -= 0.5
    assert check_opt_feasibility(spec, demand, model, flows, theta) == [
        "bound f_p0_e3_3_ph: -0.5 < 0.0",
        "bound f_p0_e3_4_nv: -0.5 < 0.0",
        "bound f_p0_e4_3_pv: -0.5 < 0.0",
        "bound f_p0_e4_4_nh: -0.5 < 0.0",
    ]


# sha256 of export_reduced_oblivious_lp text, recorded before variable names
# came from the orbit key table; any change to a name or row order shows here.
LP_DIGESTS = [
    ((4, 4), 1, "18771aad0febecfdedcce5b684f6daa2c94c7a02453d4ad48a63f0c96cbe2e5f"),
    ((6, 6), 2, "a54a030b2a9b5cde2f06c37590d0cfad651f5a62a6a8663aa5c98854388a628c"),
    ((8, 8), 18, "31ea096b9b67b4173dbdc228b27fed559ce279a7f3b2637a3b1a471ee32be683"),
    ((4, 6), 2, "fb361ec57dffaaa275807d7c41b80c429212dca79ca4619a733beb14d01a5d76"),
    ((5, 9), 13, "9cc5774b5c35a2e97874091dff4ef2a18a46d9e9fbe2f517cf85a2e8c11b3f63"),
    ((6, 8), 8, "cf375fe668c27c4c538f497da6139ae5ef5df2642d789bf3edb11817e44db1d3"),
    # square, but unequal capacities leave only {I, R0}
    ((6, 6, 2.0), 2, "ebb9a08df42e7438dd2237976d458f282696d6b707787b07a6a953e1eb3289b1"),
]


# the ids keep the names these cases had while the table also pinned an
# export without orbit-tied variables (the True marked the tied ones)
@pytest.mark.parametrize(
    "dims,k,digest",
    LP_DIGESTS,
    ids=[f"dims{i}-{k}-True-{digest}" for i, (_, k, digest) in enumerate(LP_DIGESTS)],
)
def test_reduced_lp_bytes_pinned(dims, k, digest):
    text, _ = export_text(TorusSpec(*dims), k)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def orbit_head_name(spec, t, edge):
    """Reference: the name of the smallest point-group image of (t, edge),
    found by applying every automorphism."""
    orbit = [
        (apply_automorphism(spec, phi, t), apply_to_edge(spec, phi, edge))
        for phi in point_group(spec)
    ]
    return _g_name(*min(orbit))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(3, 7), st.sampled_from([1.0, 2.0]))
def test_orbit_names_match_automorphism_orbits(rows, cols, cap_vertical):
    spec = TorusSpec(rows, cols, cap_vertical=cap_vertical)
    index = _OrbitIndex(spec)
    heads = set()
    for t in spec.nodes():
        for edge in spec.edges():
            expected = orbit_head_name(spec, t, edge)
            at = (t.y * cols + t.x, edge.dir, edge.tail.y * cols + edge.tail.x)
            assert index.name(int(index.rep[at])) == expected
            assert index.name(int(index.key[at])) == _g_name(t, edge)
            if t != Node(0, 0):
                heads.add(expected)
    text, _ = export_text(spec, 2)
    names = {v for v in parse_lp(text).variables() if v.startswith("g_")}
    assert names == heads


def test_feasibility_rejects_mismatched_spec():
    for model_dims, policy_dims in [((6, 6), (8, 8)), ((6, 8), (8, 6))]:
        spec = TorusSpec(*model_dims)
        text, _ = export_text(spec, 2)
        model = parse_lp(text)
        policy = build_ecmp(TorusSpec(*policy_dims))
        with pytest.raises(SpecMismatch):
            check_oblivious_feasibility(spec, 2, model, policy, 1.0, {})
