import math

import pytest

from toruslb.bounds import (
    OutOfRegime,
    Regime,
    best_llb_radius,
    cut_lower_bound,
    general_torus_bounds,
    llb_load_upper,
    normalized_size,
    oblivious_lower_bound,
    vlb_hotspot_lower_bound,
)
from toruslb import paths
from toruslb.evaluate import worst_case_load
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb, gllb_radii
from toruslb.torus import TorusSpec


def test_cut_lower_bound():
    assert cut_lower_bound(16) == 1.0
    assert cut_lower_bound(18) == pytest.approx(1.0607, abs=1e-4)
    with pytest.raises(OutOfRegime):
        cut_lower_bound(0)


def test_oblivious_lower_bound_values():
    assert oblivious_lower_bound(18) == 1.5
    assert oblivious_lower_bound(8) == 1.0
    assert oblivious_lower_bound(10) == pytest.approx(1.1)
    for k in range(2, 60):
        # the plain floor sqrt(2k')/4 = 2m/4 at the largest diamond 2m^2 <= k
        m = max(m for m in range(k) if 2 * m * m <= k)
        assert oblivious_lower_bound(k) >= 2 * m / 4 - 1e-12
        assert cut_lower_bound(k) <= oblivious_lower_bound(k)


def test_gap_ratio_window():
    for k in range(2, 201):
        ratio = oblivious_lower_bound(k) / cut_lower_bound(k)
        assert 1.30 <= ratio <= 1.4143, (k, ratio)


def test_vlb_hotspot_lower_bound():
    assert vlb_hotspot_lower_bound(10, 18) == pytest.approx(1.7395, abs=1e-4)
    assert vlb_hotspot_lower_bound(10, 100) == 0.0


def test_llb_upper():
    assert llb_load_upper(3, 18) == 1.5
    assert llb_load_upper(1, 2) == 0.5
    assert best_llb_radius(18, 9) == 3
    assert min(llb_load_upper(r, 18) for r in range(1, 10)) == 1.5


def test_general_bounds_dense_regime_is_quarter_n():
    # dense traffic on an N x N torus costs N/4
    for n, k in ((8, 40), (10, 60)):
        bs = general_torus_bounds(TorusSpec(n, n), k)
        assert bs.regime == Regime.DENSE
        assert bs.general_lb == bs.general_ub == n / 4


def test_general_bounds_square_reduction():
    spec = TorusSpec(10, 10)
    bs = general_torus_bounds(spec, 18)
    assert normalized_size(spec) == 10
    assert bs.general_lb == pytest.approx(math.sqrt(36) / 4)
    assert bs.regime == Regime.SPARSE


def test_general_bounds_4x10():
    spec = TorusSpec(4, 10)
    at_boundary = general_torus_bounds(spec, 8)
    assert at_boundary.general_lb == pytest.approx(1.0)
    assert math.sqrt(2 * 8) / 4 == pytest.approx(8 / (2 * 4))  # regime continuity
    dense = general_torus_bounds(spec, 20)
    assert dense.general_lb == pytest.approx(2.5)
    beyond = general_torus_bounds(spec, 30)
    assert beyond.general_lb == pytest.approx(2.5)
    assert beyond.regime == Regime.DENSE


@pytest.mark.parametrize(
    "spec",
    [
        TorusSpec(4, 10),
        TorusSpec(5, 5),
        TorusSpec(3, 8),
        TorusSpec(7, 4),
        TorusSpec(4, 10, cap_vertical=2.0, cap_horizontal=1.0),
        TorusSpec(5, 7, cap_vertical=0.5, cap_horizontal=1.5),
    ],
    ids=lambda s: f"{s.rows}x{s.cols}-c{s.cap_vertical:g}-{s.cap_horizontal:g}",
)
def test_bisection_bandwidth_matches_max_flow(spec):
    # every node is a terminal, so the max flow is the cut between the halves
    nodes = set(spec.nodes())
    flows = []
    for half in (
        {u for u in nodes if u.y < spec.rows // 2},
        {u for u in nodes if u.x < spec.cols // 2},
    ):
        value, _ = paths.max_flow(spec, half, nodes - half)
        flows.append(value)
    c1, c2 = spec.cap_vertical, spec.cap_horizontal
    bisection = 2 * math.sqrt(c1 * c2) * normalized_size(spec)
    assert bisection == pytest.approx(min(flows), abs=1e-12)


def test_general_bounds_run_no_max_flow(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("general_torus_bounds ran a max flow")

    # the engine behind paths.max_flow, however it is imported
    monkeypatch.setattr(paths, "_augment", no_flow)
    for spec in (TorusSpec(8, 8), TorusSpec(10, 14), TorusSpec(4, 10, 2.0, 1.0)):
        general_torus_bounds(spec, 8)


def test_sandwich_on_8x8():
    spec = TorusSpec(8, 8)
    schemes = {
        "ecmp": build_ecmp(spec),
        "vlb": build_vlb(spec),
        "ring": build_ring_lb(spec),
    }
    for k in (2, 8):
        schemes[f"llb"] = build_llb(spec, best_llb_radius(k, 3))
        lb = oblivious_lower_bound(k)
        for name, policy in schemes.items():
            assert worst_case_load(policy, k).value >= lb - 1e-9, (name, k)
    r = best_llb_radius(8, 3)
    assert worst_case_load(build_llb(spec, r), 8).value <= llb_load_upper(r, 8) + 1e-9


@pytest.mark.parametrize(
    "dims,k,build,value",
    [
        ((5, 5), 12, build_vlb, 1.2),
        ((5, 5), 9, build_ring_lb, 1.05),
        ((7, 9), 24, build_ring_lb, 12 / 7),
        ((5, 8), 12, build_ring_lb, 1.2),
    ],
)
def test_sparse_general_floor_is_the_oblivious_floor(dims, k, build, value):
    # each scheme reaches below sqrt(2k)/4, so that closed form is no floor
    spec = TorusSpec(*dims)
    bs = general_torus_bounds(spec, k)
    exact = worst_case_load(build(spec), k).value
    assert bs.regime == Regime.SPARSE
    assert exact == pytest.approx(value, abs=1e-9)
    assert exact < math.sqrt(2 * k) / 4
    assert bs.general_lb == oblivious_lower_bound(k) <= exact + 1e-9
    assert bs.general_ub == math.sqrt(2 * k) / 4 + 1
    doubled = general_torus_bounds(TorusSpec(*dims, 2.0, 2.0), k)
    assert doubled.general_lb == oblivious_lower_bound(k) / 2


@pytest.mark.parametrize("dims", [(4, 10), (6, 8)])
def test_gllb_within_general_bounds(dims):
    spec = TorusSpec(*dims)
    for k in (2, 8, 18):
        if k > spec.num_nodes // 2:
            continue
        policy = build_gllb(spec, *gllb_radii(spec, k))
        bs = general_torus_bounds(spec, k)
        value = worst_case_load(policy, k).value
        assert bs.general_lb - 1e-9 <= value, (dims, k, value)
        upper = bs.general_ub if bs.regime == Regime.SPARSE else bs.general_ub + bs.slack
        assert value <= upper + 1e-9, (dims, k, value, upper)
