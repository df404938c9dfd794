"""Whole-grid structural properties: every built scheme conserves flow and
satisfies the applicable reflection identities on every torus in the
rows, cols in {4..10} grid (square-only schemes on the squares)."""

import pytest

from toruslb.policy import check_reflection_invariance, validate_policy
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb, gllb_radii
from toruslb.torus import TorusSpec

GRID = [(rows, cols) for rows in range(4, 11) for cols in range(4, 11)]
VLB_DIMS = [(4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10),
            (4, 10), (5, 8), (6, 9), (7, 10)]
LLB_SIZES = [5, 6, 7, 8, 9, 10]
GLLB_DIMS = [(4, 6), (4, 10), (5, 9), (6, 8), (6, 10), (8, 10)]


def llb_policies(n):
    spec = TorusSpec(n, n)
    return [build_llb(spec, r) for r in range(1, (n - 1) // 2 + 1)]


def gllb_policies(dims):
    spec = TorusSpec(*dims)
    return [build_gllb(spec, *gllb_radii(spec, k)) for k in (2, 8)]


def grid_policies(dims):
    """Every policy the tests below build on the rows x cols torus."""
    spec = TorusSpec(*dims)
    policies = [build_ecmp(spec), build_ring_lb(spec)]
    if dims in VLB_DIMS:
        policies.append(build_vlb(spec))
    if dims[0] == dims[1] and dims[0] in LLB_SIZES:
        policies += llb_policies(dims[0])
    if dims in GLLB_DIMS:
        policies += gllb_policies(dims)
    return policies


@pytest.mark.parametrize("dims", GRID, ids=lambda d: f"{d[0]}x{d[1]}")
def test_ecmp_and_ring_on_full_grid(dims):
    spec = TorusSpec(*dims)
    for builder in (build_ecmp, build_ring_lb):
        policy = builder(spec)
        assert validate_policy(policy) == []
        assert check_reflection_invariance(policy)


@pytest.mark.parametrize("dims", VLB_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
def test_vlb_on_grid_sample(dims):
    spec = TorusSpec(*dims)
    policy = build_vlb(spec)
    assert validate_policy(policy) == []
    assert check_reflection_invariance(policy)


@pytest.mark.parametrize("n", LLB_SIZES)
def test_llb_all_radii_on_squares(n):
    for policy in llb_policies(n):
        assert validate_policy(policy) == []
        assert check_reflection_invariance(policy)


@pytest.mark.parametrize("dims", GLLB_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
def test_gllb_on_rectangles(dims):
    for policy in gllb_policies(dims):
        assert validate_policy(policy) == []
        assert check_reflection_invariance(policy)


def test_gllb_asymmetric_capacities():
    spec = TorusSpec(6, 6, cap_vertical=2.0, cap_horizontal=1.0)
    policy = build_gllb(spec, *gllb_radii(spec, 4))
    assert validate_policy(policy) == []
    # unequal capacities break the x=y symmetry, so only the origin
    # reflection is checked; it must still hold
    assert not spec.is_square_symmetric()
    assert check_reflection_invariance(policy)
