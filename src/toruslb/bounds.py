"""Closed-form bounds on worst-case load as a pure formula library.

All values are in traffic units per unit capacity.  The square-torus bounds
take k alone; the general-torus bounds normalize by the geometric mean of the
two capacities and by L, the bisection bandwidth over twice that mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from toruslb.torus import TorusSpec


class OutOfRegime(ValueError):
    pass


class Regime(Enum):
    SPARSE = "sparse"
    MID = "mid"
    DENSE = "dense"


def cut_lower_bound(k: int) -> float:
    """Cut estimate sqrt(k)/4: k sources have about 4*sqrt(k) boundary links,
    so k/P(k), with P(k) = 2*ceil(2*sqrt(k)) the grid's minimum edge boundary,
    approaches it as k grows.  Not a proven floor at every k: at k=18 it is
    1.0607, while the best demand found reaches k/P(k) = 1.0."""
    if k < 1:
        raise OutOfRegime("k must be positive")
    return math.sqrt(k) / 4


def oblivious_lower_bound(k: int) -> float:
    """Tight floor for translation/reflection-invariant policies.

    When 2k is a perfect square this is sqrt(2k)/4; otherwise the convex
    interpolation between the neighboring diamond sizes, (m + alpha)/2 with
    m = floor(sqrt(k/2)) and alpha = (k - 2m^2)/(4m + 2), which dominates the
    plain floor at the largest admissible diamond.
    """
    if k < 1:
        raise OutOfRegime("k must be positive")
    root = math.isqrt(2 * k)
    if root * root == 2 * k:
        return root / 4
    m = math.isqrt(k // 2)  # the largest m with 2m^2 <= k: 2(m+1)^2 >= 2(k//2) + 2 > k
    alpha = (k - 2 * m * m) / (4 * m + 2)
    return (m + alpha) / 2


def vlb_hotspot_lower_bound(n: int, k: int) -> float:
    """Load Valiant routing must pay on the shared cut edges of two adjacent
    k-node square clusters: (2*sqrt(k)/4)*(1 - k/N^2)."""
    if k < 1 or k > n * n:
        raise OutOfRegime("need 1 <= k <= N^2")
    return (2 * math.sqrt(k) / 4) * (1 - k / (n * n))


def llb_load_upper(r: int, k: int) -> float:
    """Worst-case load of the stem scheme with radius r: r/4 + k/(8r)."""
    if r < 1:
        raise OutOfRegime("r must be positive")
    return r / 4 + k / (8 * r)


def best_llb_radius(k: int, max_r: int) -> int:
    """Integer radius in [1, max_r] minimizing llb_load_upper, the lowest on ties."""
    return min(range(1, max_r + 1), key=lambda r: (llb_load_upper(r, k), r))


def normalized_size(spec: TorusSpec) -> float:
    """L = min(sqrt(c2/c1)*N, sqrt(c1/c2)*M): the bisection bandwidth
    min(2*M*c1, 2*N*c2), which cuts two links in every column or every row,
    over twice the geometric capacity mean."""
    c1, c2 = spec.cap_vertical, spec.cap_horizontal
    return min(math.sqrt(c2 / c1) * spec.rows, math.sqrt(c1 / c2) * spec.cols)


@dataclass
class BoundSet:
    general_lb: float
    general_ub: float
    regime: Regime
    slack: float


def general_torus_bounds(spec: TorusSpec, k: int) -> BoundSet:
    """Lower and upper bounds for an N x M torus with per-axis capacities,
    with the regime chosen by k against L^2/2 and NM/2.

    The sparse floor with equal capacities c is ``oblivious_lower_bound(k) / c``;
    with unequal ones it is still sqrt(2k)/(4 gm), gm the geometric mean, not
    yet checked against the oblivious optimum.  The sparse upper bound adds
    the slack 1/min(c1, c2), the concrete correction carried by the
    generalized stem scheme, to sqrt(2k)/(4 gm).
    """
    if k < 1:
        raise OutOfRegime("k must be positive")
    c1, c2 = spec.cap_vertical, spec.cap_horizontal
    gm = math.sqrt(c1 * c2)
    n, m = spec.rows, spec.cols
    big_l = normalized_size(spec)
    slack = 1 / min(c1, c2)
    if k <= big_l * big_l / 2:
        regime = Regime.SPARSE
        floor = math.sqrt(2 * k) / (4 * gm)
        general_lb = oblivious_lower_bound(k) / c1 if c1 == c2 else floor
        general_ub = floor + slack
    elif k <= n * m / 2:
        regime = Regime.MID
        general_lb = k / (2 * big_l * gm)
        general_ub = general_lb
    else:
        regime = Regime.DENSE
        general_lb = n * m / (4 * big_l * gm)
        general_ub = general_lb
    return BoundSet(general_lb=general_lb, general_ub=general_ub, regime=regime, slack=slack)
