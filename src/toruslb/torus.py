"""2-D torus geometry: nodes, directed edges, distances, and symmetries.

Coordinate convention used throughout this package: a node is an ``(x, y)``
pair with ``x`` the horizontal coordinate in ``[0, cols)`` and ``y`` the
vertical coordinate in ``[0, rows)``.  The vertical axis is the canonical
"first" axis: vertical links carry capacity ``cap_vertical`` and the
worst-case evaluator's representative edge points in ``POS_VERT``.

Symmetries are arithmetic.  A :class:`Direction` is two bits, so the point
group acts on directions by xor, and :func:`automorphism_index_maps` gives a
symmetry's action on node arrays from the coordinate grids in one pass;
:func:`apply_automorphism` is the same map for one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from numbers import Integral
from typing import Iterator, NamedTuple

import numpy as np


class TorusError(ValueError):
    pass


class InvalidAutomorphism(TorusError):
    """Raised when an automorphism is applied to a spec it does not preserve."""


class Node(NamedTuple):
    x: int
    y: int


class Direction(IntEnum):
    """Edge direction as two bits: bit 1 is the axis (0 vertical, 1
    horizontal) and bit 0 the sign (0 positive, 1 negative).  The opposite
    direction is ``d ^ 1``, the same sign on the other axis ``d ^ 2``."""

    POS_VERT = 0
    NEG_VERT = 1
    POS_HOR = 2
    NEG_HOR = 3

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]

    @property
    def is_vertical(self) -> bool:
        return self < 2

    @property
    def token(self) -> str:
        return _TOKENS[self]


_DELTAS = ((0, 1), (0, -1), (1, 0), (-1, 0))
_TOKENS = ("+v", "-v", "+h", "-h")
DIRECTION_FROM_TOKEN = {tok: Direction(d) for d, tok in enumerate(_TOKENS)}


class DirectedEdge(NamedTuple):
    tail: Node
    dir: Direction


@dataclass(frozen=True)
class TorusSpec:
    """Torus dimensions and per-direction link capacities.

    ``rows`` is the vertical extent (number of distinct y values), ``cols``
    the horizontal extent.  Vertical links (both signs) have capacity
    ``cap_vertical``, horizontal links ``cap_horizontal``.
    """

    rows: int
    cols: int
    cap_vertical: float = 1.0
    cap_horizontal: float = 1.0

    def __post_init__(self) -> None:
        extents = (self.rows, self.cols)
        if any(isinstance(n, bool) or not isinstance(n, Integral) for n in extents):
            raise TorusError(f"rows and cols must be integers, got {extents}")
        if self.rows < 3 or self.cols < 3:
            raise TorusError("rows and cols must each be at least 3")
        caps = (self.cap_vertical, self.cap_horizontal)
        if not all(c > 0 and math.isfinite(c) for c in caps):
            raise TorusError(f"capacities must be finite and positive, got {caps}")

    def is_square_symmetric(self) -> bool:
        return self.rows == self.cols and self.cap_vertical == self.cap_horizontal

    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def wrap(self, x: int, y: int) -> Node:
        return Node(x % self.cols, y % self.rows)

    def nodes(self) -> Iterator[Node]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield Node(x, y)

    def edges(self) -> Iterator[DirectedEdge]:
        for node in self.nodes():
            for d in Direction:
                yield DirectedEdge(node, d)

    def capacity(self, direction: Direction) -> float:
        return self.cap_vertical if direction.is_vertical else self.cap_horizontal

    def edge_head(self, edge: DirectedEdge) -> Node:
        dx, dy = edge.dir.delta
        return self.wrap(edge.tail.x + dx, edge.tail.y + dy)


def node_index(spec: TorusSpec, u: Node) -> int:
    """The flat index ``y * cols + x`` of one of the grid's nodes, or of a node
    equal to one, such as ``Node(2.0, 0)``; ``TorusError`` for any other."""
    x, y = u
    if not (0 <= x < spec.cols and 0 <= y < spec.rows and x % 1 == 0 and y % 1 == 0):
        raise TorusError(f"{u} is not a node of the {spec.rows}x{spec.cols} torus")
    return int(y) * spec.cols + int(x)


def edge_heads(spec: TorusSpec) -> np.ndarray:
    """Head node index (``y * cols + x``) of every edge, laid out ``[dir, y,
    x]`` like a policy slab; its flat index ``dir * num_nodes + y * cols + x``
    is the edge's id below the public API."""
    grid = np.arange(spec.num_nodes).reshape(spec.rows, spec.cols)
    shifts = [(-d.delta[1], -d.delta[0]) for d in Direction]
    return np.stack([np.roll(grid, shift, axis=(0, 1)) for shift in shifts])


def node_add(spec: TorusSpec, u: Node, v: Node) -> Node:
    return spec.wrap(u.x + v.x, u.y + v.y)


def node_neg(spec: TorusSpec, u: Node) -> Node:
    return spec.wrap(-u.x, -u.y)


def axis_distance(extent: int, a: int, b: int) -> int:
    d = (a - b) % extent
    return min(d, extent - d)


def hop_distance(spec: TorusSpec, u: Node, v: Node) -> int:
    """Minimum number of hops between two nodes (per-axis shortest wrap)."""
    return axis_distance(spec.cols, u.x, v.x) + axis_distance(spec.rows, u.y, v.y)


def weighted_distance(
    spec: TorusSpec, u: Node, v: Node, lambda_v: float, lambda_h: float
) -> float:
    """Hop distance with vertical hops weighted ``lambda_v`` and horizontal
    hops ``lambda_h``."""
    if lambda_v < 0 or lambda_h < 0:
        raise TorusError("weights must be nonnegative")
    return lambda_v * axis_distance(spec.rows, u.y, v.y) + lambda_h * axis_distance(
        spec.cols, u.x, v.x
    )


@dataclass(frozen=True)
class Automorphism:
    """Symmetry of the torus in normal form: reflect about x=y (square specs
    only), then reflect about the origin, then translate."""

    translation: Node = Node(0, 0)
    reflect_xy: bool = False
    reflect_origin: bool = False


def _check_valid(spec: TorusSpec, phi: Automorphism) -> None:
    if phi.reflect_xy and not spec.is_square_symmetric():
        raise InvalidAutomorphism(
            "reflection about x=y requires a square torus with equal capacities"
        )


def apply_automorphism(spec: TorusSpec, phi: Automorphism, u: Node) -> Node:
    _check_valid(spec, phi)
    x, y = u.x, u.y
    if phi.reflect_xy:
        x, y = y, x
    if phi.reflect_origin:
        x, y = -x, -y
    return spec.wrap(x + phi.translation.x, y + phi.translation.y)


def apply_to_direction(phi: Automorphism, d: Direction) -> Direction:
    """x=y swaps the axis bit and the origin reflection flips the sign bit."""
    return Direction(d ^ 2 * phi.reflect_xy ^ phi.reflect_origin)


def apply_to_edge(spec: TorusSpec, phi: Automorphism, edge: DirectedEdge) -> DirectedEdge:
    return DirectedEdge(
        apply_automorphism(spec, phi, edge.tail), apply_to_direction(phi, edge.dir)
    )


def automorphism_index_maps(
    spec: TorusSpec, phi: Automorphism
) -> tuple[np.ndarray, np.ndarray]:
    """phi as index permutations for arrays over nodes and directions: the
    flat index ``y * cols + x`` of each node's image, in :meth:`TorusSpec.nodes`
    order, and each direction's image, in :class:`Direction` order.  The node
    images are :func:`apply_automorphism` on the coordinate grids: swap,
    negate, translate, wrap."""
    _check_valid(spec, phi)
    y, x = np.divmod(np.arange(spec.num_nodes), spec.cols)
    if phi.reflect_xy:
        x, y = y, x
    if phi.reflect_origin:
        x, y = -x, -y
    nodes = (y + phi.translation.y) % spec.rows * spec.cols + (x + phi.translation.x) % spec.cols
    return nodes, np.arange(4) ^ 2 * phi.reflect_xy ^ phi.reflect_origin


def point_group(spec: TorusSpec) -> list[Automorphism]:
    """Translation-free symmetries: {I, R0} always, plus the x=y reflections
    on square symmetric specs.  The identity comes first."""
    group = [Automorphism(), Automorphism(reflect_origin=True)]
    if spec.is_square_symmetric():
        group.append(Automorphism(reflect_xy=True))
        group.append(Automorphism(reflect_xy=True, reflect_origin=True))
    return group


def automorphism_group(spec: TorusSpec) -> list[Automorphism]:
    """All translations composed with the point group: 2*rows*cols elements
    for asymmetric specs, 4*rows^2 for square symmetric ones."""
    return [
        Automorphism(translation=t, reflect_xy=p.reflect_xy, reflect_origin=p.reflect_origin)
        for p in point_group(spec)
        for t in spec.nodes()
    ]
