"""2-D torus geometry: nodes, directed edges, distances, and symmetries.

Coordinate convention used throughout this package: a node is an ``(x, y)``
pair with ``x`` the horizontal coordinate in ``[0, cols)`` and ``y`` the
vertical coordinate in ``[0, rows)``.  The vertical axis is the canonical
"first" axis: vertical links carry capacity ``cap_vertical`` and the
worst-case evaluator's representative edge points in ``POS_VERT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
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
    POS_VERT = 0
    NEG_VERT = 1
    POS_HOR = 2
    NEG_HOR = 3

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]

    @property
    def is_vertical(self) -> bool:
        return self in (Direction.POS_VERT, Direction.NEG_VERT)

    @property
    def token(self) -> str:
        return _TOKENS[self]


_DELTAS = {
    Direction.POS_VERT: (0, 1),
    Direction.NEG_VERT: (0, -1),
    Direction.POS_HOR: (1, 0),
    Direction.NEG_HOR: (-1, 0),
}
_OPPOSITE = {
    Direction.POS_VERT: Direction.NEG_VERT,
    Direction.NEG_VERT: Direction.POS_VERT,
    Direction.POS_HOR: Direction.NEG_HOR,
    Direction.NEG_HOR: Direction.POS_HOR,
}
_TOKENS = {
    Direction.POS_VERT: "+v",
    Direction.NEG_VERT: "-v",
    Direction.POS_HOR: "+h",
    Direction.NEG_HOR: "-h",
}
DIRECTION_FROM_TOKEN = {tok: d for d, tok in _TOKENS.items()}


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
        if self.rows < 3 or self.cols < 3:
            raise TorusError("rows and cols must each be at least 3")
        if self.cap_vertical <= 0 or self.cap_horizontal <= 0:
            raise TorusError("capacities must be positive")

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

    def step(self, u: Node, direction: Direction) -> Node:
        dx, dy = direction.delta
        return self.wrap(u.x + dx, u.y + dy)


def edge_heads(spec: TorusSpec) -> np.ndarray:
    """Head node index (``y * cols + x``) of every edge, laid out ``[dir, y,
    x]`` like a policy slab; its flat index ``dir * num_nodes + y * cols + x``
    is the edge's id below the public API."""
    grid = np.arange(spec.num_nodes).reshape(spec.rows, spec.cols)
    shifts = [(-d.delta[1], -d.delta[0]) for d in Direction]
    return np.stack([np.roll(grid, shift, axis=(0, 1)) for shift in shifts])


def node_add(spec: TorusSpec, u: Node, v: Node) -> Node:
    return spec.wrap(u.x + v.x, u.y + v.y)


def node_sub(spec: TorusSpec, u: Node, v: Node) -> Node:
    return spec.wrap(u.x - v.x, u.y - v.y)


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
    if phi.reflect_xy:
        d = {
            Direction.POS_VERT: Direction.POS_HOR,
            Direction.NEG_VERT: Direction.NEG_HOR,
            Direction.POS_HOR: Direction.POS_VERT,
            Direction.NEG_HOR: Direction.NEG_VERT,
        }[d]
    if phi.reflect_origin:
        d = d.opposite
    return d


def apply_to_edge(spec: TorusSpec, phi: Automorphism, edge: DirectedEdge) -> DirectedEdge:
    return DirectedEdge(
        apply_automorphism(spec, phi, edge.tail), apply_to_direction(phi, edge.dir)
    )


def automorphism_index_maps(
    spec: TorusSpec, phi: Automorphism
) -> tuple[np.ndarray, np.ndarray]:
    """phi as index permutations for arrays over nodes and directions: the
    flat index ``y * cols + x`` of each node's image, in :meth:`TorusSpec.nodes`
    order, and each direction's image, in :class:`Direction` order."""
    images = [apply_automorphism(spec, phi, u) for u in spec.nodes()]
    return (
        np.array([v.y * spec.cols + v.x for v in images]),
        np.array([apply_to_direction(phi, d) for d in Direction]),
    )


def point_group(spec: TorusSpec) -> list[Automorphism]:
    """Translation-free symmetries: {I, R0} always, plus the x=y reflections
    on square symmetric specs."""
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
