"""Torus automorphisms applied to one node, direction or edge at a time, kept
as the reference for :func:`toruslb.torus.automorphism_index_maps` and for
the LP's orbit names.  Each map follows :class:`~toruslb.torus.Automorphism`'s
normal form step by step on Python ints; none reads the library's arrays.
"""

from __future__ import annotations

from toruslb.torus import Automorphism, DirectedEdge, Direction, Node, TorusSpec


def apply_automorphism(spec: TorusSpec, phi: Automorphism, u: Node) -> Node:
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
