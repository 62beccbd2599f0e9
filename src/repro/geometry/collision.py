"""Collision and distance queries between shapes.

The simulator uses these predicates for episode termination (did the
ego-vehicle hit an obstacle?) and the CO module uses the distance queries to
build collision-avoidance constraints.  Everything is implemented with the
separating-axis theorem (SAT) for convex polygons plus closed-form tests for
circles, so queries are deterministic and allocation-light.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.geometry.shapes import (
    AxisAlignedBox,
    Circle,
    ConvexPolygon,
    OrientedBox,
    edge_vectors,
)

Shape = Union[Circle, AxisAlignedBox, OrientedBox, ConvexPolygon]


def _as_polygon(shape: Shape) -> ConvexPolygon:
    if isinstance(shape, ConvexPolygon):
        return shape
    if isinstance(shape, (AxisAlignedBox, OrientedBox)):
        return shape.to_polygon()
    raise TypeError(f"Cannot convert {type(shape).__name__} to a polygon")


def closest_point_on_segment(point: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Closest point to ``point`` on the segment ``start``–``end``."""
    point = np.asarray(point, dtype=float).reshape(2)
    start = np.asarray(start, dtype=float).reshape(2)
    end = np.asarray(end, dtype=float).reshape(2)
    direction = end - start
    # Explicit multiply-add dots (not ``@``): BLAS dot products may fuse
    # differently, and this helper must stay bit-identical to the broadcast
    # batch in _segment_point_distances for every input.
    length_sq = float(direction[0] * direction[0] + direction[1] * direction[1])
    if length_sq <= 1e-18:
        return start.copy()
    dot = (point[0] - start[0]) * direction[0] + (point[1] - start[1]) * direction[1]
    t = float(np.clip(dot / length_sq, 0.0, 1.0))
    return start + t * direction


def point_in_polygon(point: np.ndarray, polygon: ConvexPolygon) -> bool:
    """Whether a point lies inside (or on the boundary of) a convex polygon."""
    return polygon.contains(point)


def points_in_polygon(points: np.ndarray, polygon: ConvexPolygon) -> np.ndarray:
    """Vectorized convex membership test for an ``(N, 2)`` batch of points.

    The rasterization path of the occupancy grid, where a per-point Python
    loop would dominate scenario setup; see :func:`points_in_polygons`.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return points_in_polygons(points, polygon._vertices[None])[0]


def points_in_polygons(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Membership of ``(N, 2)`` points in each of ``(G, V, 2)`` convex polygons.

    Returns a ``(G, N)`` boolean array.  A point is inside a polygon when
    its cross product with every counter-clockwise edge,
    ``edge x (point - vertex)``, is at least ``-1e-12`` — the expression and
    tolerance of :meth:`ConvexPolygon.contains`.  Every pixel of a BEV frame
    is tested against every polygon in this one broadcast; the products are
    formed in place, so only two ``(G, V, N)`` float arrays are ever live.
    """
    edges = edge_vectors(corners)[:, :, None, :]
    cross = points[:, 1] - corners[:, :, None, 1]
    np.multiply(edges[..., 0], cross, out=cross)
    to_x = points[:, 0] - corners[:, :, None, 0]
    np.multiply(edges[..., 1], to_x, out=to_x)
    np.subtract(cross, to_x, out=cross)
    return (cross >= -1e-12).all(axis=1)


def point_polygon_distance(point: np.ndarray, polygon: ConvexPolygon) -> float:
    """Distance from a point to a convex polygon (0 if inside)."""
    point = np.asarray(point, dtype=float).reshape(2)
    if polygon.contains(point):
        return 0.0
    vertices = polygon.vertices()
    best = math.inf
    for i in range(vertices.shape[0]):
        closest = closest_point_on_segment(point, vertices[i], vertices[(i + 1) % vertices.shape[0]])
        best = min(best, float(np.hypot(*(point - closest))))
    return best


def circle_circle_collision(a: Circle, b: Circle) -> bool:
    """Whether two circles overlap."""
    return float(np.hypot(a.center_x - b.center_x, a.center_y - b.center_y)) <= a.radius + b.radius


def circle_polygon_collision(circle: Circle, polygon: ConvexPolygon) -> bool:
    """Whether a circle overlaps a convex polygon."""
    return point_polygon_distance(circle.center, polygon) <= circle.radius


def signed_distance_circle_polygon(circle: Circle, polygon: ConvexPolygon) -> float:
    """Distance from the circle boundary to the polygon (negative when overlapping).

    This is the quantity constrained by the CO module: it must stay above the
    per-obstacle safety distance.
    """
    return point_polygon_distance(circle.center, polygon) - circle.radius


def _project_polygon(axis: np.ndarray, vertices: np.ndarray) -> tuple[float, float]:
    projections = vertices @ axis
    return float(projections.min()), float(projections.max())


def polygon_polygon_collision(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    """Separating-axis test between two convex polygons.

    Vertices and edge normals are gathered once and both polygons are
    projected onto every candidate axis with a single matrix product each.
    This is the hot path of procedural scenario generation (rejection
    sampling) and of the planners' swept-footprint checks, where the
    per-axis Python loop used to dominate.
    """
    vertices_a = a.vertices()
    vertices_b = b.vertices()
    edges = np.concatenate((a.edges(), b.edges()), axis=0)
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    valid = lengths > 1e-15
    if not valid.all():
        if not valid.any():
            return True
        edges = edges[valid]
        lengths = lengths[valid]
    axes = np.empty_like(edges)
    axes[:, 0] = -edges[:, 1] / lengths
    axes[:, 1] = edges[:, 0] / lengths
    projections_a = vertices_a @ axes.T
    projections_b = vertices_b @ axes.T
    separated = (projections_a.max(axis=0) < projections_b.min(axis=0)) | (
        projections_b.max(axis=0) < projections_a.min(axis=0)
    )
    return not bool(separated.any())


def _segment_point_distances(
    starts: np.ndarray, directions: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Distance from every point to every segment, shape ``(..., S, P)``.

    ``starts``/``directions`` are ``(..., S, 2)`` and ``points`` ``(..., P, 2)``;
    leading axes broadcast.  One evaluation of the same arithmetic as
    :func:`closest_point_on_segment` followed by ``hypot`` — elementwise IEEE
    operations in the identical order, so each entry is bit-identical to the
    scalar pairwise computation however many polygons are stacked (this is
    what keeps :func:`polygon_polygon_distance` and :func:`polygon_distances`
    exactly equal to the historical per-pair loop).
    """
    length_sq = directions[..., 0] * directions[..., 0] + directions[..., 1] * directions[..., 1]
    rel_x = points[..., None, :, 0] - starts[..., :, None, 0]
    rel_y = points[..., None, :, 1] - starts[..., :, None, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (
            rel_x * directions[..., :, None, 0] + rel_y * directions[..., :, None, 1]
        ) / length_sq[..., :, None]
        t = np.clip(t, 0.0, 1.0)
    # Degenerate segments collapse to their start point (t = 0), matching the
    # scalar helper's early return.
    t = np.where(length_sq[..., :, None] <= 1e-18, 0.0, t)
    closest_x = starts[..., :, None, 0] + t * directions[..., :, None, 0]
    closest_y = starts[..., :, None, 1] + t * directions[..., :, None, 1]
    return np.hypot(points[..., None, :, 0] - closest_x, points[..., None, :, 1] - closest_y)


def polygon_polygon_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Approximate minimum distance between two convex polygons (0 if overlapping).

    Exact for the vertex-to-edge case, which dominates for the box shapes used
    in the parking world.  Both vertex-to-edge sweeps run as one broadcast
    batch per polygon; the result is bit-identical to the historical
    per-pair Python loop (see :func:`_segment_point_distances`).
    """
    if polygon_polygon_collision(a, b):
        return 0.0
    vertices_a = a._vertices
    vertices_b = b._vertices
    best_ab = _segment_point_distances(vertices_a, a.edges(), vertices_b).min()
    best_ba = _segment_point_distances(vertices_b, b.edges(), vertices_a).min()
    return float(min(best_ab, best_ba))


def polygon_distances(
    vertices: np.ndarray,
    edges: np.ndarray,
    others: np.ndarray,
    others_edges: np.ndarray,
) -> np.ndarray:
    """:func:`polygon_polygon_distance` of one convex polygon against ``M`` others.

    ``vertices``/``edges`` are the one polygon's ``(P, 2)`` counter-clockwise
    corners and their :func:`edge_vectors`; ``others``/``others_edges``
    stack the others as ``(M, Q, 2)``.  Returns shape ``(M,)``: the world
    step's whole per-obstacle sweep in one call.  Every entry is
    bit-identical to the scalar function on the same pair: the SAT
    projections go through the same ``matmul``, stacked over the pair axis,
    and the vertex-to-edge sweeps are :func:`_segment_point_distances`
    broadcast over it.  Zero-length edges yield no separating axis, as in
    :func:`polygon_polygon_collision`.
    """
    count = others.shape[0]
    pair_edges = np.concatenate(
        (np.broadcast_to(edges, (count,) + edges.shape), others_edges), axis=1
    )
    lengths = np.hypot(pair_edges[..., 0], pair_edges[..., 1])
    valid = lengths > 1e-15
    lengths = np.where(valid, lengths, 1.0)
    axes = np.empty_like(pair_edges)
    axes[..., 0] = -pair_edges[..., 1] / lengths
    axes[..., 1] = pair_edges[..., 0] / lengths
    axes_t = axes.transpose(0, 2, 1)
    projections_a = vertices @ axes_t
    projections_b = others @ axes_t
    separated = (projections_a.max(axis=1) < projections_b.min(axis=1)) | (
        projections_b.max(axis=1) < projections_a.min(axis=1)
    )
    overlapping = ~(separated & valid).any(axis=1)
    best_ab = _segment_point_distances(vertices, edges, others).min(axis=(1, 2))
    best_ba = _segment_point_distances(others, others_edges, vertices).min(axis=(1, 2))
    return np.where(overlapping, 0.0, np.minimum(best_ab, best_ba))


def shapes_collide(a: Shape, b: Shape) -> bool:
    """Generic collision dispatch between any two supported shapes."""
    if isinstance(a, Circle) and isinstance(b, Circle):
        return circle_circle_collision(a, b)
    if isinstance(a, Circle):
        return circle_polygon_collision(a, _as_polygon(b))
    if isinstance(b, Circle):
        return circle_polygon_collision(b, _as_polygon(a))
    return polygon_polygon_collision(_as_polygon(a), _as_polygon(b))


def distance_between(a: Shape, b: Shape) -> float:
    """Generic minimum distance between any two supported shapes (0 when overlapping)."""
    if isinstance(a, Circle) and isinstance(b, Circle):
        gap = float(np.hypot(a.center_x - b.center_x, a.center_y - b.center_y)) - a.radius - b.radius
        return max(0.0, gap)
    if isinstance(a, Circle):
        return max(0.0, signed_distance_circle_polygon(a, _as_polygon(b)))
    if isinstance(b, Circle):
        return max(0.0, signed_distance_circle_polygon(b, _as_polygon(a)))
    return polygon_polygon_distance(_as_polygon(a), _as_polygon(b))
