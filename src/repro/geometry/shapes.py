"""Convex shapes used for vehicles, obstacles and map regions.

Every shape exposes a small common protocol:

* ``center`` — a representative point,
* ``vertices()`` or an analytic boundary,
* ``contains(point)`` — point-membership test,
* ``bounding_radius`` — radius of a circumscribing circle around ``center``.

Shapes are immutable; moving an obstacle produces a new shape value.  This is
intentional: shapes flow between simulator, perception and planners through
the middleware and must never alias mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.angles import rotation_matrix
from repro.geometry.se2 import SE2


@dataclass(frozen=True)
class Circle:
    """A disc with a center and radius."""

    center_x: float
    center_y: float
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"Circle radius must be non-negative, got {self.radius}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y], dtype=float)

    @property
    def bounding_radius(self) -> float:
        return self.radius

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=float).reshape(2)
        return float(np.hypot(point[0] - self.center_x, point[1] - self.center_y)) <= self.radius

    def translated(self, dx: float, dy: float) -> "Circle":
        return Circle(self.center_x + dx, self.center_y + dy, self.radius)

    def inflated(self, margin: float) -> "Circle":
        """Return a circle grown by ``margin`` (used for safety distances)."""
        return Circle(self.center_x, self.center_y, max(0.0, self.radius + margin))


@dataclass(frozen=True)
class AxisAlignedBox:
    """An axis-aligned rectangle defined by min/max corners."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise ValueError(
                "AxisAlignedBox max corner must not be smaller than min corner: "
                f"({self.min_x}, {self.min_y}) .. ({self.max_x}, {self.max_y})"
            )

    @staticmethod
    def from_center(center_x: float, center_y: float, width: float, height: float) -> "AxisAlignedBox":
        half_w = width / 2.0
        half_h = height / 2.0
        return AxisAlignedBox(center_x - half_w, center_y - half_h, center_x + half_w, center_y + half_h)

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0], dtype=float)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def bounding_radius(self) -> float:
        return float(math.hypot(self.width, self.height) / 2.0)

    def vertices(self) -> np.ndarray:
        """Corners in counter-clockwise order, shape ``(4, 2)``."""
        return np.array(
            [
                [self.min_x, self.min_y],
                [self.max_x, self.min_y],
                [self.max_x, self.max_y],
                [self.min_x, self.max_y],
            ],
            dtype=float,
        )

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=float).reshape(2)
        return bool(
            self.min_x <= point[0] <= self.max_x and self.min_y <= point[1] <= self.max_y
        )

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample a point inside the box (used for spawn regions)."""
        return np.array(
            [rng.uniform(self.min_x, self.max_x), rng.uniform(self.min_y, self.max_y)],
            dtype=float,
        )

    def to_polygon(self) -> "ConvexPolygon":
        return ConvexPolygon(tuple(map(tuple, self.vertices())))

    def expanded(self, margin: float) -> "AxisAlignedBox":
        return AxisAlignedBox(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )


@dataclass(frozen=True)
class OrientedBox:
    """A rectangle with arbitrary heading (vehicle footprints, parked cars)."""

    center_x: float
    center_y: float
    length: float
    width: float
    heading: float

    def __post_init__(self) -> None:
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError(
                f"OrientedBox dimensions must be positive, got length={self.length}, width={self.width}"
            )

    @staticmethod
    def from_pose(pose: SE2, length: float, width: float) -> "OrientedBox":
        return OrientedBox(pose.x, pose.y, length, width, pose.theta)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y], dtype=float)

    @property
    def pose(self) -> SE2:
        return SE2(self.center_x, self.center_y, self.heading)

    @property
    def bounding_radius(self) -> float:
        return float(math.hypot(self.length, self.width) / 2.0)

    def vertices(self) -> np.ndarray:
        """Corners in counter-clockwise order, shape ``(4, 2)``."""
        half_l = self.length / 2.0
        half_w = self.width / 2.0
        local = np.array(
            [
                [half_l, half_w],
                [-half_l, half_w],
                [-half_l, -half_w],
                [half_l, -half_w],
            ],
            dtype=float,
        )
        rotation = rotation_matrix(self.heading)
        return local @ rotation.T + self.center

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=float).reshape(2)
        local = rotation_matrix(self.heading).T @ (point - self.center)
        return bool(abs(local[0]) <= self.length / 2.0 and abs(local[1]) <= self.width / 2.0)

    def to_polygon(self) -> "ConvexPolygon":
        # Cached: the same box is converted once per collision/distance query
        # along the simulator's hot path, and the box (a frozen dataclass) can
        # never change after construction.  Equality/hash ignore the cache.
        cached = self.__dict__.get("_polygon_cache")
        if cached is None:
            cached = ConvexPolygon(tuple(map(tuple, self.vertices())))
            self.__dict__["_polygon_cache"] = cached
        return cached

    def translated(self, dx: float, dy: float) -> "OrientedBox":
        return OrientedBox(self.center_x + dx, self.center_y + dy, self.length, self.width, self.heading)

    def inflated(self, margin: float) -> "OrientedBox":
        """Grow both dimensions by ``2 * margin`` (``margin`` per side)."""
        return OrientedBox(
            self.center_x,
            self.center_y,
            self.length + 2.0 * margin,
            self.width + 2.0 * margin,
            self.heading,
        )

    def axis_aligned_bounds(self) -> AxisAlignedBox:
        vertices = self.vertices()
        return AxisAlignedBox(
            float(vertices[:, 0].min()),
            float(vertices[:, 1].min()),
            float(vertices[:, 0].max()),
            float(vertices[:, 1].max()),
        )


@dataclass(frozen=True)
class ConvexPolygon:
    """A convex polygon defined by counter-clockwise vertices."""

    points: Tuple[Tuple[float, float], ...]
    _vertices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vertices = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if vertices.shape[0] < 3:
            raise ValueError(f"ConvexPolygon needs at least 3 vertices, got {vertices.shape[0]}")
        if _signed_area(vertices) < 0.0:
            vertices = vertices[::-1].copy()
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "points", tuple(map(tuple, vertices)))

    @staticmethod
    def from_points(points: Sequence[Sequence[float]]) -> "ConvexPolygon":
        return ConvexPolygon(tuple(tuple(map(float, p)) for p in points))

    @property
    def center(self) -> np.ndarray:
        return self._vertices.mean(axis=0)

    @property
    def bounding_radius(self) -> float:
        return float(np.max(np.linalg.norm(self._vertices - self.center, axis=1)))

    def vertices(self) -> np.ndarray:
        return self._vertices.copy()

    def edges(self) -> np.ndarray:
        """Edge vectors ``v[i+1] - v[i]`` including the closing edge.

        The array is computed once and cached (vertices are immutable after
        construction); callers must treat it as read-only.
        """
        cached = self.__dict__.get("_edges_cache")
        if cached is None:
            cached = edge_vectors(self._vertices)
            cached.setflags(write=False)
            self.__dict__["_edges_cache"] = cached
        return cached

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=float).reshape(2)
        vertices = self._vertices
        edges = self.edges()
        to_point = point - vertices
        cross = edges[:, 0] * to_point[:, 1] - edges[:, 1] * to_point[:, 0]
        return bool(np.all(cross >= -1e-12))

    def area(self) -> float:
        return abs(_signed_area(self._vertices))


def edge_vectors(vertices: np.ndarray) -> np.ndarray:
    """Edge vectors ``v[i+1] - v[i]`` (closing edge included) of ``(..., V, 2)`` vertices."""
    return np.concatenate((vertices[..., 1:, :], vertices[..., :1, :]), axis=-2) - vertices


def _signed_area(vertices: np.ndarray) -> float:
    """Shoelace signed area; positive for counter-clockwise winding."""
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
