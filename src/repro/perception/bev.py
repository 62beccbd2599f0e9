"""Bird's-eye-view (BEV) image rendering.

Implements the BEV transformer ``y_i = g(x_i)`` from paper §III by rendering
an ego-centric occupancy image directly from world state.  The image has
three channels:

1. obstacle occupancy,
2. goal (parking-space) occupancy,
3. drivable-area mask (inside the lot bounds).

The ego-vehicle sits at the image centre facing "up", so the representation
is invariant to the absolute world pose — the property that lets a small CNN
generalise across start positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.geometry.collision import points_in_polygons
from repro.geometry.se2 import SE2
from repro.perception.noise import ImageNoise, NoNoise
from repro.vehicle.state import VehicleState
from repro.world.obstacles import Obstacle
from repro.world.parking_lot import ParkingLot


@dataclass(frozen=True)
class BEVImage:
    """A rendered BEV observation.

    Attributes
    ----------
    data:
        Array of shape ``(channels, height, width)`` with values in ``[0, 1]``.
    resolution:
        Metres per pixel.
    ego_pose:
        The world pose of the ego-vehicle when the image was rendered.
    frame_index:
        Monotonically increasing index assigned by the renderer.
    """

    data: np.ndarray
    resolution: float
    ego_pose: SE2
    frame_index: int = 0

    @property
    def channels(self) -> int:
        return int(self.data.shape[0])

    @property
    def height(self) -> int:
        return int(self.data.shape[1])

    @property
    def width(self) -> int:
        return int(self.data.shape[2])

    @property
    def obstacle_channel(self) -> np.ndarray:
        return self.data[0]

    @property
    def goal_channel(self) -> np.ndarray:
        return self.data[1]

    @property
    def drivable_channel(self) -> np.ndarray:
        return self.data[2]


class BEVRenderer:
    """Renders ego-centric BEV occupancy images from world state.

    Parameters
    ----------
    image_size:
        Output image side length in pixels (square images).
    view_range:
        Half-extent of the rendered area around the ego-vehicle (m); a value
        of 15 renders a 30 m x 30 m patch.
    noise:
        Perturbation applied to the final image (hard difficulty level).
    """

    def __init__(
        self,
        image_size: int = 32,
        view_range: float = 15.0,
        noise: Optional[ImageNoise] = None,
        seed: int = 0,
    ) -> None:
        if image_size < 8:
            raise ValueError(f"image_size must be at least 8, got {image_size}")
        if view_range <= 0.0:
            raise ValueError(f"view_range must be positive, got {view_range}")
        self.image_size = image_size
        self.view_range = view_range
        self.noise = noise or NoNoise()
        self._rng = np.random.default_rng(seed)
        self._frame_index = 0
        # Pixel-centre coordinates in the ego frame, built once: row 0 is
        # "ahead" of the vehicle (+x in ego frame), columns span left-right.
        ego_x = view_range - (np.arange(image_size) + 0.5) / image_size * (2.0 * view_range)
        ego_y = (np.arange(image_size) + 0.5) / image_size * (2.0 * view_range) - view_range
        grid_x, grid_y = np.meshgrid(ego_x, ego_y, indexing="ij")
        self._ego_points = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)

    @property
    def resolution(self) -> float:
        """Metres per pixel."""
        return 2.0 * self.view_range / self.image_size

    def render(
        self,
        state: VehicleState,
        obstacles: Sequence[Obstacle],
        lot: ParkingLot,
    ) -> BEVImage:
        """Render the BEV observation for the current world state.

        Every pixel is tested against every polygon — the obstacles, the
        goal slot and the lot bounds — in one broadcast
        (:func:`~repro.geometry.collision.points_in_polygons`).
        """
        size = self.image_size
        ego_pose = state.pose
        world_points = ego_pose.transform_points(self._ego_points)
        corners = np.stack(
            [obstacle.box.vertices() for obstacle in obstacles]
            + [lot.goal_space.box.vertices(), lot.bounds.vertices()]
        )
        masks = points_in_polygons(world_points, corners)
        channels = np.stack([masks[:-2].any(axis=0), masks[-2], masks[-1]])
        data = channels.astype(float).reshape(3, size, size)
        data = self.noise.apply(data, self._rng)
        image = BEVImage(
            data=data,
            resolution=self.resolution,
            ego_pose=ego_pose,
            frame_index=self._frame_index,
        )
        self._frame_index += 1
        return image
