"""The parking world: stepping, collision detection and episode termination.

:class:`ParkingWorld` is the simulation loop that plays the role of
CARLA/MoCAM.  Each call to :meth:`ParkingWorld.step` applies one driving
command to the ego-vehicle, advances dynamic obstacles, and reports whether
the episode has terminated (parked, collided, out of bounds, or timed out).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.geometry.collision import polygon_distances
from repro.geometry.se2 import SE2
from repro.geometry.shapes import OrientedBox, edge_vectors
from repro.vehicle.actions import Action
from repro.vehicle.kinematics import AckermannModel
from repro.vehicle.params import VehicleParams
from repro.vehicle.state import VehicleState
from repro.world.obstacles import Obstacle
from repro.world.scenario import Scenario


class EpisodeStatus(enum.Enum):
    """Terminal (and running) status of a parking episode."""

    RUNNING = "running"
    PARKED = "parked"
    COLLIDED = "collided"
    OUT_OF_BOUNDS = "out_of_bounds"
    TIMED_OUT = "timed_out"

    @property
    def is_terminal(self) -> bool:
        return self is not EpisodeStatus.RUNNING

    @property
    def is_success(self) -> bool:
        return self is EpisodeStatus.PARKED


@dataclass(frozen=True)
class StepResult:
    """Outcome of a single simulation step."""

    state: VehicleState
    status: EpisodeStatus
    time: float
    obstacles: tuple
    min_obstacle_distance: float


class ParkingWorld:
    """Deterministic 2-D parking simulator.

    Parameters
    ----------
    scenario:
        The scenario to simulate (map, obstacles, start pose, noise levels).
    vehicle_params:
        Ego-vehicle geometry and limits.
    dt:
        Simulation step (s).
    time_limit:
        Episodes that do not park within this many seconds are failures
        (the paper's "cannot reach the goal within a given time").
    """

    def __init__(
        self,
        scenario: Scenario,
        vehicle_params: Optional[VehicleParams] = None,
        dt: float = 0.1,
        time_limit: float = 60.0,
    ) -> None:
        if time_limit <= 0.0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        self.scenario = scenario
        self.vehicle_params = vehicle_params or VehicleParams()
        self.dt = dt
        self.time_limit = time_limit
        self.model = AckermannModel(self.vehicle_params, dt=dt)
        self._time = 0.0
        self._status = EpisodeStatus.RUNNING
        self._state = VehicleState.from_pose(scenario.start_pose)
        self._trajectory: List[VehicleState] = [self._state]
        self._actions: List[Action] = []
        # Purely static scenes skip the per-step at_time advance entirely.
        self._all_static = not any(obstacle.is_dynamic for obstacle in scenario.obstacles)
        # The static obstacles' corners and edges, stacked once: each step
        # appends only the moved patrol boxes before the one batched
        # footprint-distance query.
        static_boxes = [obstacle.box for obstacle in scenario.obstacles if not obstacle.is_dynamic]
        self._static_corners = _stack_corners(static_boxes)
        self._static_edges = edge_vectors(self._static_corners)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        return self._time

    @property
    def state(self) -> VehicleState:
        return self._state

    @property
    def status(self) -> EpisodeStatus:
        return self._status

    @property
    def trajectory(self) -> List[VehicleState]:
        """All visited states including the initial one."""
        return list(self._trajectory)

    @property
    def executed_actions(self) -> List[Action]:
        return list(self._actions)

    @property
    def goal_pose(self) -> SE2:
        return self.scenario.goal_pose

    def current_obstacles(self) -> List[Obstacle]:
        """Obstacles advanced to the current simulation time."""
        if self._all_static:
            return list(self.scenario.obstacles)
        return [obstacle.at_time(self._time) for obstacle in self.scenario.obstacles]

    def min_obstacle_distance(self, state: Optional[VehicleState] = None) -> float:
        """Minimum footprint-to-obstacle distance at the current time."""
        state = state or self._state
        footprint = state.footprint(self.vehicle_params).vertices()
        return self._min_distance(footprint, self.current_obstacles())

    def _min_distance(self, footprint: np.ndarray, obstacles: List[Obstacle]) -> float:
        """Exact minimum of ``polygon_polygon_distance(footprint, box)`` over ``obstacles``.

        ``footprint`` is the ego box's corner array and ``obstacles`` the
        current obstacles (:meth:`current_obstacles`), in scenario order.
        """
        if not obstacles:
            return float("inf")
        corners, edges = self._static_corners, self._static_edges
        if not self._all_static:
            moved = _stack_corners([obstacle.box for obstacle in obstacles if obstacle.is_dynamic])
            corners = np.concatenate((corners, moved))
            edges = np.concatenate((edges, edge_vectors(moved)))
        distances = polygon_distances(footprint, edge_vectors(footprint), corners, edges)
        return float(distances.min())

    def distance_to_goal(self, state: Optional[VehicleState] = None) -> float:
        state = state or self._state
        return float(np.hypot(state.x - self.goal_pose.x, state.y - self.goal_pose.y))

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def reset(self) -> VehicleState:
        """Reset the world to the scenario's initial conditions."""
        self._time = 0.0
        self._status = EpisodeStatus.RUNNING
        self._state = VehicleState.from_pose(self.scenario.start_pose)
        self._trajectory = [self._state]
        self._actions = []
        return self._state

    def step(self, action: Action) -> StepResult:
        """Apply one driving command and advance the simulation by ``dt``."""
        if self._status.is_terminal:
            raise RuntimeError(
                f"Cannot step a terminated episode (status={self._status.value}); call reset() first"
            )
        self._state = self.model.step(self._state, action)
        self._time += self.dt
        self._trajectory.append(self._state)
        self._actions.append(action)
        # One obstacle advance and one batched footprint-distance query per
        # step: the exact minimum distance doubles as the collision predicate
        # (polygon_polygon_distance returns exactly 0.0 iff the SAT test
        # overlaps), so the status check never repeats the geometry work.
        obstacles = self.current_obstacles()
        footprint = self._state.footprint(self.vehicle_params).vertices()
        min_distance = self._min_distance(footprint, obstacles)
        self._status = self._evaluate_status(footprint, collided=min_distance == 0.0)
        return StepResult(
            state=self._state,
            status=self._status,
            time=self._time,
            obstacles=tuple(obstacles),
            min_obstacle_distance=min_distance,
        )

    def _evaluate_status(
        self, footprint: Optional[np.ndarray] = None, collided: Optional[bool] = None
    ) -> EpisodeStatus:
        """Status of the current state; ``footprint`` is its ego-box corner array."""
        if footprint is None:
            footprint = self._state.footprint(self.vehicle_params).vertices()
        if collided is None:
            collided = self._min_distance(footprint, self.current_obstacles()) == 0.0
        if collided:
            return EpisodeStatus.COLLIDED
        bounds = self.scenario.lot.bounds
        inside = (
            (bounds.min_x <= footprint[:, 0])
            & (footprint[:, 0] <= bounds.max_x)
            & (bounds.min_y <= footprint[:, 1])
            & (footprint[:, 1] <= bounds.max_y)
        )
        if not inside.all():
            return EpisodeStatus.OUT_OF_BOUNDS
        parked = self.scenario.lot.goal_space.contains_pose(self._state.pose)
        if parked and abs(self._state.velocity) < 0.3:
            return EpisodeStatus.PARKED
        if self._time >= self.time_limit:
            return EpisodeStatus.TIMED_OUT
        return EpisodeStatus.RUNNING


def _stack_corners(boxes: List[OrientedBox]) -> np.ndarray:
    """``(M, 4, 2)`` stack of the boxes' ``vertices()`` (``(0, 4, 2)`` when empty)."""
    if not boxes:
        return np.empty((0, 4, 2))
    return np.stack([box.vertices() for box in boxes])
