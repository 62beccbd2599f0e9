"""The frame-by-frame CO controller ``f_CO`` (paper §IV-B).

At every frame the controller:

1. extracts the next ``H`` target waypoints from the global reference path
   (the "shortest path from the current position to the target parking
   space"),
2. predicts obstacle positions over the horizon from the detector output,
3. builds and solves the MPC problem (Eq. 6), warm-started from the previous
   solution shifted by one step,
4. converts the first optimal control into a throttle/brake/steer/reverse
   command for the plant.

The controller also records solve-time statistics — the quantity the HSA
scenario-complexity model (Eq. 8) is calibrated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.co.constraints import CollisionConstraintSet, ControlBounds
from repro.co.mpc import MPCProblem
from repro.co.solver import GaussNewtonSolver, SolverResult
from repro.perception.detector import Detection
from repro.spatial import SpatialIndex
from repro.planning.progress import SegmentedPathFollower
from repro.planning.waypoints import WaypointPath
from repro.vehicle.actions import Action
from repro.vehicle.kinematics import AckermannModel, KinematicControl
from repro.vehicle.params import VehicleParams
from repro.vehicle.state import VehicleState


@dataclass(frozen=True)
class COSolveRequest:
    """One frame's MPC solve, detached from the controller that needs it.

    Produced by :meth:`COController.act_split`: ``problem`` and
    ``warm_start`` are exactly what :meth:`COController.act` would hand its
    own solver, and ``solver`` is that controller's scalar solver (the
    bitwise reference for callers that solve locally).  A fleet scheduler
    instead stacks many requests into one
    :meth:`~repro.co.solver.BatchedGaussNewtonSolver.solve_many` call.
    """

    problem: MPCProblem
    warm_start: np.ndarray
    solver: GaussNewtonSolver


@dataclass(frozen=True)
class COSolveInfo:
    """Diagnostics from one CO step, consumed by HSA and the benchmarks."""

    solve_time: float
    iterations: int
    objective: float
    feasible: bool
    num_obstacles: int
    obstacle_distances: np.ndarray
    horizon: int
    reference_speed: float
    # Size of the collision block of the residual stack — the quantity the
    # ESDF-gradient formulation shrinks (the solve-time benchmark records
    # both formulations' numbers side by side).
    collision_residuals: int = 0


class COController:
    """Receding-horizon constrained-optimization controller."""

    def __init__(
        self,
        vehicle_params: Optional[VehicleParams] = None,
        horizon: int = 10,
        dt: float = 0.1,
        planning_dt: float = 0.25,
        cruise_speed: float = 1.6,
        reverse_speed: float = 0.8,
        solver: Optional[GaussNewtonSolver] = None,
        constraint_set: Optional[CollisionConstraintSet] = None,
        goal_slowdown_distance: float = 4.0,
        spatial_index: Optional[SpatialIndex] = None,
        timegrid=None,
    ) -> None:
        if horizon < 2:
            raise ValueError(f"horizon must be at least 2, got {horizon}")
        if dt <= 0.0 or planning_dt <= 0.0:
            raise ValueError(f"dt and planning_dt must be positive, got {dt} and {planning_dt}")
        self.vehicle_params = vehicle_params or VehicleParams()
        self.horizon = horizon
        self.dt = dt
        # The MPC integrates with a coarser step than the control period so a
        # short horizon still looks several seconds ahead (enough to yield to
        # crossing obstacles); only the first control is executed each frame.
        self.planning_dt = planning_dt
        self.cruise_speed = cruise_speed
        self.reverse_speed = reverse_speed
        self.model = AckermannModel(self.vehicle_params, dt=planning_dt)
        self.solver = solver or GaussNewtonSolver()
        self.constraint_set = constraint_set or CollisionConstraintSet(
            self.vehicle_params, spatial_index=spatial_index, timegrid=timegrid
        )
        self.goal_slowdown_distance = goal_slowdown_distance
        self.bounds = ControlBounds.from_vehicle(self.vehicle_params)
        self._reference_path: Optional[WaypointPath] = None
        self._follower: Optional[SegmentedPathFollower] = None
        self._warm_start: Optional[np.ndarray] = None
        self._last_info: Optional[COSolveInfo] = None

    # ------------------------------------------------------------------
    # Reference path management
    # ------------------------------------------------------------------
    def set_reference_path(self, path: WaypointPath) -> None:
        """Install the global reference path tracked by the MPC."""
        self._reference_path = path
        self._follower = SegmentedPathFollower(path)
        self._warm_start = None

    @property
    def reference_path(self) -> Optional[WaypointPath]:
        return self._reference_path

    @property
    def last_info(self) -> Optional[COSolveInfo]:
        return self._last_info

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def act(
        self,
        state: VehicleState,
        detections: Sequence[Detection] = (),
        time: float = 0.0,
    ) -> Action:
        """Compute the driving command for the current frame."""
        request, finish = self.act_split(state, detections, time=time)
        result = self.solver.solve(request.problem, initial_controls=request.warm_start)
        return finish(result)

    def act_split(
        self,
        state: VehicleState,
        detections: Sequence[Detection] = (),
        time: float = 0.0,
    ):
        """Split :meth:`act` at the solve: ``(request, finish)``.

        ``request`` carries this frame's problem + warm start; ``finish``
        takes the :class:`~repro.co.solver.SolverResult` (however it was
        obtained — the controller's own scalar solver, or one row of a
        batched ``solve_many``) and completes the step: diagnostics,
        warm-start update, infeasibility fallback.  ``finish(result)`` with
        a result from ``request.solver`` is bitwise-identical to
        :meth:`act`.
        """
        if self._reference_path is None:
            raise RuntimeError("COController.act called before set_reference_path()")

        references, headings, direction, reference_speed = self._build_reference(state)
        predictions, field_stack = self.constraint_set.build(
            detections,
            self.planning_dt,
            self.horizon,
            ego_position=state.position,
            start_time=time,
        )

        problem = MPCProblem(
            model=self.model,
            initial_state=state,
            reference_positions=references,
            reference_headings=headings,
            obstacle_predictions=predictions,
            field_constraint=field_stack,
            bounds=self.bounds,
            ego_circle_offsets=self.constraint_set.ego_circle_offsets,
            ego_circle_radius=self.constraint_set.ego_circle_radius,
        )
        warm_start = self._shifted_warm_start(direction, reference_speed)

        def finish(result: SolverResult) -> Action:
            return self._finalize(state, detections, problem, result, reference_speed)

        return COSolveRequest(problem=problem, warm_start=warm_start, solver=self.solver), finish

    def _finalize(
        self,
        state: VehicleState,
        detections: Sequence[Detection],
        problem: MPCProblem,
        result: SolverResult,
        reference_speed: float,
    ) -> Action:
        """Record diagnostics and convert a solver result into an action."""
        self._warm_start = result.controls

        num_ego_circles = int(np.size(self.constraint_set.ego_circle_offsets))
        collision_residuals = self.horizon * num_ego_circles * sum(
            prediction.num_circles for prediction in problem.obstacle_predictions
        )
        if problem.field_constraint is not None:
            collision_residuals += problem.field_constraint.num_residuals(
                self.horizon, num_ego_circles
            )
        distances = self._obstacle_distances(state, detections)
        self._last_info = COSolveInfo(
            solve_time=result.solve_time,
            iterations=result.iterations,
            objective=result.objective,
            feasible=result.feasible,
            num_obstacles=len(detections),
            obstacle_distances=distances,
            horizon=self.horizon,
            reference_speed=reference_speed,
            collision_residuals=collision_residuals,
        )

        control = KinematicControl(
            acceleration=float(result.controls[0, 0]), steer_angle=float(result.controls[0, 1])
        )
        action = self.model.control_to_action(state, control)
        # Safety fallback: if even the optimised plan predicts a constraint
        # violation (e.g. an obstacle cutting across the path faster than the
        # horizon can react to) *and* the plan keeps pushing the vehicle
        # forward, bleed off speed while keeping the optimised steering.  When
        # the plan is already retreating (decelerating or reversing away) it
        # is left untouched — overriding it with a brake would pin the
        # vehicle inside the conflict region.
        still_advancing = state.velocity > 0.1 and control.acceleration > -0.2
        if (
            not result.feasible
            and problem.min_clearance(result.controls) < -0.05
            and still_advancing
        ):
            action = Action.clipped(0.0, 0.8, action.steer, action.reverse)
        return action

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_reference(self, state: VehicleState):
        """Target positions/headings over the horizon plus direction and speed."""
        path = self._reference_path
        follower = self._follower
        follower.update(state.position)
        direction = follower.current_direction

        goal_distance = float(np.hypot(*(path.goal.position - state.position)))
        speed = self.cruise_speed if direction > 0 else self.reverse_speed
        if goal_distance < self.goal_slowdown_distance:
            speed = min(speed, 0.3 + 0.3 * goal_distance)
        if not follower.on_final_segment:
            distance_to_switch = follower.distance_to_segment_end(state.position)
            if distance_to_switch < 3.0:
                speed = min(speed, 0.4 + 0.3 * distance_to_switch)

        positions, headings, direction = follower.reference_poses(
            state.position, spacing=speed * self.planning_dt, count=self.horizon
        )
        return positions, headings, direction, speed

    def _shifted_warm_start(self, direction: int, reference_speed: float) -> np.ndarray:
        """Shift the previous solution one step; fall back to a gentle cruise."""
        if self._warm_start is not None and self._warm_start.shape[0] == self.horizon:
            shifted = np.vstack([self._warm_start[1:], self._warm_start[-1:]])
            return shifted
        nominal_accel = 0.3 * direction * min(1.0, reference_speed)
        return np.tile([nominal_accel, 0.0], (self.horizon, 1))

    def _obstacle_distances(self, state: VehicleState, detections: Sequence[Detection]) -> np.ndarray:
        if not detections:
            return np.zeros(0)
        centers = np.array([detection.center for detection in detections])
        return np.linalg.norm(centers - state.position, axis=1)

    def reset(self) -> None:
        """Clear warm-start and progress state between episodes."""
        self._warm_start = None
        self._last_info = None
        if self._follower is not None:
            self._follower.reset()
