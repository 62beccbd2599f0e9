"""The integrated iCOIL controller (Eq. 1).

The controller owns the full inference mapping ``f: X -> A`` of Fig. 2: it
renders the BEV observation, runs the IL policy (whose output distribution
always feeds HSA, regardless of the active mode), runs the object detector
for the CO constraints, evaluates HSA and executes either the IL action or
the CO action.  A guard time keeps the mode fixed for a number of frames
after each switch to smooth the transition (§V-C).

Every controller, this one included, speaks one protocol:
``step_split(state, obstacles, lot, time) -> (request | None, finish)``,
where ``request`` is the frame's MPC solve (``None`` when the frame has
none) and ``finish(result)`` turns the solver result into a
:class:`ControlStep`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.co.controller import COController
from repro.core.config import ICOILConfig
from repro.core.hsa import HSAModel, HSAReading, hsa_obstacle_distances
from repro.il.policy import ILPolicy
from repro.perception.bev import BEVRenderer
from repro.perception.detector import ObjectDetector
from repro.planning.reservation import as_reservation_table
from repro.planning.waypoints import WaypointPath
from repro.vehicle.actions import Action
from repro.vehicle.state import VehicleState
from repro.world.obstacles import Obstacle
from repro.world.parking_lot import ParkingLot


@dataclass(frozen=True)
class ControlStep:
    """One control decision, in the shape every controller's ``finish`` returns."""

    action: Action
    mode: str
    uncertainty: float = 0.0
    hsa_score: float = 0.0
    switched: bool = False


class DrivingMode(enum.Enum):
    """The two candidate working modes of iCOIL."""

    IL = "il"
    CO = "co"


class ICOILController:
    """Scenario-aware controller switching between IL and CO.

    Parameters
    ----------
    il_policy:
        The (trained) imitation-learning policy.
    co_controller:
        The constrained-optimization controller; its reference path must be
        installed before driving (see :meth:`prepare`).
    renderer / detector:
        Perception components; injected so experiments can vary noise levels.
    config:
        HSA window, threshold, guard time and complexity parameters.
    """

    def __init__(
        self,
        il_policy: ILPolicy,
        co_controller: COController,
        renderer: Optional[BEVRenderer] = None,
        detector: Optional[ObjectDetector] = None,
        config: Optional[ICOILConfig] = None,
        timegrid=None,
    ) -> None:
        self.il_policy = il_policy
        self.co_controller = co_controller
        self.renderer = renderer or BEVRenderer()
        self.detector = detector or ObjectDetector()
        self.config = config or ICOILConfig()
        # Optional space-time reservation table (raw TimeGrids are coerced):
        # feeds the HSA complexity term a predicted time-to-conflict, so the
        # switch to CO happens *before* a patrol — or a higher-priority
        # ego's committed window — crosses the path rather than once it is
        # alongside.  Kept even while empty: a table over a patrol-free lot
        # turns live when a peer publishes a reservation.
        self.timegrid = as_reservation_table(
            timegrid, getattr(co_controller, "vehicle_params", None)
        )
        self.hsa = HSAModel(self.config, num_classes=il_policy.action_space.num_classes)
        self._mode = DrivingMode.CO
        self._frames_since_switch = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def prepare(self, reference_path: WaypointPath) -> None:
        """Install the global reference path and reset per-episode state."""
        self.co_controller.set_reference_path(reference_path)
        self.co_controller.reset()
        self.hsa.reset()
        self._mode = DrivingMode.CO
        self._frames_since_switch = 0

    @property
    def mode(self) -> DrivingMode:
        return self._mode

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def step_split(
        self,
        state: VehicleState,
        obstacles: Sequence[Obstacle],
        lot: ParkingLot,
        time: float = 0.0,
    ):
        """One perception + decision + control cycle, split at the MPC solve.

        Runs perception, HSA and the mode decision now.  On a CO frame the
        returned request is this frame's MPC problem and ``finish`` expects
        its solver result; on an IL frame the request is ``None`` and
        ``finish(None)`` completes the step immediately.  This is the seam
        a fleet scheduler uses to gather every concurrent session's CO
        problem into one batched solve per tick.
        """
        image = self.renderer.render(state, obstacles, lot)
        il_action, probabilities = self.il_policy.predict_action(image)

        detections = self.detector.detect(state, obstacles, time=time)
        obstacle_distances = hsa_obstacle_distances(state.position, detections)

        time_to_conflict = (
            self.timegrid.time_to_conflict(state.position, start_time=time)
            if self.timegrid is not None
            else None
        )
        goal_distance = float(np.hypot(*(lot.goal_pose.position - state.position)))
        final_approach = goal_distance <= self.config.final_approach_distance
        reading = self.hsa.update(
            probabilities,
            obstacle_distances,
            time_to_conflict=time_to_conflict,
            final_approach=final_approach,
        )
        switched = self._update_mode(reading)

        mode = self._mode
        finish_co = None
        request = None
        if mode is DrivingMode.CO:
            request, finish_co = self.co_controller.act_split(state, detections, time=time)

        def finish(result) -> ControlStep:
            return ControlStep(
                action=finish_co(result) if finish_co is not None else il_action,
                mode=mode.value,
                uncertainty=reading.normalized_uncertainty,
                hsa_score=reading.score,
                switched=switched,
            )

        return request, finish

    # ------------------------------------------------------------------
    # Mode switching (Eq. 1 + guard time)
    # ------------------------------------------------------------------
    def _update_mode(self, reading: HSAReading) -> bool:
        """Apply Eq. 1 with the guard time; escalations bypass the guard.

        The guard exists to smooth oscillation between near-equal modes; a
        ``conflict_escalated`` reading is a different thing entirely — the
        final approach with a patrol predicted to cross — so the handoff to
        CO happens the same frame regardless of how recently the mode
        changed.  The guard still applies on the way *back* to IL, so the
        escalation cannot itself introduce chatter.
        """
        self._frames_since_switch += 1
        if reading.conflict_escalated and self._mode is not DrivingMode.CO:
            self._mode = DrivingMode.CO
            self._frames_since_switch = 0
            return True
        if self._frames_since_switch <= self.config.guard_frames:
            return False
        desired = DrivingMode.CO if reading.use_co else DrivingMode.IL
        if desired is not self._mode:
            self._mode = desired
            self._frames_since_switch = 0
            return True
        return False
