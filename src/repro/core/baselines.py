"""Baseline controllers used in the paper's comparison.

* :class:`ILOnlyController` — the conventional IL scheme [2]: the trained DNN
  drives at every frame, no optimisation fallback.
* :class:`COOnlyController` — constrained optimization at every frame; not
  evaluated in the paper's tables but included as a natural ablation (and
  used by the execution-frequency benchmark).

Both speak the same ``step_split`` protocol as
:class:`repro.core.controller.ICOILController`, so a session can drive any
of them interchangeably.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.co.controller import COController
from repro.core.controller import ControlStep
from repro.il.policy import ILPolicy
from repro.perception.bev import BEVRenderer
from repro.perception.detector import ObjectDetector
from repro.planning.waypoints import WaypointPath
from repro.vehicle.state import VehicleState
from repro.world.obstacles import Obstacle
from repro.world.parking_lot import ParkingLot


class ILOnlyController:
    """The conventional IL baseline: always execute the DNN's action."""

    def __init__(self, il_policy: ILPolicy, renderer: Optional[BEVRenderer] = None) -> None:
        self.il_policy = il_policy
        self.renderer = renderer or BEVRenderer()

    def step_split(
        self,
        state: VehicleState,
        obstacles: Sequence[Obstacle],
        lot: ParkingLot,
        time: float = 0.0,
    ):
        """Render and infer now; pure IL has no solve, so the request is ``None``."""
        image = self.renderer.render(state, obstacles, lot)
        action, _ = self.il_policy.predict_action(image)
        control = ControlStep(action=action, mode="il")
        return None, lambda result: control


class COOnlyController:
    """Constrained optimization at every frame (pure-CO ablation)."""

    def __init__(self, co_controller: COController, detector: Optional[ObjectDetector] = None) -> None:
        self.co_controller = co_controller
        self.detector = detector or ObjectDetector()

    def prepare(self, reference_path: WaypointPath) -> None:
        self.co_controller.set_reference_path(reference_path)
        self.co_controller.reset()

    def step_split(
        self,
        state: VehicleState,
        obstacles: Sequence[Obstacle],
        lot: ParkingLot,
        time: float = 0.0,
    ):
        """Detect and build the MPC problem now; ``finish`` takes its solution.

        Every frame of this baseline is a CO frame, so the request is never
        ``None``; ``finish`` accepts the solver result from any bitwise-
        equivalent solve path.
        """
        detections = self.detector.detect(state, obstacles, time=time)
        request, finish_co = self.co_controller.act_split(state, detections, time=time)
        return request, lambda result: ControlStep(action=finish_co(result), mode="co")
