"""Built-in controller methods, installed on the registry.

Each factory returns a controller that speaks the ``step_split`` protocol
itself (see :class:`~repro.api.registry.SessionController`), so the session
loop needs no per-method branches.  Perception components are requested
from the context lazily: ``expert`` builds neither renderer nor detector,
``il`` builds only the renderer, ``co`` only the detector.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.baselines import COOnlyController, ILOnlyController
from repro.core.controller import ControlStep, ICOILController
from repro.il.expert import ExpertDriver
from repro.vehicle.state import VehicleState
from repro.world.obstacles import Obstacle
from repro.world.parking_lot import ParkingLot

from repro.api.registry import ControllerContext, default_registry, register_method


class ExpertController:
    """The scripted expert: no solve, so every request is ``None``."""

    def __init__(self, expert: ExpertDriver) -> None:
        self.expert = expert

    def step_split(
        self,
        state: VehicleState,
        obstacles: Sequence[Obstacle],
        lot: ParkingLot,
        time: float = 0.0,
    ):
        control = ControlStep(action=self.expert.act(state, time=time), mode="expert")
        return None, lambda result: control

    def committed_reservation(self, owner: str, priority: int, state, time: float):
        """The expert's committed window (see ``ParkingSession`` coordination)."""
        return self.expert.committed_reservation(owner, priority, state, time)


@register_method("icoil")
def build_icoil(context: ControllerContext) -> ICOILController:
    """The integrated CO+IL controller with HSA mode switching (Eq. 1)."""
    policy = context.require_policy("icoil")
    controller = ICOILController(
        policy,
        context.make_co_controller(),
        context.renderer,
        context.detector,
        context.icoil,
        timegrid=context.reservations,
    )
    controller.prepare(context.reference_path)
    return controller


@register_method("il")
def build_il(context: ControllerContext) -> ILOnlyController:
    """The conventional pure-IL baseline [2]: the DNN drives every frame."""
    return ILOnlyController(context.require_policy("il"), context.renderer)


@register_method("co")
def build_co(context: ControllerContext) -> COOnlyController:
    """Constrained optimization at every frame (pure-CO ablation)."""
    controller = COOnlyController(context.make_co_controller(), context.detector)
    controller.prepare(context.reference_path)
    return controller


@register_method("expert")
def build_expert(context: ControllerContext) -> ExpertController:
    """The scripted demonstrator used to generate IL training data."""
    context.reference_path  # plan eagerly so failures surface at build time
    return ExpertController(context.expert)


# Methods guaranteed to exist in any process that imports repro.api — the
# set the process-backend executor can promise its workers will resolve
# (runtime-registered methods only exist in the registering process).
# Snapshotted at the end of this module's import, so it tracks the
# registrations above automatically.
BUILTIN_METHODS = default_registry().names()
