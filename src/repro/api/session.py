"""The session engine: runs one :class:`EpisodeSpec` to completion.

:class:`ParkingSession` is the single execution path for parking episodes.
It builds the scenario and world, asks the registry for the spec's
controller, and steps the world while streaming one :class:`StepEvent` per
frame over a :class:`~repro.middleware.bus.MessageBus`.  The per-frame
trace and the final :class:`EpisodeResult` are assembled from those same
events, so streaming consumers and batch consumers see identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.co.solver import BatchedGaussNewtonSolver, SolverResult
from repro.core.controller import ControlStep
from repro.il.policy import ILPolicy
from repro.middleware.bus import MessageBus, Subscription
from repro.vehicle.params import VehicleParams
from repro.world.scenario import build_scenario
from repro.world.world import ParkingWorld

from repro.api.events import (
    EPISODE_TOPIC,
    RESERVATION_TOPIC,
    STEP_TOPIC,
    EpisodeCompletedEvent,
    ReservationEvent,
    StepEvent,
)
from repro.api.registry import ControllerRegistry, ControllerContext, default_registry
from repro.api.results import EpisodeResult
from repro.api.specs import EpisodeSpec
from repro.api.trace import EpisodeTrace, episode_trace_hash

StepListener = Callable[[StepEvent], None]


@dataclass
class PendingStep:
    """One session step paused at its MPC solve.

    ``begin_step`` runs the controller's ``step_split`` and returns one of
    these; :meth:`ParkingSession.finish_step` hands the solver result for
    ``request`` to ``finish`` and completes the frame.  ``request`` is
    ``None`` when the frame has no solve (IL frames, the expert); then the
    result is ``None`` too.
    """

    step_index: int
    pre_step_state: object
    request: object  # Optional[COSolveRequest]
    finish: Callable[[Optional[SolverResult]], ControlStep]


def solve_request(
    request, batched_solver: Optional[BatchedGaussNewtonSolver] = None
) -> Optional[SolverResult]:
    """Solve one frame's ``step_split`` request in this process.

    ``None`` for a solve-free frame.  With ``batched_solver`` the problem
    runs through :meth:`~repro.co.solver.BatchedGaussNewtonSolver.solve_many`
    as a batch of one — bitwise identical to the same problem solved inside
    any fleet cohort, because ``solve_many`` is invariant to batch
    composition; otherwise through the request's own scalar solver.  A
    single-call step outside a session is
    ``finish(solve_request(request))``.
    """
    if request is None:
        return None
    if batched_solver is not None:
        return batched_solver.solve_many(
            [request.problem], initial_controls=[request.warm_start]
        )[0]
    return request.solver.solve(request.problem, initial_controls=request.warm_start)


@dataclass(frozen=True)
class SessionOutcome:
    """What one completed session produced."""

    result: EpisodeResult
    trace: EpisodeTrace
    events: tuple

    @property
    def num_steps(self) -> int:
        return self.result.num_steps


class ParkingSession:
    """Run one episode spec, streaming per-step events to subscribers.

    Parameters
    ----------
    spec:
        The declarative episode description (method, scenario, configs).
    il_policy:
        Trained IL policy, required by methods that use it.
    vehicle_params:
        Ego-vehicle geometry; defaults match the paper's vehicle.
    registry:
        Controller registry to resolve ``spec.method`` against; defaults to
        the process-wide registry with the built-in methods.
    bus:
        Message bus for event streaming; a private bus is created when not
        provided.  Pass a shared bus to fan events into an existing node
        graph or recorder.
    reservation_ledger / reservation_owner / reservation_priority:
        Multi-ego coordination, strictly session-level opt-in (never spec
        fields — specs stay pure, so cache keys and solo trace hashes are
        untouched).  When a ledger *and* owner are given, the session's
        controller sees peers' reservations through its
        :class:`~repro.planning.reservation.ReservationTable` and, after
        every step, publishes its own committed window back onto the
        ledger (and as a :class:`ReservationEvent` on the bus).  Lower
        ``(priority, owner)`` keys have right of way.
    """

    def __init__(
        self,
        spec: EpisodeSpec,
        *,
        il_policy: Optional[ILPolicy] = None,
        vehicle_params: Optional[VehicleParams] = None,
        registry: Optional[ControllerRegistry] = None,
        bus: Optional[MessageBus] = None,
        reservation_ledger=None,
        reservation_owner: Optional[str] = None,
        reservation_priority: int = 0,
    ) -> None:
        self.spec = spec
        self.il_policy = il_policy
        self.vehicle_params = vehicle_params or VehicleParams()
        self.registry = registry or default_registry()
        self.bus = bus or MessageBus()
        self.reservation_ledger = reservation_ledger
        self.reservation_owner = reservation_owner
        self.reservation_priority = reservation_priority
        # Fail fast on unknown methods, before any world construction.
        self.registry.factory_for(spec.method)

    def subscribe(self, listener: StepListener) -> Subscription:
        """Receive every :class:`StepEvent` of subsequent :meth:`run` calls."""
        return self.bus.subscribe(STEP_TOPIC, listener, subscriber="session-listener")

    def build_controller(self, scenario) -> object:
        """Resolve the spec's method against the registry for ``scenario``."""
        context = ControllerContext(
            scenario,
            il_policy=self.il_policy,
            vehicle_params=self.vehicle_params,
            icoil=self.spec.icoil,
            perception=self.spec.perception,
            time_layer=self.spec.time_layer,
            dt=self.spec.dt,
            reservation_ledger=self.reservation_ledger,
            reservation_owner=self.reservation_owner,
            reservation_priority=self.reservation_priority,
        )
        controller = self.registry.create(self.spec.method, context)
        if not callable(getattr(controller, "step_split", None)):
            raise TypeError(
                f"method {self.spec.method!r} built a {type(controller).__name__}, "
                "which has no callable step_split(state, obstacles, lot, time)"
            )
        return controller

    # ------------------------------------------------------------------
    # Resumable stepping (the fleet-scheduler seam)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the world and controller; ready the session for stepping.

        Idempotent within one episode: a second call is a no-op, so
        :meth:`run` can be layered on top of external steppers.
        """
        if getattr(self, "_started", False):
            return
        spec = self.spec
        self._scenario = build_scenario(spec.scenario)
        self._world = ParkingWorld(
            self._scenario, self.vehicle_params, dt=spec.dt, time_limit=spec.time_limit
        )
        self._controller = self.build_controller(self._scenario)
        self._max_steps = spec.max_steps or int(spec.time_limit / spec.dt) + 5
        self._events: List[StepEvent] = []
        self._mode_switches = 0
        self._step_index = 0
        self._outcome: Optional[SessionOutcome] = None
        self._batched_solver = (
            BatchedGaussNewtonSolver() if spec.co_solver == "batched" else None
        )
        self._started = True
        # Coordinated sessions stake their spawn pose before anyone moves,
        # so a lower-priority peer's very first frame already sees it.
        self._publish_reservation(self._world.state, self._world.time)

    @property
    def finished(self) -> bool:
        """True once the episode terminated (outcome available)."""
        return getattr(self, "_outcome", None) is not None

    @property
    def outcome(self) -> SessionOutcome:
        if self._outcome is None:
            raise RuntimeError("episode has not finished yet")
        return self._outcome

    def begin_step(self) -> Optional[PendingStep]:
        """Run one frame up to its MPC solve; ``None`` once the episode ends.

        On ``None`` the outcome has been assembled and published (see
        :attr:`outcome`).  Otherwise the returned :class:`PendingStep` must
        be handed back to :meth:`finish_step` (with an externally computed
        solver result) or :meth:`complete_step` (solve locally) before the
        next ``begin_step`` call.
        """
        self.start()
        if self._outcome is not None:
            return None
        if self._world.status.is_terminal or self._step_index >= self._max_steps:
            self._finish_episode()
            return None
        pre_step_state = self._world.state
        request, finish = self._controller.step_split(
            pre_step_state,
            self._world.current_obstacles(),
            self._scenario.lot,
            time=self._world.time,
        )
        return PendingStep(
            step_index=self._step_index,
            pre_step_state=pre_step_state,
            request=request,
            finish=finish,
        )

    def finish_step(self, pending: PendingStep, result=None) -> StepEvent:
        """Complete a frame begun by :meth:`begin_step`.

        ``result`` is the solver result for ``pending.request`` (``None``
        when the request was ``None``).  Advances the world, assembles and
        publishes the frame's :class:`StepEvent`.
        """
        control = pending.finish(result)
        step_result = self._world.step(control.action)
        if control.switched:
            self._mode_switches += 1
        event = StepEvent(
            stamp=step_result.time,
            step_index=pending.step_index,
            pre_step_state=pending.pre_step_state,
            state=step_result.state,
            action=control.action,
            mode=control.mode,
            uncertainty=control.uncertainty,
            hsa_score=control.hsa_score,
            switched=control.switched,
            min_obstacle_distance=step_result.min_obstacle_distance,
            status=step_result.status,
        )
        self._events.append(event)
        self._step_index += 1
        self.bus.publish(STEP_TOPIC, event)
        self._publish_reservation(step_result.state, step_result.time)
        return event

    def _publish_reservation(self, state, time: float) -> None:
        """Refresh this session's committed window on the shared ledger.

        A no-op unless the session is coordinated (ledger + owner set) and
        its controller exposes ``committed_reservation``.  Replacing the
        owner's entry bumps the ledger version, which invalidates peers'
        per-version reservation caches.
        """
        if self.reservation_ledger is None or self.reservation_owner is None:
            return
        committed = getattr(self._controller, "committed_reservation", None)
        if committed is None:
            return
        reservation = committed(
            self.reservation_owner, self.reservation_priority, state, time
        )
        self.reservation_ledger.publish(reservation)
        self.bus.publish(
            RESERVATION_TOPIC,
            ReservationEvent(
                stamp=time,
                owner=reservation.owner,
                priority=reservation.priority,
                payload=reservation.to_dict(),
            ),
        )

    def complete_step(self, pending: PendingStep) -> StepEvent:
        """Solve ``pending``'s request locally and finish the frame.

        ``co_solver="batched"`` specs solve as a batch of one, scalar specs
        with the request's own solver (see :func:`solve_request`).
        """
        return self.finish_step(pending, solve_request(pending.request, self._batched_solver))

    def _finish_episode(self) -> None:
        spec = self.spec
        world = self._world
        events = self._events
        result = self._build_result(world, events, self._mode_switches)
        self.bus.publish(
            EPISODE_TOPIC,
            EpisodeCompletedEvent(
                stamp=world.time,
                method=spec.method,
                seed=spec.scenario.seed,
                status=world.status,
                parking_time=result.parking_time,
                num_steps=result.num_steps,
            ),
        )
        self._outcome = SessionOutcome(
            result=result, trace=self._build_trace(events), events=tuple(events)
        )

    def run(self) -> SessionOutcome:
        """Run the episode to termination (or the step cap).

        Each call runs a fresh episode (matching the pre-state-machine
        behaviour); a partially stepped session resumes where it left off.
        """
        if getattr(self, "_started", False) and self._outcome is not None:
            self._started = False
        self.start()
        while True:
            pending = self.begin_step()
            if pending is None:
                return self.outcome
            self.complete_step(pending)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_result(
        self, world: ParkingWorld, events: List[StepEvent], mode_switches: int
    ) -> EpisodeResult:
        min_distance = (
            float(min(event.min_obstacle_distance for event in events))
            if events
            else float("inf")
        )
        co_frames = sum(1 for event in events if event.mode == "co")
        return EpisodeResult(
            method=self.spec.method,
            difficulty=self.spec.scenario.difficulty.value,
            seed=self.spec.scenario.seed,
            status=world.status,
            parking_time=world.time,
            num_steps=len(events),
            co_mode_fraction=co_frames / max(1, len(events)),
            num_mode_switches=mode_switches,
            min_obstacle_distance=min_distance,
            trace_hash=episode_trace_hash(events),
        )

    @staticmethod
    def _build_trace(events: List[StepEvent]) -> EpisodeTrace:
        return EpisodeTrace(
            times=np.array([event.stamp for event in events]),
            positions=(
                np.array([event.state.position for event in events])
                if events
                else np.zeros((0, 2))
            ),
            headings=np.array([event.state.heading for event in events]),
            velocities=np.array([event.state.velocity for event in events]),
            steering=np.array([event.action.steer for event in events]),
            reverse=np.array([event.action.reverse for event in events], dtype=bool),
            modes=tuple(event.mode for event in events),
            uncertainties=np.array([event.uncertainty for event in events]),
            hsa_scores=np.array([event.hsa_score for event in events]),
            min_obstacle_distances=np.array([event.min_obstacle_distance for event in events]),
        )


def run_episode_spec(
    spec: EpisodeSpec,
    *,
    il_policy: Optional[ILPolicy] = None,
    vehicle_params: Optional[VehicleParams] = None,
    registry: Optional[ControllerRegistry] = None,
) -> SessionOutcome:
    """One-call convenience wrapper: build a session for ``spec`` and run it."""
    session = ParkingSession(
        spec, il_policy=il_policy, vehicle_params=vehicle_params, registry=registry
    )
    return session.run()
