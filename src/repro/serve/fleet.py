"""Lockstep fleet stepping: one batched CO solve per tick across sessions.

The warm worker pool removed redundant *spatial* work from fleet serving,
but each episode still solved its MPC problems alone: ``N`` concurrent
CO/iCOIL sessions issue ``N`` small Gauss-Newton solves per control period,
and on the CPU each solve is dominated by Python/numpy dispatch overhead
rather than arithmetic.  :class:`FleetStepper` removes that redundancy: it
advances every session of a cohort in lockstep *ticks*, gathers the frames
currently in CO mode through the controllers' split-step seam
(``step_split`` → :class:`~repro.co.controller.COSolveRequest`), stacks
compatible problems with :func:`~repro.co.batch.structure_signature`, and
issues **one** :meth:`~repro.co.solver.BatchedGaussNewtonSolver.solve_many`
call per structure group per tick.  Frames with no solve (IL mode, the
expert) finish in the same tick through the ordinary fast path.

Parity is a contract, not an aspiration: the batched solver is bitwise
invariant to batch composition, so a ``co_solver="batched"`` spec produces
the *same* episode — results, traces, step events — whether it runs alone
(:meth:`ParkingSession.run` solves batches of one) or inside any fleet
cohort.  Specs with the default ``co_solver="scalar"`` still fleet-step
(their solves stay per-session scalar calls), preserving *their* bitwise
contract too; they simply do not gain from batching.

Ragged cohorts are handled by sub-batching, never by silent fallback:
problems whose structure signatures differ (horizon, weights, field
presence, covering-circle totals…) solve in separate ``solve_many`` calls,
and every fragmentation is counted in :class:`FleetStats` and logged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.co.batch import structure_signature
from repro.co.solver import BatchedGaussNewtonSolver
from repro.il.policy import ILPolicy
from repro.vehicle.params import VehicleParams

from repro.api.registry import ControllerRegistry
from repro.api.session import ParkingSession, PendingStep, SessionOutcome
from repro.api.specs import EpisodeSpec

logger = logging.getLogger(__name__)


@dataclass
class FleetStats:
    """Counters of one fleet run (what the throughput benchmark reports).

    ``solves_per_tick`` is the average number of CO problems answered per
    tick by the *batched* path — values above 1 mean cross-session batching
    actually happened.  ``problems_per_solve`` is the average batch size of
    each ``solve_many`` call.  ``ragged_ticks`` counts ticks whose cohort
    fragmented into more than one structure group (sub-batching), and
    ``solo_solves`` counts scalar-spec problems solved per-session.
    """

    ticks: int = 0
    batched_calls: int = 0
    batched_problems: int = 0
    solo_solves: int = 0
    direct_steps: int = 0
    ragged_ticks: int = 0
    signature_groups: int = 0
    max_group_size: int = 0
    episodes: int = 0

    @property
    def solves_per_tick(self) -> float:
        return self.batched_problems / self.ticks if self.ticks else 0.0

    @property
    def problems_per_solve(self) -> float:
        return self.batched_problems / self.batched_calls if self.batched_calls else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "ticks": self.ticks,
            "batched_calls": self.batched_calls,
            "batched_problems": self.batched_problems,
            "solo_solves": self.solo_solves,
            "direct_steps": self.direct_steps,
            "ragged_ticks": self.ragged_ticks,
            "signature_groups": self.signature_groups,
            "max_group_size": self.max_group_size,
            "episodes": self.episodes,
            "solves_per_tick": round(self.solves_per_tick, 3),
            "problems_per_solve": round(self.problems_per_solve, 3),
        }


class FleetStepper:
    """Advance ``N`` concurrent sessions in vectorized lockstep ticks.

    Parameters
    ----------
    sessions:
        The cohort, already constructed (each with its own spec and —
        optionally — its own message bus; events stream per session exactly
        as in sequential stepping, in the same per-session order).
    solver:
        The shared batched Gauss-Newton solver; defaults to the same
        default-constructed :class:`BatchedGaussNewtonSolver` that
        ``co_solver="batched"`` specs use when running alone, which is what
        makes fleet and solo runs bitwise-identical.
    """

    def __init__(
        self,
        sessions: Sequence[ParkingSession],
        solver: Optional[BatchedGaussNewtonSolver] = None,
    ) -> None:
        self.sessions: List[ParkingSession] = list(sessions)
        self.solver = solver or BatchedGaussNewtonSolver()
        self.stats = FleetStats(episodes=len(self.sessions))
        self._warned_ragged = False

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One lockstep tick over every unfinished session.

        Returns ``False`` when every session has finished (no frame was
        stepped).  Within a tick: gather each session's pending step, finish
        the solve-free frames immediately, solve scalar-spec frames
        per-session, and answer all batched-spec frames with one
        ``solve_many`` per structure group.
        """
        pendings: List[Tuple[ParkingSession, PendingStep]] = []
        for session in self.sessions:
            if session.finished:
                continue
            pending = session.begin_step()
            if pending is not None:
                pendings.append((session, pending))
        if not pendings:
            return False
        self.stats.ticks += 1

        groups: Dict[tuple, List[Tuple[ParkingSession, PendingStep]]] = {}
        for session, pending in pendings:
            if pending.request is None:
                session.finish_step(pending, None)
                self.stats.direct_steps += 1
            elif session.spec.co_solver != "batched":
                # Scalar-spec sessions keep their own solver path (their
                # determinism contract is tied to it); they ride the tick
                # but do not co-batch.
                session.complete_step(pending)
                self.stats.solo_solves += 1
            else:
                signature = structure_signature(pending.request.problem)
                groups.setdefault(signature, []).append((session, pending))

        if len(groups) > 1:
            self.stats.ragged_ticks += 1
            sizes = sorted((len(members) for members in groups.values()), reverse=True)
            if not self._warned_ragged:
                logger.info(
                    "fleet tick cohort fragmented into %d structure groups "
                    "(sizes %s); sub-batching instead of one stacked solve",
                    len(groups),
                    sizes,
                )
                self._warned_ragged = True
            else:
                logger.debug(
                    "fleet tick sub-batched into %d groups (sizes %s)", len(groups), sizes
                )

        for members in groups.values():
            results = self.solver.solve_many(
                [pending.request.problem for _, pending in members],
                initial_controls=[pending.request.warm_start for _, pending in members],
            )
            for (session, pending), result in zip(members, results):
                session.finish_step(pending, result)
            self.stats.batched_calls += 1
            self.stats.batched_problems += len(members)
            self.stats.signature_groups += 1
            self.stats.max_group_size = max(self.stats.max_group_size, len(members))
        return True

    def run(self) -> List[SessionOutcome]:
        """Tick until every session finishes; outcomes in session order."""
        for session in self.sessions:
            session.start()
        while self.tick():
            pass
        return [session.outcome for session in self.sessions]


def run_specs_fleet(
    specs: Sequence[EpisodeSpec],
    *,
    il_policy: Optional[ILPolicy] = None,
    vehicle_params: Optional[VehicleParams] = None,
    registry: Optional[ControllerRegistry] = None,
    buses: Optional[Sequence] = None,
    solver: Optional[BatchedGaussNewtonSolver] = None,
    coordinate: bool = False,
) -> Tuple[List[SessionOutcome], FleetStats]:
    """Build one session per spec and fleet-step them to completion.

    ``buses[i]`` (when given) becomes spec ``i``'s session bus, so callers
    can stream each episode's events to its own subscriber exactly as in
    sequential execution.  Returns the outcomes in spec order plus the run's
    :class:`FleetStats`.

    ``coordinate=True`` makes the cohort a *multi-ego episode*: every
    session shares one :class:`~repro.planning.reservation.ReservationLedger`,
    spec ``i`` drives as owner ``"ego-i"`` with priority ``i`` (lower index
    has right of way), and each session republishes its committed window
    after every step.  Coordination is strictly session-level: the specs
    themselves stay pure, so their cache keys and solo trace hashes are
    untouched — which is also why coordinated outcomes must never be
    answered from (or stored into) a spec-keyed result cache.
    """
    specs = list(specs)
    if buses is not None and len(buses) != len(specs):
        raise ValueError(f"{len(buses)} buses for {len(specs)} specs")
    ledger = None
    if coordinate:
        from repro.planning.reservation import ReservationLedger

        ledger = ReservationLedger()
    sessions = [
        ParkingSession(
            spec,
            il_policy=il_policy,
            vehicle_params=vehicle_params,
            registry=registry,
            bus=buses[index] if buses is not None else None,
            reservation_ledger=ledger,
            reservation_owner=f"ego-{index}" if coordinate else None,
            reservation_priority=index,
        )
        for index, spec in enumerate(specs)
    ]
    stepper = FleetStepper(sessions, solver=solver)
    outcomes = stepper.run()
    return outcomes, stepper.stats
