"""The benchmark's workloads: their fixed episode lists, and their drivers.

Every workload is a closed loop in one process.  Solo workloads drive one
:class:`~repro.api.session.ParkingSession` at a time; ``fleet-cohort``
advances one :class:`~repro.serve.fleet.FleetStepper` cohort in one thread.
No process pool, warm pool or result memo is used.

Scenario seeds are SHA-256 digests made here, not through ``repro``'s own
seed derivation, so they name the same lots at every commit.  The timed
lots are a fixed corpus whose size follows ``--seconds`` through a nominal
cost per unit on a 2-vCPU host (see ``UNIT_SECONDS``); ``--seed`` adds one
untimed probe episode on a lot of its own, which the output checks cover.
The same seconds therefore always time the same episodes: counters repeat
exactly and two commits time the same work.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.api import EpisodeSpec, ParkingSession, SessionOutcome, StepEvent
from repro.serve.fleet import FleetStats, FleetStepper
from repro.world import DifficultyLevel, ScenarioConfig, SpawnMode

WORKLOADS = ("static-mix", "patrol-mix", "fleet-cohort")

# The seven layout presets of repro.world.presets; the fixed-lot "legacy"
# preset runs on patrol-mix instead.
STATIC_PRESETS = (
    "perpendicular-easy",
    "perpendicular-hard",
    "parallel-easy",
    "parallel-hard",
    "angled-easy",
    "angled-cluttered",
    "dead-end-normal",
)
# The dynamic-bench presets (two crossing patrols at NORMAL difficulty).
PATROL_PRESETS = ("legacy", "perpendicular-easy", "angled-easy")
# Expert first: the warm-up is the corpus's first spec, and an expert episode
# is the cheapest and least outcome-dependent one to warm up on.
SOLO_METHODS = ("expert", "co", "icoil")
# co first: the warm-up runs it solo, which checks fleet == solo on a spec
# that takes the batched solve.
FLEET_METHODS = ("co", "icoil", "expert")

# Nominal seconds one unit of each workload takes on a 2-vCPU x86 host.  A
# unit is one preset driven by each of the three methods: on one lot
# (static-mix), on three lots (patrol-mix), or as three sessions of the
# cohort (fleet-cohort).
UNIT_SECONDS = {"static-mix": 4.5, "patrol-mix": 10.0, "fleet-cohort": 4.5}
# Simulated seconds of the probe episode (about a hundred frames after its
# start-up search), so the probe costs a fraction of a full episode.
PROBE_TIME_LIMIT = 10.0
# Simulated seconds a fleet session is served: past the 24-42 s a parking
# episode takes on the static presets, so only sessions that would time out
# are cut.  At the 80 s default the timed-out icoil sessions ran alone for
# the last half of the ticks, and every median of the cohort fell on the
# boundary between the two cohort sizes.
FLEET_TIME_LIMIT = 45.0


def lot_seed(name: str) -> int:
    """Scenario seed of the lot called ``name``: SHA-256 of ``perfbench/<name>``."""
    digest = hashlib.sha256(f"perfbench/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def units_for(workload: str, seconds: float) -> int:
    """How many units of ``workload`` make a run of about ``seconds``."""
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def _spec(method: str, preset: str, difficulty: DifficultyLevel, seed: int, **extra) -> EpisodeSpec:
    scenario = ScenarioConfig(
        scenario_name=preset,
        difficulty=difficulty,
        spawn_mode=SpawnMode.RANDOM,
        seed=seed,
    )
    return EpisodeSpec(method=method, scenario=scenario, **extra)


def corpus(workload: str, seconds: float) -> List[EpisodeSpec]:
    """The fixed episode list of a run of about ``seconds``, in run order.

    * ``static-mix``: lot ``k`` is ``STATIC_PRESETS[k % 7]`` at EASY,
      driven once by each of ``SOLO_METHODS`` (three episodes per lot).
    * ``patrol-mix``: unit ``k`` is ``PATROL_PRESETS[k % 3]`` at NORMAL,
      driven once by each of ``SOLO_METHODS``, every episode on its own lot.
    * ``fleet-cohort``: the static-mix lots, each with one ``co``, one
      ``icoil`` and one ``expert`` session, all ``co_solver="batched"`` and
      cut at ``FLEET_TIME_LIMIT``.

    Lots differ a great deal in cost (a time-aware A* start takes from 0.2 s
    to over 50 s, a CO frame from 5 to 20 ms), so a run's figures would
    follow whichever few lots a seed drew; the timed lots are therefore the
    same for every seed, and the cohort's session order with them.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    specs: List[EpisodeSpec] = []
    for k in range(units_for(workload, seconds)):
        if workload == "patrol-mix":
            preset = PATROL_PRESETS[k % len(PATROL_PRESETS)]
            specs.extend(
                _spec(m, preset, DifficultyLevel.NORMAL, lot_seed(f"patrol/{3 * k + j}"))
                for j, m in enumerate(SOLO_METHODS)
            )
            continue
        preset = STATIC_PRESETS[k % len(STATIC_PRESETS)]
        lot = lot_seed(f"static/{k}")
        if workload == "static-mix":
            specs.extend(_spec(m, preset, DifficultyLevel.EASY, lot) for m in SOLO_METHODS)
        else:
            specs.extend(
                _spec(
                    m, preset, DifficultyLevel.EASY, lot,
                    co_solver="batched", time_limit=FLEET_TIME_LIMIT,
                )
                for m in FLEET_METHODS
            )
    return specs


def probe_spec(workload: str, seed: int, specs: Sequence[EpisodeSpec]) -> EpisodeSpec:
    """The corpus's first spec on a lot of ``seed``'s own, cut to
    ``PROBE_TIME_LIMIT``: checked, not timed."""
    spec = specs[0].with_seed(lot_seed(f"{workload}/probe/{seed}"))
    return replace(spec, time_limit=PROBE_TIME_LIMIT)


@dataclass
class EpisodeRecord:
    """What the benchmark saw of one episode.

    ``frames`` holds ``(mode, seconds)`` per frame: for a solo episode the
    time from ``begin_step`` to the end of ``complete_step``; for a fleet
    session the time from the start of the tick to the frame's
    ``StepEvent``, i.e. what the session waited for its frame.
    """

    spec: EpisodeSpec
    start_s: float = 0.0
    wall_s: float = 0.0
    frames: List[Tuple[str, float]] = field(default_factory=list)
    outcome: Optional[SessionOutcome] = None
    error: Optional[str] = None


def run_solo(spec: EpisodeSpec, policy) -> EpisodeRecord:
    """Drive one episode to its end, timing ``start()`` and every frame."""
    clock = time.perf_counter
    record = EpisodeRecord(spec)
    opened = clock()
    session = ParkingSession(spec, il_policy=policy)
    try:
        began = clock()
        session.start()
        record.start_s = clock() - began
        while True:
            began = clock()
            pending = session.begin_step()
            if pending is None:
                break
            event = session.complete_step(pending)
            record.frames.append((event.mode, clock() - began))
        record.outcome = session.outcome
    except Exception:  # an episode that raises counts as failed; the run goes on
        record.error = traceback.format_exc()
    record.wall_s = clock() - opened
    return record


@dataclass
class FleetRun:
    records: List[EpisodeRecord]
    ticks: List[float]
    stats: FleetStats


def run_fleet(specs: Sequence[EpisodeSpec], policy) -> FleetRun:
    """Tick one cohort until every session finishes, timing every tick."""
    clock = time.perf_counter
    records = [EpisodeRecord(spec) for spec in specs]
    sessions = [ParkingSession(spec, il_policy=policy) for spec in specs]
    tick_start = [0.0]
    for record, session in zip(records, sessions):

        def on_frame(event: StepEvent, frames=record.frames) -> None:
            frames.append((event.mode, clock() - tick_start[0]))

        session.subscribe(on_frame)
    stepper = FleetStepper(sessions)
    ticks: List[float] = []
    try:
        for record, session in zip(records, sessions):
            began = clock()
            session.start()
            record.start_s = clock() - began
        while True:
            tick_start[0] = clock()
            if not stepper.tick():
                break
            ticks.append(clock() - tick_start[0])
    except Exception:  # a cohort that raises fails every session still open
        error = traceback.format_exc()
        for record, session in zip(records, sessions):
            if not session.finished:
                record.error = error
    for record, session in zip(records, sessions):
        if session.finished and record.error is None:
            record.outcome = session.outcome
    return FleetRun(records, ticks, stepper.stats)
