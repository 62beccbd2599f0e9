"""One entry point per table / figure of the paper's evaluation section.

Every function is deterministic given its seed list and returns plain data
(dataclasses, numpy arrays) so the benchmark harness can both assert on the
qualitative shape and print the same rows/series the paper reports.

All experiments run through the :mod:`repro.api` session layer: single
episodes via :class:`~repro.api.session.ParkingSession` and batches via
:class:`~repro.api.executor.BatchExecutor` (worker pool, deterministic
seed-major result ordering).  Each takes the iCOIL ``config`` and the
episode ``time_limit`` as keywords.

| Function                          | Paper artefact                     |
|-----------------------------------|------------------------------------|
| ``fig5_steering_experiment``      | Fig. 5 — IL vs demonstrator steering |
| ``fig6_trajectory_experiment``    | Fig. 6 — iCOIL vs IL trajectories  |
| ``fig7_mode_switching_experiment``| Fig. 7 — HSA uncertainty & commands|
| ``table2_experiment``             | Table II — time & success rate     |
| ``fig8_sensitivity_experiment``   | Fig. 8 — spawn point x #obstacles  |
| ``fig9_parking_time_experiment``  | Fig. 9 — parking-time comparison   |
| ``execution_frequency_experiment``| §V-E — IL vs CO execution rate     |
| ``hsa_ablation_experiment``       | ablation of lambda / guard time    |
| ``scenario_generalization_experiment`` | beyond the paper: every registered layout |

Scenario-aware experiments enumerate lot layouts through the
:class:`~repro.world.registry.ScenarioRegistry`: ``fig8`` accepts a
``scenarios`` list and the generalization experiment defaults to every
registered preset, so a newly registered layout automatically joins the
sweeps.
"""

from __future__ import annotations

import os
import time as time_module
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.executor import BatchExecutor
from repro.api.registry import ControllerContext, default_registry
from repro.api.session import ParkingSession, SessionOutcome, solve_request
from repro.api.specs import BatchSpec, EpisodeSpec
from repro.api.trace import EpisodeTrace
from repro.core.config import ICOILConfig
from repro.eval.metrics import EpisodeResult, MethodStatistics, aggregate_results
from repro.il.policy import ILPolicy
from repro.world.registry import default_scenario_registry
from repro.world.scenario import DifficultyLevel, ScenarioConfig, SpawnMode


# ---------------------------------------------------------------------------
# Session-layer plumbing shared by all experiments
# ---------------------------------------------------------------------------
# Episode budget (s) of every experiment unless the caller passes one.
DEFAULT_TIME_LIMIT = 80.0


def _run_session(
    policy: Optional[ILPolicy],
    method: str,
    scenario_config: ScenarioConfig,
    config: Optional[ICOILConfig],
    time_limit: float,
    max_steps: Optional[int] = None,
) -> SessionOutcome:
    """Run one episode through the session API."""
    spec = EpisodeSpec(
        method=method,
        scenario=scenario_config,
        icoil=config or ICOILConfig(),
        time_limit=time_limit,
        max_steps=max_steps,
    )
    return ParkingSession(spec, il_policy=policy).run()


def _executor_for(policy: Optional[ILPolicy]) -> BatchExecutor:
    """The experiment harness's batch executor.

    ``ICOIL_EXECUTOR_BACKEND=process`` switches every experiment's batches
    to the multi-core process pool (results are bitwise-identical to the
    thread backend, so tables and figures do not change — only wall time).
    """
    backend = os.environ.get("ICOIL_EXECUTOR_BACKEND", "thread")
    return BatchExecutor(il_policy=policy, backend=backend)


def _batch_spec(
    method: str,
    seeds: Sequence[int],
    difficulties: Sequence[DifficultyLevel],
    config: Optional[ICOILConfig],
    time_limit: float,
    **scenario_kwargs,
) -> BatchSpec:
    return BatchSpec(
        method=method,
        seeds=tuple(seeds),
        difficulties=tuple(difficulties),
        icoil=config or ICOILConfig(),
        time_limit=time_limit,
        **scenario_kwargs,
    )


# ---------------------------------------------------------------------------
# Fig. 5 — steering traces of IL vs the demonstrator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SteeringComparison:
    """Steering traces for the demonstrator and the IL policy on one scenario."""

    expert_times: np.ndarray
    expert_steering: np.ndarray
    il_times: np.ndarray
    il_steering: np.ndarray
    il_distinct_values: int

    @property
    def il_is_stepped(self) -> bool:
        """IL steering takes few distinct values because of action discretisation."""
        return self.il_distinct_values <= 16


def fig5_steering_experiment(
    policy: ILPolicy,
    seed: int = 0,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> SteeringComparison:
    """Reproduce Fig. 5: compare IL steering with the demonstrator's."""
    scenario = ScenarioConfig(difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.RANDOM, seed=seed)
    expert_trace = _run_session(policy, "expert", scenario, config, time_limit).trace
    il_trace = _run_session(policy, "il", scenario, config, time_limit).trace
    return SteeringComparison(
        expert_times=expert_trace.times,
        expert_steering=expert_trace.steering,
        il_times=il_trace.times,
        il_steering=il_trace.steering,
        il_distinct_values=int(np.unique(np.round(il_trace.steering, 3)).size),
    )


# ---------------------------------------------------------------------------
# Fig. 6 — parking processes and trajectories of iCOIL vs IL
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TrajectoryComparison:
    """Trajectories and outcomes for iCOIL and IL on the same scenario."""

    icoil_result: EpisodeResult
    icoil_trace: EpisodeTrace
    il_result: EpisodeResult
    il_trace: EpisodeTrace


def fig6_trajectory_experiment(
    policy: ILPolicy,
    seed: int = 3,
    difficulty: DifficultyLevel = DifficultyLevel.NORMAL,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> TrajectoryComparison:
    """Reproduce Fig. 6: a full parking run for iCOIL and for pure IL."""
    scenario = ScenarioConfig(difficulty=difficulty, spawn_mode=SpawnMode.RANDOM, seed=seed)
    icoil = _run_session(policy, "icoil", scenario, config, time_limit)
    il = _run_session(policy, "il", scenario, config, time_limit)
    return TrajectoryComparison(icoil.result, icoil.trace, il.result, il.trace)


# ---------------------------------------------------------------------------
# Fig. 7 — HSA uncertainty, mode switching and control commands over time
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ModeSwitchingTrace:
    """Per-frame HSA and command traces of one iCOIL episode."""

    result: EpisodeResult
    times: np.ndarray
    uncertainties: np.ndarray
    modes: Tuple[str, ...]
    steering: np.ndarray
    reverse: np.ndarray

    @property
    def num_switches(self) -> int:
        return sum(1 for a, b in zip(self.modes[:-1], self.modes[1:]) if a != b)

    @property
    def late_uncertainty(self) -> float:
        """Mean normalised uncertainty over the final quarter of the episode."""
        quarter = max(1, len(self.uncertainties) // 4)
        return float(np.mean(self.uncertainties[-quarter:]))

    @property
    def early_uncertainty(self) -> float:
        """Mean normalised uncertainty over the first quarter of the episode."""
        quarter = max(1, len(self.uncertainties) // 4)
        return float(np.mean(self.uncertainties[:quarter]))


def fig7_mode_switching_experiment(
    policy: ILPolicy,
    seed: int = 0,
    difficulty: DifficultyLevel = DifficultyLevel.EASY,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ModeSwitchingTrace:
    """Reproduce Fig. 7: uncertainty and commands during one iCOIL episode."""
    scenario = ScenarioConfig(difficulty=difficulty, spawn_mode=SpawnMode.RANDOM, seed=seed)
    outcome = _run_session(policy, "icoil", scenario, config, time_limit)
    result, trace = outcome.result, outcome.trace
    return ModeSwitchingTrace(
        result=result,
        times=trace.times,
        uncertainties=trace.uncertainties,
        modes=trace.modes,
        steering=trace.steering,
        reverse=trace.reverse,
    )


# ---------------------------------------------------------------------------
# Table II — parking time and success rate per difficulty level
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table2Row:
    """One row of Table II."""

    difficulty: str
    method: str
    statistics: MethodStatistics


def table2_experiment(
    policy: ILPolicy,
    num_episodes: int = 6,
    methods: Sequence[str] = ("icoil", "il"),
    difficulties: Sequence[DifficultyLevel] = (
        DifficultyLevel.EASY,
        DifficultyLevel.NORMAL,
        DifficultyLevel.HARD,
    ),
    base_seed: int = 100,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> List[Table2Row]:
    """Reproduce Table II: success rate and parking time per difficulty level."""
    executor = _executor_for(policy)
    seeds = [base_seed + index for index in range(num_episodes)]
    # One batch per method covering all difficulty levels; results come back
    # difficulty-major, so each difficulty's chunk has len(seeds) entries.
    per_method: Dict[str, List[EpisodeResult]] = {
        method: executor.run_results(
            _batch_spec(method, seeds, difficulties, config, time_limit)
        )
        for method in methods
    }
    rows: List[Table2Row] = []
    for level_index, difficulty in enumerate(difficulties):
        lo, hi = level_index * len(seeds), (level_index + 1) * len(seeds)
        for method in methods:
            rows.append(
                Table2Row(difficulty.value, method, aggregate_results(per_method[method][lo:hi]))
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 — parking time vs starting point and number of obstacles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig8Cell:
    """One bar of Fig. 8: a (scenario, spawn mode, #obstacles) combination."""

    spawn_mode: str
    num_obstacles: int
    mean_parking_time: float
    std_parking_time: float
    success_rate: float
    scenario: str = "legacy"


def fig8_sensitivity_experiment(
    policy: ILPolicy,
    num_episodes: int = 4,
    obstacle_counts: Sequence[int] = (1, 2, 3),
    spawn_modes: Sequence[SpawnMode] = (SpawnMode.CLOSE, SpawnMode.REMOTE, SpawnMode.RANDOM),
    scenarios: Sequence[str] = ("legacy",),
    base_seed: int = 200,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> List[Fig8Cell]:
    """Reproduce Fig. 8: iCOIL parking time per spawn mode and obstacle count.

    ``scenarios`` names registered scenario builders; the paper's grid is the
    default single ``"legacy"`` entry, and passing several names (or
    ``default_scenario_registry().names()``) turns the sweep into a
    layout-generalization grid.
    """
    executor = _executor_for(policy)
    cells: List[Fig8Cell] = []
    seeds = [base_seed + index for index in range(num_episodes)]
    for scenario in scenarios:
        for spawn_mode in spawn_modes:
            for count in obstacle_counts:
                results = executor.run_results(
                    _batch_spec(
                        "icoil",
                        seeds,
                        (DifficultyLevel.EASY,),
                        config,
                        time_limit,
                        spawn_mode=spawn_mode,
                        num_static_obstacles=count,
                        num_dynamic_obstacles=0,
                        scenario_name=scenario,
                    )
                )
                successes = [r for r in results if r.success]
                times = np.array([r.parking_time for r in successes], dtype=float)
                cells.append(
                    Fig8Cell(
                        spawn_mode=spawn_mode.value,
                        num_obstacles=count,
                        mean_parking_time=float(times.mean()) if times.size else float("nan"),
                        std_parking_time=float(times.std()) if times.size else float("nan"),
                        success_rate=len(successes) / max(1, len(results)),
                        scenario=scenario,
                    )
                )
    return cells


# ---------------------------------------------------------------------------
# Fig. 9 — parking time comparison between methods
# ---------------------------------------------------------------------------
def fig9_parking_time_experiment(
    policy: ILPolicy,
    num_episodes: int = 6,
    methods: Sequence[str] = ("icoil", "il"),
    difficulty: DifficultyLevel = DifficultyLevel.EASY,
    base_seed: int = 300,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> Dict[str, np.ndarray]:
    """Reproduce Fig. 9: the distribution of parking times per method.

    Returns a mapping from method name to the array of successful parking
    times.
    """
    executor = _executor_for(policy)
    seeds = [base_seed + index for index in range(num_episodes)]
    distributions: Dict[str, np.ndarray] = {}
    for method in methods:
        results = executor.run_results(
            _batch_spec(method, seeds, (difficulty,), config, time_limit)
        )
        distributions[method] = np.array(
            [result.parking_time for result in results if result.success], dtype=float
        )
    return distributions


# ---------------------------------------------------------------------------
# §V-E — execution frequency of the IL and CO modules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionFrequencyResult:
    """Measured per-step latency and frequency of the IL and CO modules."""

    il_mean_latency: float
    co_mean_latency: float

    @property
    def il_frequency(self) -> float:
        return 1.0 / self.il_mean_latency if self.il_mean_latency > 0 else float("inf")

    @property
    def co_frequency(self) -> float:
        return 1.0 / self.co_mean_latency if self.co_mean_latency > 0 else float("inf")

    @property
    def speed_ratio(self) -> float:
        """How many times faster one IL step is than one CO step."""
        return self.co_mean_latency / max(self.il_mean_latency, 1e-12)


def execution_frequency_experiment(
    policy: ILPolicy,
    num_steps: int = 40,
    seed: int = 0,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ExecutionFrequencyResult:
    """Reproduce the §V-E execution-frequency measurement.

    The paper reports 75 Hz for IL and 18 Hz for CO on its hardware; the
    reproduction asserts on the *ordering* (IL several times faster per step)
    rather than the absolute rates.  An IL step is BEV render plus IL
    forward; a CO step is detection plus CO build plus solve.
    """
    scenario_config = ScenarioConfig(
        difficulty=DifficultyLevel.NORMAL, spawn_mode=SpawnMode.RANDOM, seed=seed
    )
    _run_session(policy, "il", scenario_config, config, time_limit, max_steps=num_steps)
    _run_session(policy, "co", scenario_config, config, time_limit, max_steps=num_steps)

    # Re-run the controllers directly to time the module calls in isolation.
    from repro.world.scenario import build_scenario
    from repro.world.world import ParkingWorld

    scenario = build_scenario(scenario_config)
    context = ControllerContext(scenario, il_policy=policy, icoil=config)
    world = ParkingWorld(scenario, context.vehicle_params, dt=context.dt, time_limit=time_limit)
    il_controller = default_registry().create("il", context)
    co_controller = default_registry().create("co", context)
    il_latencies: List[float] = []
    co_latencies: List[float] = []
    for _ in range(num_steps):
        if world.status.is_terminal:
            break
        state = world.state
        obstacles = world.current_obstacles()
        start = time_module.perf_counter()
        request, finish = il_controller.step_split(state, obstacles, scenario.lot, time=world.time)
        finish(solve_request(request))
        il_latencies.append(time_module.perf_counter() - start)
        start = time_module.perf_counter()
        request, finish = co_controller.step_split(state, obstacles, scenario.lot, time=world.time)
        co_step = finish(solve_request(request))
        co_latencies.append(time_module.perf_counter() - start)
        world.step(co_step.action)
    return ExecutionFrequencyResult(
        il_mean_latency=float(np.mean(il_latencies)),
        co_mean_latency=float(np.mean(co_latencies)),
    )


# ---------------------------------------------------------------------------
# Ablation — HSA threshold and guard time
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AblationPoint:
    """Outcome of one (threshold, guard) configuration."""

    switch_threshold: float
    guard_frames: int
    success_rate: float
    mean_parking_time: float
    mean_switches: float
    co_mode_fraction: float


def hsa_ablation_experiment(
    policy: ILPolicy,
    thresholds: Sequence[float] = (0.1, 0.35, 1.0),
    guard_frames: Sequence[int] = (0, 20),
    num_episodes: int = 3,
    base_seed: int = 400,
) -> List[AblationPoint]:
    """Sweep the HSA threshold and guard time (design choices of §III / §V-C)."""
    executor = BatchExecutor(il_policy=policy)
    points: List[AblationPoint] = []
    seeds = [base_seed + index for index in range(num_episodes)]
    for threshold in thresholds:
        for guard in guard_frames:
            config = ICOILConfig(switch_threshold=threshold, guard_frames=guard)
            results = executor.run_results(
                BatchSpec(
                    method="icoil",
                    seeds=tuple(seeds),
                    difficulties=(DifficultyLevel.NORMAL,),
                    icoil=config,
                    time_limit=DEFAULT_TIME_LIMIT,
                )
            )
            successes = [r for r in results if r.success]
            times = np.array([r.parking_time for r in successes], dtype=float)
            points.append(
                AblationPoint(
                    switch_threshold=threshold,
                    guard_frames=guard,
                    success_rate=len(successes) / max(1, len(results)),
                    mean_parking_time=float(times.mean()) if times.size else float("nan"),
                    mean_switches=float(np.mean([r.num_mode_switches for r in results])),
                    co_mode_fraction=float(np.mean([r.co_mode_fraction for r in results])),
                )
            )
    return points


# ---------------------------------------------------------------------------
# Beyond the paper — layout generalization across every registered scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioMatrixCell:
    """One (scenario, method) cell of the layout-generalization matrix."""

    scenario: str
    method: str
    success_rate: float
    mean_parking_time: float
    mean_min_distance: float
    num_episodes: int


def scenario_generalization_experiment(
    policy: ILPolicy,
    methods: Sequence[str] = ("icoil", "il"),
    scenarios: Optional[Sequence[str]] = None,
    num_episodes: int = 3,
    difficulty: DifficultyLevel = DifficultyLevel.EASY,
    spawn_mode: SpawnMode = SpawnMode.RANDOM,
    base_seed: int = 500,
    config: Optional[ICOILConfig] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> List[ScenarioMatrixCell]:
    """Evaluate each method on every registered lot layout.

    The SEG-Parking-style generalization sweep the paper's fixed lot could
    not express: one batch per (scenario, method) pair through the
    :class:`~repro.api.executor.BatchExecutor`, enumerating layouts through
    the scenario registry.  ``scenarios=None`` means every registered
    preset, so newly registered layouts join the sweep automatically.
    """
    executor = _executor_for(policy)
    names: Tuple[str, ...] = (
        tuple(scenarios) if scenarios is not None else default_scenario_registry().names()
    )
    seeds = [base_seed + index for index in range(num_episodes)]
    cells: List[ScenarioMatrixCell] = []
    for scenario in names:
        for method in methods:
            results = executor.run_results(
                _batch_spec(
                    method,
                    seeds,
                    (difficulty,),
                    config,
                    time_limit,
                    spawn_mode=spawn_mode,
                    scenario_name=scenario,
                )
            )
            successes = [r for r in results if r.success]
            times = np.array([r.parking_time for r in successes], dtype=float)
            finite = [
                r.min_obstacle_distance for r in results if np.isfinite(r.min_obstacle_distance)
            ]
            cells.append(
                ScenarioMatrixCell(
                    scenario=scenario,
                    method=method,
                    success_rate=len(successes) / max(1, len(results)),
                    mean_parking_time=float(times.mean()) if times.size else float("nan"),
                    mean_min_distance=float(np.mean(finite)) if finite else float("inf"),
                    num_episodes=len(results),
                )
            )
    return cells
