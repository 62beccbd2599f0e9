"""repro.api — the public session layer for running parking episodes.

This package is the one supported way to run episodes and batches:

* :mod:`repro.api.specs` — declarative, serializable
  :class:`EpisodeSpec` / :class:`BatchSpec` descriptions,
* :mod:`repro.api.registry` — the pluggable :class:`ControllerRegistry`
  with the :func:`register_method` decorator (built-ins: ``icoil``, ``il``,
  ``co``, ``expert``) and the one controller protocol, ``step_split``,
* :mod:`repro.api.session` — the :class:`ParkingSession` engine streaming
  per-step :class:`StepEvent` messages over the middleware bus, and
  :func:`solve_request` for stepping a controller outside a session,
* :mod:`repro.api.executor` — the :class:`BatchExecutor` fanning batches
  over a worker pool with deterministic result ordering,
* :mod:`repro.api.results` / :mod:`repro.api.trace` — episode outcomes,
  aggregates and per-frame traces.

Quickstart::

    from repro.api import BatchExecutor, BatchSpec, EpisodeSpec, ParkingSession
    from repro.eval import train_default_policy
    from repro.world import DifficultyLevel, ScenarioConfig

    policy, _, _ = train_default_policy(num_episodes=4, epochs=6)
    spec = EpisodeSpec(method="icoil", scenario=ScenarioConfig(seed=0))
    outcome = ParkingSession(spec, il_policy=policy).run()
    print(outcome.result.status, outcome.result.parking_time)

    batch = BatchSpec(method="icoil", seeds=tuple(range(10)),
                      difficulties=(DifficultyLevel.EASY, DifficultyLevel.NORMAL))
    results = BatchExecutor(il_policy=policy).run_results(batch)
"""

from repro.api.events import EPISODE_TOPIC, STEP_TOPIC, EpisodeCompletedEvent, StepEvent
from repro.api.executor import BACKENDS, BatchExecutor, BatchOutcome, BatchSummary
from repro.api.registry import (
    ControlStep,
    ControllerContext,
    ControllerFactory,
    ControllerRegistry,
    SessionController,
    default_registry,
    register_method,
)
from repro.api.results import EpisodeResult, MethodStatistics, aggregate_results
from repro.api.session import ParkingSession, SessionOutcome, run_episode_spec, solve_request
from repro.api.specs import BatchSpec, EpisodeSpec, PerceptionOverrides, TimeLayerSpec
from repro.api.trace import EpisodeTrace, batch_trace_digest, episode_trace_hash

# Importing the built-in methods installs them on the default registry.
from repro.api import methods as _builtin_methods  # noqa: F401  (side-effect import)

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "BatchOutcome",
    "BatchSpec",
    "BatchSummary",
    "ControlStep",
    "ControllerContext",
    "ControllerFactory",
    "ControllerRegistry",
    "EPISODE_TOPIC",
    "EpisodeCompletedEvent",
    "EpisodeResult",
    "EpisodeSpec",
    "EpisodeTrace",
    "MethodStatistics",
    "ParkingSession",
    "PerceptionOverrides",
    "STEP_TOPIC",
    "SessionController",
    "SessionOutcome",
    "StepEvent",
    "TimeLayerSpec",
    "aggregate_results",
    "batch_trace_digest",
    "default_registry",
    "episode_trace_hash",
    "register_method",
    "run_episode_spec",
    "solve_request",
]
