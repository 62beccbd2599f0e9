"""Lockstep fleet stepping: bitwise parity, cross-session batching, raggedness.

The fleet scheduler's contract is strict: a ``co_solver="batched"`` spec
produces the *same* episode — result, trace, step-event stream — whether it
runs alone (batches of one) or inside any fleet cohort, because the batched
Gauss-Newton solver is bitwise invariant to batch composition.  These tests
pin that contract across the in-process stepper, the ``"fleet"`` and
``"fleet-process"`` executor backends, and the asyncio service, and pin the
ragged-cohort behaviour (sub-batching with stats, never silent fallback).
"""

from __future__ import annotations

import asyncio
import logging

import numpy as np
import pytest

from repro.api import BatchExecutor, BatchSpec, EpisodeSpec, ParkingSession
from repro.core.config import ICOILConfig
from repro.api.session import run_episode_spec
from repro.eval.training import default_policy_path
from repro.il.policy import ILPolicy
from repro.serve import FleetStats, run_specs_fleet
from repro.world.scenario import DifficultyLevel, ScenarioConfig, SpawnMode


def co_spec(seed: int, *, co_solver: str = "batched", horizon: int = 10, max_steps: int = 25) -> EpisodeSpec:
    return EpisodeSpec(
        method="co",
        scenario=ScenarioConfig(difficulty=DifficultyLevel.NORMAL, seed=seed),
        icoil=ICOILConfig(horizon=horizon),
        co_solver=co_solver,
        max_steps=max_steps,
    )


def assert_outcomes_bitwise_equal(fleet_outcomes, reference_outcomes):
    assert len(fleet_outcomes) == len(reference_outcomes)
    for fleet, reference in zip(fleet_outcomes, reference_outcomes):
        assert fleet.result == reference.result
        assert np.array_equal(fleet.trace.positions, reference.trace.positions)
        assert np.array_equal(fleet.trace.headings, reference.trace.headings)
        assert np.array_equal(fleet.trace.steering, reference.trace.steering)
        assert np.array_equal(fleet.trace.velocities, reference.trace.velocities)
        assert fleet.events == reference.events


class TestFleetParity:
    def test_batched_specs_fleet_equal_sequential(self):
        specs = [co_spec(seed) for seed in range(3)]
        reference = [run_episode_spec(spec) for spec in specs]
        outcomes, stats = run_specs_fleet(specs)
        assert_outcomes_bitwise_equal(outcomes, reference)
        # The whole point: every tick answered the cohort's CO problems
        # with one stacked solve, not one solve per session.
        assert stats.batched_calls > 0
        assert stats.solves_per_tick > 1.0
        assert stats.problems_per_solve > 1.0
        assert stats.solo_solves == 0
        assert stats.episodes == len(specs)

    def test_scalar_specs_ride_the_tick_without_co_batching(self):
        specs = [co_spec(seed, co_solver="scalar") for seed in range(2)]
        reference = [run_episode_spec(spec) for spec in specs]
        outcomes, stats = run_specs_fleet(specs)
        assert_outcomes_bitwise_equal(outcomes, reference)
        assert stats.batched_calls == 0
        assert stats.batched_problems == 0
        assert stats.solo_solves > 0

    def test_mixed_methods_step_in_the_same_tick(self):
        specs = [
            co_spec(0),
            EpisodeSpec(
                method="expert",
                scenario=ScenarioConfig(scenario_name="perpendicular-easy", seed=3),
                max_steps=25,
            ),
        ]
        reference = [run_episode_spec(spec) for spec in specs]
        outcomes, stats = run_specs_fleet(specs)
        assert_outcomes_bitwise_equal(outcomes, reference)
        # The expert session has no CO solve: it finishes through the
        # direct path while the CO session batches.
        assert stats.direct_steps > 0
        assert stats.batched_problems > 0

    def test_run_is_repeatable_after_completion(self):
        session_specs = [co_spec(0, max_steps=8)]
        first, _ = run_specs_fleet(session_specs)
        second, _ = run_specs_fleet(session_specs)
        assert first[0].result == second[0].result


class TestMixedMethodCohort:
    def test_every_method_matches_its_solo_run(self):
        """IL frames (no request) and iCOIL mode switches inside one cohort."""
        policy = ILPolicy()
        policy.load(default_policy_path())
        specs = [
            EpisodeSpec(
                method=method,
                scenario=ScenarioConfig(
                    scenario_name="perpendicular-easy",
                    difficulty=DifficultyLevel.EASY,
                    spawn_mode=SpawnMode.CLOSE,
                    seed=seed,
                ),
                co_solver="batched",
                max_steps=40,
            )
            for seed in (0, 1)
            for method in ("icoil", "il", "co", "expert")
        ]
        solo = [ParkingSession(spec, il_policy=policy).run() for spec in specs]
        outcomes, stats = run_specs_fleet(specs, il_policy=policy)
        for spec, fleet, reference in zip(specs, outcomes, solo):
            assert fleet.result.trace_hash == reference.result.trace_hash, spec.method
        for spec, outcome in zip(specs, outcomes):
            if spec.method == "icoil":
                # The guard holds CO for 20 frames, then HSA hands over to IL.
                modes = outcome.trace.modes
                assert set(modes) == {"co", "il"}
                assert modes[19] == "co" and modes[20] == "il"
        assert stats.direct_steps > 0
        assert stats.batched_problems > 0


class TestRaggedCohorts:
    def test_differing_structures_sub_batch_with_stats_and_log(self, caplog):
        # Two CO horizons -> two structure signatures -> every CO tick
        # fragments into two solve_many groups.
        specs = [co_spec(0), co_spec(1), co_spec(2, horizon=12)]
        reference = [run_episode_spec(spec) for spec in specs]
        with caplog.at_level(logging.INFO, logger="repro.serve.fleet"):
            outcomes, stats = run_specs_fleet(specs)
        assert_outcomes_bitwise_equal(outcomes, reference)
        assert stats.ragged_ticks > 0
        assert stats.signature_groups > stats.ticks
        # Raggedness is reported, never silent.
        assert any("structure groups" in record.message for record in caplog.records)

    def test_uniform_cohort_is_never_ragged(self):
        _, stats = run_specs_fleet([co_spec(seed, max_steps=10) for seed in range(2)])
        assert stats.ragged_ticks == 0
        assert stats.max_group_size == 2


class TestFleetExecutorBackends:
    def make_batch(self, **overrides) -> BatchSpec:
        base = dict(
            method="co",
            seeds=(0, 1, 2),
            difficulties=(DifficultyLevel.NORMAL,),
            spawn_mode=SpawnMode.RANDOM,
            max_steps=20,
            co_solver="batched",
        )
        base.update(overrides)
        return BatchSpec(**base)

    def test_fleet_backend_bitwise_matches_thread(self):
        spec = self.make_batch()
        thread = BatchExecutor(backend="thread", max_workers=1, summary_stream=None).run(spec)
        executor = BatchExecutor(backend="fleet", summary_stream=None)
        fleet = executor.run(spec)
        assert fleet.results == thread.results
        for fleet_trace, thread_trace in zip(fleet.traces, thread.traces):
            assert np.array_equal(fleet_trace.positions, thread_trace.positions)
            assert np.array_equal(fleet_trace.steering, thread_trace.steering)
        assert executor.last_fleet_stats["solves_per_tick"] > 1.0
        assert fleet.summary.solves_per_tick == executor.last_fleet_stats["solves_per_tick"]

    def test_fleet_process_backend_bitwise_matches_thread(self):
        spec = self.make_batch(seeds=(0, 1))
        thread = BatchExecutor(backend="thread", max_workers=1, summary_stream=None).run(spec)
        with BatchExecutor(backend="fleet-process", max_workers=1, summary_stream=None) as executor:
            fleet = executor.run(spec)
            stats = dict(executor.last_fleet_stats)
        assert fleet.results == thread.results
        for fleet_trace, thread_trace in zip(fleet.traces, thread.traces):
            assert np.array_equal(fleet_trace.positions, thread_trace.positions)
        assert stats["batched_problems"] > 0
        assert stats["episodes"] == 2

    def test_fleet_summary_line_includes_fleet_metrics(self):
        import io
        import json

        stream = io.StringIO()
        BatchExecutor(backend="fleet", summary_stream=stream).run(
            self.make_batch(seeds=(0, 1), max_steps=10)
        )
        payload = json.loads(stream.getvalue().strip())
        assert payload["backend"] == "fleet"
        assert payload["solves_per_tick"] > 1.0


class TestServeAppFleet:
    def test_submit_fleet_streams_and_matches_sequential(self):
        from repro.serve import ServeApp

        specs = [co_spec(seed, max_steps=15) for seed in range(2)]
        reference = [run_episode_spec(spec) for spec in specs]

        async def body():
            async with ServeApp(max_concurrency=2) as app:
                handles = app.submit_fleet(specs)
                outcomes = []
                for handle in handles:
                    events = [event async for event in handle.steps()]
                    outcome = await handle.outcome()
                    assert len(events) == outcome.result.num_steps
                    assert [e.step_index for e in events] == list(range(len(events)))
                    outcomes.append(outcome)
                fleet_stats = app.stats()["fleet"]
            return outcomes, fleet_stats

        outcomes, fleet_stats = asyncio.run(body())
        assert_outcomes_bitwise_equal(outcomes, reference)
        assert fleet_stats["batched_problems"] > 0


class TestCoSolverSpec:
    def test_episode_spec_rejects_unknown_solver(self):
        with pytest.raises(ValueError):
            EpisodeSpec(method="co", co_solver="magic")

    def test_batch_spec_rejects_unknown_solver(self):
        with pytest.raises(ValueError):
            BatchSpec(method="co", seeds=(0,), co_solver="magic")

    def test_round_trip_preserves_batched_solver(self):
        spec = co_spec(7)
        assert EpisodeSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["co_solver"] == "batched"

    def test_default_solver_is_absent_from_serialization(self):
        # Sparse serialization: legacy cache keys must not change when the
        # spec uses the historical scalar path.
        spec = co_spec(7, co_solver="scalar")
        assert "co_solver" not in spec.to_dict()
        assert EpisodeSpec.from_dict(spec.to_dict()).co_solver == "scalar"

    def test_batch_spec_forwards_solver_to_episodes(self):
        batch = BatchSpec(method="co", seeds=(0, 1), co_solver="batched")
        assert all(spec.co_solver == "batched" for spec in batch.episode_specs())

    def test_fleet_stats_round_trip(self):
        stats = FleetStats(ticks=4, batched_calls=4, batched_problems=12, episodes=3)
        payload = stats.to_dict()
        assert payload["solves_per_tick"] == 3.0
        assert payload["problems_per_solve"] == 3.0
