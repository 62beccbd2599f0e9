"""Cross-backend equivalence of the BatchExecutor.

The contract: identical specs produce bitwise-identical, identically-ordered
``EpisodeResult`` sequences (and numerically identical traces) on *every*
backend — worker pools and fleet scheduling merely buy scaling.  The
invariant is asserted fleet-wide through the episode trace hashes (see
``DETERMINISM.md``): one hash list per backend, all of which must be equal.
Specs cross the process boundary via their ``to_dict``/``from_dict``
round-trip, so these tests double as an end-to-end check of that
serialization path under real multiprocessing.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.api import BACKENDS, BatchExecutor, BatchSpec, ControllerRegistry
from repro.world.scenario import DifficultyLevel, SpawnMode


def small_batch(num_seeds: int = 6, max_steps: int = 8) -> BatchSpec:
    return BatchSpec(
        method="expert",
        seeds=tuple(range(num_seeds)),
        difficulties=(DifficultyLevel.EASY,),
        spawn_mode=SpawnMode.CLOSE,
        scenario_name="perpendicular-easy",
        max_steps=max_steps,
    )


class TestProcessBackend:
    def test_results_bitwise_identical_across_backends(self):
        """One invariant over every backend: equal trace-hash lists.

        Not a pairwise spot check — the per-episode ``trace_hash`` lists of
        all executor backends are compared at once, and the full results
        (which embed the hashes) must be equal too.
        """
        spec = small_batch()
        outcomes = {
            backend: BatchExecutor(
                backend=backend, max_workers=2, summary_stream=None
            ).run(spec)
            for backend in BACKENDS
        }
        hash_lists = {
            backend: [result.trace_hash for result in outcome.results]
            for backend, outcome in outcomes.items()
        }
        assert all(hashes and all(hashes) for hashes in hash_lists.values())
        assert len({tuple(hashes) for hashes in hash_lists.values()}) == 1, hash_lists
        assert len({outcome.summary.trace_digest for outcome in outcomes.values()}) == 1

        thread, process = outcomes["thread"], outcomes["process"]
        assert thread.results == process.results
        assert [r.seed for r in process.results] == list(spec.seeds)
        for thread_trace, process_trace in zip(thread.traces, process.traces):
            assert np.array_equal(thread_trace.positions, process_trace.positions)
            assert np.array_equal(thread_trace.steering, process_trace.steering)
            assert np.array_equal(thread_trace.velocities, process_trace.velocities)

    def test_process_backend_with_single_worker_falls_back_to_serial(self):
        spec = small_batch(num_seeds=2)
        serial = BatchExecutor(backend="process", max_workers=1, summary_stream=None).run(spec)
        thread = BatchExecutor(backend="thread", max_workers=1, summary_stream=None).run(spec)
        assert serial.results == thread.results

    def test_summary_reports_backend(self):
        stream = io.StringIO()
        BatchExecutor(backend="process", max_workers=2, summary_stream=stream).run(
            small_batch(num_seeds=2)
        )
        payload = json.loads(stream.getvalue().strip())
        assert payload["backend"] == "process"

    def test_bench_path_appends_summary_lines(self, tmp_path):
        bench = tmp_path / "BENCH_throughput.json"
        executor = BatchExecutor(
            backend="thread", max_workers=2, summary_stream=None, bench_path=bench
        )
        executor.run(small_batch(num_seeds=2))
        executor.run(small_batch(num_seeds=2))
        lines = bench.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert payload["event"] == "batch_summary"
            assert payload["episodes"] == 2

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            BatchExecutor(backend="fork-bomb")

    def test_custom_registry_rejected_on_process_backend(self):
        registry = ControllerRegistry()
        with pytest.raises(ValueError, match="default registry"):
            BatchExecutor(backend="process", registry=registry)

    def test_runtime_registered_method_fails_fast_on_process_backend(self):
        """Methods workers cannot resolve are rejected before any work runs."""
        from repro.api import ControlStep, EpisodeSpec, register_method
        from repro.vehicle.actions import Action

        def build_probe(context):
            class Controller:
                def step_split(self, state, obstacles, lot, time=0.0):
                    control = ControlStep(action=Action.full_brake(), mode="probe")
                    return None, lambda result: control

            return Controller()

        register_method("process-only-probe", overwrite=True)(build_probe)
        register_method("process-only-probe-2", overwrite=True)(build_probe)

        executor = BatchExecutor(backend="process", max_workers=2, summary_stream=None)
        # Every unresolvable method is named in one error, not just the first.
        with pytest.raises(ValueError, match="registered in this process only") as excinfo:
            executor.run_specs(
                [
                    EpisodeSpec(method="process-only-probe", max_steps=2),
                    EpisodeSpec(method="process-only-probe-2", max_steps=2),
                    EpisodeSpec(method="process-only-probe", max_steps=2),
                ]
            )
        message = str(excinfo.value)
        assert "'process-only-probe'" in message
        assert "'process-only-probe-2'" in message
        # The thread backend still runs it.
        outcome = BatchExecutor(backend="thread", summary_stream=None).run_specs(
            [EpisodeSpec(method="process-only-probe", max_steps=2)]
        )
        assert outcome.results[0].num_steps == 2
