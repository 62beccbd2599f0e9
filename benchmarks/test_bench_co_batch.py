"""Benchmark: batched Gauss-Newton vs sequential solves on 256 MPC problems.

A synthetic fleet of 256 structurally-identical parking problems (random
initial states, references and obstacle circle pairs; shared vehicle and
horizon) is solved twice: one :class:`~repro.co.solver.GaussNewtonSolver`
loop per problem, and one
:meth:`~repro.co.solver.BatchedGaussNewtonSolver.solve_many` call that
stacks all 256 into ``(B, ...)`` NumPy tensors.  The
record (``co_batch_bench`` in ``BENCH_planner.json``) carries both wall
clocks, the speedup and the worst per-problem control deviation.

Unless ``ICOIL_BENCH_SMOKE=1`` the batched path must match every
per-problem solution within tolerance and be at least 5x faster.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_io import append_record  # noqa: E402

from repro.co import BatchedGaussNewtonSolver, GaussNewtonSolver, MPCProblem
from repro.co.constraints import ObstaclePrediction
from repro.vehicle.kinematics import AckermannModel
from repro.vehicle.params import VehicleParams
from repro.vehicle.state import VehicleState

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PLANNER = REPO_ROOT / "BENCH_planner.json"
SMOKE = os.environ.get("ICOIL_BENCH_SMOKE") == "1"

HORIZON = 10
BATCH = 32 if SMOKE else 256


def _fleet_problems(count: int):
    params = VehicleParams()
    model = AckermannModel(params, dt=0.25)
    problems = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        state = VehicleState(
            x=rng.uniform(-1.0, 1.0),
            y=rng.uniform(-1.0, 1.0),
            heading=rng.uniform(-0.5, 0.5),
            velocity=rng.uniform(-0.3, 0.8),
        )
        references = np.cumsum(rng.uniform(0.05, 0.3, size=(HORIZON, 2)), axis=0)
        headings = rng.uniform(-0.3, 0.3, size=HORIZON)
        circles = np.tile(rng.uniform(2.0, 4.0, size=(1, 2, 2)), (HORIZON, 1, 1))
        circles += rng.normal(0.0, 0.05, size=(HORIZON, 2, 2))
        prediction = ObstaclePrediction(
            circle_positions=circles, circle_radius=0.4, safety_margin=0.1
        )
        problems.append(
            MPCProblem(
                model=model,
                initial_state=state,
                reference_positions=references,
                reference_headings=headings,
                obstacle_predictions=[prediction],
            )
        )
    return problems


def test_bench_co_batch_solve():
    """256-problem fleet: stacked tensors vs a per-problem Python loop."""
    problems = _fleet_problems(BATCH)
    scalar_solver = GaussNewtonSolver()
    batch_solver = BatchedGaussNewtonSolver()
    batch_solver.solve_many(problems)  # warm the batched code paths once

    begin = time.perf_counter()
    sequential = [scalar_solver.solve(problem) for problem in problems]
    sequential_ms = (time.perf_counter() - begin) * 1000.0
    begin = time.perf_counter()
    batched = batch_solver.solve_many(problems)
    batched_ms = (time.perf_counter() - begin) * 1000.0

    max_control_delta = max(
        float(np.abs(one.controls - many.controls).max())
        for one, many in zip(sequential, batched)
    )
    speedup = sequential_ms / max(batched_ms, 1e-9)
    append_record(
        BENCH_PLANNER,
        {
            "event": "co_batch_bench",
            "batch": BATCH,
            "backend": "numpy",
            "jacobian_mode": "analytic",
            "sequential_ms": round(sequential_ms, 1),
            "batched_ms": round(batched_ms, 1),
            "batch_speedup": round(speedup, 2),
            "max_control_delta": float(f"{max_control_delta:.3e}"),
        },
    )
    print(
        f"\nbatch of {BATCH}: sequential {sequential_ms:.0f}ms vs batched "
        f"{batched_ms:.0f}ms ({speedup:.2f}x, max |d controls| {max_control_delta:.1e})"
    )
    assert max_control_delta < 1e-6, (
        f"batched controls deviate by {max_control_delta:.2e} from per-problem solves"
    )
    if not SMOKE:
        assert speedup >= 5.0, (
            f"batched solve only {speedup:.2f}x over sequential on {BATCH} problems"
        )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
