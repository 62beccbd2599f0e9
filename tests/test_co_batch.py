"""Batched solver: ``solve_many`` must agree with per-problem
:class:`~repro.co.solver.GaussNewtonSolver` solves."""

import numpy as np
import pytest

from repro.co import BatchedGaussNewtonSolver, GaussNewtonSolver, MPCProblem, ProblemBatch
from repro.co.constraints import FieldConstraintStack, ObstaclePrediction
from repro.spatial import DistanceField, OccupancyGrid
from repro.vehicle.kinematics import AckermannModel
from repro.vehicle.params import VehicleParams
from repro.vehicle.state import VehicleState

HORIZON = 8
PARAMS = VehicleParams()
MODEL = AckermannModel(PARAMS, dt=0.25)


def _problem(seed, num_obstacles=1, field_constraint=None):
    rng = np.random.default_rng(seed)
    state = VehicleState(
        x=rng.uniform(-1, 1),
        y=rng.uniform(-1, 1),
        heading=rng.uniform(-0.5, 0.5),
        velocity=rng.uniform(-0.3, 0.8),
    )
    references = np.cumsum(rng.uniform(0.05, 0.3, size=(HORIZON, 2)), axis=0)
    headings = rng.uniform(-0.3, 0.3, size=HORIZON)
    predictions = []
    for _ in range(num_obstacles):
        circles = np.tile(rng.uniform(1.5, 3.5, size=(1, 2, 2)), (HORIZON, 1, 1))
        predictions.append(
            ObstaclePrediction(circle_positions=circles, circle_radius=0.4, safety_margin=0.1)
        )
    return MPCProblem(
        model=MODEL,
        initial_state=state,
        reference_positions=references,
        reference_headings=headings,
        obstacle_predictions=predictions,
        field_constraint=field_constraint,
    )


def _field_stack():
    occupied = np.zeros((40, 40), dtype=bool)
    occupied[18:22, 18:22] = True
    grid = OccupancyGrid(origin_x=-5.0, origin_y=-5.0, resolution=0.25, occupied=occupied)
    return FieldConstraintStack(static_field=DistanceField(grid), static_clearance=1.0)


def _assert_matches_scalar(problems, warm_starts=None):
    scalar = [
        GaussNewtonSolver().solve(p, initial_controls=None if warm_starts is None else warm_starts[i])
        for i, p in enumerate(problems)
    ]
    batched = BatchedGaussNewtonSolver().solve_many(problems, initial_controls=warm_starts)
    assert len(batched) == len(problems)
    for one, many in zip(scalar, batched):
        np.testing.assert_allclose(many.controls, one.controls, atol=1e-9)
        assert many.objective == pytest.approx(one.objective, abs=1e-9)
        assert many.converged == one.converged
        assert many.feasible == one.feasible


class TestSolveManyParity:
    def test_stacked_regime_matches_scalar(self):
        _assert_matches_scalar([_problem(seed) for seed in range(12)])

    def test_stacked_regime_with_warm_starts(self):
        rng = np.random.default_rng(99)
        problems = [_problem(seed) for seed in range(6)]
        warm = [rng.uniform(-0.3, 0.3, size=(HORIZON, 2)) for _ in problems]
        warm[2] = None  # cold start mixed in
        _assert_matches_scalar(problems, warm_starts=warm)

    def test_obstacle_free_batch_matches_scalar(self):
        _assert_matches_scalar([_problem(seed, num_obstacles=0) for seed in range(4)])

    def test_ragged_circle_counts_fall_back_to_mixed(self):
        problems = [_problem(seed, num_obstacles=seed % 3) for seed in range(6)]
        batch = ProblemBatch(problems)
        assert not batch.stacked_collision
        _assert_matches_scalar(problems)

    def test_field_constraint_problems_use_mixed_regime(self):
        stack = _field_stack()
        problems = [
            _problem(seed, num_obstacles=seed % 2, field_constraint=stack if seed % 2 else None)
            for seed in range(4)
        ]
        batch = ProblemBatch(problems)
        assert not batch.stacked_collision
        _assert_matches_scalar(problems)

    def test_single_problem_batch(self):
        _assert_matches_scalar([_problem(7)])

    def test_incompatible_horizon_rejected(self):
        short = MPCProblem(
            model=MODEL,
            initial_state=VehicleState(0.0, 0.0, 0.0, 0.0),
            reference_positions=np.zeros((HORIZON - 1, 2)),
        )
        with pytest.raises(ValueError, match="horizon"):
            ProblemBatch([_problem(0), short])

    def test_mismatched_warm_start_count_rejected(self):
        with pytest.raises(ValueError, match="warm starts"):
            BatchedGaussNewtonSolver().solve_many([_problem(0)], initial_controls=[None, None])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ProblemBatch([])
