"""Stacked evaluation of many independent MPC problems as ``(B, ...)`` tensors.

:class:`ProblemBatch` stacks ``B`` :class:`~repro.co.mpc.MPCProblem`
instances into NumPy tensors: one batched rollout, one batched
sensitivity chain and one batched residual/Jacobian assembly replace ``B``
Python-level solver loops.  This is the evaluation engine behind
:class:`~repro.co.solver.BatchedGaussNewtonSolver` — the solver itself only
sees per-problem objectives, gradients and Gauss-Newton matrices.

Problems must share the *structure* that determines tensor shapes — horizon,
integration step, the vehicle limits entering the rollout, residual weights,
heading-reference presence and the ego covering-circle decomposition — while
initial states, references, bounds and obstacle data vary freely per
problem.  Collision terms come in two regimes:

* **stacked** — every problem is field-free and carries the same total
  number of obstacle covering circles: the hinge residuals evaluate as one
  ``(B, H, C, E)`` tensor (the fleet-serving fast path, where many vehicles
  of one type face similarly-sized obstacle sets);
* **mixed** — anything else (field-constraint stacks, ragged circle
  counts): the shared base terms stay batched and each problem's collision
  block falls back to its own vectorized NumPy evaluation, accumulated into
  the batched Gauss-Newton matrices.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.co.mpc import MPCProblem


_PARAM_FIELDS = (
    "wheelbase",
    "max_speed",
    "max_reverse_speed",
    "max_acceleration",
    "max_deceleration",
    "max_steer",
)

_WEIGHT_FIELDS = (
    "position_weight",
    "heading_weight",
    "control_weight",
    "smoothness_weight",
    "collision_weight",
)


def structure_signature(problem: MPCProblem) -> Tuple:
    """Hashable grouping key: problems with equal signatures co-batch.

    Covers every field :meth:`ProblemBatch._validate_shared_structure`
    checks, plus the collision-regime discriminator (field presence and —
    for field-free problems — the total covering-circle count), so a cohort
    grouped by this key always lands in a *stable* regime: the stacked fast
    path for homogeneous field-free groups, the mixed path otherwise.
    Including the circle count only when field-free keeps field-carrying
    problems (whose regime is mixed regardless) in one group rather than
    fragmenting them by obstacle count.
    """
    field_free = problem.field_constraint is None
    circle_total = (
        sum(pred.num_circles for pred in problem.obstacle_predictions)
        if field_free
        else None
    )
    return (
        problem.horizon,
        problem.model.dt,
        tuple(getattr(problem.model.params, name) for name in _PARAM_FIELDS),
        tuple(getattr(problem, name) for name in _WEIGHT_FIELDS),
        problem.reference_headings is not None,
        tuple(np.asarray(problem.ego_circle_offsets, dtype=float).ravel().tolist()),
        field_free,
        circle_total,
    )


class ProblemBatch:
    """``B`` independent MPC problems stacked into ``(B, ...)`` tensors."""

    def __init__(self, problems: Sequence[MPCProblem]) -> None:
        if not problems:
            raise ValueError("ProblemBatch needs at least one problem")
        self.problems: List[MPCProblem] = list(problems)
        first = self.problems[0]
        self.horizon = first.horizon
        self.num_variables = first.num_variables
        self.model = first.model
        self._validate_shared_structure()

        self.initial_states = np.asarray(
            [
                [p.initial_state.x, p.initial_state.y, p.initial_state.heading, p.initial_state.velocity]
                for p in self.problems
            ],
            dtype=float,
        )
        self.references = np.asarray(
            np.stack([p.reference_positions for p in self.problems]), dtype=float
        )
        self.has_headings = first.reference_headings is not None
        self.reference_headings = (
            np.asarray(np.stack([p.reference_headings for p in self.problems]), dtype=float)
            if self.has_headings
            else None
        )
        # Per-problem box bounds, broadcast over the horizon axis.
        self.lower = np.asarray(
            [[-p.bounds.max_deceleration, -p.bounds.max_steer] for p in self.problems],
            dtype=float,
        )[:, None, :]
        self.upper = np.asarray(
            [[p.bounds.max_acceleration, p.bounds.max_steer] for p in self.problems],
            dtype=float,
        )[:, None, :]
        self.ego_offsets = np.asarray(first.ego_circle_offsets, dtype=float)

        self._sqrt_position = float(np.sqrt(first.position_weight))
        self._sqrt_heading = float(np.sqrt(first.heading_weight))
        self._sqrt_control = float(np.sqrt(first.control_weight))
        self._sqrt_smooth = float(np.sqrt(first.smoothness_weight))
        self._collision_weight = float(first.collision_weight)
        self._smoothness = np.asarray(first._smoothness_matrix(), dtype=float)
        self._identity = np.eye(self.num_variables)

        # Collision regime (see module docstring).
        circle_totals = {
            sum(pred.num_circles for pred in p.obstacle_predictions) for p in self.problems
        }
        field_free = all(p.field_constraint is None for p in self.problems)
        self.stacked_collision = field_free and len(circle_totals) == 1
        self._obstacle_circles = None
        self._clearances = None
        if self.stacked_collision and circle_totals != {0}:
            per_problem_circles = []
            per_problem_clearances = []
            for p in self.problems:
                circles = np.concatenate(
                    [pred.circle_positions[: self.horizon] for pred in p.obstacle_predictions],
                    axis=1,
                )
                clearances = np.concatenate(
                    [
                        np.full(
                            pred.num_circles,
                            pred.required_clearance(float(p.ego_circle_radius)),
                        )
                        for pred in p.obstacle_predictions
                    ]
                )
                per_problem_circles.append(circles)
                per_problem_clearances.append(clearances)
            self._obstacle_circles = np.asarray(np.stack(per_problem_circles), dtype=float)
            self._clearances = np.asarray(np.stack(per_problem_clearances), dtype=float)

    def __len__(self) -> int:
        return len(self.problems)

    def _validate_shared_structure(self) -> None:
        first = self.problems[0]
        for index, problem in enumerate(self.problems[1:], 1):
            if problem.horizon != first.horizon:
                raise ValueError(
                    f"problem {index} horizon {problem.horizon} != {first.horizon}"
                )
            if problem.model.dt != first.model.dt:
                raise ValueError(f"problem {index} model dt differs")
            for name in _PARAM_FIELDS:
                if getattr(problem.model.params, name) != getattr(first.model.params, name):
                    raise ValueError(f"problem {index} vehicle {name} differs")
            for name in _WEIGHT_FIELDS:
                if getattr(problem, name) != getattr(first, name):
                    raise ValueError(f"problem {index} {name} differs")
            if (problem.reference_headings is None) != (first.reference_headings is None):
                raise ValueError(f"problem {index} heading-reference presence differs")
            if not np.array_equal(problem.ego_circle_offsets, first.ego_circle_offsets):
                raise ValueError(f"problem {index} ego circle offsets differ")

    # ------------------------------------------------------------------
    # Controls plumbing
    # ------------------------------------------------------------------
    def initial_controls(self, warm_starts: Optional[Sequence[Optional[np.ndarray]]]):
        """Stack per-problem warm starts (``None`` entries cold-start at zero)."""
        stacked = np.zeros((len(self.problems), self.horizon, 2))
        if warm_starts is not None:
            if len(warm_starts) != len(self.problems):
                raise ValueError(
                    f"{len(warm_starts)} warm starts for {len(self.problems)} problems"
                )
            for index, warm in enumerate(warm_starts):
                if warm is not None:
                    stacked[index] = np.asarray(warm, dtype=float).reshape(self.horizon, 2)
        return self.clip(stacked)

    def clip(self, controls, indices=None):
        """Per-problem box projection of a ``(K, H, 2)`` control tensor."""
        lower = self.lower if indices is None else self.lower[indices]
        upper = self.upper if indices is None else self.upper[indices]
        return np.clip(controls, lower, upper)

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def _ego_centers(self, states):
        """Covering-circle centres ``(K, H, E, 2)`` for batched states."""
        future = states[:, 1:]
        headings = future[:, :, 2]
        directions = np.stack([np.cos(headings), np.sin(headings)], axis=2)
        return (
            future[:, :, None, :2]
            + self.ego_offsets[None, None, :, None] * directions[:, :, None, :]
        )

    def _base_residuals(self, states, controls, indices):
        """Stacked tracking/control/smoothness residuals ``(K, R0)``."""
        future = states[:, 1:]
        batch = states.shape[0]
        parts = [
            ((future[:, :, :2] - self.references[indices]) * self._sqrt_position).reshape(
                batch, -1
            )
        ]
        if self.has_headings:
            delta = future[:, :, 2] - self.reference_headings[indices]
            parts.append(np.arctan2(np.sin(delta), np.cos(delta)) * self._sqrt_heading)
        parts.append(controls.reshape(batch, -1) * self._sqrt_control)
        if self.horizon > 1:
            parts.append(
                (controls[:, 1:] - controls[:, :-1]).reshape(batch, -1) * self._sqrt_smooth
            )
        return np.concatenate(parts, axis=1)

    def _stacked_collision_violations(self, ego_centers, indices):
        """Hinge violations ``(K, H, C, E)`` in the stacked regime."""
        circles = self._obstacle_circles[indices]
        deltas = circles[:, :, :, None, :] - ego_centers[:, :, None, :, :]
        distances = np.sqrt(np.sum(deltas * deltas, axis=-1))
        violations = np.maximum(
            0.0, self._clearances[indices][:, None, :, None] - distances
        )
        return violations, deltas, distances

    def objectives(self, controls, indices) -> np.ndarray:
        """Sum-of-squares objectives ``(K,)`` at the given control tensors."""
        states = self.model.rollout_batch(self.initial_states[indices], controls)
        base = self._base_residuals(states, controls, indices)
        totals = np.sum(base * base, axis=1)
        if self.stacked_collision:
            if self._obstacle_circles is not None:
                ego_centers = self._ego_centers(states)
                violations, _, _ = self._stacked_collision_violations(ego_centers, indices)
                totals = totals + self._collision_weight * np.sum(
                    violations.reshape(violations.shape[0], -1) ** 2, axis=1
                )
            return totals
        ego_centers = self._ego_centers(states)
        for row, problem_index in enumerate(np.asarray(indices).ravel()):
            problem = self.problems[int(problem_index)]
            violations = problem._violations_from_centers(ego_centers[row])
            if violations.size:
                totals[row] += self._collision_weight * float(violations @ violations)
        return totals

    def grams(self, controls, indices):
        """Objectives, gradients and Gauss-Newton matrices at ``controls``.

        Returns ``(objectives (K,), gradients (K, n), hessians (K, n, n))``
        — everything the damped-Newton step needs, without materialising a
        ragged cross-problem residual stack (Gram products are invariant to
        residual row order, which is what lets the mixed regime accumulate
        per-problem collision blocks into the batched matrices).
        """
        batch = controls.shape[0]
        n = self.num_variables
        states, sensitivities = self.model.rollout_batch_with_sensitivities(
            self.initial_states[indices], controls
        )
        sens_flat = sensitivities.transpose(0, 1, 3, 2, 4).reshape(
            batch, self.horizon, 4, n
        )
        future = states[:, 1:]

        residual_parts = [self._base_residuals(states, controls, indices)]
        jacobian_parts = [self._base_jacobian(sens_flat)]
        if self.stacked_collision and self._obstacle_circles is not None:
            ego_centers = self._ego_centers(states)
            center_jac = self._center_jacobians(future, sens_flat)
            violations, deltas, distances = self._stacked_collision_violations(
                ego_centers, indices
            )
            safe = np.where(distances > 1e-12, distances, 1.0)
            directions = np.where(
                (violations > 0.0)[..., None], deltas / safe[..., None], 0.0
            )
            rows = np.einsum("bhcek,bhekn->bhcen", directions, center_jac)
            sqrt_collision = float(np.sqrt(self._collision_weight))
            residual_parts.append(
                violations.reshape(batch, -1) * sqrt_collision
            )
            jacobian_parts.append(rows.reshape(batch, -1, n) * sqrt_collision)
        residuals = np.concatenate(residual_parts, axis=1)
        jacobians = np.concatenate(jacobian_parts, axis=1)
        gradients = np.einsum("brn,br->bn", jacobians, residuals)
        hessians = np.matmul(np.swapaxes(jacobians, 1, 2), jacobians)
        objectives = np.sum(residuals * residuals, axis=1)

        if not self.stacked_collision:
            for row, problem_index in enumerate(np.asarray(indices).ravel()):
                problem = self.problems[int(problem_index)]
                if not problem.obstacle_predictions and problem.field_constraint is None:
                    continue
                violations, rows = problem.collision_rows(states[row], sens_flat[row])
                if not violations.size:
                    continue
                weighted_rows = rows * float(np.sqrt(self._collision_weight))
                weighted_violations = violations * float(np.sqrt(self._collision_weight))
                gradients[row] += weighted_rows.T @ weighted_violations
                hessians[row] += weighted_rows.T @ weighted_rows
                objectives[row] += float(weighted_violations @ weighted_violations)
        return objectives, gradients, hessians

    def _base_jacobian(self, sens_flat):
        """Stacked Jacobian of the base residual blocks ``(K, R0, n)``."""
        batch = sens_flat.shape[0]
        n = self.num_variables
        parts = [
            (sens_flat[:, :, 0:2, :] * self._sqrt_position).reshape(batch, -1, n)
        ]
        if self.has_headings:
            parts.append(sens_flat[:, :, 2, :] * self._sqrt_heading)
        parts.append(
            np.broadcast_to(self._identity * self._sqrt_control, (batch, n, n))
        )
        if self.horizon > 1:
            parts.append(
                np.broadcast_to(
                    self._smoothness * self._sqrt_smooth,
                    (batch,) + self._smoothness.shape,
                )
            )
        return np.concatenate(parts, axis=1)

    def _center_jacobians(self, future, sens_flat):
        """Batched ``d centre / d U`` of shape ``(K, H, E, 2, n)``."""
        headings = future[:, :, 2]
        turn = np.stack([-np.sin(headings), np.cos(headings)], axis=2)
        return (
            sens_flat[:, :, None, 0:2, :]
            + self.ego_offsets[None, None, :, None, None]
            * turn[:, :, None, :, None]
            * sens_flat[:, :, None, None, 2, :]
        )
