"""Sequential-convexification solver for the MPC problem.

The paper converts the nonconvex problem (Eq. 6) into a sequence of convex
problems solved with an off-the-shelf package (CVXPY).  This module plays the
same role without external dependencies: at each outer iteration the residual
vector is linearised around the current control sequence and the resulting
convex least-squares subproblem is solved in closed form with
Levenberg-Marquardt damping, followed by projection onto the control box
bounds.  A backtracking line search guarantees monotone descent of the
penalised objective.

Two linearisations are available.  The default chains the closed-form rollout
sensitivities of the kinematic bicycle through every residual block
(``jacobian="analytic"`` — one rollout per iteration); the original
forward-difference Jacobian is retained as a reference oracle
(``jacobian="fd"`` — ``2H + 1`` rollouts per iteration) and reproduces the
pre-analytic solver trajectories bit for bit.

:class:`BatchedGaussNewtonSolver` lifts the same iteration onto ``(B, ...)``
tensors via :class:`~repro.co.batch.ProblemBatch`: one batched rollout,
Gauss-Newton assembly and ``linalg.solve`` replace ``B`` scalar solves, with
per-problem damping, line-search masks and convergence bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.co.batch import ProblemBatch
from repro.co.mpc import MPCProblem

_JACOBIAN_MODES = ("analytic", "fd")


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one MPC solve."""

    controls: np.ndarray
    objective: float
    iterations: int
    converged: bool
    solve_time: float
    feasible: bool

    @property
    def first_control(self) -> np.ndarray:
        """The control applied to the plant (receding-horizon principle)."""
        return self.controls[0]


class GaussNewtonSolver:
    """Damped Gauss-Newton with box projection and backtracking line search.

    Parameters
    ----------
    max_iterations:
        Maximum number of outer (convexification) iterations.
    tolerance:
        Convergence threshold on the relative objective improvement.
    damping:
        Initial Levenberg-Marquardt damping value.
    finite_difference_step:
        Step used for the forward-difference Jacobian (``jacobian="fd"``).
    jacobian:
        ``"analytic"`` (default) linearises with the closed-form rollout
        sensitivities; ``"fd"`` uses the forward-difference oracle.
    """

    def __init__(
        self,
        max_iterations: int = 12,
        tolerance: float = 1e-4,
        damping: float = 1e-2,
        finite_difference_step: float = 1e-4,
        max_line_search_steps: int = 6,
        jacobian: str = "analytic",
    ) -> None:
        if max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {max_iterations}")
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if jacobian not in _JACOBIAN_MODES:
            raise ValueError(
                f"jacobian must be one of {_JACOBIAN_MODES}, got {jacobian!r}"
            )
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping
        self.finite_difference_step = finite_difference_step
        self.max_line_search_steps = max_line_search_steps
        self.jacobian = jacobian

    def solve(self, problem: MPCProblem, initial_controls: Optional[np.ndarray] = None) -> SolverResult:
        """Solve one MPC instance, optionally warm-started."""
        start_time = time.perf_counter()
        horizon = problem.horizon
        bounds = problem.bounds
        if initial_controls is None:
            controls = np.zeros((horizon, 2))
        else:
            controls = np.asarray(initial_controls, dtype=float).reshape(horizon, 2).copy()
        controls = bounds.clip(controls)

        # The accepted candidate's residual vector is carried into the next
        # iteration, so each iteration costs one Jacobian plus the line
        # search — never a redundant re-evaluation at the same controls.
        residuals = problem.residuals(controls)
        objective = float(residuals @ residuals)
        converged = False
        iteration = 0
        damping = self.damping
        identity = np.eye(problem.num_variables)
        regularised = np.empty_like(identity)

        for iteration in range(1, self.max_iterations + 1):
            if self.jacobian == "analytic":
                # Returns residuals bitwise-equal to the carried vector, so
                # the carried objective stays valid.
                residuals, jacobian = problem.residuals_and_jacobian(controls)
            else:
                jacobian = self._jacobian(problem, controls, residuals)
            gradient = jacobian.T @ residuals
            hessian = jacobian.T @ jacobian

            improved = False
            for _ in range(self.max_line_search_steps):
                # In-place (damping * I) + H, reusing the hoisted buffers;
                # bitwise-equal to `hessian + damping * np.eye(n)`.
                np.multiply(identity, damping, out=regularised)
                regularised += hessian
                try:
                    step = np.linalg.solve(regularised, -gradient)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    continue
                candidate = bounds.clip(controls + step.reshape(horizon, 2))
                candidate_residuals = problem.residuals(candidate)
                candidate_objective = float(candidate_residuals @ candidate_residuals)
                if candidate_objective < objective - 1e-12:
                    relative_improvement = (objective - candidate_objective) / max(objective, 1e-9)
                    controls = candidate
                    residuals = candidate_residuals
                    objective = candidate_objective
                    damping = max(damping * 0.5, 1e-6)
                    improved = True
                    if relative_improvement < self.tolerance:
                        converged = True
                    break
                damping *= 10.0
            if not improved:
                converged = True
            if converged:
                break

        solve_time = time.perf_counter() - start_time
        return SolverResult(
            controls=controls,
            objective=objective,
            iterations=iteration,
            converged=converged,
            solve_time=solve_time,
            feasible=problem.is_feasible(controls, tolerance=1e-3),
        )

    def _jacobian(self, problem: MPCProblem, controls: np.ndarray, residuals: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobian of the residual vector w.r.t. the controls."""
        flat = controls.ravel()
        num_variables = flat.shape[0]
        jacobian = np.zeros((residuals.shape[0], num_variables))
        step = self.finite_difference_step
        for index in range(num_variables):
            perturbed = flat.copy()
            perturbed[index] += step
            perturbed_residuals = problem.residuals(perturbed.reshape(controls.shape))
            jacobian[:, index] = (perturbed_residuals - residuals) / step
        return jacobian


class BatchedGaussNewtonSolver:
    """Damped Gauss-Newton over a stack of independent MPC problems.

    Mirrors :class:`GaussNewtonSolver`'s iteration — analytic linearisation,
    Levenberg-Marquardt damping, box projection, backtracking line search —
    but evaluates all problems as ``(B, ...)`` NumPy tensors.  Damping,
    acceptance and convergence are tracked per problem: converged problems
    drop out of the active subset, and within the line search only
    still-rejected problems retry with increased damping.

    Matches per-problem :class:`GaussNewtonSolver` results to round-off (the
    batched rollout wraps headings with ``mod`` rather than scalar ``fmod``,
    so parity is tolerance-level, not bitwise).
    """

    def __init__(
        self,
        max_iterations: int = 12,
        tolerance: float = 1e-4,
        damping: float = 1e-2,
        max_line_search_steps: int = 6,
    ) -> None:
        if max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {max_iterations}")
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping
        self.max_line_search_steps = max_line_search_steps

    def solve_many(
        self,
        problems: Union[Sequence[MPCProblem], ProblemBatch],
        initial_controls: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[SolverResult]:
        """Solve ``B`` independent problems in one batched iteration loop.

        Parameters
        ----------
        problems:
            A sequence of structurally-compatible problems, or a prebuilt
            :class:`~repro.co.batch.ProblemBatch`.
        initial_controls:
            Optional per-problem warm starts (``None`` entries cold-start).
        """
        start_time = time.perf_counter()
        batch = problems if isinstance(problems, ProblemBatch) else ProblemBatch(problems)
        size = len(batch)
        horizon = batch.horizon

        controls = batch.initial_controls(initial_controls)
        all_indices = np.arange(size)
        objectives = batch.objectives(controls, all_indices)
        damping = np.full(size, self.damping)
        converged = np.zeros(size, dtype=bool)
        iterations = np.zeros(size, dtype=int)

        for iteration in range(1, self.max_iterations + 1):
            active = np.flatnonzero(~converged)
            if active.size == 0:
                break
            iterations[active] = iteration
            active_controls = controls[active]
            _, gradients, hessians = batch.grams(active_controls, active)

            # Backtracking line search over the still-rejected subset.
            remaining = np.arange(active.size)
            improved = np.zeros(active.size, dtype=bool)
            for _ in range(self.max_line_search_steps):
                if remaining.size == 0:
                    break
                subset = active[remaining]
                regularised = (
                    hessians[remaining] + damping[subset][:, None, None] * batch._identity
                )
                rhs = -gradients[remaining]
                try:
                    steps = np.linalg.solve(regularised, rhs[..., None])[..., 0]
                except np.linalg.LinAlgError:
                    # A singular system anywhere poisons the batched solve;
                    # fall back per problem, zero steps for the singular
                    # ones (a zero step is never accepted, so they retry
                    # with increased damping like the scalar path).
                    steps = np.zeros_like(rhs)
                    for row in range(remaining.size):
                        try:
                            steps[row] = np.linalg.solve(regularised[row], rhs[row])
                        except np.linalg.LinAlgError:
                            pass
                candidates = batch.clip(
                    controls[subset] + steps.reshape(-1, horizon, 2), subset
                )
                candidate_objectives = batch.objectives(candidates, subset)
                accepted = candidate_objectives < objectives[subset] - 1e-12
                accepted_positions = remaining[accepted]
                accepted_indices = active[accepted_positions]
                if accepted_indices.size:
                    relative = (
                        objectives[accepted_indices] - candidate_objectives[accepted]
                    ) / np.maximum(objectives[accepted_indices], 1e-9)
                    controls[accepted_indices] = candidates[accepted]
                    objectives[accepted_indices] = candidate_objectives[accepted]
                    damping[accepted_indices] = np.maximum(
                        damping[accepted_indices] * 0.5, 1e-6
                    )
                    improved[accepted_positions] = True
                    converged[accepted_indices[relative < self.tolerance]] = True
                rejected_indices = active[remaining[~accepted]]
                damping[rejected_indices] *= 10.0
                remaining = remaining[~accepted]
            converged[active[~improved]] = True

        # One batched rollout feeds every problem's feasibility check.
        final_states = batch.model.rollout_batch(batch.initial_states, controls)
        elapsed = time.perf_counter() - start_time
        per_problem_time = elapsed / size
        results: List[SolverResult] = []
        for index, problem in enumerate(batch.problems):
            final = controls[index].copy()
            violations = problem.constraint_violations(final_states[index])
            feasible = bool(violations.size == 0 or float(violations.max()) <= 1e-3)
            results.append(
                SolverResult(
                    controls=final,
                    objective=float(objectives[index]),
                    iterations=int(iterations[index]),
                    converged=bool(converged[index]),
                    solve_time=per_problem_time,
                    feasible=feasible,
                )
            )
        return results
