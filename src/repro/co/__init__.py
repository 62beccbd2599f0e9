"""Constrained-optimization module (paper §IV-B).

The CO module plans collision-free actions by solving, at every frame, the
finite-horizon optimal-control problem of Eq. 6: minimise the distance cost
to the reference waypoints (Eq. 4) subject to collision-avoidance constraints
(Eq. 5) and bounds on the driving actions, under Ackermann kinematics.

* :mod:`repro.co.constraints` — control bounds plus two collision
  formulations: ESDF-gradient field constraints (static scene + per-stage
  dynamic time slices) and covering-circle predictions for whatever the
  fields cannot see,
* :mod:`repro.co.mpc` — the MPC problem container and its residual /
  penalty formulation,
* :mod:`repro.co.solver` — damped Gauss-Newton (sequential-convexification)
  solvers with box projection, standing in for CVXPY: analytic-Jacobian by
  default (finite differences kept as a reference oracle) plus a batched
  variant that solves many problems as stacked tensors,
* :mod:`repro.co.batch` — stacked evaluation of many MPC problems,
* :mod:`repro.co.controller` — the frame-by-frame CO controller ``f_CO`` with
  warm starting and solve-time instrumentation.
"""

from repro.co.batch import ProblemBatch
from repro.co.constraints import (
    CollisionConstraintSet,
    ControlBounds,
    FieldConstraintStack,
    ObstaclePrediction,
)
from repro.co.controller import COController, COSolveInfo
from repro.co.mpc import MPCProblem
from repro.co.solver import BatchedGaussNewtonSolver, GaussNewtonSolver, SolverResult

__all__ = [
    "BatchedGaussNewtonSolver",
    "COController",
    "COSolveInfo",
    "CollisionConstraintSet",
    "ControlBounds",
    "FieldConstraintStack",
    "GaussNewtonSolver",
    "MPCProblem",
    "ObstaclePrediction",
    "ProblemBatch",
    "SolverResult",
]
