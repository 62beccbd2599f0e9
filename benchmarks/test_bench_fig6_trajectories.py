"""Fig. 6 — parking processes and trajectories of iCOIL vs pure IL.

The paper shows iCOIL completing the maneuver collision-free on the normal
level while pure IL fails.  The reproduction runs both methods on the same
normal-level scenario and checks that iCOIL's outcome is at least as good,
and that its trajectory makes real progress towards the parking space.
"""

import numpy as np
import pytest

from repro.eval.experiments import fig6_trajectory_experiment
from repro.world.scenario import DifficultyLevel


@pytest.mark.benchmark(group="fig6")
def test_fig6_trajectories(benchmark, trained_policy, experiment_settings):
    comparison = benchmark.pedantic(
        fig6_trajectory_experiment,
        kwargs=dict(
            policy=trained_policy, seed=3, difficulty=DifficultyLevel.NORMAL, **experiment_settings
        ),
        rounds=1,
        iterations=1,
    )
    icoil, il = comparison.icoil_result, comparison.il_result
    print()
    print(f"iCOIL: {icoil.status.value:>12}  time={icoil.parking_time:6.1f}s  "
          f"co_fraction={icoil.co_mode_fraction:.2f}")
    print(f"IL   : {il.status.value:>12}  time={il.parking_time:6.1f}s")

    assert comparison.icoil_trace.positions.shape[1] == 2
    # iCOIL must do at least as well as IL (success dominates failure).
    assert int(icoil.success) >= int(il.success)
    # The iCOIL trajectory covers a substantial distance towards the goal.
    travelled = np.linalg.norm(
        np.diff(comparison.icoil_trace.positions, axis=0), axis=1
    ).sum()
    assert travelled > 5.0
    # iCOIL never collides in this scenario.
    assert icoil.status.value != "collided"
