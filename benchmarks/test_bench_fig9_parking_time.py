"""Fig. 9 — parking-time comparison between iCOIL and IL.

The paper's easy-level numbers put both methods in the same low-tens-of-
seconds band, with IL slightly faster when it succeeds (it never waits for
the optimiser).  The reproduction prints both distributions and checks they
are in a comparable band whenever both methods succeed.
"""

import numpy as np
import pytest

from repro.eval.experiments import fig9_parking_time_experiment
from repro.eval.report import format_parking_time_distributions
from repro.world.scenario import DifficultyLevel


@pytest.mark.benchmark(group="fig9")
def test_fig9_parking_time(benchmark, trained_policy, experiment_settings):
    distributions = benchmark.pedantic(
        fig9_parking_time_experiment,
        kwargs=dict(
            policy=trained_policy,
            num_episodes=2,
            difficulty=DifficultyLevel.EASY,
            **experiment_settings,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_parking_time_distributions(distributions))

    icoil_times = distributions["icoil"]
    assert icoil_times.size > 0, "iCOIL must succeed at least once on the easy level"
    # Parking times are in a plausible band for a ~30 m approach at parking speeds.
    assert np.all(icoil_times > 5.0)
    assert np.all(icoil_times < 70.0)
    il_times = distributions["il"]
    if il_times.size:
        # When IL succeeds it is not dramatically slower than iCOIL.
        assert il_times.mean() < icoil_times.mean() * 1.5
