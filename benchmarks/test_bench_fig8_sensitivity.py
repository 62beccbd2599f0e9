"""Fig. 8 — iCOIL parking time vs starting point and number of obstacles.

Paper observations: for the close starting point the obstacle count barely
matters; for remote/random starting points the parking time grows with the
number of obstacles, and remote starts take longer than close starts.
"""

import numpy as np
import pytest

from repro.eval.experiments import fig8_sensitivity_experiment
from repro.eval.report import format_fig8_grid
from repro.world.scenario import SpawnMode


@pytest.mark.benchmark(group="fig8")
def test_fig8_sensitivity(benchmark, trained_policy, experiment_settings):
    cells = benchmark.pedantic(
        fig8_sensitivity_experiment,
        kwargs=dict(
            policy=trained_policy,
            num_episodes=1,
            obstacle_counts=(1, 3),
            spawn_modes=(SpawnMode.CLOSE, SpawnMode.REMOTE),
            **experiment_settings,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_fig8_grid(cells))

    by_key = {(c.spawn_mode, c.num_obstacles): c for c in cells}
    close_times = [by_key[("close", n)].mean_parking_time for n in (1, 3)]
    remote_times = [by_key[("remote", n)].mean_parking_time for n in (1, 3)]
    # All configurations complete (no NaN means at least one success each).
    assert all(np.isfinite(t) for t in close_times + remote_times)
    # Remote starting points take longer than close ones.
    assert np.mean(remote_times) > np.mean(close_times)
