"""Fig. 7 — HSA uncertainty, mode switching and control commands over time.

The paper shows the scenario uncertainty fluctuating early in the episode and
dropping once the vehicle approaches the space, with the system switching
mode (and engaging reverse) for the final maneuver, smoothed by a 20-frame
guard time.  The reproduction checks the uncertainty trace is well-formed,
that mode changes respect the guard time, and that the reverse gear engages
during the episode.
"""

import numpy as np
import pytest

from repro.core.config import ICOILConfig
from repro.eval.experiments import fig7_mode_switching_experiment
from repro.world.scenario import DifficultyLevel


@pytest.mark.benchmark(group="fig7")
def test_fig7_mode_switching(benchmark, trained_policy):
    config = ICOILConfig(guard_frames=20)
    trace = benchmark.pedantic(
        fig7_mode_switching_experiment,
        kwargs=dict(
            policy=trained_policy,
            seed=0,
            difficulty=DifficultyLevel.EASY,
            config=config,
            time_limit=70.0,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"episode: {trace.result.status.value}, frames={len(trace.modes)}, "
          f"switches={trace.num_switches}")
    print(f"uncertainty: early={trace.early_uncertainty:.3f} late={trace.late_uncertainty:.3f}")
    print(f"co fraction: {trace.result.co_mode_fraction:.2f}, reverse frames={int(trace.reverse.sum())}")

    assert len(trace.modes) == trace.uncertainties.shape[0]
    assert np.all(trace.uncertainties >= 0.0) and np.all(trace.uncertainties <= 1.0)
    # The reverse gear engages for the final parking maneuver.
    assert trace.reverse.any()
    # Guard time: consecutive mode switches are at least guard_frames apart.
    switch_indices = [
        index for index in range(1, len(trace.modes)) if trace.modes[index] != trace.modes[index - 1]
    ]
    gaps = np.diff(switch_indices)
    assert np.all(gaps >= config.guard_frames) if gaps.size else True
