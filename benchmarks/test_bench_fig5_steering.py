"""Fig. 5 — steering traces of the trained IL policy vs the demonstrator.

The paper observes that the IL policy produces steering similar to the human
driver but stepped (less smooth) because of action discretisation.  The
reproduction checks that the IL steering trace only takes the discrete bin
values while the demonstrator's is continuous.
"""

import numpy as np
import pytest

from repro.eval.experiments import fig5_steering_experiment


@pytest.mark.benchmark(group="fig5")
def test_fig5_steering_comparison(benchmark, trained_policy, experiment_settings):
    comparison = benchmark.pedantic(
        fig5_steering_experiment,
        kwargs=dict(policy=trained_policy, seed=0, **experiment_settings),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"expert frames: {comparison.expert_times.size}, IL frames: {comparison.il_times.size}")
    print(f"expert distinct steering values: {np.unique(np.round(comparison.expert_steering, 3)).size}")
    print(f"IL distinct steering values:     {comparison.il_distinct_values}")

    assert comparison.expert_times.size > 0
    assert comparison.il_times.size > 0
    # The discretised IL policy uses at most the steering-bin count per gear
    # while the demonstrator's continuous commands take many more values.
    assert comparison.il_is_stepped
    assert np.unique(np.round(comparison.expert_steering, 3)).size > comparison.il_distinct_values
    # Steering commands stay within the normalised range.
    assert np.all(np.abs(comparison.il_steering) <= 1.0)
