"""§V-E — execution frequency of the IL and CO modules.

The paper reports 75 Hz for IL and 18 Hz for CO on an i9 + RTX 3080.  The
absolute rates depend entirely on the hardware and the solver, so the
reproduction asserts the ordering: one IL inference is several times cheaper
than one CO solve, which is the fact motivating HSA-driven mode switching.
"""

import pytest

from repro.eval.experiments import execution_frequency_experiment


@pytest.mark.benchmark(group="frequency")
def test_execution_frequency(benchmark, trained_policy, experiment_settings):
    result = benchmark.pedantic(
        execution_frequency_experiment,
        kwargs=dict(policy=trained_policy, num_steps=25, **experiment_settings),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"IL : {result.il_mean_latency * 1000.0:7.2f} ms/step  ({result.il_frequency:7.1f} Hz)")
    print(f"CO : {result.co_mean_latency * 1000.0:7.2f} ms/step  ({result.co_frequency:7.1f} Hz)")
    print(f"IL is {result.speed_ratio:.1f}x faster per step (paper: ~4.2x, 75 Hz vs 18 Hz)")

    assert result.il_mean_latency > 0.0
    assert result.co_mean_latency > 0.0
    # The headline claim: IL is several times faster per step than CO.
    assert result.speed_ratio > 2.0
