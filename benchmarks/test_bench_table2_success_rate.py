"""Table II — parking time and success rate per difficulty level (iCOIL vs IL).

Paper numbers (success rate): easy 94% vs 72%, normal 91% vs 36%,
hard 92% vs 33%.  The reproduction asserts the *shape*: iCOIL's success rate
is at least IL's at every level, with a widening gap once dynamic obstacles
and sensing noise appear.
"""

import pytest

from repro.eval.experiments import table2_experiment
from repro.eval.report import format_table2
from repro.world.scenario import DifficultyLevel

NUM_EPISODES = 2


@pytest.mark.benchmark(group="table2")
def test_table2_success_rate(benchmark, trained_policy, experiment_settings):
    rows = benchmark.pedantic(
        table2_experiment,
        kwargs=dict(
            policy=trained_policy,
            num_episodes=NUM_EPISODES,
            **experiment_settings,
            difficulties=(DifficultyLevel.EASY, DifficultyLevel.NORMAL, DifficultyLevel.HARD),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table2(rows))

    by_key = {(row.difficulty, row.method): row.statistics for row in rows}
    for difficulty in ("easy", "normal", "hard"):
        icoil = by_key[(difficulty, "icoil")]
        il = by_key[(difficulty, "il")]
        assert icoil.num_episodes == NUM_EPISODES
        # Headline claim: iCOIL succeeds at least as often as pure IL.
        assert icoil.success_rate >= il.success_rate
