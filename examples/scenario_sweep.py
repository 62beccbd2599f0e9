"""Scenario sweep: Table II / Fig. 8 evaluation plus layout generalization.

Run with::

    python examples/scenario_sweep.py [--episodes N] [--all-layouts]

Evaluates iCOIL and the pure-IL baseline across the easy / normal / hard
difficulty levels (Table II), sweeps starting points and obstacle counts for
iCOIL (Fig. 8), and then goes beyond the paper: every lot layout registered
in the :class:`~repro.world.registry.ScenarioRegistry` is evaluated for each
method (the SEG-Parking-style generalization matrix).  All experiments batch
their episodes through the :mod:`repro.api` executor, so each sweep runs on
a worker pool and emits a JSON throughput summary line on stderr.
"""

from __future__ import annotations

import argparse

from repro.core import ICOILConfig, check_hash_seed
from repro.eval import train_default_policy
from repro.eval.experiments import (
    fig8_sensitivity_experiment,
    scenario_generalization_experiment,
    table2_experiment,
)
from repro.eval.report import format_fig8_grid, format_scenario_matrix, format_table2
from repro.world import default_scenario_registry
from repro.world.scenario import SpawnMode


def main() -> None:
    check_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=3, help="episodes per configuration")
    parser.add_argument(
        "--all-layouts",
        action="store_true",
        help="also run the Fig. 8 grid on every registered layout (slow)",
    )
    args = parser.parse_args()

    policy, _, _ = train_default_policy(num_episodes=4, epochs=6)
    settings = dict(config=ICOILConfig(), time_limit=70.0)

    print("=== Table II: parking time and success rate ===")
    rows = table2_experiment(policy, num_episodes=args.episodes, **settings)
    print(format_table2(rows))

    print("=== Fig. 8: parking time vs starting point and #obstacles (iCOIL) ===")
    fig8_scenarios = (
        default_scenario_registry().names() if args.all_layouts else ("legacy",)
    )
    cells = fig8_sensitivity_experiment(
        policy,
        num_episodes=max(1, args.episodes // 2),
        obstacle_counts=(1, 2, 3),
        spawn_modes=(SpawnMode.CLOSE, SpawnMode.REMOTE, SpawnMode.RANDOM),
        scenarios=fig8_scenarios,
        **settings,
    )
    print(format_fig8_grid(cells))

    print("=== Layout generalization: every registered scenario ===")
    matrix = scenario_generalization_experiment(
        policy,
        methods=("icoil", "il", "expert"),
        num_episodes=max(1, args.episodes // 2),
        **settings,
    )
    print(format_scenario_matrix(matrix))


if __name__ == "__main__":
    main()
