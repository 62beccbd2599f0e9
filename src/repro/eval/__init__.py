"""Evaluation harness: paper experiments over the :mod:`repro.api` layer.

* :mod:`repro.eval.metrics` — re-exports the result/aggregate types from
  :mod:`repro.api.results` (success rate, average / max / min parking time),
* :mod:`repro.eval.training` — trains (and caches) the default IL policy used
  across experiments,
* :mod:`repro.eval.experiments` — one entry point per table / figure of the
  paper's evaluation section, batching episodes through the session API,
* :mod:`repro.eval.report` — plain-text rendering of the experiment outputs.

New code should run episodes through :mod:`repro.api` directly.
"""

from repro.eval.metrics import EpisodeResult, MethodStatistics, aggregate_results
from repro.api.trace import EpisodeTrace
from repro.eval.training import train_default_policy, default_policy_path
from repro.eval.experiments import (
    ExecutionFrequencyResult,
    Fig8Cell,
    ScenarioMatrixCell,
    SteeringComparison,
    Table2Row,
    execution_frequency_experiment,
    fig5_steering_experiment,
    fig6_trajectory_experiment,
    fig7_mode_switching_experiment,
    fig8_sensitivity_experiment,
    fig9_parking_time_experiment,
    hsa_ablation_experiment,
    scenario_generalization_experiment,
    table2_experiment,
)
from repro.eval.report import format_fig8_grid, format_scenario_matrix, format_table2

__all__ = [
    "EpisodeResult",
    "EpisodeTrace",
    "ExecutionFrequencyResult",
    "Fig8Cell",
    "MethodStatistics",
    "ScenarioMatrixCell",
    "SteeringComparison",
    "Table2Row",
    "aggregate_results",
    "default_policy_path",
    "execution_frequency_experiment",
    "fig5_steering_experiment",
    "fig6_trajectory_experiment",
    "fig7_mode_switching_experiment",
    "fig8_sensitivity_experiment",
    "fig9_parking_time_experiment",
    "format_fig8_grid",
    "format_scenario_matrix",
    "format_table2",
    "hsa_ablation_experiment",
    "scenario_generalization_experiment",
    "table2_experiment",
    "train_default_policy",
]
