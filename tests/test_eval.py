"""Tests for the evaluation harness: metrics, runner and report formatting."""

import numpy as np
import pytest

from repro.api import EpisodeSpec
from repro.api.session import run_episode_spec
from repro.eval import EpisodeResult, aggregate_results, format_table2
from repro.eval.experiments import Table2Row
from repro.eval.metrics import MethodStatistics
from repro.eval.report import format_fig8_grid, format_parking_time_distributions
from repro.eval.experiments import Fig8Cell
from repro.world.scenario import DifficultyLevel, ScenarioConfig, SpawnMode
from repro.world.world import EpisodeStatus


def make_result(method="icoil", status=EpisodeStatus.PARKED, time=25.0, difficulty="easy", seed=0):
    return EpisodeResult(
        method=method,
        difficulty=difficulty,
        seed=seed,
        status=status,
        parking_time=time,
        num_steps=int(time * 10),
    )


class TestMetrics:
    def test_aggregate_success_rate(self):
        results = [
            make_result(time=20.0),
            make_result(time=30.0),
            make_result(status=EpisodeStatus.COLLIDED, time=10.0),
        ]
        stats = aggregate_results(results)
        assert stats.num_episodes == 3
        assert stats.num_successes == 2
        assert stats.success_rate == pytest.approx(2.0 / 3.0)
        assert stats.average_time == pytest.approx(25.0)
        assert stats.max_time == 30.0
        assert stats.min_time == 20.0

    def test_aggregate_failures_only_gives_nan_times(self):
        stats = aggregate_results([make_result(status=EpisodeStatus.TIMED_OUT)])
        assert stats.num_successes == 0
        assert np.isnan(stats.average_time)

    def test_aggregate_rejects_mixed_methods(self):
        with pytest.raises(ValueError):
            aggregate_results([make_result(method="il"), make_result(method="icoil")])

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_results([])

    def test_success_property(self):
        assert make_result().success
        assert not make_result(status=EpisodeStatus.COLLIDED).success


class TestEpisodeExecution:
    """Episode execution through :mod:`repro.api`."""

    def test_unknown_method_rejected(self, small_policy):
        with pytest.raises(ValueError):
            run_episode_spec(EpisodeSpec(method="magic"), il_policy=small_policy)

    def test_il_method_requires_policy(self):
        with pytest.raises(ValueError):
            run_episode_spec(EpisodeSpec(method="il"), il_policy=None)

    def test_expert_episode_runs_and_traces(self):
        config = ScenarioConfig(difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.CLOSE, seed=0)
        outcome = run_episode_spec(
            EpisodeSpec(method="expert", scenario=config, time_limit=70.0)
        )
        result, trace = outcome.result, outcome.trace
        assert result.method == "expert"
        assert result.status is EpisodeStatus.PARKED
        assert trace.num_frames == result.num_steps
        assert trace.positions.shape == (result.num_steps, 2)

    def test_il_episode_short_run(self, small_policy):
        config = ScenarioConfig(difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.CLOSE, seed=0)
        outcome = run_episode_spec(
            EpisodeSpec(method="il", scenario=config, time_limit=10.0, max_steps=20),
            il_policy=small_policy,
        )
        result, trace = outcome.result, outcome.trace
        assert result.num_steps <= 20
        assert len(trace.modes) == result.num_steps
        assert set(trace.modes) == {"il"}

    def test_icoil_episode_records_modes(self, small_policy):
        config = ScenarioConfig(difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.CLOSE, seed=0)
        outcome = run_episode_spec(
            EpisodeSpec(method="icoil", scenario=config, time_limit=10.0, max_steps=8),
            il_policy=small_policy,
        )
        result, trace = outcome.result, outcome.trace
        assert set(trace.modes) <= {"il", "co"}
        assert 0.0 <= result.co_mode_fraction <= 1.0
        assert trace.uncertainties.shape == (result.num_steps,)


class TestReportFormatting:
    def test_format_table2(self):
        rows = [
            Table2Row(
                "easy",
                "icoil",
                MethodStatistics("icoil", "easy", 10, 9, 26.0, 27.2, 24.9),
            ),
            Table2Row(
                "easy",
                "il",
                MethodStatistics("il", "easy", 10, 7, 23.6, 25.2, 22.5),
            ),
        ]
        text = format_table2(rows)
        assert "Easy Task" in text
        assert "icoil" in text and "il" in text
        assert "90%" in text

    def test_format_fig8_grid(self):
        cells = [
            Fig8Cell("close", 1, 20.0, 1.0, 1.0),
            Fig8Cell("close", 3, 21.0, 1.5, 1.0),
            Fig8Cell("remote", 1, 28.0, 2.0, 1.0),
            Fig8Cell("remote", 3, 31.0, 2.5, 1.0),
        ]
        text = format_fig8_grid(cells)
        assert "close" in text and "remote" in text
        assert "1 obst." in text and "3 obst." in text

    def test_format_parking_time_distributions(self):
        text = format_parking_time_distributions(
            {"icoil": np.array([25.0, 26.0]), "il": np.array([])}
        )
        assert "icoil" in text and "il" in text
