"""Self-tests of the benchmark at a tiny size.

Run from the repository root (they take under a minute)::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: the repository's own test
command does not collect it, so the benchmark's checks stay out of the
program's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from checks import check_episodes  # noqa: E402
from tracing import SpanRecorder, per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS, EpisodeRecord, corpus, run_solo  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    assert json.loads(completed.stdout.splitlines()[-2])["diagnostics"]["batch_trace_digest"]


def test_declared_workloads_and_per_layer_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == per_layer_metric_units()


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "static-mix", 0)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_self_time_subtracts_nested_child_spans():
    # outer [0, 10] holds middle [1, 7] and a leaf [8, 8.5];
    # middle holds two leaves [2, 4] and [5, 6].
    clock = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.5, 10.0]).__next__
    recorder = SpanRecorder(clock=clock)
    leaf = recorder.wrap("leaf", lambda: None)
    middle = recorder.wrap("middle", lambda: (leaf(), leaf()))
    outer = recorder.wrap("outer", lambda: (middle(), leaf()))
    outer()
    assert recorder.parents == [-1, 0, 1, 1, 0]
    assert recorder.self_times() == {
        "outer": (1, pytest.approx(3.5)),
        "middle": (1, pytest.approx(3.0)),
        "leaf": (3, pytest.approx(3.5)),
    }


def test_same_layer_reentry_is_folded_into_the_open_span():
    recorder = SpanRecorder(clock=iter([0.0, 2.0]).__next__)
    inner = recorder.wrap("bus", lambda: None)
    outer = recorder.wrap("bus", lambda: inner())
    outer()
    assert recorder.self_times() == {"bus": (1, 2.0)}


@pytest.fixture(scope="module")
def expert_record() -> EpisodeRecord:
    from repro.il.policy import ILPolicy

    policy = ILPolicy()
    policy.load(ROOT / "artifacts" / "il_policy.npz")
    return run_solo(corpus("static-mix", 1)[0], policy)


def test_output_check_passes_on_an_untouched_episode(expert_record):
    assert check_episodes([expert_record], replay=expert_record) == {}


def test_output_check_fails_on_a_tampered_trace_hash(expert_record):
    outcome = expert_record.outcome
    tampered_result = dataclasses.replace(outcome.result, trace_hash="0" * 64)
    tampered = dataclasses.replace(
        expert_record, outcome=dataclasses.replace(outcome, result=tampered_result)
    )
    assert "trace_hash" in check_episodes([tampered])[0]
    assert "replay" in check_episodes([expert_record], replay=tampered)[0]
