"""Run one benchmark workload and print its metrics as JSON.

From the repository root::

    python3 perfbench/run.py --workload static-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload patrol-mix --seed 1 --seconds 30 --trace 1

``--trace 0`` times the workload untraced and prints the end-to-end metrics.
``--trace 1`` re-runs the first unit untraced, then runs every episode with
each layer's entry points wrapped in spans, and prints the per-layer metrics
(span calls and self time, exact counters, and the tracing overhead measured
on that unit); the spans are written to
``.perfbench/spans-<workload>-seed<seed>.npz``.

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it holds
diagnostics: the machine stamp, a calibration-loop time for telling host
drift from a regression, per-metric sample counts, the run's
``batch_trace_digest``, outcomes, the seed's probe episode and the check
each failed episode broke.  The exit code is non-zero if the program cannot
be imported or a workload cannot run.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
POLICY_PATH = ROOT / "artifacts" / "il_policy.npz"
SPANS_DIR = ROOT / ".perfbench"

# name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "episodes_per_s": "1/s",
    "start_p50_ms": "ms",
    "il_frame_p50_ms": "ms",
    "co_frame_p50_ms": "ms",
    "expert_frame_p50_ms": "ms",
    "tick_p50_ms": "ms",
    "tick_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        raise ValueError("no samples for a percentile; the run is too short")
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# Machine stamp and drift diagnostic
# ---------------------------------------------------------------------------
def blas_threads() -> Optional[int]:
    """Threads of the OpenBLAS that NumPy loaded, or ``None`` if not found."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
    )
    return completed.stdout.strip() or "unknown"


def machine_stamp() -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed Python-plus-NumPy loop, a gauge of host speed."""
    matrix = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0.0
        for index in range(20000):
            total += (index * 0.5) % 7.0
        product = matrix
        for _ in range(200):
            product = np.tanh(product @ matrix)
        times.append((time.perf_counter() - began) * 1e3)
    return sorted(times)[len(times) // 2]


# ---------------------------------------------------------------------------
# Workload passes
# ---------------------------------------------------------------------------
class Pass:
    """One timed pass over a run's episode list."""

    def __init__(self, workload: str, specs, policy, recorder=None) -> None:
        from workloads import run_fleet, run_solo

        if recorder is not None:
            recorder.episode_ids = {id(spec): index for index, spec in enumerate(specs)}
        began = time.perf_counter()
        if workload == "fleet-cohort":
            fleet = run_fleet(specs, policy)
            self.records, self.ticks, self.stats = fleet.records, fleet.ticks, fleet.stats
        else:
            self.records = [run_solo(spec, policy) for spec in specs]
            # A solo closed loop advances one session per tick: a tick is a frame.
            self.ticks = [seconds for record in self.records for _, seconds in record.frames]
            self.stats = None
        self.wall_s = time.perf_counter() - began

    def ok_records(self, failures) -> List:
        return [record for index, record in enumerate(self.records) if index not in failures]


# Frames behind each per-mode median: (method, mode).  iCOIL's CO frames
# are left out of co_frame_p50_ms: they follow a hand-off from IL and cost
# about 1.7x a co frame, and as a quarter of all CO frames they put the
# pooled median on the gap between the two.
FRAME_KINDS = {"il": ("icoil", "il"), "co": ("co", "co"), "expert": ("expert", "expert")}


def frame_ms(records, kind: str) -> List[float]:
    method, mode = FRAME_KINDS[kind]
    return [
        seconds * 1e3
        for record in records
        if record.spec.method == method
        for frame_mode, seconds in record.frames
        if frame_mode == mode
    ]


def end_to_end_metrics(run: Pass, failures, setup_s: float) -> Dict[str, float]:
    ok = run.ok_records(failures)
    ticks_ms = [seconds * 1e3 for seconds in run.ticks]
    return {
        "episodes_per_s": len(ok) / run.wall_s,
        "start_p50_ms": percentile([record.start_s * 1e3 for record in ok], 50),
        "il_frame_p50_ms": percentile(frame_ms(ok, "il"), 50),
        "co_frame_p50_ms": percentile(frame_ms(ok, "co"), 50),
        "expert_frame_p50_ms": percentile(frame_ms(ok, "expert"), 50),
        "tick_p50_ms": percentile(ticks_ms, 50),
        "tick_p95_ms": percentile(ticks_ms, 95),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def episode_figures(run: Pass, failures) -> Dict[str, object]:
    """Episode counts, outcomes and the sample count behind every percentile."""
    ok = run.ok_records(failures)
    frames = [frame for record in ok for frame in record.frames]
    parked = sum(record.outcome.result.status.value == "parked" for record in ok)
    return {
        "episodes": len(run.records),
        "parked": parked,
        "parked_frac": parked / max(1, len(run.records)),
        "timed_wall_s": run.wall_s,
        "samples": {
            "frames": {kind: len(frame_ms(ok, kind)) for kind in FRAME_KINDS},
            "all_frames": len(frames),
            "ticks": len(run.ticks),
            "starts": len(ok),
        },
    }


def per_layer_metrics(recorder, traced: Pass, rerun: Pass, failures) -> Dict[str, float]:
    """Span totals and counters of the traced pass.

    ``rerun`` is an untraced pass over the first unit of ``traced`` (over
    the whole cohort on fleet-cohort); ``trace.overhead_frac`` compares the
    two on those episodes.
    """
    from tracing import SPAN_NAMES

    values: Dict[str, float] = {}
    totals = recorder.self_times()
    for name in SPAN_NAMES:
        calls, seconds = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = seconds * 1e3
    counters = recorder.counters
    values["geometry.convex_polygons"] = counters["geometry.convex_polygons"]
    values["planning.astar_expanded"] = counters["planning.astar_expanded"]
    values["planning.astar_failed"] = counters["planning.astar_failed"]
    values["planning.reservation_narrow.conflict_frac"] = counters["narrow.conflicts"] / max(
        1, counters["narrow.verdicts"]
    )
    values["co.iterations_per_solve"] = counters["co.iterations"] / max(1, counters["co.solves"])
    values["co.unconverged"] = counters["co.unconverged"]
    stats = traced.stats
    values["serve.solves_per_tick"] = stats.solves_per_tick if stats else 0.0
    values["serve.problems_per_solve"] = stats.problems_per_solve if stats else 0.0
    values["serve.ragged_ticks"] = stats.ragged_ticks if stats else 0
    events = [
        event for record in traced.ok_records(failures) for event in record.outcome.events
    ]
    values["core.co_frame_frac"] = sum(e.mode == "co" for e in events) / max(1, len(events))
    values["core.mode_switches"] = sum(e.switched for e in events)
    values["outcome.parked_frac"] = episode_figures(traced, failures)["parked_frac"]
    if traced.stats is None:
        rerun_specs = {id(record.spec) for record in rerun.records}
        spanned_s = sum(r.wall_s for r in traced.records if id(r.spec) in rerun_specs)
        plain_s = sum(record.wall_s for record in rerun.records)
    else:
        spanned_s, plain_s = traced.wall_s, rerun.wall_s
    values["trace.overhead_frac"] = (spanned_s - plain_s) / plain_s
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # Byte-compile the program up front, so the first run in a checkout does
    # not compile lazily imported modules inside timed frames.
    compileall.compile_dir(ROOT / "src" / "repro", quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    from checks import check_episodes, run_digest
    from repro.il.policy import ILPolicy
    from workloads import SOLO_METHODS, WORKLOADS, corpus, probe_spec, run_solo

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    if not POLICY_PATH.is_file():
        raise SystemExit(f"missing IL policy {POLICY_PATH}")
    fleet = args.workload == "fleet-cohort"

    # Set-up: imports, policy load and one untimed warm-up episode, the
    # corpus's first spec.  The timed phase replays it and the hashes must
    # agree; on fleet-cohort the warm-up runs solo, so this is fleet == solo.
    policy = ILPolicy()
    policy.load(POLICY_PATH)
    specs = corpus(args.workload, args.seconds)
    warmup = run_solo(specs[0], policy)
    setup_s = time.perf_counter() - PROCESS_START

    if args.trace:
        from tracing import SpanRecorder, Tracing, per_layer_metric_units

        # The overhead is measured on one unit re-run untraced (the whole
        # cohort on fleet-cohort), so a traced run stays inside its time limit.
        rerun = Pass(args.workload, specs if fleet else specs[: len(SOLO_METHODS)], policy)
        recorder = SpanRecorder()
        with Tracing(recorder):
            run = Pass(args.workload, specs, policy, recorder)
        failures = check_episodes(run.records, replay=warmup)
        rerun_failures = check_episodes(rerun.records)
        traced_index = {id(record.spec): index for index, record in enumerate(run.records)}
        for plain_index, plain in enumerate(rerun.records):
            index = traced_index[id(plain.spec)]
            reason = rerun_failures.get(plain_index)
            spanned = run.records[index].outcome
            if reason is None and spanned is not None and (
                plain.outcome.result.trace_hash != spanned.result.trace_hash
            ):
                reason = "tracing changed the episode's trace hash"
            if reason is not None:
                failures.setdefault(index, f"untraced re-run: {reason}")
        metrics = per_layer_metrics(recorder, run, rerun, failures)
        units = per_layer_metric_units()
        recorder.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        run = Pass(args.workload, specs, policy)
        failures = check_episodes(run.records, replay=warmup)
        metrics = end_to_end_metrics(run, failures, setup_s)
        units = END_TO_END_UNITS

    # The probe gives every seed a lot of its own: checked like the rest,
    # never timed, since one lot says little about speed.
    probe = run_solo(probe_spec(args.workload, args.seed, specs), policy)
    probe_failure = check_episodes([probe]).get(0)

    diagnostics: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch_trace_digest": run_digest(run.records),
        **episode_figures(run, failures),
        "probe": {
            "scenario_seed": probe.spec.scenario.seed,
            "status": probe.outcome.result.status.value if probe.outcome else None,
            "trace_hash": probe.outcome.result.trace_hash if probe.outcome else None,
        },
        "failures": {
            **{str(index): reason for index, reason in sorted(failures.items())},
            **({"probe": probe_failure} if probe_failure else {}),
        },
        "calibration_ms": calibration_ms(),
        "stamp": machine_stamp(),
    }
    for index, reason in sorted(failures.items()):
        spec = specs[index]
        print(f"episode {index} ({spec.method}, {spec.scenario.scenario_name}, "
              f"seed {spec.scenario.seed}) failed: {reason}", file=sys.stderr)
    if probe_failure:
        print(f"probe episode failed: {probe_failure}", file=sys.stderr)
    failed = len(failures) + (probe_failure is not None)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(specs) + 1,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
