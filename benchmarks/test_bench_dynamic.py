"""Benchmark: expert success on patrol-bearing presets, time layer on vs off.

For each patrol-bearing preset (NORMAL difficulty: two aisle-crossing
patrols) the same seeds are driven by the scripted expert twice — once
purely reactive (``TimeLayerSpec(enabled=False)``, the pre-time-layer
behaviour) and once anticipative — and the success rates, collision counts
and replan counts are appended to ``BENCH_planner.json`` as one
``dynamic_bench`` line per preset plus a summary line (each record stamped
with the git SHA, see :mod:`benchmarks.bench_io`), so the dynamic
trajectory accumulates across revisions alongside the planner speedups.

The episodes are stepped through a local loop (not the executor) so each
arm can read the expert's ``replan_count`` off the shared controller
context.  Episodes that terminate before the initial plan are surfaced as
a distinct ``no_plan`` outcome instead of a silently clamped replan count.

A second pass replays one recorded CO state sequence per patrol preset and
re-solves every frame under four arms — (covering-circle hinges | the
ESDF-gradient field constraints) x (finite-difference | analytic Jacobian)
— recording mean solve time, residual-stack size and the per-constraints
``solve_speedup`` of each arm over its FD counterpart (``co_esdf_bench``
events, stamped with ``jacobian_mode`` and ``backend``), plus one
``co_jacobian_summary`` line carrying the median analytic speedup.

Unless ``ICOIL_BENCH_SMOKE=1``:

* the time-aware arm must park **every** episode with zero collisions (the
  18/18 target this revision's velocity-aware yield closed),
* the ESDF arm's residual stack must be under half the circle arm's (the
  deterministic claim; measured ~6x smaller), with mean solve time no
  worse than 2x as a loose guard against catastrophic regressions,
* the analytic arms must solve at least 3x faster than their FD
  counterparts on every preset, and one full ESDF-driven episode per
  Jacobian mode must end with the same outcome (parked/collided).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_io import append_record  # noqa: E402

from repro.api import (
    ControllerContext,
    EpisodeSpec,
    TimeLayerSpec,
    default_registry,
    solve_request,
)
from repro.co import CollisionConstraintSet, COController, GaussNewtonSolver
from repro.perception.detector import ObjectDetector
from repro.world import DifficultyLevel, ScenarioConfig, SpawnMode, build_scenario
from repro.world.world import ParkingWorld

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PLANNER = REPO_ROOT / "BENCH_planner.json"
SMOKE = os.environ.get("ICOIL_BENCH_SMOKE") == "1"

PATROL_PRESETS = ("legacy", "perpendicular-easy", "angled-easy")
SEEDS = tuple(range(6))


def _episode_spec(scenario_name: str, seed: int, enabled: bool) -> EpisodeSpec:
    return EpisodeSpec(
        method="expert",
        scenario=ScenarioConfig(
            scenario_name=scenario_name,
            difficulty=DifficultyLevel.NORMAL,
            spawn_mode=SpawnMode.REMOTE,
            seed=seed,
        ),
        time_layer=TimeLayerSpec(enabled=enabled),
        time_limit=80.0,
    )


def _run_expert_episode(scenario_name: str, seed: int, enabled: bool):
    """(status, replans, planned) of one locally-stepped expert episode.

    ``planned`` is False when the episode ended before the expert produced
    its initial plan — those episodes report the distinct ``no_plan``
    outcome instead of a ``-1``-clamped replan count.
    """
    spec = _episode_spec(scenario_name, seed, enabled)
    scenario = build_scenario(spec.scenario)
    context = ControllerContext(scenario, time_layer=spec.time_layer, dt=spec.dt)
    controller = default_registry().create("expert", context)
    world = ParkingWorld(scenario, context.vehicle_params, dt=spec.dt, time_limit=spec.time_limit)
    max_steps = int(spec.time_limit / spec.dt) + 5
    for _ in range(max_steps):
        if world.status.is_terminal:
            break
        request, finish = controller.step_split(
            world.state, world.current_obstacles(), scenario.lot, time=world.time
        )
        world.step(finish(solve_request(request)).action)
    # plan_reference increments on the initial plan too; replans are the
    # rest.  A count of zero means the initial plan never happened.
    planned = context.expert.replan_count > 0
    replans = context.expert.replan_count - 1 if planned else 0
    return world.status, replans, planned


def test_bench_dynamic_presets():
    """Success-rate / replan-count deltas of the anticipative expert."""
    totals = {False: 0, True: 0}
    aware_collisions = 0
    for preset in PATROL_PRESETS:
        row = {}
        for enabled in (False, True):
            statuses = []
            replans = []
            no_plan = 0
            for seed in SEEDS:
                status, replan_count, planned = _run_expert_episode(preset, seed, enabled)
                statuses.append(status)
                replans.append(replan_count)
                if not planned:
                    no_plan += 1
            row[enabled] = (statuses, replans, no_plan)
            totals[enabled] += sum(1 for status in statuses if status.is_success)
        reactive_statuses, reactive_replans, reactive_no_plan = row[False]
        aware_statuses, aware_replans, aware_no_plan = row[True]
        aware_collided = sum(1 for s in aware_statuses if s.value == "collided")
        aware_collisions += aware_collided
        append_record(
            BENCH_PLANNER,
            {
                "event": "dynamic_bench",
                "scenario": preset,
                "episodes": len(SEEDS),
                "reactive_parked": sum(1 for s in reactive_statuses if s.is_success),
                "aware_parked": sum(1 for s in aware_statuses if s.is_success),
                "reactive_collided": sum(
                    1 for s in reactive_statuses if s.value == "collided"
                ),
                "aware_collided": aware_collided,
                "reactive_replans": sum(reactive_replans),
                "aware_replans": sum(aware_replans),
                "reactive_no_plan": reactive_no_plan,
                "aware_no_plan": aware_no_plan,
            },
        )
    append_record(
        BENCH_PLANNER,
        {
            "event": "dynamic_bench_summary",
            "episodes": len(SEEDS) * len(PATROL_PRESETS),
            "reactive_parked": totals[False],
            "aware_parked": totals[True],
            "aware_collided": aware_collisions,
        },
    )
    total = len(SEEDS) * len(PATROL_PRESETS)
    print(
        f"\npatrol presets: reactive {totals[False]} vs time-aware {totals[True]} parked "
        f"of {total} ({aware_collisions} aware collisions)"
    )
    if not SMOKE:
        assert totals[True] >= totals[False], (
            f"time-aware expert parked {totals[True]} episodes, "
            f"reactive baseline {totals[False]} — anticipation regressed"
        )
        assert aware_collisions == 0, (
            f"time-aware expert collided in {aware_collisions} episodes"
        )
        assert totals[True] == total, (
            f"time-aware expert parked {totals[True]}/{total} episodes"
        )


CO_ARMS = (
    ("circle", "fd"),
    ("circle", "analytic"),
    ("esdf", "fd"),
    ("esdf", "analytic"),
)


def _co_controller(context, use_field: bool, jacobian: str, dt: float) -> COController:
    constraint_set = CollisionConstraintSet(
        context.vehicle_params,
        spatial_index=context.spatial_index,
        timegrid=context.timegrid,
        use_field_constraints=use_field,
    )
    controller = COController(
        context.vehicle_params,
        horizon=context.icoil.horizon,
        dt=dt,
        constraint_set=constraint_set,
        solver=GaussNewtonSolver(jacobian=jacobian),
    )
    controller.set_reference_path(context.reference_path)
    return controller


def _co_frames(
    preset: str,
    use_field: bool = False,
    jacobian: str = "analytic",
    max_time: float = 45.0,
):
    """One CO-driven episode: its context, frame sequence and final status."""
    spec = _episode_spec(preset, 0, True)
    scenario = build_scenario(spec.scenario)
    context = ControllerContext(scenario, time_layer=spec.time_layer, dt=spec.dt)
    detector = ObjectDetector()
    controller = _co_controller(context, use_field, jacobian, dt=spec.dt)
    world = ParkingWorld(scenario, context.vehicle_params, dt=spec.dt, time_limit=80.0)
    frames = []
    while not world.status.is_terminal and world.time < max_time:
        detections = detector.detect(world.state, world.current_obstacles(), time=world.time)
        frames.append((world.state, detections, world.time))
        world.step(controller.act(world.state, detections, time=world.time))
    return context, frames, world.status


def test_bench_co_esdf_solve_time():
    """Four CO arms on identical state sequences: (circle | ESDF
    constraints) x (finite-difference | analytic Jacobian).

    Each arm replays the same recorded frames; ``solve_speedup`` is the
    same-constraints FD arm's mean solve time over this arm's, so the
    analytic arms carry the headline number.  The ESDF arms additionally
    drive one full episode each (non-smoke) to check that swapping the
    linearisation does not change the episode outcome.
    """
    stride = 16 if SMOKE else 4
    summary = {}
    outcomes = {}
    for preset in PATROL_PRESETS:
        context, frames, _ = _co_frames(preset)
        row = {}
        for constraints, jacobian in CO_ARMS:
            controller = _co_controller(
                context, constraints == "esdf", jacobian, dt=0.1
            )
            solve_times = []
            residuals = []
            for state, detections, frame_time in frames[::stride]:
                controller.act(state, detections, time=frame_time)
                info = controller.last_info
                solve_times.append(info.solve_time)
                residuals.append(info.collision_residuals)
            row[(constraints, jacobian)] = (
                float(np.mean(solve_times)) * 1000.0,
                float(np.mean(residuals)),
            )
        statuses = None
        if not SMOKE:
            statuses = {
                jacobian: _co_frames(preset, use_field=True, jacobian=jacobian)[2].value
                for jacobian in ("fd", "analytic")
            }
        summary[preset] = row
        outcomes[preset] = statuses
        for (constraints, jacobian), (mean_ms, mean_residuals) in row.items():
            fd_ms = row[(constraints, "fd")][0]
            record = {
                "event": "co_esdf_bench",
                "scenario": preset,
                "constraints": constraints,
                "jacobian_mode": jacobian,
                "backend": "numpy",
                "frames": len(frames[::stride]),
                "mean_solve_ms": round(mean_ms, 3),
                "collision_residuals": round(mean_residuals, 1),
                "solve_speedup": round(fd_ms / max(mean_ms, 1e-9), 2),
            }
            if constraints == "esdf" and statuses is not None:
                record["episode_status"] = statuses[jacobian]
            append_record(BENCH_PLANNER, record)
        circle_ms = row[("circle", "analytic")][0]
        esdf_ms = row[("esdf", "analytic")][0]
        print(
            f"\n{preset}: analytic circle {circle_ms:.2f}ms vs esdf {esdf_ms:.2f}ms "
            f"(fd: {row[('circle', 'fd')][0]:.2f}/{row[('esdf', 'fd')][0]:.2f}ms)"
        )

    analytic_speedups = [
        summary[preset][(constraints, "fd")][0]
        / max(summary[preset][(constraints, "analytic")][0], 1e-9)
        for preset in PATROL_PRESETS
        for constraints in ("circle", "esdf")
    ]
    append_record(
        BENCH_PLANNER,
        {
            "event": "co_jacobian_summary",
            "presets": len(PATROL_PRESETS),
            "backend": "numpy",
            "median_solve_speedup": round(float(np.median(analytic_speedups)), 2),
            "mean_solve_ms": round(
                float(
                    np.mean(
                        [summary[p][("esdf", "analytic")][0] for p in PATROL_PRESETS]
                    )
                ),
                3,
            ),
            "outcomes_match": (
                None
                if SMOKE
                else all(s["fd"] == s["analytic"] for s in outcomes.values())
            ),
        },
    )
    if not SMOKE:
        for preset, row in summary.items():
            circle_residuals = row[("circle", "analytic")][1]
            esdf_residuals = row[("esdf", "analytic")][1]
            assert esdf_residuals < circle_residuals / 2.0, (
                f"{preset}: ESDF stack {esdf_residuals:.0f} not under half of "
                f"{circle_residuals:.0f}"
            )
            assert row[("esdf", "analytic")][0] <= row[("circle", "analytic")][0] * 2.0, (
                f"{preset}: ESDF solve {row[('esdf', 'analytic')][0]:.2f}ms worse "
                f"than 2x circle {row[('circle', 'analytic')][0]:.2f}ms"
            )
            for constraints in ("circle", "esdf"):
                speedup = row[(constraints, "fd")][0] / max(
                    row[(constraints, "analytic")][0], 1e-9
                )
                assert speedup >= 3.0, (
                    f"{preset}/{constraints}: analytic Jacobian only "
                    f"{speedup:.2f}x over finite differences"
                )
            statuses = outcomes[preset]
            assert statuses["fd"] == statuses["analytic"], (
                f"{preset}: episode outcome changed with the analytic Jacobian "
                f"({statuses['fd']} vs {statuses['analytic']})"
            )


def test_bench_co_rollout_fast_path():
    """The rollout fast path vs the pre-revision reference loop.

    The MPC's dominant cost is the rollout inside every finite-difference
    residual evaluation; this pins the speedup of the hoisted-clip
    float-loop implementation against the original per-step NumPy loop on
    identical inputs (bit-identical outputs are asserted by
    ``tests/test_co_esdf.py``).
    """
    import math
    import time as time_module

    from repro.geometry.angles import normalize_angle
    from repro.vehicle.kinematics import AckermannModel
    from repro.vehicle.params import VehicleParams
    from repro.vehicle.state import VehicleState

    params = VehicleParams()
    model = AckermannModel(params, dt=0.25)
    state = VehicleState(x=3.0, y=10.0, heading=0.3, velocity=1.2, steer=0.1)
    controls = np.random.RandomState(0).randn(10, 2)

    def reference_rollout():
        states = np.zeros((11, 4))
        states[0] = [state.x, state.y, state.heading, state.velocity]
        for h in range(10):
            x, y, heading, velocity = states[h]
            accel = float(
                np.clip(controls[h, 0], -params.max_deceleration, params.max_acceleration)
            )
            steer = float(np.clip(controls[h, 1], -params.max_steer, params.max_steer))
            velocity = float(
                np.clip(
                    velocity + accel * model.dt, -params.max_reverse_speed, params.max_speed
                )
            )
            x = x + velocity * math.cos(heading) * model.dt
            y = y + velocity * math.sin(heading) * model.dt
            heading = normalize_angle(
                heading + velocity / params.wheelbase * math.tan(steer) * model.dt
            )
            states[h + 1] = [x, y, heading, velocity]
        return states

    repeats = 100 if SMOKE else 2000
    begin = time_module.perf_counter()
    for _ in range(repeats):
        reference_rollout()
    naive_us = (time_module.perf_counter() - begin) / repeats * 1e6
    begin = time_module.perf_counter()
    for _ in range(repeats):
        model.rollout_controls_array(state, controls)
    fast_us = (time_module.perf_counter() - begin) / repeats * 1e6
    speedup = naive_us / max(fast_us, 1e-9)
    append_record(
        BENCH_PLANNER,
        {
            "event": "co_rollout_bench",
            "horizon": 10,
            "naive_us": round(naive_us, 1),
            "fast_us": round(fast_us, 1),
            "rollout_speedup": round(speedup, 2),
        },
    )
    print(f"\nrollout fast path: {naive_us:.0f}us -> {fast_us:.0f}us ({speedup:.1f}x)")
    if not SMOKE:
        assert speedup >= 2.0, f"rollout fast path regressed to {speedup:.2f}x"


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
