"""Micro-benchmark: polygon-polygon SAT, procedural scenario builds and the frame kernels.

``polygon_polygon_collision`` is the hot path of procedural scenario
generation (every rejection-sampling candidate is tested against the goal
space, the spawn keep-outs and all previously placed obstacles) and of the
planners' swept-footprint checks.  The benchmark pins its throughput on a
mixed overlapping / separated workload, plus the end-to-end cost of building
a procedural scenario through the registry.

Two arms time the batched frame-path kernels against the per-object loops
they replaced, each on one static preset (``angled-cluttered`` at EASY) and
one patrol preset (``legacy`` at NORMAL):

* **world step** — ``ParkingWorld.step`` over a fixed action sequence,
  against a world whose minimum distance is the per-obstacle
  ``polygon_polygon_distance`` loop;
* **BEV render** — ``BEVRenderer.render`` against one point-in-polygon
  mask per polygon.

Each arm asserts bitwise parity with its reference loop in the same run.
Unless ``ICOIL_BENCH_SMOKE=1`` it also asserts a speedup of at least
``MIN_SPEEDUP`` over the loop (best of ``REPEATS`` timings each).
"""

import math
import os
import time

import numpy as np
import pytest

from repro.geometry.collision import polygon_polygon_collision, polygon_polygon_distance
from repro.geometry.shapes import ConvexPolygon, OrientedBox
from repro.perception.bev import BEVRenderer
from repro.vehicle.actions import Action
from repro.vehicle.state import VehicleState
from repro.world import DifficultyLevel, ScenarioConfig, build_scenario
from repro.world.world import ParkingWorld

SMOKE = os.environ.get("ICOIL_BENCH_SMOKE") == "1"
REPEATS = 3
MIN_SPEEDUP = 2.0
FRAME_PRESETS = [
    pytest.param("angled-cluttered", DifficultyLevel.EASY, id="static"),
    pytest.param("legacy", DifficultyLevel.NORMAL, id="patrol"),
]


def _polygon_pairs():
    pairs = []
    for index in range(60):
        angle = 0.1 * index
        a = OrientedBox(0.0, 0.0, 4.2, 1.9, angle).to_polygon()
        # Half the pairs overlap, half are separated.
        offset = 1.5 if index % 2 == 0 else 8.0
        b = OrientedBox(
            offset * math.cos(angle), offset * math.sin(angle), 4.2, 1.9, -angle
        ).to_polygon()
        pairs.append((a, b, index % 2 == 0))
    return pairs


@pytest.mark.benchmark(group="collision")
def test_bench_polygon_polygon_collision(benchmark):
    pairs = _polygon_pairs()

    def run():
        return [polygon_polygon_collision(a, b) for a, b, _ in pairs]

    results = benchmark(run)
    # Overlapping pairs collide, far pairs do not.
    assert results == [expected for _, _, expected in pairs]


@pytest.mark.benchmark(group="collision")
def test_bench_procedural_scenario_build(benchmark):
    config = ScenarioConfig(scenario_name="angled-cluttered", seed=5)

    scenario = benchmark(build_scenario, config)
    assert scenario.static_obstacles


def _best_of(run):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - begin)
    return result, best


def _frame_scenario(preset, difficulty):
    scenario = build_scenario(
        ScenarioConfig(scenario_name=preset, difficulty=difficulty, seed=4)
    )
    if difficulty is DifficultyLevel.NORMAL:
        assert scenario.dynamic_obstacles
    return scenario


class _LoopWorld(ParkingWorld):
    """The world step with its former per-obstacle distance loop."""

    def _min_distance(self, footprint, obstacles):
        polygon = ConvexPolygon(tuple(map(tuple, footprint)))
        distances = [
            polygon_polygon_distance(polygon, obstacle.box.to_polygon()) for obstacle in obstacles
        ]
        return min(distances) if distances else float("inf")


@pytest.mark.parametrize("preset,difficulty", FRAME_PRESETS)
def test_bench_world_step_kernel(preset, difficulty):
    scenario = _frame_scenario(preset, difficulty)
    rng = np.random.default_rng(9)
    actions = [
        Action(float(rng.uniform(0.0, 0.5)), 0.0, float(rng.uniform(-0.8, 0.8)))
        for _ in range(60 if SMOKE else 300)
    ]

    def drive(world_cls):
        world = world_cls(scenario, time_limit=1e6)
        results = []
        for action in actions:
            if world.status.is_terminal:
                world.reset()
            results.append(world.step(action))
        return [(r.min_obstacle_distance, r.status) for r in results]

    fast, fast_s = _best_of(lambda: drive(ParkingWorld))
    loop, loop_s = _best_of(lambda: drive(_LoopWorld))
    assert np.array_equal([d for d, _ in fast], [d for d, _ in loop])
    assert [status for _, status in fast] == [status for _, status in loop]
    speedup = loop_s / max(fast_s, 1e-9)
    print(
        f"\nworld step [{preset}, {len(scenario.obstacles)} obstacles]: "
        f"{fast_s / len(actions) * 1e6:.0f} us vs loop {loop_s / len(actions) * 1e6:.0f} us "
        f"({speedup:.2f}x)"
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, f"world step only {speedup:.2f}x over the loop"


def _loop_render(renderer, state, obstacles, lot):
    """BEV render with one point-in-polygon mask per polygon (its former loop)."""
    size, view_range = renderer.image_size, renderer.view_range
    coords = (np.arange(size) + 0.5) / size * (2.0 * view_range) - view_range
    ego_x = view_range - (np.arange(size) + 0.5) / size * (2.0 * view_range)
    grid_x, grid_y = np.meshgrid(ego_x, coords, indexing="ij")
    points = state.pose.transform_points(np.stack([grid_x.ravel(), grid_y.ravel()], axis=1))

    def mask(polygon):
        vertices = polygon.vertices()
        edges = np.roll(vertices, -1, axis=0) - vertices
        inside = np.ones(points.shape[0], dtype=bool)
        for vertex, edge in zip(vertices, edges):
            to_points = points - vertex
            inside &= edge[0] * to_points[:, 1] - edge[1] * to_points[:, 0] >= -1e-12
        return inside.astype(float)

    obstacle_channel = np.zeros(size * size)
    for obstacle in obstacles:
        obstacle_channel = np.maximum(obstacle_channel, mask(obstacle.box.to_polygon()))
    return np.stack(
        [
            obstacle_channel.reshape(size, size),
            mask(lot.goal_space.box.to_polygon()).reshape(size, size),
            mask(lot.bounds.to_polygon()).reshape(size, size),
        ]
    )


@pytest.mark.parametrize("preset,difficulty", FRAME_PRESETS)
def test_bench_bev_render_kernel(preset, difficulty):
    scenario = _frame_scenario(preset, difficulty)
    bounds = scenario.lot.bounds
    rng = np.random.default_rng(10)
    frames = []
    for index in range(40 if SMOKE else 200):
        state = VehicleState(
            x=float(rng.uniform(bounds.min_x, bounds.max_x)),
            y=float(rng.uniform(bounds.min_y, bounds.max_y)),
            heading=float(rng.uniform(-math.pi, math.pi)),
        )
        obstacles = [obstacle.at_time(0.1 * index) for obstacle in scenario.obstacles]
        frames.append((state, obstacles))
    renderer = BEVRenderer()

    fast, fast_s = _best_of(
        lambda: [renderer.render(s, o, scenario.lot).data for s, o in frames]
    )
    loop, loop_s = _best_of(
        lambda: [_loop_render(renderer, s, o, scenario.lot) for s, o in frames]
    )
    assert all(np.array_equal(a, b) for a, b in zip(fast, loop))
    assert sum(image[0].sum() for image in fast) > 0.0  # obstacles were drawn
    speedup = loop_s / max(fast_s, 1e-9)
    print(
        f"\nBEV render [{preset}, {len(scenario.obstacles)} obstacles]: "
        f"{fast_s / len(frames) * 1e6:.0f} us vs loop {loop_s / len(frames) * 1e6:.0f} us "
        f"({speedup:.2f}x)"
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, f"BEV render only {speedup:.2f}x over the loop"
