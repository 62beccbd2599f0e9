"""Braking-envelope math and the dynamic-episode regression replays.

The envelope is the exactly-testable core of the velocity-aware yield: the
unit tests pin its closed-form kinematics, and the regression tests replay
the three episodes that used to end in collisions / out-of-bounds runs
(ROADMAP's "residual dynamic failures": patrols reaching a slow-moving ego
from the side mid-maneuver) and assert they now park.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import (
    ControllerContext,
    EpisodeSpec,
    TimeLayerSpec,
    default_registry,
    solve_request,
)
from repro.il.envelope import BrakingEnvelope
from repro.world import DifficultyLevel, ScenarioConfig, SpawnMode, build_scenario
from repro.world.world import EpisodeStatus, ParkingWorld


@pytest.fixture
def envelope() -> BrakingEnvelope:
    return BrakingEnvelope(max_deceleration=4.0)


class TestBrakingEnvelope:
    def test_deceleration_is_comfort_scaled(self, envelope):
        assert envelope.deceleration == pytest.approx(2.0)

    def test_stop_distance_closed_form(self, envelope):
        speed = 1.2
        expected = speed * envelope.reaction_time + speed * speed / (2.0 * 2.0)
        assert envelope.stop_distance(speed) == pytest.approx(expected)

    def test_stop_distance_direction_agnostic(self, envelope):
        assert envelope.stop_distance(-0.9) == pytest.approx(envelope.stop_distance(0.9))

    def test_stop_distance_monotone_in_speed(self, envelope):
        speeds = np.linspace(0.0, 4.0, 17)
        distances = [envelope.stop_distance(s) for s in speeds]
        assert all(b >= a for a, b in zip(distances, distances[1:]))

    def test_stop_time_includes_reaction(self, envelope):
        assert envelope.stop_time(2.0) == pytest.approx(envelope.reaction_time + 1.0)

    def test_zero_speed_stops_immediately(self, envelope):
        assert envelope.stop_distance(0.0) == pytest.approx(0.0)
        assert envelope.stop_time(0.0) == pytest.approx(envelope.reaction_time)

    def test_arrival_times_zero_offset(self, envelope):
        times = envelope.arrival_times(np.array([0.0, 1.0, 2.0]), 1.0, 1.0)
        assert times[0] == pytest.approx(0.0)

    def test_arrival_times_monotone(self, envelope):
        offsets = np.linspace(0.0, 12.0, 25)
        times = envelope.arrival_times(offsets, 0.2, 1.8)
        assert np.all(np.diff(times) > 0.0)

    def test_arrival_times_steady_speed_is_linear(self, envelope):
        offsets = np.array([0.0, 1.0, 3.0, 6.0])
        times = envelope.arrival_times(offsets, 1.5, 1.5)
        assert np.allclose(times, offsets / 1.5)

    def test_arrival_times_cruise_slope_matches_schedule(self, envelope):
        offsets = np.array([20.0, 21.0])
        times = envelope.arrival_times(offsets, 0.1, 2.0)
        assert times[1] - times[0] == pytest.approx(0.5)

    def test_slow_start_arrives_later_than_schedule_start(self, envelope):
        offsets = np.array([0.5, 1.0, 2.0])
        slow = envelope.arrival_times(offsets, 0.05, 1.8)
        fast = envelope.arrival_times(offsets, 1.8, 1.8)
        assert np.all(slow >= fast)

    def test_accelerating_transition_is_exact(self, envelope):
        # From v0 to the schedule at the nominal acceleration: time to cover
        # the transition distance must match the kinematic identity.
        v0, vt = 0.5, 1.7
        a = envelope.nominal_acceleration
        transition_distance = (vt * vt - v0 * v0) / (2.0 * a)
        times = envelope.arrival_times(np.array([transition_distance]), v0, vt)
        assert times[0] == pytest.approx((vt - v0) / a)

    def test_decelerating_profile_slower_than_cruise(self, envelope):
        offsets = np.array([0.4, 0.8])
        braked = envelope.arrival_times(offsets, 2.0, 0.5)
        cruise = envelope.arrival_times(offsets, 2.0, 2.0)
        assert np.all(braked >= cruise)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_deceleration": 0.0},
            {"max_deceleration": 4.0, "comfort_factor": 0.0},
            {"max_deceleration": 4.0, "comfort_factor": 1.5},
            {"max_deceleration": 4.0, "reaction_time": -0.1},
            {"max_deceleration": 4.0, "nominal_acceleration": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BrakingEnvelope(**kwargs)

    def test_rest_offset_aliases_stop_distance(self, envelope):
        assert envelope.rest_offset(1.3) == pytest.approx(envelope.stop_distance(1.3))


def _run_dynamic_episode(scenario_name: str, seed: int) -> EpisodeStatus:
    spec = EpisodeSpec(
        method="expert",
        scenario=ScenarioConfig(
            scenario_name=scenario_name,
            difficulty=DifficultyLevel.NORMAL,
            spawn_mode=SpawnMode.REMOTE,
            seed=seed,
        ),
        time_layer=TimeLayerSpec(enabled=True),
        time_limit=80.0,
    )
    scenario = build_scenario(spec.scenario)
    context = ControllerContext(scenario, time_layer=spec.time_layer, dt=spec.dt)
    controller = default_registry().create("expert", context)
    world = ParkingWorld(
        scenario, context.vehicle_params, dt=spec.dt, time_limit=spec.time_limit
    )
    max_steps = int(spec.time_limit / spec.dt) + 5
    for _ in range(max_steps):
        if world.status.is_terminal:
            break
        request, finish = controller.step_split(
            world.state, world.current_obstacles(), scenario.lot, time=world.time
        )
        world.step(finish(solve_request(request)).action)
    return world.status


# The three episodes that collided (or drove out of bounds) before the
# velocity-aware yield landed — pinned seeds, NORMAL difficulty.
_REGRESSION_EPISODES = [
    ("perpendicular-easy", 0),
    ("perpendicular-easy", 4),
    ("angled-easy", 4),
]


@pytest.mark.parametrize("scenario_name,seed", _REGRESSION_EPISODES)
def test_previously_colliding_episode_now_parks(scenario_name, seed):
    status = _run_dynamic_episode(scenario_name, seed)
    assert status is EpisodeStatus.PARKED, (
        f"{scenario_name} seed {seed} ended {status.value} — the braking-envelope "
        "yield regression returned"
    )


class TestExpertYieldPlumbing:
    def test_corridor_polygons_cover_patrol_cycle(self):
        """The swept-corridor polygons contain every sampled patrol box."""
        from repro.geometry.collision import shapes_collide

        spec = EpisodeSpec(
            method="expert",
            scenario=ScenarioConfig(
                scenario_name="perpendicular-easy",
                difficulty=DifficultyLevel.NORMAL,
                spawn_mode=SpawnMode.REMOTE,
                seed=0,
            ),
            time_layer=TimeLayerSpec(enabled=True),
        )
        scenario = build_scenario(spec.scenario)
        context = ControllerContext(scenario, time_layer=spec.time_layer, dt=spec.dt)
        expert = context.expert
        # The corridor machinery lives on the reservation table now; the
        # expert reads it through its ``time_layer`` surface.
        timegrid = expert.time_layer
        polygons = timegrid.corridor_polygons()
        assert polygons, "patrol presets must produce corridor polygons"
        for obstacle in timegrid.obstacles:
            period = obstacle.period
            span = period if math.isfinite(period) else timegrid.horizon
            for tau in np.linspace(0.0, span, 40):
                moved = obstacle.at_time(float(tau))
                assert any(
                    shapes_collide(moved.box.to_polygon(), polygon)
                    for polygon in polygons
                ), f"patrol box at t={tau:.2f} escapes every corridor polygon"

    def test_static_episodes_have_no_corridors(self, easy_scenario):
        from repro.il.expert import ExpertDriver

        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles)
        # A patrol-free lot yields no live time layer: no corridors to
        # stage against, and every pose is trivially outside patrol reach.
        assert expert.time_layer is None
        assert expert._outside_reach([easy_scenario.start_pose])
