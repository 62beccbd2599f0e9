"""Unit tests for the individual MoCAM node-graph components."""

import numpy as np
import pytest

from repro.api import ControllerContext
from repro.co.controller import COController
from repro.core.config import ICOILConfig
from repro.core.hsa import HSAModel, hsa_obstacle_distances
from repro.il.expert import ExpertDriver
from repro.metaverse import (
    CommandMuxNode,
    CONode,
    HSANode,
    ILNode,
    MoCAMPlatform,
    PerceptionNode,
    SimulatorBridgeNode,
    Topics,
)
from repro.middleware import (
    ControlCommandMessage,
    DetectionArrayMessage,
    EgoStateMessage,
    HSAStatusMessage,
    ILProbabilitiesMessage,
    MessageBus,
)
from repro.vehicle.actions import Action
from repro.world.scenario import DifficultyLevel, ScenarioConfig, SpawnMode, build_scenario
from repro.world.world import ParkingWorld


@pytest.fixture
def world(easy_scenario, vehicle_params):
    return ParkingWorld(easy_scenario, vehicle_params, time_limit=30.0)


@pytest.fixture
def bus():
    return MessageBus()


class TestPerceptionNode:
    def test_publishes_image_and_detections(self, bus, world):
        node = PerceptionNode(bus, world)
        node.step(0.0)
        assert bus.latest(Topics.BEV_IMAGE) is not None
        assert isinstance(bus.latest(Topics.DETECTIONS), DetectionArrayMessage)


class TestILNode:
    def test_waits_for_image(self, bus, small_policy):
        node = ILNode(bus, small_policy)
        node.step(0.0)
        assert bus.latest(Topics.IL_COMMAND) is None

    def test_publishes_command_and_probabilities(self, bus, world, small_policy):
        PerceptionNode(bus, world).step(0.0)
        ILNode(bus, small_policy).step(0.0)
        command = bus.latest(Topics.IL_COMMAND)
        probabilities = bus.latest(Topics.IL_PROBABILITIES)
        assert isinstance(command, ControlCommandMessage)
        assert command.source == "il"
        assert isinstance(probabilities, ILProbabilitiesMessage)
        assert probabilities.probabilities.sum() == pytest.approx(1.0)


class TestCONode:
    def test_publishes_co_command(self, bus, world, easy_scenario, vehicle_params):
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        path = expert.plan_reference(easy_scenario.start_pose)
        controller = COController(vehicle_params, horizon=6)
        controller.set_reference_path(path)
        PerceptionNode(bus, world).step(0.0)
        CONode(bus, controller, world).step(0.0)
        command = bus.latest(Topics.CO_COMMAND)
        assert isinstance(command, ControlCommandMessage)
        assert command.source == "co"

    def test_skips_solve_when_hsa_selects_il(self, bus, world, easy_scenario, vehicle_params):
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        controller = COController(vehicle_params, horizon=6)
        controller.set_reference_path(expert.plan_reference(easy_scenario.start_pose))
        PerceptionNode(bus, world).step(0.0)
        bus.publish(Topics.HSA_STATUS, HSAStatusMessage(stamp=0.0, active_mode="il"))
        CONode(bus, controller, world).step(0.0)
        assert bus.latest(Topics.CO_COMMAND) is None
        bus.publish(Topics.HSA_STATUS, HSAStatusMessage(stamp=0.1, active_mode="co"))
        CONode(bus, controller, world).step(0.1)
        assert isinstance(bus.latest(Topics.CO_COMMAND), ControlCommandMessage)


class TestHSANode:
    def test_publishes_status_after_probabilities(self, bus, world, small_policy):
        PerceptionNode(bus, world).step(0.0)
        ILNode(bus, small_policy).step(0.0)
        node = HSANode(bus, ICOILConfig(guard_frames=0), small_policy.action_space.num_classes)
        node.step(0.0)
        status = bus.latest(Topics.HSA_STATUS)
        assert isinstance(status, HSAStatusMessage)
        assert status.active_mode in ("il", "co")
        assert status.reading is not None

    def test_reading_uses_boundary_distances(self, bus, world, small_policy):
        """D_{i,k} is measured to each obstacle's boundary, as in ICOILController."""
        PerceptionNode(bus, world).step(0.0)
        ILNode(bus, small_policy).step(0.0)
        state = world.state
        bus.publish(Topics.EGO_STATE, EgoStateMessage(stamp=0.0, state=state))
        config = ICOILConfig()
        num_classes = small_policy.action_space.num_classes
        HSANode(bus, config, num_classes).step(0.0)
        detections = bus.latest(Topics.DETECTIONS).detections
        assert detections
        expected = HSAModel(config, num_classes=num_classes).update(
            bus.latest(Topics.IL_PROBABILITIES).probabilities,
            hsa_obstacle_distances(state.position, detections),
        )
        assert bus.latest(Topics.HSA_STATUS).reading == expected

    def test_no_status_without_probabilities(self, bus):
        node = HSANode(bus, ICOILConfig())
        node.step(0.0)
        assert bus.latest(Topics.HSA_STATUS) is None


class TestCommandMuxNode:
    def test_selects_active_mode_command(self, bus):
        bus.publish(Topics.HSA_STATUS, HSAStatusMessage(stamp=0.0, active_mode="il"))
        bus.publish(
            Topics.IL_COMMAND, ControlCommandMessage(stamp=0.0, action=Action(0.3), source="il")
        )
        bus.publish(
            Topics.CO_COMMAND, ControlCommandMessage(stamp=0.0, action=Action(0.9), source="co")
        )
        CommandMuxNode(bus).step(0.0)
        command = bus.latest(Topics.CONTROL_COMMAND)
        assert command.source == "il"
        assert command.action.throttle == pytest.approx(0.3)

    def test_falls_back_to_other_mode(self, bus):
        bus.publish(Topics.HSA_STATUS, HSAStatusMessage(stamp=0.0, active_mode="il"))
        bus.publish(
            Topics.CO_COMMAND, ControlCommandMessage(stamp=0.0, action=Action(0.9), source="co")
        )
        CommandMuxNode(bus).step(0.0)
        assert bus.latest(Topics.CONTROL_COMMAND).source == "co"

    def test_no_output_without_any_command(self, bus):
        CommandMuxNode(bus).step(0.0)
        assert bus.latest(Topics.CONTROL_COMMAND) is None


class TestSimulatorBridgeNode:
    def test_applies_latest_command_and_publishes_state(self, bus, world):
        bus.publish(
            Topics.CONTROL_COMMAND,
            ControlCommandMessage(stamp=0.0, action=Action(throttle=1.0), source="co"),
        )
        node = SimulatorBridgeNode(bus, world)
        for step in range(5):
            node.step(step * 0.1)
        state_message = bus.latest(Topics.EGO_STATE)
        assert isinstance(state_message, EgoStateMessage)
        assert state_message.state.velocity > 0.0
        assert world.time == pytest.approx(0.5)

    def test_idles_without_command(self, bus, world):
        node = SimulatorBridgeNode(bus, world)
        node.step(0.0)
        assert world.state.velocity == pytest.approx(0.0)


class TestPlatformPerception:
    def test_domain_seeded_platform_perceives_like_the_session(self, small_policy):
        """Under seed_derivation="domain" the platform's noisy perception is the session's."""
        scenario = build_scenario(
            ScenarioConfig(
                difficulty=DifficultyLevel.EASY,
                spawn_mode=SpawnMode.CLOSE,
                seed=2,
                image_noise_std=0.1,
                seed_derivation="domain",
            )
        )
        platform = MoCAMPlatform(scenario, small_policy, time_limit=5.0)
        platform.perception_node.step(0.0)
        context = ControllerContext(scenario)
        state = platform.world.state
        obstacles = platform.world.current_obstacles()
        image = platform.bus.latest(Topics.BEV_IMAGE).image
        expected_image = context.renderer.render(state, obstacles, scenario.lot)
        assert np.array_equal(image.data, expected_image.data)
        detections = platform.bus.latest(Topics.DETECTIONS).detections
        expected = context.detector.detect(state, obstacles, time=0.0)
        assert np.array_equal(
            [d.center for d in detections], [d.center for d in expected]
        )


class TestPlatformModes:
    def test_co_commands_equal_co_mode_ticks(self, small_policy):
        """CO solves on the ticks HSA hands to CO, not on every tick."""
        scenario = build_scenario(
            ScenarioConfig(difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.CLOSE, seed=2)
        )
        # An unreachable switch threshold hands control to IL once the guard
        # window has passed, so the episode mixes both modes.
        config = ICOILConfig(guard_frames=5, switch_threshold=1e9)
        platform = MoCAMPlatform(scenario, small_policy, config=config, time_limit=30.0)
        result = platform.run_episode(max_duration=3.0)
        co_ticks = result.mode_trace.count("co")
        assert 0 < co_ticks < len(result.mode_trace)
        assert platform.bus.publish_count(Topics.CO_COMMAND) == co_ticks
        assert platform.bus.publish_count(Topics.CONTROL_COMMAND) == len(result.mode_trace)
