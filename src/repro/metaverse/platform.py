"""The MoCAM platform: assembles the node graph and runs parking episodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api.registry import ControllerContext
from repro.co.controller import COController
from repro.core.config import ICOILConfig
from repro.il.expert import ExpertDriver
from repro.il.policy import ILPolicy
from repro.metaverse.nodes import (
    CommandMuxNode,
    CONode,
    HSANode,
    ILNode,
    PerceptionNode,
    SimulatorBridgeNode,
    Topics,
)
from repro.middleware.bus import MessageBus
from repro.middleware.executor import Executor
from repro.middleware.recorder import TopicRecorder
from repro.vehicle.params import VehicleParams
from repro.world.scenario import Scenario
from repro.world.world import EpisodeStatus, ParkingWorld


@dataclass(frozen=True)
class PlatformEpisodeResult:
    """Result of one episode run on the platform."""

    status: EpisodeStatus
    parking_time: float
    num_frames: int
    mode_trace: tuple
    recorder: TopicRecorder

    @property
    def success(self) -> bool:
        return self.status is EpisodeStatus.PARKED


class MoCAMPlatform:
    """Digital-twin platform wiring simulator, perception and iCOIL nodes.

    This is the distributed (node-graph) deployment of the same algorithms
    the evaluation harness drives directly; an integration test checks that
    both paths agree on episode outcomes.
    """

    def __init__(
        self,
        scenario: Scenario,
        il_policy: ILPolicy,
        vehicle_params: Optional[VehicleParams] = None,
        config: Optional[ICOILConfig] = None,
        rate_hz: float = 10.0,
        time_limit: float = 60.0,
    ) -> None:
        self.scenario = scenario
        self.vehicle_params = vehicle_params or VehicleParams()
        self.config = config or ICOILConfig()
        self.rate_hz = rate_hz
        tick = 1.0 / rate_hz

        self.world = ParkingWorld(scenario, self.vehicle_params, dt=tick, time_limit=time_limit)
        self.bus = MessageBus()
        self.executor = Executor(tick=tick)

        # The session's perception components, seeded the way the scenario's
        # seed_derivation says.
        perception = ControllerContext(scenario)

        co_controller = COController(self.vehicle_params, horizon=self.config.horizon, dt=tick)
        expert = ExpertDriver(scenario.lot, scenario.obstacles, self.vehicle_params)
        reference = expert.plan_reference(scenario.start_pose)
        if reference is None:
            raise RuntimeError("could not plan a reference path for the scenario")
        co_controller.set_reference_path(reference)

        # Node registration order defines the within-tick pipeline:
        # perception -> IL -> HSA -> CO -> mux -> simulator.  HSA runs before
        # CO so that CO solves only on the ticks HSA hands to it.
        self.perception_node = PerceptionNode(
            self.bus, self.world, perception.renderer, perception.detector, rate_hz
        )
        self.il_node = ILNode(self.bus, il_policy, rate_hz)
        self.hsa_node = HSANode(self.bus, self.config, il_policy.action_space.num_classes, rate_hz)
        self.co_node = CONode(self.bus, co_controller, self.world, rate_hz)
        self.mux_node = CommandMuxNode(self.bus, rate_hz)
        self.bridge_node = SimulatorBridgeNode(self.bus, self.world, rate_hz)
        for node in (
            self.perception_node,
            self.il_node,
            self.hsa_node,
            self.co_node,
            self.mux_node,
            self.bridge_node,
        ):
            self.executor.add_node(node)

        self.recorder = TopicRecorder(
            self.bus,
            [Topics.HSA_STATUS, Topics.CONTROL_COMMAND, Topics.EGO_STATE],
        )

    def run_episode(self, max_duration: Optional[float] = None) -> PlatformEpisodeResult:
        """Run until the episode terminates (or ``max_duration`` elapses)."""
        duration = max_duration if max_duration is not None else self.world.time_limit + 1.0
        self.executor.spin(duration, until=lambda: self.world.status.is_terminal)
        mode_trace = tuple(
            message.active_mode for message in self.recorder.messages(Topics.HSA_STATUS)
        )
        return PlatformEpisodeResult(
            status=self.world.status,
            parking_time=self.world.time,
            num_frames=self.bridge_node.step_count,
            mode_trace=mode_trace,
            recorder=self.recorder,
        )
