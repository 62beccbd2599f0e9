"""Middleware nodes composing the iCOIL AP system of Fig. 2."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.co.controller import COController
from repro.core.config import ICOILConfig
from repro.core.hsa import HSAModel, hsa_obstacle_distances
from repro.il.policy import ILPolicy
from repro.middleware.bus import MessageBus
from repro.middleware.messages import (
    BEVImageMessage,
    ControlCommandMessage,
    DetectionArrayMessage,
    EgoStateMessage,
    HSAStatusMessage,
    ILProbabilitiesMessage,
)
from repro.middleware.node import Node
from repro.perception.bev import BEVRenderer
from repro.perception.detector import ObjectDetector
from repro.vehicle.actions import Action
from repro.world.world import ParkingWorld


class Topics:
    """Topic names used by the node graph (mirrors the ROS topic layout)."""

    EGO_STATE = "/mocam/ego_state"
    BEV_IMAGE = "/perception/bev_image"
    DETECTIONS = "/perception/bounding_boxes"
    IL_COMMAND = "/il/command"
    IL_PROBABILITIES = "/il/probabilities"
    CO_COMMAND = "/co/command"
    HSA_STATUS = "/hsa/status"
    CONTROL_COMMAND = "/vehicle/control_command"


class SimulatorBridgeNode(Node):
    """Steps the parking world and publishes the ego state.

    Plays the role of the CARLA-ROS bridge: at every tick it applies the
    latest control command to the simulated vehicle and publishes the new
    state for the perception and planning nodes.
    """

    def __init__(self, bus: MessageBus, world: ParkingWorld, rate_hz: float = 10.0) -> None:
        super().__init__("simulator_bridge", bus, rate_hz)
        self.world = world

    def on_step(self, time: float) -> None:
        if self.world.status.is_terminal:
            return
        command = self.latest(Topics.CONTROL_COMMAND)
        action = command.action if isinstance(command, ControlCommandMessage) else Action.idle()
        self.world.step(action)
        self.publish(Topics.EGO_STATE, EgoStateMessage(stamp=time, state=self.world.state))


class PerceptionNode(Node):
    """BEV transformer ``g`` + object detector ``h`` (Fig. 2, left)."""

    def __init__(
        self,
        bus: MessageBus,
        world: ParkingWorld,
        renderer: Optional[BEVRenderer] = None,
        detector: Optional[ObjectDetector] = None,
        rate_hz: float = 10.0,
    ) -> None:
        super().__init__("perception", bus, rate_hz)
        self.world = world
        self.renderer = renderer or BEVRenderer()
        self.detector = detector or ObjectDetector()

    def on_step(self, time: float) -> None:
        state = self.world.state
        obstacles = self.world.current_obstacles()
        image = self.renderer.render(state, obstacles, self.world.scenario.lot)
        detections = tuple(self.detector.detect(state, obstacles, time=time))
        self.publish(Topics.BEV_IMAGE, BEVImageMessage(stamp=time, image=image))
        self.publish(Topics.DETECTIONS, DetectionArrayMessage(stamp=time, detections=detections))


class ILNode(Node):
    """The IL node: BEV image -> probabilistic action (paper §IV-A)."""

    def __init__(self, bus: MessageBus, policy: ILPolicy, rate_hz: float = 10.0) -> None:
        super().__init__("il", bus, rate_hz)
        self.policy = policy

    def on_step(self, time: float) -> None:
        message = self.latest(Topics.BEV_IMAGE)
        if not isinstance(message, BEVImageMessage) or message.image is None:
            return
        action, probabilities = self.policy.predict_action(message.image)
        self.publish(Topics.IL_COMMAND, ControlCommandMessage(stamp=time, action=action, source="il"))
        self.publish(
            Topics.IL_PROBABILITIES,
            ILProbabilitiesMessage(stamp=time, probabilities=probabilities),
        )


class CONode(Node):
    """The CO node: bounding boxes -> collision-free action (paper §IV-B).

    Solves only on CO ticks — when the latest HSA status selects ``co``, or
    before the first status arrives — as the session's iCOIL controller
    solves only in CO mode.  The platform therefore steps HSA before CO.
    """

    def __init__(self, bus: MessageBus, controller: COController, world: ParkingWorld, rate_hz: float = 10.0) -> None:
        super().__init__("co", bus, rate_hz)
        self.controller = controller
        self.world = world

    def on_step(self, time: float) -> None:
        status = self.latest(Topics.HSA_STATUS)
        if isinstance(status, HSAStatusMessage) and status.active_mode != "co":
            return
        state_message = self.latest(Topics.EGO_STATE)
        detection_message = self.latest(Topics.DETECTIONS)
        state = (
            state_message.state if isinstance(state_message, EgoStateMessage) else self.world.state
        )
        detections = (
            detection_message.detections
            if isinstance(detection_message, DetectionArrayMessage)
            else ()
        )
        action = self.controller.act(state, detections, time=time)
        self.publish(Topics.CO_COMMAND, ControlCommandMessage(stamp=time, action=action, source="co"))


class HSANode(Node):
    """The HSA node: computes U_i, C_i and the recommended mode (paper §IV-C)."""

    def __init__(
        self,
        bus: MessageBus,
        config: Optional[ICOILConfig] = None,
        num_classes: int = 30,
        rate_hz: float = 10.0,
    ) -> None:
        super().__init__("hsa", bus, rate_hz)
        self.config = config or ICOILConfig()
        self.model = HSAModel(self.config, num_classes=num_classes)
        self._active_mode = "co"
        self._frames_since_switch = 0

    def on_step(self, time: float) -> None:
        probability_message = self.latest(Topics.IL_PROBABILITIES)
        detection_message = self.latest(Topics.DETECTIONS)
        state_message = self.latest(Topics.EGO_STATE)
        if not isinstance(probability_message, ILProbabilitiesMessage):
            return
        probabilities = probability_message.probabilities
        detections = (
            detection_message.detections
            if isinstance(detection_message, DetectionArrayMessage)
            else ()
        )
        # D_{i,k} to each obstacle's boundary, as ICOILController measures it.
        if isinstance(state_message, EgoStateMessage) and detections:
            distances = hsa_obstacle_distances(state_message.state.position, detections)
        else:
            distances = np.zeros(0)
        reading = self.model.update(probabilities, distances)

        self._frames_since_switch += 1
        if self._frames_since_switch > self.config.guard_frames:
            desired = "co" if reading.use_co else "il"
            if desired != self._active_mode:
                self._active_mode = desired
                self._frames_since_switch = 0
        self.publish(
            Topics.HSA_STATUS,
            HSAStatusMessage(stamp=time, reading=reading, active_mode=self._active_mode),
        )


class CommandMuxNode(Node):
    """Selects the active mode's command and publishes the final control (Eq. 1)."""

    def __init__(self, bus: MessageBus, rate_hz: float = 10.0) -> None:
        super().__init__("command_mux", bus, rate_hz)

    def on_step(self, time: float) -> None:
        status = self.latest(Topics.HSA_STATUS)
        active_mode = status.active_mode if isinstance(status, HSAStatusMessage) else "co"
        source_topic = Topics.IL_COMMAND if active_mode == "il" else Topics.CO_COMMAND
        command = self.latest(source_topic)
        if not isinstance(command, ControlCommandMessage):
            # Fall back to the other mode if the preferred one has not
            # published yet (e.g. during the very first ticks).
            fallback_topic = Topics.CO_COMMAND if active_mode == "il" else Topics.IL_COMMAND
            command = self.latest(fallback_topic)
        if not isinstance(command, ControlCommandMessage):
            return
        self.publish(
            Topics.CONTROL_COMMAND,
            ControlCommandMessage(stamp=time, action=command.action, source=command.source),
        )
