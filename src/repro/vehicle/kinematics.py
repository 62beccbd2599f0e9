"""Ackermann (kinematic bicycle) state-evolution model.

This is the model ``s_{i+1} = u(s_i, a_i)`` from paper §IV-B.  Two interfaces
are provided:

* :meth:`AckermannModel.step` — integrate one simulator step from a high-level
  :class:`~repro.vehicle.actions.Action` (throttle/brake/steer/reverse), used
  by the world simulator;
* :meth:`AckermannModel.rollout_controls` — integrate a horizon of
  ``(acceleration, steering-angle)`` control pairs, the parameterisation used
  by the CO module when building and linearising the MPC problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.angles import normalize_angle
from repro.vehicle.actions import Action
from repro.vehicle.params import VehicleParams
from repro.vehicle.state import VehicleState


@dataclass(frozen=True)
class KinematicControl:
    """Low-level control pair used by the MPC: acceleration and steering angle."""

    acceleration: float
    steer_angle: float


class AckermannModel:
    """Kinematic bicycle model with actuator limits.

    Parameters
    ----------
    params:
        Vehicle geometry and limits.
    dt:
        Integration step (s); the simulator and the MPC share this value so
        that planned trajectories are directly executable.
    """

    def __init__(self, params: VehicleParams | None = None, dt: float = 0.1) -> None:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.params = params or VehicleParams()
        self.dt = dt

    # ------------------------------------------------------------------
    # High-level action interface (simulator side)
    # ------------------------------------------------------------------
    def step(self, state: VehicleState, action: Action) -> VehicleState:
        """Advance the state one step under a throttle/brake/steer command."""
        params = self.params
        target_steer = float(np.clip(action.steer, -1.0, 1.0)) * params.max_steer
        max_delta = params.max_steer_rate * self.dt
        steer = state.steer + float(np.clip(target_steer - state.steer, -max_delta, max_delta))

        # Longitudinal dynamics: throttle accelerates in the direction of the
        # engaged gear, brake decelerates towards zero, coasting applies a
        # small rolling-resistance decay.
        direction = -1.0 if action.reverse else 1.0
        acceleration = action.throttle * params.max_acceleration * direction
        velocity = state.velocity
        if action.brake > 0.0:
            brake_decel = action.brake * params.max_deceleration * self.dt
            if velocity > 0.0:
                velocity = max(0.0, velocity - brake_decel)
            elif velocity < 0.0:
                velocity = min(0.0, velocity + brake_decel)
        velocity += acceleration * self.dt
        if action.throttle == 0.0 and action.brake == 0.0:
            velocity *= 0.98
        velocity = float(np.clip(velocity, -params.max_reverse_speed, params.max_speed))

        # Gear consistency: engaging the opposite gear while still rolling the
        # other way behaves like braking to a stop first.
        if action.reverse and velocity > 0.0 and action.throttle > 0.0:
            velocity = max(0.0, velocity - params.max_deceleration * self.dt)
        if not action.reverse and velocity < 0.0 and action.throttle > 0.0:
            velocity = min(0.0, velocity + params.max_deceleration * self.dt)

        return self._integrate(state, velocity, steer)

    def _integrate(self, state: VehicleState, velocity: float, steer: float) -> VehicleState:
        params = self.params
        heading = state.heading
        x = state.x + velocity * math.cos(heading) * self.dt
        y = state.y + velocity * math.sin(heading) * self.dt
        heading = normalize_angle(heading + velocity / params.wheelbase * math.tan(steer) * self.dt)
        return VehicleState(x, y, heading, velocity, steer)

    # ------------------------------------------------------------------
    # Low-level control interface (MPC side)
    # ------------------------------------------------------------------
    def step_control(self, state: VehicleState, control: KinematicControl) -> VehicleState:
        """Advance the state one step under an (acceleration, steer-angle) pair."""
        params = self.params
        acceleration = float(
            np.clip(control.acceleration, -params.max_deceleration, params.max_acceleration)
        )
        steer = float(np.clip(control.steer_angle, -params.max_steer, params.max_steer))
        velocity = float(
            np.clip(
                state.velocity + acceleration * self.dt,
                -params.max_reverse_speed,
                params.max_speed,
            )
        )
        return self._integrate(state, velocity, steer)

    def rollout_controls(
        self, state: VehicleState, controls: Sequence[KinematicControl]
    ) -> list[VehicleState]:
        """Roll out a sequence of controls; returns ``len(controls) + 1`` states."""
        states = [state]
        for control in controls:
            states.append(self.step_control(states[-1], control))
        return states

    def rollout_controls_array(self, state: VehicleState, controls: np.ndarray) -> np.ndarray:
        """Vector form of :meth:`rollout_controls` for the optimizer.

        Parameters
        ----------
        state:
            Initial state.
        controls:
            Array of shape ``(H, 2)`` with columns (acceleration, steer angle).

        Returns
        -------
        numpy.ndarray
            States of shape ``(H + 1, 4)`` with columns (x, y, heading, velocity).
        """
        controls = np.asarray(controls, dtype=float).reshape(-1, 2)
        horizon = controls.shape[0]
        states = np.zeros((horizon + 1, 4), dtype=float)
        states[0] = [state.x, state.y, state.heading, state.velocity]
        params = self.params
        # This is the optimizer's innermost loop (every residual evaluation
        # of every finite-difference column rolls the horizon out), so the
        # control clips are hoisted into two vectorized calls and the
        # propagation runs on plain floats — same operations in the same
        # order, minus the per-step NumPy scalar overhead.
        accelerations = np.clip(
            controls[:, 0], -params.max_deceleration, params.max_acceleration
        ).tolist()
        steers = np.clip(controls[:, 1], -params.max_steer, params.max_steer).tolist()
        dt = self.dt
        min_velocity = -params.max_reverse_speed
        max_velocity = params.max_speed
        wheelbase = params.wheelbase
        x = float(state.x)
        y = float(state.y)
        heading = float(state.heading)
        velocity = float(state.velocity)
        for h in range(horizon):
            velocity = velocity + accelerations[h] * dt
            if velocity < min_velocity:
                velocity = min_velocity
            elif velocity > max_velocity:
                velocity = max_velocity
            x = x + velocity * math.cos(heading) * dt
            y = y + velocity * math.sin(heading) * dt
            heading = normalize_angle(heading + velocity / wheelbase * math.tan(steers[h]) * dt)
            row = states[h + 1]
            row[0] = x
            row[1] = y
            row[2] = heading
            row[3] = velocity
        return states

    def rollout_with_sensitivities(
        self, state: VehicleState, controls: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rollout plus closed-form sensitivities of every state to every control.

        The per-stage state-transition Jacobians of the bicycle update
        (``A_h = ds_{h+1}/ds_h``, ``B_h = ds_{h+1}/du_h``) are accumulated
        into the full tensor ``ds_h/du_j`` by the standard chain product
        ``A_{h-1} ... A_{j+1} B_j``, so one call replaces the ~2H rollouts a
        finite-difference Jacobian needs.  The actuator and velocity clips
        are differentiated exactly: a clipped quantity contributes a zero
        column, with the subgradient at the boundary itself taken from the
        interior so a projected Gauss-Newton step can re-enter the box.

        Parameters
        ----------
        state:
            Initial state.
        controls:
            Array of shape ``(H, 2)`` with columns (acceleration, steer angle).

        Returns
        -------
        (states, sensitivities):
            ``states`` is the ``(H + 1, 4)`` rollout (bit-identical to
            :meth:`rollout_controls_array`); ``sensitivities`` has shape
            ``(H, H, 4, 2)`` with ``sensitivities[h, j]`` the Jacobian of
            ``states[h + 1]`` w.r.t. control ``j`` (zero for ``j > h``).
        """
        controls = np.asarray(controls, dtype=float).reshape(-1, 2)
        horizon = controls.shape[0]
        states = self.rollout_controls_array(state, controls)
        params = self.params
        dt = self.dt
        wheelbase = params.wheelbase

        raw_accel = controls[:, 0]
        raw_steer = controls[:, 1]
        steer = np.clip(raw_steer, -params.max_steer, params.max_steer)
        accel = np.clip(raw_accel, -params.max_deceleration, params.max_acceleration)
        accel_free = (raw_accel >= -params.max_deceleration) & (
            raw_accel <= params.max_acceleration
        )
        steer_free = (raw_steer >= -params.max_steer) & (raw_steer <= params.max_steer)
        # Velocity clip activity: v_{h+1} = clip(v_h + a_h dt); where the clip
        # engages, v_{h+1} is constant and its derivatives vanish.
        pre_velocity = states[:-1, 3] + accel * dt
        velocity_free = (pre_velocity >= -params.max_reverse_speed) & (
            pre_velocity <= params.max_speed
        )

        next_velocity = states[1:, 3]
        heading = states[:-1, 2]
        cos_h = np.cos(heading)
        sin_h = np.sin(heading)
        tan_s = np.tan(steer)

        sensitivities = np.zeros((horizon, horizon, 4, 2))
        transition = np.eye(4)
        for h in range(horizon):
            free = float(velocity_free[h])
            if h > 0:
                # A_h: position picks up the *new* velocity through the clip
                # and the *old* heading; heading picks up the new velocity.
                transition[0, 2] = -next_velocity[h] * sin_h[h] * dt
                transition[0, 3] = free * cos_h[h] * dt
                transition[1, 2] = next_velocity[h] * cos_h[h] * dt
                transition[1, 3] = free * sin_h[h] * dt
                transition[2, 3] = free * tan_s[h] * dt / wheelbase
                transition[3, 3] = free
                np.matmul(transition, sensitivities[h - 1, :h], out=sensitivities[h, :h])
            # B_h: acceleration enters through the velocity update, steering
            # through the heading update only.
            if accel_free[h] and velocity_free[h]:
                gain = dt * dt
                sensitivities[h, h, 0, 0] = gain * cos_h[h]
                sensitivities[h, h, 1, 0] = gain * sin_h[h]
                sensitivities[h, h, 2, 0] = gain * tan_s[h] / wheelbase
                sensitivities[h, h, 3, 0] = dt
            if steer_free[h]:
                cos_steer = math.cos(steer[h])
                sensitivities[h, h, 2, 1] = (
                    next_velocity[h] * dt / (wheelbase * cos_steer * cos_steer)
                )
        return states, sensitivities

    # ------------------------------------------------------------------
    # Batched interface
    # ------------------------------------------------------------------
    def rollout_batch(self, initial_states: np.ndarray, controls: np.ndarray):
        """Roll out ``B`` independent control sequences as one tensor op chain.

        Parameters
        ----------
        initial_states:
            Array of shape ``(B, 4)`` with columns (x, y, heading, velocity).
        controls:
            Array of shape ``(B, H, 2)``.

        Returns
        -------
        States of shape ``(B, H + 1, 4)``.  Matches ``B`` independent
        :meth:`rollout_controls_array` calls to floating-point round-off
        (the batched heading wrap uses ``mod`` instead of ``fmod``).
        """
        params = self.params
        dt = self.dt
        controls = np.asarray(controls, dtype=float)
        initial_states = np.asarray(initial_states, dtype=float)
        horizon = controls.shape[1]
        accel = np.clip(controls[:, :, 0], -params.max_deceleration, params.max_acceleration)
        tan_s = np.tan(np.clip(controls[:, :, 1], -params.max_steer, params.max_steer))
        states = np.zeros((initial_states.shape[0], horizon + 1, 4))
        states[:, 0] = initial_states
        x = initial_states[:, 0]
        y = initial_states[:, 1]
        heading = initial_states[:, 2]
        velocity = initial_states[:, 3]
        for h in range(horizon):
            velocity = np.clip(
                velocity + accel[:, h] * dt, -params.max_reverse_speed, params.max_speed
            )
            x = x + velocity * np.cos(heading) * dt
            y = y + velocity * np.sin(heading) * dt
            heading = (
                np.mod(heading + velocity / params.wheelbase * tan_s[:, h] * dt + math.pi, 2.0 * math.pi)
                - math.pi
            )
            states[:, h + 1, 0] = x
            states[:, h + 1, 1] = y
            states[:, h + 1, 2] = heading
            states[:, h + 1, 3] = velocity
        return states

    def rollout_batch_with_sensitivities(self, initial_states: np.ndarray, controls: np.ndarray):
        """Batched :meth:`rollout_with_sensitivities`: ``(B, H+1, 4)`` states
        plus a ``(B, H, H, 4, 2)`` sensitivity tensor."""
        params = self.params
        dt = self.dt
        wheelbase = params.wheelbase
        controls = np.asarray(controls, dtype=float)
        states = self.rollout_batch(initial_states, controls)
        batch, horizon = controls.shape[0], controls.shape[1]

        raw_accel = controls[:, :, 0]
        raw_steer = controls[:, :, 1]
        steer = np.clip(raw_steer, -params.max_steer, params.max_steer)
        accel = np.clip(raw_accel, -params.max_deceleration, params.max_acceleration)
        accel_free = (raw_accel >= -params.max_deceleration) & (
            raw_accel <= params.max_acceleration
        )
        steer_free = (raw_steer >= -params.max_steer) & (raw_steer <= params.max_steer)
        pre_velocity = states[:, :-1, 3] + accel * dt
        velocity_free = (
            (pre_velocity >= -params.max_reverse_speed) & (pre_velocity <= params.max_speed)
        ).astype(float)

        next_velocity = states[:, 1:, 3]
        heading = states[:, :-1, 2]
        cos_h = np.cos(heading)
        sin_h = np.sin(heading)
        tan_s = np.tan(steer)
        cos_s = np.cos(steer)

        sensitivities = np.zeros((batch, horizon, horizon, 4, 2))
        # One (B, 4, 4) transition buffer reused across steps; only the
        # state-dependent entries are rewritten each iteration.
        transition = np.zeros((batch, 4, 4))
        transition[:, 0, 0] = 1.0
        transition[:, 1, 1] = 1.0
        transition[:, 2, 2] = 1.0
        for h in range(horizon):
            free = velocity_free[:, h]
            if h > 0:
                transition[:, 0, 2] = -next_velocity[:, h] * sin_h[:, h] * dt
                transition[:, 0, 3] = free * cos_h[:, h] * dt
                transition[:, 1, 2] = next_velocity[:, h] * cos_h[:, h] * dt
                transition[:, 1, 3] = free * sin_h[:, h] * dt
                transition[:, 2, 3] = free * tan_s[:, h] * dt / wheelbase
                transition[:, 3, 3] = free
                # Broadcasted batched matmul: (B, 1, 4, 4) @ (B, h, 4, 2).
                sensitivities[:, h, :h] = np.matmul(
                    transition[:, None], sensitivities[:, h - 1, :h]
                )
            accel_gain = free * accel_free[:, h].astype(float) * dt
            sensitivities[:, h, h, 0, 0] = accel_gain * cos_h[:, h] * dt
            sensitivities[:, h, h, 1, 0] = accel_gain * sin_h[:, h] * dt
            sensitivities[:, h, h, 2, 0] = accel_gain * tan_s[:, h] * dt / wheelbase
            sensitivities[:, h, h, 3, 0] = accel_gain
            sensitivities[:, h, h, 2, 1] = (
                steer_free[:, h].astype(float)
                * next_velocity[:, h]
                * dt
                / (wheelbase * cos_s[:, h] * cos_s[:, h])
            )
        return states, sensitivities

    # ------------------------------------------------------------------
    # Conversions between the two interfaces
    # ------------------------------------------------------------------
    def control_to_action(self, state: VehicleState, control: KinematicControl) -> Action:
        """Convert an MPC control pair into a high-level driving command."""
        params = self.params
        steer_cmd = float(np.clip(control.steer_angle / params.max_steer, -1.0, 1.0))
        desired_velocity = state.velocity + control.acceleration * self.dt
        reverse = desired_velocity < -1e-3
        accel = control.acceleration if not reverse else -control.acceleration
        # Braking when the commanded acceleration opposes the current motion.
        opposes_motion = (
            (state.velocity > 0.1 and control.acceleration < -0.1)
            or (state.velocity < -0.1 and control.acceleration > 0.1)
        )
        if opposes_motion:
            brake = float(np.clip(abs(control.acceleration) / params.max_deceleration, 0.0, 1.0))
            return Action.clipped(0.0, brake, steer_cmd, state.velocity < 0.0)
        throttle = float(np.clip(accel / params.max_acceleration, 0.0, 1.0))
        return Action.clipped(throttle, 0.0, steer_cmd, reverse)
