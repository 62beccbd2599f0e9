"""Tests for HSA, the iCOIL controller and the baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import solve_request
from repro.co.controller import COController
from repro.core import (
    COOnlyController,
    DrivingMode,
    HSAModel,
    ICOILConfig,
    ICOILController,
    ILOnlyController,
)
from repro.core.hsa import scenario_complexity, scenario_uncertainty
from repro.il.expert import ExpertDriver
from repro.vehicle.state import VehicleState


class TestScenarioUncertainty:
    def test_uniform_distribution_maximises_entropy(self):
        uniform = scenario_uncertainty(np.full(10, 0.1))
        peaked = scenario_uncertainty(np.array([0.91] + [0.01] * 9))
        assert uniform > peaked
        assert uniform == pytest.approx(np.log(10))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scenario_uncertainty(np.array([]))

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_entropy_bounds(self, classes):
        rng = np.random.default_rng(classes)
        raw = rng.random(classes)
        probabilities = raw / raw.sum()
        entropy = scenario_uncertainty(probabilities)
        assert 0.0 <= entropy <= np.log(classes) + 1e-9


class TestScenarioComplexity:
    def test_more_obstacles_increase_complexity(self):
        few = scenario_complexity([3.0], horizon=10, action_dimension=2, danger_distance=3.0)
        many = scenario_complexity([3.0, 3.0, 3.0], horizon=10, action_dimension=2, danger_distance=3.0)
        assert many > few

    def test_faraway_obstacles_contribute_little(self):
        near = scenario_complexity([3.0], horizon=10, action_dimension=2, danger_distance=3.0)
        far = scenario_complexity([30.0], horizon=10, action_dimension=2, danger_distance=3.0)
        empty = scenario_complexity([], horizon=10, action_dimension=2, danger_distance=3.0)
        assert near > far
        assert far == pytest.approx(empty, rel=0.05)

    def test_longer_horizon_superlinear(self):
        short = scenario_complexity([3.0], horizon=5, action_dimension=2, danger_distance=3.0)
        long = scenario_complexity([3.0], horizon=10, action_dimension=2, danger_distance=3.0)
        assert long > 2.0 * short

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            scenario_complexity([1.0], horizon=0, action_dimension=2, danger_distance=3.0)


class TestHSAModel:
    def test_window_averaging(self):
        model = HSAModel(ICOILConfig(window_size=3), num_classes=4)
        uniform = np.full(4, 0.25)
        peaked = np.array([0.97, 0.01, 0.01, 0.01])
        first = model.update(uniform, [])
        second = model.update(peaked, [])
        assert second.average_uncertainty < first.average_uncertainty
        assert model.window_fill == 2

    def test_high_uncertainty_selects_co(self):
        model = HSAModel(ICOILConfig(switch_threshold=0.3), num_classes=10)
        reading = model.update(np.full(10, 0.1), [])
        assert reading.use_co
        assert reading.recommended_mode == "co"

    def test_low_uncertainty_selects_il(self):
        model = HSAModel(ICOILConfig(switch_threshold=0.3), num_classes=10)
        confident = np.array([0.99] + [0.01 / 9] * 9)
        reading = model.update(confident, [])
        assert not reading.use_co
        assert reading.recommended_mode == "il"

    def test_nearby_obstacles_push_towards_il(self):
        config = ICOILConfig(switch_threshold=0.3, window_size=1)
        moderate = np.array([0.55, 0.25] + [0.2 / 8] * 8)
        clear_scene = HSAModel(config, num_classes=10).update(moderate, [])
        crowded_scene = HSAModel(config, num_classes=10).update(moderate, [3.0, 3.0, 3.0, 3.0])
        assert crowded_scene.score < clear_scene.score

    def test_reset_clears_window(self):
        model = HSAModel(num_classes=4)
        model.update(np.full(4, 0.25), [])
        model.reset()
        assert model.window_fill == 0

    def test_raw_score_mode(self):
        config = ICOILConfig(normalize_hsa=False, switch_threshold=1e-4)
        model = HSAModel(config, num_classes=4)
        reading = model.update(np.full(4, 0.25), [2.0])
        assert reading.score == pytest.approx(
            reading.average_uncertainty / reading.average_complexity
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ICOILConfig(window_size=0)
        with pytest.raises(ValueError):
            ICOILConfig(guard_frames=-1)
        with pytest.raises(ValueError):
            HSAModel(num_classes=1)


def _step(controller, scenario, state, time=0.0):
    """One single-call step through the ``step_split`` protocol."""
    request, finish = controller.step_split(state, scenario.obstacles, scenario.lot, time=time)
    return request, finish(solve_request(request))


class TestICOILController:
    def _make_controller(self, scenario, policy, vehicle_params, config=None):
        expert = ExpertDriver(scenario.lot, scenario.obstacles, vehicle_params)
        path = expert.plan_reference(scenario.start_pose)
        co = COController(vehicle_params, horizon=6)
        controller = ICOILController(policy, co, config=config or ICOILConfig(guard_frames=2))
        controller.prepare(path)
        return controller

    def test_step_returns_telemetry(self, easy_scenario, small_policy, vehicle_params):
        controller = self._make_controller(easy_scenario, small_policy, vehicle_params)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        _, step = _step(controller, easy_scenario, state)
        assert step.mode in ("co", "il")
        assert 0.0 <= step.uncertainty <= 1.0
        assert np.isfinite(step.hsa_score)

    def test_guard_time_blocks_switching(self, easy_scenario, small_policy, vehicle_params):
        config = ICOILConfig(guard_frames=1000, switch_threshold=1e-9)
        controller = self._make_controller(easy_scenario, small_policy, vehicle_params, config)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        for step_index in range(3):
            _, step = _step(controller, easy_scenario, state, time=0.1 * step_index)
        # Even with a threshold that always selects CO/IL changes, the guard
        # keeps the initial CO mode.
        assert controller.mode is DrivingMode.CO
        assert not step.switched

    def test_prepare_resets_mode(self, easy_scenario, small_policy, vehicle_params):
        config = ICOILConfig(guard_frames=0, switch_threshold=1e9)  # IL at once
        controller = self._make_controller(easy_scenario, small_policy, vehicle_params, config)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        _step(controller, easy_scenario, state)
        assert controller.mode is DrivingMode.IL
        controller.prepare(controller.co_controller.reference_path)
        assert controller.mode is DrivingMode.CO

    def test_co_mode_requests_a_solve(self, easy_scenario, small_policy, vehicle_params):
        config = ICOILConfig(guard_frames=1000)  # stay in the initial CO mode
        controller = self._make_controller(easy_scenario, small_policy, vehicle_params, config)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        request, step = _step(controller, easy_scenario, state)
        assert request is not None
        assert step.mode == "co"
        assert controller.co_controller.last_info.solve_time > 0.0

    def test_il_mode_requests_no_solve(self, easy_scenario, small_policy, vehicle_params):
        config = ICOILConfig(guard_frames=0, switch_threshold=1e9)
        controller = self._make_controller(easy_scenario, small_policy, vehicle_params, config)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        request, step = _step(controller, easy_scenario, state)
        assert request is None
        assert step.mode == "il" and step.switched
        assert controller.co_controller.last_info is None


class TestBaselines:
    def test_il_only_controller(self, easy_scenario, small_policy):
        controller = ILOnlyController(small_policy)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        request, step = _step(controller, easy_scenario, state)
        assert request is None
        assert step.mode == "il"
        assert step.action == small_policy.predict_action(
            controller.renderer.render(state, easy_scenario.obstacles, easy_scenario.lot)
        )[0]

    def test_co_only_controller(self, easy_scenario, vehicle_params):
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        path = expert.plan_reference(easy_scenario.start_pose)
        controller = COOnlyController(COController(vehicle_params, horizon=6))
        controller.prepare(path)
        state = VehicleState.from_pose(easy_scenario.start_pose)
        request, step = _step(controller, easy_scenario, state)
        assert request is not None
        assert step.mode == "co"
        assert controller.co_controller.last_info is not None
        assert step.action.throttle >= 0.0


class TestConflictEscalation:
    """Final-approach CO escalation on a finite predicted time-to-conflict."""

    def _confident(self, num_classes=30):
        probabilities = np.full(num_classes, 1e-9)
        probabilities[0] = 1.0
        return probabilities / probabilities.sum()

    def test_finite_conflict_on_final_approach_escalates(self):
        model = HSAModel(ICOILConfig())
        reading = model.update(
            self._confident(), [], time_to_conflict=2.0, final_approach=True
        )
        assert reading.conflict_escalated
        assert reading.use_co
        assert reading.recommended_mode == "co"
        assert reading.time_to_conflict == pytest.approx(2.0)

    def test_no_conflict_keeps_il_on_final_approach(self):
        model = HSAModel(ICOILConfig())
        reading = model.update(
            self._confident(), [], time_to_conflict=None, final_approach=True
        )
        assert not reading.conflict_escalated
        assert not reading.use_co

    def test_conflict_outside_final_approach_does_not_escalate(self):
        model = HSAModel(ICOILConfig())
        reading = model.update(
            self._confident(), [], time_to_conflict=2.0, final_approach=False
        )
        assert not reading.conflict_escalated
        # The conflict still raises the complexity term, which *lowers* the
        # score — escalation is the only path that forces CO here.
        assert not reading.use_co

    def test_final_approach_distance_validated(self):
        with pytest.raises(ValueError):
            ICOILConfig(final_approach_distance=-1.0)


class _ConflictTimegrid:
    """Stub time layer reporting a constant predicted time-to-conflict."""

    empty = False

    def __init__(self, value=1.5):
        self.value = value

    def time_to_conflict(self, position, start_time=0.0, threshold=None):
        return self.value


class TestControllerHandoff:
    def _make_controller(self, scenario, policy, vehicle_params, timegrid, config):
        expert = ExpertDriver(scenario.lot, scenario.obstacles, vehicle_params)
        path = expert.plan_reference(scenario.start_pose)
        co = COController(vehicle_params, horizon=6)
        controller = ICOILController(
            policy, co, config=config, timegrid=timegrid
        )
        controller.prepare(path)
        return controller

    def test_escalation_overrides_guard_time(
        self, easy_scenario, small_policy, vehicle_params
    ):
        """A finite conflict during final approach hands off to CO at once."""
        config = ICOILConfig(guard_frames=1000, final_approach_distance=1e9)
        controller = self._make_controller(
            easy_scenario, small_policy, vehicle_params, _ConflictTimegrid(), config
        )
        controller._mode = DrivingMode.IL
        controller._frames_since_switch = 0  # guard would normally block
        state = VehicleState.from_pose(easy_scenario.start_pose)
        # Only the escalation can switch modes inside a 1000-frame guard.
        request, step = _step(controller, easy_scenario, state)
        assert request is not None
        assert step.mode == "co"
        assert step.switched

    def test_no_escalation_outside_final_approach(
        self, easy_scenario, small_policy, vehicle_params
    ):
        """Far from the goal the guard time still rules the handoff."""
        config = ICOILConfig(guard_frames=1000, final_approach_distance=0.0)
        controller = self._make_controller(
            easy_scenario, small_policy, vehicle_params, _ConflictTimegrid(), config
        )
        controller._mode = DrivingMode.IL
        controller._frames_since_switch = 0
        state = VehicleState.from_pose(easy_scenario.start_pose)
        request, step = _step(controller, easy_scenario, state)
        assert request is None
        assert step.mode == "il"
        assert not step.switched
