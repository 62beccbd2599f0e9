"""Tests for the repro.api session layer: registry, specs, sessions, events."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    BatchSpec,
    ControlStep,
    ControllerContext,
    ControllerRegistry,
    EpisodeSpec,
    ParkingSession,
    PerceptionOverrides,
    StepEvent,
    default_registry,
    register_method,
    run_episode_spec,
)
from repro.core.config import ICOILConfig
from repro.vehicle.actions import Action
from repro.world.scenario import (
    DifficultyLevel,
    ScenarioConfig,
    SpawnMode,
    build_scenario,
)
from repro.world.world import EpisodeStatus


def close_easy_config(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(
        difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.CLOSE, seed=seed
    )


class _ConstantController:
    """A trivial custom method: always emits the same action, never solves."""

    def __init__(self, action: Action) -> None:
        self.action = action

    def step_split(self, state, obstacles, lot, time=0.0):
        return None, lambda result: ControlStep(action=self.action, mode="constant")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestControllerRegistry:
    def test_builtin_methods_registered(self):
        names = default_registry().names()
        assert set(names) >= {"icoil", "il", "co", "expert"}

    def test_register_and_create(self):
        registry = ControllerRegistry()

        @registry.register("constant")
        def build(context):
            return _ConstantController(Action.idle())

        assert "constant" in registry
        scenario = build_scenario(close_easy_config())
        controller = registry.create("constant", ControllerContext(scenario))
        request, finish = controller.step_split(None, (), scenario.lot)
        assert request is None
        assert finish(None).mode == "constant"

    def test_duplicate_name_rejected(self):
        registry = ControllerRegistry()
        registry.register("dup", lambda context: _ConstantController(Action.idle()))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("dup", lambda context: _ConstantController(Action.idle()))

    def test_duplicate_allowed_with_overwrite(self):
        registry = ControllerRegistry()
        registry.register("dup", lambda context: "first")
        registry.register("dup", lambda context: "second", overwrite=True)
        assert registry.create("dup", None) == "second"

    def test_unknown_method_error_lists_registered_names(self):
        registry = ControllerRegistry()
        registry.register("alpha", lambda context: None)
        registry.register("beta", lambda context: None)
        with pytest.raises(ValueError) as excinfo:
            registry.factory_for("gamma")
        message = str(excinfo.value)
        assert "gamma" in message
        assert "alpha" in message and "beta" in message

    def test_controller_without_step_split_rejected_at_start(self):
        """A factory returning a non-controller fails at start(), naming step_split."""

        class _StepOnly:
            def step(self, state, obstacles, lot, time=0.0):
                return ControlStep(action=Action.idle(), mode="step-only")

        registry = ControllerRegistry()
        registry.register("step-only", lambda context: _StepOnly())
        spec = EpisodeSpec(method="step-only", scenario=close_easy_config(), max_steps=2)
        session = ParkingSession(spec, registry=registry)
        with pytest.raises(TypeError, match="step_split") as excinfo:
            session.start()
        assert "'step-only'" in str(excinfo.value)
        assert "_StepOnly" in str(excinfo.value)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ControllerRegistry().register("", lambda context: None)

    def test_custom_method_runs_end_to_end_without_touching_eval(self):
        """A method registered via the decorator runs through a full session."""

        @register_method("test-noop")
        def build_noop(context):
            return _ConstantController(Action.idle())

        try:
            spec = EpisodeSpec(
                method="test-noop", scenario=close_easy_config(), max_steps=5
            )
            outcome = run_episode_spec(spec)
            assert outcome.result.method == "test-noop"
            assert outcome.result.num_steps == 5
            assert set(outcome.trace.modes) == {"constant"}
        finally:
            default_registry().unregister("test-noop")


# ---------------------------------------------------------------------------
# Lazy perception construction (per-factory)
# ---------------------------------------------------------------------------
class TestLazyPerception:
    def test_expert_builds_no_perception(self):
        scenario = build_scenario(close_easy_config())
        context = ControllerContext(scenario)
        default_registry().create("expert", context)
        assert not context.has_renderer
        assert not context.has_detector

    def test_co_builds_only_detector(self):
        scenario = build_scenario(close_easy_config())
        context = ControllerContext(scenario)
        default_registry().create("co", context)
        assert not context.has_renderer
        assert context.has_detector

    def test_il_builds_only_renderer(self, small_policy):
        scenario = build_scenario(close_easy_config())
        context = ControllerContext(scenario, il_policy=small_policy)
        default_registry().create("il", context)
        assert context.has_renderer
        assert not context.has_detector

    def test_icoil_builds_both(self, small_policy):
        scenario = build_scenario(close_easy_config())
        context = ControllerContext(scenario, il_policy=small_policy)
        default_registry().create("icoil", context)
        assert context.has_renderer
        assert context.has_detector

    def test_perception_overrides_take_precedence(self):
        config = ScenarioConfig(difficulty=DifficultyLevel.HARD)
        scenario = build_scenario(config)
        context = ControllerContext(
            scenario,
            perception=PerceptionOverrides(image_noise_std=0.5, detection_noise_std=0.9),
        )
        assert context.image_noise_std == 0.5
        assert context.detection_noise_std == 0.9
        # Without overrides the difficulty-implied levels apply.
        plain = ControllerContext(scenario)
        assert plain.image_noise_std == config.resolved_image_noise
        assert plain.detection_noise_std == config.resolved_detection_noise


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
class TestSpecs:
    def test_episode_spec_round_trip(self):
        spec = EpisodeSpec(
            method="icoil",
            scenario=ScenarioConfig(
                difficulty=DifficultyLevel.HARD,
                spawn_mode=SpawnMode.REMOTE,
                num_static_obstacles=2,
                num_dynamic_obstacles=1,
                seed=17,
                image_noise_std=0.1,
            ),
            icoil=ICOILConfig(switch_threshold=0.2, guard_frames=5),
            perception=PerceptionOverrides(detection_noise_std=0.3),
            dt=0.05,
            time_limit=42.0,
            max_steps=99,
        )
        restored = EpisodeSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_batch_spec_round_trip(self):
        spec = BatchSpec(
            method="co",
            seeds=(3, 1, 4, 1, 5),
            difficulties=(DifficultyLevel.NORMAL, DifficultyLevel.HARD),
            spawn_mode=SpawnMode.CLOSE,
            num_static_obstacles=1,
            icoil=ICOILConfig(window_size=7),
            time_limit=33.0,
        )
        restored = BatchSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_episode_spec_round_trip_with_scenario_registry_reference(self):
        spec = EpisodeSpec(
            method="co",
            scenario=ScenarioConfig(
                scenario_name="parallel-hard",
                layout_params={"aisle_width": 7.5, "num_slots": 5},
                seed=5,
            ),
        )
        restored = EpisodeSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.scenario.scenario_name == "parallel-hard"
        assert restored.scenario.layout_overrides == {"aisle_width": 7.5, "num_slots": 5}

    def test_batch_spec_forwards_scenario_reference(self):
        spec = BatchSpec(
            method="expert",
            seeds=(1, 2),
            scenario_name="angled-easy",
            layout_params={"slot_pitch": 4.2},
        )
        restored = BatchSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        for episode in spec.episode_specs():
            assert episode.scenario.scenario_name == "angled-easy"
            assert episode.scenario.layout_overrides == {"slot_pitch": 4.2}

    def test_batch_spec_expansion_order_is_difficulty_major(self):
        spec = BatchSpec(
            method="expert",
            seeds=(5, 2),
            difficulties=(DifficultyLevel.EASY, DifficultyLevel.HARD),
        )
        expanded = spec.episode_specs()
        assert [(e.scenario.difficulty, e.scenario.seed) for e in expanded] == [
            (DifficultyLevel.EASY, 5),
            (DifficultyLevel.EASY, 2),
            (DifficultyLevel.HARD, 5),
            (DifficultyLevel.HARD, 2),
        ]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EpisodeSpec(method="")
        with pytest.raises(ValueError):
            EpisodeSpec(method="expert", dt=0.0)
        with pytest.raises(ValueError):
            BatchSpec(method="expert", seeds=())
        with pytest.raises(ValueError):
            BatchSpec(method="expert", seeds=(1,), difficulties=())

    def test_round_tripped_spec_reproduces_identical_result(self):
        """Same seed (via a serialized copy) must give an identical EpisodeResult."""
        spec = EpisodeSpec(
            method="expert", scenario=close_easy_config(seed=3), time_limit=70.0
        )
        restored = EpisodeSpec.from_dict(spec.to_dict())
        first = run_episode_spec(spec).result
        second = run_episode_spec(restored).result
        assert first == second

    def test_with_seed_replaces_only_the_seed(self):
        spec = EpisodeSpec(method="expert", scenario=close_easy_config(seed=1))
        reseeded = spec.with_seed(9)
        assert reseeded.scenario.seed == 9
        assert reseeded.scenario.difficulty == spec.scenario.difficulty
        assert spec.scenario.seed == 1


# ---------------------------------------------------------------------------
# Sessions and event streaming
# ---------------------------------------------------------------------------
class TestParkingSession:
    def test_unknown_method_fails_fast(self):
        with pytest.raises(ValueError, match="registered methods"):
            ParkingSession(EpisodeSpec(method="magic"))

    def test_il_method_requires_policy(self):
        spec = EpisodeSpec(method="il", scenario=close_easy_config(), max_steps=3)
        with pytest.raises(ValueError, match="IL policy"):
            ParkingSession(spec).run()

    def test_expert_session_parks_and_streams_events(self):
        spec = EpisodeSpec(
            method="expert", scenario=close_easy_config(), time_limit=70.0
        )
        session = ParkingSession(spec)
        received = []
        session.subscribe(received.append)
        outcome = session.run()
        assert outcome.result.status is EpisodeStatus.PARKED
        assert len(received) == outcome.result.num_steps
        assert all(isinstance(event, StepEvent) for event in received)
        # Bus stamps events with increasing sequence numbers.
        assert [event.sequence for event in received] == list(
            range(1, len(received) + 1)
        )

    def test_step_events_are_self_consistent(self):
        """Post-step state and post-step distance belong to the same frame."""
        spec = EpisodeSpec(
            method="expert", scenario=close_easy_config(), time_limit=70.0, max_steps=30
        )
        outcome = ParkingSession(spec).run()
        events = outcome.events
        # Consecutive events chain: this frame's post state is the next frame's pre state.
        for before, after in zip(events[:-1], events[1:]):
            assert np.allclose(before.state.position, after.pre_step_state.position)
        # The trace rows expose the post-step state at the post-step time.
        for index, event in enumerate(events):
            assert outcome.trace.times[index] == event.stamp
            assert np.allclose(outcome.trace.positions[index], event.state.position)
            assert outcome.trace.min_obstacle_distances[index] == event.min_obstacle_distance

    def test_icoil_session_records_modes_and_uncertainty(self, small_policy):
        spec = EpisodeSpec(
            method="icoil",
            scenario=close_easy_config(),
            time_limit=10.0,
            max_steps=8,
        )
        outcome = ParkingSession(spec, il_policy=small_policy).run()
        assert set(outcome.trace.modes) <= {"il", "co"}
        assert 0.0 <= outcome.result.co_mode_fraction <= 1.0
        assert outcome.trace.uncertainties.shape == (outcome.result.num_steps,)

    def test_session_runs_are_repeatable(self, small_policy):
        """Two sessions over the same spec produce identical results."""
        config = close_easy_config(seed=2)
        spec = EpisodeSpec(
            method="icoil", scenario=config, time_limit=10.0, max_steps=10
        )
        first = ParkingSession(spec, il_policy=small_policy).run().result
        second = ParkingSession(spec, il_policy=small_policy).run().result
        assert first == second
