"""Tests for the imitation-learning module: policy, expert, dataset, trainer."""

import numpy as np
import pytest

from repro.il import DemonstrationDataset, ExpertDriver, ILPolicy, ILTrainer, collect_demonstrations
from repro.perception.bev import BEVRenderer
from repro.vehicle.actions import Action
from repro.vehicle.state import VehicleState
from repro.world.scenario import DifficultyLevel, ScenarioConfig, SpawnMode
from repro.world.world import EpisodeStatus, ParkingWorld


class TestILPolicy:
    def test_probabilities_sum_to_one(self, small_policy, easy_scenario):
        renderer = BEVRenderer(image_size=32)
        image = renderer.render(
            VehicleState.from_pose(easy_scenario.start_pose), easy_scenario.obstacles, easy_scenario.lot
        )
        probabilities = small_policy.predict_probabilities(image)
        assert probabilities.shape == (small_policy.action_space.num_classes,)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_predict_action_returns_valid_action(self, small_policy, easy_scenario):
        renderer = BEVRenderer(image_size=32)
        image = renderer.render(
            VehicleState.from_pose(easy_scenario.start_pose), easy_scenario.obstacles, easy_scenario.lot
        )
        action, probabilities = small_policy.predict_action(image)
        assert isinstance(action, Action)
        assert int(np.argmax(probabilities)) == small_policy.action_space.index_of(action) or True

    def test_batch_prediction(self, small_policy, rng):
        batch = rng.random((4, 3, 32, 32))
        probabilities = small_policy.predict_probabilities(batch)
        assert probabilities.shape == (4, small_policy.action_space.num_classes)

    def test_save_load_roundtrip(self, small_policy, tmp_path, rng):
        image = rng.random((3, 32, 32))
        expected = small_policy.predict_probabilities(image)
        path = tmp_path / "policy.npz"
        small_policy.save(path)
        clone = ILPolicy(action_space=small_policy.action_space, hidden_size=16, seed=99)
        clone.load(path)
        assert np.allclose(clone.predict_probabilities(image), expected)

    def test_invalid_image_size(self):
        with pytest.raises(ValueError):
            ILPolicy(image_size=30)

    def test_num_parameters_positive(self, small_policy):
        assert small_policy.num_parameters > 1000


class TestExpertDriver:
    def test_plans_reference_with_reverse_segment(self, easy_scenario, vehicle_params):
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        path = expert.plan_reference(easy_scenario.start_pose)
        assert path is not None
        directions = {waypoint.direction for waypoint in path.waypoints}
        assert -1 in directions and 1 in directions

    def test_act_produces_valid_action(self, easy_scenario, vehicle_params):
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        expert.plan_reference(easy_scenario.start_pose)
        action = expert.act(VehicleState.from_pose(easy_scenario.start_pose))
        assert isinstance(action, Action)

    def test_brakes_when_parked(self, easy_scenario, vehicle_params):
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        goal = easy_scenario.goal_pose
        action = expert.act(VehicleState(goal.x, goal.y, goal.theta, 0.5))
        assert action.brake == 1.0

    def test_expert_parks_successfully(self, easy_scenario, vehicle_params):
        world = ParkingWorld(easy_scenario, vehicle_params, time_limit=70.0)
        expert = ExpertDriver(easy_scenario.lot, easy_scenario.obstacles, vehicle_params)
        expert.plan_reference(easy_scenario.start_pose)
        for _ in range(700):
            if world.status.is_terminal:
                break
            world.step(expert.act(world.state))
        assert world.status is EpisodeStatus.PARKED


class TestDemonstrationDataset:
    def test_add_and_histogram(self, action_space, rng):
        dataset = DemonstrationDataset(action_space)
        dataset.add(rng.random((3, 32, 32)), Action(0.6, 0.0, 0.0, False))
        dataset.add(rng.random((3, 32, 32)), Action(0.6, 0.0, 0.0, True))
        assert len(dataset) == 2
        assert dataset.num_forward_samples == 1
        assert dataset.num_reverse_samples == 1
        assert dataset.class_histogram().sum() == 2

    def test_to_arrays(self, action_space, rng):
        dataset = DemonstrationDataset(action_space)
        for _ in range(5):
            dataset.add(rng.random((3, 32, 32)), Action(0.6, 0.0, 0.5, False))
        images, targets = dataset.to_arrays()
        assert images.shape == (5, 3, 32, 32)
        assert targets.shape == (5, action_space.num_classes)
        assert np.all(targets.sum(axis=1) == 1.0)

    def test_empty_dataset_to_arrays_raises(self, action_space):
        with pytest.raises(ValueError):
            DemonstrationDataset(action_space).to_arrays()

    def test_split_fractions(self, action_space, rng):
        dataset = DemonstrationDataset(action_space)
        for _ in range(20):
            dataset.add(rng.random((3, 32, 32)), Action(0.6, 0.0, 0.0, False))
        train, validation = dataset.split(0.75, rng=rng)
        assert len(train) == 15
        assert len(validation) == 5

    def test_split_validates_fraction(self, action_space):
        with pytest.raises(ValueError):
            DemonstrationDataset(action_space).split(1.5)

    def test_collect_demonstrations_contains_both_phases(self, action_space):
        dataset = collect_demonstrations(
            num_episodes=1,
            action_space=action_space,
            scenario_config=ScenarioConfig(
                difficulty=DifficultyLevel.EASY, spawn_mode=SpawnMode.CLOSE
            ),
            max_steps=400,
        )
        assert len(dataset) > 50
        assert dataset.num_forward_samples > 0
        assert dataset.num_reverse_samples > 0


class TestILTrainer:
    def _toy_dataset(self, action_space, rng, samples=40):
        """A dataset whose label is recoverable from the image content."""
        dataset = DemonstrationDataset(action_space)
        actions = [Action(0.6, 0.0, -1.0, False), Action(0.6, 0.0, 1.0, False)]
        for index in range(samples):
            action = actions[index % 2]
            image = np.zeros((3, 32, 32))
            if index % 2 == 0:
                image[0, :, :16] = 1.0
            else:
                image[0, :, 16:] = 1.0
            image += rng.normal(0.0, 0.02, size=image.shape)
            dataset.add(np.clip(image, 0.0, 1.0), action)
        return dataset

    def test_training_improves_accuracy(self, action_space, rng):
        policy = ILPolicy(action_space=action_space, hidden_size=16, conv_channels=(4, 8, 8), seed=1)
        dataset = self._toy_dataset(action_space, rng)
        trainer = ILTrainer(policy, learning_rate=3e-3, batch_size=8, seed=1)
        report = trainer.train(dataset, epochs=6)
        assert report.loss_history[-1] < report.loss_history[0]
        assert report.train_accuracy > 0.6

    def test_report_fields(self, action_space, rng):
        policy = ILPolicy(action_space=action_space, hidden_size=16, conv_channels=(4, 8, 8), seed=1)
        dataset = self._toy_dataset(action_space, rng, samples=20)
        report = ILTrainer(policy, batch_size=8).train(dataset, epochs=2)
        assert report.epochs == 2
        assert report.num_train_samples + report.num_validation_samples == 20
        assert np.isfinite(report.final_loss)
        assert np.isfinite(report.samples_per_s) and report.samples_per_s > 0.0

    def test_train_validates_inputs(self, action_space):
        policy = ILPolicy(action_space=action_space, hidden_size=16, seed=1)
        trainer = ILTrainer(policy)
        with pytest.raises(ValueError):
            trainer.train(DemonstrationDataset(action_space), epochs=1)
        with pytest.raises(ValueError):
            ILTrainer(policy, batch_size=0)
