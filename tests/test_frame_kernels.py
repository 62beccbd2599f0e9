"""Bitwise parity of the batched frame-path kernels with their per-object loops.

Each reference below is the per-object loop the kernel replaced, kept here
as the oracle:

* :func:`polygon_distances` and the world step's minimum distance and
  status against :func:`polygon_polygon_distance` called once per pair;
* :meth:`BEVRenderer.render` against one point-in-polygon mask per polygon;
* :class:`MaxPool2D` and :class:`Conv2D` against the window-copy,
  ``np.add.at`` and pad-and-slice loops.

Every comparison is exact (``np.array_equal``) and also compares
``np.signbit``, because ReLU emits ``-0.0`` and a sign flip on a zero is a
changed bit.  The property tests run under the fixed, derandomized ``ci``
Hypothesis profile; ``HYPOTHESIS_PROFILE=dev`` explores fresh examples.
"""

from __future__ import annotations

import copy
import math
import os

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - exercised only on minimal installs
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.api import ControllerContext
from repro.geometry.collision import polygon_distances, polygon_polygon_distance
from repro.geometry.se2 import SE2
from repro.geometry.shapes import ConvexPolygon, OrientedBox, edge_vectors
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential, Softmax
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam
from repro.perception.bev import BEVRenderer
from repro.vehicle.actions import Action
from repro.vehicle.state import VehicleState
from repro.world.obstacles import StaticObstacle
from repro.world.scenario import DifficultyLevel, ScenarioConfig, SpawnMode, build_scenario
from repro.world.world import EpisodeStatus, ParkingWorld

settings.register_profile("ci", derandomize=True, max_examples=25, deadline=None)
settings.register_profile("dev", max_examples=50, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

PRESETS = (
    "legacy",
    "perpendicular-easy",
    "perpendicular-hard",
    "parallel-easy",
    "parallel-hard",
    "angled-easy",
    "angled-cluttered",
    "dead-end-normal",
)


def assert_bitwise_equal(actual, expected) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


# ---------------------------------------------------------------------------
# Box distances
# ---------------------------------------------------------------------------
def kernel_distances(box: OrientedBox, others) -> np.ndarray:
    corners = box.vertices()
    stacked = np.stack([other.vertices() for other in others])
    return polygon_distances(corners, edge_vectors(corners), stacked, edge_vectors(stacked))


def reference_distances(box: OrientedBox, others) -> np.ndarray:
    return np.array(
        [polygon_polygon_distance(box.to_polygon(), other.to_polygon()) for other in others]
    )


box_strategy = st.builds(
    OrientedBox,
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
    st.floats(0.2, 6.0),
    st.floats(0.2, 3.0),
    st.floats(-math.pi, math.pi),
)


class TestPolygonDistances:
    @given(box=box_strategy, others=st.lists(box_strategy, min_size=1, max_size=8))
    def test_random_boxes_match_the_pairwise_function(self, box, others):
        assert_bitwise_equal(kernel_distances(box, others), reference_distances(box, others))

    @pytest.mark.parametrize(
        "other",
        [
            OrientedBox(2.0, 0.0, 2.0, 1.0, 0.0),  # shared edge
            OrientedBox(2.0, 1.0, 2.0, 1.0, 0.0),  # corner contact
            OrientedBox(0.1, 0.0, 0.5, 0.3, 0.4),  # contained
            OrientedBox(0.0, 0.0, 2.0, 1.0, 0.0),  # identical
            OrientedBox(0.0, 1.0 + 1e-9, 2.0, 1.0, 1e-12),  # near-parallel, 1 nm gap
            OrientedBox(0.0, 1.0, 2.0, 1.0, -1e-12),  # near-parallel, touching
            OrientedBox(2.0 + 1e-12, 0.0, 2.0, 1.0, 1e-12),  # near-parallel shared edge
            OrientedBox(5.0, 3.0, 2.0, 1.0, math.pi / 2.0),  # separated
        ],
        ids=[
            "shared-edge",
            "corner",
            "contained",
            "identical",
            "near-parallel-gap",
            "near-parallel-touch",
            "near-parallel-edge",
            "separated",
        ],
    )
    @pytest.mark.parametrize("heading", [0.0, 0.3, -2.1])
    def test_boundary_cases_match_the_pairwise_function(self, other, heading):
        # Rotate both boxes about the origin so contact is not axis-aligned.
        pose = SE2(0.0, 0.0, heading)
        centre = pose.transform_point(other.center)
        moved = OrientedBox(
            float(centre[0]), float(centre[1]), other.length, other.width, other.heading + heading
        )
        box = OrientedBox(0.0, 0.0, 2.0, 1.0, heading)
        others = [moved, other, box]
        assert_bitwise_equal(kernel_distances(box, others), reference_distances(box, others))
        assert_bitwise_equal(kernel_distances(moved, [box]), reference_distances(moved, [box]))

    def test_sub_femtometre_boxes_have_no_separating_axis(self):
        # Edges of at most 1e-15 m give no SAT axis; with none left the
        # pairwise function reports an overlap, however far apart.
        speck = OrientedBox(0.0, 0.0, 1e-16, 1e-16, 0.3)
        others = [OrientedBox(5.0, 0.0, 1e-16, 1e-16, 0.0), OrientedBox(5.0, 0.0, 1.0, 1.0, 0.0)]
        expected = reference_distances(speck, others)
        assert expected[0] == 0.0 and expected[1] > 0.0
        assert_bitwise_equal(kernel_distances(speck, others), expected)

    def test_zero_length_edges_give_no_separating_axis(self):
        sliver = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        box = np.array([[3.0, -1.0], [4.0, -1.0], [4.0, 1.0], [3.0, 1.0]])
        polygon_distance = polygon_polygon_distance(ConvexPolygon(sliver), ConvexPolygon(box))
        slivers = sliver[None]
        distances = polygon_distances(box, edge_vectors(box), slivers, edge_vectors(slivers))
        assert_bitwise_equal(distances, [polygon_distance])


# ---------------------------------------------------------------------------
# World step
# ---------------------------------------------------------------------------
def reference_min_distance(world: ParkingWorld, state: VehicleState, time: float) -> float:
    """The per-obstacle loop ``ParkingWorld`` ran before the batched kernel."""
    footprint = state.footprint(world.vehicle_params).to_polygon()
    distances = [
        polygon_polygon_distance(footprint, obstacle.at_time(time).box.to_polygon())
        for obstacle in world.scenario.obstacles
    ]
    return min(distances) if distances else float("inf")


def reference_status(world: ParkingWorld, state: VehicleState, time: float) -> EpisodeStatus:
    if reference_min_distance(world, state, time) == 0.0:
        return EpisodeStatus.COLLIDED
    bounds = world.scenario.lot.bounds
    corners = state.footprint(world.vehicle_params).vertices()
    if not all(bounds.contains(corner) for corner in corners):
        return EpisodeStatus.OUT_OF_BOUNDS
    parked = world.scenario.lot.goal_space.contains_pose(state.pose)
    if parked and abs(state.velocity) < 0.3:
        return EpisodeStatus.PARKED
    if time >= world.time_limit:
        return EpisodeStatus.TIMED_OUT
    return EpisodeStatus.RUNNING


def _probe_states(scenario, rng: np.random.Generator, count: int):
    """Poses across the lot, half of them centred on an obstacle or the goal."""
    bounds = scenario.lot.bounds
    anchors = [obstacle.box.center for obstacle in scenario.obstacles]
    anchors.append(scenario.lot.goal_space.box.center)
    for index in range(count):
        if index % 2:
            anchor = anchors[index % len(anchors)]
            x, y = anchor + rng.normal(0.0, 2.0, size=2)
        else:
            x = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0)
            y = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0)
        yield VehicleState(
            x=float(x),
            y=float(y),
            heading=float(rng.uniform(-math.pi, math.pi)),
            velocity=float(rng.choice([0.0, 0.1, 1.0])),
        )


class TestWorldStepKernel:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("difficulty", [DifficultyLevel.EASY, DifficultyLevel.NORMAL])
    def test_min_distance_and_status_match_the_loop(self, preset, difficulty):
        scenario = build_scenario(
            ScenarioConfig(scenario_name=preset, difficulty=difficulty, seed=7)
        )
        if difficulty is DifficultyLevel.NORMAL:
            assert scenario.dynamic_obstacles, "NORMAL presets carry patrols"
        world = ParkingWorld(scenario, time_limit=30.0)
        rng = np.random.default_rng(sum(map(ord, preset)))
        statuses = set()
        for state in _probe_states(scenario, rng, 60):
            time = 0.1 * int(rng.integers(0, 400))
            world._state, world._time = state, time
            assert_bitwise_equal(
                world.min_obstacle_distance(), reference_min_distance(world, state, time)
            )
            status = world._evaluate_status()
            assert status is reference_status(world, state, time)
            statuses.add(status)
        assert EpisodeStatus.COLLIDED in statuses and EpisodeStatus.RUNNING in statuses

    @pytest.mark.parametrize("preset", ["legacy", "angled-cluttered"])
    def test_step_results_match_the_loop(self, preset):
        scenario = build_scenario(
            ScenarioConfig(
                scenario_name=preset,
                difficulty=DifficultyLevel.NORMAL,
                spawn_mode=SpawnMode.RANDOM,
                seed=3,
            )
        )
        world = ParkingWorld(scenario, time_limit=20.0)
        rng = np.random.default_rng(11)
        while not world.status.is_terminal:
            action = Action(float(rng.uniform(0.0, 0.8)), 0.0, float(rng.uniform(-0.6, 0.6)))
            result = world.step(action)
            expected = reference_min_distance(world, result.state, result.time)
            assert_bitwise_equal(result.min_obstacle_distance, expected)
            assert result.status is reference_status(world, result.state, result.time)


# ---------------------------------------------------------------------------
# BEV raster
# ---------------------------------------------------------------------------
def reference_render(renderer, rng, state: VehicleState, obstacles, lot) -> np.ndarray:
    """The per-polygon mask loop ``BEVRenderer.render`` ran before the broadcast."""
    size, view_range = renderer.image_size, renderer.view_range
    coords = (np.arange(size) + 0.5) / size * (2.0 * view_range) - view_range
    ego_x = view_range - (np.arange(size) + 0.5) / size * (2.0 * view_range)
    grid_x, grid_y = np.meshgrid(ego_x, coords, indexing="ij")
    points = state.pose.transform_points(np.stack([grid_x.ravel(), grid_y.ravel()], axis=1))

    def mask(polygon: ConvexPolygon) -> np.ndarray:
        vertices = polygon.vertices()
        edges = np.roll(vertices, -1, axis=0) - vertices
        inside = np.ones(points.shape[0], dtype=bool)
        for vertex, edge in zip(vertices, edges):
            to_points = points - vertex
            cross = edge[0] * to_points[:, 1] - edge[1] * to_points[:, 0]
            inside &= cross >= -1e-12
        return inside.astype(float)

    obstacle_channel = np.zeros(size * size)
    for obstacle in obstacles:
        obstacle_channel = np.maximum(obstacle_channel, mask(obstacle.box.to_polygon()))
    data = np.stack(
        [
            obstacle_channel.reshape(size, size),
            mask(lot.goal_space.box.to_polygon()).reshape(size, size),
            mask(lot.bounds.to_polygon()).reshape(size, size),
        ]
    )
    return renderer.noise.apply(data, rng)


pose_strategy = st.tuples(
    st.floats(-0.1, 1.1), st.floats(-0.1, 1.1), st.floats(-math.pi, math.pi)
)


class TestBEVRaster:
    @pytest.mark.parametrize(
        "difficulty,preset",
        [
            (DifficultyLevel.EASY, "legacy"),
            (DifficultyLevel.EASY, "angled-cluttered"),
            (DifficultyLevel.HARD, "perpendicular-hard"),
            (DifficultyLevel.HARD, "dead-end-normal"),
        ],
    )
    @given(poses=st.lists(pose_strategy, min_size=1, max_size=4))
    def test_render_matches_the_per_polygon_loop(self, difficulty, preset, poses):
        scenario = build_scenario(
            ScenarioConfig(scenario_name=preset, difficulty=difficulty, seed=5)
        )
        renderer = ControllerContext(scenario).renderer
        reference_rng = copy.deepcopy(renderer._rng)
        bounds = scenario.lot.bounds
        # Consecutive frames through one renderer: equal images on every
        # frame also show that the noise stream is drawn identically.
        for index, (fx, fy, heading) in enumerate(poses):
            state = VehicleState(
                x=bounds.min_x + fx * bounds.width,
                y=bounds.min_y + fy * bounds.height,
                heading=heading,
            )
            obstacles = [obstacle.at_time(0.7 * index) for obstacle in scenario.obstacles]
            image = renderer.render(state, obstacles, scenario.lot)
            expected = reference_render(renderer, reference_rng, state, obstacles, scenario.lot)
            assert_bitwise_equal(image.data, expected)
        assert renderer._rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-10, -1e-10])
    @pytest.mark.parametrize("heading", [0.0, math.pi / 2.0])
    def test_pixel_centres_on_polygon_edges(self, offset, heading):
        """Pixel centres on, or within 1e-10 m of, the lot bounds and an obstacle edge."""
        scenario = build_scenario(ScenarioConfig(scenario_name="legacy", seed=5))
        obstacle = StaticObstacle("edge", OrientedBox(10.0, 10.0, 4.0, 2.0, 0.0))
        renderer = BEVRenderer()
        # Pixel centres sit at odd multiples of half a pixel (0.46875 m, an
        # exact binary fraction) from the ego origin.  The first pose puts
        # the outermost row and column on x = 0 and y = 0, the lot's
        # lower-left edges; the second puts the two centre rows and columns
        # on the obstacle's edges x = 8 and y = 9; both shifted by ``offset``.
        half = renderer.resolution / 2.0
        first = renderer.view_range - half
        corner_x = offset - first if heading == 0.0 else offset + first
        states = (
            VehicleState(x=corner_x, y=offset + first, heading=heading),
            VehicleState(x=8.0 - half + offset, y=9.0 - half + offset, heading=heading),
        )
        for frame_state in states:
            reference_rng = copy.deepcopy(renderer._rng)
            image = renderer.render(frame_state, [obstacle], scenario.lot)
            expected = reference_render(
                renderer, reference_rng, frame_state, [obstacle], scenario.lot
            )
            assert_bitwise_equal(image.data, expected)

    def test_goal_and_obstacle_pixels_are_drawn(self):
        scenario = build_scenario(ScenarioConfig(scenario_name="legacy", seed=5))
        renderer = ControllerContext(scenario).renderer
        goal = scenario.lot.goal_space.target_pose
        image = renderer.render(
            VehicleState(x=goal.x, y=goal.y, heading=goal.theta), scenario.obstacles, scenario.lot
        )
        assert image.goal_channel.sum() > 0 and image.obstacle_channel.sum() > 0


# ---------------------------------------------------------------------------
# Pooling and convolution
# ---------------------------------------------------------------------------
def reference_pool(inputs: np.ndarray, k: int, s: int):
    """Window-copy max pooling: ``(output, argmax)``."""
    batch, channels, height, width = inputs.shape
    out_h = (height - k) // s + 1
    out_w = (width - k) // s + 1
    windows = np.zeros((batch, channels, out_h, out_w, k * k))
    for row in range(k):
        for col in range(k):
            windows[:, :, :, :, row * k + col] = inputs[
                :, :, row : row + s * out_h : s, col : col + s * out_w : s
            ]
    return windows.max(axis=-1), windows.argmax(axis=-1)


def reference_pool_backward(grad_output, argmax, input_shape, k: int, s: int) -> np.ndarray:
    batch, channels, out_h, out_w = argmax.shape
    grad_input = np.zeros(input_shape)
    batch_idx, channel_idx, out_row, out_col = np.indices((batch, channels, out_h, out_w))
    in_row = out_row * s + argmax // k
    in_col = out_col * s + argmax % k
    np.add.at(grad_input, (batch_idx, channel_idx, in_row, in_col), grad_output)
    return grad_input


def reference_im2col(inputs: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """Pad-and-slice im2col: ``(N, C, k, k, out_h, out_w)``."""
    batch, channels, height, width = inputs.shape
    padded = np.pad(inputs, ((0, 0), (0, 0), (p, p), (p, p)))
    out_h = (height + 2 * p - k) // s + 1
    out_w = (width + 2 * p - k) // s + 1
    columns = np.zeros((batch, channels, k, k, out_h, out_w))
    for row in range(k):
        for col in range(k):
            columns[:, :, row, col, :, :] = padded[
                :, :, row : row + s * out_h : s, col : col + s * out_w : s
            ]
    return columns


def reference_conv(layer: Conv2D, inputs: np.ndarray) -> np.ndarray:
    columns = reference_im2col(inputs, layer.kernel_size, layer.stride, layer.padding)
    return (
        np.einsum("nckxhw,ockx->nohw", columns, layer.weights) + layer.bias[None, :, None, None]
    )


def relu_like(rng: np.random.Generator, shape) -> np.ndarray:
    """ReLU output with ties: integer levels, ``+0.0`` and ``-0.0`` zeros."""
    values = rng.integers(-2, 4, size=shape).astype(float)
    values = values * (values > 0.0)
    zeros = values == 0.0
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return values


POOL_SETTINGS = [(2, 2), (2, 1), (3, 1), (3, 2), (3, 3), (1, 1)]


class TestMaxPool2D:
    @pytest.mark.parametrize("k,s", POOL_SETTINGS)
    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 4, 9, 7), (3, 2, 5, 11)])
    def test_forward_argmax_and_backward_match_the_loops(self, k, s, shape):
        rng = np.random.default_rng(k * 10 + s)
        for inputs in (relu_like(rng, shape), rng.normal(size=shape)):
            layer = MaxPool2D(k, s)
            output = layer.forward(inputs, training=True)
            expected, argmax = reference_pool(inputs, k, s)
            assert np.array_equal(output, expected)
            if k * k <= 4:
                # Signed zeros too: for 2x2 (and 1x1) windows the running
                # maximum resolves +0/-0 ties as the window reduction does.
                assert_bitwise_equal(output, expected)
            grad = rng.normal(size=output.shape)
            grad[rng.random(grad.shape) < 0.2] = -0.0
            grad_input = layer.backward(grad)
            assert_bitwise_equal(
                grad_input, reference_pool_backward(grad, argmax, inputs.shape, k, s)
            )
            assert np.array_equal(layer._cache[0], argmax)

    def test_inference_does_not_alias_the_input(self):
        inputs = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        output = MaxPool2D(1).forward(inputs)
        output[...] = 7.0
        assert not np.any(inputs == 7.0)


CONV_SETTINGS = [(3, 1, 1), (3, 2, 1), (2, 2, 0), (3, 1, 0), (5, 1, 2), (4, 3, 2), (1, 1, 0)]


class TestConv2D:
    @pytest.mark.parametrize("k,s,p", CONV_SETTINGS)
    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 2, 9, 7)])
    def test_forward_and_backward_match_the_loops(self, k, s, p, shape):
        rng = np.random.default_rng(k * 100 + s * 10 + p)
        layer = Conv2D(shape[1], 4, kernel_size=k, stride=s, padding=p, rng=rng)
        inputs = relu_like(rng, shape) + rng.normal(size=shape) * (rng.random(shape) < 0.5)
        output = layer.forward(inputs, training=True)
        assert_bitwise_equal(output, reference_conv(layer, inputs))
        columns = reference_im2col(inputs, k, s, p)
        assert_bitwise_equal(layer._cache[0], columns)
        grad = rng.normal(size=output.shape)
        grad_input = layer.backward(grad)
        assert_bitwise_equal(layer.grad_weights, np.einsum("nohw,nckxhw->ockx", grad, columns))
        # The col2im scatter is unchanged; its input columns are the same.
        grad_columns = np.einsum("nohw,ockx->nckxhw", grad, layer.weights)
        grad_padded = np.zeros((shape[0], shape[1], shape[2] + 2 * p, shape[3] + 2 * p))
        out_h, out_w = grad.shape[2], grad.shape[3]
        for row in range(k):
            for col in range(k):
                grad_padded[:, :, row : row + s * out_h : s, col : col + s * out_w : s] += (
                    grad_columns[:, :, row, col]
                )
        expected = grad_padded[:, :, p : p + shape[2], p : p + shape[3]]
        assert_bitwise_equal(grad_input, expected)


class _LoopConv2D(Conv2D):
    def forward(self, inputs, training=False):
        columns = reference_im2col(inputs, self.kernel_size, self.stride, self.padding)
        if training:
            self._cache = (columns, inputs.shape)
        return reference_conv(self, inputs)


class _LoopMaxPool2D(MaxPool2D):
    def forward(self, inputs, training=False):
        output, argmax = reference_pool(inputs, self.pool_size, self.stride)
        if training:
            self._cache = (argmax, inputs.shape)
        return output

    def backward(self, grad_output):
        argmax, input_shape = self._cache
        return reference_pool_backward(
            grad_output, argmax, input_shape, self.pool_size, self.stride
        )


def _network(conv_cls, pool_cls, seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            conv_cls(3, 4, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            pool_cls(2),
            conv_cls(4, 6, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            pool_cls(2),
            Flatten(),
            Dense(6 * 4 * 4, 5, rng=rng),
            Softmax(),
        ]
    )


class TestNetworkParity:
    def test_predictions_match_one_at_a_time_and_batched(self):
        fast = _network(Conv2D, MaxPool2D, seed=3)
        loop = _network(_LoopConv2D, _LoopMaxPool2D, seed=3)
        images = np.random.default_rng(4).random((12, 3, 16, 16))
        assert_bitwise_equal(fast.predict(images), loop.predict(images))
        for image in images:
            assert_bitwise_equal(fast.predict(image[None]), loop.predict(image[None]))

    def test_two_epochs_of_training_end_with_identical_parameters(self):
        fast = _network(Conv2D, MaxPool2D, seed=5)
        loop = _network(_LoopConv2D, _LoopMaxPool2D, seed=5)
        rng = np.random.default_rng(6)
        images = rng.random((40, 3, 16, 16))
        targets = np.eye(5)[rng.integers(0, 5, size=40)]
        histories = [
            network.fit(
                images,
                targets,
                loss=CrossEntropyLoss(),
                optimizer=Adam(learning_rate=1e-2),
                epochs=2,
                batch_size=8,
                rng=np.random.default_rng(7),
            )
            for network in (fast, loop)
        ]
        assert histories[0] == histories[1]
        for fast_param, loop_param in zip(fast.parameters(), loop.parameters()):
            assert_bitwise_equal(fast_param, loop_param)
