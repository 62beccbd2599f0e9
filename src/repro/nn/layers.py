"""Neural-network layers with forward and backward passes.

Every layer implements:

* ``forward(inputs, training)`` — returns the layer output and caches what
  the backward pass needs,
* ``backward(grad_output)`` — returns the gradient w.r.t. the layer input and
  accumulates parameter gradients,
* ``parameters()`` / ``gradients()`` — matching lists of arrays consumed by
  the optimizers.

Convolution gathers its im2col patches with one cached index and pooling
keeps a running maximum over its strided window views, so training the
small IL network (32x32x3 inputs) finishes in seconds.

Weight initialisation draws from an explicit ``rng`` when one is passed.
Construction without one draws from a module-level default stream (seeded
deterministically via the ``nn.layer`` domain, resettable with
:func:`seed_default_init`): consecutive bare constructions consume that one
stream, so two same-shape layers get *different* weights.  Historically
every bare construction seeded its own fresh ``default_rng(0)``, which made
every pair of same-shape layers in a network start bitwise identical.  For
fully order-independent per-layer streams, thread a :class:`LayerSeeder`
through construction instead (what :class:`~repro.il.policy.ILPolicy` does).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.determinism import derive_rng


class LayerSeeder:
    """Issues one independent init generator per constructed layer.

    Each call to :meth:`next_rng` derives a fresh
    :class:`numpy.random.Generator` from ``(commitment, "nn.layer",
    layer_index)`` via :func:`~repro.core.determinism.derive_seed`, so

    * every layer's initial weights are an order-*indexed* but otherwise
      independent function of the network seed (no shared stream: adding a
      draw to one layer's init cannot shift any other layer's weights),
    * two same-shape layers at different positions initialise differently,
    * the same seed reproduces the same network bitwise on any platform.
    """

    def __init__(self, commitment: Union[int, str]) -> None:
        self._commitment = commitment
        self._index = 0

    def next_rng(self) -> np.random.Generator:
        rng = derive_rng(self._commitment, "nn.layer", salt=str(self._index))
        self._index += 1
        return rng


_default_init_rng = derive_rng(0, "nn.layer", salt="default")


def seed_default_init(seed: Union[int, str] = 0) -> None:
    """Reset the module-level default init stream (bare constructions)."""
    global _default_init_rng
    _default_init_rng = derive_rng(seed, "nn.layer", salt="default")


def _init_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else _default_init_rng


class Layer:
    """Base class for all layers."""

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter arrays (possibly empty)."""
        return []

    def gradients(self) -> List[np.ndarray]:
        """Gradients matching :meth:`parameters` order."""
        return []

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense layer dimensions must be positive")
        rng = _init_rng(rng)
        scale = np.sqrt(2.0 / in_features)
        self.weights = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2:
            raise ValueError(f"Dense expects 2-D input (batch, features), got shape {inputs.shape}")
        if inputs.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"Dense expects {self.weights.shape[0]} input features, got {inputs.shape[1]}"
            )
        self._inputs = inputs if training else None
        return inputs @ self.weights + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("Dense.backward called without a preceding training forward pass")
        self.grad_weights = self._inputs.T @ grad_output
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    def parameters(self) -> List[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        mask = inputs > 0.0
        if training:
            self._mask = mask
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU.backward called without a preceding training forward pass")
        return grad_output * self._mask


class Flatten(Layer):
    """Flattens all dimensions after the batch dimension."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("Flatten.backward called without a preceding forward pass")
        return grad_output.reshape(self._input_shape)


class Dropout(Layer):
    """Inverted dropout; identity when not training."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"Dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if not training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class Softmax(Layer):
    """Numerically stable softmax over the last dimension.

    The backward pass assumes the upstream loss is cross-entropy computed on
    the softmax output (the usual fused formulation), in which case the
    gradient passed in is already ``(probabilities - one_hot)``; softmax then
    passes it through unchanged.  This matches :class:`repro.nn.losses.CrossEntropyLoss`.
    """

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        shifted = inputs - inputs.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Conv2D(Layer):
    """2-D convolution over ``(N, C, H, W)`` inputs with 'same'-style padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("Conv2D channel counts must be positive")
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("Conv2D kernel_size/stride must be positive and padding non-negative")
        rng = _init_rng(rng)
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weights = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size))
        self.bias = np.zeros(out_channels)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None
        self._gather_cache: Dict[Tuple[int, int], np.ndarray] = {}

    def _gather_index(self, height: int, width: int) -> np.ndarray:
        """Flat padded-plane index of every ``(row, col, out_row, out_col)`` tap.

        Shape ``(k, k, out_h, out_w)``; built once per input size.
        """
        index = self._gather_cache.get((height, width))
        if index is None:
            k, s, p = self.kernel_size, self.stride, self.padding
            out_h = (height + 2 * p - k) // s + 1
            out_w = (width + 2 * p - k) // s + 1
            rows = np.arange(k)[:, None, None, None] + s * np.arange(out_h)[None, None, :, None]
            cols = np.arange(k)[None, :, None, None] + s * np.arange(out_w)[None, None, None, :]
            index = rows * (width + 2 * p) + cols
            self._gather_cache[(height, width)] = index
        return index

    def _im2col(self, inputs: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """``(N, C, k, k, out_h, out_w)`` patches: one gather from a zero-padded copy."""
        batch, channels, height, width = inputs.shape
        p = self.padding
        padded = np.zeros((batch, channels, height + 2 * p, width + 2 * p))
        padded[:, :, p : p + height, p : p + width] = inputs
        index = self._gather_index(height, width)
        columns = np.take(padded.reshape(batch, channels, -1), index, axis=2)
        return columns, index.shape[2], index.shape[3]

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 4:
            raise ValueError(f"Conv2D expects 4-D input (N, C, H, W), got shape {inputs.shape}")
        if inputs.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"Conv2D expects {self.weights.shape[1]} input channels, got {inputs.shape[1]}"
            )
        columns, out_h, out_w = self._im2col(inputs)
        output = np.einsum("nckxhw,ockx->nohw", columns, self.weights) + self.bias[None, :, None, None]
        if training:
            self._cache = (columns, inputs.shape)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("Conv2D.backward called without a preceding training forward pass")
        columns, input_shape = self._cache
        batch, channels, height, width = input_shape
        k, s, p = self.kernel_size, self.stride, self.padding

        self.grad_weights = np.einsum("nohw,nckxhw->ockx", grad_output, columns)
        self.grad_bias = grad_output.sum(axis=(0, 2, 3))

        grad_columns = np.einsum("nohw,ockx->nckxhw", grad_output, self.weights)
        grad_padded = np.zeros((batch, channels, height + 2 * p, width + 2 * p))
        out_h, out_w = grad_output.shape[2], grad_output.shape[3]
        for row in range(k):
            row_end = row + s * out_h
            for col in range(k):
                col_end = col + s * out_w
                grad_padded[:, :, row:row_end:s, col:col_end:s] += grad_columns[:, :, row, col, :, :]
        if p > 0:
            return grad_padded[:, :, p:-p, p:-p]
        return grad_padded

    def parameters(self) -> List[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class MaxPool2D(Layer):
    """Max pooling over ``(N, C, H, W)`` inputs with a square window.

    The forward pass is a running ``np.maximum`` over the ``k * k`` strided
    views of the input, in row-major window order; training also records
    the first window index that attains the maximum.
    """

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None) -> None:
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride or pool_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 4:
            raise ValueError(f"MaxPool2D expects 4-D input, got shape {inputs.shape}")
        height, width = inputs.shape[2], inputs.shape[3]
        k, s = self.pool_size, self.stride
        out_h = (height - k) // s + 1
        out_w = (width - k) // s + 1
        views = [
            inputs[:, :, row : row + s * out_h : s, col : col + s * out_w : s]
            for row in range(k)
            for col in range(k)
        ]
        output = views[0].copy()
        argmax = np.zeros(output.shape, dtype=np.intp) if training else None
        for index, view in enumerate(views[1:], start=1):
            if argmax is not None:
                # Strictly greater: on ties the first window index wins.
                np.copyto(argmax, index, where=view > output)
            # On +0.0/-0.0 ties np.maximum keeps its second operand, the
            # later view: what NumPy's reduction over a 2x2 window returns.
            np.maximum(output, view, out=output)
        if argmax is not None:
            self._cache = (argmax, inputs.shape)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Scatter-add ``grad_output`` onto each window's argmax.

        One ``np.bincount`` over flat input indices, in the C order of the
        pooled grid: the same accumulation order as an ``np.add.at`` scatter,
        so overlapping windows sum bit-identically.
        """
        if self._cache is None:
            raise RuntimeError("MaxPool2D.backward called without a preceding training forward pass")
        argmax, input_shape = self._cache
        batch, channels, height, width = input_shape
        out_h, out_w = argmax.shape[2], argmax.shape[3]
        k, s = self.pool_size, self.stride
        planes = np.arange(batch * channels).reshape(batch, channels, 1, 1) * (height * width)
        corners = (s * np.arange(out_h))[:, None] * width + s * np.arange(out_w)[None, :]
        flat = planes + corners + (argmax // k) * width + argmax % k
        grad_input = np.bincount(
            flat.ravel(), weights=grad_output.ravel(), minlength=batch * channels * height * width
        )
        return grad_input.reshape(input_shape)
