"""Minimal dense feed-forward network engine with hand-derived gradients.

Everything runs on float64 numpy arrays. Matrices are row-major
(samples, features). The engine supports relu hidden layers and linear
output layers, which is all the autoencoders in this package need.

A DenseNet keeps its parameters in one vector, `net.params`, laid out as
[W0, b0, W1, b1, ...]; each layer's weight and bias are views into it.

forward without a Workspace validates its input and returns fresh arrays.
A training loop instead owns a Workspace per net: forward writes the
layer activations into it, and backward reads them and writes its deltas
and its gradient vector there, so a step runs each matmul once and
allocates no batch-sized arrays. The caller validates the input once, up
front. adam_step updates a whole net's vector in one pass; AdamState is
mutated only by adam_step, so a single training loop owns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("relu", "linear")


def as_matrix(values, name: str = "matrix") -> Array:
    """Coerce to a finite 2-D float64 array."""
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass
class Layer:
    weight: Array  # (fan_in, fan_out)
    bias: Array    # (fan_out,)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError(f"layer weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight fan-out "
                f"{self.weight.shape[1]}"
            )
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters contain non-finite entries")


def _layer_views(vector: Array, layers: list[Layer]) -> list[Array]:
    """[W0, b0, W1, b1, ...] as views into `vector`, in the layout of net.params."""
    views, start = [], 0
    for layer in layers:
        for shape in (layer.weight.shape, layer.bias.shape):
            size = math.prod(shape)
            views.append(vector[start : start + size].reshape(shape))
            start += size
    return views


@dataclass
class DenseNet:
    """Layers whose arrays are copied into `params` and then viewed from it.

    A Layer belongs to the one net built from it.
    """

    layers: list[Layer]
    params: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("DenseNet needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.weight.shape[1]} -> "
                    f"{nxt.weight.shape[0]}"
                )
        self.params = np.concatenate(
            [a.ravel() for layer in self.layers for a in (layer.weight, layer.bias)]
        )
        self._link()

    def _link(self) -> None:
        views = _layer_views(self.params, self.layers)
        for layer, weight, bias in zip(self.layers, views[::2], views[1::2]):
            layer.weight, layer.bias = weight, bias

    def __setstate__(self, state: dict) -> None:
        # deepcopy and pickle copy each view on its own; re-link them
        self.__dict__.update(state)
        self._link()

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]


def init_dense_net(dims: list[int] | tuple[int, ...], rng: np.random.Generator) -> DenseNet:
    """Build a relu net with the given dimension chain.

    Weights are uniform in +-1/sqrt(fan_in), biases zero; hidden layers use
    relu and the last layer is linear.
    """
    if len(dims) < 2:
        raise ValueError("need an input and an output dimension")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        act = "linear" if i == len(dims) - 2 else "relu"
        layers.append(Layer(weight, np.zeros(fan_out), act))
    return DenseNet(layers)


class Workspace:
    """Per-layer scratch arrays for training one net on batches of up to `rows` rows.

    forward() writes each layer's activations here and backward() reads
    them, so a step runs each matmul once. backward() writes its deltas
    and the parameter gradient here too: `grad` has the layout of
    net.params and `grads` holds its per-layer views. A batch of m < rows
    rows uses the first m rows of every buffer. With `input_grad` the
    workspace also holds dL/dx, for chaining into an upstream network.
    """

    def __init__(self, net: DenseNet, rows: int, input_grad: bool = False) -> None:
        self.acts = [np.empty((rows, layer.weight.shape[1])) for layer in net.layers]
        self.masks = [
            np.empty((rows, layer.weight.shape[1]), dtype=bool)
            if layer.activation == "relu" else None
            for layer in net.layers
        ]
        # deltas[i] holds dL/d(input of layer i); layer 0's only if asked for
        self.deltas = [
            np.empty((rows, layer.weight.shape[0])) if i or input_grad else None
            for i, layer in enumerate(net.layers)
        ]
        self.grad = np.empty_like(net.params)
        self.grads = _layer_views(self.grad, net.layers)


def forward(net: DenseNet, x: Array, work: Workspace | None = None) -> Array:
    """Evaluate the network on a batch, returning the final activations.

    Without `work` the input is validated and fresh arrays are returned.
    With `work` (the training path, whose caller validated x) the
    activations are written into it and the result is a view of its last
    buffer.
    """
    if work is None:
        x = as_matrix(x, "input")
        if x.shape[1] != net.input_dim:
            raise ValueError(
                f"input has {x.shape[1]} columns but the first layer expects {net.input_dim}"
            )
    m = x.shape[0]
    a = x
    for i, layer in enumerate(net.layers):
        a = np.matmul(a, layer.weight, out=None if work is None else work.acts[i][:m])
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
    return a


def backward(
    net: DenseNet, x: Array, loss_grad: Array, work: Workspace
) -> tuple[Array, Array | None]:
    """Backpropagate `loss_grad` (dL/d output) through the network.

    `work` must hold the activations of `forward(net, x, work)`. Returns
    (grad, input_grad): grad is work's gradient vector, laid out like
    net.params, and input_grad is dL/dx (a view into work) if work was
    built with input_grad, else None.
    The relu mask uses the post-activations: relu(z) > 0 exactly when z > 0.
    """
    m = x.shape[0]
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != (m, net.output_dim):
        raise ValueError(
            f"loss gradient shape {loss_grad.shape} does not match output shape "
            f"{(m, net.output_dim)}"
        )
    delta = loss_grad
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            mask = np.greater(work.acts[i][:m], 0.0, out=work.masks[i][:m])
            # the caller's loss gradient is never written to
            delta = delta * mask if delta is loss_grad else np.multiply(delta, mask, out=delta)
        inputs = work.acts[i - 1][:m] if i else x
        np.matmul(inputs.T, delta, out=work.grads[2 * i])
        np.sum(delta, axis=0, out=work.grads[2 * i + 1])
        if work.deltas[i] is None:
            return work.grad, None
        delta = np.matmul(delta, layer.weight.T, out=work.deltas[i][:m])
    return work.grad, delta


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for one parameter vector.

    `scratch` holds two work vectors, so a step allocates no
    parameter-sized temporaries.
    """

    learning_rate: float
    first_moment: Array
    second_moment: Array
    scratch: tuple[Array, Array]
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0


def init_adam(params: Array, learning_rate: float, **kwargs) -> AdamState:
    scratch = (np.empty_like(params), np.empty_like(params))
    return AdamState(learning_rate, np.zeros_like(params), np.zeros_like(params), scratch, **kwargs)


def adam_step(net: DenseNet, grad: Array, state: AdamState, name: str = "net") -> None:
    """Apply one in-place update to net.params from `grad`, laid out alike.

    The arithmetic is p -= (lr * m_hat) / (sqrt(v_hat) + eps), operation
    for operation, so results match the out-of-place formula bit for bit.
    A non-finite gradient raises before any update, naming the first bad
    array as `name.layer<i>.weight` or `.bias`.
    """
    p = net.params
    if grad.shape != p.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter shape {p.shape}")
    if not np.isfinite(grad).all():
        views = _layer_views(grad, net.layers)
        j = next(j for j, g in enumerate(views) if not np.isfinite(g).all())
        kind = "bias" if j % 2 else "weight"
        raise FloatingPointError(f"non-finite gradient for {name}.layer{j // 2}.{kind}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m, v, (s1, s2) = state.first_moment, state.second_moment, state.scratch
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=s1)
    v *= b2
    v += np.multiply(np.square(grad, out=s2), 1.0 - b2, out=s2)
    np.divide(m, c1, out=s1)  # m_hat
    np.divide(v, c2, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += state.epsilon
    s1 *= state.learning_rate
    s1 /= s2
    p -= s1
