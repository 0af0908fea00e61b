"""Minimal dense feed-forward network engine with hand-derived gradients.

Everything runs on float64 numpy arrays. Matrices are row-major
(samples, features). Every net is a relu MLP: relu follows every layer
but the last, which is linear; that is all the autoencoders here need.

A DenseNet is its `dims` chain plus one parameter vector, `net.params`,
laid out as [W0, b0, W1, b1, ...]; each layer's weight and bias are views
into it.

forward without a Workspace validates its input and returns fresh arrays.
A training loop instead owns a Workspace per net: forward writes the
layer activations into it, and backward reads them and writes its deltas
and its gradient vector there, so a step runs each matmul once and
allocates no batch-sized arrays. The caller validates the input once, up
front. adam_step updates a whole net's vector in one pass; AdamState is
mutated only by adam_step, so a single training loop owns it.

The one rule per kind of outside input lives here too: `as_matrix`,
`as_labels`, `check_count` and `check_real`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def check_count(name: str, value, minimum: int = 1) -> None:
    """Reject a config count that is not an integer >= minimum; bools are not counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Reject a config value that is not a finite real number; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def as_matrix(values, name: str = "matrix", where=None) -> Array:
    """Coerce to a finite 2-D float64 array with at least one row and one column. A
    non-finite cell is reported at `name` and its index, or at `where(row)` and its column."""
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 2 or 0 in out.shape:
        raise ValueError(
            f"{name} must be a 2-D matrix with at least one row and one column, got shape {out.shape}"
        )
    if not np.isfinite(out).all():
        row, col = np.argwhere(~np.isfinite(out))[0].tolist()
        if where is not None:
            raise ValueError(f"{where(row)}: non-finite value {out[row, col]} in column {col + 1}")
        raise ValueError(f"{name} has a non-finite value at index {(row, col)}")
    return out


def as_labels(values, name: str = "labels", where=None) -> Array:
    """Classes 0..k-1, in the sorted order of the codes that occur, of a non-empty
    1-D vector of integer-valued labels (ints, or floats or strings holding them).
    Strings that all hold integers are read exactly; other labels are read as floats,
    which keep integers apart only below 2**53 in magnitude, so larger ones are refused.
    A bad label is reported at `name[index]`, or at `where(index)` if given."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D label vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if arr.dtype.kind in "US":
        try:
            arr = arr.astype(np.int64)
        except (ValueError, OverflowError):  # "2.0", "nan" or beyond int64: the float path below
            pass
    if arr.dtype.kind not in "iu":
        try:
            values = arr.astype(np.float64)
        except (ValueError, OverflowError):  # text that is no number, or ints beyond float64's range
            values = np.array([_label_float(v) for v in arr], dtype=np.float64)
        not_int = ~np.isfinite(values) | (values != np.rint(values))
        bad = np.flatnonzero(not_int | (np.abs(values) >= 2.0**53))
        if bad.size:
            i = int(bad[0])
            place = f"{name}[{i}]" if where is None else where(i)
            label = arr[i].item() if isinstance(arr[i], np.generic) else arr[i]
            big = "is 2**53 or more in magnitude, where floats merge integers; write int64 codes"
            raise ValueError(f"{place}: label {label!r} {'is not an integer' if not_int[i] else big}")
        arr = values
    return np.unique(arr, return_inverse=True)[1].astype(np.int64, copy=False)


def _label_float(value) -> float:
    """One label as a float: an int beyond float64's range is clipped to 2**1023 in
    magnitude, so refused as too big, and what is no number reads as nan."""
    if isinstance(value, int):
        return float(min(max(value, -(2**1023)), 2**1023))
    try:
        return float(value)
    except (ValueError, TypeError):
        return math.nan


def as_input(net: DenseNet, x, name: str = "input") -> Array:
    """Coerce to a finite 2-D float64 array with the columns `net` takes."""
    x = as_matrix(x, name)
    if x.shape[1] != net.input_dim:
        raise ValueError(f"input has {x.shape[1]} columns but the first layer expects {net.input_dim}")
    return x


@dataclass
class Layer:
    """One layer's arrays, as views into its net's parameter vector."""

    weight: Array  # (fan_in, fan_out)
    bias: Array    # (fan_out,)


def _layers(vector: Array, dims: tuple[int, ...]) -> list[Layer]:
    """Each layer's weight and bias as views into `vector`, laid out like net.params."""
    layers, start = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        stop = start + fan_in * fan_out
        weight = vector[start:stop].reshape(fan_in, fan_out)
        layers.append(Layer(weight, vector[stop : stop + fan_out]))
        start = stop + fan_out
    return layers


def _param_count(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


class DenseNet:
    """The net on the widths `dims`, with a copy of `params` as its vector."""

    def __init__(self, dims, params) -> None:
        self.dims = tuple(dims)
        if len(self.dims) < 2:
            raise ValueError("need an input and an output dimension")
        if min(self.dims) < 1:
            raise ValueError(f"every width must be >= 1, got dims {self.dims}")
        self.params = np.array(params, dtype=np.float64)
        size = _param_count(self.dims)
        if self.params.shape != (size,):
            raise ValueError(
                f"dims {self.dims} need a vector of {size} parameters, "
                f"got shape {self.params.shape}"
            )
        if not np.isfinite(self.params).all():
            raise ValueError("parameters contain non-finite entries")
        self.layers = _layers(self.params, self.dims)

    def __setstate__(self, state: dict) -> None:
        # deepcopy and pickle copy each view on its own; re-link them
        self.__dict__.update(state)
        self.layers = _layers(self.params, self.dims)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]


def init_dense_net(dims: list[int] | tuple[int, ...], rng: np.random.Generator) -> DenseNet:
    """A net on the `dims` chain: weights uniform in +-1/sqrt(fan_in), drawn
    layer by layer, and zero biases."""
    # never a negative size, so a bad chain fails in DenseNet's own checks
    net = DenseNet(dims, np.zeros(max(_param_count(dims), 0)))
    for layer in net.layers:
        bound = 1.0 / np.sqrt(layer.weight.shape[0])
        layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
    return net


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
        self.acts = [np.empty((rows, width)) for width in net.dims[1:]]
        # relu masks, for the hidden layers only
        self.masks = [np.empty((rows, width), dtype=bool) for width in net.dims[1:-1]]
        # deltas[i] holds dL/d(input of layer i); layer 0's only if asked for
        self.deltas = [
            np.empty((rows, width)) if i or input_grad else None
            for i, width in enumerate(net.dims[:-1])
        ]
        self.grad = np.empty_like(net.params)
        self.grads = _layers(self.grad, net.dims)


def forward(net: DenseNet, x: Array, work: Workspace | None = None) -> Array:
    """Evaluate the network on a batch, returning the final activations.

    Without `work` the input is validated and fresh arrays are returned.
    With `work` (the training path, whose caller validated x) the
    activations are written into it and the result is a view of its last
    buffer.
    """
    if work is None:
        x = as_input(net, x)
    m = x.shape[0]
    last = len(net.layers) - 1
    a = x
    for i, layer in enumerate(net.layers):
        a = np.matmul(a, layer.weight, out=None if work is None else work.acts[i][:m])
        a += layer.bias
        if i < last:
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
    The linear last layer never writes to the caller's loss gradient.
    A bias gradient of width >= 2 is np.einsum("ij->j", delta): it adds the
    rows in order, as np.sum(delta, axis=0) does, but in a quarter to a half
    of its time, as numpy's axis-0 reduction steps its iterator once per row.
    Width 1 keeps np.sum, which sums a contiguous column pairwise.
    """
    m = x.shape[0]
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != (m, net.output_dim):
        raise ValueError(
            f"loss gradient shape {loss_grad.shape} does not match output shape "
            f"{(m, net.output_dim)}"
        )
    last = len(net.layers) - 1
    delta = loss_grad
    for i in range(last, -1, -1):
        if i < last:
            mask = np.greater(work.acts[i][:m], 0.0, out=work.masks[i][:m])
            np.multiply(delta, mask, out=delta)
        inputs = work.acts[i - 1][:m] if i else x
        np.matmul(inputs.T, delta, out=work.grads[i].weight)
        bias_grad = work.grads[i].bias
        if bias_grad.size > 1:
            np.einsum("ij->j", delta, out=bias_grad)
        else:
            np.sum(delta, axis=0, out=bias_grad)
        if work.deltas[i] is None:
            return work.grad, None
        delta = np.matmul(delta, net.layers[i].weight.T, out=work.deltas[i][:m])
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
    step: int = 0


def init_adam(params: Array, learning_rate: float) -> AdamState:
    scratch = (np.empty_like(params), np.empty_like(params))
    return AdamState(learning_rate, np.zeros_like(params), np.zeros_like(params), scratch)


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
        for i, layer in enumerate(_layers(grad, net.dims)):
            for kind in ("weight", "bias"):
                if not np.isfinite(getattr(layer, kind)).all():
                    raise FloatingPointError(f"non-finite gradient for {name}.layer{i}.{kind}")
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    m, v, (s1, s2) = state.first_moment, state.second_moment, state.scratch
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=s1)
    v *= BETA2
    v += np.multiply(np.square(grad, out=s2), 1.0 - BETA2, out=s2)
    np.divide(m, c1, out=s1)  # m_hat
    np.divide(v, c2, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += EPSILON
    s1 *= state.learning_rate
    s1 /= s2
    p -= s1
