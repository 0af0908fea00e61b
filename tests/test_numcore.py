import copy
import pickle
import re

import numpy as np
import pytest

from cemvc.clustering import kmeans, soft_assign
from cemvc.infometrics import kde_entropy, total_conditional_entropy
from cemvc.numcore import (
    DenseNet,
    Workspace,
    adam_step,
    as_labels,
    as_matrix,
    backward,
    forward,
    init_adam,
    init_dense_net,
)


def small_net(seed=0, dims=(3, 5, 2), bias_jitter=0.0):
    rng = np.random.default_rng(seed)
    net = init_dense_net(list(dims), rng)
    if bias_jitter:
        for layer in net.layers:
            layer.bias += bias_jitter * rng.standard_normal(layer.bias.shape)
    return net


def forward_backward(net, x, loss_grad):
    """backward from the activations of a workspace forward pass on x."""
    work = Workspace(net, x.shape[0], input_grad=True)
    forward(net, x, work)
    return backward(net, x, loss_grad, work)


def finite_difference_grads(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def one_param_net(weight, bias):
    """A 1x1 linear net: net.params is [weight, bias]."""
    return DenseNet((1, 1), [weight, bias])


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def test_forward_zero_weights_gives_zero_output():
    net = DenseNet((4, 3, 2), np.zeros(4 * 3 + 3 + 3 * 2 + 2))
    x = np.random.default_rng(1).standard_normal((7, 4))
    assert np.array_equal(forward(net, x), np.zeros((7, 2)))


def test_forward_single_linear_layer_hand_case():
    net = DenseNet((1, 1), [2.0, 1.0])
    out = forward(net, np.array([[3.0]]))
    assert out == pytest.approx(np.array([[7.0]]))


def test_forward_matches_straight_line_recomputation():
    # independent re-evaluation of the affine chain, relu on all but the last layer
    net = small_net(seed=7, dims=(4, 6, 5, 3), bias_jitter=0.5)
    x = np.random.default_rng(8).standard_normal((9, 4))
    a = x
    for i, layer in enumerate(net.layers):
        z = a @ layer.weight + layer.bias
        a = np.maximum(z, 0.0) if i < len(net.layers) - 1 else z
    assert np.array_equal(forward(net, x), a)


def test_forward_rejects_dimension_mismatch():
    net = small_net()
    with pytest.raises(ValueError, match="columns"):
        forward(net, np.zeros((2, 99)))


def test_forward_is_pure():
    net = small_net(seed=3)
    x = np.random.default_rng(4).standard_normal((5, 3))
    assert np.array_equal(forward(net, x), forward(net, x))


def test_backward_zero_loss_grad_gives_zero_grads():
    net = small_net(seed=5)
    x = np.random.default_rng(6).standard_normal((4, 3))
    grad, dx = forward_backward(net, x, np.zeros((4, 2)))
    assert np.array_equal(grad, np.zeros_like(net.params))
    assert np.array_equal(dx, np.zeros_like(x))


def test_backward_single_linear_layer_closed_form():
    # squared-error loss on one sample: dW = 2 (Wx + b - y) x^T
    w = np.array([[1.5, -0.5], [0.25, 2.0]])
    b = np.array([0.1, -0.3])
    net = DenseNet((2, 2), np.concatenate([w.ravel(), b]))
    x = np.array([[0.7, -1.2]])
    y = np.array([[0.2, 0.9]])
    resid = x @ w + b - y
    grad, _ = forward_backward(net, x, 2.0 * resid)
    assert grad[:4] == pytest.approx((x.T @ (2.0 * resid)).ravel())
    assert grad[4:] == pytest.approx((2.0 * resid).ravel())


def test_backward_rejects_shape_mismatch():
    net = small_net()
    x = np.zeros((4, 3))
    with pytest.raises(ValueError, match="loss gradient shape"):
        forward_backward(net, x, np.zeros((4, 99)))


@pytest.mark.parametrize("trial", range(6))
def test_gradients_match_finite_differences(trial):
    # nets <= 3 layers, <= 16 units; bias jitter keeps pre-activations off
    # the relu kink where the subgradient and the symmetric difference
    # legitimately disagree
    rng = np.random.default_rng((2024, trial))
    dims = [int(d) for d in rng.integers(2, 9, size=rng.integers(2, 4))] + [3]
    net = small_net(seed=(2024, trial, 1), dims=tuple(dims), bias_jitter=0.4)
    x = np.random.default_rng((2024, trial, 2)).standard_normal((6, dims[0]))
    y = np.random.default_rng((2024, trial, 3)).standard_normal((6, 3))

    def loss():
        diff = forward(net, x) - y
        return float((diff * diff).sum())

    out = forward(net, x)
    analytic, _ = forward_backward(net, x, 2.0 * (out - y))
    numeric = finite_difference_grads(loss, [net.params])
    assert max_rel_error([analytic], numeric) <= 1e-4


def test_backward_input_grad_matches_finite_differences():
    net = small_net(seed=11, dims=(3, 6, 2), bias_jitter=0.4)
    x = np.random.default_rng(12).standard_normal((5, 3))
    y = np.random.default_rng(13).standard_normal((5, 2))
    out = forward(net, x)
    _, dx = forward_backward(net, x, 2.0 * (out - y))

    def loss():
        diff = forward(net, x) - y
        return float((diff * diff).sum())

    numeric = finite_difference_grads(loss, [x])[0]
    denom = np.maximum(np.maximum(np.abs(dx), np.abs(numeric)), 1e-6)
    assert float(np.max(np.abs(dx - numeric) / denom)) <= 1e-4


def test_adam_zero_gradients_leave_params_unchanged():
    net = small_net(seed=20)
    before = net.params.copy()
    state = init_adam(net.params, learning_rate=0.05)
    adam_step(net, np.zeros_like(net.params), state)
    assert np.array_equal(before, net.params)
    assert state.step == 1


def test_adam_single_step_matches_hand_update():
    net = one_param_net(1.0, 1.0)
    state = init_adam(net.params, learning_rate=0.1)
    adam_step(net, np.array([0.5, 0.5]), state)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert net.params == pytest.approx([expected, expected], rel=1e-12)


def test_adam_reduces_convex_quadratic():
    # minimize (p - 3)^2 elementwise
    net = one_param_net(10.0, -4.0)
    p = net.params
    state = init_adam(p, learning_rate=0.1)
    start = float(((p - 3.0) ** 2).sum())
    for _ in range(200):
        adam_step(net, 2.0 * (p - 3.0), state)
    assert float(((p - 3.0) ** 2).sum()) < start


def test_adam_rejects_non_finite_gradient_with_name():
    net = one_param_net(1.0, 1.0)
    state = init_adam(net.params, learning_rate=0.1)
    with pytest.raises(FloatingPointError, match="encoder.layer0.weight"):
        adam_step(net, np.array([np.nan, 0.5]), state, name="encoder")


def test_adam_names_the_layer_array_holding_the_first_bad_entry():
    net = small_net(seed=21, dims=(3, 5, 2))
    grad = np.zeros_like(net.params)
    # layout [W0 (15), b0 (5), W1 (10), b1 (2)]: the last entry is in layer 1's bias
    grad[-1] = np.nan
    before = net.params.copy()
    state = init_adam(net.params, learning_rate=0.1)
    with pytest.raises(FloatingPointError, match=r"non-finite gradient for view3\.decoder\.layer1\.bias$"):
        adam_step(net, grad, state, name="view3.decoder")
    assert np.array_equal(net.params, before)
    assert state.step == 0


def test_layers_are_views_into_the_parameter_vector():
    net = small_net(seed=22, dims=(4, 6, 5, 3))
    assert net.params.ndim == 1 and net.params.dtype == np.float64
    assert net.params.size == sum(l.weight.size + l.bias.size for l in net.layers)
    for layer in net.layers:
        for a in (layer.weight, layer.bias):
            assert np.shares_memory(a, net.params)
            assert a.flags.c_contiguous
    net.params[:] = np.arange(net.params.size)
    assert net.layers[0].weight[0, 1] == 1.0
    assert net.layers[0].bias[0] == net.layers[0].weight.size
    # in-place arithmetic on a layer's array reaches the vector, and only its slice
    before = net.params.copy()
    net.layers[1].bias += 0.5
    start = net.layers[0].weight.size + net.layers[0].bias.size + net.layers[1].weight.size
    changed = np.flatnonzero(net.params != before)
    assert np.array_equal(changed, np.arange(start, start + 5))
    assert np.array_equal(net.params[changed], before[changed] + 0.5)


def test_dense_net_copies_the_arrays_it_is_given():
    params = np.ones(2 * 3 + 3)
    net = DenseNet((2, 3), params)
    assert not np.shares_memory(net.params, params)
    net.params += 1.0
    assert np.array_equal(params, np.ones(9))


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))], ids=["deepcopy", "pickle"]
)
def test_copied_net_layers_view_the_new_vector(clone):
    net = small_net(seed=23, dims=(3, 4, 2), bias_jitter=0.5)
    twin = clone(net)
    assert np.array_equal(twin.params, net.params)
    assert not np.shares_memory(twin.params, net.params)
    for layer, orig in zip(twin.layers, net.layers):
        for a, o in ((layer.weight, orig.weight), (layer.bias, orig.bias)):
            assert np.shares_memory(a, twin.params)
            assert not np.shares_memory(a, net.params)
            assert np.array_equal(a, o)
    twin.params[:] = 0.0
    assert np.array_equal(forward(twin, np.ones((2, 3))), np.zeros((2, 2)))
    assert np.abs(net.params).sum() > 0


@pytest.mark.parametrize(
    "dims, params, match",
    [
        ((3, 2), np.zeros(7), "need a vector of 8 parameters"),
        ((3, 2), np.r_[np.zeros(7), np.inf], "non-finite"),
        ((3,), np.zeros(0), "input and an output"),
        ((3, 0, 2), np.zeros(2), "width"),
    ],
    ids=["wrong-size", "non-finite", "one-dim", "zero-width"],
)
def test_dense_net_rejects_bad_construction(dims, params, match):
    with pytest.raises(ValueError, match=match):
        DenseNet(dims, params)


@pytest.mark.parametrize("shape", [(0, 3), (5, 0)])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: kde_entropy(m),
        lambda m: total_conditional_entropy([m, m]),
        lambda m: kmeans(m, 1),
        lambda m: soft_assign(m, np.zeros((2, m.shape[1]))),
    ],
    ids=["kde_entropy", "total_conditional_entropy", "kmeans", "soft_assign"],
)
def test_a_matrix_without_rows_or_columns_is_rejected_everywhere(call, shape):
    # the message MultiViewDataset gives for such a view
    message = f"must be a 2-D matrix with at least one row and one column, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(np.zeros(shape))


def test_as_matrix_names_the_first_non_finite_cell():
    x = np.zeros((3, 2))
    x[1, 1] = np.inf
    x[2, 0] = np.nan
    with pytest.raises(ValueError, match=re.escape("points has a non-finite value at index (1, 1)")):
        as_matrix(x, "points")
    # with `where`, the message the dataset loader gives, `file:line` first
    with pytest.raises(ValueError) as err:
        as_matrix(x, "points", where=lambda row: f"f.csv:{row + 3}")
    assert str(err.value) == "f.csv:4: non-finite value inf in column 2"
    assert as_matrix([[1, 2]]).dtype == np.float64


@pytest.mark.parametrize(
    "labels, expected",
    [
        ([3, 1, 7, 3], [1, 0, 2, 1]),
        ([-1, 1, -1, 1], [0, 1, 0, 1]),
        ([10**12, -(10**12), 0], [2, 0, 1]),
        ([2.0, 0.0, 2.0], [1, 0, 1]),
        (["5", "-2.0", "5"], [1, 0, 1]),
        (np.array([4, 4], dtype=np.uint8), [0, 0]),
        # integer text is read exactly: through float64 these two codes are one
        (["9007199254740992", "9007199254740993"], [0, 1]),
        # the largest floats that still hold every integer apart
        ([2.0**53 - 1, -(2.0**53 - 1)], [1, 0]),
    ],
)
def test_as_labels_codes_the_codes_that_occur_in_sorted_order(labels, expected):
    out = as_labels(labels)
    assert out.tolist() == expected
    assert out.dtype == np.int64


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1.5], r"^labels\[1\]: label .*1\.5\)? is not an integer$"),
        ([np.nan, 1], r"^labels\[0\]: label .*nan\)? is not an integer$"),
        ([], r"^labels is empty$"),
        ([[0, 1]], r"^labels must be a 1-D label vector, got shape \(1, 2\)$"),
        # as floats, 2**70 and 2**70 + 1 are one code
        ([2**70, 2**70 + 1, 0], r"^labels\[0\]: label 1180591620717411303424 is 2\*\*53 or more in magnitude"),
        ([0.0, -(2.0**53)], r"^labels\[1\]: label .*9007199254740992\.0\)? is 2\*\*53 or more in magnitude"),
        (["1", "2.0", "9007199254740993"], r"^labels\[2\]: label .*9007199254740993'\)? is 2\*\*53 or more"),
        # Python ints beyond float64's range, where numpy's cast overflows
        ([10**400, 1], r"^labels\[0\]: label 10{400} is 2\*\*53 or more in magnitude"),
        ([1, -(10**400)], r"^labels\[1\]: label -10{400} is 2\*\*53 or more in magnitude"),
        ([None, 10**400], r"^labels\[0\]: label None is not an integer$"),
        # text that is no number, where numpy's cast fails naming no index
        (["a", "b"], r"^labels\[0\]: label 'a' is not an integer$"),
        ([1, "x"], r"^labels\[1\]: label 'x' is not an integer$"),
        (np.array([1, "x", 2.5], dtype=object), r"^labels\[1\]: label 'x' is not an integer$"),
    ],
    ids=[
        "fraction", "nan", "empty", "2-d", "int-beyond-2-53", "float-at-minus-2-53", "text-beyond-2-53",
        "int-beyond-float64", "negative-int-beyond-float64", "none-beside-int-beyond-float64",
        "text", "int-beside-text", "object-int-beside-text",
    ],
)
def test_as_labels_rejects_what_is_not_a_label_vector(labels, message):
    with pytest.raises(ValueError, match=message):
        as_labels(labels)


def test_as_labels_reports_a_non_integer_where_the_caller_says():
    with pytest.raises(ValueError, match=r"^row 3: label .*0\.5\)? is not an integer$"):
        as_labels([1, 2, 0.5], where=lambda i: f"row {i + 1}")
    with pytest.raises(ValueError, match=r"^row 2: label 'x' is not an integer$"):
        as_labels(["1", "x"], where=lambda i: f"row {i + 1}")
