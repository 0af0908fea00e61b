import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemvc.numcore import (
    DenseNet,
    Layer,
    Workspace,
    adam_step,
    backward,
    forward,
    init_adam,
    init_dense_net,
    net_params,
    relu,
)


def small_net(seed=0, dims=(3, 5, 2), output_activation="linear", bias_jitter=0.0):
    rng = np.random.default_rng(seed)
    net = init_dense_net(list(dims), rng, output_activation=output_activation)
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


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def test_forward_zero_weights_gives_zero_output():
    net = DenseNet(
        [
            Layer(np.zeros((4, 3)), np.zeros(3), "relu"),
            Layer(np.zeros((3, 2)), np.zeros(2), "linear"),
        ]
    )
    x = np.random.default_rng(1).standard_normal((7, 4))
    assert np.array_equal(forward(net, x), np.zeros((7, 2)))


def test_forward_single_linear_layer_hand_case():
    net = DenseNet([Layer(np.array([[2.0]]), np.array([1.0]), "linear")])
    out = forward(net, np.array([[3.0]]))
    assert out == pytest.approx(np.array([[7.0]]))


def test_forward_matches_straight_line_recomputation():
    # independent re-evaluation of the affine+activation chain
    net = small_net(seed=7, dims=(4, 6, 5, 3), bias_jitter=0.5)
    x = np.random.default_rng(8).standard_normal((9, 4))
    a = x
    for layer in net.layers:
        z = a @ layer.weight + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    assert np.array_equal(forward(net, x), a)


def test_forward_rejects_dimension_mismatch():
    net = small_net()
    with pytest.raises(ValueError, match="columns"):
        forward(net, np.zeros((2, 99)))


def test_forward_is_pure():
    net = small_net(seed=3)
    x = np.random.default_rng(4).standard_normal((5, 3))
    assert np.array_equal(forward(net, x), forward(net, x))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_relu_is_nonnegative(seed):
    x = np.random.default_rng(seed).standard_normal((4, 4)) * 10
    assert (relu(x) >= 0).all()


def test_backward_zero_loss_grad_gives_zero_grads():
    net = small_net(seed=5)
    x = np.random.default_rng(6).standard_normal((4, 3))
    grads, dx = forward_backward(net, x, np.zeros((4, 2)))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
    assert np.array_equal(dx, np.zeros_like(x))


def test_backward_single_linear_layer_closed_form():
    # squared-error loss on one sample: dW = 2 (Wx + b - y) x^T
    w = np.array([[1.5, -0.5], [0.25, 2.0]])
    b = np.array([0.1, -0.3])
    net = DenseNet([Layer(w.copy(), b.copy(), "linear")])
    x = np.array([[0.7, -1.2]])
    y = np.array([[0.2, 0.9]])
    resid = x @ w + b - y
    grads, _ = forward_backward(net, x, 2.0 * resid)
    assert grads[0] == pytest.approx(x.T @ (2.0 * resid))
    assert grads[1] == pytest.approx((2.0 * resid).ravel())


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
    numeric = finite_difference_grads(loss, net_params(net))
    assert max_rel_error(analytic, numeric) <= 1e-4


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
    params = net_params(net)
    before = [p.copy() for p in params]
    state = init_adam(params, learning_rate=0.05)
    adam_step(params, [np.zeros_like(p) for p in params], state)
    assert all(np.array_equal(b, p) for b, p in zip(before, params))
    assert state.step == 1


def test_adam_single_step_matches_hand_update():
    p = np.array([1.0])
    g = np.array([0.5])
    state = init_adam([p], learning_rate=0.1)
    adam_step([p], [g], state)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_adam_reduces_convex_quadratic():
    # minimize (p - 3)^2 elementwise
    p = np.array([10.0, -4.0])
    state = init_adam([p], learning_rate=0.1)
    start = float(((p - 3.0) ** 2).sum())
    for _ in range(200):
        adam_step([p], [2.0 * (p - 3.0)], state)
    assert float(((p - 3.0) ** 2).sum()) < start


def test_adam_rejects_non_finite_gradient_with_name():
    p = np.array([1.0])
    state = init_adam([p], learning_rate=0.1)
    with pytest.raises(FloatingPointError, match="encoder.layer0.weight"):
        adam_step([p], [np.array([np.nan])], state, names=["encoder.layer0.weight"])


def test_dense_net_rejects_unchained_dims():
    with pytest.raises(ValueError, match="chain"):
        DenseNet(
            [
                Layer(np.zeros((3, 4)), np.zeros(4), "relu"),
                Layer(np.zeros((5, 2)), np.zeros(2), "linear"),
            ]
        )


def test_layer_rejects_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        Layer(np.zeros((2, 2)), np.zeros(2), "tanh")
