import copy
import hashlib
import tracemalloc

import numpy as np
import pytest

import cemvc.clustering as clustering_module
import cemvc.model as model_module
from cemvc.clustering import soft_assign
from cemvc.numcore import adam_step, forward, init_adam
from cemvc.model import (
    TrainConfig,
    _StepBuffers,
    build_view_model,
    encode,
    finetune_view,
    model_params,
    pretrain,
    _loss_and_grads,
)


def param_checksum(model):
    digest = hashlib.sha256()
    for p in model_params(model):
        digest.update(p.tobytes())
    return digest.hexdigest()


def rank2_data(n=200, d=10, seed=0):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((2, d))
    coords = rng.standard_normal((n, 2))
    return coords @ basis


def jittered_model(input_dim, hidden, latent, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    m = build_view_model(input_dim, hidden, latent, 0, rng)
    for net in (m.encoder, m.decoder):
        for layer in net.layers:
            layer.bias += scale * rng.standard_normal(layer.bias.shape)
    return m


def reconstruction_loss(model, x):
    return _loss_and_grads(model, x, None, None, 0.0)[0]


def finite_difference(loss_fn, params, h=1e-5):
    out = []
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
        out.append(g)
    return out


def test_pretrain_rank2_linear_autoencoder_reaches_pca_floor():
    # rank-2 data with a matching-width linear bottleneck is exactly
    # representable, so reconstruction error must become tiny
    x = rank2_data()
    cfg = TrainConfig(pretrain_epochs=3000, learning_rate=0.01)
    model = pretrain(x, hidden_dims=(), latent_dim=2, cfg=cfg, seed=0)
    assert reconstruction_loss(model, x) <= 1e-3 * x.shape[1]


def test_pretrain_full_width_linear_autoencoder_reaches_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 4))
    cfg = TrainConfig(pretrain_epochs=4000, learning_rate=0.01)
    model = pretrain(x, hidden_dims=(), latent_dim=4, cfg=cfg, seed=1)
    assert reconstruction_loss(model, x) <= 1e-4 * x.shape[1]


def test_pretrain_loss_trend_mostly_nonincreasing():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((120, 6)) @ rng.standard_normal((6, 6))
    cfg = TrainConfig(pretrain_epochs=1, learning_rate=3e-3)
    model = pretrain(x, hidden_dims=(16,), latent_dim=3, cfg=cfg, seed=2)
    losses = [reconstruction_loss(model, x)]
    for _ in range(60):
        losses.append(finetune_view(
            model, x, None, None, TrainConfig(finetune_steps_per_round=5, clustering_weight=0.0, learning_rate=3e-3)
        ))
    window_means = [np.mean(losses[i : i + 5]) for i in range(len(losses) - 4)]
    drops = sum(a >= b for a, b in zip(window_means, window_means[1:]))
    assert drops / (len(window_means) - 1) >= 0.9


def test_encode_zero_weight_encoder_gives_zero_latents():
    model = jittered_model(4, (5,), 2, seed=3, scale=0.0)
    for layer in model.encoder.layers:
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    x = np.random.default_rng(4).standard_normal((6, 4))
    assert np.array_equal(encode(model, x), np.zeros((6, 2)))


def test_encode_deterministic_and_finite():
    model = jittered_model(5, (8,), 3, seed=5)
    x = np.random.default_rng(6).standard_normal((20, 5))
    r1 = encode(model, x)
    r2 = encode(model, x)
    assert np.array_equal(r1, r2)
    assert np.isfinite(r1).all()
    assert r1.shape == (20, 3)


def test_encode_decode_round_trip_on_pretrained_model():
    x = rank2_data(seed=7)
    cfg = TrainConfig(pretrain_epochs=3000, learning_rate=0.01)
    model = pretrain(x, hidden_dims=(), latent_dim=2, cfg=cfg, seed=7)
    recon = forward(model.decoder, forward(model.encoder, x))
    assert float(((recon - x) ** 2).sum()) / x.shape[0] <= 1e-3 * x.shape[1]


def test_combined_loss_gradients_match_finite_differences():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng((7000, trial))
        model = jittered_model(4, (5,), 2, seed=(7000, trial))
        x = rng.standard_normal((8, 4))
        centroids = rng.standard_normal((2, 2))
        target = rng.random((8, 2))
        target /= target.sum(axis=1, keepdims=True)
        lam = 0.3
        _, analytic = _loss_and_grads(model, x, target, centroids, lam)
        numeric = finite_difference(
            lambda: _loss_and_grads(model, x, target, centroids, lam)[0],
            model_params(model),
        )
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    assert worst <= 1e-4


def test_finetune_lambda_zero_matches_pure_reconstruction_trajectory():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 5))
    cfg = TrainConfig(pretrain_epochs=30, learning_rate=2e-3)
    base = pretrain(x, hidden_dims=(6,), latent_dim=2, cfg=cfg, seed=8)
    twin = copy.deepcopy(base)

    steps_cfg = TrainConfig(finetune_steps_per_round=25, clustering_weight=0.0, learning_rate=2e-3)
    finetune_view(base, x, None, None, steps_cfg, seed=8)
    # same number of pure-reconstruction steps from identical parameters
    finetune_view(twin, x, np.full((40, 3), np.nan), np.zeros((3, 2)), steps_cfg, seed=8)
    assert param_checksum(base) == param_checksum(twin)


def test_finetune_lambda_zero_never_reads_target():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 4))
    model = jittered_model(4, (5,), 2, seed=9)
    cfg = TrainConfig(finetune_steps_per_round=5, clustering_weight=0.0)
    poisoned = np.full((30, 3), np.nan)
    finetune_view(model, x, poisoned, np.full((3, 2), np.nan), cfg)
    assert np.isfinite(encode(model, x)).all()


def test_finetune_reduces_combined_loss_most_rounds():
    rng = np.random.default_rng(10)
    labels = np.arange(90) % 3
    centers = 6.0 * rng.standard_normal((3, 6))
    x = centers[labels] + rng.standard_normal((90, 6))
    x = (x - x.mean(0)) / x.std(0)
    cfg = TrainConfig(pretrain_epochs=150, learning_rate=3e-3)
    model = pretrain(x, hidden_dims=(16,), latent_dim=3, cfg=cfg, seed=10)
    from cemvc.clustering import kmeans

    improved = 0
    rounds = 10
    step_cfg = TrainConfig(finetune_steps_per_round=30, clustering_weight=0.1, learning_rate=3e-3)
    for _ in range(rounds):
        latent = encode(model, x)
        centroids, _ = kmeans(latent, 3, seed=11, n_init=4)
        q = soft_assign(latent, centroids)
        target = q**2 / q.sum(0)
        target /= target.sum(1, keepdims=True)
        before = _loss_and_grads(model, x, target, centroids, 0.1)[0]
        after = finetune_view(model, x, target, centroids, step_cfg, seed=10)
        improved += int(after <= before)
    assert improved / rounds >= 0.9


def test_finetune_only_touches_its_own_view():
    rng = np.random.default_rng(12)
    xs = [rng.standard_normal((25, 4)) for _ in range(3)]
    models = []
    for v, x in enumerate(xs):
        r = np.random.default_rng((12, v))
        models.append(build_view_model(4, (5,), 2, v, r))
    sums_before = [param_checksum(m) for m in models]
    cfg = TrainConfig(finetune_steps_per_round=10, clustering_weight=0.0)
    finetune_view(models[1], xs[1], None, None, cfg)
    sums_after = [param_checksum(m) for m in models]
    assert sums_after[0] == sums_before[0]
    assert sums_after[2] == sums_before[2]
    assert sums_after[1] != sums_before[1]


def test_finetune_rejects_bad_target_shape():
    model = jittered_model(4, (5,), 2, seed=13)
    x = np.zeros((10, 4))
    cfg = TrainConfig(clustering_weight=0.5)
    with pytest.raises(ValueError, match="rows"):
        finetune_view(model, x, np.zeros((9, 3)), np.zeros((3, 2)), cfg)
    with pytest.raises(ValueError, match="centroids"):
        finetune_view(model, x, np.zeros((10, 3)), np.zeros((4, 2)), cfg)
    with pytest.raises(ValueError, match="5 columns but the first layer expects 4"):
        finetune_view(model, np.zeros((10, 5)), np.zeros((10, 3)), np.zeros((3, 2)), cfg)
    with pytest.raises(ValueError, match=r"target has a non-finite value at index \(0, 0\)"):
        finetune_view(model, x, np.full((10, 3), np.nan), np.zeros((3, 2)), cfg)


@pytest.mark.parametrize("batch_size", [None, 16])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_finetune_returns_the_full_batch_step_loss(lam, batch_size):
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9, 7), 3, seed=39)
    cfg = TrainConfig(finetune_steps_per_round=5, batch_size=batch_size, clustering_weight=lam)
    loss = finetune_view(model, x.tolist(), target, centroids, cfg, seed=39)
    # the loss at the finetuned parameters, over every row whatever the batch size
    assert loss == _loss_and_grads(model, x, target, centroids, lam)[0]


@pytest.mark.parametrize("call", ["step", "finetune_view"])
def test_one_clustering_step_evaluates_the_kernel_once(call, monkeypatch):
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9,), 3, seed=38)
    real = clustering_module._squared_distances
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(clustering_module, "_squared_distances", counting)
    if call == "step":
        _loss_and_grads(model, x, target, centroids, 0.3)
        assert len(calls) == 1
    else:
        # four steps, then the full-batch loss it returns
        finetune_view(model, x, target, centroids, TrainConfig(finetune_steps_per_round=4, clustering_weight=0.3))
        assert len(calls) == 4 + 1


def test_finetune_returns_its_loss_without_a_backward_pass(monkeypatch):
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9,), 3, seed=41)
    real = model_module.backward
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(model_module, "backward", counting)
    finetune_view(model, x, target, centroids, TrainConfig(finetune_steps_per_round=4, clustering_weight=0.3))
    assert len(calls) == 2 * 4  # decoder and encoder, once per step; none for the returned loss


def test_non_finite_losses_name_the_epoch_step_and_view():
    # 1e200 cells overflow the squared reconstruction error on the first pass
    x = np.full((10, 4), 1e200)
    with np.errstate(all="ignore"):
        with pytest.raises(
            FloatingPointError, match=r"non-finite pretraining loss at epoch 0 for view 2$"
        ):
            pretrain(x, (5,), 2, TrainConfig(pretrain_epochs=3), view_index=2)
        model = build_view_model(4, (5,), 2, 1, np.random.default_rng(14))
        with pytest.raises(
            FloatingPointError, match=r"non-finite finetuning loss at step 0 for view 1$"
        ):
            finetune_view(
                model, x, np.full((10, 3), 1 / 3), np.zeros((3, 2)), TrainConfig(clustering_weight=0.5)
            )


def test_finetune_returns_a_non_finite_final_loss():
    # one Adam step of about 1e200 per parameter: the step's loss is finite,
    # the loss at the parameters it leaves overflows
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9,), 3, seed=40)
    cfg = TrainConfig(finetune_steps_per_round=1, learning_rate=1e200, clustering_weight=0.3)
    with np.errstate(all="ignore"):
        loss = finetune_view(model, x, target, centroids, cfg)
    assert np.isfinite(model_params(model)[0]).all()
    assert not np.isfinite(loss)


def test_train_config_validation():
    with pytest.raises(ValueError, match="epoch"):
        TrainConfig(pretrain_epochs=0)
    with pytest.raises(ValueError, match="clustering weight"):
        TrainConfig(clustering_weight=-0.1)
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(batch_size=0)


def test_minibatch_training_runs_and_is_deterministic():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((64, 5))
    cfg = TrainConfig(pretrain_epochs=20, batch_size=16, learning_rate=2e-3)
    a = pretrain(x, hidden_dims=(6,), latent_dim=2, cfg=cfg, seed=15)
    b = pretrain(x, hidden_dims=(6,), latent_dim=2, cfg=cfg, seed=15)
    assert param_checksum(a) == param_checksum(b)
    # a different batch order changes the trajectory
    c = pretrain(x, hidden_dims=(6,), latent_dim=2, cfg=cfg, seed=16)
    assert param_checksum(a) != param_checksum(c)
    finetune_view(a, x, None, None, TrainConfig(
        finetune_steps_per_round=7, batch_size=16, clustering_weight=0.0
    ))
    assert np.isfinite(encode(a, x)).all()


# --- bit-equality oracle: the two-pass training step it replaced ----------
#
# The reference recomputes each net's forward pass inside backward, keeps
# pre-activations for the relu mask, allocates every intermediate and
# updates Adam out of place. The buffered step must equal it under ==.


def ref_backward(net, x, loss_grad):
    inputs, pre, a = [x], [], x
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        z = a @ layer.weight + layer.bias
        pre.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        inputs.append(a)
    grads = [None] * (2 * len(net.layers))
    delta = loss_grad
    for i in range(last, -1, -1):
        layer = net.layers[i]
        if i < last:
            delta = delta * (pre[i] > 0)
        grads[2 * i] = inputs[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ layer.weight.T
    return grads, delta


def ref_cluster_term(latent, centroids, target, n):
    """sum ||q - target||^2 and the gradient in latent of that sum / n, written out.

    q is the Student-t soft assignment; the distances expand as in
    soft_assign, so the values match the step's bit for bit.
    """
    d2 = (
        np.einsum("ij,ij->i", latent, latent)[:, None]
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
        - 2.0 * (latent @ centroids.T)
    )
    s = 1.0 / (1.0 + np.maximum(d2, 0.0))
    row_sum = s.sum(axis=1, keepdims=True)
    q = s / row_sum
    q_diff = q - target
    g = 2.0 * q_diff / n
    # through q = s / row_sum, then s = 1 / (1 + d2), then d2's two terms in latent
    d_s = (g - (g * q).sum(axis=1, keepdims=True)) / row_sum
    d_d2 = -np.square(s) * d_s
    grad = 2.0 * (d_d2.sum(axis=1, keepdims=True) * latent - d_d2 @ centroids)
    return float(np.einsum("ij,ij->", q_diff, q_diff)), grad


def ref_loss_and_grads(model, x, target, centroids, lam):
    n = x.shape[0]
    latent = forward(model.encoder, x)
    diff = forward(model.decoder, latent) - x
    loss = float(np.einsum("ij,ij->", diff, diff)) / n
    dec_grads, d_latent = ref_backward(model.decoder, latent, 2.0 * diff / n)
    if lam > 0:
        cluster_sum, d_cluster = ref_cluster_term(latent, centroids, target, n)
        loss += lam * cluster_sum / n
        d_latent = d_latent + lam * d_cluster
    enc_grads, _ = ref_backward(model.encoder, x, d_latent)
    return loss, enc_grads + dec_grads


class RefAdam:
    def __init__(self, params, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps, self.t = lr, b1, b2, eps, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.b1, self.b2
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def ref_batches(n, batch_size, rng):
    if batch_size is None or batch_size >= n:
        return [slice(None)]
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def layer_arrays(model):
    """Every layer's weight and bias, encoder first, as views of model_params."""
    nets = (model.encoder, model.decoder)
    return [a for net in nets for layer in net.layers for a in (layer.weight, layer.bias)]


def net_vectors(model, layer_grads):
    """Per-array gradients, as in layer_arrays, packed into one vector per net."""
    split = 2 * len(model.encoder.layers)
    parts = (layer_grads[:split], layer_grads[split:])
    return [np.concatenate([g.ravel() for g in part]) for part in parts]


def ref_pretrain(x, hidden, latent_dim, cfg, seed, view_index=0):
    init_rng = np.random.default_rng((seed, 101, view_index))
    batch_rng = np.random.default_rng((seed, 102, view_index))
    model = build_view_model(x.shape[1], hidden, latent_dim, view_index, init_rng)
    params = layer_arrays(model)
    adam = RefAdam(params, cfg.learning_rate)
    for _ in range(cfg.pretrain_epochs):
        for idx in ref_batches(x.shape[0], cfg.batch_size, batch_rng):
            _, grads = ref_loss_and_grads(model, x[idx], None, None, 0.0)
            adam.step(params, grads)
    return model


def ref_finetune(model, x, target, centroids, cfg, seed):
    lam = cfg.clustering_weight
    params = layer_arrays(model)
    adam = RefAdam(params, cfg.learning_rate)
    batch_rng = np.random.default_rng((seed, 103, model.view_index))
    steps = 0
    while steps < cfg.finetune_steps_per_round:
        for idx in ref_batches(x.shape[0], cfg.batch_size, batch_rng):
            _, grads = ref_loss_and_grads(model, x[idx], target[idx], centroids, lam)
            adam.step(params, grads)
            steps += 1
            if steps >= cfg.finetune_steps_per_round:
                break
    return model


def clustered_view(n=70, d=12, k=4, seed=30):
    rng = np.random.default_rng(seed)
    x = 3.0 * rng.standard_normal((k, d))[np.arange(n) % k] + rng.standard_normal((n, d))
    target = rng.random((n, k))
    target /= target.sum(axis=1, keepdims=True)
    return x, target, rng.standard_normal((k, 3))


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_loss_and_grads_equal_two_pass_reference(lam):
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9, 7), 3, seed=31)
    loss, grads = _loss_and_grads(model, x, target, centroids, lam)
    ref_loss, ref_grads = ref_loss_and_grads(model, x, target, centroids, lam)
    assert loss == ref_loss
    assert_bit_equal(grads, net_vectors(model, ref_grads))


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_buffered_minibatch_steps_equal_reference_through_partial_batch(lam):
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9, 7), 3, seed=32)
    bufs = _StepBuffers(model, 16)
    order = np.random.default_rng(33).permutation(x.shape[0])
    # 70 rows in batches of 16: four full batches, then a partial one of 6
    for start in range(0, x.shape[0], 16):
        idx = order[start : start + 16]
        loss, grads = _loss_and_grads(model, x[idx], target[idx], centroids, lam, bufs)
        ref_loss, ref_grads = ref_loss_and_grads(model, x[idx], target[idx], centroids, lam)
        assert loss == ref_loss
        assert_bit_equal(grads, net_vectors(model, ref_grads))


def test_loss_and_grads_without_buffers_returns_owned_arrays():
    x, target, centroids = clustered_view()
    model = jittered_model(12, (9,), 3, seed=34)
    _, first = _loss_and_grads(model, x, target, centroids, 0.3)
    kept = [g.copy() for g in first]
    _loss_and_grads(model, 2.0 * x, target, centroids, 0.3)
    assert_bit_equal(first, kept)


@pytest.mark.parametrize("batch_size", [None, 16])
def test_pretrain_and_finetune_params_equal_reference(batch_size):
    x, target, centroids = clustered_view(seed=35)
    cfg = TrainConfig(
        pretrain_epochs=20,
        finetune_steps_per_round=11,
        batch_size=batch_size,
        learning_rate=3e-3,
        clustering_weight=0.2,
    )
    model = pretrain(x, (9, 7), 3, cfg, seed=36, view_index=1)
    ref = ref_pretrain(x, (9, 7), 3, cfg, seed=36, view_index=1)
    assert_bit_equal(model_params(model), model_params(ref))
    finetune_view(model, x, target, centroids, cfg, seed=36)
    ref_finetune(ref, x, target, centroids, cfg, seed=36)
    assert_bit_equal(model_params(model), model_params(ref))


@pytest.mark.parametrize("batch_size", [16, None])
def test_each_round_draws_its_own_batch_order(monkeypatch, batch_size):
    x, target, centroids = clustered_view(seed=38)
    start = jittered_model(12, (9,), 3, seed=39)
    cfg = TrainConfig(finetune_steps_per_round=5, batch_size=batch_size, clustering_weight=0.2)
    real_stream = model_module._batch_stream
    batches = []

    def recording_stream(n, size, rng):
        for idx in real_stream(n, size, rng):
            batches.append(np.arange(n)[idx])
            yield idx

    monkeypatch.setattr(model_module, "_batch_stream", recording_stream)
    params, orders = [], []
    for round_index in (0, 1):
        model = copy.deepcopy(start)
        batches.clear()
        finetune_view(model, x, target, centroids, cfg, seed=7, round_index=round_index)
        params.append(model_params(model))
        orders.append(np.concatenate(batches))
    if batch_size is None:
        # no order to draw, so both rounds finetune alike, bit for bit
        assert_bit_equal(params[0], params[1])
    else:
        # 70 rows in 5 batches of up to 16: one epoch in each round's own order
        for round_index, order in enumerate(orders):
            expected = np.random.default_rng((7, 103, start.view_index, round_index)).permutation(70)
            assert np.array_equal(order, expected)
        assert not np.array_equal(orders[0], orders[1])


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_buffered_step_allocates_less_than_one_view_array(lam):
    # full-batch 600 x 200 view, the size of the benchmark's noise view
    rng = np.random.default_rng(37)
    x = rng.standard_normal((600, 200))
    target = rng.random((600, 3))
    target /= target.sum(axis=1, keepdims=True)
    centroids = rng.standard_normal((3, 8))
    model = build_view_model(200, (32,), 8, 0, rng)
    nets = (model.encoder, model.decoder)
    states = [init_adam(net.params, 1e-3) for net in nets]
    bufs = _StepBuffers(model, x.shape[0])

    def step():
        _, grads = _loss_and_grads(model, x, target, centroids, lam, bufs)
        for net, grad, state in zip(nets, grads, states):
            adam_step(net, grad, state)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        transient = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert transient < x.nbytes
