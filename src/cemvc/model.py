"""Per-view autoencoders with strictly disjoint parameters.

A ViewModel owns its encoder and decoder outright, each with its own
parameter vector; nothing is shared between views, so finetuning one view
can never move another view's parameters. pretrain and finetune_view run
the same step loop, with Adam updating each net's vector in one pass. The
step is the only code that computes the per-sample Frobenius losses:

    recon      = ||X - decode(encode(X))||_F^2 / N
    clustering = ||T - soft_assign(encode(X), centroids)||_F^2 / N
    combined   = recon + lambda * clustering

The Student-t soft labels and sharpened targets follow DEC (Xie et al.,
ICML 2016); keeping the reconstruction term while finetuning follows IDEC
(Guo et al., IJCAI 2017).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import _student_t, soft_assign_input_grad
from .numcore import (
    DenseNet,
    Workspace,
    adam_step,
    as_matrix,
    backward,
    forward,
    init_adam,
    init_dense_net,
)


def check_count(name: str, value, minimum: int = 1) -> None:
    """Reject a config count that is not an integer >= minimum; bools are not counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class TrainConfig:
    pretrain_epochs: int = 200
    finetune_steps_per_round: int = 50
    batch_size: int | None = None  # None = full batch
    learning_rate: float = 1e-3
    clustering_weight: float = 0.1  # lambda in the combined loss
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("pretrain_epochs", self.pretrain_epochs)
        check_count("finetune_steps_per_round", self.finetune_steps_per_round)
        if self.batch_size is not None:
            check_count("batch_size", self.batch_size)
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.clustering_weight < 0:
            raise ValueError("clustering weight must be >= 0")


@dataclass
class ViewModel:
    encoder: DenseNet
    decoder: DenseNet
    view_index: int

    def __post_init__(self) -> None:
        if self.decoder.input_dim != self.latent_dim:
            raise ValueError(
                f"decoder input dim {self.decoder.input_dim} != latent dim {self.latent_dim}"
            )

    @property
    def latent_dim(self) -> int:
        return self.encoder.output_dim


def build_view_model(
    input_dim: int,
    hidden_dims,
    latent_dim: int,
    view_index: int,
    rng: np.random.Generator,
) -> ViewModel:
    """Fresh symmetric autoencoder D -> hidden -> latent -> hidden -> D."""
    hidden = list(hidden_dims)
    encoder = init_dense_net([input_dim, *hidden, latent_dim], rng)
    decoder = init_dense_net([latent_dim, *reversed(hidden), input_dim], rng)
    return ViewModel(encoder, decoder, view_index)


def model_params(model: ViewModel) -> list[np.ndarray]:
    """[encoder.params, decoder.params], by reference."""
    return [model.encoder.params, model.decoder.params]


def encode(model: ViewModel, x) -> np.ndarray:
    return forward(model.encoder, x)


def _checked_inputs(model: ViewModel, x, target, centroids, clustering_weight: float):
    """x, target and centroids as finite float64 matrices that fit the model.

    With clustering_weight == 0 the target and centroids are returned unread.
    """
    x = as_matrix(x, "view data")
    if x.shape[1] != model.encoder.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns but the first layer expects "
            f"{model.encoder.input_dim}"
        )
    if clustering_weight > 0:
        target = as_matrix(target, "target")
        centroids = as_matrix(centroids, "centroids")
        if target.shape[0] != x.shape[0]:
            raise ValueError(f"target has {target.shape[0]} rows, view data has {x.shape[0]}")
        if centroids.shape != (target.shape[1], model.latent_dim):
            raise ValueError(
                f"centroids have shape {centroids.shape}, expected "
                f"({target.shape[1]}, {model.latent_dim})"
            )
    return x, target, centroids


def combined_loss(model: ViewModel, x, target, centroids, clustering_weight: float) -> float:
    """The loss of one full-batch training step on x; its gradient is discarded.

    Inputs are checked as finetune_view checks them. With
    clustering_weight == 0 the target and centroids are never read.
    """
    x, target, centroids = _checked_inputs(model, x, target, centroids, clustering_weight)
    return _loss_and_grads(model, x, target, centroids, clustering_weight)[0]


class _StepBuffers:
    """Training buffers for batches of up to `rows` rows, reused every step.

    One training call owns them, so they are freed when it returns.
    """

    def __init__(self, model: ViewModel, rows: int) -> None:
        self.enc = Workspace(model.encoder, rows)
        self.dec = Workspace(model.decoder, rows, input_grad=True)


def _loss_and_grads(
    model: ViewModel,
    x: np.ndarray,
    target: np.ndarray | None,
    centroids: np.ndarray | None,
    clustering_weight: float,
    bufs: _StepBuffers | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Combined loss and its gradient, one vector per net as in model_params.

    This is the only code that computes the objective. With
    clustering_weight == 0 the target is never touched, so callers may
    pass None (or garbage) for it. A training loop passes its `bufs`, and
    the gradients it gets back live in them until the next step; without
    `bufs` the gradients are fresh arrays owned by the caller.
    """
    n = x.shape[0]
    if bufs is None:
        bufs = _StepBuffers(model, n)
    latent = forward(model.encoder, x, bufs.enc)
    # the residual overwrites the decoder's output, which backward never reads
    diff = forward(model.decoder, latent, bufs.dec)
    diff -= x
    loss = float(np.einsum("ij,ij->", diff, diff)) / n
    # the gradient 2 * diff / n; as 2 * diff and n / 2 are exact, one division rounds alike
    diff /= n / 2
    dec_grad, d_latent = backward(model.decoder, latent, diff, bufs.dec)
    if clustering_weight > 0:
        kernel = _student_t(latent, centroids)
        q_diff = kernel[2] - target
        loss += clustering_weight * float(np.einsum("ij,ij->", q_diff, q_diff)) / n
        upstream = 2.0 * q_diff / n
        d_latent += clustering_weight * soft_assign_input_grad(latent, centroids, kernel, upstream)
    enc_grad, _ = backward(model.encoder, x, d_latent, bufs.enc)
    return loss, [enc_grad, dec_grad]


def _batch_stream(n: int, batch_size: int | None, rng: np.random.Generator):
    """Row selections of successive batches, reshuffled every epoch, forever."""
    if batch_size is None or batch_size >= n:
        while True:
            yield slice(None)
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def _train(
    model: ViewModel,
    x: np.ndarray,
    target: np.ndarray | None,
    centroids: np.ndarray | None,
    lam: float,
    cfg: TrainConfig,
    steps: int,
    batch_rng: np.random.Generator,
    where,
) -> None:
    """Run `steps` Adam steps on the combined loss, updating the model in place.

    `where(step)` names the position of a non-finite loss in the error.
    """
    nets = (model.encoder, model.decoder)
    states = [init_adam(net.params, cfg.learning_rate) for net in nets]
    names = (f"view{model.view_index}.encoder", f"view{model.view_index}.decoder")
    bufs = _StepBuffers(model, min(x.shape[0], cfg.batch_size or x.shape[0]))
    for step, idx in zip(range(steps), _batch_stream(x.shape[0], cfg.batch_size, batch_rng)):
        tb = target[idx] if lam > 0 else None
        loss, grads = _loss_and_grads(model, x[idx], tb, centroids, lam, bufs)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite {where(step)} for view {model.view_index}")
        for net, grad, state, name in zip(nets, grads, states, names):
            adam_step(net, grad, state, name)


def pretrain(
    view_data,
    hidden_dims,
    latent_dim: int,
    cfg: TrainConfig,
    view_index: int = 0,
) -> ViewModel:
    """Train a fresh autoencoder on reconstruction alone."""
    x = as_matrix(view_data, "view data")
    init_rng = np.random.default_rng((cfg.seed, 101, view_index))
    batch_rng = np.random.default_rng((cfg.seed, 102, view_index))
    model = build_view_model(x.shape[1], hidden_dims, latent_dim, view_index, init_rng)
    per_epoch = -(-x.shape[0] // (cfg.batch_size or x.shape[0]))  # batches, rounded up
    _train(
        model, x, None, None, 0.0, cfg, cfg.pretrain_epochs * per_epoch, batch_rng,
        lambda step: f"pretraining loss at epoch {step // per_epoch}",
    )
    return model


def finetune_view(model: ViewModel, x, target, centroids, cfg: TrainConfig) -> ViewModel:
    """Run finetune_steps_per_round combined-loss steps on this view only.

    Centroids stay frozen for the whole round. With clustering_weight == 0
    the target matrix is never read.
    """
    lam = cfg.clustering_weight
    x, target, centroids = _checked_inputs(model, x, target, centroids, lam)
    batch_rng = np.random.default_rng((cfg.seed, 103, model.view_index))
    _train(
        model, x, target, centroids, lam, cfg, cfg.finetune_steps_per_round, batch_rng,
        lambda step: f"finetuning loss at step {step}",
    )
    return model
