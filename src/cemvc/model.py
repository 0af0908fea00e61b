"""Per-view autoencoders with strictly disjoint parameters.

A ViewModel owns its encoder and decoder outright, each with its own
parameter vector; nothing is shared between views, so finetuning one view
can never move another view's parameters. pretrain and finetune_view run
the same step loop, with Adam updating each net's vector in one pass. The
step's forward half is the only code that computes the per-sample
Frobenius losses:

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
    as_input,
    as_matrix,
    backward,
    check_count,
    check_real,
    forward,
    init_adam,
    init_dense_net,
)


@dataclass
class TrainConfig:
    pretrain_epochs: int = 200
    finetune_steps_per_round: int = 50
    batch_size: int | None = None  # None = full batch
    learning_rate: float = 1e-3
    clustering_weight: float = 0.1  # lambda in the combined loss

    def __post_init__(self) -> None:
        check_count("pretrain_epochs", self.pretrain_epochs)
        check_count("finetune_steps_per_round", self.finetune_steps_per_round)
        if self.batch_size is not None:
            check_count("batch_size", self.batch_size)
        check_real("learning_rate", self.learning_rate)
        check_real("clustering_weight", self.clustering_weight)
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


class _StepBuffers:
    """Training buffers for batches of up to `rows` rows, reused every step.

    One training call owns them, so they are freed when it returns.
    """

    def __init__(self, model: ViewModel, rows: int) -> None:
        self.enc = Workspace(model.encoder, rows)
        self.dec = Workspace(model.decoder, rows, input_grad=True)


def _forward_loss(
    model: ViewModel,
    x: np.ndarray,
    target: np.ndarray | None,
    centroids: np.ndarray | None,
    clustering_weight: float,
    bufs: _StepBuffers | None = None,
):
    """The combined loss, with the forward values its gradient reads:
    (loss, latent, residual, kernel, q_diff), the last two None when
    clustering_weight == 0.

    This is the only code that computes the objective. With
    clustering_weight == 0 the target is never touched, so callers may
    pass None (or garbage) for it. Without `bufs` the values are fresh
    arrays and x is taken as checked, so a non-finite latent gives a
    non-finite loss, not an error.
    """
    n = x.shape[0]
    latent = forward(model.encoder, x, bufs and bufs.enc, checked=True)
    # the residual overwrites the decoder's output, which backward never reads
    diff = forward(model.decoder, latent, bufs and bufs.dec, checked=True)
    diff -= x
    loss = float(np.einsum("ij,ij->", diff, diff)) / n
    kernel = q_diff = None
    if clustering_weight > 0:
        kernel = _student_t(latent, centroids)
        q_diff = kernel[2] - target
        loss += clustering_weight * float(np.einsum("ij,ij->", q_diff, q_diff)) / n
    return loss, latent, diff, kernel, q_diff


def _loss_and_grads(
    model: ViewModel,
    x: np.ndarray,
    target: np.ndarray | None,
    centroids: np.ndarray | None,
    clustering_weight: float,
    bufs: _StepBuffers | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Combined loss and its gradient, one vector per net as in model_params.

    A training loop passes its `bufs`, and the gradients it gets back
    live in them until the next step; without `bufs` the gradients are
    fresh arrays owned by the caller.
    """
    n = x.shape[0]
    if bufs is None:
        bufs = _StepBuffers(model, n)
    loss, latent, diff, kernel, q_diff = _forward_loss(model, x, target, centroids, clustering_weight, bufs)
    # the gradient 2 * diff / n; as 2 * diff and n / 2 are exact, one division rounds alike
    diff /= n / 2
    dec_grad, d_latent = backward(model.decoder, latent, diff, bufs.dec)
    if kernel is not None:
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
    seed: int = 0,
    view_index: int = 0,
) -> ViewModel:
    """Train a fresh autoencoder on reconstruction alone."""
    x = as_matrix(view_data, "view data")
    init_rng = np.random.default_rng((seed, 101, view_index))
    batch_rng = np.random.default_rng((seed, 102, view_index))
    model = build_view_model(x.shape[1], hidden_dims, latent_dim, view_index, init_rng)
    per_epoch = -(-x.shape[0] // (cfg.batch_size or x.shape[0]))  # batches, rounded up
    _train(
        model, x, None, None, 0.0, cfg, cfg.pretrain_epochs * per_epoch, batch_rng,
        lambda step: f"pretraining loss at epoch {step // per_epoch}",
    )
    return model


def finetune_view(
    model: ViewModel, x, target, centroids, cfg: TrainConfig, seed: int = 0, round_index: int = 0
) -> float:
    """Run finetune_steps_per_round combined-loss steps on this view only, in place.

    Returns the combined loss over every row at the finetuned parameters
    (a full-batch step's loss, from its forward half alone), whatever the
    batch size; a non-finite step loss raises, this one is returned as it is. Centroids stay frozen for the whole round. With
    clustering_weight == 0 the target and centroids are never read.
    Mini-batches are drawn from (seed, 103, view_index, round_index), so
    each outer round has its own batch order.
    """
    lam = cfg.clustering_weight
    x = as_input(model.encoder, x, "view data")
    if lam > 0:
        target = as_matrix(target, "target")
        centroids = as_matrix(centroids, "centroids")
        if target.shape[0] != x.shape[0]:
            raise ValueError(f"target has {target.shape[0]} rows, view data has {x.shape[0]}")
        if centroids.shape != (target.shape[1], model.latent_dim):
            raise ValueError(
                f"centroids have shape {centroids.shape}, expected "
                f"({target.shape[1]}, {model.latent_dim})"
            )
    batch_rng = np.random.default_rng((seed, 103, model.view_index, round_index))
    _train(
        model, x, target, centroids, lam, cfg, cfg.finetune_steps_per_round, batch_rng,
        lambda step: f"finetuning loss at step {step}",
    )
    return _forward_loss(model, x, target, centroids, lam)[0]
