"""Per-view autoencoders with strictly disjoint parameters.

A ViewModel owns its encoder and decoder outright; nothing is shared
between views, so finetuning one view can never move another view's
parameters. Training minimizes per-sample Frobenius losses:

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

from .clustering import soft_assign, soft_assign_input_grad
from .numcore import (
    DenseNet,
    Workspace,
    adam_step,
    as_matrix,
    backward,
    forward,
    init_adam,
    init_dense_net,
    net_param_names,
    net_params,
)


@dataclass
class TrainConfig:
    pretrain_epochs: int = 200
    finetune_steps_per_round: int = 50
    batch_size: int | None = None  # None = full batch
    learning_rate: float = 1e-3
    clustering_weight: float = 0.1  # lambda in the combined loss
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pretrain_epochs < 1 or self.finetune_steps_per_round < 1:
            raise ValueError("epoch and step counts must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.clustering_weight < 0:
            raise ValueError("clustering weight must be >= 0")


@dataclass
class ViewModel:
    encoder: DenseNet
    decoder: DenseNet
    view_index: int
    latent_dim: int

    def __post_init__(self) -> None:
        if self.encoder.output_dim != self.latent_dim:
            raise ValueError(
                f"encoder output dim {self.encoder.output_dim} != latent dim {self.latent_dim}"
            )
        if self.decoder.input_dim != self.latent_dim:
            raise ValueError(
                f"decoder input dim {self.decoder.input_dim} != latent dim {self.latent_dim}"
            )


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
    return ViewModel(encoder, decoder, view_index, latent_dim)


def model_params(model: ViewModel) -> list[np.ndarray]:
    return net_params(model.encoder) + net_params(model.decoder)


def model_param_names(model: ViewModel) -> list[str]:
    tag = f"view{model.view_index}"
    return net_param_names(model.encoder, f"{tag}.encoder") + net_param_names(
        model.decoder, f"{tag}.decoder"
    )


def encode(model: ViewModel, x) -> np.ndarray:
    return forward(model.encoder, x)


def reconstruct(model: ViewModel, x) -> np.ndarray:
    return forward(model.decoder, forward(model.encoder, x))


def reconstruction_loss(model: ViewModel, x) -> float:
    x = as_matrix(x, "input")
    diff = reconstruct(model, x) - x
    return float(np.einsum("ij,ij->", diff, diff)) / x.shape[0]


def combined_loss(
    model: ViewModel, x, target, centroids, clustering_weight: float
) -> float:
    loss = reconstruction_loss(model, x)
    if clustering_weight > 0:
        q = soft_assign(encode(model, x), centroids)
        diff = q - target
        loss += clustering_weight * float(np.einsum("ij,ij->", diff, diff)) / x.shape[0]
    return loss


class _StepBuffers:
    """Training buffers for batches of up to `rows` rows, reused every step.

    One training call owns them, so they are freed when it returns.
    """

    def __init__(self, model: ViewModel, rows: int) -> None:
        self.enc = Workspace(model.encoder, rows)
        self.dec = Workspace(model.decoder, rows, input_grad=True)
        self.diff = np.empty((rows, model.decoder.output_dim))
        self.grads = self.enc.grads + self.dec.grads


def _loss_and_grads(
    model: ViewModel,
    x: np.ndarray,
    target: np.ndarray | None,
    centroids: np.ndarray | None,
    clustering_weight: float,
    bufs: _StepBuffers | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Combined loss and its gradient for every model parameter.

    With clustering_weight == 0 the target is never touched, so callers may
    pass None (or garbage) for it. A training loop passes its `bufs`, and
    the gradients it gets back live in them until the next step; without
    `bufs` the gradients are fresh arrays owned by the caller.
    """
    n = x.shape[0]
    if bufs is None:
        bufs = _StepBuffers(model, n)
    latent = forward(model.encoder, x, bufs.enc)
    recon = forward(model.decoder, latent, bufs.dec)
    diff = np.subtract(recon, x, out=bufs.diff[:n])
    loss = float(np.einsum("ij,ij->", diff, diff)) / n
    diff *= 2.0
    diff /= n  # now the reconstruction loss gradient 2 * diff / n
    _, d_latent = backward(model.decoder, latent, diff, bufs.dec)
    if clustering_weight > 0:
        q = soft_assign(latent, centroids)
        q_diff = q - target
        loss += clustering_weight * float(np.einsum("ij,ij->", q_diff, q_diff)) / n
        d_cluster = soft_assign_input_grad(latent, centroids, 2.0 * q_diff / n)
        d_cluster *= clustering_weight
        d_latent += d_cluster
    backward(model.encoder, x, d_latent, bufs.enc)
    return loss, bufs.grads


def _batches(n: int, batch_size: int | None, rng: np.random.Generator):
    if batch_size is None or batch_size >= n:
        yield slice(None)
        return
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


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
    params = model_params(model)
    names = model_param_names(model)
    state = init_adam(params, cfg.learning_rate)
    bufs = _StepBuffers(model, min(x.shape[0], cfg.batch_size or x.shape[0]))
    for epoch in range(cfg.pretrain_epochs):
        for idx in _batches(x.shape[0], cfg.batch_size, batch_rng):
            loss, grads = _loss_and_grads(model, x[idx], None, None, 0.0, bufs)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite pretraining loss at epoch {epoch} for view {view_index}"
                )
            adam_step(params, grads, state, names)
    return model


def finetune_view(
    model: ViewModel,
    x,
    target,
    centroids,
    cfg: TrainConfig,
) -> ViewModel:
    """Run finetune_steps_per_round combined-loss steps on this view only.

    Centroids stay frozen for the whole round. With clustering_weight == 0
    the target matrix is never read.
    """
    x = as_matrix(x, "view data")
    if x.shape[1] != model.encoder.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns but the first layer expects "
            f"{model.encoder.input_dim}"
        )
    lam = cfg.clustering_weight
    if lam > 0:
        target = as_matrix(target, "target")
        centroids = as_matrix(centroids, "centroids")
        if target.shape[0] != x.shape[0]:
            raise ValueError(
                f"target has {target.shape[0]} rows, view data has {x.shape[0]}"
            )
        if centroids.shape != (target.shape[1], model.latent_dim):
            raise ValueError(
                f"centroids have shape {centroids.shape}, expected "
                f"({target.shape[1]}, {model.latent_dim})"
            )
    params = model_params(model)
    names = model_param_names(model)
    state = init_adam(params, cfg.learning_rate)
    batch_rng = np.random.default_rng((cfg.seed, 103, model.view_index))
    bufs = _StepBuffers(model, min(x.shape[0], cfg.batch_size or x.shape[0]))
    steps = 0
    while steps < cfg.finetune_steps_per_round:
        for idx in _batches(x.shape[0], cfg.batch_size, batch_rng):
            xb = x[idx]
            tb = target[idx] if lam > 0 else None
            loss, grads = _loss_and_grads(
                model, xb, tb, centroids if lam > 0 else None, lam, bufs
            )
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite finetuning loss at step {steps} for view {model.view_index}"
                )
            adam_step(params, grads, state, names)
            steps += 1
            if steps >= cfg.finetune_steps_per_round:
                break
    return model

