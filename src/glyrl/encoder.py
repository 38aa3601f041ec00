"""One-hidden-layer sparse autoencoder over normalized patient states.

The encoder maps a unit-interval feature vector to a low-dimensional latent
vector (sigmoid activations on both layers).  Training minimizes mean squared
reconstruction error plus a KL-divergence penalty that pushes the batch-mean
activation of every latent unit toward a small sparsity target.  Everything
runs in numpy with an exact analytic gradient; there is no autodiff.

A raw passthrough (identity) is provided so downstream clustering can consume
either encoded latents or the original features interchangeably.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ArtifactError, TrainingDivergedError

DEFAULT_LATENT_DIM = 32

# Batch-mean activations are clamped to this range before the KL logs so the
# penalty stays finite even when a unit saturates.
ACTIVATION_FLOOR = 1e-6

ENCODER_FORMAT = "glyrl-encoder"
ENCODER_FORMAT_VERSION = 1


@dataclass
class EncoderParams:
    """Weights of the autoencoder; also reused as the gradient container."""

    W_enc: np.ndarray  # (latent_dim, input_dim)
    b_enc: np.ndarray  # (latent_dim,)
    W_dec: np.ndarray  # (input_dim, latent_dim)
    b_dec: np.ndarray  # (input_dim,)
    loss_history: Optional[list] = None

    @property
    def latent_dim(self) -> int:
        return self.W_enc.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_enc.shape[1]

    def copy(self) -> "EncoderParams":
        hist = None if self.loss_history is None else list(self.loss_history)
        return EncoderParams(self.W_enc.copy(), self.b_enc.copy(),
                             self.W_dec.copy(), self.b_dec.copy(), hist)

    def validate(self) -> None:
        lat, inp = self.W_enc.shape
        if self.W_dec.shape != (inp, lat):
            raise ValueError("decoder weights shaped %r, expected %r"
                             % (self.W_dec.shape, (inp, lat)))
        if self.b_enc.shape != (lat,) or self.b_dec.shape != (inp,):
            raise ValueError("bias shapes inconsistent with weight matrices")
        for arr in (self.W_enc, self.b_enc, self.W_dec, self.b_dec):
            if not np.all(np.isfinite(arr)):
                raise ValueError("encoder parameters contain non-finite values")


@dataclass(frozen=True)
class SparsityConfig:
    """Sparsity target for batch-mean activations and its penalty weight."""

    target: float = 0.05
    beta: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError("sparsity target must lie in (0, 1), got %r" % (self.target,))
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0, got %r" % (self.beta,))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0
    optimizer: str = "adam"  # "adam" or "sgd"

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("unknown optimizer %r" % (self.optimizer,))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_params(input_dim: int, latent_dim: int = DEFAULT_LATENT_DIM,
                rng: Optional[np.random.Generator] = None) -> EncoderParams:
    """Glorot-uniform weights, zero biases."""
    if rng is None:
        rng = np.random.default_rng(0)
    if input_dim <= 0 or latent_dim <= 0:
        raise ValueError("dimensions must be positive")
    lim_enc = np.sqrt(6.0 / (input_dim + latent_dim))
    W_enc = rng.uniform(-lim_enc, lim_enc, size=(latent_dim, input_dim))
    W_dec = rng.uniform(-lim_enc, lim_enc, size=(input_dim, latent_dim))
    return EncoderParams(W_enc, np.zeros(latent_dim), W_dec, np.zeros(input_dim))


def _as_batch(x, input_dim: int):
    """Coerce x to a (B, input_dim) float array; remember if it was a vector."""
    arr = np.asarray(x, dtype=float)
    was_vector = arr.ndim == 1
    if was_vector:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise ValueError("expected vectors of length %d, got shape %r"
                         % (input_dim, np.asarray(x).shape))
    return arr, was_vector


def forward(x, params: EncoderParams):
    """Run the autoencoder; returns (latent, reconstruction).

    Accepts a single vector or a (batch, input_dim) matrix and returns
    outputs of matching rank.
    """
    X, was_vector = _as_batch(x, params.input_dim)
    H = _sigmoid(X @ params.W_enc.T + params.b_enc)
    X_hat = _sigmoid(H @ params.W_dec.T + params.b_dec)
    if was_vector:
        return H[0], X_hat[0]
    return H, X_hat


def encode(x, params: EncoderParams) -> np.ndarray:
    """Latent representation only (forward's first output)."""
    return forward(x, params)[0]


def kl_bernoulli(target: float, mean_activations: np.ndarray) -> np.ndarray:
    """Elementwise KL(target || mean_activation) between Bernoulli rates."""
    rho_hat = np.clip(mean_activations, ACTIVATION_FLOOR, 1.0 - ACTIVATION_FLOOR)
    return (target * np.log(target / rho_hat)
            + (1.0 - target) * np.log((1.0 - target) / (1.0 - rho_hat)))


def sparse_loss(batch, params: EncoderParams, sparsity: SparsityConfig) -> float:
    """Mean squared reconstruction error plus the weighted sparsity penalty."""
    X, _ = _as_batch(batch, params.input_dim)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    _, X_hat = forward(X, params)
    recon = float(np.mean(np.sum((X - X_hat) ** 2, axis=1)))
    H = _sigmoid(X @ params.W_enc.T + params.b_enc)
    penalty = float(np.sum(kl_bernoulli(sparsity.target, H.mean(axis=0))))
    return recon + sparsity.beta * penalty


def loss_gradient(batch, params: EncoderParams,
                  sparsity: SparsityConfig) -> EncoderParams:
    """Exact gradient of sparse_loss with respect to every weight and bias.

    The sparsity term depends on the encoder parameters through the
    batch-mean activations, so its gradient flows into W_enc and b_enc
    alongside the reconstruction path.
    """
    X, _ = _as_batch(batch, params.input_dim)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")

    H = _sigmoid(X @ params.W_enc.T + params.b_enc)
    X_hat = _sigmoid(H @ params.W_dec.T + params.b_dec)

    # Reconstruction path.
    delta_dec = (2.0 / n) * (X_hat - X) * X_hat * (1.0 - X_hat)
    g_W_dec = delta_dec.T @ H
    g_b_dec = delta_dec.sum(axis=0)

    dL_dH = delta_dec @ params.W_dec

    # Sparsity path through the batch-mean activation of each unit.  Where
    # the clamp binds the penalty is locally constant, so that unit gets no
    # sparsity gradient.
    rho_raw = H.mean(axis=0)
    unclamped = (rho_raw > ACTIVATION_FLOOR) & (rho_raw < 1.0 - ACTIVATION_FLOOR)
    rho_hat = np.clip(rho_raw, ACTIVATION_FLOOR, 1.0 - ACTIVATION_FLOOR)
    d_kl = -sparsity.target / rho_hat + (1.0 - sparsity.target) / (1.0 - rho_hat)
    dL_dH = dL_dH + (sparsity.beta / n) * (d_kl * unclamped)

    delta_enc = dL_dH * H * (1.0 - H)
    g_W_enc = delta_enc.T @ X
    g_b_enc = delta_enc.sum(axis=0)
    return EncoderParams(g_W_enc, g_b_enc, g_W_dec, g_b_dec)


class _SGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad):
        params.W_enc -= self.lr * grad.W_enc
        params.b_enc -= self.lr * grad.b_enc
        params.W_dec -= self.lr * grad.W_dec
        params.b_dec -= self.lr * grad.b_dec


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grad):
        fields = ("W_enc", "b_enc", "W_dec", "b_dec")
        if self.m is None:
            self.m = {f: np.zeros_like(getattr(params, f)) for f in fields}
            self.v = {f: np.zeros_like(getattr(params, f)) for f in fields}
        self.t += 1
        for f in fields:
            g = getattr(grad, f)
            self.m[f] = self.beta1 * self.m[f] + (1.0 - self.beta1) * g
            self.v[f] = self.beta2 * self.v[f] + (1.0 - self.beta2) * g * g
            m_hat = self.m[f] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[f] / (1.0 - self.beta2 ** self.t)
            getattr(params, f)[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train(dataset, config: TrainConfig, sparsity: SparsityConfig,
          latent_dim: int = DEFAULT_LATENT_DIM) -> EncoderParams:
    """Minibatch gradient descent on sparse_loss.

    The seed fixes both weight initialization and batch shuffling.  The
    parameters with the best end-of-epoch loss are returned, so the final
    training loss never exceeds the initial one.  loss_history on the
    returned params holds the pre-training loss followed by one entry per
    completed epoch.
    """
    X = np.asarray(dataset, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (samples, features) matrix")

    rng = np.random.default_rng(config.seed)
    params = init_params(X.shape[1], latent_dim, rng)
    optimizer = _SGD(config.learning_rate) if config.optimizer == "sgd" \
        else _Adam(config.learning_rate)

    initial = sparse_loss(X, params, sparsity)
    if not np.isfinite(initial):
        raise TrainingDivergedError(0, config.learning_rate)
    history = [initial]
    best_loss = initial
    best = params.copy()

    n = X.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = X[order[start:start + config.batch_size]]
            grad = loss_gradient(batch, params, sparsity)
            optimizer.step(params, grad)
        epoch_loss = sparse_loss(X, params, sparsity)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, config.learning_rate)
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best = params.copy()

    best.loss_history = history
    return best


def save_encoder(path: str, params: EncoderParams,
                 hyperparameters: Optional[dict] = None) -> None:
    """Write params as self-describing JSON (row-major weight lists)."""
    params.validate()
    doc = {
        "format": ENCODER_FORMAT,
        "version": ENCODER_FORMAT_VERSION,
        "input_dim": params.input_dim,
        "latent_dim": params.latent_dim,
        "hyperparameters": dict(hyperparameters) if hyperparameters else {},
        "W_enc": params.W_enc.tolist(),
        "b_enc": params.b_enc.tolist(),
        "W_dec": params.W_dec.tolist(),
        "b_dec": params.b_dec.tolist(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def load_encoder(path: str) -> EncoderParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError("cannot read encoder model %s: %s" % (path, exc))
    if doc.get("format") != ENCODER_FORMAT:
        raise ArtifactError("%s is not an encoder model file" % path)
    if doc.get("version") != ENCODER_FORMAT_VERSION:
        raise ArtifactError("unsupported encoder model version %r" % (doc.get("version"),))
    try:
        params = EncoderParams(
            np.array(doc["W_enc"], dtype=float),
            np.array(doc["b_enc"], dtype=float),
            np.array(doc["W_dec"], dtype=float),
            np.array(doc["b_dec"], dtype=float),
        )
        params.validate()
        if (params.input_dim, params.latent_dim) != (doc["input_dim"], doc["latent_dim"]):
            raise ValueError("declared dims do not match stored arrays")
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError("malformed encoder model %s: %s" % (path, exc))
    return params
