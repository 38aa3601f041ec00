"""One-hidden-layer sparse autoencoder over normalized patient states.

The encoder maps each row of a matrix of unit-interval features to a
low-dimensional latent row (sigmoid activations on both layers).  Training
minimizes mean squared reconstruction error plus a KL-divergence penalty
that pushes the batch-mean activation of every latent unit toward a small
sparsity target.  Everything runs in numpy with an exact analytic gradient;
there is no autodiff.  One layer kernel, _layer_into, computes every layer:
both layers of a minibatch step and of the epoch loss, and encode's one.

Training runs in one preallocated workspace: the four parameter arrays and
their gradient are views of two flat vectors, minibatch steps and optimizer
updates write in place, and each epoch's loss computes the hidden layer once.
A minibatch step writes every intermediate into preallocated scratch, and
its row sums and batch means are the reductions that np.sum and np.mean
run.  Its scalar operands are 0-d arrays made once, which numpy takes
without converting a Python float on every call.  Memory is bounded: beyond
the two layer outputs of a loss pass, elementwise scratch spans at most
BLOCK_ROWS rows, and each epoch's shuffled rows are gathered a chunk of
whole minibatches at a time, about BLOCK_ROWS rows, into one reusable
buffer.  The weights and loss history are bitwise those of the plain
per-operation form, which the tests keep as their oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import EncoderConfig
from .errors import TrainingDivergedError
from .mdp import check_header, header_int

# Batch-mean activations are clamped to this range before the KL logs so the
# penalty stays finite even when a unit saturates.
ACTIVATION_FLOOR = 1e-6


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a ufunc takes it without
    converting a Python float on every call."""
    array = np.array(value)
    array.flags.writeable = False
    return array


# The scalar operands of the elementwise passes.
_ZERO, _ONE = _constant(0.0), _constant(1.0)
_FLOOR, _CEILING = _constant(ACTIVATION_FLOOR), _constant(1.0 - ACTIVATION_FLOOR)

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


# Rows per block of the elementwise passes over a whole dataset: the
# sigmoid's scratch, and so the memory a loss pass or an encode adds beyond
# the layer outputs themselves.  Training gathers its shuffled minibatches
# in chunks of about as many rows.
BLOCK_ROWS = 4096


def _sigmoid_block(z: np.ndarray, den: np.ndarray) -> None:
    """Overwrite z with its logistic sigmoid; den is float scratch of z's
    shape.

    The result is bitwise that of splitting by sign, 1/(1+exp(-z)) where
    z >= 0 and exp(z)/(1+exp(z)) elsewhere, without masks: the numerator
    exp(min(z, 0)) is exactly 1 where z >= 0, and the denominator's
    exp(min(z, -z)) = exp(-|z|) never overflows.  Both keep a NaN's sign,
    as exp(z) did.
    """
    np.negative(z, out=den)
    np.minimum(z, den, out=den)
    np.exp(den, out=den)
    den += _ONE
    np.minimum(z, _ZERO, out=z)
    np.exp(z, out=z)
    z /= den


def init_params(input_dim: int, latent_dim: int,
                rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights, zero biases."""
    lim_enc = np.sqrt(6.0 / (input_dim + latent_dim))
    W_enc = rng.uniform(-lim_enc, lim_enc, size=(latent_dim, input_dim))
    W_dec = rng.uniform(-lim_enc, lim_enc, size=(input_dim, latent_dim))
    return EncoderParams(W_enc, np.zeros(latent_dim), W_dec, np.zeros(input_dim))


def _as_batch(x, input_dim: int) -> np.ndarray:
    """x as a (rows, input_dim) float matrix."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise ValueError("expected a matrix of %d columns, got shape %r"
                         % (input_dim, arr.shape))
    return arr


def _layer_into(X: np.ndarray, W: np.ndarray, b: np.ndarray,
                out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = sigmoid(X @ W.T + b): the one layer kernel of training, the
    epoch loss and encode.

    The product is one matmul over every row of X.  tmp is float scratch
    with out's row width: with as many rows as out the sigmoid is one
    _sigmoid_block call, otherwise it runs len(tmp) rows at a time.
    """
    np.matmul(X, W.T, out=out)
    out += b
    if len(tmp) == len(out):
        _sigmoid_block(out, tmp)
    else:
        for start in range(0, len(out), len(tmp)):
            block = out[start:start + len(tmp)]
            _sigmoid_block(block, tmp[:len(block)])
    return out


def encode(X, params: EncoderParams) -> np.ndarray:
    """The latent rows of the rows of matrix X: the encoder layer alone."""
    X = _as_batch(X, params.input_dim)
    rows, lat = len(X), params.latent_dim
    return _layer_into(X, params.W_enc, params.b_enc, np.empty((rows, lat)),
                       np.empty((min(BLOCK_ROWS, rows), lat)))


def kl_bernoulli(target: float, mean_activations: np.ndarray) -> np.ndarray:
    """Elementwise KL(target || mean_activation) between Bernoulli rates."""
    rho_hat = np.clip(mean_activations, ACTIVATION_FLOOR, 1.0 - ACTIVATION_FLOOR)
    return (target * np.log(target / rho_hat)
            + (1.0 - target) * np.log((1.0 - target) / (1.0 - rho_hat)))


def _views(flat: np.ndarray, latent_dim: int, input_dim: int) -> EncoderParams:
    """W_enc, b_enc, W_dec and b_dec as views of one flat vector."""
    w = latent_dim * input_dim
    return EncoderParams(flat[:w].reshape(latent_dim, input_dim),
                         flat[w:w + latent_dim],
                         flat[w + latent_dim:2 * w + latent_dim]
                         .reshape(input_dim, latent_dim),
                         flat[2 * w + latent_dim:])


class _Workspace:
    """One autoencoder's parameters and gradient as views of two flat
    vectors, with the scratch that gradients on up to ``batch_rows`` rows and
    the loss over ``n_rows`` rows write into.

    Every operation keeps the order of the textbook expressions it replaces
    (noted beside each block), so the results are bitwise theirs.  The
    scalars that depend on a batch's row count m are made once per m.
    """

    def __init__(self, params: EncoderParams, config: EncoderConfig,
                 batch_rows: int, n_rows: int):
        lat, inp = params.latent_dim, params.input_dim
        self.target, self.beta = config.sparsity_target, config.beta
        self.neg_target = np.array(-self.target)
        self.one_minus_target = np.array(1.0 - self.target)
        self.per_rows = {}  # m: (2/m, m, beta/m)
        self.flat = np.concatenate([params.W_enc.ravel(), params.b_enc,
                                    params.W_dec.ravel(), params.b_dec])
        self.grad = np.empty_like(self.flat)
        self.params = _views(self.flat, lat, inp)
        self.grads = _views(self.grad, lat, inp)
        self.block = max(1, min(BLOCK_ROWS, n_rows))
        rows = max(batch_rows, self.block)
        self.hidden, self.hidden_tmp = np.empty((2, rows, lat))
        self.out, self.out_tmp = np.empty((2, rows, inp))
        self.all_hidden = np.empty((n_rows, lat))
        self.all_out = np.empty((n_rows, inp))
        self.row_sums = np.empty(n_rows)
        self.rho, self.d_kl = np.empty((2, lat))
        self.unclamped, self.below_ceiling = np.empty((2, lat), dtype=bool)

    def loss(self, X: np.ndarray) -> float:
        """sparse_loss over all n_rows rows of X.

        Each layer's product is one matmul over every row, as in the
        textbook form: a product cut into row blocks can change its last
        bits (a one-row block runs as a matrix-vector product).
        """
        p = self.params
        H = _layer_into(X, p.W_enc, p.b_enc, self.all_hidden,
                        self.hidden_tmp[:self.block])
        X_hat = _layer_into(H, p.W_dec, p.b_dec, self.all_out,
                            self.out_tmp[:self.block])
        # mean(sum((X - X_hat) ** 2, axis=1))
        np.subtract(X, X_hat, out=X_hat)
        np.square(X_hat, out=X_hat)
        recon = float(np.mean(np.sum(X_hat, axis=1, out=self.row_sums)))
        penalty = float(np.sum(kl_bernoulli(self.target, H.mean(axis=0))))
        return recon + self.beta * penalty

    def gradient(self, X: np.ndarray) -> None:
        """Write the exact gradient of sparse_loss on the rows of X into
        self.grad (seen through self.grads).

        A minibatch fits the scratch, so every intermediate is written in
        place.  np.add.reduce is the reduction that np.sum runs, and
        np.mean divides it by the row count.  The products stay matmul:
        np.dot multiplies a 1x1 by 1x1 product where matmul adds it to
        +0.0, which keeps a -0.0.
        """
        m = len(X)
        p, g = self.params, self.grads
        scalars = self.per_rows.get(m)
        if scalars is None:
            scalars = self.per_rows[m] = (np.array(2.0 / m), np.array(float(m)),
                                          np.array(self.beta / m))
        two_over_m, m_float, beta_over_m = scalars
        H, dH = self.hidden[:m], self.hidden_tmp[:m]
        X_hat, D = self.out[:m], self.out_tmp[:m]
        _layer_into(X, p.W_enc, p.b_enc, H, dH)
        _layer_into(H, p.W_dec, p.b_dec, X_hat, D)

        # Reconstruction path: D = (2/m) * (X_hat - X) * X_hat * (1 - X_hat).
        np.subtract(X_hat, X, out=D)
        D *= two_over_m
        D *= X_hat
        np.subtract(_ONE, X_hat, out=X_hat)
        D *= X_hat
        np.matmul(D.T, H, out=g.W_dec)
        np.add.reduce(D, axis=0, out=g.b_dec)
        np.matmul(D, p.W_dec, out=dH)

        # Sparsity path through the batch-mean activation of each unit.  Where
        # the clamp binds the penalty is locally constant, so that unit gets
        # no sparsity gradient.
        # unclamped = FLOOR < mean(H, axis=0) < 1 - FLOOR; rho = clip(the mean)
        rho, d_kl = self.rho, self.d_kl
        unclamped, below_ceiling = self.unclamped, self.below_ceiling
        np.add.reduce(H, axis=0, out=rho)
        rho /= m_float
        np.greater(rho, _FLOOR, out=unclamped)
        np.less(rho, _CEILING, out=below_ceiling)
        unclamped &= below_ceiling
        np.maximum(rho, _FLOOR, out=rho)
        np.minimum(rho, _CEILING, out=rho)
        # dH += (beta/m) * ((-target/rho + (1-target)/(1-rho)) * unclamped)
        np.divide(self.neg_target, rho, out=d_kl)
        np.subtract(_ONE, rho, out=rho)
        np.divide(self.one_minus_target, rho, out=rho)
        d_kl += rho
        d_kl *= unclamped
        d_kl *= beta_over_m
        dH += d_kl

        # Encoder path: dH * H * (1 - H).
        dH *= H
        np.subtract(_ONE, H, out=H)
        dH *= H
        np.matmul(dH.T, X, out=g.W_enc)
        np.add.reduce(dH, axis=0, out=g.b_enc)


def sparse_loss(batch, params: EncoderParams, config: EncoderConfig) -> float:
    """Mean squared reconstruction error plus ``config.beta`` times the KL
    divergence of each unit's batch-mean activation from
    ``config.sparsity_target``."""
    X = _as_batch(batch, params.input_dim)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    return _Workspace(params, config, 0, len(X)).loss(X)


class _Adam:
    """Adam on one flat vector, in place, in the operation order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    flat -= lr*m_hat / (sqrt(v_hat) + eps).  The scalar operands are 0-d
    arrays; the two bias corrections are written into theirs each step."""

    def __init__(self, lr: float, size: int, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2 = beta1, beta2
        self.b1, self.b2 = np.array(beta1), np.array(beta2)
        self.one_minus_b1 = np.array(1.0 - beta1)
        self.one_minus_b2 = np.array(1.0 - beta2)
        self.lr, self.eps = np.array(lr), np.array(eps)
        self.correction1, self.correction2 = np.array(1.0), np.array(1.0)
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.tmp = np.empty(size)
        self.den = np.empty(size)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        tmp, den = self.tmp, self.den
        self.t += 1
        self.correction1[()] = 1.0 - self.beta1 ** self.t
        self.correction2[()] = 1.0 - self.beta2 ** self.t
        self.m *= self.b1
        np.multiply(grad, self.one_minus_b1, out=tmp)
        self.m += tmp
        self.v *= self.b2
        np.multiply(grad, self.one_minus_b2, out=tmp)
        tmp *= grad
        self.v += tmp
        np.divide(self.m, self.correction1, out=tmp)
        tmp *= self.lr
        np.divide(self.v, self.correction2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        tmp /= den
        flat -= tmp


def train(dataset, config: EncoderConfig, seed: int) -> EncoderParams:
    """Adam minibatch descent on sparse_loss, with config's latent size,
    sparsity target and penalty weight, epochs, batch size and step size.

    The seed fixes both weight initialization and batch shuffling.  The
    parameters with the best end-of-epoch loss are returned, so the final
    training loss never exceeds the initial one.  loss_history on the
    returned params holds the pre-training loss followed by one entry per
    completed epoch.
    """
    X = np.asarray(dataset, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (samples, features) matrix")
    n, input_dim = X.shape

    rng = np.random.default_rng(seed)
    ws = _Workspace(init_params(input_dim, config.latent_dim, rng), config,
                    min(config.batch_size, n), n)
    optimizer = _Adam(config.learning_rate, ws.flat.size)

    initial = ws.loss(X)
    if not np.isfinite(initial):
        raise TrainingDivergedError(0, config.learning_rate)
    history = [initial]
    best_loss = initial
    best = ws.flat.copy()

    # each epoch's permutation is gathered a chunk of whole batches at a
    # time, so every batch is a contiguous slice of one reusable buffer
    batch = config.batch_size
    chunk = np.empty((min(max(1, BLOCK_ROWS // batch) * batch, n), input_dim))
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for at in range(0, n, len(chunk)):
            part = order[at:at + len(chunk)]
            # a permutation is in range, so "clip" changes no index; the
            # default mode would gather into a temporary and copy that
            rows = np.take(X, part, axis=0, out=chunk[:len(part)],
                           mode="clip")
            for start in range(0, len(rows), batch):
                ws.gradient(rows[start:start + batch])
                optimizer.step(ws.flat, ws.grad)
        epoch_loss = ws.loss(X)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, config.learning_rate)
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            np.copyto(best, ws.flat)

    params = _views(best, config.latent_dim, input_dim)
    params.loss_history = history
    return params


def save_encoder(params: EncoderParams,
                 hyperparameters: Optional[dict] = None) -> str:
    """Params as self-describing JSON text (row-major weight lists)."""
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
    return json.dumps(doc, indent=1) + "\n"


def load_encoder(text: str) -> EncoderParams:
    """The params of ``save_encoder``'s text."""
    doc = json.loads(text)
    check_header(doc, ENCODER_FORMAT, ENCODER_FORMAT_VERSION)
    params = EncoderParams(
        np.array(doc["W_enc"], dtype=float),
        np.array(doc["b_enc"], dtype=float),
        np.array(doc["W_dec"], dtype=float),
        np.array(doc["b_dec"], dtype=float),
    )
    params.validate()
    if (params.input_dim, params.latent_dim) != (header_int(doc, "input_dim"),
                                                 header_int(doc, "latent_dim")):
        raise ValueError("declared dims do not match stored arrays")
    return params
