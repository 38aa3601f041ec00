"""Sparse autoencoder: the layer kernel, encode, loss, analytic gradient,
training."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from glyrl import encoder
from glyrl.config import EncoderConfig
from glyrl.encoder import (
    ACTIVATION_FLOOR,
    EncoderParams,
    encode,
    init_params,
    kl_bernoulli,
    load_encoder,
    save_encoder,
    sparse_loss,
    train,
)
from glyrl.errors import ConfigError, TrainingDivergedError

# 32 * (0.05*ln(0.1) + 0.95*ln(1.9)), evaluated independently at high
# precision and rounded to float64.
KL_HALF_ACTIVATION_32 = 15.828221990850327


def loss_gradient(batch, params, config):
    """Exact gradient of sparse_loss with respect to every weight and bias:
    one minibatch step's gradient over the whole batch, as train computes
    it.  The sparsity term depends on the encoder parameters through the
    batch-mean activations, so its gradient flows into W_enc and b_enc
    alongside the reconstruction path."""
    X = np.asarray(batch, dtype=float)
    ws = encoder._Workspace(params, config, len(X), 0)
    ws.gradient(X)
    return ws.grads


def zero_params(input_dim, latent_dim):
    return EncoderParams(
        np.zeros((latent_dim, input_dim)),
        np.zeros(latent_dim),
        np.zeros((input_dim, latent_dim)),
        np.zeros(input_dim),
    )


def test_encode_zero_params_gives_half_everywhere():
    params = zero_params(6, 3)
    H = encode(np.linspace(0.0, 1.0, 12).reshape(2, 6), params)
    assert np.array_equal(H, np.full((2, 3), 0.5))


def test_encode_large_diagonal_tracks_input_direction():
    # Near-identity wiring with saturating weights: the latent units should
    # be monotone in the input (large input -> large activation).
    d = 4
    params = EncoderParams(
        40.0 * np.eye(d),
        -20.0 * np.ones(d),
        40.0 * np.eye(d),
        -20.0 * np.ones(d),
    )
    lo, hi = encode(np.array([np.full(d, 0.1), np.full(d, 0.9)]), params)
    assert np.all(hi > lo)


def test_encode_deterministic():
    rng = np.random.default_rng(7)
    params = init_params(5, 3, rng)
    X = rng.uniform(size=(4, 5))
    assert np.array_equal(encode(X, params), encode(X, params))


def test_encode_batch_matches_per_row():
    rng = np.random.default_rng(3)
    params = init_params(4, 2, rng)
    X = rng.uniform(size=(6, 4))
    H = encode(X, params)
    for i in range(6):
        assert np.allclose(H[i], encode(X[i:i + 1], params)[0], rtol=0,
                           atol=1e-15)


def test_encode_rejects_wrong_width_and_vectors():
    params = zero_params(5, 2)
    with pytest.raises(ValueError, match="matrix of 5 columns"):
        encode(np.zeros((3, 4)), params)
    with pytest.raises(ValueError, match="matrix of 5 columns"):
        encode(np.zeros(5), params)


def test_kl_at_target_is_exactly_zero():
    assert kl_bernoulli(0.05, np.array([0.05])) == 0.0
    assert kl_bernoulli(0.5, np.full(4, 0.5)).tolist() == [0.0] * 4


def test_kl_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = rng.uniform(0.01, 0.99)
        h = rng.uniform(0.0, 1.0, size=8)
        assert np.all(kl_bernoulli(d, h) >= 0.0)


def test_sparse_loss_pinned_half_activation():
    # Zero params: every activation is exactly 0.5, and inputs of 0.5
    # reconstruct exactly, so the loss is the pure sparsity penalty.
    params = zero_params(6, 32)
    batch = np.full((3, 6), 0.5)
    loss = sparse_loss(batch, params, EncoderConfig(sparsity_target=0.05, beta=1.0))
    assert loss == pytest.approx(KL_HALF_ACTIVATION_32, rel=0, abs=1e-12)


def test_sparse_loss_beta_zero_is_reconstruction_only():
    rng = np.random.default_rng(9)
    params = init_params(5, 3, rng)
    X = rng.uniform(size=(8, 5))
    loss = sparse_loss(X, params, EncoderConfig(sparsity_target=0.05, beta=0.0))
    _, X_hat = reference_forward(X, params)
    recon = np.mean(np.sum((X - X_hat) ** 2, axis=1))
    assert loss == pytest.approx(recon, rel=0, abs=1e-15)


def test_sparse_loss_never_below_reconstruction():
    rng = np.random.default_rng(21)
    for _ in range(20):
        params = init_params(6, 4, rng)
        X = rng.uniform(size=(10, 6))
        recon = sparse_loss(X, params, EncoderConfig(sparsity_target=0.1, beta=0.0))
        full = sparse_loss(X, params, EncoderConfig(sparsity_target=0.1, beta=2.5))
        assert full >= recon - 1e-15


def test_sparse_loss_rejects_empty_batch():
    params = zero_params(4, 2)
    with pytest.raises(ValueError):
        sparse_loss(np.zeros((0, 4)), params, EncoderConfig())


def finite_difference_gradient(batch, params, sparsity, step=1e-5):
    grad = zero_params(params.input_dim, params.latent_dim)
    for name in ("W_enc", "b_enc", "W_dec", "b_dec"):
        arr = getattr(params, name)
        out = getattr(grad, name)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = sparse_loss(batch, params, sparsity)
            arr[idx] = orig - step
            down = sparse_loss(batch, params, sparsity)
            arr[idx] = orig
            out[idx] = (up - down) / (2.0 * step)
            it.iternext()
    return grad


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in ("W_enc", "b_enc", "W_dec", "b_dec"):
        a = getattr(analytic, name)
        f = getattr(numeric, name)
        rel = np.abs(a - f) / np.maximum(np.abs(f), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1234)
    for trial in range(12):
        input_dim = int(rng.integers(3, 7))
        latent_dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        params = init_params(input_dim, latent_dim, rng)
        X = rng.uniform(size=(n, input_dim))
        sparsity = EncoderConfig(
            sparsity_target=float(rng.uniform(0.02, 0.3)),
            beta=float(rng.uniform(0.0, 5.0)),
        )
        analytic = loss_gradient(X, params, sparsity)
        numeric = finite_difference_gradient(X, params, sparsity)
        assert max_relative_error(analytic, numeric) <= 1e-4, \
            "trial %d: gradient check failed" % trial


def test_gradient_beta_zero_drops_sparsity_term():
    rng = np.random.default_rng(55)
    params = init_params(5, 3, rng)
    X = rng.uniform(size=(6, 5))
    unpenalized = EncoderConfig(sparsity_target=0.05, beta=0.0)
    plain = loss_gradient(X, params, unpenalized)
    numeric = finite_difference_gradient(X, params, unpenalized)
    assert max_relative_error(plain, numeric) <= 1e-4
    # and it must differ from the penalized gradient in the encoder weights
    penalized = loss_gradient(X, params, EncoderConfig(sparsity_target=0.05,
                                                       beta=3.0))
    assert not np.allclose(plain.W_enc, penalized.W_enc)
    assert np.array_equal(plain.W_dec, penalized.W_dec)


def test_gradient_identical_rows_equals_single_sample():
    rng = np.random.default_rng(8)
    params = init_params(4, 3, rng)
    x = rng.uniform(size=4)
    config = EncoderConfig(sparsity_target=0.1, beta=2.0)
    one = loss_gradient(x[None, :], params, config)
    many = loss_gradient(np.tile(x, (5, 1)), params, config)
    for name in ("W_enc", "b_enc", "W_dec", "b_dec"):
        assert np.allclose(getattr(one, name), getattr(many, name),
                           rtol=1e-12, atol=1e-14)


def test_gradient_shapes_match_params():
    params = zero_params(6, 3)
    grad = loss_gradient(np.full((2, 6), 0.3), params, EncoderConfig())
    assert grad.W_enc.shape == params.W_enc.shape
    assert grad.b_enc.shape == params.b_enc.shape
    assert grad.W_dec.shape == params.W_dec.shape
    assert grad.b_dec.shape == params.b_dec.shape


def rank_one_dataset(n=200, dim=8, seed=42):
    rng = np.random.default_rng(seed)
    direction = rng.uniform(0.2, 0.8, size=dim)
    t = rng.uniform(0.0, 1.0, size=(n, 1))
    X = t * direction + rng.normal(0.0, 0.02, size=(n, dim))
    return np.clip(X, 0.0, 1.0)


def test_training_halves_loss_on_rank_one_data():
    X = rank_one_dataset()
    config = EncoderConfig(latent_dim=4, sparsity_target=0.05, beta=0.5,
                           epochs=50, batch_size=16, learning_rate=0.01)
    params = train(X, config, seed=5)
    history = params.loss_history
    assert history is not None and len(history) >= 2
    assert history[-1] <= history[0]
    assert min(history) < 0.5 * history[0]
    # seedful regression value from the reference run of this exact config
    assert history[-1] == pytest.approx(0.06512521343360644, rel=1e-9)


def test_training_deterministic_same_seed():
    X = rank_one_dataset(n=60, dim=5, seed=3)
    config = EncoderConfig(latent_dim=3, beta=1.0, epochs=8, batch_size=8,
                           learning_rate=0.02)
    a = train(X, config, seed=17)
    b = train(X, config, seed=17)
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.W_enc, b.W_enc)
    assert np.array_equal(a.b_dec, b.b_dec)


def test_training_zero_learning_rate_is_noop():
    X = rank_one_dataset(n=40, dim=4, seed=1)
    # outside the range a config file may set, but Adam's step is then 0
    config = EncoderConfig(latent_dim=3, epochs=5, batch_size=8,
                           learning_rate=0.0)
    params = train(X, config, seed=2)
    assert len(set(params.loss_history)) == 1
    fresh = init_params(4, 3, np.random.default_rng(2))
    assert np.array_equal(params.W_enc, fresh.W_enc)
    assert np.array_equal(params.W_dec, fresh.W_dec)


def test_training_large_beta_pulls_activations_to_target():
    X = rank_one_dataset(n=120, dim=6, seed=9)
    target = 0.05
    base = EncoderConfig(latent_dim=4, sparsity_target=target, epochs=30,
                         batch_size=16, learning_rate=0.02)
    free = train(X, dataclasses.replace(base, beta=0.0), seed=4)
    pinned = train(X, dataclasses.replace(base, beta=100.0), seed=4)
    mean_free = encode(X, free).mean()
    mean_pinned = encode(X, pinned).mean()
    assert abs(mean_pinned - target) < abs(mean_free - target)


def test_training_diverged_error_reports_epoch_and_rate():
    X = rank_one_dataset(n=20, dim=4, seed=6)
    X[3, 2] = np.nan  # poisoned input makes the loss non-finite immediately
    config = EncoderConfig(epochs=3, batch_size=8, learning_rate=0.01)
    with pytest.raises(TrainingDivergedError) as err:
        train(X, config, seed=0)
    assert err.value.epoch == 0
    assert err.value.learning_rate == 0.01


def test_training_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train(np.zeros((0, 4)), EncoderConfig(), seed=0)


@pytest.mark.parametrize("field, value", [
    ("sparsity_target", 0.0), ("sparsity_target", 1.0), ("beta", -1.0),
    ("latent_dim", 0), ("epochs", 0), ("batch_size", 0),
    ("learning_rate", 0.0)])
def test_encoder_config_validation(field, value):
    with pytest.raises(ConfigError, match="encoder." + field):
        dataclasses.replace(EncoderConfig(), **{field: value}).validate()


def test_save_load_round_trip_bit_identical():
    rng = np.random.default_rng(31)
    params = init_params(9, 5, rng)
    X = rng.uniform(size=(11, 9))
    loaded = load_encoder(save_encoder(params, {"target": 0.05, "beta": 3.0}))
    assert np.array_equal(params.W_enc, loaded.W_enc)
    assert np.array_equal(params.b_enc, loaded.b_enc)
    assert np.array_equal(params.W_dec, loaded.W_dec)
    assert np.array_equal(params.b_dec, loaded.b_dec)
    assert np.array_equal(encode(X, params), encode(X, loaded))


def test_load_rejects_foreign_and_corrupt_files():
    with pytest.raises(ValueError, match="not a glyrl-encoder file"):
        load_encoder('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ValueError):
        load_encoder("{not json")
    with pytest.raises(KeyError):
        load_encoder('{"format": "glyrl-encoder", "version": 1, "input_dim": 2}\n')


def test_load_takes_header_counts_only_as_integers():
    doc = json.loads(save_encoder(init_params(15, 4, np.random.default_rng(3))))
    for key, value in [("input_dim", 15.0), ("latent_dim", True)]:
        with pytest.raises(ValueError,
                           match="header %s is %r, not an integer" % (key, value)):
            load_encoder(json.dumps(dict(doc, **{key: value})))
    with pytest.raises(ValueError, match="declared dims do not match"):
        load_encoder(json.dumps(dict(doc, input_dim=14)))


# --- the per-operation oracle ------------------------------------------------
#
# The textbook form of the two layers, loss, gradient, optimizer and
# training loop, one fresh array per operation.  The workspace in
# glyrl.encoder must reproduce it bit for bit.

def reference_sigmoid(z):
    # Split by sign so exp never overflows.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(X, params):
    H = reference_sigmoid(X @ params.W_enc.T + params.b_enc)
    X_hat = reference_sigmoid(H @ params.W_dec.T + params.b_dec)
    return H, X_hat


def reference_sparse_loss(X, params, config):
    _, X_hat = reference_forward(X, params)
    recon = float(np.mean(np.sum((X - X_hat) ** 2, axis=1)))
    H = reference_sigmoid(X @ params.W_enc.T + params.b_enc)
    penalty = float(np.sum(kl_bernoulli(config.sparsity_target, H.mean(axis=0))))
    return recon + config.beta * penalty


def reference_loss_gradient(X, params, config):
    n = X.shape[0]
    H, X_hat = reference_forward(X, params)
    delta_dec = (2.0 / n) * (X_hat - X) * X_hat * (1.0 - X_hat)
    g_W_dec = delta_dec.T @ H
    g_b_dec = delta_dec.sum(axis=0)
    dL_dH = delta_dec @ params.W_dec
    rho_raw = H.mean(axis=0)
    unclamped = (rho_raw > ACTIVATION_FLOOR) & (rho_raw < 1.0 - ACTIVATION_FLOOR)
    rho_hat = np.clip(rho_raw, ACTIVATION_FLOOR, 1.0 - ACTIVATION_FLOOR)
    target = config.sparsity_target
    d_kl = -target / rho_hat + (1.0 - target) / (1.0 - rho_hat)
    dL_dH = dL_dH + (config.beta / n) * (d_kl * unclamped)
    delta_enc = dL_dH * H * (1.0 - H)
    g_W_enc = delta_enc.T @ X
    g_b_enc = delta_enc.sum(axis=0)
    return EncoderParams(g_W_enc, g_b_enc, g_W_dec, g_b_dec)


FIELDS = ("W_enc", "b_enc", "W_dec", "b_dec")


class ReferenceAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, params, grad):
        if self.m is None:
            self.m = {f: np.zeros_like(getattr(params, f)) for f in FIELDS}
            self.v = {f: np.zeros_like(getattr(params, f)) for f in FIELDS}
        self.t += 1
        for f in FIELDS:
            g = getattr(grad, f)
            self.m[f] = self.beta1 * self.m[f] + (1.0 - self.beta1) * g
            self.v[f] = self.beta2 * self.v[f] + (1.0 - self.beta2) * g * g
            m_hat = self.m[f] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[f] / (1.0 - self.beta2 ** self.t)
            getattr(params, f)[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def copy_params(params):
    return EncoderParams(params.W_enc.copy(), params.b_enc.copy(),
                         params.W_dec.copy(), params.b_dec.copy())


def reference_train(X, config, seed):
    rng = np.random.default_rng(seed)
    params = init_params(X.shape[1], config.latent_dim, rng)
    optimizer = ReferenceAdam(config.learning_rate)
    initial = reference_sparse_loss(X, params, config)
    if not np.isfinite(initial):
        raise TrainingDivergedError(0, config.learning_rate)
    history = [initial]
    best_loss, best = initial, copy_params(params)
    n = X.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = X[order[start:start + config.batch_size]]
            optimizer.step(params,
                           reference_loss_gradient(batch, params, config))
        epoch_loss = reference_sparse_loss(X, params, config)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch, config.learning_rate)
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss, best = epoch_loss, copy_params(params)
    best.loss_history = history
    return best


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_same_params(got, want):
    for name in FIELDS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def saturating_dataset():
    # large positive inputs drive each unit's pre-activation to the same
    # side for every row, so its batch-mean activation is 0 or 1, outside
    # the KL clamp
    return np.random.default_rng(13).uniform(200.0, 400.0, size=(45, 5))


# name: (dataset, config, seed, loss block rows or None)
ORACLE_CASES = {
    "adam": (rank_one_dataset(n=96, dim=6, seed=2),
             EncoderConfig(latent_dim=5, epochs=6, batch_size=16,
                           learning_rate=0.02), 3, None),
    "ragged_last_batch": (rank_one_dataset(n=101, dim=7, seed=4),
                          EncoderConfig(latent_dim=4, sparsity_target=0.1,
                                        beta=2.0, epochs=4, batch_size=20),
                          8, None),
    "one_row_last_batch": (rank_one_dataset(n=61, dim=7, seed=4),
                           EncoderConfig(latent_dim=4, sparsity_target=0.1,
                                         beta=2.0, epochs=4, batch_size=12),
                           8, None),
    "n_below_one_batch": (rank_one_dataset(n=9, dim=5, seed=6),
                          EncoderConfig(latent_dim=3, epochs=5, batch_size=32),
                          1, None),
    "block_1": (rank_one_dataset(n=50, dim=6, seed=7),
                EncoderConfig(epochs=3, batch_size=8), 2, 1),
    "block_7": (rank_one_dataset(n=50, dim=6, seed=7),
                EncoderConfig(epochs=3, batch_size=8), 2, 7),
    "block_n": (rank_one_dataset(n=50, dim=6, seed=7),
                EncoderConfig(epochs=3, batch_size=8), 2, 50),
    "beta_0": (rank_one_dataset(n=64, dim=6, seed=9),
               EncoderConfig(latent_dim=4, beta=0.0, epochs=4, batch_size=16),
               4, None),
    "learning_rate_0": (rank_one_dataset(n=64, dim=6, seed=9),
                        EncoderConfig(latent_dim=4, epochs=3, batch_size=16,
                                      learning_rate=0.0), 4, None),
    "clamp_binds": (saturating_dataset(),
                    EncoderConfig(latent_dim=6, epochs=4, batch_size=10),
                    12, None),
    # the default latent size, 15 inputs and 32-row batches
    "default_shape": (rank_one_dataset(n=100, dim=15, seed=10),
                      EncoderConfig(latent_dim=32, epochs=2, batch_size=32),
                      3, None),
    # every product 1x1 by 1x1, and saturated units give zero gradients
    "one_input_one_unit": (saturating_dataset()[:12, :1],
                           EncoderConfig(latent_dim=1, epochs=3, batch_size=1),
                           4, None),
    # BLOCK_ROWS 7 gathers each epoch in chunks of 6, 5 and 8 rows: whole
    # batches, the last chunk and its last batch ragged
    "gather_chunks_batch_3": (rank_one_dataset(n=41, dim=5, seed=12),
                              EncoderConfig(latent_dim=4, epochs=3,
                                            batch_size=3), 6, 7),
    "gather_chunks_batch_5": (rank_one_dataset(n=43, dim=5, seed=12),
                              EncoderConfig(latent_dim=4, epochs=3,
                                            batch_size=5), 6, 7),
    "gather_chunks_batch_8": (rank_one_dataset(n=45, dim=5, seed=12),
                              EncoderConfig(latent_dim=4, epochs=3,
                                            batch_size=8), 6, 7),
    # the benchmark's shape over two full BLOCK_ROWS blocks and one more
    # row: the loss's sigmoid crosses real block edges
    "real_blocks": (rank_one_dataset(n=2 * encoder.BLOCK_ROWS + 1, dim=15,
                                     seed=11),
                    EncoderConfig(latent_dim=32, epochs=1, batch_size=32),
                    5, None),
    # the default 128-row batch over more than one BLOCK_ROWS gather chunk,
    # ending on a 40-row batch as the benchmark's 31,528 training rows do
    "default_batch_crosses_a_chunk": (
        rank_one_dataset(n=encoder.BLOCK_ROWS + 168, dim=15, seed=14),
        EncoderConfig(latent_dim=32, epochs=2, batch_size=128), 6, None),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_train_is_bitwise_the_per_operation_reference(monkeypatch, case):
    X, config, seed, block = ORACLE_CASES[case]
    if block is not None:
        monkeypatch.setattr(encoder, "BLOCK_ROWS", block)
    got = train(X, config, seed)
    want = reference_train(X, config, seed)
    assert_same_params(got, want)
    assert bits(got.loss_history) == bits(want.loss_history)
    assert len(got.loss_history) == config.epochs + 1


def test_gather_chunk_cases_end_ragged():
    for case, chunk in (("gather_chunks_batch_3", 6),
                        ("gather_chunks_batch_5", 5),
                        ("gather_chunks_batch_8", 8)):
        X, config, _, block = ORACLE_CASES[case]
        assert max(1, block // config.batch_size) * config.batch_size == chunk
        assert len(X) % chunk % config.batch_size != 0, case
        assert len(X) > chunk


def test_train_scratch_is_the_loss_layers_plus_blocks_and_vectors():
    """The memory training allocates, traced: the two layer outputs of the
    loss pass, its BLOCK_ROWS-row scratch, one gather chunk of whole
    minibatches, a few (n,) vectors and the parameter-sized vectors.  An
    epoch-sized copy of the shuffled rows goes over."""
    n, inputs, latent = 20000, 15, 32
    X = np.random.default_rng(8).uniform(size=(n, inputs))
    config = EncoderConfig(latent_dim=latent, epochs=2, batch_size=32)
    chunk = max(1, encoder.BLOCK_ROWS // 32) * 32
    size = 2 * latent * inputs + latent + inputs
    allowed = 8 * (n * (latent + inputs)
                   + 2 * encoder.BLOCK_ROWS * (latent + inputs)
                   + chunk * inputs + 6 * n + 16 * size)
    tracemalloc.start()
    try:
        train(X, config, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= allowed


def test_clamp_case_really_binds():
    X, config, seed, _ = ORACLE_CASES["clamp_binds"]
    params = init_params(X.shape[1], config.latent_dim,
                         np.random.default_rng(seed))
    rho = reference_forward(X, params)[0].mean(axis=0)
    assert np.any((rho <= ACTIVATION_FLOOR) | (rho >= 1.0 - ACTIVATION_FLOOR))


@pytest.mark.parametrize("poison", ["nan_input", "overflowing_steps"])
def test_divergence_is_raised_at_the_reference_epoch(poison):
    X = rank_one_dataset(n=40, dim=4, seed=6)
    config = EncoderConfig(latent_dim=3, epochs=4, batch_size=8,
                           learning_rate=0.01)
    if poison == "nan_input":
        X[5, 1] = np.nan
    else:
        # Adam steps of about lr overflow the weights to +-inf, and the
        # products of mixed-sign infinities are NaN
        config = dataclasses.replace(config, learning_rate=1e308)
    with pytest.raises(TrainingDivergedError) as want:
        with np.errstate(all="ignore"):
            reference_train(X, config, 0)
    with pytest.raises(TrainingDivergedError) as got:
        with np.errstate(all="ignore"):
            train(X, config, 0)
    assert got.value.epoch == want.value.epoch
    assert got.value.learning_rate == config.learning_rate
    if poison == "overflowing_steps":
        assert got.value.epoch > 0


def test_loss_and_gradient_are_bitwise_the_reference(monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_ROWS", 3)
    rng = np.random.default_rng(77)
    for n, inputs, latent in ((1, 6, 5), (2, 6, 5), (3, 6, 5), (8, 6, 5),
                              (33, 6, 5), (32, 15, 32)):
        params = init_params(inputs, latent, rng)
        X = rng.uniform(size=(n, inputs))
        sparsity = EncoderConfig(sparsity_target=float(rng.uniform(0.02, 0.3)),
                                 beta=float(rng.uniform(0.0, 5.0)))
        assert bits(sparse_loss(X, params, sparsity)) == \
            bits(reference_sparse_loss(X, params, sparsity))
        assert_same_params(loss_gradient(X, params, sparsity),
                           reference_loss_gradient(X, params, sparsity))


def test_one_by_one_gradient_keeps_the_reference_zero_signs():
    # a saturated unit's zero gradient: matmul adds the 1x1 by 1x1 product
    # to +0.0, where np.dot would keep its -0.0
    X, config, seed, _ = ORACLE_CASES["one_input_one_unit"]
    params = init_params(1, 1, np.random.default_rng(seed))
    want = reference_loss_gradient(X[:1], params, config)
    assert want.W_enc[0, 0] == 0.0
    assert_same_params(loss_gradient(X[:1], params, config), want)


@pytest.mark.parametrize("block", [4, None])
def test_encode_is_bitwise_the_reference(monkeypatch, block):
    rng = np.random.default_rng(5)
    if block is None:
        # two full BLOCK_ROWS blocks and one more row
        X = rng.uniform(-1.0, 1.0, size=(2 * encoder.BLOCK_ROWS + 1, 7))
    else:
        monkeypatch.setattr(encoder, "BLOCK_ROWS", block)
        X = rng.uniform(-1.0, 1.0, size=(23, 7))
    params = init_params(7, 9, rng)
    params.W_enc *= 40.0  # reach both tails of the sigmoid
    assert bits(encode(X, params)) == bits(reference_forward(X, params)[0])


def test_sigmoid_edges_are_bitwise_the_sign_split_form():
    tiny = np.finfo(float).tiny
    edges = np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, tiny / 3,
                      -tiny / 3, tiny, -tiny, 36.0, -36.0, 710.0, -710.0,
                      745.2, -745.2, 1e308, -1e308, np.inf, -np.inf,
                      np.nan, -np.nan, 1e-300, -1e-300])
    z = np.concatenate([edges, np.random.default_rng(3).normal(0, 20, 40)])
    z = z.reshape(-1, 4)
    want = reference_sigmoid(z)
    got = z.copy()
    encoder._sigmoid_block(got, np.empty_like(z))
    assert bits(got) == bits(want)
    assert np.signbit(want[5, 0]) != np.signbit(want[5, 1])  # NaN signs kept
    # the layer kernel, whole and in row blocks: a one-input layer of
    # weight 1 and bias -0.0 passes each z on (up to a zero's sign)
    X, W, b = z.reshape(-1, 1), np.ones((1, 1)), np.array([-0.0])
    want = reference_sigmoid(X @ W.T + b)
    for rows in (1, 5, len(X)):
        got = encoder._layer_into(X, W, b, np.empty_like(X),
                                  np.empty((rows, 1)))
        assert bits(got) == bits(want), rows
