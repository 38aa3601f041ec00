"""Acceptance suite: one test per release criterion.

Each test is numbered and self-contained; the conftest hook prints a
PASS/FAIL line per criterion at the end of the run.  Oracles here are
deliberately independent of the library code they check: dense-matrix
value iteration for the solver, exhaustive partition search for k-means,
central finite differences for the autoencoder gradient, and a synthetic
cohort whose optimal policy is known by construction.
"""

import csv
import hashlib
import io
import itertools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

import trajectory_oracle as oracle
from test_encoder import loss_gradient
from glyrl import pipeline, synthgen
from glyrl.cluster import kmeans_fit
from glyrl.cohort import (
    FIXED_COLUMNS,
    apply_normalization,
    fit_normalization,
    impute_cohort,
    parse_cohort,
)
from glyrl.config import EncoderConfig, PipelineConfig
from glyrl.encoder import (
    EncoderParams,
    init_params,
    kl_bernoulli,
    sparse_loss,
)
from glyrl.mdp import (
    ActionSpace,
    estimate_mdp,
    extract_real_policy,
    load_mdp,
    read_trajectories,
)
from glyrl.solver import (
    policy_evaluation,
    policy_iteration,
    read_solution,
)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

REPORT_SCHEMA = {
    "cohort_mortality", "config_digest", "optimal", "real",
    "representation", "seed", "train_anchor",
}
POLICY_SCHEMA = {"estimated_mortality", "mean_expected_return"}


# --- shared synthetic runs --------------------------------------------------

def _pipeline_run(tmp_root, n_patients, cohort_seed, pipeline_seed):
    csv_text, truth = synthgen.generate(
        synthgen.ladder_config(n_patients, seed=cohort_seed))
    cohort = tmp_root / ("cohort_%d.csv" % cohort_seed)
    cohort.write_text(csv_text)
    config = PipelineConfig()
    config.clustering.k = truth.n_latent_states
    config.seed = pipeline_seed
    art = tmp_root / ("art_%d" % cohort_seed)
    started = time.monotonic()
    report = pipeline.run_pipeline(config, str(cohort), str(art))
    elapsed = time.monotonic() - started
    return {"report": report, "art": str(art), "truth": truth,
            "config": config, "cohort": str(cohort), "elapsed": elapsed}


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    return _pipeline_run(tmp_path_factory.mktemp("ladder"), 6000, 17, 0)


@pytest.fixture(scope="module")
def second_run(tmp_path_factory):
    return _pipeline_run(tmp_path_factory.mktemp("second"), 2500, 23, 1)


# --- independent oracles ----------------------------------------------------

def dense_model(mdp):
    """The dense transition tensor T[s, a, s'] over all k + 2 states, and
    the expected immediate reward R = T @ r of each (s, a): +100 into
    SURVIVE (k), -100 into DEATH (k + 1), 0 elsewhere."""
    n = mdp.n_states
    T = np.zeros((n, mdp.n_actions, n))
    T[mdp.trans_s, mdp.trans_a, mdp.trans_sp] = mdp.trans_p
    r = np.zeros(n)
    r[mdp.k] = 100.0
    r[mdp.k + 1] = -100.0
    return T, T @ r


def dense_vi_oracle(mdp, tol=1e-10, max_iter=100000):
    """Dense-matrix value iteration, sharing nothing with the solver."""
    n, n_actions = mdp.n_states, mdp.n_actions
    T, R = dense_model(mdp)
    avail = np.zeros((n, n_actions), dtype=bool)
    avail[: mdp.k] = mdp.available
    solvable = avail.any(axis=1)  # fallback rows and terminals pin to 0
    V = np.zeros(n)
    for _ in range(max_iter):
        Q = R + mdp.gamma * (T @ V)
        V_new = np.where(solvable,
                         np.max(np.where(avail, Q, -np.inf), axis=1), 0.0)
        if np.max(np.abs(V_new - V)) < tol:
            return V_new
        V = V_new
    raise AssertionError("oracle did not converge")


def random_logged_mdp(rng, max_k=18, max_actions=5):
    """Random empirical MDP counted from random-walk trajectories."""
    k = int(rng.integers(2, max_k + 1))
    n_actions = int(rng.integers(2, max_actions + 1))
    space = ActionSpace(tuple(60.0 + 20.0 * i for i in range(n_actions - 1)))
    trajs = []
    for p in range(int(rng.integers(20, 80))):
        s = int(rng.integers(k))
        steps = []
        for _ in range(int(rng.integers(1, 12))):
            a = int(rng.integers(n_actions))
            if rng.random() < 0.2:
                steps.append((s, a, int(k + rng.integers(2))))
                break
            sp = int(rng.integers(k))
            steps.append((s, a, sp))
            s = sp
        else:
            steps.append((s, int(rng.integers(n_actions)), k))
        trajs.append(steps)
    return estimate_mdp(oracle.trajectories(trajs), k,
                        min_count=int(rng.integers(1, 3)),
                        gamma=0.9, action_space=space)


def brute_force_inertia(points, k):
    """Exact k-means optimum by enumerating every labeling (n <= 8)."""
    best = np.inf
    for labels in itertools.product(range(k), repeat=len(points)):
        labels = np.asarray(labels)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members):
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


def flat_gradient(grad: EncoderParams) -> np.ndarray:
    return np.concatenate([grad.W_enc.ravel(), grad.b_enc.ravel(),
                           grad.W_dec.ravel(), grad.b_dec.ravel()])


def fd_gradient(batch, params: EncoderParams, sparsity: EncoderConfig,
                h: float = 1e-5) -> np.ndarray:
    arrays = [params.W_enc, params.b_enc, params.W_dec, params.b_dec]
    out = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = sparse_loss(batch, params, sparsity)
            arr[idx] = orig - h
            down = sparse_loss(batch, params, sparsity)
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        out.append(g.ravel())
    return np.concatenate(out)


# --- the criteria -----------------------------------------------------------

def test_criterion_01_readme_and_report_schema(ladder_run):
    with open(README) as fh:
        text = fh.read()
    # published numbers come from a restricted clinical database
    assert "MIMIC-III" in text
    assert "credential" in text.lower()
    assert "pip install -e ." in text
    report = ladder_run["report"]
    assert set(report) == REPORT_SCHEMA
    assert set(report["real"]) == POLICY_SCHEMA
    assert set(report["optimal"]) == POLICY_SCHEMA
    assert set(report["train_anchor"]) == {
        "empirical_mortality", "estimated_mortality_real"}


def test_criterion_02_policy_iteration_matches_vi_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        mdp = random_logged_mdp(rng)
        assert mdp.n_states <= 20 and mdp.n_actions <= 5
        solution = policy_iteration(mdp, epsilon=1e-9)
        oracle = dense_vi_oracle(mdp, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(solution.V - oracle))))
    assert worst <= 1e-6
    assert time.monotonic() - started < 10.0


def test_criterion_03_optimal_policy_dominates_logged_policy(ladder_run):
    started = time.monotonic()
    rng = np.random.default_rng(715)
    with open(os.path.join(ladder_run["art"], "mdp", "mdp.txt")) as fh:
        cohort_mdp = load_mdp(fh.read())
    mdps = [random_logged_mdp(rng) for _ in range(40)] + [cohort_mdp]
    for mdp in mdps:
        solution = policy_iteration(mdp, epsilon=1e-9)
        pi_real = extract_real_policy(mdp)
        v_real = policy_evaluation(mdp, pi_real, epsilon=1e-9)
        assert np.all(solution.V >= v_real - 1e-3)
        assert solution.V.mean() >= v_real.mean() - 1e-3
    assert time.monotonic() - started < 10.0


def test_criterion_04_hand_computed_bellman_values():
    started = time.monotonic()

    def mdp_of(steps):
        return estimate_mdp(oracle.trajectories([steps]), k=2, min_count=1,
                            gamma=0.9)

    survive = mdp_of([(0, 3, 2)])
    v = policy_evaluation(survive, np.array([3, 0]))
    assert v[0] == pytest.approx(100.0, abs=1e-4)

    chain = mdp_of([(0, 2, 1), (1, 2, 2)])
    v = policy_evaluation(chain, np.array([2, 2]))
    assert v[1] == pytest.approx(100.0, abs=1e-4)
    assert v[0] == pytest.approx(90.0, abs=1e-4)  # one discount step at 0.9

    death = mdp_of([(0, 5, 3)])
    v = policy_evaluation(death, np.array([5, 0]))
    assert v[0] == pytest.approx(-100.0, abs=1e-4)
    assert time.monotonic() - started < 1.0


def test_criterion_05_encoder_gradient_matches_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    configs = [
        (3, 2, 4, 0.05, 3.0),
        (4, 2, 1, 0.05, 3.0),
        (4, 3, 8, 0.10, 1.0),
        (5, 2, 6, 0.05, 0.0),
        (5, 4, 5, 0.20, 5.0),
        (6, 3, 12, 0.05, 3.0),
        (6, 6, 7, 0.50, 2.0),
        (7, 2, 3, 0.01, 10.0),
        (8, 4, 10, 0.05, 3.0),
        (8, 5, 2, 0.30, 0.5),
        (2, 2, 9, 0.05, 3.0),
    ]
    for input_dim, latent_dim, n, target, beta in configs:
        params = init_params(input_dim, latent_dim, rng)
        params.W_enc += rng.normal(scale=0.1, size=params.W_enc.shape)
        params.b_enc += rng.normal(scale=0.1, size=params.b_enc.shape)
        batch = rng.uniform(size=(n, input_dim))
        sparsity = EncoderConfig(sparsity_target=target, beta=beta)
        analytic = flat_gradient(loss_gradient(batch, params, sparsity))
        numeric = fd_gradient(batch, params, sparsity, h=1e-5)
        rel_err = np.max(np.abs(analytic - numeric)) / max(
            1.0, float(np.max(np.abs(numeric))))
        assert rel_err <= 1e-4, (input_dim, latent_dim, n, target, beta)
    # the penalty vanishes exactly when the mean activation hits the target
    assert float(kl_bernoulli(0.05, np.array([0.05]))[0]) == 0.0
    assert time.monotonic() - started < 30.0


def test_criterion_06_kmeans_reaches_brute_force_optimum():
    started = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 9))
        # separated blobs: Lloyd is a local optimizer, so the global check
        # uses instances with one basin; mechanics still must be exact
        centers = rng.permutation(np.arange(k))[:, None] * 8.0 * np.ones(dim)
        owner = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        points = centers[owner] + rng.normal(scale=0.3, size=(n, dim))
        models = [kmeans_fit(points, k, seed=100 * seed + r) for r in range(3)]
        for model in models:
            drops = np.diff(np.asarray(model.inertia_history))
            assert np.all(drops <= 1e-9)
        best = min(model.inertia for model in models)
        assert abs(best - brute_force_inertia(points, k)) <= 1e-9
    assert time.monotonic() - started < 10.0


def test_criterion_07_estimated_mdp_integrity():
    rng = np.random.default_rng(9)
    space = ActionSpace((80.0, 120.0, 180.0))
    k = 6
    trajs = []
    recount = Counter()
    for p in range(60):
        s = int(rng.integers(k))
        steps = []
        for _ in range(int(rng.integers(1, 10))):
            a = int(rng.integers(space.n_actions))
            sp = int(rng.integers(k + 2)) if rng.random() < 0.3 else int(rng.integers(k))
            steps.append((s, a, sp))
            recount[(s, a, sp)] += 1
            if sp >= k:
                break
            s = sp
        trajs.append(steps)
    mdp = estimate_mdp(oracle.trajectories(trajs), k, min_count=1, gamma=0.9,
                       action_space=space)

    # every counted step survives into the model, none invented
    modeled = Counter()
    for s, a, sp, c in zip(mdp.trans_s, mdp.trans_a, mdp.trans_sp,
                           mdp.trans_count):
        modeled[(int(s), int(a), int(sp))] = int(c)
    assert modeled == recount

    # each available row is a probability distribution
    for s, a in zip(*np.nonzero(mdp.available)):
        mask = (mdp.trans_s == s) & (mdp.trans_a == a)
        assert abs(float(mdp.trans_p[mask].sum()) - 1.0) <= 1e-9

    # the solver's reward of each pair is the dense oracle's T @ r
    _, R = dense_model(mdp)
    s, a = np.nonzero(mdp.available)
    assert np.allclose(mdp.pair_reward[mdp.pair_index[s, a]],
                       R[s, a], rtol=0.0, atol=1e-9)
    assert np.all(np.abs(R) <= 100.0) and R.min() < 0.0 < R.max()
    assert np.all(mdp.trans_s < k)  # terminals are absorbing
    mdp.validate()


def test_criterion_08_recovers_planted_policy_and_lowers_mortality(ladder_run):
    truth = ladder_run["truth"]
    report = ladder_run["report"]
    art = ladder_run["art"]

    exclusions = json.load(open(os.path.join(art, "exclusions.json")))
    assert exclusions["parsed_patients"] >= 2000

    # the logged policy leans 30% on the harmful drift action
    generator = synthgen.ladder_config(10, seed=17)
    harmful = int(np.argmax(generator.behavioral_policy.max(axis=0)))
    assert generator.behavioral_policy[:, harmful] == pytest.approx(0.30)
    assert np.all(truth.pi_star != harmful)

    improvement = (report["real"]["estimated_mortality"]
                   - report["optimal"]["estimated_mortality"])
    assert improvement >= 0.02

    # map each cluster to its majority latent severity, then compare the
    # solved policy to the generator's optimum on every visited state
    votes = defaultdict(Counter)
    with open(os.path.join(art, "assignments.csv"), newline="") as fh:
        for pid, hour, state in list(csv.reader(fh))[1:]:
            votes[int(state)][truth.latent_states[pid][int(hour)]] += 1
    majority = {s: c.most_common(1)[0][0] for s, c in votes.items()}

    with open(os.path.join(art, "mdp", "trajectories_train.csv")) as fh:
        trajs = read_trajectories(fh.read())
    visited = np.unique(trajs.state).tolist()
    with open(os.path.join(art, "solution", "optimal.csv")) as fh:
        policy, _, label = read_solution(fh.read())
    assert label == "optimal"
    agree = [int(policy[s]) == int(truth.pi_star[majority[s]])
             for s in visited]
    assert sum(agree) / len(agree) >= 0.90

    assert ladder_run["elapsed"] < 120.0


def test_criterion_09_estimated_logged_mortality_anchors_to_empirical(
        ladder_run, second_run):
    for run in (ladder_run, second_run):
        anchor = run["report"]["train_anchor"]
        gap = abs(anchor["estimated_mortality_real"]
                  - anchor["empirical_mortality"])
        assert gap <= 0.02


def test_criterion_10_rerun_is_byte_identical(tmp_path):
    csv_text, _ = synthgen.generate(synthgen.ladder_config(300, seed=31))
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(csv_text)
    config = PipelineConfig()
    config.clustering.k = 5
    config.seed = 2
    config.representation = "sparse_ae"
    config.encoder.latent_dim = 8
    config.encoder.epochs = 15
    pipeline.run_pipeline(config, str(cohort), str(tmp_path / "first"))
    pipeline.run_pipeline(config, str(cohort), str(tmp_path / "second"))
    for name in ("report.json", "curve.csv", "clusters.model",
                 "encoder.model"):
        digests = []
        for run_dir in ("first", "second"):
            with open(tmp_path / run_dir / name, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests[0] == digests[1], name


def test_criterion_11_imputation_and_normalization_are_exact():
    started = time.monotonic()

    def cohort(*patients):
        """Parse (patient id, died, per-hour [a, b]) into a two-covariate
        cohort; None is a missing cell."""
        lines = [",".join(FIXED_COLUMNS + ("a", "b"))]
        for pid, died, hours in patients:
            for i, covs in enumerate(hours):
                lines.append(",".join(
                    [pid, str(i), "60.0", "F", "MICU", "5", "2", "0", "0", "0",
                     "0", "130.0", "", "0", "0", str(died), "120.0", "arterial"]
                    + ["" if v is None else repr(v) for v in covs]))
        return parse_cohort(io.StringIO("\n".join(lines) + "\n"), ["a", "b"])

    filled, dropped = impute_cohort(cohort(
        ("p0", 0, [[None, 10.0], [2.0, None], [None, None], [8.0, 40.0],
                   [None, None]]),
        ("p1", 1, [[0.0, 0.0], [4.0, 80.0]])))
    assert not dropped
    # leading gap copies the first observation, interior gaps interpolate,
    # trailing gap carries the last observation forward
    assert filled.values[:5, 0].tolist() == [2.0, 2.0, 5.0, 8.0, 8.0]
    assert filled.values[:5, 1].tolist() == [10.0, 20.0, 30.0, 40.0, 40.0]

    spec = fit_normalization(filled)
    normalized = apply_normalization(filled, spec)[:5]
    names = list(spec.feature_names)
    ia, ib = names.index("a"), names.index("b")
    # min-max over the training hours: a spans [0, 8], b spans [0, 80]
    assert normalized[:, ia] == pytest.approx(
        [0.25, 0.25, 0.625, 1.0, 1.0], abs=0.0)
    assert normalized[:, ib] == pytest.approx(
        [0.125, 0.25, 0.375, 0.5, 0.5], abs=0.0)

    # out-of-range values clamp instead of leaving the unit interval
    clamped = apply_normalization(
        cohort(("p2", 0, [[-5.0, 200.0], [3.0, 90.0]])), spec)
    assert clamped[0, ia] == 0.0
    assert clamped[0, ib] == 1.0
    for states in (normalized, clamped):
        assert np.all(states >= 0.0) and np.all(states <= 1.0)
    assert time.monotonic() - started < 1.0
