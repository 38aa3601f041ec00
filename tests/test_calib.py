"""Calibration curve fitting, isotonic regression, and policy scoring."""

import numpy as np
import pytest

import trajectory_oracle as oracle

from glyrl.calib import (
    CURVE_COLUMNS,
    CalibrationCurve,
    _pav_non_increasing,
    emit_curve_csv,
    empirical_mortality,
    estimate_mortality,
    evaluate,
    fit_curve,
    score,
    visitation_from_trajectories,
)
from glyrl.errors import CalibrationError
from glyrl.mdp import estimate_mdp, read_table
from glyrl.solver import policy_evaluation


def visits(state, n, died, k):
    """n single-visit trajectories at `state`, each with the given outcome."""
    terminal = k + 1 if died else k
    return [[(state, 0, terminal)]] * n


def test_two_cluster_curve_matches_hand_values():
    # state 0: V = -50, 90% mortality; state 1: V = +50, 10% mortality
    k = 2
    trajs = (visits(0, 9, True, k) + visits(0, 1, False, k)
             + visits(1, 1, True, k) + visits(1, 9, False, k))
    curve = fit_curve([-50.0, 50.0], oracle.trajectories(trajs),
                      n_bins=20, min_bin_support=1)
    assert curve.bin_centers.tolist() == [-50.0, 50.0]
    assert curve.mortality.tolist() == [0.9, 0.1]
    assert curve.support.tolist() == [10, 10]
    assert estimate_mortality(curve, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_pav_hand_example():
    fitted = _pav_non_increasing(np.array([0.3, 0.5, 0.2]), np.ones(3))
    assert np.allclose(fitted, [0.4, 0.4, 0.2], atol=1e-12)


def test_pav_weighted_pooling():
    fitted = _pav_non_increasing(np.array([0.2, 0.8]), np.array([3.0, 1.0]))
    assert np.allclose(fitted, [0.35, 0.35], atol=1e-12)
    already = _pav_non_increasing(np.array([0.9, 0.5, 0.1]), np.ones(3))
    assert np.allclose(already, [0.9, 0.5, 0.1], atol=1e-12)


def test_fit_curve_pav_path():
    # three equally supported clusters with non-monotone raw mortality
    k = 3
    trajs = []
    trajs += visits(0, 3, True, k) + visits(0, 7, False, k)  # 0.3 at V=-10
    trajs += visits(1, 5, True, k) + visits(1, 5, False, k)  # 0.5 at V=0
    trajs += visits(2, 2, True, k) + visits(2, 8, False, k)  # 0.2 at V=+10
    curve = fit_curve([-10.0, 0.0, 10.0], oracle.trajectories(trajs),
                      n_bins=3, min_bin_support=1)
    assert np.allclose(curve.mortality, [0.4, 0.4, 0.2], atol=1e-12)


def test_all_died_curve_is_constant_one():
    k = 2
    trajs = visits(0, 6, True, k) + visits(1, 6, True, k)
    curve = fit_curve([-20.0, 30.0], oracle.trajectories(trajs),
                      n_bins=5, min_bin_support=1)
    assert np.all(curve.mortality == 1.0)
    assert estimate_mortality(curve, -100.0) == 1.0
    assert estimate_mortality(curve, 100.0) == 1.0


def test_estimate_mortality_clamps_and_interpolates():
    curve = CalibrationCurve(np.array([-50.0, 50.0]), np.array([0.9, 0.1]),
                             np.array([10, 10]))
    assert estimate_mortality(curve, -50.0) == 0.9
    assert estimate_mortality(curve, 50.0) == 0.1
    assert estimate_mortality(curve, -500.0) == 0.9  # clamp low
    assert estimate_mortality(curve, 500.0) == 0.1  # clamp high
    assert estimate_mortality(curve, 25.0) == pytest.approx(0.3, abs=1e-12)


def test_estimate_mortality_monotone_everywhere():
    rng = np.random.default_rng(3)
    k = 4
    trajs = []
    for s, rate in enumerate((0.8, 0.6, 0.4, 0.1)):
        n = 40
        n_died = int(round(rate * n))
        trajs += visits(s, n_died, True, k) + visits(s, n - n_died, False, k)
    curve = fit_curve([-60.0, -20.0, 20.0, 60.0], oracle.trajectories(trajs),
                      n_bins=10, min_bin_support=5)
    xs = np.sort(rng.uniform(-80, 80, size=200))
    ys = estimate_mortality(curve, xs)
    assert np.all(np.diff(ys) <= 1e-12)


def test_fit_curve_merges_thin_bins():
    k = 3
    trajs = []
    trajs += visits(0, 30, True, k)  # V=-10
    trajs += visits(1, 3, False, k)  # V=0, thin
    trajs += visits(2, 30, False, k)  # V=+10
    curve = fit_curve([-10.0, 0.0, 10.0], oracle.trajectories(trajs),
                      n_bins=3, min_bin_support=5)
    assert len(curve.bin_centers) == 2
    assert int(curve.support.sum()) == 63
    assert np.all(curve.support >= 5)
    # the thin middle bin merged left (equal gaps tie -> left)
    assert curve.bin_centers[0] == pytest.approx((-10.0 * 30 + 0.0 * 3) / 33)


@pytest.mark.parametrize("n_bins", [20, 2_000, 20_000])
def test_fit_curve_bins_bit_for_bit_like_the_per_bin_loop(n_bins):
    # the textbook form makes one pass over every visit for each bin;
    # 20,000 bins over 4,000 visits leaves most of them empty
    k, rng = 500, np.random.default_rng(n_bins)
    V = rng.normal(size=k) * 37.0
    steps = rng.integers(k, size=(400, 10))
    died = rng.random(400) < 0.3
    trajs = [[(int(s), 0, int(s)) for s in row[:-1]]
             + [(int(row[-1]), 0, k + 1 if d else k)]
             for row, d in zip(steps, died)]
    curve = fit_curve(V, oracle.trajectories(trajs), n_bins=n_bins,
                      min_bin_support=1)

    returns = V[steps.reshape(-1)]
    dead = np.repeat(died, 10).astype(float)
    lo, hi = returns.min(), returns.max()
    idx = np.minimum(((returns - lo) / ((hi - lo) / n_bins)).astype(int),
                     n_bins - 1)
    support, centers, rates = [], [], []
    for b in range(n_bins):
        mask = idx == b
        if mask.any():
            support.append(int(mask.sum()))
            centers.append(float(returns[mask].sum()) / support[-1])
            rates.append(float(dead[mask].sum()) / support[-1])
    assert curve.support.tolist() == support
    assert curve.bin_centers.tobytes() == np.array(centers).tobytes()
    mortality = _pav_non_increasing(np.array(rates), np.array(support, float))
    assert curve.mortality.tobytes() == \
        np.clip(mortality, 0.0, 1.0).tobytes()


def test_fit_curve_errors_when_too_thin():
    k = 2
    trajs = visits(0, 3, True, k) + visits(1, 3, False, k)
    with pytest.raises(CalibrationError):
        fit_curve([-10.0, 10.0], oracle.trajectories(trajs),
                  n_bins=5, min_bin_support=50)


def test_fit_curve_errors_on_constant_returns():
    k = 2
    trajs = visits(0, 5, True, k) + visits(1, 5, False, k)
    with pytest.raises(CalibrationError):
        fit_curve([7.0, 7.0], oracle.trajectories(trajs), n_bins=5,
                  min_bin_support=1)


def test_fit_curve_errors_on_empty():
    with pytest.raises(CalibrationError):
        fit_curve([1.0, 2.0], oracle.trajectories([]), n_bins=5,
                  min_bin_support=1)
    with pytest.raises(ValueError):
        fit_curve([1.0, 2.0], oracle.trajectories([[(0, 0, 3)]]),
                  n_bins=1, min_bin_support=1)


def test_visitation_counts_source_states():
    trajs = oracle.trajectories([[(0, 1, 1), (1, 1, 2)], [(1, 1, 3)]])
    w = visitation_from_trajectories(trajs, 2)
    assert np.allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_mortality_counts_death_terminals():
    k = 2
    trajs = visits(0, 3, True, k) + visits(1, 7, False, k)
    assert empirical_mortality(oracle.trajectories(trajs), k) == pytest.approx(0.3)


def training_split(k=2):
    """Training trajectories: states 0 and 1 at 90% and 10% mortality, and
    a second action at each state so real and optimal can differ."""
    return oracle.trajectories(
        visits(0, 9, True, k) + visits(0, 1, False, k)
        + visits(1, 1, True, k) + visits(1, 9, False, k)
        + [[(0, 5, k)]] * 10 + [[(1, 5, k)]] * 10)


def scoring_split(k=2):
    """Test-split trajectories: 3 deaths at state 0, 7 survivals at state 1."""
    return oracle.trajectories(visits(0, 3, True, k) + visits(1, 7, False, k))


def curve_and_mdp():
    mdp = estimate_mdp(training_split(), 2, min_count=1, gamma=0.9)
    curve = fit_curve(np.array([-50.0, 50.0]), training_split(), n_bins=20,
                      min_bin_support=1)
    return mdp, curve


def values(mdp, policy):
    """V of a policy over the non-terminal states, as the solve stage
    writes it."""
    return policy_evaluation(mdp, np.array(policy))[:mdp.k]


def test_evaluate_same_policy_identical_rows():
    mdp, curve = curve_and_mdp()
    v = values(mdp, [0, 0])
    report = evaluate(v, v, curve, training_split(), scoring_split(),
                      "raw", "abc", 7)
    assert report["real"] == report["optimal"]
    assert 0.0 <= report["real"]["estimated_mortality"] <= 1.0
    assert report["cohort_mortality"] == pytest.approx(0.3)
    assert (report["representation"], report["config_digest"],
            report["seed"]) == ("raw", "abc", 7)


def test_evaluate_constant_curve_gives_constant_mortality():
    mdp, _ = curve_and_mdp()
    flat = CalibrationCurve(np.array([-60.0, 60.0]), np.array([0.25, 0.25]),
                            np.array([5, 5]))
    report = evaluate(values(mdp, [0, 0]), values(mdp, [5, 5]), flat,
                      training_split(), scoring_split(), "raw", "", 0)
    assert report["real"]["estimated_mortality"] == pytest.approx(0.25, abs=1e-12)
    assert report["optimal"]["estimated_mortality"] == pytest.approx(0.25, abs=1e-12)
    assert report["train_anchor"]["estimated_mortality_real"] == \
        pytest.approx(0.25, abs=1e-12)


def test_score_rejects_bad_visitation():
    mdp, curve = curve_and_mdp()
    v = values(mdp, [0, 0])
    with pytest.raises(ValueError):
        score(v, curve, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        score(v, curve, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        score(v, curve, np.array([1.0]))
    with pytest.raises(ValueError):
        score(v, curve, np.array([-0.5, 1.5]))


def test_evaluate_rejects_trajectories_outside_the_valued_states():
    mdp, curve = curve_and_mdp()
    v = values(mdp, [0, 0])
    outside = oracle.trajectories([[(2, 0, 3)]])
    with pytest.raises(ValueError, match="states must lie in"):
        evaluate(v, v, curve, training_split(), outside, "raw", "", 0)
    with pytest.raises(ValueError, match="states must lie in"):
        evaluate(v, v, curve, outside, scoring_split(), "raw", "", 0)


def test_evaluate_deterministic_report():
    mdp, curve = curve_and_mdp()
    args = (values(mdp, [0, 0]), values(mdp, [5, 5]), curve,
            training_split(), scoring_split(), "sparse-autoencoder", "d1", 11)
    a = evaluate(*args)
    b = evaluate(*args)
    assert a == b
    import json
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a) == {"representation", "real", "optimal", "cohort_mortality",
                      "config_digest", "seed", "train_anchor"}


def test_evaluate_rows_are_the_scores_of_each_value_vector():
    mdp, curve = curve_and_mdp()
    v_real, v_opt = values(mdp, [0, 0]), values(mdp, [5, 5])
    w = np.array([0.3, 0.7])
    report = evaluate(v_real, v_opt, curve, training_split(), scoring_split(),
                      "raw", "", 0)
    assert report["real"] == score(v_real, curve, w)
    assert report["optimal"] == score(v_opt, curve, w)
    assert report["optimal"]["mean_expected_return"] == float(w @ v_opt)
    with pytest.raises(ValueError):
        evaluate(v_real, v_opt[:1], curve, training_split(), scoring_split(),
                 "raw", "", 0)


def test_training_anchor_on_synthetic_two_state_cohort():
    # calibrating on the very samples being scored pins the estimate to the
    # visit-level mortality
    _, curve = curve_and_mdp()
    v_real = np.array([-50.0, 50.0])
    report = evaluate(v_real, v_real, curve, training_split(), scoring_split(),
                      "raw", "", 0)
    anchor = report["train_anchor"]
    visit_level = 10.0 / 40.0
    assert anchor["estimated_mortality_real"] == pytest.approx(visit_level,
                                                               abs=0.02)
    assert anchor["empirical_mortality"] == pytest.approx(10.0 / 40.0)
    w_train = visitation_from_trajectories(training_split(), 2)
    assert anchor["estimated_mortality_real"] == \
        float(w_train @ estimate_mortality(curve, v_real))


def test_curve_csv_round_trip():
    k = 2
    trajs = (visits(0, 9, True, k) + visits(0, 1, False, k)
             + visits(1, 1, True, k) + visits(1, 9, False, k))
    curve = fit_curve([-50.0, 50.0], oracle.trajectories(trajs),
                      n_bins=20, min_bin_support=1)
    text = emit_curve_csv(curve)
    lines = text.splitlines()
    assert lines[0] == "expected_return,estimated_mortality,support"
    assert len(lines) == 1 + len(curve.bin_centers)
    # curve.csv is an output only; read back by the table codec, it holds
    # the curve's columns bit for bit
    _, back = read_table(text, "calibration curve", CURVE_COLUMNS,
                         (float, float, int))
    for column, expected in zip(back, (curve.bin_centers, curve.mortality,
                                       curve.support)):
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected)
