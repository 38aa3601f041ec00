"""Synthetic generator: hazards, ground truth, and pipeline compatibility."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

import cohort_oracle
import synthgen_oracle
from glyrl import cohort, pipeline
from glyrl.cluster import assign_many, kmeans_fit
from glyrl.errors import ArtifactError
from glyrl.mdp import (ActionSpace, DEFAULT_BIN_EDGES, MDPModel,
                       discretize_glucose)
from glyrl.solver import policy_iteration
from glyrl.synthgen import (
    GeneratorConfig,
    GroundTruth,
    generate,
    ground_truth_doc,
    ladder_config,
    load_ground_truth,
    solve_ground_truth,
    true_mdp,
)

SPACE = ActionSpace(DEFAULT_BIN_EDGES)


def tiny_config(**overrides):
    """Two latent states, two effective actions, uniform everything."""
    L, A = 2, 11
    cfg = GeneratorConfig(
        n_patients=overrides.pop("n_patients", 20),
        n_latent_states=L,
        horizon_hours=overrides.pop("horizon_hours", 12),
        transition=np.full((L, A, L), 0.5),
        death_hazard=np.zeros(L),
        discharge_hazard=np.full(L, 0.3),
        emission_means=np.array([[60.0], [90.0]]),
        emission_scales=np.array([1.0]),
        covariate_names=("heart_rate",),
        behavioral_policy=np.full((L, A), 1.0 / A),
        initial_distribution=np.array([0.5, 0.5]),
        seed=overrides.pop("seed", 0),
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def parse(csv_text):
    """Per-patient series objects, from the object-path reference parser."""
    return cohort_oracle.parse_cohort(io.StringIO(csv_text))


def test_zero_death_hazard_everyone_survives():
    csv_text, _ = generate(tiny_config(n_patients=60))
    for series in parse(csv_text):
        assert series.survived


def test_certain_death_hazard_kills_everyone_at_two_hours():
    cfg = tiny_config(n_patients=40, death_hazard=np.ones(2))
    csv_text, _ = generate(cfg)
    patients = parse(csv_text)
    assert len(patients) == 40
    for series in patients:
        assert not series.survived
        # first hazard check happens entering hour 2, so exactly 2 rows
        assert series.n_hours == 2


def test_every_patient_has_at_least_two_hours_and_respects_horizon():
    cfg = ladder_config(300, seed=3)
    csv_text, _ = generate(cfg)
    patients = parse(csv_text)
    assert len(patients) == 300
    lengths = [s.n_hours for s in patients]
    assert min(lengths) >= 2
    assert max(lengths) <= cfg.horizon_hours


def test_window_edge_stays_are_recorded_alive():
    cfg = ladder_config(400, seed=5)
    csv_text, _ = generate(cfg)
    capped = [s for s in parse(csv_text) if s.n_hours == cfg.horizon_hours]
    assert capped  # the ladder keeps some patients the full window
    assert all(s.survived for s in capped)


def test_latent_state_record_aligns_with_emitted_hours():
    cfg = ladder_config(100, seed=1)
    csv_text, truth = generate(cfg)
    for series in parse(csv_text):
        zs = truth.latent_states[series.patient_id]
        assert len(zs) == series.n_hours
        assert all(0 <= z < cfg.n_latent_states for z in zs)


def test_glucose_stays_inside_the_drawn_action_bin():
    cfg = ladder_config(80, seed=2)
    csv_text, _ = generate(cfg)
    for series in parse(csv_text):
        for hour in series.hours:
            assert hour.glucose_mgdl is not None
            b = discretize_glucose(hour.glucose_mgdl, SPACE)
            assert 0 <= b <= 10


def test_first_hour_covariates_never_missing():
    cfg = ladder_config(150, seed=4, missing_prob=0.4)
    csv_text, _ = generate(cfg)
    saw_missing = False
    for series in parse(csv_text):
        assert all(v is not None for v in series.hours[0].covariates)
        if any(v is None for h in series.hours[1:] for v in h.covariates):
            saw_missing = True
    assert saw_missing


def test_generation_is_deterministic_and_seed_sensitive():
    a1, t1 = generate(ladder_config(50, seed=9))
    a2, t2 = generate(ladder_config(50, seed=9))
    b, _ = generate(ladder_config(50, seed=10))
    assert a1 == a2
    assert np.array_equal(t1.pi_star, t2.pi_star)
    assert t1.latent_states == t2.latent_states
    assert a1 != b


# --- exact solutions on hand-built configs ---------------------------------


def four_state_oracle():
    """Entering z1 always discharges, entering z3 always dies, z2 leaks.

    Worked by hand: V* = [80, 100, 100, -100], optimal = [1, 0, 1, 0]
    (ties resolve to action 0).
    """
    L, A = 4, 2
    T = np.zeros((L, A, L))
    T[0, 0, 2] = 1.0
    T[0, 1, 1] = 0.9
    T[0, 1, 3] = 0.1
    T[1, :, 1] = 1.0
    T[2, 0, 2] = 1.0
    T[2, 1, 1] = 1.0
    T[3, :, 3] = 1.0
    return GeneratorConfig(
        n_patients=1,
        n_latent_states=L,
        horizon_hours=10,
        transition=T,
        death_hazard=np.array([0.0, 0.0, 0.1, 1.0]),
        discharge_hazard=np.array([0.0, 1.0, 0.0, 0.0]),
        emission_means=np.zeros((L, 1)),
        emission_scales=np.array([1.0]),
        covariate_names=("heart_rate",),
        behavioral_policy=np.full((L, A), 0.5),
        initial_distribution=np.array([1.0, 0.0, 0.0, 0.0]),
        bin_edges=(140.0,),
        gamma=0.9,
    )


def test_true_mdp_matches_hand_solved_values():
    solution = solve_ground_truth(four_state_oracle())
    assert np.allclose(solution.V[:4], [80.0, 100.0, 100.0, -100.0], atol=1e-6)
    assert solution.policy.tolist() == [1, 0, 1, 0]


def test_true_mdp_rows_are_proper_distributions():
    mdp = true_mdp(ladder_config(10))
    k = mdp.k
    for z in range(k):
        for a in range(11):
            sel = (mdp.trans_s == z) & (mdp.trans_a == a)
            assert np.isclose(mdp.trans_p[sel].sum(), 1.0)


@pytest.mark.parametrize("seed,n_latent_states,horizon_hours",
                         [(3, 5, 16), (7, 5, 16), (3, 5, 72), (1, 9, 16)])
def test_true_mdp_of_a_ladder_config_is_checked_when_made(
        monkeypatch, seed, n_latent_states, horizon_hours):
    checked = []
    validate = MDPModel.validate

    def counted(model):
        checked.append(model)
        validate(model)

    monkeypatch.setattr(MDPModel, "validate", counted)
    mdp = true_mdp(ladder_config(100, seed=seed,
                                 n_latent_states=n_latent_states,
                                 horizon_hours=horizon_hours))
    assert checked == [mdp]
    assert np.all(mdp.pair_index >= 0)  # every pair of the exact MDP


def test_dominant_action_wins_every_state():
    # action 0 jumps straight to the safest state, action 1 to the worst
    L, A = 3, 2
    T = np.zeros((L, A, L))
    T[:, 0, 0] = 1.0
    T[:, 1, 2] = 1.0
    cfg = GeneratorConfig(
        n_patients=1,
        n_latent_states=L,
        horizon_hours=10,
        transition=T,
        death_hazard=np.array([0.0, 0.2, 0.5]),
        discharge_hazard=np.array([0.3, 0.0, 0.0]),
        emission_means=np.zeros((L, 1)),
        emission_scales=np.array([1.0]),
        covariate_names=("heart_rate",),
        behavioral_policy=np.full((L, A), 0.5),
        initial_distribution=np.array([1.0, 0.0, 0.0]),
        bin_edges=(140.0,),
    )
    solution = solve_ground_truth(cfg)
    assert solution.policy.tolist() == [0, 0, 0]


def test_mirror_symmetric_states_share_values():
    cfg = tiny_config()  # identical rows for both states by construction
    solution = solve_ground_truth(cfg)
    assert np.isclose(solution.V[0], solution.V[1])


def test_ladder_optimal_policy_prefers_tight_control_when_healthy():
    cfg = ladder_config(10)
    truth = solve_ground_truth(cfg)
    assert truth.policy.tolist() == [3, 3, 5, 5, 5]
    # the planted harmful action never wins
    assert not np.any(truth.policy == 9)
    # values fall with severity
    assert np.all(np.diff(truth.V[: cfg.n_latent_states]) < 0)


# --- recoverability from the emitted CSV ------------------------------------


def test_clusters_recover_latent_states_when_noise_vanishes():
    cfg = ladder_config(250, seed=7, noise_scale=1e-6, missing_prob=0.0)
    csv_text, truth = generate(cfg)
    rows, labels = [], []
    for series in parse(csv_text):
        zs = truth.latent_states[series.patient_id]
        for hour, z in zip(series.hours, zs):
            rows.append([v for v in hour.covariates])
            labels.append(z)
    points = np.asarray(rows, dtype=float)
    model = kmeans_fit(points, k=cfg.n_latent_states, seed=0)
    assigned = assign_many(points, model)
    labels = np.asarray(labels)
    # map each cluster to its majority latent state; must be a bijection
    mapping = {}
    for c in range(cfg.n_latent_states):
        members = labels[assigned == c]
        assert members.size > 0
        mapping[c] = np.bincount(members).argmax()
    assert sorted(mapping.values()) == list(range(cfg.n_latent_states))
    acc = np.mean([mapping[c] == z for c, z in zip(assigned, labels)])
    assert acc == 1.0


def first_transition_tv(n_patients, seed=11):
    """TV distance between first-step empirical rows and the true tensor.

    The first transition happens before any hazard check, so its empirical
    distribution is an uncensored draw from the transition tensor.
    """
    cfg = ladder_config(n_patients, seed=seed)
    csv_text, truth = generate(cfg)
    L = cfg.n_latent_states
    counts = np.zeros((L, 11, L))
    for series in parse(csv_text):
        zs = truth.latent_states[series.patient_id]
        a = discretize_glucose(series.hours[0].glucose_mgdl, SPACE)
        counts[zs[0], a, zs[1]] += 1
    tvs = []
    for z in range(L):
        for a in range(11):
            row = counts[z, a]
            if row.sum() < 30:
                continue
            emp = row / row.sum()
            tvs.append(0.5 * np.abs(emp - cfg.transition[z, a]).sum())
    assert tvs
    return float(np.mean(tvs))


def test_first_transition_distribution_converges_to_tensor():
    coarse = first_transition_tv(400)
    fine = first_transition_tv(6400)
    assert fine < coarse
    assert fine < 0.05


# --- ground truth serialization ---------------------------------------------


def test_ground_truth_round_trip(tmp_path):
    _, truth = generate(ladder_config(30, seed=6))
    path = str(tmp_path / "truth.json")
    pipeline.write_file(path, ground_truth_doc(truth))
    loaded = load_ground_truth(path)
    assert loaded.n_latent_states == truth.n_latent_states
    assert loaded.gamma == truth.gamma
    assert loaded.seed == truth.seed
    assert np.array_equal(loaded.pi_star, truth.pi_star)
    assert np.allclose(loaded.v_star, truth.v_star)
    assert loaded.latent_states == truth.latent_states


def test_ground_truth_rejects_foreign_and_corrupt_files(tmp_path):
    path = str(tmp_path / "truth.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(ArtifactError):
        load_ground_truth(path)
    with open(path, "w") as fh:
        json.dump({"format": "something-else", "version": 1}, fh)
    with pytest.raises(ArtifactError):
        load_ground_truth(path)
    for root in ([], "glyrl-ground-truth", None):
        with open(path, "w") as fh:
            json.dump(root, fh)
        with pytest.raises(ArtifactError) as err:
            load_ground_truth(path)
        assert "%s: not a glyrl-ground-truth file" % path in str(err.value)
    _, truth = generate(ladder_config(5))
    pipeline.write_file(path, ground_truth_doc(truth))
    doc = json.load(open(path))
    doc["version"] = 99
    json.dump(doc, open(path, "w"))
    with pytest.raises(ArtifactError):
        load_ground_truth(path)
    # a value that equals an integer, or that int() would take, is not one
    for key, value, message in [
            ("version", True, "unsupported glyrl-ground-truth version True"),
            ("version", 1.0, "unsupported glyrl-ground-truth version 1.0"),
            ("seed", "3", "header seed is '3', not an integer"),
            ("n_latent_states", 5.0,
             "header n_latent_states is 5.0, not an integer")]:
        json.dump(dict(doc, **{"version": 1, key: value}), open(path, "w"))
        with pytest.raises(ArtifactError) as err:
            load_ground_truth(path)
        assert "%s: %s" % (path, message) in str(err.value)
    doc["version"] = 1
    doc["latent_states"] = [[0, 1]]
    json.dump(doc, open(path, "w"))
    with pytest.raises(ArtifactError, match="malformed"):
        load_ground_truth(path)
    del doc["pi_star"]
    json.dump(doc, open(path, "w"))
    with pytest.raises(ArtifactError):
        load_ground_truth(path)


# --- config validation -------------------------------------------------------


def test_validate_rejects_bad_shapes_and_ranges():
    with pytest.raises(ValueError):
        tiny_config(transition=np.full((2, 11, 3), 0.5)).validate()
    with pytest.raises(ValueError):
        tiny_config(death_hazard=np.array([0.5, 1.5])).validate()
    with pytest.raises(ValueError):
        tiny_config(horizon_hours=1).validate()
    with pytest.raises(ValueError):
        tiny_config(initial_distribution=np.array([0.7, 0.7])).validate()
    with pytest.raises(ValueError):
        tiny_config(missing_prob=1.0).validate()
    bad = tiny_config()
    bad.behavioral_policy = np.full((2, 11), 0.05)
    with pytest.raises(ValueError):
        bad.validate()
    with pytest.raises(ValueError, match="seed"):
        tiny_config(seed=-1).validate()


@pytest.mark.parametrize("name, bad_value", [
    ("transition", np.nan),
    ("death_hazard", np.nan),
    ("discharge_hazard", np.nan),
    ("emission_means", np.nan),
    ("emission_means", np.inf),
    ("emission_scales", np.nan),
    ("emission_scales", np.inf),
    ("behavioral_policy", np.nan),
    ("initial_distribution", np.nan),
])
def test_validate_rejects_a_non_finite_entry_naming_the_array(name, bad_value):
    # each comparison with NaN is false, so NaN slips past the range checks
    bad = tiny_config()
    value = getattr(bad, name).copy()
    value.flat[0] = bad_value
    setattr(bad, name, value)
    with pytest.raises(ValueError, match=name):
        bad.validate()


# configs on which the batched draws must reproduce the per-draw oracle:
# both benchmark horizons, dense missingness, a wide ladder, the horizons at
# which the hazard draws start (3) and never happen (2), probability rows
# full of zeros, and hazards that never or always end a stay
ORACLE_CONFIGS = {
    "ladder_seed3_h16": lambda: ladder_config(300, seed=3),
    "ladder_seed3_h72": lambda: ladder_config(300, seed=3, horizon_hours=72),
    "missing_0.3": lambda: ladder_config(200, seed=3, missing_prob=0.3),
    "25_states_h72": lambda: ladder_config(200, seed=3, n_latent_states=25,
                                           horizon_hours=72),
    "horizon_2": lambda: ladder_config(100, seed=3, horizon_hours=2),
    "horizon_3": lambda: ladder_config(100, seed=3, horizon_hours=3),
    "four_state_oracle": lambda: replace(four_state_oracle(), n_patients=100),
    "zero_hazards": lambda: tiny_config(n_patients=50,
                                        discharge_hazard=np.zeros(2)),
    "certain_death": lambda: tiny_config(n_patients=50,
                                         death_hazard=np.ones(2)),
    "no_covariates": lambda: tiny_config(n_patients=50,
                                         emission_means=np.zeros((2, 0)),
                                         emission_scales=np.zeros(0),
                                         covariate_names=()),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_generate_equals_the_per_draw_oracle(name):
    csv_text, truth = generate(ORACLE_CONFIGS[name]())
    ref_text, ref = synthgen_oracle.generate(ORACLE_CONFIGS[name]())
    # row by row first, so a failure shows one row and not a diff of the text
    for row, ref_row in zip(csv_text.split("\n"), ref_text.split("\n")):
        assert row == ref_row
    assert csv_text == ref_text
    assert truth.latent_states == ref.latent_states
    assert np.array_equal(truth.pi_star, ref.pi_star)
    assert truth.v_star.tobytes() == ref.v_star.tobytes()
    assert truth.seed == ref.seed and truth.gamma == ref.gamma


def test_generated_csv_survives_cohort_filters_mostly_intact():
    cfg = ladder_config(120, seed=8)
    csv_text, _ = generate(cfg)
    patients = cohort.parse_cohort(io.StringIO(csv_text))
    kept, exclusions = cohort.filter_cohort(patients)
    # statics are constructed to pass; only sparse short stays can trip
    # the missing-fraction cap
    assert set(exclusions) <= {"missing_covariates_above_maximum"}
    assert len(kept.ids) >= 0.95 * len(patients.ids)

    cfg_dense = ladder_config(120, seed=8, missing_prob=0.0)
    csv_dense, _ = generate(cfg_dense)
    kept_dense, exclusions_dense = cohort.filter_cohort(
        cohort.parse_cohort(io.StringIO(csv_dense)))
    assert len(kept_dense.ids) == 120
    assert not exclusions_dense
