"""The exact-mortality oracle against the generator, and the facts it
establishes about seeded runs: the encoder's batch size, and the raw
pipeline's regret at the acceptance and paper scales."""

import numpy as np
import pytest

from glyrl import pipeline, synthgen
from glyrl.config import PipelineConfig
from truth_oracle import latent_policy, one_hot_policy, true_mortality


def cohort(n_patients, seed, horizon_hours):
    """(generator config, cohort CSV text, ground truth) of a ladder
    cohort."""
    gen = synthgen.ladder_config(n_patients, seed, horizon_hours=horizon_hours)
    text, truth = synthgen.generate(gen)
    return gen, text, truth


def sampled_mortality(text):
    """(share of patients who died, patients) of a cohort CSV."""
    lines = text.splitlines()
    died_col = lines[0].split(",").index("died_within_90d")
    died = {}
    for line in lines[1:]:
        cells = line.split(",")
        died[cells[0]] = cells[died_col] == "1"
    return sum(died.values()) / len(died), len(died)


def run_truth(tmp_path, n_patients, seed, horizon_hours, k, representation,
              **encoder):
    """(report, true mortality of the learned policy, of pi_star) of a
    ``glyrl run`` on a ladder cohort, with pipeline seed ``seed``."""
    gen, text, truth = cohort(n_patients, seed, horizon_hours)
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    config = PipelineConfig()
    config.seed = seed
    config.representation = representation
    config.clustering.k = k
    for key, value in encoder.items():
        setattr(config.encoder, key, value)
    art = tmp_path / "art"
    report = pipeline.run_pipeline(config, str(path), str(art))
    learned = true_mortality(gen, latent_policy(str(art), truth, gen))
    best = true_mortality(gen, one_hot_policy(gen, truth.pi_star))
    return report, learned, best


# --- the oracle against the generator ------------------------------------------

@pytest.mark.parametrize("seed,horizon_hours",
                         [(3, 16), (3, 72), (7, 16), (7, 72)])
def test_logged_policy_mortality_is_the_generators_within_3_se(
        seed, horizon_hours):
    gen, text, truth = cohort(6000, seed, horizon_hours)
    exact = true_mortality(gen, gen.behavioral_policy)
    share, patients = sampled_mortality(text)
    se = np.sqrt(exact * (1.0 - exact) / patients)
    assert abs(share - exact) <= 3.0 * se
    assert true_mortality(gen, one_hot_policy(gen, truth.pi_star)) < exact


def two_state_config(horizon_hours):
    """State 1 absorbs; in state 0, action 0 stays and action 1 moves to
    state 1."""
    A = len(synthgen.DEFAULT_BIN_EDGES) + 1
    transition = np.zeros((2, A, 2))
    transition[0, :, 0] = 1.0
    transition[0, 1] = [0.0, 1.0]
    transition[1, :, 1] = 1.0
    policy = np.full((2, A), 1.0 / A)
    return synthgen.GeneratorConfig(
        n_patients=1, n_latent_states=2, horizon_hours=horizon_hours,
        transition=transition, death_hazard=np.array([0.1, 0.4]),
        discharge_hazard=np.array([0.5, 0.5]),
        emission_means=np.zeros((2, 1)), emission_scales=np.ones(1),
        covariate_names=("heart_rate",), behavioral_policy=policy,
        initial_distribution=np.array([1.0, 0.0]))


def test_three_hour_stay_by_hand():
    gen = two_state_config(3)
    # half of state 0 moves each hour: (1, 0) -> (1/2, 1/2) -> (1/4, 3/4).
    # No hazard on entering hour 1; hour 2 kills 1/4 * 0.1 + 3/4 * 0.4
    # before discharge takes anyone, and the horizon ends the stay.
    pi = np.zeros((2, gen.n_actions))
    pi[0, :2] = 0.5
    pi[1, 0] = 1.0
    assert true_mortality(gen, pi) == pytest.approx(0.325, rel=1e-12)
    assert true_mortality(gen, one_hot_policy(gen, [0, 0])) == \
        pytest.approx(0.1, rel=1e-12)
    # with a fourth hour, those neither dead nor discharged at hour 2 step
    # once more and face the hazards again
    stayed = np.array([0.25 * 0.9, 0.75 * 0.6]) * 0.5
    entered = np.array([stayed[0] * 0.5, stayed[0] * 0.5 + stayed[1]])
    assert true_mortality(two_state_config(4), pi) == \
        pytest.approx(0.325 + entered @ [0.1, 0.4], rel=1e-12)


# --- the encoder's minibatch size ---------------------------------------------
#
# encoder.batch_size was chosen by the true mortality of the learned policy
# over five seeds at two scales (horizon 16 with k = 5, horizon 72 with
# k = 500).  These small cohorts pin that choice: the default schedule finds
# pi_star's mortality at each of the three probe seeds, and 32-row batches
# miss it at seed 11.  (At seed 3, 32-row batches read 0.1592, slightly
# better than the default.)

@pytest.mark.parametrize("seed", [3, 7, 11])
def test_default_encoder_schedule_reaches_pi_star(tmp_path, seed):
    _, learned, best = run_truth(tmp_path, 2000, seed, 16, 5, "sparse_ae")
    assert best == pytest.approx(0.1589, abs=5e-5)
    assert learned - best <= 0.002


def test_32_row_batches_miss_pi_star_at_seed_11(tmp_path):
    _, learned, best = run_truth(tmp_path, 2000, 11, 16, 5, "sparse_ae",
                                 batch_size=32)
    assert learned - best > 0.02


# --- the raw pipeline's regret -------------------------------------------------

def test_raw_regret_is_about_0_at_the_acceptance_scale(tmp_path):
    _, learned, best = run_truth(tmp_path, 2000, 3, 16, 5, "raw")
    assert learned - best <= 0.002


def test_raw_regret_at_k_500_is_about_012_and_the_report_overstates_it(
        tmp_path):
    """At the paper scale the converged raw pipeline's policy dies 0.12 more
    often than pi_star, and report.json's model-based estimate of that
    policy's mortality reads 0.06 above its true value: the estimate shows
    neither the regret nor the truth."""
    report, learned, best = run_truth(tmp_path, 6000, 3, 72, 500, "raw")
    assert best == pytest.approx(0.1611, abs=5e-5)
    assert learned == pytest.approx(0.2799, abs=5e-4)
    assert 0.10 <= learned - best <= 0.14
    estimate = report["optimal"]["estimated_mortality"]
    assert estimate == pytest.approx(0.34, abs=0.01)
    assert estimate - learned > 0.05
