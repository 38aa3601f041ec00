"""Synthetic cohort generator with a known ground-truth MDP.

Patients move on a latent severity ladder: each hour the behavioral policy
picks a glycemic action, the action-conditioned transition tensor moves the
latent state, and the entered state may end the stay (death hazard, then
discharge hazard, then the horizon).  Covariates are noisy per-state
emissions; the glucose reading is drawn uniformly inside the taken action's
bin so discretization inverts it exactly.

The exact latent MDP (transition tensor composed with the hazards) is
available as an MDPModel, so the optimal policy and values can be solved
with the same dynamic programming used by the pipeline and compared against
what the pipeline recovers from the generated CSV.

Real admission records cannot be redistributed, so this module is the
test bed: it plants a harmful high-glucose action and a severity-dependent
optimal action, then the pipeline must find them.

Sampling contract: a seed's cohort keeps its bytes.  Patient i draws from
its own stream, ``default_rng([seed, i])``, which nothing else reads, and
each hour takes the same doubles in the same order:

- Categorical draws (initial state, action, next state) use
  ``Generator.choice``'s arithmetic without its checks of ``p``: the CDF
  ``p.cumsum() / cdf[-1]``, built once per probability row, and
  ``bisect_right(cdf, u)`` for one uniform double ``u``.
- The glucose reading is ``lo + (hi - lo) * u``, numpy's own
  ``uniform(lo, hi)`` for numpy builds whose baseline has no fused
  multiply-add.  On a build where the two differ, the oracle test fails,
  and that one draw goes back to ``rng.uniform(lo, hi)``.
- Uniform doubles that follow one another come from one ``rng.random(n)``
  call, which returns what n scalar calls return: an hour's missingness
  draws, its transition draw, the two hazard draws (from the third hour
  on, and never at the horizon), and the next hour's action and glucose
  draws.  A stay that ends draws those last two doubles without using
  them; no other patient reads the stream, so nothing else moves.
- The covariate noise is one ``rng.normal(size=n_covariates)`` call per
  hour, because the ziggurat consumes a variable number of words.

``tests/synthgen_oracle.py`` keeps the per-draw loop these replace, and the
tests require the same CSV text and ground truth from both.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .cohort import FIXED_COLUMNS
from .errors import ArtifactError
from .mdp import (ActionSpace, DEFAULT_BIN_EDGES, MDPModel, check_header,
                  header_int)
from .solver import PolicySolution, policy_iteration

GROUND_TRUTH_FORMAT = "glyrl-ground-truth"
GROUND_TRUTH_FORMAT_VERSION = 1

# sampling bounds for the open outer glucose bins (mg/dl)
LOWEST_BIN_FLOOR = 20.0
TOP_BIN_SPAN = 60.0


@dataclass
class GeneratorConfig:
    n_patients: int
    n_latent_states: int
    horizon_hours: int
    transition: np.ndarray  # (L, A, L), rows stochastic
    death_hazard: np.ndarray  # (L,) applied on entering a state
    discharge_hazard: np.ndarray  # (L,)
    emission_means: np.ndarray  # (L, n_covariates)
    emission_scales: np.ndarray  # (n_covariates,) noise std per covariate
    covariate_names: Tuple[str, ...]
    behavioral_policy: np.ndarray  # (L, A), rows stochastic
    initial_distribution: np.ndarray  # (L,)
    bin_edges: Tuple[float, ...] = DEFAULT_BIN_EDGES
    gamma: float = 0.9
    missing_prob: float = 0.0
    seed: int = 0

    @property
    def n_actions(self) -> int:
        return len(self.bin_edges) + 1

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    def validate(self) -> None:
        L, A = self.n_latent_states, self.n_actions
        if self.horizon_hours < 2:
            raise ValueError("horizon_hours must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # NaN passes every range check below, since each comparison is false
        for name in ("transition", "death_hazard", "discharge_hazard",
                     "emission_means", "emission_scales",
                     "behavioral_policy", "initial_distribution"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s holds a value that is not finite" % name)
        if self.transition.shape != (L, A, L):
            raise ValueError("transition tensor shaped %r, expected %r"
                             % (self.transition.shape, (L, A, L)))
        for name, hz in (("death_hazard", self.death_hazard),
                         ("discharge_hazard", self.discharge_hazard)):
            if hz.shape != (L,) or np.any(hz < 0) or np.any(hz > 1):
                raise ValueError("%s must be %d values in [0, 1]" % (name, L))
        if self.behavioral_policy.shape != (L, A) or \
                np.any(self.behavioral_policy < 0) or \
                np.max(np.abs(self.behavioral_policy.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("behavioral policy rows must be stochastic")
        if self.initial_distribution.shape != (L,) or \
                np.any(self.initial_distribution < 0) or \
                abs(float(self.initial_distribution.sum()) - 1.0) > 1e-9:
            raise ValueError("initial distribution must be stochastic")
        if not 0.0 <= self.missing_prob < 1.0:
            raise ValueError("missing_prob must lie in [0, 1)")
        ActionSpace(self.bin_edges)  # validates the edges themselves


@dataclass
class GroundTruth:
    """What the generator knows and the pipeline must recover."""

    n_latent_states: int
    gamma: float
    pi_star: np.ndarray  # (L,) optimal action per latent state
    v_star: np.ndarray  # (L + 2,) values incl. terminals
    latent_states: Dict[str, List[int]]  # patient_id -> latent id per hour
    seed: int


def _bin_bounds(bin_edges: Sequence[float], action: int) -> Tuple[float, float]:
    if action == 0:
        return (min(LOWEST_BIN_FLOOR, bin_edges[0] / 2.0), bin_edges[0])
    if action == len(bin_edges):
        return (bin_edges[-1], bin_edges[-1] + TOP_BIN_SPAN)
    return (bin_edges[action - 1], bin_edges[action])


def true_mdp(config: GeneratorConfig) -> MDPModel:
    """The exact latent MDP: transition tensor composed with the hazards.

    Entering z' kills with death_hazard[z'], else discharges with
    discharge_hazard[z']; the remainder continues in z'.
    """
    config.validate()
    L, A = config.n_latent_states, config.n_actions
    hd, hds = config.death_hazard, config.discharge_hazard
    rows = config.transition.reshape(L * A, L)  # one row per (z, a)
    # continue into each z', then the survive and death columns; one dot
    # per row, as a batched product may round differently
    p = np.empty((L * A, L + 2))
    p[:, :L] = rows * ((1.0 - hd) * (1.0 - hds))
    p[:, L] = [row @ ((1.0 - hd) * hds) for row in rows]
    p[:, L + 1] = [row @ hd for row in rows]
    pair, trans_sp = np.nonzero(p > 0.0)  # in (s, a, s') order
    return MDPModel(
        k=L,
        gamma=config.gamma,
        min_count=0,
        action_space=ActionSpace(config.bin_edges),
        trans_s=pair // A,
        trans_a=pair % A,
        trans_sp=trans_sp,
        trans_count=np.zeros(len(pair), dtype=np.int64),
        trans_p=p[pair, trans_sp],
        available=np.ones((L, A), dtype=bool),
        action_counts=np.zeros((L, A), dtype=np.int64),
        fallback_states=frozenset(),
    )


def solve_ground_truth(config: GeneratorConfig,
                       epsilon: float = 1e-10) -> PolicySolution:
    """Exact policy iteration on the latent MDP."""
    return policy_iteration(true_mdp(config), epsilon=epsilon)


# constant static fields of every synthetic patient: the planted structure
# lives entirely in the dynamic covariates, so the static block carries no
# between-patient information
_STATIC_CELLS = {
    "age_years": "65.0",
    "gender": "M",
    "icu_unit": "MICU",
    "sofa_admission": "5",
    "elixhauser": "3",
    "mech_vent": "0",
    "intubation": "0",
    "vasopressor": "0",
    "hba1c_ge_7": "0",
    "first_glucose_mgdl": "130.0",
    "icd9_codes": "401.9",
    "admission_meds_diabetic": "0",
    "history_mentions_diabetes": "0",
}


def _cdf(p) -> List[float]:
    """Generator.choice's CDF of the probability row p, as floats:
    bisect_right(cdf, rng.random()) picks the index that
    rng.choice(len(p), p=p) picks, from the same double."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate(config: GeneratorConfig) -> Tuple[str, GroundTruth]:
    """Sample the cohort CSV and the matching ground truth.

    Every patient gets at least two hours: exit checks start only once the
    second hour is emitted (the ingestion layer rejects single-hour stays).
    Horizon survivors are labeled alive.
    """
    config.validate()
    L, A = config.n_latent_states, config.n_actions
    n_cov, horizon = config.n_covariates, config.horizon_hours
    missing_prob = config.missing_prob
    initial = _cdf(config.initial_distribution)
    policy = [_cdf(row) for row in config.behavioral_policy]
    transition = [[_cdf(row) for row in rows] for rows in config.transition]
    bins = [_bin_bounds(config.bin_edges, a) for a in range(A)]
    low = [float(lo) for lo, _ in bins]
    span = [float(hi) - float(lo) for lo, hi in bins]
    means, scales = config.emission_means, config.emission_scales
    death = config.death_hazard.tolist()
    discharge = config.discharge_hazard.tolist()
    statics = ",".join(_STATIC_CELLS[c] for c in FIXED_COLUMNS[2:15])
    lines = [",".join(FIXED_COLUMNS + tuple(config.covariate_names))]
    latent_states: Dict[str, List[int]] = {}

    pid_width = max(5, len(str(config.n_patients - 1)))
    for i in range(config.n_patients):
        rng = np.random.default_rng([config.seed, i])
        pid = "synth-%0*d" % (pid_width, i)
        u_z, u_a, u_glucose = rng.random(3).tolist()
        z = bisect_right(initial, u_z)
        a = bisect_right(policy[z], u_a)
        glucose = low[a] + span[a] * u_glucose
        tails: List[str] = []
        zs: List[int] = []
        died = False
        t = 0
        while True:
            values = (means[z] + scales * rng.normal(size=n_cov)).tolist()
            # missingness, transition, the two hazards when they are
            # checked, then the next hour's action and glucose
            u = rng.random(n_cov + (5 if 2 <= t + 1 < horizon else 3)).tolist()
            cells = [repr(glucose), "arterial"]
            if t == 0:  # the first hour is never missing a covariate
                cells += map(repr, values)
            else:
                cells += ["" if u[j] < missing_prob else repr(v)
                          for j, v in enumerate(values)]
            tails.append(",".join(cells))
            zs.append(z)

            z = bisect_right(transition[z][a], u[n_cov])
            t += 1
            if t >= horizon:
                break
            if t >= 2:
                if u[n_cov + 1] < death[z]:
                    died = True
                    break
                if u[n_cov + 2] < discharge[z]:
                    break
            a = bisect_right(policy[z], u[-2])
            glucose = low[a] + span[a] * u[-1]

        latent_states[pid] = zs
        died_cell = "1" if died else "0"
        lines += ["%s,%d,%s,%s,%s" % (pid, t_idx, statics, died_cell, tail)
                  for t_idx, tail in enumerate(tails)]

    solution = solve_ground_truth(config)
    truth = GroundTruth(
        n_latent_states=L,
        gamma=config.gamma,
        pi_star=solution.policy.copy(),
        v_star=solution.V.copy(),
        latent_states=latent_states,
        seed=config.seed,
    )
    lines.append("")
    return "\n".join(lines), truth


# hazard profiles along the normalized severity axis; the death hazard
# rises and the discharge hazard collapses, so the fatal share of exits
# climbs with severity while the hourly death risk stays moderate
_DEATH_KNOTS = (0.04, 0.046, 0.064, 0.09, 0.12)
_DISCHARGE_KNOTS = (0.28, 0.10, 0.03, 0.0, 0.0)


def ladder_config(n_patients: int, seed: int = 0,
                  n_latent_states: int = 5,
                  horizon_hours: int = 16,
                  noise_scale: float = 0.05,
                  missing_prob: float = 0.02) -> GeneratorConfig:
    """Severity-ladder cohort with a planted harmful glycemic action.

    Latent state is illness severity (0 healthiest).  Action 9 (260-300
    mg/dl) tilts the walk upward; actions 3 and 5 pull it down, with the
    better of the two flipping along the ladder: tight control (action 3)
    is best while healthy but risks two-rung deteriorations when already
    sick, moderate control (action 5) is the reverse.  The behavioral
    policy leans on the harmful action (plurality everywhere) and spreads
    the rest over the mid bins, which keeps every sampled action estimable.

    The observation window (horizon) and the hazards are balanced so that
    stay length carries almost no outcome information: estimated behavioral
    mortality then reproduces cohort mortality instead of overweighting
    long stays.  Patients still in the unit at the window edge are recorded
    as survivors.
    """
    if n_latent_states < 2:
        raise ValueError("n_latent_states must be at least 2")
    L = n_latent_states
    A = len(DEFAULT_BIN_EDGES) + 1

    def as_row(z, moves):
        # offsets walking off the ladder fold back into staying put
        row = np.zeros(L)
        for off, p in moves.items():
            tgt = z + off
            row[tgt if 0 <= tgt < L else z] += p
        row[z] += 1.0 - sum(moves.values())
        return row

    low_cut = (L - 2) // 2
    tight_low = {-2: 0.15, -1: 0.50, 1: 0.10}
    tight_high = {-1: 0.10, 1: 0.32, 2: 0.26}
    moderate_low = {-1: 0.20, 1: 0.22, 2: 0.18}
    moderate_high = {-2: 0.14, -1: 0.46, 1: 0.12, 2: 0.03}
    neutral = {-1: 0.24, 1: 0.24, 2: 0.06}
    unsampled = {-1: 0.15, 1: 0.30, 2: 0.12}

    transition = np.zeros((L, A, L))
    for z in range(L):
        low = z <= low_cut
        r_tight = as_row(z, tight_low if low else tight_high)
        r_moderate = as_row(z, moderate_low if low else moderate_high)
        r_neutral = as_row(z, neutral)
        # the harmful bin behaves like the sampled mix plus an upward tilt,
        # so it loses to the best corrective action at every severity
        r_harm = 0.6 * r_neutral + 0.2 * r_tight + 0.2 * r_moderate
        src = max(z - 1, 0)
        tilt = min(0.02, float(r_harm[src]))
        r_harm[src] -= tilt
        r_harm[min(z + 1, L - 1)] += tilt
        for a in range(A):
            if a == 9:
                transition[z, a] = r_harm
            elif a == 3:
                transition[z, a] = r_tight
            elif a == 5:
                transition[z, a] = r_moderate
            elif a in (2, 4, 6):
                transition[z, a] = r_neutral
            else:
                transition[z, a] = as_row(z, unsampled)

    frac = np.arange(L) / (L - 1)
    knot_x = np.linspace(0.0, 1.0, len(_DEATH_KNOTS))
    death = np.interp(frac, knot_x, _DEATH_KNOTS)
    discharge = np.interp(frac, knot_x, _DISCHARGE_KNOTS)

    behavioral = np.zeros((L, A))
    behavioral[:, 9] = 0.30
    for a in (2, 3, 4, 5, 6):
        behavioral[:, a] = 0.14

    initial = np.zeros(L)
    initial[0] = 0.5
    initial[1] = 0.5

    names = ("heart_rate", "mean_bp", "lactate", "creatinine")
    steps = np.array([5.0, -4.0, 0.5, 0.25])
    base = np.array([70.0, 95.0, 1.0, 0.8])
    means = base[None, :] + np.arange(L)[:, None] * steps[None, :]
    scales = noise_scale * np.abs(steps)
    # false for NaN, and for a noise_scale so small that a scale underflows
    if not np.all(scales > 0):
        raise ValueError("noise_scale is %r; it must be positive, and large "
                         "enough that no covariate's noise scale rounds to 0"
                         % noise_scale)

    return GeneratorConfig(
        n_patients=n_patients,
        n_latent_states=L,
        horizon_hours=horizon_hours,
        transition=transition,
        death_hazard=death,
        discharge_hazard=discharge,
        emission_means=means,
        emission_scales=scales,
        covariate_names=names,
        behavioral_policy=behavioral,
        initial_distribution=initial,
        missing_prob=missing_prob,
        seed=seed,
    )


def ground_truth_doc(truth: GroundTruth) -> dict:
    """The ground truth as the JSON document ``load_ground_truth`` reads."""
    return {
        "format": GROUND_TRUTH_FORMAT,
        "version": GROUND_TRUTH_FORMAT_VERSION,
        "n_latent_states": truth.n_latent_states,
        "gamma": truth.gamma,
        "seed": truth.seed,
        "pi_star": truth.pi_star.tolist(),
        "v_star": truth.v_star.tolist(),
        "latent_states": truth.latent_states,
    }


def load_ground_truth(path: str) -> GroundTruth:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError("cannot read ground truth %s: %s" % (path, exc))
    try:
        check_header(doc, GROUND_TRUTH_FORMAT, GROUND_TRUTH_FORMAT_VERSION)
        return GroundTruth(
            n_latent_states=header_int(doc, "n_latent_states"),
            gamma=float(doc["gamma"]),
            pi_star=np.array(doc["pi_star"], dtype=np.int64),
            v_star=np.array(doc["v_star"], dtype=float),
            latent_states={str(k): [int(z) for z in v]
                           for k, v in doc["latent_states"].items()},
            seed=header_int(doc, "seed"),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactError("malformed ground-truth file %s: %s" % (path, exc))
