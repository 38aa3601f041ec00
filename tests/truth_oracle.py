"""Exact mortality of a policy under the synthetic generator's law.

Each synthetic hour's covariates come from its latent state plus fresh
noise, and every static cell is a constant, so a policy over clusters acts
as a latent policy: pi[z, a] is the share of the test hours in latent state
z whose cluster's recommended action is a.  A forward pass over the latent
distribution then gives that policy's mortality without sampling, in the
order ``synthgen.generate`` draws a stay:

- hour 0 starts from ``initial_distribution``;
- each hour takes an action from the policy and steps through
  ``transition``;
- the stay ends at the horizon, everyone left counting as a survivor;
- from the third hour on, the entered state first kills with its
  ``death_hazard``, then discharges with its ``discharge_hazard``.

One approximation: the imputed cells (2% of covariates) carry an earlier
hour's value, so a cluster may see a mix of two hours' states.  The tests
bound the forward pass against ``generate``'s sampled mortality.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from glyrl.mdp import read_table
from glyrl.pipeline import ASSIGNMENT_COLUMNS
from glyrl.solver import read_solution
from glyrl.synthgen import GeneratorConfig, GroundTruth


def true_mortality(gen: GeneratorConfig, pi: np.ndarray) -> float:
    """The probability that a stay ends in death when each hour in latent
    state z takes action a with probability pi[z, a] (an L x A array)."""
    step = np.einsum("za,zay->zy", pi, gen.transition)
    alive = 1.0 - gen.death_hazard
    stays = 1.0 - gen.discharge_hazard
    p = np.asarray(gen.initial_distribution, dtype=float)
    deaths = 0.0
    for hour in range(1, gen.horizon_hours):
        p = p @ step
        if hour >= 2:
            deaths += float(p @ gen.death_hazard)
            p = p * alive * stays
    return deaths


def one_hot_policy(gen: GeneratorConfig, actions) -> np.ndarray:
    """The deterministic latent policy taking actions[z] in state z."""
    pi = np.zeros((gen.n_latent_states, gen.n_actions))
    pi[np.arange(gen.n_latent_states), actions] = 1.0
    return pi


def latent_policy(art_dir: str, truth: GroundTruth,
                  gen: GeneratorConfig) -> np.ndarray:
    """The latent policy of a run's recommendations: row z is the share of
    the run's test hours in latent state z whose cluster takes each action
    in solution/optimal.csv.  A latent state with no test hour takes the
    behavioral policy's row."""
    with open(os.path.join(art_dir, "test.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pid_col = header.index("patient_id")
        hour_col = header.index("hour_index")
        test_hours = [(row[pid_col], int(row[hour_col])) for row in reader]
    with open(os.path.join(art_dir, "assignments.csv")) as fh:
        _, (ids, hours, labels) = read_table(
            fh.read(), "cluster assignment", ASSIGNMENT_COLUMNS,
            (str, int, int))
    state = {(pid, int(hour)): int(label)
             for pid, hour, label in zip(ids, hours, labels)}
    with open(os.path.join(art_dir, "solution", "optimal.csv")) as fh:
        actions = read_solution(fh.read())[0]

    counts = np.zeros((gen.n_latent_states, gen.n_actions))
    for pid, hour in test_hours:
        counts[truth.latent_states[pid][hour],
               actions[state[(pid, hour)]]] += 1.0
    seen = counts.sum(axis=1)
    pi = np.array(gen.behavioral_policy, dtype=float)
    pi[seen > 0] = counts[seen > 0] / seen[seen > 0, None]
    return pi
