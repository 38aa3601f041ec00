#!/usr/bin/env python3
"""Cluster normalized patient-hours and check the states against the
generator's latent severity.

The synthetic covariates drift with an unobserved severity level; k-means
over the normalized state vectors should rediscover those levels. The
contingency table below shows how cleanly each cluster maps onto one
severity rung.
"""

import io

import numpy as np

from glyrl import synthgen
from glyrl.cluster import assign_many, kmeans_fit
from glyrl.cohort import (
    apply_normalization,
    filter_cohort,
    fit_normalization,
    impute_cohort,
    parse_cohort,
)
from glyrl.config import PreprocessingConfig

COVARIATES = ["heart_rate", "mean_bp", "lactate", "creatinine"]


def main():
    csv_text, truth = synthgen.generate(synthgen.ladder_config(400, seed=12))
    cohort = parse_cohort(io.StringIO(csv_text), COVARIATES)
    kept, _ = filter_cohort(cohort, PreprocessingConfig())
    imputed, _ = impute_cohort(kept)
    spec = fit_normalization(imputed)
    points = apply_normalization(imputed, spec)
    k = truth.n_latent_states
    model = kmeans_fit(points, k, seed=0)
    print("k-means over %d hours, k=%d: inertia %.2f after %d passes"
          % (len(points), k, model.inertia, len(model.inertia_history)))
    drops = np.diff(np.asarray(model.inertia_history))
    print("inertia history is non-increasing:", bool(np.all(drops <= 1e-9)))

    labels = assign_many(points, model)
    table = np.zeros((k, k), dtype=int)
    owners = np.repeat(imputed.ids, imputed.lengths).tolist()
    for label, pid, hour in zip(labels, owners, imputed.hours.tolist()):
        table[label, truth.latent_states[pid][hour]] += 1

    print("\ncluster x latent-severity contingency (rows = clusters):")
    print("         " + "".join("sev%-5d" % z for z in range(k)))
    for c in range(k):
        print("  c%-4d " % c + "".join("%-8d" % v for v in table[c]))

    majority = table.argmax(axis=1)
    purity = table.max(axis=1).sum() / table.sum()
    print("\nmajority severity per cluster:", majority.tolist())
    print("bijective mapping:", sorted(majority.tolist()) == list(range(k)))
    print("overall purity: %.4f" % purity)


if __name__ == "__main__":
    main()
