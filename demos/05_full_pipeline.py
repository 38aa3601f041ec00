#!/usr/bin/env python3
"""Run the whole pipeline on a synthetic cohort and grade the result
against the generator's ground truth.

Generates 6000 patients whose logged care leans 30% on a harmful glycemic
band, runs every stage, then checks three things: the report's estimated
mortality drop, the recovered policy against the true optimum, and the
mortality anchor (the estimator applied to the logged policy should land
on the training split's observed mortality).
"""

import csv
import json
import os
import tempfile
from collections import Counter, defaultdict

import numpy as np

from glyrl import pipeline, synthgen
from glyrl.config import PipelineConfig
from glyrl.mdp import read_trajectories
from glyrl.solver import read_solution


def main():
    workdir = tempfile.mkdtemp(prefix="glyrl-demo-")
    cohort = os.path.join(workdir, "cohort.csv")
    art = os.path.join(workdir, "artifacts")

    generator = synthgen.ladder_config(6000, seed=11)
    csv_text, truth = synthgen.generate(generator)
    with open(cohort, "w") as fh:
        fh.write(csv_text)
    print("wrote %d-patient synthetic cohort to %s" %
          (generator.n_patients, cohort))
    print("true optimal action per severity:", truth.pi_star.tolist())

    config = PipelineConfig()
    config.clustering.k = truth.n_latent_states
    config.seed = 0
    report = pipeline.run_pipeline(config, cohort, art)
    print("\nartifacts in %s" % art)
    print(json.dumps(report, indent=1, sort_keys=True))

    improvement = (report["real"]["estimated_mortality"]
                   - report["optimal"]["estimated_mortality"])
    print("\nestimated mortality drop from switching policies: %.1f points"
          % (100 * improvement))

    anchor = report["train_anchor"]
    print("anchor check: estimator on the logged policy %.4f vs observed "
          "training mortality %.4f (gap %.4f)"
          % (anchor["estimated_mortality_real"],
             anchor["empirical_mortality"],
             abs(anchor["estimated_mortality_real"]
                 - anchor["empirical_mortality"])))

    # grade the recovered policy: map clusters to their majority severity
    votes = defaultdict(Counter)
    with open(os.path.join(art, "assignments.csv"), newline="") as fh:
        for pid, hour, state in list(csv.reader(fh))[1:]:
            votes[int(state)][truth.latent_states[pid][int(hour)]] += 1
    majority = {s: c.most_common(1)[0][0] for s, c in votes.items()}

    with open(os.path.join(art, "solution", "optimal.csv")) as fh:
        policy, _, _ = read_solution(fh.read())
    with open(os.path.join(art, "mdp", "trajectories_train.csv")) as fh:
        trajs = read_trajectories(fh.read())
    visited = np.unique(trajs.state).tolist()
    hits = sum(int(policy[s]) == int(truth.pi_star[majority[s]])
               for s in visited)
    print("recovered optimal action on %d/%d visited states" %
          (hits, len(visited)))
    for s in visited:
        mark = "=" if int(policy[s]) == int(truth.pi_star[majority[s]]) else "!"
        print("  cluster %d (severity %d): solved %2d %s true %2d"
              % (s, majority[s], policy[s], mark, truth.pi_star[majority[s]]))


if __name__ == "__main__":
    main()
