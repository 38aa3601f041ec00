#!/usr/bin/env python3
"""Estimate a tabular MDP from a handful of logged trajectories and solve
it, printing every intermediate object.

The toy system has three cluster states. Action 0 drifts patients toward
state 2 (which mostly dies); action 1 pulls them toward state 0 (which
mostly survives). The logged behavior mixes both, so the estimated MDP
supports either choice everywhere, and policy iteration should pick the
corrective action in every state.
"""

import numpy as np

from glyrl.calib import visitation_from_trajectories
from glyrl.mdp import ActionSpace, Trajectories, estimate_mdp, extract_real_policy
from glyrl.solver import policy_evaluation, policy_iteration

SURVIVE, DIE = 3, 4  # terminals for k=3


def logged_trajectories(n=400, seed=0):
    rng = np.random.default_rng(seed)
    drift = {0: [0, 1, 1], 1: [0, 1, 2], 2: [1, 2, 2]}
    pull = {0: [0, 0, 0], 1: [0, 0, 1], 2: [1, 1, 2]}
    steps, bounds = [], [0]  # patient p's steps are steps[bounds[p]:bounds[p + 1]]
    for p in range(n):
        s = int(rng.integers(3))
        for _ in range(12):
            a = int(rng.random() < 0.5)
            options = (pull if a == 1 else drift)[s]
            sp = int(options[rng.integers(3)])
            if rng.random() < 0.25:  # hourly chance the stay ends
                death_rate = (0.05, 0.35, 0.85)[sp]
                sp = DIE if rng.random() < death_rate else SURVIVE
            steps.append((s, a, sp))
            if sp >= 3:
                break
            s = sp
        bounds.append(len(steps))
    state, action, next_state = np.array(steps).T
    return Trajectories(np.array(["p%d" % p for p in range(n)]),
                        np.array(bounds), state, action, next_state)


def main():
    trajs = logged_trajectories()
    space = ActionSpace((140.0,))  # two glycemic bands -> two actions
    mdp = estimate_mdp(trajs, k=3, min_count=5, gamma=0.9, action_space=space)
    print("estimated MDP: %d states (+2 terminals), %d actions, "
          "%d counted transitions" % (mdp.k, mdp.n_actions,
                                      int(mdp.trans_count.sum())))

    visitation = visitation_from_trajectories(trajs, k=3)
    print("state visitation:", np.round(visitation, 3).tolist())

    pi_real = extract_real_policy(mdp)
    v_real = policy_evaluation(mdp, pi_real, epsilon=1e-8)
    print("\nlogged policy (most frequent action per state):",
          pi_real.tolist())
    print("its value per state:", np.round(v_real[:3], 2).tolist())

    solution = policy_iteration(mdp, epsilon=1e-8)
    print("\npolicy iteration converged after %d improvement rounds"
          % solution.improvements)
    print("optimal policy:", solution.policy.tolist())
    print("optimal value: ", np.round(solution.V[:3], 2).tolist())
    print("\nQ table (rows = states, columns = actions):")
    for s in range(3):
        print("  state %d: %s" % (s, np.round(solution.Q[s], 2).tolist()))

    gain = solution.V[:3] - v_real[:3]
    print("\nvalue gained by switching every state to the corrective "
          "action: %s" % np.round(gain, 2).tolist())
    assert np.all(gain >= -1e-6)  # slack for the evaluation stop threshold


if __name__ == "__main__":
    main()
