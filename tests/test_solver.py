"""Policy evaluation, improvement, and policy iteration.

The core check here is an independent value-iteration oracle, written as
plain dict/loop code with no shared machinery, run to a much tighter
threshold than the solver under test.
"""

import json

import numpy as np
import pytest

import trajectory_oracle as oracle
from glyrl import solver, synthgen
from glyrl.errors import ConvergenceError
from glyrl.mdp import FALLBACK_ACTION, ActionSpace, estimate_mdp
from glyrl.solver import (
    _q_table,
    policy_evaluation,
    policy_iteration,
    read_solution,
    write_q_table,
    write_solution,
)


def evaluate_policy_return(mdp, policy, initial_state_weights, epsilon=1e-4):
    """Oracle: weighted mean of V^policy over the non-terminal states."""
    w = np.asarray(initial_state_weights, dtype=float)
    if w.shape != (mdp.k,):
        raise ValueError("weights must cover exactly the %d non-terminal states" % mdp.k)
    if np.any(w < 0) or not np.isfinite(w).all():
        raise ValueError("weights must be finite and non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1, got %r" % float(w.sum()))
    v = policy_evaluation(mdp, policy, epsilon)
    return float(w @ v[:mdp.k])


def q_from_v(mdp, V):
    """Oracle: the Bellman backup Q(s,a) = R_s^a + gamma * sum_s' P(s,a,s') V(s')
    on available pairs, NaN elsewhere."""
    v = np.asarray(V, dtype=float)
    if v.shape != (mdp.n_states,):
        raise ValueError("V must cover all %d states" % mdp.n_states)
    return _q_table(mdp, v)


def mdp_from_steps(steps_by_patient, k, min_count=1, gamma=0.9, action_space=None):
    return estimate_mdp(oracle.trajectories(steps_by_patient), k, min_count=min_count, gamma=gamma,
                        action_space=action_space)


def value_iteration_oracle(mdp, tol=1e-10, max_iter=200000):
    """Independent tabular VI over the model's stored triplets."""
    trans = {}
    for s, a, sp, p in zip(mdp.trans_s, mdp.trans_a, mdp.trans_sp, mdp.trans_p):
        if p > 0.0:
            trans.setdefault((int(s), int(a)), []).append((int(sp), float(p)))
    for s in mdp.fallback_states:
        trans.setdefault((s, 0), [(s, 1.0)])

    def reward(sp):
        if sp == mdp.k:  # SURVIVE
            return 100.0
        if sp == mdp.k + 1:  # DEATH
            return -100.0
        return 0.0

    V = [0.0] * mdp.n_states
    for _ in range(max_iter):
        V_new = list(V)
        delta = 0.0
        for s in range(mdp.k):
            best = None
            for a in range(mdp.n_actions):
                if not mdp.available[s, a]:
                    continue
                q = 0.0
                for sp, p in trans[(s, a)]:
                    q += p * (reward(sp) + mdp.gamma * V[sp])
                if best is None or q > best:
                    best = q
            V_new[s] = best
            delta = max(delta, abs(V_new[s] - V[s]))
        V = V_new
        if delta < tol:
            return np.array(V)
    raise AssertionError("oracle did not converge")


def random_mdp(rng, max_states=20, max_actions=5):
    """Random sparse MDP built from random-walk trajectories."""
    k = int(rng.integers(2, max_states + 1))
    n_actions = int(rng.integers(2, max_actions + 1))
    edges = tuple(60.0 + 20.0 * i for i in range(n_actions - 1))
    space = ActionSpace(edges)
    trajs = []
    for p in range(int(rng.integers(15, 60))):
        s = int(rng.integers(k))
        steps = []
        for _ in range(int(rng.integers(1, 12))):
            a = int(rng.integers(n_actions))
            if rng.random() < 0.25:
                sp = k if rng.random() < 0.5 else k + 1
                steps.append((s, a, sp))
                break
            sp = int(rng.integers(k))
            steps.append((s, a, sp))
            s = sp
        else:
            steps.append((s, int(rng.integers(n_actions)), k))
        trajs.append(steps)
    min_count = int(rng.integers(1, 3))
    return estimate_mdp(oracle.trajectories(trajs), k, min_count=min_count,
                        gamma=0.9, action_space=space)


def test_single_action_to_survive_is_plus_100():
    mdp = mdp_from_steps([[(0, 3, 1)]], k=1)
    v = policy_evaluation(mdp, np.array([3]), epsilon=1e-9)
    assert v[0] == pytest.approx(100.0, abs=1e-12)
    assert v[1] == 0.0 and v[2] == 0.0


def test_two_step_chain_discounts_once():
    mdp = mdp_from_steps([[(0, 2, 1), (1, 2, 2)]], k=2)
    v = policy_evaluation(mdp, np.array([2, 2]), epsilon=1e-9)
    assert v[1] == pytest.approx(100.0, abs=1e-12)
    assert v[0] == pytest.approx(90.0, abs=1e-12)


def test_death_chain_is_minus_100():
    mdp = mdp_from_steps([[(0, 5, 2)]], k=1)
    v = policy_evaluation(mdp, np.array([5]), epsilon=1e-9)
    assert v[0] == pytest.approx(-100.0, abs=1e-12)


def test_policy_evaluation_rejects_bad_policies():
    mdp = mdp_from_steps([[(0, 3, 1)]], k=1)
    with pytest.raises(ValueError):
        policy_evaluation(mdp, np.array([3, 3]))  # wrong length
    with pytest.raises(ValueError):
        policy_evaluation(mdp, np.array([4]))  # unavailable action
    with pytest.raises(ValueError):
        policy_evaluation(mdp, np.array([3]), epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        policy_evaluation(mdp, np.array([3]), epsilon=float("nan"))


def test_q_matches_v_on_single_action_chain():
    mdp = mdp_from_steps([[(0, 2, 1), (1, 2, 2)]], k=2)
    v = policy_evaluation(mdp, np.array([2, 2]), epsilon=1e-10)
    Q = q_from_v(mdp, v)
    assert Q[0, 2] == pytest.approx(90.0, abs=1e-9)
    assert Q[1, 2] == pytest.approx(100.0, abs=1e-9)
    assert np.isnan(Q[0, 0])


def test_q_symmetric_terminal_split_is_zero():
    mdp = mdp_from_steps([[(0, 1, 1)], [(0, 1, 2)]], k=1)
    Q = q_from_v(mdp, np.zeros(3))
    assert Q[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_q_gamma_zero_is_immediate_reward():
    mdp = mdp_from_steps([[(0, 1, 1)], [(0, 1, 2)], [(0, 1, 2)],
                          [(0, 4, 1)]], k=1, gamma=0.0)
    Q = q_from_v(mdp, np.full(3, 55.5))
    assert Q[0, 1] == pytest.approx(100.0 / 3 - 200.0 / 3, abs=1e-12)
    assert Q[0, 4] == pytest.approx(100.0, abs=1e-12)


def test_improvement_argmax_and_tie_break():
    # state 0: action 1 dies, action 4 survives; state 1: action 0 dies,
    # actions 2 and 6 survive with identical transitions
    mdp = mdp_from_steps([[(0, 1, 3)], [(0, 4, 2)], [(1, 0, 3)],
                          [(1, 2, 2)], [(1, 6, 2)]], k=2)
    sol = policy_iteration(mdp, epsilon=1e-9)
    assert sol.policy[0] == 4
    assert sol.policy[1] == 2  # exact tie -> lowest index
    assert sol.Q[1, 2] == sol.Q[1, 6]


def test_improvement_single_available_action():
    mdp = mdp_from_steps([[(0, 7, 2)]], k=1)
    sol = policy_iteration(mdp, epsilon=1e-9)
    assert sol.policy[0] == 7
    assert sol.V[0] == pytest.approx(-100.0, abs=1e-9)


def test_improvement_fallback_state_takes_action_0_with_value_0():
    # state 0's only action is seen once, below min_count
    mdp = mdp_from_steps([[(0, 5, 2)], [(1, 3, 2)], [(1, 3, 2)]], k=2,
                         min_count=2)
    assert mdp.fallback_states == {0}
    sol = policy_iteration(mdp, epsilon=1e-9)
    assert sol.policy.tolist() == [FALLBACK_ACTION, 3]
    assert sol.V[0] == 0.0
    assert sol.V[1] == pytest.approx(100.0, abs=1e-9)


def test_policy_iteration_picks_survival_action():
    mdp = mdp_from_steps([[(0, 2, 1)], [(0, 6, 2)]], k=1)
    sol = policy_iteration(mdp, epsilon=1e-9)
    assert sol.policy[0] == 2
    assert sol.V[0] == pytest.approx(100.0, abs=1e-9)


def test_solver_caps_raise_convergence_error(monkeypatch):
    # the lowest-index action (2) leads to DEATH, action 6 to SURVIVE: one
    # evaluation takes more than one sweep, and the first improvement
    # changes the policy
    mdp = mdp_from_steps([[(0, 2, 2)], [(0, 6, 1)]], k=1)
    assert policy_iteration(mdp).policy.tolist() == [6]
    monkeypatch.setattr(solver, "MAX_EVAL_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 sweeps"):
        policy_evaluation(mdp, [2])
    monkeypatch.undo()
    monkeypatch.setattr(solver, "MAX_IMPROVEMENTS", 1)
    with pytest.raises(ConvergenceError, match="within 1 improvements"):
        policy_iteration(mdp)


def test_policy_iteration_matches_value_iteration_oracle():
    rng = np.random.default_rng(2718)
    for trial in range(100):
        mdp = random_mdp(rng)
        sol = policy_iteration(mdp, epsilon=1e-9)
        oracle = value_iteration_oracle(mdp, tol=1e-10)
        gap = float(np.max(np.abs(sol.V - oracle)))
        assert gap <= 1e-6, "trial %d: sup-norm gap %r" % (trial, gap)


def test_value_bound_100_everywhere():
    rng = np.random.default_rng(31337)
    for _ in range(20):
        mdp = random_mdp(rng)
        sol = policy_iteration(mdp, epsilon=1e-8)
        assert np.all(np.abs(sol.V) <= 100.0 + 1e-9)
        finite_q = sol.Q[np.isfinite(sol.Q)]
        assert np.all(np.abs(finite_q) <= 100.0 + 1e-9)


def test_optimal_dominates_every_fixed_policy():
    rng = np.random.default_rng(999)
    for _ in range(25):
        mdp = random_mdp(rng)
        sol = policy_iteration(mdp, epsilon=1e-8)
        # compare against a random available policy
        rand_policy = np.array([
            int(rng.choice(np.flatnonzero(mdp.available[s])))
            for s in range(mdp.k)], dtype=np.int64)
        v_rand = policy_evaluation(mdp, rand_policy, epsilon=1e-8)
        assert np.all(sol.V[:mdp.k] >= v_rand[:mdp.k] - 1e-3)


def reference_compile(mdp):
    """The pair-by-pair loop over a dict of per-pair rows that the model's
    vectorized pair table replaced: (pair_reward, t_target, t_prob,
    pair_ptr, pair_index)."""
    by_pair = {}
    for s, a, sp, p in zip(mdp.trans_s, mdp.trans_a, mdp.trans_sp, mdp.trans_p):
        if p > 0.0:
            by_pair.setdefault((int(s), int(a)), []).append((int(sp), float(p)))
    pair_index = np.full((mdp.k, mdp.n_actions), -1, dtype=np.int64)
    reward = {mdp.k: 100.0, mdp.k + 1: -100.0}  # into SURVIVE, DEATH
    rewards, targets, probs, ptr = [], [], [], []
    for s, a in zip(*np.nonzero(mdp.available)):
        if int(s) in mdp.fallback_states and a == FALLBACK_ACTION:
            rows = by_pair.get((s, a), [(int(s), 1.0)])
        else:
            rows = by_pair[(s, a)]
        pair_index[s, a] = len(rewards)
        rewards.append(sum(p * reward.get(sp, 0.0) for sp, p in rows))
        ptr.append(len(targets))
        targets += [sp for sp, _ in rows]
        probs += [p for _, p in rows]
    return (np.array(rewards), np.array(targets, dtype=np.int64),
            np.array(probs), np.array(ptr, dtype=np.int64), pair_index)


def test_compiled_form_matches_the_per_pair_loop_bitwise():
    rng = np.random.default_rng(77)
    models = [random_mdp(rng, max_states=30, max_actions=11) for _ in range(40)]
    models.append(synthgen.true_mdp(synthgen.ladder_config(20, seed=1)))
    for mdp in models:
        got = (mdp.pair_reward, mdp.t_target, mdp.t_prob, mdp.pair_ptr,
               mdp.pair_index)
        for a, b in zip(got, reference_compile(mdp)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_policy_iteration_rejects_bad_epsilon():
    mdp = random_mdp(np.random.default_rng(5))
    for epsilon in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            policy_iteration(mdp, epsilon=epsilon)


def test_sweep_deltas_contract():
    rng = np.random.default_rng(17)
    mdp = random_mdp(rng)
    policy = np.argmax(mdp.available, axis=1)
    v = np.zeros(mdp.n_states)
    deltas = []
    for _ in range(30):
        Q = q_from_v(mdp, v)
        v_new = np.zeros(mdp.n_states)
        v_new[:mdp.k] = Q[np.arange(mdp.k), policy]
        deltas.append(float(np.max(np.abs(v_new - v))))
        v = v_new
    for before, after in zip(deltas[1:], deltas[2:]):
        assert after <= before + 1e-12


def test_evaluate_policy_return_chain():
    mdp = mdp_from_steps([[(0, 2, 1), (1, 2, 2)]], k=2)
    ret = evaluate_policy_return(mdp, np.array([2, 2]), np.array([1.0, 0.0]),
                                 epsilon=1e-9)
    assert ret == pytest.approx(90.0, abs=1e-9)


def test_evaluate_policy_return_uniform_equal_values():
    mdp = mdp_from_steps([[(0, 1, 2)], [(1, 1, 2)]], k=2)  # both straight to SURVIVE
    ret = evaluate_policy_return(mdp, np.array([1, 1]), np.array([0.5, 0.5]),
                                 epsilon=1e-9)
    assert ret == pytest.approx(100.0, abs=1e-9)


def test_evaluate_policy_return_validates_weights():
    mdp = mdp_from_steps([[(0, 1, 1)]], k=1)
    with pytest.raises(ValueError):
        evaluate_policy_return(mdp, np.array([1]), np.array([0.5]))
    with pytest.raises(ValueError):
        evaluate_policy_return(mdp, np.array([1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        evaluate_policy_return(mdp, np.array([1]), np.array([-1.0]))


def test_best_state_weighting_bounds_other_weightings():
    rng = np.random.default_rng(808)
    mdp = random_mdp(rng)
    sol = policy_iteration(mdp, epsilon=1e-8)
    best_state = int(np.argmax(sol.V[:mdp.k]))
    concentrated = np.zeros(mdp.k)
    concentrated[best_state] = 1.0
    top = evaluate_policy_return(mdp, sol.policy, concentrated, epsilon=1e-8)
    for _ in range(5):
        w = rng.dirichlet(np.ones(mdp.k))
        assert top + 1e-6 >= evaluate_policy_return(mdp, sol.policy, w, epsilon=1e-8)


def test_solution_round_trip():
    rng = np.random.default_rng(55)
    mdp = random_mdp(rng)
    sol = policy_iteration(mdp, epsilon=1e-8)
    text = write_solution("optimal", sol.policy, sol.V, sol.eval_sweeps,
                          sol.improvements)
    policy, v, label = read_solution(text)
    assert json.loads(text.split("\n", 1)[0]) == {
        "format": "glyrl-solution", "version": 1, "label": "optimal",
        "k": mdp.k, "eval_sweeps": sol.eval_sweeps,
        "improvements": sol.improvements, "converged": True}
    assert label == "optimal"
    assert np.array_equal(policy, sol.policy)
    assert np.array_equal(v, sol.V[:mdp.k])
    rows = write_q_table(sol).splitlines()
    assert rows[0] == "state_id,action,Q"
    assert len(rows) - 1 == int(np.isfinite(sol.Q).sum())


def test_read_solution_rejects_garbage():
    with pytest.raises(ValueError, match="not a glyrl-solution file"):
        read_solution("state_id,policy_action,V\n0,1,2.0\n")
    with pytest.raises(ValueError, match="not the contiguous states"):
        read_solution('{"format": "glyrl-solution", "version": 1, "k": 2}\n'
                      "state_id,policy_action,V\n0,1,2.0\n")
