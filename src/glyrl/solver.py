"""Exact dynamic programming on the estimated MDP.

Iterative policy evaluation (synchronous Jacobi sweeps from v_0 = 0),
improvement as an argmax over the available actions with ties to the lowest
index, and full policy iteration.  The solver reads nothing of the model
but the flat pair table each MDPModel builds once, when it is made, so
each sweep is a handful of vectorized operations; results are
bit-deterministic.

Rewards sit on transitions into the terminal states, so every value is
bounded by TERMINAL_REWARD (100) in magnitude and evaluation contracts at
rate gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .mdp import MDPModel, header_int, read_table, write_table

DEFAULT_EPSILON = 1e-4
MAX_EVAL_SWEEPS = 1_000_000
MAX_IMPROVEMENTS = 1000

SOLUTION_FORMAT = "glyrl-solution"
SOLUTION_FORMAT_VERSION = 1
SOLUTION_COLUMNS = "state_id,policy_action,V"


@dataclass
class PolicySolution:
    policy: np.ndarray  # (k,) action per non-terminal state
    V: np.ndarray  # (n_states,), terminals exactly 0
    Q: np.ndarray  # (k, n_actions), NaN where unavailable
    eval_sweeps: int
    improvements: int


def _policy_rows(mdp: MDPModel, policy) -> np.ndarray:
    """The pair row of each state's action under ``policy``."""
    pol = np.asarray(policy, dtype=np.int64)
    k = mdp.k
    if pol.shape != (k,):
        raise ValueError("policy must assign one action to each of %d states" % k)
    rows = mdp.pair_index[np.arange(k), pol]
    if np.any(rows < 0):
        bad = int(np.flatnonzero(rows < 0)[0])
        raise ValueError("policy picks unavailable action %d at state %d"
                         % (int(pol[bad]), bad))
    return rows


def _evaluate(mdp: MDPModel, rows: np.ndarray, epsilon: float,
              v0: Optional[np.ndarray] = None) -> Tuple[np.ndarray, int]:
    v = np.zeros(mdp.n_states) if v0 is None else v0.copy()
    sweeps = 0
    while True:
        q = mdp.pair_reward + mdp.gamma * mdp.expected_next(v)
        v_new = np.zeros(mdp.n_states)
        v_new[:mdp.k] = q[rows]
        sweeps += 1
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < epsilon:
            return v, sweeps
        if sweeps >= MAX_EVAL_SWEEPS:
            raise ConvergenceError(
                "policy evaluation still moving %r after %d sweeps" % (delta, sweeps))


def policy_evaluation(mdp: MDPModel, policy,
                      epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Iterate the Bellman expectation update until the sup-norm step < epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    v, _ = _evaluate(mdp, _policy_rows(mdp, policy), epsilon)
    return v


def _q_table(mdp: MDPModel, v: np.ndarray) -> np.ndarray:
    """Q(s,a) = R_s^a + gamma * sum_s' P(s,a,s') V(s') on available pairs,
    NaN elsewhere."""
    q_pairs = mdp.pair_reward + mdp.gamma * mdp.expected_next(v)
    return np.where(mdp.pair_index >= 0, q_pairs[mdp.pair_index], np.nan)


def policy_iteration(mdp: MDPModel,
                     epsilon: float = DEFAULT_EPSILON) -> PolicySolution:
    """Alternate full evaluation and improvement until the policy is stable.

    Starts from the lowest-index available action in each state.
    Evaluation warm-starts from the previous value function (same fixed
    point, fewer sweeps); improvement takes the argmax of Q over the
    available actions, ties to the lowest index.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    policy = np.argmax(mdp.pair_index >= 0, axis=1)
    v = None
    total_sweeps = 0
    for round_no in range(1, MAX_IMPROVEMENTS + 1):
        v, sweeps = _evaluate(mdp, _policy_rows(mdp, policy), epsilon, v0=v)
        total_sweeps += sweeps
        Q = _q_table(mdp, v)
        improved = np.nanargmax(Q, axis=1)  # Q is NaN where no pair exists
        if np.array_equal(improved, policy):
            return PolicySolution(policy=policy, V=v, Q=Q,
                                  eval_sweeps=total_sweeps,
                                  improvements=round_no)
        policy = improved
    raise ConvergenceError(
        "policy iteration did not stabilize within %d improvements"
        % MAX_IMPROVEMENTS)


def write_solution(label: str, policy: np.ndarray, V: np.ndarray,
                   eval_sweeps: int, improvements: int) -> str:
    """A policy and its values as text: a JSON header line, then
    `state_id,policy_action,V` per non-terminal state.  The header says
    converged: the solver raises rather than return values that are not."""
    k = len(policy)
    header = {
        "format": SOLUTION_FORMAT,
        "version": SOLUTION_FORMAT_VERSION,
        "label": label,
        "k": k,
        "eval_sweeps": int(eval_sweeps),
        "improvements": int(improvements),
        "converged": True,
    }
    return write_table(SOLUTION_COLUMNS, "%d,%d,%r\n",
                       (np.arange(k), policy, V[:k]), header)


def read_solution(text: str) -> Tuple[np.ndarray, np.ndarray, str]:
    """Returns (policy, V over non-terminal states, label) of
    ``write_solution``'s text."""
    header, (states, actions, values) = read_table(
        text, SOLUTION_FORMAT, SOLUTION_COLUMNS, (int, int, float),
        SOLUTION_FORMAT_VERSION)
    # the rows' count first: arange of a large k would be allocated whole
    if header_int(header, "k") != len(states) or \
            np.any(states != np.arange(len(states))):
        raise ValueError("rows are not the contiguous states")
    return actions, values, str(header["label"])


def write_q_table(solution: PolicySolution) -> str:
    """`state_id,action,Q` triplets for every available pair."""
    s, a = np.nonzero(np.isfinite(solution.Q))
    return write_table("state_id,action,Q", "%d,%d,%r\n",
                       (s, a, solution.Q[s, a]))
