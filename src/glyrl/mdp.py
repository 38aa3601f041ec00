"""Finite MDP estimation from clustered hourly trajectories.

States are the k cluster ids plus two absorbing terminals, SURVIVE = k and
DEATH = k + 1.  Actions are glycemic bins: the measured glucose at each hour,
discretized into 11 ranges.  Rewards live on transitions into the terminals
(+100 survive, -100 death, 0 elsewhere), so a length-T trajectory earns the
discounted return gamma^(T-1) * (+-100).

Transition probabilities are empirical frequencies.  Actions observed fewer
than min_count times at a state are dropped from the available set; a state
left with no available action gets a flagged self-loop fallback so policies
stay well-defined everywhere.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import IntegrityError

log = logging.getLogger(__name__)

# 11 bins bracketing hypoglycemia through severe hyperglycemia; the 100-180
# mg/dl conventional-control band falls on bin boundaries.
DEFAULT_BIN_EDGES = (60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 220.0, 260.0, 300.0)

DEFAULT_GAMMA = 0.9
DEFAULT_MIN_COUNT = 5
FALLBACK_ACTION = 0

MDP_FORMAT = "glyrl-mdp"
MDP_FORMAT_VERSION = 1
MDP_COLUMNS = "s,a,s_next,count,p"
TRAJECTORY_COLUMNS = "patient_id,step_index,state,action,next_state"


@dataclass(frozen=True)
class ActionSpace:
    """Glucose thresholds (mg/dl) defining len(bin_edges)+1 left-closed bins."""

    bin_edges: Tuple[float, ...] = DEFAULT_BIN_EDGES

    def __post_init__(self):
        edges = tuple(float(e) for e in self.bin_edges)
        object.__setattr__(self, "bin_edges", edges)
        if len(edges) == 0:
            raise ValueError("need at least one bin edge")
        if any(not np.isfinite(e) or e <= 0 for e in edges):
            raise ValueError("bin edges must be positive and finite")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing")

    @property
    def n_actions(self) -> int:
        return len(self.bin_edges) + 1


def discretize_glucose(glucose_mgdl, action_space: ActionSpace):
    """Bin index of each glucose value, in the input's shape; values on an
    edge go to the higher bin."""
    g = np.asarray(glucose_mgdl, dtype=float)
    ok = np.isfinite(g) & (g > 0.0)
    if not ok.all():
        raise ValueError("glucose must be positive and finite, got %r"
                         % (float(g.flat[np.argmin(ok)]),))
    return np.searchsorted(action_space.bin_edges, g, side="right")


@dataclass
class AssignedSeries:
    """One patient's hourly cluster ids and glucose after state assignment."""

    patient_id: str
    state_ids: List[int]
    glucose: List[Optional[float]]
    survived: bool


@dataclass
class Trajectory:
    patient_id: str
    steps: List[Tuple[int, int, int]]  # (state, action, next_state)


def build_trajectories(assigned: Sequence[AssignedSeries],
                       action_space: ActionSpace,
                       n_cluster_states: int) -> List[Trajectory]:
    """One step per hour; the final step transitions into SURVIVE or DEATH.

    Hours with missing glucose reuse the last observed action; hours before
    the first observation borrow that first action.  Patients with no
    glucose observation at all are excluded (logged).
    """
    survive = n_cluster_states
    death = n_cluster_states + 1
    out: List[Trajectory] = []
    for series in assigned:
        n = len(series.state_ids)
        if n == 0 or n != len(series.glucose):
            raise IntegrityError(series.patient_id,
                                 "state and glucose series lengths disagree")
        observed = [t for t, g in enumerate(series.glucose) if g is not None]
        if not observed:
            log.warning("patient %s has no glucose observations, excluded from MDP",
                        series.patient_id)
            continue
        try:
            bins = discretize_glucose([series.glucose[t] for t in observed],
                                      action_space)
        except ValueError as exc:
            raise IntegrityError(series.patient_id, str(exc))
        # each hour takes the last observation at or before it, or the first
        latest = np.searchsorted(observed, np.arange(n), side="right") - 1
        actions = bins[np.maximum(latest, 0)].tolist()

        terminal = survive if series.survived else death
        states = [int(s) for s in series.state_ids] + [terminal]
        out.append(Trajectory(series.patient_id,
                              list(zip(states[:-1], actions, states[1:]))))
    return out


@dataclass
class MDPModel:
    """Sparse empirical MDP over k cluster states plus the two terminals."""

    k: int
    gamma: float
    min_count: int
    action_space: ActionSpace
    trans_s: np.ndarray  # raw counted triplets, sorted by (s, a, s')
    trans_a: np.ndarray
    trans_sp: np.ndarray
    trans_count: np.ndarray
    trans_p: np.ndarray  # 0.0 on rows whose (s, a) fell below min_count
    available: np.ndarray  # (k, n_actions) bool
    action_counts: np.ndarray  # (k, n_actions) raw totals
    fallback_states: frozenset

    @property
    def n_states(self) -> int:
        return self.k + 2

    @property
    def survive_state(self) -> int:
        return self.k

    @property
    def death_state(self) -> int:
        return self.k + 1

    @property
    def n_actions(self) -> int:
        return self.action_space.n_actions

    def reward_into(self, next_state: int) -> float:
        if next_state == self.survive_state:
            return 100.0
        if next_state == self.death_state:
            return -100.0
        return 0.0

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if np.any(self.trans_s >= self.k) or np.any(self.trans_s < 0):
            raise ValueError("transition source outside cluster states")
        if np.any(self.trans_sp >= self.n_states) or np.any(self.trans_sp < 0):
            raise ValueError("transition target outside state space")
        if np.any(self.trans_a >= self.n_actions) or np.any(self.trans_a < 0):
            raise ValueError("transition action outside action space")
        # row-stochasticity over available pairs
        totals = np.bincount(self.trans_s * self.n_actions + self.trans_a,
                             weights=self.trans_p,
                             minlength=self.k * self.n_actions)
        checked = self.available.copy()
        checked[sorted(self.fallback_states)] = False
        failing = np.argwhere(checked & (np.abs(totals.reshape(checked.shape) - 1.0)
                                         > 1e-9))
        if failing.size:
            s, a = failing[0]
            # report the same masked sum the per-pair check always reported
            total = float(self.trans_p[(self.trans_s == s) & (self.trans_a == a)].sum())
            raise ValueError("P(%d, %d, .) sums to %r" % (s, a, total))


def estimate_mdp(trajectories: Sequence[Trajectory], k: int,
                 min_count: int = DEFAULT_MIN_COUNT,
                 gamma: float = DEFAULT_GAMMA,
                 action_space: Optional[ActionSpace] = None) -> MDPModel:
    """Accumulate counts, normalize to probabilities, apply the count filter."""
    if not trajectories:
        raise ValueError("no trajectories to estimate from")
    if action_space is None:
        action_space = ActionSpace()
    n_actions = action_space.n_actions

    counts: Dict[Tuple[int, int, int], int] = {}
    for traj in trajectories:
        for s, a, sp in traj.steps:
            if not 0 <= s < k:
                raise ValueError("trajectory state %d outside [0, %d)" % (s, k))
            if not 0 <= a < n_actions:
                raise ValueError("trajectory action %d outside [0, %d)" % (a, n_actions))
            if not 0 <= sp < k + 2:
                raise ValueError("trajectory next state %d outside [0, %d)" % (sp, k + 2))
            key = (s, a, sp)
            counts[key] = counts.get(key, 0) + 1
    return _model_from_counts(counts, k, min_count, gamma, action_space)


def _model_from_counts(counts: Dict[Tuple[int, int, int], int], k: int,
                       min_count: int, gamma: float,
                       action_space: ActionSpace) -> MDPModel:
    n_actions = action_space.n_actions
    triplets = sorted(counts)
    trans_s = np.array([t[0] for t in triplets], dtype=np.int64)
    trans_a = np.array([t[1] for t in triplets], dtype=np.int64)
    trans_sp = np.array([t[2] for t in triplets], dtype=np.int64)
    trans_count = np.array([counts[t] for t in triplets], dtype=np.int64)

    action_counts = np.zeros((k, n_actions), dtype=np.int64)
    np.add.at(action_counts, (trans_s, trans_a), trans_count)
    available = action_counts >= min_count

    trans_p = np.zeros(len(triplets), dtype=float)
    keep = available[trans_s, trans_a]
    row_totals = action_counts[trans_s, trans_a]
    trans_p[keep] = trans_count[keep] / row_totals[keep]

    fallback = frozenset(int(s) for s in range(k) if not available[s].any())
    for s in fallback:
        available[s, FALLBACK_ACTION] = True
    if fallback:
        log.info("%d state(s) had no action meeting min_count=%d, "
                 "given self-loop fallback", len(fallback), min_count)

    model = MDPModel(k, gamma, min_count, action_space, trans_s, trans_a,
                     trans_sp, trans_count, trans_p, available, action_counts,
                     fallback)
    model.validate()
    return model


def extract_real_policy(mdp: MDPModel) -> np.ndarray:
    """Most frequently observed action per state (ties -> lowest index).

    When any action meets min_count the raw argmax necessarily does too, so
    the result always lies in the available set; fallback states take the
    fallback action.
    """
    policy = np.argmax(mdp.action_counts, axis=1).astype(np.int64)
    for s in mdp.fallback_states:
        policy[s] = FALLBACK_ACTION
    return policy


def _text_lines(text: str) -> List[str]:
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def split_headed_csv(text: str, fmt: str, version: int,
                     columns: str) -> Tuple[dict, Iterator[List[str]]]:
    """The header and the comma-split rows of a ``fmt`` file: a JSON header
    line, the ``columns`` line, then one row per line."""
    lines = _text_lines(text)
    try:
        header = json.loads(lines[0]) if lines else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError("not a %s file" % fmt)
    if header.get("version") != version:
        raise ValueError("unsupported %s version %r" % (fmt, header.get("version")))
    if lines[1:2] != [columns]:
        raise ValueError("the column header is not %r" % columns)
    return header, (line.split(",") for line in lines[2:])


def write_trajectories(trajectories: Sequence[Trajectory]) -> str:
    """One `patient_id,step_index,state,action,next_state` row per step."""
    # joined per patient first: a list of every row would outweigh the text
    return TRAJECTORY_COLUMNS + "\n" + "".join(
        "".join("%s,%d,%d,%d,%d\n" % (traj.patient_id, i, s, a, sp)
                for i, (s, a, sp) in enumerate(traj.steps))
        for traj in trajectories)


def read_trajectories(text: str) -> List[Trajectory]:
    """The trajectories of ``write_trajectories``' text."""
    lines = _text_lines(text)
    if lines[:1] != [TRAJECTORY_COLUMNS]:
        raise ValueError("not a trajectory file")
    out: List[Trajectory] = []
    current: Optional[Trajectory] = None
    for line in lines[1:]:
        pid, idx, s, a, sp = line.split(",")
        if current is None or current.patient_id != pid:
            current = Trajectory(pid, [])
            out.append(current)
        if int(idx) != len(current.steps):
            raise ValueError("non-contiguous steps for patient %s" % pid)
        current.steps.append((int(s), int(a), int(sp)))
    return out


def save_mdp(mdp: MDPModel) -> str:
    """The model as text: a JSON header line, then one `s,a,s',count,p` row
    per counted triplet."""
    mdp.validate()
    header = {
        "format": MDP_FORMAT,
        "version": MDP_FORMAT_VERSION,
        "n_states": mdp.n_states,
        "k": mdp.k,
        "gamma": mdp.gamma,
        "min_count": mdp.min_count,
        "bin_edges": list(mdp.action_space.bin_edges),
        "n_rows": int(len(mdp.trans_s)),
    }
    return json.dumps(header, sort_keys=True) + "\n" + MDP_COLUMNS + "\n" + \
        "".join("%d,%d,%d,%d,%s\n" % (s, a, sp, c, repr(float(p)))
                for s, a, sp, c, p in zip(mdp.trans_s, mdp.trans_a, mdp.trans_sp,
                                          mdp.trans_count, mdp.trans_p))


def load_mdp(text: str) -> MDPModel:
    """Rebuild the model from the counts in ``save_mdp``'s text; the stored
    p must agree."""
    header, body = split_headed_csv(text, MDP_FORMAT, MDP_FORMAT_VERSION,
                                    MDP_COLUMNS)
    rows = [(int(s), int(a), int(sp), int(c), float(p))
            for s, a, sp, c, p in body]
    k = int(header["k"])
    gamma = float(header["gamma"])
    min_count = int(header["min_count"])
    action_space = ActionSpace(tuple(header["bin_edges"]))
    declared = int(header["n_rows"])
    if declared != len(rows):
        raise ValueError("declares %d rows but has %d" % (declared, len(rows)))
    if int(header.get("n_states", k + 2)) != k + 2:
        raise ValueError("inconsistent n_states")

    stored = {(s, a, sp): (c, p) for s, a, sp, c, p in rows}
    if len(stored) != len(rows):
        raise ValueError("duplicate triplet rows")
    if not stored:
        raise ValueError("no transitions")
    counts = {key: c for key, (c, _) in stored.items()}
    if any(c <= 0 for c in counts.values()):
        raise ValueError("non-positive count")
    if any(not (0 <= s < k and 0 <= a < action_space.n_actions and 0 <= sp < k + 2)
           for s, a, sp in counts):
        raise ValueError("triplet indices out of range")
    model = _model_from_counts(counts, k, min_count, gamma, action_space)
    for s, a, sp, c, p in zip(model.trans_s, model.trans_a, model.trans_sp,
                              model.trans_count, model.trans_p):
        c_stored, p_stored = stored[(int(s), int(a), int(sp))]
        if c_stored != int(c) or abs(p_stored - float(p)) > 1e-12:
            raise ValueError("stored probabilities disagree with counts")
    return model
