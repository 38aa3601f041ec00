"""Finite MDP estimation from clustered hourly trajectories.

States are the k cluster ids plus two absorbing terminals, SURVIVE = k and
DEATH = k + 1.  Actions are glycemic bins: the measured glucose at each hour,
discretized into 11 ranges.  Rewards live on transitions into the terminals:
+TERMINAL_REWARD (+100) into SURVIVE, -TERMINAL_REWARD (-100) into DEATH and
0 elsewhere, so a length-T trajectory earns the discounted return
gamma^(T-1) * (+-100).

Transition probabilities are empirical frequencies.  Actions observed fewer
than min_count times at a state are dropped from the available set; a state
left with no available action gets a flagged self-loop fallback so policies
stay well-defined everywhere.

A model is checked, and builds the pair table the solver reads, once: when
it is made, whether counted, read back or exact (``synthgen.true_mdp``).
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import IntegrityError

log = logging.getLogger(__name__)

# 11 bins bracketing hypoglycemia through severe hyperglycemia; the 100-180
# mg/dl conventional-control band falls on bin boundaries.
DEFAULT_BIN_EDGES = (60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 220.0, 260.0, 300.0)

DEFAULT_GAMMA = 0.9
DEFAULT_MIN_COUNT = 5
FALLBACK_ACTION = 0
TERMINAL_REWARD = 100.0

MDP_FORMAT = "glyrl-mdp"
MDP_FORMAT_VERSION = 1
MDP_COLUMNS = "s,a,s_next,count,p"
TRAJECTORY_COLUMNS = "patient_id,step_index,state,action,next_state"
# Table rows formatted, and characters of table text parsed, at a time:
# bounds the strings held at once.
CHUNK_ROWS = 4096
CHUNK_CHARS = 1 << 16


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
class Trajectories:
    """Logged trajectories as columns.  Patient p's steps are rows
    ``bounds[p]:bounds[p + 1]`` of ``state``, ``action`` and ``next_state``;
    each patient's last step enters SURVIVE (k) or DEATH (k + 1)."""

    patient_ids: np.ndarray  # (P,) str
    bounds: np.ndarray  # (P + 1,) row offsets
    state: np.ndarray  # (N,) int64
    action: np.ndarray  # (N,) int64
    next_state: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return len(self.patient_ids)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.bounds)

    @property
    def final_state(self) -> np.ndarray:
        """The state each patient's last step enters."""
        return self.next_state[self.bounds[1:] - 1]

    def check(self, k: int) -> None:
        """Raise a ValueError naming the first step whose state lies outside
        [0, k) or whose next state lies outside [0, k + 2)."""
        s, sp = self.state, self.next_state
        bad = (s < 0) | (s >= k) | (sp < 0) | (sp >= k + 2)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                "patient %s steps from state %d to %d; states must lie in "
                "[0, %d) and next states in [0, %d)"
                % (self.patient_ids[np.searchsorted(self.bounds, row, "right") - 1],
                   s[row], sp[row], k, k + 2))


def build_trajectories(patient_ids, bounds, states, glucose, survived,
                       action_space: ActionSpace,
                       n_cluster_states: int) -> Trajectories:
    """One step per hour; the final step transitions into SURVIVE or DEATH.

    Patient p's hours, at least one, are rows ``bounds[p]:bounds[p + 1]``
    of the arrays ``states`` (cluster ids) and ``glucose`` (mg/dl, NaN where
    missing); ``survived`` holds one flag per patient.  Hours with missing
    glucose reuse the last observed action; hours before the first
    observation borrow that first action.  Patients with no glucose
    observation at all are excluded (logged).
    """
    starts, lengths = bounds[:-1], np.diff(bounds)
    seen = np.flatnonzero(~np.isnan(glucose))
    try:
        bins = discretize_glucose(glucose[seen], action_space)
    except ValueError as exc:
        g = glucose[seen]
        row = seen[np.argmin(np.isfinite(g) & (g > 0.0))]
        raise IntegrityError(
            patient_ids[np.searchsorted(bounds, row, "right") - 1], str(exc))
    # observations before each row; each hour takes the last observation at
    # or before it, or its patient's first
    before = np.concatenate(([0], np.cumsum(~np.isnan(glucose))))
    first = np.repeat(before[starts], lengths)
    keep = before[bounds[1:]] > before[starts]
    for pid in patient_ids[~keep].tolist():
        log.warning("patient %s has no glucose observations, excluded from MDP",
                    pid)
    rows = np.repeat(keep, lengths)

    next_state = np.empty_like(states)
    next_state[:-1] = states[1:]
    next_state[bounds[1:] - 1] = np.where(survived, n_cluster_states,
                                          n_cluster_states + 1)
    return Trajectories(patient_ids[keep],
                        np.concatenate(([0], np.cumsum(lengths[keep]))),
                        states[rows],
                        bins[np.maximum(before[1:] - 1, first)[rows]],
                        next_state[rows])


@dataclass
class MDPModel:
    """Sparse empirical MDP over k cluster states plus the two terminals.

    The pair table holds the rows with p > 0 of every available pair, pair
    by pair in (s, a) order and in model order within a pair; each fallback
    state gets a flagged self-loop with zero reward."""

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
    pair_reward: np.ndarray = field(init=False)  # expected immediate reward
    t_target: np.ndarray = field(init=False)  # targets, flattened per pair
    t_prob: np.ndarray = field(init=False)
    pair_ptr: np.ndarray = field(init=False)  # each pair's first target row
    pair_index: np.ndarray = field(init=False)  # (k, n_actions): row or -1

    def __post_init__(self):
        self.validate()
        k, n_actions = self.k, self.n_actions
        kept = (self.trans_p > 0.0) & self.available[self.trans_s, self.trans_a]
        loops = np.array(sorted(self.fallback_states), dtype=np.int64)
        pair = np.concatenate((self.trans_s[kept] * n_actions + self.trans_a[kept],
                               loops * n_actions + FALLBACK_ACTION))
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        self.t_target = np.concatenate((self.trans_sp[kept], loops))[order]
        self.t_prob = np.concatenate((self.trans_p[kept],
                                      np.ones(len(loops))))[order]
        self.pair_ptr = np.flatnonzero(np.diff(pair, prepend=-1))
        pair_index = np.full(k * n_actions, -1, dtype=np.int64)
        pair_index[pair[self.pair_ptr]] = np.arange(len(self.pair_ptr))
        self.pair_index = pair_index.reshape(k, n_actions)
        reward = np.zeros(self.n_states)
        reward[k:] = TERMINAL_REWARD, -TERMINAL_REWARD  # into SURVIVE, DEATH
        self.pair_reward = np.add.reduceat(self.t_prob * reward[self.t_target],
                                           self.pair_ptr)

    @property
    def n_states(self) -> int:
        return self.k + 2

    @property
    def n_actions(self) -> int:
        return self.action_space.n_actions

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """Sum_s' P(s,a,s') v(s') for every pair, in one reduceat pass."""
        return np.add.reduceat(self.t_prob * v[self.t_target], self.pair_ptr)

    def validate(self) -> None:
        if isinstance(self.gamma, bool) or \
                not isinstance(self.gamma, (int, float)) or \
                not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be a number in [0, 1), got %r"
                             % (self.gamma,))
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


def estimate_mdp(trajectories: Trajectories, k: int,
                 min_count: int = DEFAULT_MIN_COUNT,
                 gamma: float = DEFAULT_GAMMA,
                 action_space: Optional[ActionSpace] = None) -> MDPModel:
    """Count the steps, normalize to probabilities, apply the count filter."""
    if not len(trajectories):
        raise ValueError("no trajectories to estimate from")
    if action_space is None:
        action_space = ActionSpace()
    trajectories.check(k)
    # keys in (s, a, s') order; an action outside the space raises here
    key = np.ravel_multi_index(
        (trajectories.state, trajectories.action, trajectories.next_state),
        (k, action_space.n_actions, k + 2))
    return _model_from_counts(*np.unique(key, return_counts=True), k,
                              min_count, gamma, action_space)


def _model_from_counts(key: np.ndarray, trans_count: np.ndarray, k: int,
                       min_count: int, gamma: float,
                       action_space: ActionSpace) -> MDPModel:
    """The model of the counts of distinct (s, a, s') keys, in key order."""
    trans_s, trans_a, trans_sp = np.unravel_index(
        key, (k, action_space.n_actions, k + 2))
    action_counts = np.zeros((k, action_space.n_actions), dtype=np.int64)
    np.add.at(action_counts, (trans_s, trans_a), trans_count)
    available = action_counts >= min_count

    trans_p = np.zeros(len(key), dtype=float)
    keep = available[trans_s, trans_a]
    row_totals = action_counts[trans_s, trans_a]
    trans_p[keep] = trans_count[keep] / row_totals[keep]

    fallback = np.flatnonzero(~available.any(axis=1))
    available[fallback, FALLBACK_ACTION] = True
    if fallback.size:
        log.info("%d state(s) had no action meeting min_count=%d, "
                 "given self-loop fallback", fallback.size, min_count)

    return MDPModel(k, gamma, min_count, action_space, trans_s, trans_a,
                    trans_sp, trans_count, trans_p, available, action_counts,
                    frozenset(fallback.tolist()))


def extract_real_policy(mdp: MDPModel) -> np.ndarray:
    """Most frequently observed action per state (ties -> lowest index).

    When any action meets min_count the raw argmax necessarily does too, so
    the result always lies in the available set; fallback states take the
    fallback action.
    """
    policy = np.argmax(mdp.action_counts, axis=1).astype(np.int64)
    policy[sorted(mdp.fallback_states)] = FALLBACK_ACTION
    return policy


def write_table(columns: str, template: str, cols,
                header: Optional[dict] = None) -> str:
    """The text table of ``cols``: ``header`` as a line of sorted JSON when
    given, the ``columns`` line, then one ``template`` row per row, formatted
    CHUNK_ROWS rows at a time from ``.tolist()`` lists."""
    head = "" if header is None else json.dumps(header, sort_keys=True) + "\n"
    cols = [np.asarray(col) for col in cols]
    return head + columns + "\n" + "".join(
        "".join(map(template.__mod__,
                    zip(*(col[at:at + CHUNK_ROWS].tolist() for col in cols))))
        for at in range(0, len(cols[0]), CHUNK_ROWS))


def _column(kind, cells) -> np.ndarray:
    """``cells`` as a numpy column of ``kind``: str, int (int64) or float."""
    if kind is str:
        return np.array(cells, dtype=str)
    return np.fromiter(map(kind, cells), dtype=np.int64 if kind is int else float,
                       count=len(cells))


def read_table(text: str, fmt: str, columns: str, kinds: Sequence[type],
               version: Optional[int] = None) -> Tuple[Optional[dict],
                                                       List[np.ndarray]]:
    """The header of ``write_table``'s text (None unless ``version`` is
    given) and one numpy column per entry of ``kinds`` (str, int or float).

    With a ``version``, the first line must be a JSON header of format
    ``fmt`` and that version; ``fmt`` also names the file in errors.  Rows
    are converted a block of whole lines, about CHUNK_CHARS characters, at a
    time; a row with the wrong number of fields raises, naming its line."""
    header, at = None, 0
    if version is not None:
        at = text.find("\n") + 1 or len(text)
        try:
            header = json.loads(text[:at])
        except ValueError:
            pass
        check_header(header, fmt, version)
    end = text.find("\n", at) + 1 or len(text)
    if text[at:end].rstrip("\n") != columns:
        raise ValueError("not a %s file" % fmt if header is None
                         else "the column header is not %r" % columns)
    at, line = end, 2 if header is None else 3
    width = len(kinds)
    blocks = [[_column(kind, []) for kind in kinds]]
    while at < len(text):
        end = text.find("\n", at + CHUNK_CHARS)
        if end < 0:  # the last block; a final newline ends its last line
            end = len(text) - text.endswith("\n")
        block = text[at:end]
        lines = block.split("\n")
        commas = np.fromiter(map(str.count, lines, itertools.repeat(",")),
                             dtype=np.int64, count=len(lines))
        bad = np.flatnonzero(commas != width - 1)
        if bad.size:
            raise ValueError("line %d has %d fields, expected %d"
                             % (line + bad[0], commas[bad[0]] + 1, width))
        cells = block.replace("\n", ",").split(",")
        blocks.append([_column(kind, cells[j::width])
                       for j, kind in enumerate(kinds)])
        at, line = end + 1, line + len(lines)
    return header, [np.concatenate(col) for col in zip(*blocks)]


def check_header(doc, fmt: str, version: int) -> None:
    """Raise a ValueError unless ``doc`` is a mapping whose ``format`` is
    ``fmt`` and whose ``version`` is the integer ``version``: a bool or a
    float may equal it but is not it."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError("not a %s file" % fmt)
    found = doc.get("version")
    if type(found) is not int or found != version:
        raise ValueError("unsupported %s version %r" % (fmt, found))


def header_int(header: dict, key: str) -> int:
    """``header[key]``, which must be an integer: int() would truncate a
    float and take a bool or a numeric string."""
    value = header[key]
    if type(value) is not int:
        raise ValueError("header %s is %r, not an integer" % (key, value))
    return value


def write_trajectories(trajectories: Trajectories) -> str:
    """One `patient_id,step_index,state,action,next_state` row per step."""
    t = trajectories
    step = np.arange(len(t.state)) - np.repeat(t.bounds[:-1], t.lengths)
    return write_table(TRAJECTORY_COLUMNS, "%s,%d,%d,%d,%d\n",
                       (np.repeat(t.patient_ids, t.lengths), step, t.state,
                        t.action, t.next_state))


def read_trajectories(text: str) -> Trajectories:
    """The trajectories of ``write_trajectories``' text; a patient's rows
    are consecutive, with steps 0, 1, ..."""
    _, (ids, step, state, action, next_state) = read_table(
        text, "trajectory", TRAJECTORY_COLUMNS, (str, int, int, int, int))
    # a row starts a patient when its id differs from the row before's
    new = np.ones(len(ids), dtype=bool)
    new[1:] = ids[1:] != ids[:-1]
    bounds = np.append(np.flatnonzero(new), len(ids))
    patient = np.cumsum(new) - 1
    off = np.flatnonzero(step != np.arange(len(ids)) - bounds[patient])
    if off.size:
        raise ValueError("non-contiguous steps for patient %s"
                         % ids[off[0]])
    return Trajectories(ids[bounds[:-1]], bounds, state, action, next_state)


def save_mdp(mdp: MDPModel) -> str:
    """The model as text: a JSON header line, then one `s,a,s',count,p` row
    per counted triplet."""
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
    return write_table(MDP_COLUMNS, "%d,%d,%d,%d,%r\n",
                       (mdp.trans_s, mdp.trans_a, mdp.trans_sp,
                        mdp.trans_count, mdp.trans_p), header)


def load_mdp(text: str) -> MDPModel:
    """Rebuild the model from the counts in ``save_mdp``'s text; the stored
    p must agree."""
    header, (s, a, sp, c, stored_p) = read_table(
        text, MDP_FORMAT, MDP_COLUMNS, (int, int, int, int, float),
        MDP_FORMAT_VERSION)
    k = header_int(header, "k")
    gamma = header["gamma"]  # as written; the model refuses a non-number
    min_count = header_int(header, "min_count")
    edges = header["bin_edges"]
    # float() would take a bool or a numeric string for an edge
    if type(edges) is not list or \
            any(type(e) not in (int, float) for e in edges):
        raise ValueError("header bin_edges is %r, not a list of numbers"
                         % (edges,))
    action_space = ActionSpace(tuple(edges))
    declared = header_int(header, "n_rows")
    if declared != len(c):
        raise ValueError("declares %d rows but has %d" % (declared, len(c)))
    if header_int(header, "n_states") != k + 2:
        raise ValueError("inconsistent n_states")
    if not len(c):
        raise ValueError("no transitions")
    if np.any(c <= 0):
        raise ValueError("non-positive count")
    if np.any((s < 0) | (s >= k) | (a < 0) | (a >= action_space.n_actions)
              | (sp < 0) | (sp >= k + 2)):
        raise ValueError("triplet indices out of range")
    key = np.ravel_multi_index((s, a, sp), (k, action_space.n_actions, k + 2))
    order = np.argsort(key)
    if np.any(np.diff(key[order]) == 0):
        raise ValueError("duplicate triplet rows")
    model = _model_from_counts(key[order], c[order], k, min_count, gamma,
                               action_space)
    if not np.all(np.abs(stored_p[order] - model.trans_p) <= 1e-12):  # NaN too
        raise ValueError("stored probabilities disagree with counts")
    return model
