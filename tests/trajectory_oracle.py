"""Object-per-step reference for the columnar trajectories in ``glyrl.mdp``.

This is the trajectory path as it was before trajectories were columns: one
``AssignedSeries`` per patient cut from the hours table, one ``Trajectory``
of ``(state, action, next_state)`` tuples per patient, counting into a dict,
and the calibration samples, visitation and mortality as loops over the
steps.  The tests run it next to the library and require the same text,
the same model arrays and the same numbers, bit for bit.

``trajectories`` is how tests build ``mdp.Trajectories`` from step lists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from glyrl import mdp
from glyrl.errors import IntegrityError
from glyrl.mdp import (ActionSpace, DEFAULT_GAMMA, DEFAULT_MIN_COUNT,
                       FALLBACK_ACTION, MDPModel, TRAJECTORY_COLUMNS,
                       discretize_glucose)

log = logging.getLogger(__name__)


def trajectories(steps_by_patient: Sequence[Sequence[Tuple[int, int, int]]],
                 patient_ids: Optional[Sequence[str]] = None) -> mdp.Trajectories:
    """Columns of one list of (state, action, next_state) steps per patient,
    named p0, p1, ... unless ``patient_ids`` are given."""
    if patient_ids is None:
        patient_ids = ["p%d" % p for p in range(len(steps_by_patient))]
    lengths = [len(steps) for steps in steps_by_patient]
    steps = np.array([step for patient in steps_by_patient for step in patient],
                     dtype=np.int64).reshape(-1, 3)
    return mdp.Trajectories(np.array(patient_ids, dtype=str),
                            np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
                            *(np.ascontiguousarray(col) for col in steps.T))


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


def assigned(patient_ids, bounds, labels, glucose, survived) -> List[AssignedSeries]:
    """The per-patient series of hour columns, NaN glucose as None."""
    bounds = list(bounds)
    states = list(map(int, labels))
    values = [None if g != g else g for g in np.asarray(glucose).tolist()]
    return [AssignedSeries(pid, states[a:b], values[a:b], bool(alive))
            for pid, alive, a, b in zip(list(patient_ids), list(survived),
                                        bounds, bounds[1:])]


def build_trajectories(assigned: Sequence[AssignedSeries],
                       action_space: ActionSpace,
                       n_cluster_states: int) -> List[Trajectory]:
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
        latest = np.searchsorted(observed, np.arange(n), side="right") - 1
        actions = bins[np.maximum(latest, 0)].tolist()

        terminal = survive if series.survived else death
        states = [int(s) for s in series.state_ids] + [terminal]
        out.append(Trajectory(series.patient_id,
                              list(zip(states[:-1], actions, states[1:]))))
    return out


def estimate_mdp(trajectories: Sequence[Trajectory], k: int,
                 min_count: int = DEFAULT_MIN_COUNT,
                 gamma: float = DEFAULT_GAMMA,
                 action_space: Optional[ActionSpace] = None) -> MDPModel:
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

    model = MDPModel(k, gamma, min_count, action_space, trans_s, trans_a,
                     trans_sp, trans_count, trans_p, available, action_counts,
                     fallback)
    model.validate()
    return model


def write_trajectories(trajectories: Sequence[Trajectory]) -> str:
    return TRAJECTORY_COLUMNS + "\n" + "".join(
        "".join("%s,%d,%d,%d,%d\n" % (traj.patient_id, i, s, a, sp)
                for i, (s, a, sp) in enumerate(traj.steps))
        for traj in trajectories)


def read_trajectories(text: str) -> List[Trajectory]:
    lines = text.split("\n")
    lines = lines[:-1] if lines[-1] == "" else lines
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


def collect_samples(V_real, trajectories: Sequence[Trajectory]):
    values = np.asarray(V_real, dtype=float)
    k = len(values)
    death_state = k + 1
    returns: List[float] = []
    died: List[int] = []
    for traj in trajectories:
        if not traj.steps:
            continue
        outcome = 1 if traj.steps[-1][2] == death_state else 0
        for s, _, _ in traj.steps:
            if not 0 <= s < k:
                raise ValueError("visit to state %d outside the %d value entries"
                                 % (s, k))
            returns.append(float(values[s]))
            died.append(outcome)
    return np.array(returns), np.array(died, dtype=float)


def visitation_from_trajectories(trajectories: Sequence[Trajectory],
                                 k: int) -> np.ndarray:
    counts = np.zeros(k, dtype=float)
    for traj in trajectories:
        for s, _, _ in traj.steps:
            if not 0 <= s < k:
                raise ValueError("visit to state %d outside [0, %d)" % (s, k))
            counts[s] += 1.0
    total = counts.sum()
    if total == 0:
        raise ValueError("no state visits in the trajectories")
    return counts / total


def empirical_mortality(trajectories: Sequence[Trajectory], k: int) -> float:
    if not trajectories:
        raise ValueError("no trajectories")
    deaths = sum(1 for t in trajectories if t.steps and t.steps[-1][2] == k + 1)
    return deaths / len(trajectories)


def steps(trajectories: mdp.Trajectories) -> List[Tuple[str, List[Tuple[int, int, int]]]]:
    """(patient id, list of (state, action, next_state)) per patient."""
    rows = list(zip(trajectories.state.tolist(), trajectories.action.tolist(),
                    trajectories.next_state.tolist()))
    b = trajectories.bounds.tolist()
    return [(pid, rows[b[p]:b[p + 1]])
            for p, pid in enumerate(trajectories.patient_ids.tolist())]
