"""Mortality calibration: map expected returns to estimated mortality rates.

Every state visit in the training trajectories contributes one sample
(V_real(state), died).  Samples are grouped into equal-width bins over the
observed return range, low-support bins merge into their nearest neighbor,
and a visit-weighted isotonic (non-increasing) regression produces the
calibration curve.  Scoring a policy maps its per-state values (as the
solver wrote them) through the curve and averages under a state-visit
distribution, yielding the real versus optimal mortality comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import CalibrationError
from .mdp import Trajectories, write_table

DEFAULT_N_BINS = 20
DEFAULT_MIN_BIN_SUPPORT = 50

CURVE_COLUMNS = "expected_return,estimated_mortality,support"


@dataclass(frozen=True)
class CalibrationCurve:
    """Non-increasing piecewise-linear mortality as a function of return."""

    bin_centers: np.ndarray
    mortality: np.ndarray
    support: np.ndarray


def collect_samples(V_real, trajectories: Trajectories):
    """Per-visit (return, died) pairs; died is the whole patient's outcome."""
    values = np.asarray(V_real, dtype=float)
    k = len(values)
    trajectories.check(k)
    died = np.repeat(trajectories.final_state == k + 1, trajectories.lengths)
    return values[trajectories.state], died.astype(float)


def _pav_non_increasing(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators under a non-increasing constraint."""
    means: List[float] = []
    wts: List[float] = []
    sizes: List[int] = []
    for v, w in zip(values, weights):
        means.append(float(v))
        wts.append(float(w))
        sizes.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            total = wts[-1] + wts[-2]
            pooled = (means[-1] * wts[-1] + means[-2] * wts[-2]) / total
            means[-2:] = [pooled]
            wts[-2:] = [total]
            sizes[-2:] = [sizes[-1] + sizes[-2]]
    out = np.empty(len(values))
    pos = 0
    for m, n in zip(means, sizes):
        out[pos:pos + n] = m
        pos += n
    return out


def fit_curve(V_real, trajectories: Trajectories,
              n_bins: int = DEFAULT_N_BINS,
              min_bin_support: int = DEFAULT_MIN_BIN_SUPPORT) -> CalibrationCurve:
    """Bin per-visit samples, merge thin bins, and isotonize the mortalities.

    V_real holds the evaluated values of the k non-terminal states, indexed
    by state id; a trajectory counts as died when it ends in state k + 1.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    returns, died = collect_samples(V_real, trajectories)
    if len(returns) == 0:
        raise CalibrationError("no state visits to calibrate on")
    lo, hi = float(returns.min()), float(returns.max())
    if hi <= lo:
        raise CalibrationError("all visits share one expected return, "
                               "cannot form a curve")

    width = (hi - lo) / n_bins
    idx = np.minimum(((returns - lo) / width).astype(int), n_bins - 1)

    # (support, sum_return, sum_died) of each non-empty bin in return
    # order; a stable sort keeps each bin's visits in visit order, so its
    # slice sums to the same bits as returns[idx == b].sum()
    order = np.argsort(idx, kind="stable")
    idx, returns, died = idx[order], returns[order], died[order]
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    ends = np.append(starts[1:], len(idx))
    bins = [[int(e - s), float(returns[s:e].sum()), float(died[s:e].sum())]
            for s, e in zip(starts.tolist(), ends.tolist())]

    # merge the thinnest bin into its nearest-center neighbor until all
    # surviving bins carry enough visits
    while len(bins) > 1 and min(b[0] for b in bins) < min_bin_support:
        supports = [b[0] for b in bins]
        i = supports.index(min(supports))
        centers = [b[1] / b[0] for b in bins]
        if i == 0:
            j = 1
        elif i == len(bins) - 1:
            j = i - 1
        else:
            left_gap = centers[i] - centers[i - 1]
            right_gap = centers[i + 1] - centers[i]
            j = i - 1 if left_gap <= right_gap else i + 1
        lo_i, hi_i = min(i, j), max(i, j)
        merged = [bins[lo_i][0] + bins[hi_i][0],
                  bins[lo_i][1] + bins[hi_i][1],
                  bins[lo_i][2] + bins[hi_i][2]]
        bins[lo_i:hi_i + 1] = [merged]
    if len(bins) < 2 or any(b[0] < min_bin_support for b in bins):
        raise CalibrationError(
            "only %d bin(s) reach min_bin_support=%d, cohort too small"
            % (sum(b[0] >= min_bin_support for b in bins), min_bin_support))

    support = np.array([b[0] for b in bins], dtype=np.int64)
    centers = np.array([b[1] / b[0] for b in bins])
    raw = np.array([b[2] / b[0] for b in bins])
    mortality = _pav_non_increasing(raw, support.astype(float))
    return CalibrationCurve(centers, np.clip(mortality, 0.0, 1.0), support)


def estimate_mortality(curve: CalibrationCurve, expected_return):
    """Piecewise-linear lookup, flat beyond the outermost bin centers."""
    result = np.interp(expected_return, curve.bin_centers, curve.mortality)
    if np.ndim(expected_return) == 0:
        return float(result)
    return result


def visitation_from_trajectories(trajectories: Trajectories,
                                 k: int) -> np.ndarray:
    """Empirical distribution of visited source states."""
    trajectories.check(k)
    counts = np.bincount(trajectories.state, minlength=k).astype(float)
    total = counts.sum()
    if total == 0:
        raise ValueError("no state visits in the trajectories")
    return counts / total


def empirical_mortality(trajectories: Trajectories, k: int) -> float:
    """Fraction of patients whose trajectory ends in DEATH (= state k + 1)."""
    if not len(trajectories):
        raise ValueError("no trajectories")
    deaths = int(np.count_nonzero(trajectories.final_state == k + 1))
    return deaths / len(trajectories)


def score(values, curve: CalibrationCurve, visitation) -> dict:
    """Mean value and estimated mortality of one policy's per-state values
    under a visitation distribution over the same states.

    Estimated mortality maps each state's value through the curve and then
    averages.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(visitation, dtype=float)
    if v.ndim != 1 or w.shape != v.shape:
        raise ValueError("visitation must cover the %d valued states" % len(v))
    if np.any(w < 0) or not np.isfinite(w).all():
        raise ValueError("visitation must be finite and non-negative")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("visitation is empty")
    if abs(total - 1.0) > 1e-9:
        raise ValueError("visitation must sum to 1, got %r" % total)
    return {"mean_expected_return": float(w @ v),
            "estimated_mortality": float(w @ estimate_mortality(curve, v))}


def evaluate(v_real, v_opt, curve: CalibrationCurve, train: Trajectories,
             scoring: Trajectories, representation: str, config_digest: str,
             seed: int) -> dict:
    """The report: the logged and the optimal policy's values (k entries
    each) scored under the visitation of the ``scoring`` trajectories, and
    the logged policy's estimate anchored against the ``train`` ones."""
    if np.shape(v_real) != np.shape(v_opt):
        raise ValueError("real and optimal values must cover the same states")
    k = len(v_real)
    visits = visitation_from_trajectories(scoring, k)
    visits = visits / visits.sum()
    visits_train = visitation_from_trajectories(train, k)
    return {
        "representation": representation,
        "real": score(v_real, curve, visits),
        "optimal": score(v_opt, curve, visits),
        "cohort_mortality": empirical_mortality(scoring, k),
        "config_digest": config_digest,
        "seed": int(seed),
        "train_anchor": {
            "estimated_mortality_real": score(
                v_real, curve, visits_train / visits_train.sum()
            )["estimated_mortality"],
            "empirical_mortality": empirical_mortality(train, k),
        },
    }


def emit_curve_csv(curve: CalibrationCurve) -> str:
    return write_table(CURVE_COLUMNS, "%r,%r,%d\n",
                       (curve.bin_centers, curve.mortality, curve.support))

