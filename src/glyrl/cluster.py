"""k-means state abstraction over raw or encoded patient-state vectors.

Plain Lloyd's algorithm with k-means++ seeding, written against numpy only so
the tie-breaking and determinism contracts stay inspectable: nearest-centroid
ties resolve to the lowest index, empty clusters are re-seeded to the point
farthest from its current centroid, and the whole fit is a pure function of
(points, k, seed).

Seeding tracks each point's nearest seed so far and recomputes a point's
distance to a new seed only where the triangle inequality allows the new
seed to be nearer: where ||c - a||^2 <= 4 ||x - a||^2 for the point x, its
seed a and the new seed c, widened by a rounding allowance.  The seeds,
nearest seeds and distances stay bitwise those of a full pass per seed, and
Lloyd's first round takes its assignment from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 300

CLUSTER_FORMAT = "glyrl-clusters"
CLUSTER_FORMAT_VERSION = 1

# Nearest-centroid search.  Candidates come from the expanded form
# ||x||^2 - 2 x.c + ||c||^2 with ||c||^2 folded into the product: each row
# block of the points, with a column of ones appended, times one
# (dim + 1, k) matrix of -2 c^T over ||c||^2 (the row constant ||x||^2 is
# left out: it does not change which centroid is nearest).  Labels and
# distances are still exactly those of the explicit sum((x - c)^2) form,
# bit for bit and whatever the BLAS summation order or thread count: ties go
# to the lowest index, and each returned distance is the explicit sum itself.
#
# Why the recheck bound holds: with u = eps / 2 and gamma_m = m u / (1 - m u),
# a sum whose every term picks up at most m factors (1 + delta), |delta| <= u,
# lies within gamma_m of the sum of the terms' magnitudes (Higham, Accuracy
# and Stability of Numerical Algorithms, 3.1-3.3, in any summation order).
# The explicit sum picks up three factors per term (the difference, counted
# twice once squared, and the square) and dim - 1 across terms: it lies
# within gamma_{dim+2} of the true squared distance D <= (||x|| + ||c||)^2.
# In the folded product, ||c||^2 arrives already rounded dim times (dim
# squares and dim - 1 additions) and enters a (dim + 1)-term sum, whose
# terms each pass through at most dim additions; the terms x_i (-2 c_i)
# round once more when multiplied (1 * ||c||^2 and the scaling by -2 are
# exact).  So each of its terms carries at most 2 dim factors, and the
# product plus the exact ||x||^2 lies within gamma_{2 dim} (||x|| + ||c||)^2
# of D.  Since gamma_{dim+2} + gamma_{2 dim} <= gamma_{3 dim + 2} and
# gamma_{3 dim + 2} < (3 dim + 3) u, the two forms differ by at most
# B = (3 dim + 3) u (||x|| + max ||c||)^2, so the explicit minimizer lies
# within 2B = (3 dim + 3) eps (...)^2 of the product's minimum.  A row whose
# runner-up is that close (or whose values are not finite) is recomputed in
# the explicit form, against only the centroids whose product is not greater
# than that reach: every explicit minimizer is among them, so are equal
# centroids and lattice ties, and the lowest index of those wins as it would
# among all k.  The code uses 3 dim + 5 to absorb the rounding of the
# bound and of the sum that compares with it, plus (4 dim + 8) smallest
# normals for underflow (each product or square that underflows is off by
# at most 2^-1075, differences and sums of subnormals are exact).
#
# Seeding.  A point x whose nearest seed so far is a can move to a new seed c
# only if ||x - c|| < ||x - a||, which the triangle inequality rules out
# once ||c - a|| >= 2 ||x - a|| (Elkan, ICML 2003, Lemma 1).  So a point's
# explicit distance to c is computed only where gap = sum((c - a)^2) is not
# greater than reach = 4 (1 + r) d2 + F, d2 being its explicit distance to a.
# The explicit sum of a row does not depend on the other rows, so the
# distances and nearest seeds of the points recomputed are those of a full
# pass, and the distances that feed rng.choice keep their bits.
#
# Why the allowance holds: each explicit sum has non-negative terms, so in
# any summation order it lies within gamma S + mu of its true value S, with
# gamma = gamma_{dim+2} as above and mu <= dim 2^-1075 for squares that
# underflow (differences and sums of subnormals are exact).  Let
# rho = (1 + gamma) / (1 - gamma) and B = (d2 + mu) / (1 - gamma), which is
# at least the true ||x - a||^2.  If gap >= 4 rho (d2 + mu) + mu, the true
# ||c - a||^2 is at least 4 B, so the true ||x - c|| >= ||c - a|| - ||x - a||
# >= sqrt(B), and the explicit distance to c reads at least
# (1 - gamma) B - mu = d2: x stays with a (a tie keeps the lower index).
# rho - 1 < (2 dim + 5) u; the code uses r = 2 (dim + 4) eps, which also
# absorbs the two roundings of reach, and F = 4 (dim + 2) smallest normals,
# far above (1 + 4 rho) mu and the rounding of reach in the subnormal range.
# A reach that overflows is inf and keeps the point; a gap that overflows
# exceeds any finite reach, as its true value does.
#
# Equal centroids.  The search runs over the lowest-index copy of each
# distinct centroid only: the folded product reads +inf for every other
# copy, so none is picked, none is within reach, and a point nearest to a
# group of copies is not rechecked for their tie.  Equal centroids give
# equal explicit distances and ties go to the lowest index, so the labels
# and distances are still those of the search over all k.  (A reach that
# is not finite keeps the copies as candidates, which is only slower.)
#
# Row blocks hold about _BLOCK_ELEMENTS float64 distances and at most
# _BLOCK_ROWS rows, so the search's scratch does not grow with the number of
# points; the explicit recheck squares the differences of its (point,
# centroid) pairs in place, in chunks of about _CHUNK_ELEMENTS.  Seeding
# computes its distances _BLOCK_ROWS rows at a time, in one reused block.
_BLOCK_ELEMENTS = 1 << 20
_BLOCK_ROWS = 4096
_CHUNK_ELEMENTS = 1 << 20


@dataclass
class ClusterModel:
    centroids: np.ndarray  # (k, dim)
    seed: int
    inertia_history: List[float]  # after every assignment
    labels: Optional[np.ndarray] = None  # final assignment of the fit points

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, dim) matrix")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    return pts


def _nearest_exact(points: np.ndarray, centroids: np.ndarray,
                   candidates: np.ndarray) -> np.ndarray:
    """Each point's argmin over its explicit sum((x - c)^2) distances to
    the centroids marked in its row of the boolean (n, k) ``candidates``,
    which must hold all its explicit minimizers; ties -> lowest index."""
    dist = np.full(candidates.shape, np.inf)
    row, col = np.nonzero(candidates)
    # two (pairs, dim) copies per chunk
    step = max(1, _CHUNK_ELEMENTS // (2 * points.shape[1]))
    for start in range(0, len(row), step):
        r, c = row[start:start + step], col[start:start + step]
        dist[r, c] = _squared_distances(points[r], centroids[c])
    return np.argmin(dist, axis=1)


class _Nearest:
    """Nearest-centroid search over one fixed set of points.

    Holds the points' norms and one block of scratch, made once and reused
    by every call: a copy of the block's rows with a column of ones, the
    (dim + 1, k) folded centroid matrix and the block's (rows, k)
    candidates.  Calling it with centroids returns each point's label and
    explicit squared distance, equal to _nearest_exact's labels and the
    explicit distances bit for bit; see the module comment for the bound.
    """

    def __init__(self, points: np.ndarray, k: int):
        n, dim = points.shape
        rows = max(1, min(n, _BLOCK_ELEMENTS // k, _BLOCK_ROWS))
        self.points = points
        self.norms = np.sqrt(np.einsum("ij,ij->i", points, points))
        self.rows = np.arange(rows)
        self.augmented = np.empty((rows, dim + 1))
        self.augmented[:, dim] = 1.0
        self.folded = np.empty((dim + 1, k))
        self.candidates = np.empty((rows, k))
        finfo = np.finfo(float)
        self.rel = (3 * dim + 5) * finfo.eps
        self.floor = 2 * (4 * dim + 8) * finfo.tiny

    def __call__(self, centroids: np.ndarray):
        points, augmented, folded = self.points, self.augmented, self.folded
        n, dim = points.shape
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=float)
        c_sq = (centroids ** 2).sum(axis=1)
        c_norm = np.sqrt(c_sq.max())
        np.multiply(centroids.T, -2.0, out=folded[:dim])  # exact: a power of two
        folded[dim] = np.inf
        # the first occurrence, so the lowest index, of each distinct centroid
        first = np.unique(centroids, axis=0, return_index=True)[1]
        folded[dim, first] = c_sq[first]
        step = len(self.rows)
        for start in range(0, n, step):
            block = points[start:start + step]
            m = len(block)
            rows, d2 = self.rows[:m], self.candidates[:m]
            augmented[:m, :dim] = block
            np.matmul(augmented[:m], folded, out=d2)
            lab = np.argmin(d2, axis=1)
            reach = d2[rows, lab] + self.floor \
                + self.rel * (self.norms[start:start + m] + c_norm) ** 2
            d2[rows, lab] = np.inf
            # "not greater" also catches nan runner-ups and bounds
            ambiguous = np.flatnonzero(~(d2.min(axis=1) > reach))
            if ambiguous.size:
                # the centroids the bound cannot rule out: the product's own
                # pick and every value within reach
                near = ~(d2[ambiguous] > reach[ambiguous, None])
                near[np.arange(ambiguous.size), lab[ambiguous]] = True
                lab[ambiguous] = _nearest_exact(block[ambiguous], centroids,
                                                near)
            labels[start:start + m] = lab
            best[start:start + m] = ((block - centroids[lab]) ** 2).sum(axis=1)
        return labels, best


def _squared_distances(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Explicit sum((x - c)^2) of each row, computed in place in ``rows``
    (a copy the caller gives up), so a pass holds one (rows, dim) array."""
    rows -= c
    rows **= 2
    return rows.sum(axis=1)


def _distances_to(points: np.ndarray, c: np.ndarray, block: np.ndarray,
                  at: Optional[np.ndarray] = None) -> np.ndarray:
    """_squared_distances of every point, or of the points indexed by
    ``at``, to c, copying len(block) rows at a time into the scratch
    ``block``."""
    d2 = np.empty(len(points) if at is None else len(at))
    for start in range(0, len(d2), len(block)):
        part = slice(start, start + len(block))
        rows = block[:len(d2[part])]
        if at is None:
            np.copyto(rows, points[part])
        else:  # "clip" changes no index and gathers without a temporary
            np.take(points, at[part], axis=0, out=rows, mode="clip")
        d2[part] = _squared_distances(rows, c)
    return d2


def _choice(weights: np.ndarray, total: float, rng: np.random.Generator,
            p: np.ndarray, cdf: np.ndarray) -> int:
    """rng.choice(len(weights), p=weights / total): Generator.choice's own
    arithmetic, step for step, in the buffers p and cdf and without its
    checks of p."""
    np.divide(weights, total, out=p)
    np.cumsum(p, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _seed_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator):
    """k-means++ seeds, each point's nearest seed and its squared distance.

    The owners and distances equal _Nearest(points, k)(seeds), bit for bit;
    see the module comment for the pruning bound.
    """
    n, dim = points.shape
    seeds = np.empty((k, dim))
    seeds[0] = points[rng.integers(n)]
    block = np.empty((min(n, _BLOCK_ROWS), dim))
    d2 = _distances_to(points, seeds[0], block)
    # each point's d2 only decreases from here, so every later total is finite
    if not np.isfinite(d2.sum()):
        raise ValueError("squared distances between the points overflow "
                         "float64")
    owner = np.zeros(n, dtype=np.int64)
    finfo = np.finfo(float)
    scale = 4.0 * (1.0 + 2 * (dim + 4) * finfo.eps)  # exact
    floor = 4 * (dim + 2) * finfo.tiny
    reach = d2 * scale + floor
    p, cdf = np.empty(n), np.empty(n)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on already-covered points (duplicates)
            seeds[j] = points[rng.integers(n)]
        else:
            seeds[j] = points[_choice(d2, total, rng, p, cdf)]
        gap = ((seeds[:j] - seeds[j]) ** 2).sum(axis=1)
        # "not greater" keeps every point the bound cannot rule out
        near = np.flatnonzero(~(gap[owner] > reach))
        dist = _distances_to(points, seeds[j], block, near)
        closer = dist < d2[near]  # ties stay with the lower index
        moved = near[closer]
        d2[moved] = dist[closer]
        owner[moved] = j
        reach[moved] = d2[moved] * scale + floor
    return seeds, owner, d2


def kmeans_fit(points, k: int, seed: int = 0,
               max_iters: int = DEFAULT_MAX_ITERS,
               tol: float = DEFAULT_TOL) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding.

    The seeding's nearest seeds and distances are the first round's
    assignment.  Stops when the largest centroid movement falls below tol
    or after max_iters update rounds; inertia is recorded after every
    assignment and is non-increasing.  Empty clusters are re-seeded to the
    point currently farthest from its centroid.
    """
    pts = _check_points(points)
    n, dim = pts.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError("need at least k=%d points, got %d" % (k, n))
    if max_iters < 0 or tol < 0:
        raise ValueError("max_iters and tol must be non-negative")

    rng = np.random.default_rng(seed)
    centroids, labels, d2 = _seed_plus_plus(pts, k, rng)
    nearest = _Nearest(pts, k)
    history: List[float] = []

    for _ in range(max_iters):
        history.append(float(d2.sum()))

        counts = np.bincount(labels, minlength=k)
        # per cluster and coordinate, the same row-order sum from +0.0 that
        # mean(axis=0) over the cluster's rows takes when dim >= 2 (a single
        # column mean sums pairwise)
        sums = np.empty((k, dim))
        for d in range(dim):
            sums[:, d] = np.bincount(labels, weights=pts[:, d], minlength=k)
        filled = counts > 0
        new_centroids = centroids.copy()
        new_centroids[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            steal = d2.copy()
            for j in empty:
                far = int(np.argmax(steal))
                new_centroids[j] = pts[far]
                steal[far] = -np.inf  # each empty cluster takes a distinct point
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        labels, d2 = nearest(centroids)
        if movement < tol:
            break

    history.append(float(d2.sum()))
    return ClusterModel(centroids, seed, history, labels)


def assign_many(points, model: ClusterModel) -> np.ndarray:
    pts = _check_points(points)
    if pts.shape[1] != model.dim:
        raise ValueError("expected vectors of length %d, got %d"
                         % (model.dim, pts.shape[1]))
    labels, _ = _Nearest(pts, model.k)(model.centroids)
    return labels


def save_clusters(model: ClusterModel) -> str:
    """The model as JSON text."""
    doc = {
        "format": CLUSTER_FORMAT,
        "version": CLUSTER_FORMAT_VERSION,
        "k": model.k,
        "dim": model.dim,
        "seed": model.seed,
        "inertia": model.inertia,
        "centroids": model.centroids.tolist(),
    }
    return json.dumps(doc, indent=1) + "\n"
