"""k-means fitting, assignment tie-breaks, and the brute-force optimum check.

The seeding, the nearest-centroid kernel and the centroid update are also
checked bit for bit against reference implementations kept here: sequential
k-means++ seeding, the explicit broadcast sum((x - c)^2) kernel and the
per-cluster mean loop.  ``load_clusters`` is
the round-trip oracle of ``save_clusters``; no pipeline stage reads the
cluster model back.
"""

import bisect
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glyrl import cluster, pipeline, synthgen
from glyrl.config import PipelineConfig
from glyrl.cluster import (
    CLUSTER_FORMAT,
    CLUSTER_FORMAT_VERSION,
    ClusterModel,
    assign_many,
    kmeans_fit,
    save_clusters,
)


def brute_force_inertia(points, k):
    """Global optimum over every assignment of n points to k groups."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members):
                c = members.mean(axis=0)
                total += ((members - c) ** 2).sum()
        best = min(best, total)
    return best


def load_clusters(text):
    """The model of ``save_clusters``' text."""
    doc = json.loads(text)
    if doc.get("format") != CLUSTER_FORMAT:
        raise ValueError("not a cluster model file")
    if doc.get("version") != CLUSTER_FORMAT_VERSION:
        raise ValueError("unsupported cluster model version %r"
                         % (doc.get("version"),))
    centroids = np.array(doc["centroids"], dtype=float)
    shape = (int(doc["k"]), int(doc["dim"]))
    if shape[0] < 1 or centroids.shape != shape:
        raise ValueError("centroids shaped %r, expected %r"
                         % (centroids.shape, shape))
    if not np.all(np.isfinite(centroids)):
        raise ValueError("centroids contain non-finite values")
    return ClusterModel(centroids, int(doc["seed"]), [float(doc["inertia"])])


def reference_nearest(points, centroids, rows=256):
    """Broadcast (rows, k, dim) kernel, ``rows`` points at a time: the exact
    oracle for labels and best."""
    labels = np.empty(len(points), dtype=np.int64)
    best = np.empty(len(points))
    for start in range(0, len(points), rows):
        d2 = ((points[start:start + rows, None, :] - centroids[None, :, :])
              ** 2).sum(axis=2)
        labels[start:start + rows] = np.argmin(d2, axis=1)  # ties -> lowest
        best[start:start + rows] = d2[np.arange(len(d2)),
                                      labels[start:start + rows]]
    return labels, best


def reference_seed(points, k, rng):
    """Sequential k-means++: every point's distance to each new seed."""
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on already-covered points (duplicates)
            chosen[j] = rng.integers(n)
        else:
            chosen[j] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, ((points - points[chosen[j]]) ** 2).sum(axis=1))
    return points[chosen].copy()


def reference_fit(points, k, seed, max_iters):
    """kmeans_fit with the reference seeding and kernel and a per-cluster
    mean loop."""
    pts = np.asarray(points, dtype=float)
    centroids = reference_seed(pts, k, np.random.default_rng(seed))
    history = []
    for _ in range(max_iters):
        labels, d2 = reference_nearest(pts, centroids)
        history.append(float(d2.sum()))
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centroids[j] = pts[labels == j].mean(axis=0)
        steal = d2.copy()
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(steal))
            new_centroids[j] = pts[far]
            steal[far] = -np.inf
        centroids = new_centroids
    labels, d2 = reference_nearest(pts, centroids)
    history.append(float(d2.sum()))
    return centroids, labels, history


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def nearest(points, centroids):
    """A fit's nearest-centroid search over ``points``, called once."""
    return cluster._Nearest(points, len(centroids))(centroids)


# more rows than one capped block holds, so a search with few centroids
# runs three blocks, the last one short
CAPPED_ROWS = 2 * cluster._BLOCK_ROWS + 333


def assert_capped_blocks(points, k):
    assert k * cluster._BLOCK_ROWS < cluster._BLOCK_ELEMENTS
    assert len(cluster._Nearest(points, k).rows) == cluster._BLOCK_ROWS \
        < len(points)


def expanded_labels(points, centroids):
    d2 = ((points ** 2).sum(axis=1)[:, None] - 2.0 * points @ centroids.T
          + (centroids ** 2).sum(axis=1))
    return np.argmin(d2, axis=1)


def offset_ties(rng, offset, n, k, dim):
    """Points and centroids near a large offset with exact and near ties.

    Centroids sit on a unit grid around the offset, some duplicated and some
    nudged by a few ulps; points sit halfway between grid nodes, so many lie
    exactly equidistant from two centroids or within rounding of it.
    """
    ulp = np.spacing(offset)
    grid = rng.integers(-3, 4, size=(k, dim)).astype(float)
    grid[k // 2:] = grid[:k - k // 2]  # exact duplicates, lower index wins
    nudge = rng.integers(-2, 3, size=(k, dim)) * ulp * (rng.random((k, 1)) < 0.5)
    centroids = offset + grid + nudge
    points = offset + rng.integers(-3, 4, size=(n, dim)) + 0.5 * \
        rng.integers(0, 2, size=(n, dim)) + rng.integers(-2, 3, size=(n, dim)) * ulp
    return points, centroids


def test_three_points_three_clusters_exact_cover():
    pts = np.array([[0.0, 0.0], [5.0, 1.0], [2.0, 9.0]])
    model = kmeans_fit(pts, k=3, seed=0)
    assert model.inertia == 0.0
    assert sorted(map(tuple, model.centroids.tolist())) == sorted(map(tuple, pts.tolist()))


def test_two_well_separated_pairs():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    model = kmeans_fit(pts, k=2, seed=3)
    got = sorted(model.centroids.ravel().tolist())
    assert got == [0.5, 10.5]
    assert model.inertia == pytest.approx(1.0, abs=1e-12)
    # brute force over all 2-partitions confirms 1.0 is the optimum
    assert brute_force_inertia(pts, 2) == pytest.approx(1.0, abs=1e-12)


def test_fit_deterministic_bitwise():
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(40, 3))
    a = kmeans_fit(pts, k=5, seed=99)
    b = kmeans_fit(pts, k=5, seed=99)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia
    assert a.inertia_history == b.inertia_history
    assert np.array_equal(a.labels, b.labels)


def test_different_seeds_can_differ_but_stay_valid():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(30, 2))
    for seed in range(4):
        model = kmeans_fit(pts, k=4, seed=seed)
        assert model.centroids.shape == (4, 2) == (model.k, model.dim)
        assert np.all(np.isfinite(model.centroids))
        assert model.labels.min() >= 0 and model.labels.max() < 4


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(8)
    for seed in range(6):
        pts = rng.uniform(size=(60, 4))
        model = kmeans_fit(pts, k=6, seed=seed)
        hist = model.inertia_history
        assert len(hist) >= 2
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
        assert model.inertia == hist[-1]


def test_tiny_instances_reach_global_optimum():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(4, n + 1)))
        dim = int(rng.integers(1, 3))
        pts = rng.uniform(-5.0, 5.0, size=(n, dim))
        target = brute_force_inertia(pts, k)
        fitted = min(kmeans_fit(pts, k=k, seed=s).inertia for s in range(8))
        assert fitted <= target + 1e-9, \
            "trial %d: fitted %r vs optimum %r" % (trial, fitted, target)


def test_assign_centroid_to_itself():
    rng = np.random.default_rng(77)
    model = kmeans_fit(rng.uniform(size=(50, 3)), k=8, seed=1)
    assert assign_many(model.centroids, model).tolist() == list(range(model.k))


def test_assign_tie_breaks_to_lowest_index():
    centroids = np.array([[10.0], [20.0], [1.0], [30.0], [40.0], [3.0]])
    model = ClusterModel(centroids, 0, [0.0])
    # 2.0 is exactly 1 away from centroids 2 and 5
    assert assign_many(np.array([[2.0]]), model).tolist() == [2]


def test_assign_hand_checked_distance():
    model = ClusterModel(np.array([[0.5], [10.5]]), 0, [0.0])
    # 3.0 is 2.5 from 0.5 and 7.5 from 10.5
    assert assign_many(np.array([[3.0], [6.0], [5.5]]), model).tolist() == [0, 1, 0]
    labels, best = nearest(np.array([[3.0]]), model.centroids)
    assert labels.tolist() == [0] and best.tolist() == [6.25]


def test_assign_rejects_wrong_dim():
    model = ClusterModel(np.zeros((2, 3)), 0, [0.0])
    with pytest.raises(ValueError):
        assign_many(np.zeros(3), model)
    with pytest.raises(ValueError):
        assign_many(np.zeros((4, 2)), model)


def test_assign_after_fit_reproduces_training_labels():
    rng = np.random.default_rng(41)
    pts = rng.uniform(size=(80, 3))
    model = kmeans_fit(pts, k=7, seed=2)
    assert np.array_equal(assign_many(pts, model), model.labels)


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((2, 2)), k=3, seed=0)  # fewer points than k
    with pytest.raises(ValueError):
        kmeans_fit(np.array([[0.0], [np.nan]]), k=1, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((0, 2)), k=1, seed=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        kmeans_fit(np.zeros((2, 2)), k=0, seed=0)
    with pytest.raises(ValueError, match="must be non-negative"):
        kmeans_fit(np.zeros((2, 2)), k=1, seed=0, max_iters=-1)


def test_duplicate_points_fit_cleanly():
    pts = np.array([[1.0, 1.0]] * 6 + [[4.0, 4.0]] * 2)
    model = kmeans_fit(pts, k=3, seed=0)
    assert model.inertia == pytest.approx(0.0, abs=1e-18)


def test_empty_cluster_repair_keeps_k_centroids():
    # 3 tight groups but k=4 forces one seed to go empty at some point for
    # some seeds; the model must still come back with 4 finite centroids.
    rng = np.random.default_rng(10)
    groups = [rng.normal(c, 0.01, size=(10, 2)) for c in (0.0, 5.0, 10.0)]
    pts = np.vstack(groups)
    for seed in range(6):
        model = kmeans_fit(pts, k=4, seed=seed)
        assert model.centroids.shape == (4, 2)
        assert np.all(np.isfinite(model.centroids))


def test_save_load_round_trip():
    rng = np.random.default_rng(6)
    model = kmeans_fit(rng.uniform(size=(30, 4)), k=5, seed=11)
    loaded = load_clusters(save_clusters(model))
    assert np.array_equal(model.centroids, loaded.centroids)
    assert (loaded.k, loaded.dim, loaded.seed) == (5, 4, 11)
    assert loaded.inertia == model.inertia
    pts = rng.uniform(size=(9, 4))
    assert np.array_equal(assign_many(pts, model), assign_many(pts, loaded))


def test_load_rejects_foreign_file():
    with pytest.raises(ValueError, match="not a cluster model file"):
        load_clusters('{"format": "glyrl-encoder", "version": 1}\n')
    with pytest.raises(ValueError):
        load_clusters("not json at all")


@pytest.mark.parametrize("n,k", [(700, 40), (CAPPED_ROWS, 6)],
                         ids=["one_block", "capped_blocks"])
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 15, 16, 32, 33])
def test_nearest_matches_reference_bitwise(dim, n, k):
    rng = np.random.default_rng(100 + dim)
    points = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0, size=dim)
    centroids = points[rng.choice(n, size=k, replace=False)] \
        + rng.normal(scale=0.1, size=(k, dim))
    centroids[k - k // 4:] = centroids[:k // 4]  # exact duplicate centroids
    if n == CAPPED_ROWS:
        assert_capped_blocks(points, k)
    labels, best = nearest(points, centroids)
    ref_labels, ref_best = reference_nearest(points, centroids)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(bits(best), bits(ref_best))


@pytest.mark.parametrize("n,k", [(400, 24), (CAPPED_ROWS, 6)],
                         ids=["one_block", "capped_blocks"])
@pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
@pytest.mark.parametrize("dim", [1, 3, 15])
def test_nearest_exact_on_offset_ties(offset, dim, n, k):
    rng = np.random.default_rng(int(offset) % 97 + dim)
    points, centroids = offset_ties(rng, offset, n, k, dim)
    ref_labels, ref_best = reference_nearest(points, centroids)
    # the data is adversarial: the expanded form alone gets labels wrong
    assert not np.array_equal(expanded_labels(points, centroids), ref_labels)
    if n == CAPPED_ROWS:
        assert_capped_blocks(points, k)
    labels, best = nearest(points, centroids)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(bits(best), bits(ref_best))


@pytest.mark.parametrize("n", [50, CAPPED_ROWS],
                         ids=["one_block", "capped_blocks"])
def test_nearest_exact_when_squares_overflow(n):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(n, 3)) * 1e160
    centroids = rng.normal(size=(6, 3)) * 1e160
    if n == CAPPED_ROWS:
        assert_capped_blocks(points, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        labels, best = nearest(points, centroids)
        ref_labels, ref_best = reference_nearest(points, centroids)
    assert np.all(np.isinf(ref_best))
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(bits(best), bits(ref_best))


@pytest.mark.parametrize("rows", [1, 7, None])
def test_nearest_labels_independent_of_block_size(monkeypatch, rows):
    rng = np.random.default_rng(21)
    smooth = rng.normal(size=(300, 5))
    tied, tied_centroids = offset_ties(rng, 1e7, 300, 12, 5)
    wide = rng.normal(size=(CAPPED_ROWS, 5))
    wide_tied, wide_centroids = offset_ties(rng, 1e7, CAPPED_ROWS, 4, 5)
    for points, centroids in ((smooth, smooth[:12] + 0.01),
                              (tied, tied_centroids),
                              (wide, wide[:5] + 0.01),
                              (wide_tied, wide_centroids)):
        ref_labels, ref_best = reference_nearest(points, centroids)
        k, n = len(centroids), len(points)
        # rows=None asks for one block of every row, which the row cap
        # splits when there are more rows than it
        monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", k * (rows or n))
        monkeypatch.setattr(cluster, "_CHUNK_ELEMENTS", 1)  # one-pair rechecks
        if rows is None and n > cluster._BLOCK_ROWS:
            assert_capped_blocks(points, k)
        labels, best = nearest(points, centroids)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(bits(best), bits(ref_best))


@pytest.mark.parametrize("dim", [1, 3, 15])
def test_nearest_exact_where_the_folded_product_is_wrong(monkeypatch, dim):
    # near a large offset the folded product ||c||^2 - 2 x.c misranks
    # near-ties, not only exact ones: its minimum names the wrong centroid,
    # the right one lies inside the bound 2B of the module comment, and
    # only the explicit recheck of that row gets the label right
    rng = np.random.default_rng(500 + dim)
    points, centroids = offset_ties(rng, 1e8, 400, 24, dim)
    ref_labels, ref_best = reference_nearest(points, centroids)
    search = cluster._Nearest(points, len(centroids))
    rechecked = []
    exact = cluster._nearest_exact

    def recorded(rows, c, candidates):
        rechecked.extend(map(tuple, rows.tolist()))
        return exact(rows, c, candidates)

    monkeypatch.setattr(cluster, "_nearest_exact", recorded)
    labels, best = search(centroids)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(bits(best), bits(ref_best))
    # the search's own product, from the operands it multiplied
    product = search.augmented @ search.folded
    wrong = np.flatnonzero(np.argmin(product, axis=1) != ref_labels)
    assert wrong.size
    margin = product[wrong, ref_labels[wrong]] - product[wrong].min(axis=1)
    bound = (3 * dim + 3) * np.finfo(float).eps * (
        np.sqrt((points[wrong] ** 2).sum(axis=1))
        + np.sqrt((centroids ** 2).sum(axis=1).max())) ** 2
    assert np.all((0 <= margin) & (margin <= bound)) and margin.max() > 0
    assert set(map(tuple, points[wrong].tolist())) <= set(rechecked)


@pytest.mark.parametrize("dim", [1, 3, 15])
def test_equal_centroids_are_searched_once(monkeypatch, dim):
    # each of 12 distinct centroids at least twice, in shuffled order,
    # one copy with a -0.0 where the others hold +0.0: every point's
    # nearest centroids are an exact tie among copies, settled by the
    # lowest index without the explicit recheck
    rng = np.random.default_rng(90 + dim)
    points = rng.normal(size=(3000, dim))
    distinct = rng.normal(size=(12, dim))
    distinct[0, 0] = 0.0
    pick = rng.permutation(np.concatenate(
        [np.arange(12), np.arange(12), rng.integers(12, size=36)]))
    centroids = distinct[pick]
    centroids[np.flatnonzero(pick == 0)[-1], 0] = -0.0
    want = cluster._nearest_exact(points, centroids,
                                  np.ones((len(points), len(centroids)), bool))
    want_best = ((points - centroids[want]) ** 2).sum(axis=1)
    pairs = []
    exact = cluster._nearest_exact

    def recorded(rows, c, candidates):
        pairs.append(int(candidates.sum()))
        return exact(rows, c, candidates)

    monkeypatch.setattr(cluster, "_nearest_exact", recorded)
    labels, best = nearest(points, centroids)
    assert np.array_equal(labels, want)
    assert np.array_equal(bits(best), bits(want_best))
    assert np.all(np.bincount(pick) >= 2)  # a search over all k rechecks all
    assert sum(pairs) == 0


def recorded_fit(monkeypatch, points, k):
    """Fit 5 Lloyd rounds at seed 3; return every search's (centroids,
    labels, best) and every explicit recheck's (rows, distances computed)."""
    searches, rechecks = [], []
    search, exact = cluster._Nearest.__call__, cluster._nearest_exact

    def recorded_search(self, centroids):
        labels, best = search(self, centroids)
        searches.append((centroids.copy(), labels, best))
        return labels, best

    def recorded_exact(rows, centroids, candidates):
        rechecks.append((len(rows), int(candidates.sum())))
        return exact(rows, centroids, candidates)

    monkeypatch.setattr(cluster._Nearest, "__call__", recorded_search)
    monkeypatch.setattr(cluster, "_nearest_exact", recorded_exact)
    kmeans_fit(points, k, seed=3, max_iters=5, tol=0.0)
    return searches, rechecks


def assert_exact_and_narrow(searches, rechecks, points, k):
    assert len(searches) == 5
    for centroids, labels, best in searches:
        ref_labels, ref_best = reference_nearest(points, centroids)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(bits(best), bits(ref_best))
    # each rechecked row computes its distances to its candidates only,
    # where a recheck against every centroid would compute rows * k
    rows = sum(r for r, _ in rechecks)
    computed = sum(c for _, c in rechecks)
    assert rows > 0 and 2 * computed < rows * k


def rounded_ladder_hours(tmp_path, patients):
    """Training states of a seed-3 horizon-72 ladder cohort, as the
    pipeline's ingest writes them, rounded to one decimal."""
    csv_text, _ = synthgen.generate(
        synthgen.ladder_config(patients, seed=3, horizon_hours=72))
    (tmp_path / "cohort.csv").write_text(csv_text)
    pipeline.run_stage("ingest", PipelineConfig(), str(tmp_path / "cohort.csv"),
                       str(tmp_path))
    rows = np.load(tmp_path / pipeline.HOURS_FILE)
    return np.round(rows["state"][rows["split"] == 0], 1)


def test_recheck_on_rounded_ladder_hours(monkeypatch, tmp_path):
    # the paper-scale workload's states at a tenth of its patients: k = 500
    # centroids on about a hundred distinct rows, so seeding and reseeding
    # leave equal centroids, every point nearest to them is an exact tie,
    # and lattice points tie with other centroids too
    points = rounded_ladder_hours(tmp_path, 600)
    assert len(np.unique(points, axis=0)) < 500 < len(points)
    assert_exact_and_narrow(*recorded_fit(monkeypatch, points, 500), points,
                            500)


@pytest.mark.parametrize("dim", [1, 3, 15])
def test_recheck_when_k_exceeds_the_distinct_rows(monkeypatch, dim):
    rng = np.random.default_rng(70 + dim)
    distinct = rng.integers(0, 4, size=(30, dim)) / 10.0  # lattice ties
    points = distinct[rng.integers(30, size=600)]
    k = 50
    assert len(np.unique(points, axis=0)) < k
    assert_exact_and_narrow(*recorded_fit(monkeypatch, points, k), points, k)


@pytest.mark.parametrize("k,dim", [(5, 15), (500, 15), (5, 32), (500, 32)],
                         ids=["5", "500", "5-dim32", "500-dim32"])
def test_fit_scratch_is_one_block_plus_vectors(k, dim):
    """The memory a fit allocates, traced: the search's block scratch, the
    two (rows, dim) temporaries of a block's explicit distances, the
    boolean (n, dim) finiteness mask and about a dozen (n,) vectors,
    whatever k.  A distance block per call, an (n, dim) scatter index in
    the update, or an (n, dim) float temporary in seeding goes over."""
    n = 20000
    points = np.random.default_rng(8).normal(size=(n, dim))
    rows = min(cluster._BLOCK_ELEMENTS // k, cluster._BLOCK_ROWS)
    block = rows * (k + dim + 2) + (dim + 1) * k
    allowed = 8 * (block + 2 * rows * dim + 12 * n) + n * dim
    tracemalloc.start()
    try:
        kmeans_fit(points, k, seed=3, max_iters=3, tol=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= allowed


@pytest.mark.parametrize("dim", [2, 3, 15, 32])
def test_fit_matches_reference_lloyd_bitwise(dim):
    rng = np.random.default_rng(dim)
    points = np.vstack([rng.normal(c, 0.3, size=(80, dim)) for c in range(6)])
    points[:, 0] = -0.0  # an all -0.0 column still averages to +0.0
    points[5:15] = points[0]  # duplicates make empty clusters likely
    for seed in range(3):
        model = kmeans_fit(points, k=25, seed=seed, max_iters=6, tol=0.0)
        centroids, labels, history = reference_fit(points, 25, seed, 6)
        assert np.array_equal(bits(model.centroids), bits(centroids))
        assert np.array_equal(model.labels, labels)
        assert model.inertia_history == history


def test_fit_in_one_dimension_matches_reference_to_rounding():
    # numpy sums a single column pairwise, the update sums it in row order
    rng = np.random.default_rng(9)
    points = rng.normal(size=(500, 1))
    model = kmeans_fit(points, k=12, seed=1, max_iters=4, tol=0.0)
    centroids, labels, _ = reference_fit(points, 12, 1, 4)
    np.testing.assert_allclose(model.centroids, centroids, rtol=1e-12, atol=0)
    assert np.array_equal(model.labels, labels)


def check_seeding(points, k, seed):
    """The pruned seeding against reference_seed plus reference_nearest."""
    seeds, owner, d2 = cluster._seed_plus_plus(points, k,
                                               np.random.default_rng(seed))
    ref = reference_seed(points, k, np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        ref_owner, ref_d2 = reference_nearest(points, ref)
    assert np.array_equal(bits(seeds), bits(ref))
    assert np.array_equal(owner, ref_owner)
    assert np.array_equal(bits(d2), bits(ref_d2))


def _seeding_draw(n):
    p, cdf = np.empty(n), np.empty(n)
    return lambda d2, total, rng: cluster._choice(d2, total, rng, p, cdf)


def _generator_draw(n):
    return lambda d2, total, rng: bisect.bisect_right(
        synthgen._cdf(d2 / total), rng.random())


@pytest.mark.parametrize("draw", [_seeding_draw, _generator_draw],
                         ids=["kmeans_seeding", "synthgen"])
@pytest.mark.parametrize("kind", ["spread", "zero_heavy", "tiny", "single"])
def test_choice_draws_what_generator_choice_draws(kind, draw):
    """The seeding's draw, and the cohort generator's, picks
    Generator.choice's index and leaves the generator in the same state,
    draw after draw, as the weights change."""
    rng = np.random.default_rng(41)
    n = 1 if kind == "single" else 257
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    draw = draw(n)
    for _ in range(400):
        d2 = rng.exponential(size=n) ** 3
        if kind == "zero_heavy":
            d2[rng.random(n) < 0.97] = 0.0
            d2[rng.integers(n)] = rng.random() + 1e-3
        elif kind == "tiny":
            d2 *= 1e-300
        total = d2.sum()
        assert draw(d2, total, ours) == theirs.choice(n, p=d2 / total)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("dim", [1, 2, 3, 15, 32])
def test_seeding_matches_reference_bitwise(dim):
    rng = np.random.default_rng(300 + dim)
    points = np.vstack([rng.normal(c, 0.2, size=(60, dim)) for c in range(5)])
    points[10:20] = points[3]  # duplicate rows
    points = points * rng.uniform(0.1, 10.0, size=dim)
    for seed in range(3):
        check_seeding(points, 40, seed)
    check_seeding(points[:50], 50, 7)  # k = n


def test_seeding_on_duplicates_matches_reference():
    # every seed after the first draws from zero mass: the total <= 0 branch
    check_seeding(np.full((9, 3), 2.5), 6, 1)
    # mass runs out once the three distinct rows are seeds
    points = np.repeat(np.array([[0.0, 1.0], [4.0, -2.0], [1e-3, 7.0]]), 4,
                       axis=0)
    for seed in range(4):
        check_seeding(points, 8, seed)


@pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
@pytest.mark.parametrize("dim", [1, 3, 15])
def test_seeding_exact_on_offset_ties(offset, dim):
    rng = np.random.default_rng(int(offset) % 89 + dim)
    points, centroids = offset_ties(rng, offset, 300, 24, dim)
    for seed in range(2):
        check_seeding(np.vstack([points, centroids]), 30, seed)


def test_seeding_exact_when_squares_overflow():
    # the two outer rows are an infinite squared distance apart, each a
    # finite one from the middle rows; a first seed on an outer row makes
    # the total infinite: the reference then fails inside rng.choice on NaN
    # probabilities, and the fit must fail there too and say why
    a = 5e153
    points = np.array([[0.0, 0.0]] * 5 + [[a, a], [-a, -a], [0.0, 1e-160]])
    finished = 0
    for seed in range(12):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                reference_seed(points, 4, np.random.default_rng(seed))
        except ValueError:
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match="^squared distances between the points "
                                      "overflow float64$"):
                kmeans_fit(points, 4, seed=seed)
            continue
        with np.errstate(over="ignore"):
            check_seeding(points, 4, seed)
        finished += 1
    assert 0 < finished < 12


def test_single_cluster_fit_refuses_overflowing_squares():
    # with k = 1 there is no second draw: the first seed's distances alone
    # decide, and an infinite total must fail as it does for k > 1
    a = 5e153
    points = np.array([[0.0, 0.0]] * 5 + [[a, a], [-a, -a], [0.0, 1e-160]])
    refused = 0
    for seed in range(12):
        first = points[np.random.default_rng(seed).integers(len(points))]
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(((points - first) ** 2).sum())
            if overflows:
                with pytest.raises(ValueError, match="overflow float64$"):
                    kmeans_fit(points, 1, seed=seed)
                refused += 1
            else:
                model = kmeans_fit(points, 1, seed=seed)
                assert np.all(np.isfinite(model.inertia_history))
    assert 0 < refused < 12


def tight_triples(rng, triples, dim, scale):
    """Rows a, x and c = a + 2v with x past a + v toward c by about one
    rounding step of the squared distances, picked so that c - a reads more
    than twice x - a and yet x reads nearer to c than to a: the bare test
    ||c - a||^2 > 4 ||x - a||^2 would wrongly keep x with a once c is a
    seed."""
    found = []
    while len(found) < triples:
        a, v = rng.normal(size=(2, dim)) * scale
        step = np.spacing((v ** 2).sum()) / (v ** 2).sum()
        t = np.array([0.0, 1.0 + step * rng.uniform(0, 2), 2.0])
        rows = a + t[:, None] * v
        a, x, c = rows
        d2 = ((x - a) ** 2).sum()
        if ((c - a) ** 2).sum() > 4 * d2 and ((x - c) ** 2).sum() < d2:
            found.append(rows)
    return found


# at 2^-532 the squared distances are subnormal
@pytest.mark.parametrize("scale", [1.0, 2.0 ** -532])
@pytest.mark.parametrize("dim", [2, 3, 15])
def test_seeding_exact_where_the_bound_is_tight(dim, scale):
    # in every order of the rows, some draws seed a and then c
    for rows in tight_triples(np.random.default_rng(dim), 6, dim, scale):
        for order in itertools.permutations(range(3)):
            for seed in range(3):
                check_seeding(rows[list(order)], 2, seed)


@st.composite
def point_sets(draw):
    """A few distinct rows, each at a drawn magnitude, repeated in any order."""
    dim = draw(st.integers(1, 6))
    scales = [10.0 ** e for e in draw(st.lists(st.integers(-150, 150),
                                               min_size=1, max_size=3))]
    coords = st.one_of(st.integers(-4, 4).map(float),
                       st.floats(-4.0, 4.0, allow_nan=False))
    rows = [[draw(st.sampled_from(scales)) * draw(coords) for _ in range(dim)]
            for _ in range(draw(st.integers(1, 8)))]
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                          max_size=24))
    return np.array([rows[i] for i in picks], dtype=float)


@settings(max_examples=300)
@given(points=point_sets(), data=st.data())
def test_pruned_seeding_equals_reference_on_any_scale(points, data):
    k = data.draw(st.integers(1, len(points)))
    check_seeding(points, k, data.draw(st.integers(0, 2 ** 32 - 1)))


@pytest.mark.parametrize("max_iters", [0, 1, 2])
def test_fit_takes_round_one_from_the_seeding(max_iters):
    rng = np.random.default_rng(61)
    points = rng.normal(size=(300, 4))
    model = kmeans_fit(points, k=20, seed=5, max_iters=max_iters, tol=0.0)
    centroids, labels, history = reference_fit(points, 20, 5, max_iters)
    assert np.array_equal(bits(model.centroids), bits(centroids))
    assert np.array_equal(model.labels, labels)
    assert model.inertia_history == history
