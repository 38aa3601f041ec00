"""The columnar trajectories against the object-per-step reference in
trajectory_oracle.

Small random cohorts, with patients that have no glucose, leading missing
glucose and empty test splits, must give the reference's trajectory text,
model arrays, calibration samples, visitation and mortality, bit for bit,
and the reference's errors.
"""

from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

import trajectory_oracle as oracle
from glyrl import calib, mdp
from glyrl.errors import GlyrlError
from glyrl.mdp import ActionSpace

SPACE = ActionSpace()
NAN = float("nan")
# missing values, values on bin edges and either side of them
GLUCOSE = [NAN, NAN, 30.0, 59.9, 60.0, 80.0, 139.99, 140.0, 300.0, 451.5]
BAD_GLUCOSE = GLUCOSE + [0.0, -3.0, float("inf")]


@st.composite
def splits(draw, glucose=GLUCOSE):
    """k and the (labels, glucose, survived) of each train and test patient."""
    k = draw(st.integers(1, 4))

    def patient():
        n = draw(st.integers(1, 6))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        values = draw(st.lists(st.sampled_from(glucose), min_size=n, max_size=n))
        return labels, values, draw(st.booleans())

    train = [patient() for _ in range(draw(st.integers(0, 7)))]
    test = [patient() for _ in range(draw(st.integers(0, 4)))]
    return k, train, test


def columns(patients, offset=0):
    """ids, bounds, labels, glucose and survived, as build-mdp holds them."""
    ids = np.array(["p%d" % (offset + i) for i in range(len(patients))], dtype=str)
    bounds = np.concatenate(([0], np.cumsum([len(p[0]) for p in patients])))
    labels = np.array([s for p in patients for s in p[0]], dtype=np.int64)
    glucose = np.array([g for p in patients for g in p[1]], dtype=float)
    survived = np.array([p[2] for p in patients], dtype=bool)
    return ids, bounds.astype(np.int64), labels, glucose, survived


def outcome(fn, *args, **kwargs):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, GlyrlError) as exc:
        return type(exc), str(exc)


def same_bits(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def both_paths(patients, k, offset=0):
    cols = columns(patients, offset)
    return (outcome(mdp.build_trajectories, *cols, SPACE, k),
            outcome(oracle.build_trajectories, oracle.assigned(*cols), SPACE, k))


@given(splits(), st.integers(1, 3), st.data())
def test_columns_match_the_object_path(drawn, min_count, data):
    k, train, test = drawn
    chunk = data.draw(st.sampled_from([1, 3, 40, mdp.CHUNK_CHARS]))
    new, old = {}, {}
    for split, patients, offset in (("train", train, 0),
                                    ("test", test, len(train))):
        new[split], old[split] = both_paths(patients, k, offset)
        # rows formatted and lines parsed a few at a time, or all at once
        with mock.patch.object(mdp, "CHUNK_ROWS", chunk), \
                mock.patch.object(mdp, "CHUNK_CHARS", chunk):
            text = mdp.write_trajectories(new[split])
            back = mdp.read_trajectories(text)
        assert text == oracle.write_trajectories(old[split])
        assert back.patient_ids.tolist() == new[split].patient_ids.tolist()
        for name in ("bounds", "state", "action", "next_state"):
            assert same_bits(getattr(back, name), getattr(new[split], name)), name
        assert [(t.patient_id, t.steps) for t in oracle.read_trajectories(text)] \
            == [(t.patient_id, t.steps) for t in old[split]]

    model = outcome(mdp.estimate_mdp, new["train"], k, min_count=min_count)
    reference = outcome(oracle.estimate_mdp, old["train"], k, min_count=min_count)
    if isinstance(reference, tuple):
        assert model == reference
    else:
        for name in ("trans_s", "trans_a", "trans_sp", "trans_count", "trans_p",
                     "available", "action_counts"):
            assert same_bits(getattr(model, name), getattr(reference, name)), name
        assert model.fallback_states == reference.fallback_states

    values = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=k, max_size=k))
    for split in ("train", "test"):
        for got, want in zip(calib.collect_samples(values, new[split]),
                             oracle.collect_samples(values, old[split])):
            assert same_bits(got, want)
        assert same_bits(outcome(calib.visitation_from_trajectories, new[split], k),
                         outcome(oracle.visitation_from_trajectories, old[split], k))
        got = outcome(calib.empirical_mortality, new[split], k)
        want = outcome(oracle.empirical_mortality, old[split], k)
        assert got == want and type(got) is type(want)


@given(splits(glucose=BAD_GLUCOSE))
def test_bad_glucose_raises_the_object_paths_error(drawn):
    k, train, _ = drawn
    new, old = both_paths(train, k)
    if isinstance(old, list):
        assert mdp.write_trajectories(new) == oracle.write_trajectories(old)
    else:
        assert new == old
