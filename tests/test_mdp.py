"""Glucose discretization, trajectory building, MDP estimation, and the
text table codec."""

import csv
import dataclasses
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trajectory_oracle as oracle
from glyrl import mdp as mdp_module
from glyrl.errors import IntegrityError
from glyrl.mdp import (
    ActionSpace,
    DEFAULT_BIN_EDGES,
    MDPModel,
    build_trajectories,
    discretize_glucose,
    estimate_mdp,
    extract_real_policy,
    load_mdp,
    read_trajectories,
    save_mdp,
    write_trajectories,
)

SPACE = ActionSpace()


def test_default_bins_cover_eleven_actions():
    assert SPACE.n_actions == 11
    assert SPACE.bin_edges == DEFAULT_BIN_EDGES


def test_discretize_hand_values():
    assert discretize_glucose(75.0, SPACE) == 1
    assert discretize_glucose(500.0, SPACE) == 10
    assert discretize_glucose(30.0, SPACE) == 0
    assert discretize_glucose(119.9, SPACE) == 3


def test_discretize_edge_goes_to_higher_bin():
    for i, edge in enumerate(SPACE.bin_edges):
        assert discretize_glucose(edge, SPACE) == i + 1


def test_discretize_partitions_positive_line():
    rng = np.random.default_rng(0)
    for g in rng.uniform(0.5, 600.0, size=200):
        b = discretize_glucose(g, SPACE)
        assert 0 <= b <= 10
        lo = 0.0 if b == 0 else SPACE.bin_edges[b - 1]
        hi = np.inf if b == 10 else SPACE.bin_edges[b]
        assert lo <= g < hi


def test_discretize_rejects_bad_values():
    for bad in (0.0, -5.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            discretize_glucose(bad, SPACE)


def test_action_space_validation():
    with pytest.raises(ValueError):
        ActionSpace((100.0, 100.0))
    with pytest.raises(ValueError):
        ActionSpace((100.0, 50.0))
    with pytest.raises(ValueError):
        ActionSpace((-1.0, 50.0))
    with pytest.raises(ValueError):
        ActionSpace(())


def build(series, k):
    """build_trajectories over (id, states, glucose or None, survived) per
    patient, as (id, steps) per kept patient."""
    ids, states, glucose, survived = zip(*series)
    trajs = build_trajectories(
        np.array(ids), np.cumsum([0] + [len(s) for s in states]),
        np.array([s for patient in states for s in patient], dtype=np.int64),
        np.array([np.nan if g is None else g
                  for patient in glucose for g in patient]),
        np.array(survived), SPACE, k)
    return oracle.steps(trajs)


def test_trajectory_three_hour_survivor():
    trajs = build([("p1", [2, 4, 4], [70.0, 110.0, 150.0], True)], 6)
    assert trajs == [("p1", [(2, 1, 4), (4, 3, 4), (4, 5, 6)])]  # SURVIVE = 6


def test_trajectory_death_terminal():
    trajs = build([("p2", [0, 1], [90.0, 90.0], False)], 6)
    assert trajs[0][1][-1] == (1, 2, 7)  # DEATH = 7


def test_trajectory_carry_forward_missing_glucose():
    trajs = build([("p3", [0, 1, 2], [70.0, None, 150.0], True)], 5)
    actions = [a for _, a, _ in trajs[0][1]]
    assert actions == [1, 1, 5]


def test_trajectory_leading_missing_borrows_first_observation():
    trajs = build([("p4", [0, 1, 2], [None, None, 130.0], True)], 5)
    actions = [a for _, a, _ in trajs[0][1]]
    assert actions == [4, 4, 4]


def test_trajectory_no_glucose_at_all_excluded(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="glyrl.mdp"):
        trajs = build([("p5", [0, 1], [None, None], True),
                       ("p6", [0], [100.0], True)], 5)
    assert [pid for pid, _ in trajs] == ["p6"]
    assert "p5" in caplog.text


def test_trajectory_contiguity_invariant():
    steps = build([("p7", [3, 1, 4, 1], [100.0] * 4, False)], 5)[0][1]
    for (s, a, sp), (s2, _, _) in zip(steps, steps[1:]):
        assert sp == s2


def test_trajectory_bad_glucose_names_patient():
    with pytest.raises(IntegrityError) as err:
        build([("p7", [0], [100.0], True), ("p8", [0], [-3.0], True)], 3)
    assert "p8" in str(err.value)


def reference_actions(glucose):
    """The per-hour scalar loop that build_trajectories replaced."""
    actions, last = [], None
    for g in glucose:
        if g is not None:
            last = discretize_glucose(g, SPACE)
        actions.append(last)
    first = next(a for a in actions if a is not None)
    return [first if a is None else a for a in actions]


def test_trajectory_actions_match_per_hour_reference():
    rng = np.random.default_rng(21)
    edges = list(SPACE.bin_edges)
    assigned, expected = [], []
    for p in range(300):
        n = int(rng.integers(1, 12))
        glucose = []
        for _ in range(n):
            u = rng.random()
            glucose.append(None if u < 0.4 else
                           float(rng.choice(edges)) if u < 0.6 else
                           float(rng.uniform(1.0, 450.0)))
        states = rng.integers(0, 7, size=n).tolist()
        alive = bool(rng.random() < 0.5)
        assigned.append(("p%d" % p, states, glucose, alive))
        if any(g is not None for g in glucose):
            actions = reference_actions(glucose)
            nxt = states[1:] + [7 if alive else 8]
            expected.append(("p%d" % p, list(zip(states, actions, nxt))))
    assert build(assigned, 7) == expected


def test_trajectory_first_bad_glucose_in_time_order_is_reported():
    for bad in (np.inf, 0.0):
        with pytest.raises(IntegrityError) as err:
            build([("p9", [0, 1, 2], [None, bad, -3.0], True)], 3)
        assert "p9" in str(err.value)
        assert repr(bad) in str(err.value)


def single_step_mdp(min_count=1):
    trajs = oracle.trajectories([[(0, 3, 1)]])  # SURVIVE for k=1
    return estimate_mdp(trajs, k=1, min_count=min_count, gamma=0.9)


def test_estimate_rejects_steps_outside_the_model():
    for steps, message in (
            ([(0, 3, 1), (1, 0, 2)], "^patient p1 steps from state 1 to 2"),
            ([(0, 3, 1), (0, 0, 3)], "^patient p1 steps from state 0 to 3"),
            ([(0, 3, 1), (0, 11, 1)], None)):  # action outside the 11 bins
        trajs = oracle.trajectories([steps[:1], steps[1:]])
        with pytest.raises(ValueError, match=message):
            estimate_mdp(trajs, k=1)


def test_estimate_single_observation():
    mdp = single_step_mdp()
    assert mdp.available[0, 3]
    idx = np.flatnonzero((mdp.trans_s == 0) & (mdp.trans_a == 3))
    assert len(idx) == 1
    assert mdp.trans_sp[idx[0]] == 1
    assert mdp.trans_p[idx[0]] == 1.0
    assert mdp.pair_reward.tolist() == [100.0]  # into SURVIVE


def test_estimate_even_split_probabilities():
    trajs = [[(0, 3, 1), (1, 0, 3)], [(0, 3, 2), (2, 0, 3)]]
    mdp = estimate_mdp(oracle.trajectories(trajs), k=3, min_count=1, gamma=0.9)
    for target in (1, 2):
        idx = np.flatnonzero((mdp.trans_s == 0) & (mdp.trans_a == 3)
                             & (mdp.trans_sp == target))
        assert mdp.trans_p[idx[0]] == 0.5


def test_estimate_row_stochastic():
    rng = np.random.default_rng(14)
    trajs = []
    for p in range(30):
        steps = []
        s = int(rng.integers(4))
        for _ in range(int(rng.integers(1, 8))):
            a = int(rng.integers(11))
            sp = int(rng.integers(4))
            steps.append((s, a, sp))
            s = sp
        steps.append((s, int(rng.integers(11)), 4 if rng.random() < 0.5 else 5))
        trajs.append(steps)
    mdp = estimate_mdp(oracle.trajectories(trajs), k=4, min_count=1)
    mdp.validate()
    for s in range(4):
        for a in range(11):
            if mdp.available[s, a] and s not in mdp.fallback_states:
                mask = (mdp.trans_s == s) & (mdp.trans_a == a)
                assert abs(mdp.trans_p[mask].sum() - 1.0) <= 1e-9


def reference_validate_error(mdp):
    """The message of the per-pair loop that MDPModel.validate replaced."""
    for s, a in zip(*np.nonzero(mdp.available)):
        if int(s) in mdp.fallback_states:
            continue
        total = float(mdp.trans_p[(mdp.trans_s == s) & (mdp.trans_a == a)].sum())
        if abs(total - 1.0) > 1e-9:
            return "P(%d, %d, .) sums to %r" % (s, a, total)
    return None


def test_validate_reports_the_first_failing_pair_like_the_per_pair_loop():
    rng = np.random.default_rng(15)
    failures = 0
    for trial in range(40):
        trajs = []
        for p in range(40):
            steps, s = [], int(rng.integers(5))
            for _ in range(int(rng.integers(1, 10))):
                sp = int(rng.integers(5))
                steps.append((s, int(rng.integers(4)), sp))
                s = sp
            steps.append((s, int(rng.integers(4)), 5 + int(rng.random() < 0.4)))
            trajs.append(steps)
        mdp = estimate_mdp(oracle.trajectories(trajs), k=5,
                           min_count=int(rng.integers(1, 6)))
        assert reference_validate_error(mdp) is None
        picks = rng.choice(len(mdp.trans_p), size=int(rng.integers(1, 4)),
                           replace=False)
        mdp.trans_p[picks] *= 1.0 + rng.choice([1e-11, -1e-11, 1e-8, -0.5])
        expected = reference_validate_error(mdp)
        if expected is None:
            mdp.validate()
        else:
            failures += 1
            with pytest.raises(ValueError) as err:
                mdp.validate()
            assert str(err.value) == expected
    assert failures >= 10


def test_validate_rejects_actions_outside_the_action_space():
    mdp = single_step_mdp()
    mdp.trans_a[0] = SPACE.n_actions
    with pytest.raises(ValueError, match="action"):
        mdp.validate()


def made_like(mdp, **changes):
    """A new model from the constructor arguments of ``mdp``, with
    ``changes``."""
    args = {f.name: getattr(mdp, f.name)
            for f in dataclasses.fields(mdp) if f.init}
    args.update(changes)
    return MDPModel(**args)


@pytest.mark.parametrize("field,value,message", [
    ("trans_sp", 3, "target outside state space"),  # k + 2 for k = 1
    ("trans_sp", -1, "target outside state space"),
    ("trans_s", 1, "source outside cluster states"),
    ("trans_a", 11, "action outside action space"),
])
def test_a_triplet_outside_the_model_is_refused_when_it_is_made(
        field, value, message):
    with pytest.raises(ValueError, match=message):
        made_like(single_step_mdp(), **{field: np.array([value])})


@pytest.mark.parametrize("gamma", [1.0, -0.5, float("nan"), "0.9", None,
                                   True, [0.9]])
def test_gamma_that_is_not_a_number_in_the_unit_interval_is_refused(gamma):
    with pytest.raises(ValueError, match=r"gamma must be a number in \[0, 1\)"):
        made_like(single_step_mdp(), gamma=gamma)


def test_an_int_gamma_reads_back_as_written():
    mdp = made_like(single_step_mdp(), gamma=0)
    back = load_mdp(save_mdp(mdp))
    assert type(back.gamma) is int and back.gamma == 0


def test_estimate_count_conservation_min_count_one():
    trajs = [[(0, 1, 1), (1, 2, 2)], [(0, 1, 1), (1, 5, 3)]]
    mdp = estimate_mdp(oracle.trajectories(trajs), k=2, min_count=1)
    total_steps = sum(map(len, trajs))
    assert int(mdp.trans_count.sum()) == total_steps


def test_estimate_min_count_removes_action():
    trajs = [[(0, 2, 1)] * 3 + [(0, 7, 1)] * 5]
    mdp = estimate_mdp(oracle.trajectories(trajs), k=1, min_count=5)
    assert not mdp.available[0, 2]
    assert mdp.available[0, 7]
    # removed action has zero probability mass
    mask = (mdp.trans_s == 0) & (mdp.trans_a == 2)
    assert np.all(mdp.trans_p[mask] == 0.0)


def test_estimate_fallback_state_flagged():
    trajs = [[(0, 2, 1)] * 2]  # state 1 = SURVIVE for k=1? no: k=2
    mdp = estimate_mdp(oracle.trajectories(trajs), k=2, min_count=5)
    # state 0 has too few counts, state 1 has none: both fall back
    assert mdp.fallback_states == frozenset({0, 1})
    assert mdp.available[0, 0] and mdp.available[1, 0]


def test_estimate_deterministic_rebuild():
    rng = np.random.default_rng(3)
    trajs = []
    for p in range(12):
        steps = [(int(rng.integers(3)), int(rng.integers(11)), int(rng.integers(3)))
                 for _ in range(5)]
        steps.append((steps[-1][2], 0, 3))
        # repair contiguity
        fixed = []
        s = steps[0][0]
        for _, a, sp in steps:
            fixed.append((s, a, sp))
            s = sp
        trajs.append(fixed)
    a = estimate_mdp(oracle.trajectories(trajs), k=3, min_count=2)
    b = estimate_mdp(oracle.trajectories(list(trajs)), k=3, min_count=2)
    assert np.array_equal(a.trans_s, b.trans_s)
    assert np.array_equal(a.trans_count, b.trans_count)
    assert np.array_equal(a.trans_p, b.trans_p)


def flip_outcomes(trajs, k):
    flipped = []
    for t in trajs:
        steps = []
        for s, a, sp in t:
            if sp == k:
                sp = k + 1
            elif sp == k + 1:
                sp = k
            steps.append((s, a, sp))
        flipped.append(steps)
    return flipped


def test_reward_antisymmetry_under_outcome_flip():
    rng = np.random.default_rng(77)
    trajs = []
    for p in range(20):
        s = int(rng.integers(3))
        steps = []
        for _ in range(int(rng.integers(1, 6))):
            sp = int(rng.integers(3))
            steps.append((s, int(rng.integers(11)), sp))
            s = sp
        steps.append((s, int(rng.integers(11)), 3 if rng.random() < 0.6 else 4))
        trajs.append(steps)
    mdp_a = estimate_mdp(oracle.trajectories(trajs), k=3, min_count=1)
    mdp_b = estimate_mdp(oracle.trajectories(flip_outcomes(trajs, 3)), k=3,
                         min_count=1)

    def terminal_counts(m, terminal):
        mask = m.trans_sp == terminal
        return sorted(zip(m.trans_s[mask].tolist(), m.trans_a[mask].tolist(),
                          m.trans_count[mask].tolist()))

    assert terminal_counts(mdp_a, 3) == terminal_counts(mdp_b, 4)
    assert terminal_counts(mdp_a, 4) == terminal_counts(mdp_b, 3)


def test_real_policy_argmax_and_ties():
    trajs = [[(0, 2, 1)] * 10 + [(0, 7, 1)] * 3
             + [(1, 1, 2)] * 5 + [(1, 4, 2)] * 5]
    mdp = estimate_mdp(oracle.trajectories(trajs), k=3, min_count=1)
    policy = extract_real_policy(mdp)
    assert policy[0] == 2  # 10 vs 3
    assert policy[1] == 1  # 5 vs 5, tie -> lowest
    assert policy[2] == 0  # unseen source state -> fallback


def test_real_policy_single_action_everywhere():
    trajs = [[(0, 6, 1), (1, 3, 2)]]
    mdp = estimate_mdp(oracle.trajectories(trajs), k=2, min_count=1)
    policy = extract_real_policy(mdp)
    assert policy[0] == 6 and policy[1] == 3


def test_real_policy_lands_in_available_set():
    rng = np.random.default_rng(5)
    trajs = []
    for p in range(40):
        s = int(rng.integers(5))
        steps = []
        for _ in range(int(rng.integers(2, 9))):
            sp = int(rng.integers(5))
            steps.append((s, int(rng.integers(4)), sp))
            s = sp
        steps.append((s, int(rng.integers(4)), 5))
        trajs.append(steps)
    mdp = estimate_mdp(oracle.trajectories(trajs), k=5, min_count=5)
    policy = extract_real_policy(mdp)
    for s in range(5):
        assert mdp.available[s, policy[s]]


def test_trajectory_round_trip():
    trajs = oracle.trajectories([[(0, 1, 1), (1, 1, 4)],
                                 [(1, 0, 1), (1, 2, 2), (2, 10, 5)]])
    back = read_trajectories(write_trajectories(trajs))
    assert oracle.steps(back) == oracle.steps(trajs)


@pytest.mark.parametrize("text,message", [
    ("patient_id,step_index,state\n", "not a trajectory file"),
    ("", "not a trajectory file"),
    (oracle.TRAJECTORY_COLUMNS + "\np1,0,0,1\n", "line 2 has 4 fields"),
    (oracle.TRAJECTORY_COLUMNS + "\np1,0,0,1,1\n\n", "line 3 has 1 fields"),
    (oracle.TRAJECTORY_COLUMNS + "\np1,0,0,1,1\np1,2,1,1,4\n",
     "non-contiguous steps for patient p1"),
    (oracle.TRAJECTORY_COLUMNS + "\np1,0,0,1,1\np2,1,1,1,4\n",
     "non-contiguous steps for patient p2"),
    (oracle.TRAJECTORY_COLUMNS + "\np1,0,zero,1,1\n", "invalid literal"),
])
def test_read_trajectories_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        read_trajectories(text)


def test_mdp_save_load_round_trip():
    rng = np.random.default_rng(9)
    trajs = []
    for p in range(25):
        s = int(rng.integers(4))
        steps = []
        for _ in range(int(rng.integers(1, 7))):
            sp = int(rng.integers(4))
            steps.append((s, int(rng.integers(11)), sp))
            s = sp
        steps.append((s, int(rng.integers(11)), 4 if rng.random() < 0.7 else 5))
        trajs.append(steps)
    mdp = estimate_mdp(oracle.trajectories(trajs), k=4, min_count=2)
    text = save_mdp(mdp)
    loaded = load_mdp(text)
    assert loaded.k == 4
    assert loaded.gamma == mdp.gamma
    assert loaded.min_count == 2
    assert loaded.action_space.bin_edges == mdp.action_space.bin_edges
    assert np.array_equal(mdp.trans_s, loaded.trans_s)
    assert np.array_equal(mdp.trans_a, loaded.trans_a)
    assert np.array_equal(mdp.trans_sp, loaded.trans_sp)
    assert np.array_equal(mdp.trans_count, loaded.trans_count)
    assert np.array_equal(mdp.trans_p, loaded.trans_p)
    assert mdp.fallback_states == loaded.fallback_states
    # saving again is byte-identical
    assert save_mdp(loaded) == text


def test_mdp_load_rejects_corruption():
    lines = save_mdp(single_step_mdp()).splitlines()

    tampered = "\n".join(lines).replace(",1.0", ",0.25") + "\n"
    with pytest.raises(ValueError, match="disagree with counts"):
        load_mdp(tampered)

    with pytest.raises(ValueError, match="not a glyrl-mdp file"):
        load_mdp("patient_id,hour\n")

    truncated = lines[0] + "\n" + lines[1] + "\n"
    with pytest.raises(ValueError, match="declares 1 rows but has 0"):
        load_mdp(truncated)

    # NaN compares false both ways, so it must fail a test it has to pass
    nan_p = "\n".join(lines).replace(",1.0", ",nan") + "\n"
    with pytest.raises(ValueError, match="disagree with counts"):
        load_mdp(nan_p)

    # a header value int() or float() would coerce to the one written
    header = json.loads(lines[0])
    edges = header["bin_edges"]
    for key, value, message in [
            ("k", 1.0, "header k is 1.0, not an integer"),
            ("k", True, "header k is True, not an integer"),
            ("n_states", 3.0, "header n_states is 3.0, not an integer"),
            ("n_rows", 1.0, "header n_rows is 1.0, not an integer"),
            ("min_count", 1.5, "header min_count is 1.5, not an integer"),
            ("min_count", "1", "header min_count is '1', not an integer"),
            ("bin_edges", [True] + edges[1:], "header bin_edges is [True, "),
            ("bin_edges", [str(edges[0])] + edges[1:],
             "header bin_edges is ['%r', " % edges[0])]:
        text = "\n".join([json.dumps(dict(header, **{key: value}))]
                         + lines[1:]) + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_mdp(text)

    # rows the counts cannot come from; the single row is 0,3,1,1,1.0
    for rows, fields, message in [
            (lines[2:], {"n_states": 4}, "inconsistent n_states"),
            ([], {"n_rows": 0}, "no transitions"),
            (["0,3,1,0,1.0"], {}, "non-positive count"),
            (["0,3,3,1,1.0"], {}, "triplet indices out of range"),
            (["0,11,1,1,1.0"], {}, "triplet indices out of range"),
            (lines[2:] * 2, {"n_rows": 2}, "duplicate triplet rows")]:
        text = "\n".join([json.dumps(dict(header, **fields)), lines[1]]
                         + rows) + "\n"
        with pytest.raises(ValueError, match="^%s$" % message):
            load_mdp(text)


# ids as the codec can carry them: no comma or line feed, and no NUL, which
# numpy strings drop at the end
CODEC_IDS = st.text(st.characters(blacklist_characters=",\n\0",
                                  blacklist_categories=("Cs",)), max_size=6)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308])
CHUNKS = st.integers(1, 50) | st.just(mdp_module.CHUNK_CHARS)


@given(st.lists(st.tuples(CODEC_IDS, INT64, FLOATS), max_size=30),
       CHUNKS, CHUNKS, st.booleans())
def test_table_codec_round_trips_bitwise(rows, chunk_rows, chunk_chars, headed):
    ids, ints, floats = zip(*rows) if rows else ((), (), ())
    cols = (np.array(ids, dtype=str), np.array(ints, dtype=np.int64),
            np.array(floats, dtype=float))
    header = {"format": "f", "version": 2, "n": len(rows)} if headed else None
    with mock.patch.object(mdp_module, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(mdp_module, "CHUNK_CHARS", chunk_chars):
        text = mdp_module.write_table("id,n,x", "%s,%d,%r\n", cols, header)
        read_header, back = mdp_module.read_table(
            text, "f", "id,n,x", (str, int, float), 2 if headed else None)
        again = mdp_module.write_table("id,n,x", "%s,%d,%r\n", back,
                                       read_header)
    assert read_header == header
    assert back[0].tolist() == list(ids)
    for got, want in zip(back[1:], cols[1:]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert again == text


@given(st.text(st.characters(blacklist_characters=',"\r\n\0',
                             blacklist_categories=("Cs",)), min_size=1),
       INT64, INT64)
def test_rows_of_accepted_ids_are_what_csv_writer_wrote(pid, hour, state):
    # assignments.csv was written by csv.writer; for every id ingest accepts,
    # the codec's template writes the same bytes
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([pid, hour, state])
    assert buf.getvalue() == "%s,%d,%d\n" % (pid, hour, state)


@pytest.mark.parametrize("text,message", [
    ("n,x\n1,2.0,4\n", "line 2 has 3 fields, expected 2"),
    ('{"format": "f", "version": 1}\nn,x\n1,2.0\n1\n',
     "line 4 has 1 fields, expected 2"),
    ("n,x\n1,two\n", "could not convert string to float"),
])
def test_read_table_rejects_malformed_text(text, message):
    version = 1 if text.startswith("{") else None
    with pytest.raises(ValueError, match=message):
        mdp_module.read_table(text, "f", "n,x", (int, float), version)
