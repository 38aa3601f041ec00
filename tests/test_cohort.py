import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from glyrl import cohort
from glyrl.errors import ImputationError, IntegrityError, ParseError

from conftest import COVARIATES, cohort_row, make_csv


def assert_same_cohort(a, b):
    assert a.covariates == b.covariates
    assert a.patients.keys() == b.patients.keys()
    for name in a.patients:
        assert a.patients[name].tolist() == b.patients[name].tolist(), name
    for name in ("bounds", "values", "glucose", "source"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# --- parsing ---------------------------------------------------------------

def test_parse_three_rows_one_patient(three_hour_patient):
    parsed = three_hour_patient
    assert parsed.ids.tolist() == ["p1"]
    assert parsed.hours.tolist() == [0, 1, 2]
    assert not parsed.patients["died_within_90d"][0]
    assert parsed.patients["age_years"][0] == 50.0
    assert parsed.glucose[0] == 120.0


def test_parse_materializes_hour_gaps():
    rows = [cohort_row("p1", 0), cohort_row("p1", 2)]
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    assert parsed.hours.tolist() == [0, 1, 2]
    assert np.isnan(parsed.values[1]).all()
    assert np.isnan(parsed.glucose[1])
    assert cohort.GLUCOSE_SOURCES[parsed.source[1]] == "none"


def test_parse_duplicate_hour_is_integrity_error():
    rows = [cohort_row("p1", 0), cohort_row("p1", 0), cohort_row("p1", 1)]
    with pytest.raises(IntegrityError, match="p1"):
        cohort.parse_cohort(make_csv(rows), COVARIATES)


def test_parse_inconsistent_statics_is_integrity_error():
    rows = [cohort_row("p1", 0, age=50.0), cohort_row("p1", 1, age=51.0)]
    with pytest.raises(IntegrityError, match="p1"):
        cohort.parse_cohort(make_csv(rows), COVARIATES)


def test_parse_bad_number_reports_line():
    rows = [cohort_row("p1", 0), cohort_row("p1", 1, covs=("oops", "1.0", "2.0"))]
    with pytest.raises(ParseError, match="line 3"):
        cohort.parse_cohort(make_csv(rows), COVARIATES)


def test_parse_wrong_column_count_reports_line():
    rows = [cohort_row("p1", 0), cohort_row("p1", 1) + ",extra"]
    with pytest.raises(ParseError, match="line 3"):
        cohort.parse_cohort(make_csv(rows), COVARIATES)


def test_parse_glucose_without_source_rejected():
    row = cohort_row("p1", 1).rsplit("arterial", 1)
    rows = [cohort_row("p1", 0), "".join(row).replace(",120.0,,", ",120.0,,")]
    # rebuild explicitly: glucose present, source empty
    parts = cohort_row("p1", 1).split(",")
    parts[17] = ""
    rows = [cohort_row("p1", 0), ",".join(parts)]
    with pytest.raises(ParseError):
        cohort.parse_cohort(make_csv(rows), COVARIATES)


def test_parse_single_hour_patient_rejected():
    with pytest.raises(IntegrityError, match="p1"):
        cohort.parse_cohort(make_csv([cohort_row("p1", 0)]), COVARIATES)


def test_parse_unsorted_rows_and_multiple_patients():
    rows = [
        cohort_row("p2", 1, glucose="90.0"),
        cohort_row("p1", 1),
        cohort_row("p2", 0, glucose="90.0"),
        cohort_row("p1", 0),
    ]
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    assert parsed.ids.tolist() == ["p1", "p2"]
    assert parsed.hours.tolist() == [0, 1, 0, 1]


def test_parse_schema_mismatch_rejected():
    rows = [cohort_row("p1", 0), cohort_row("p1", 1)]
    with pytest.raises(ParseError, match="covariate"):
        cohort.parse_cohort(make_csv(rows), ["heart_rate", "sbp"])


def test_quoted_cr_in_a_static_cell_parses_as_one_cell():
    rows = [
        cohort_row("p1", 0, icd9="250.00;401.9", glucose="95.5", source="venous"),
        cohort_row("p1", 2, icd9="250.00;401.9", glucose="", source=""),
        cohort_row("p2", 0, died=1, covs=("", "100.0", "2.0")),
        cohort_row("p2", 1, died=1),
        cohort_row("p3", 0, gender='"M\rX"'),
        cohort_row("p3", 1, gender='"M\rX"'),
    ]
    text = make_csv(rows).getvalue()
    exact = cohort.parse_cohort(io.StringIO(text), COVARIATES)
    assert exact.patients["gender"].tolist()[-1] == "M\rX"
    # read with universal newlines, as stage_ingest opens files, the CR
    # becomes an LF inside the one cell and nothing else changes
    universal = cohort.parse_cohort(io.StringIO(text, newline=None),
                                    COVARIATES)
    assert universal.patients["gender"].tolist()[-1] == "M\nX"
    universal.patients["gender"][-1] = "M\rX"
    assert_same_cohort(exact, universal)


@pytest.mark.parametrize("line_break", ["\r", "\n", "\r\n"],
                         ids=["cr", "lf", "crlf"])
def test_quoted_static_cell_holding_a_line_break_parses_as_one_cell(
        line_break):
    # stage_ingest opens the cohort with universal newlines; a static cell
    # holding any line break must come back as one quoted cell of one row
    cell = "M%sX" % line_break
    rows = [cohort_row("p1", h, gender='"%s"' % cell) for h in range(2)]
    text = make_csv(rows).getvalue()
    parsed = cohort.parse_cohort(io.StringIO(text), COVARIATES)
    assert parsed.patients["gender"].tolist() == [cell]
    back = cohort.parse_cohort(io.StringIO(text, newline=None), COVARIATES)
    assert back.patients["gender"].tolist() == ["M\nX"]
    assert back.hours.tolist() == [0, 1]


# --- filtering ---------------------------------------------------------------

def _patient(pid, age=40.0, sofa=5, died=0, covs=("1.0", "2.0", "3.0"), n_hours=2):
    rows = [cohort_row(pid, h, age=age, sofa=sofa, died=died, covs=covs) for h in range(n_hours)]
    return rows


def test_filter_age_below_18_excluded():
    rows = _patient("p1", age=17.0) + _patient("p2", age=40.0)
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    kept, excl = cohort.filter_cohort(parsed)
    assert kept.ids.tolist() == ["p2"]
    assert excl["age_below_minimum"] == 1


def test_filter_low_sofa_excluded():
    rows = _patient("p1", sofa=1) + _patient("p2", sofa=2)
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    kept, excl = cohort.filter_cohort(parsed)
    assert kept.ids.tolist() == ["p2"]
    assert excl["sofa_below_minimum"] == 1


def test_filter_missing_fraction_above_10_percent_excluded():
    # 10 hours x 3 covariates = 30 cells; 4 missing cells = 13.3%
    rows = [cohort_row("p1", h, covs=("" if h < 4 else "1.0", "2.0", "3.0")) for h in range(10)]
    rows += [cohort_row("p2", h, covs=("1.0" if h > 0 else "", "2.0", "3.0")) for h in range(10)]
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    kept, excl = cohort.filter_cohort(parsed)
    assert kept.ids.tolist() == ["p2"]  # p2: 1/30 missing
    assert excl["missing_covariates_above_maximum"] == 1


def test_filter_keeps_compliant_patient():
    parsed = cohort.parse_cohort(make_csv(_patient("p1", age=40.0, sofa=5)), COVARIATES)
    kept, excl = cohort.filter_cohort(parsed)
    assert len(kept.ids) == 1 and not excl


def test_filter_nulls_other_source_glucose():
    rows = [
        cohort_row("p1", 0, glucose="150.0", source="other"),
        cohort_row("p1", 1, glucose="140.0", source="arterial"),
    ]
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    kept, _ = cohort.filter_cohort(parsed)
    assert np.isnan(kept.glucose[0])
    assert cohort.GLUCOSE_SOURCES[kept.source[0]] == "none"
    assert kept.glucose[1] == 140.0


def test_filter_is_idempotent():
    rows = (
        _patient("p1", age=17.0)
        + _patient("p2")
        + [cohort_row("p3", 0, glucose="150.0", source="other"), cohort_row("p3", 1)]
    )
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    once, _ = cohort.filter_cohort(parsed)
    twice, excl = cohort.filter_cohort(once)
    assert_same_cohort(once, twice)
    assert not excl


# --- diabetic classification -------------------------------------------------

def _statics(**overrides):
    """One patient's per-patient columns, as ``Cohort.patients`` holds them."""
    base = dict(
        patient_id="px",
        age_years=50.0,
        gender="F",
        icu_unit="MICU",
        sofa_admission=5,
        elixhauser=2,
        mech_vent=False,
        intubation=False,
        vasopressor=False,
        hba1c_ge_7=False,
        first_glucose_mgdl=130.0,
        icd9_codes="",
        admission_meds_diabetic=False,
        history_mentions_diabetes=False,
        died_within_90d=False,
    )
    base.update(overrides)
    return {name: np.array([base[name]]) for name in cohort.PATIENT_COLUMNS}


def test_icd9_250_prefix_is_diabetic():
    assert cohort.classify_diabetes(_statics(icd9_codes="250.00"))[0]
    assert cohort.classify_diabetes(_statics(icd9_codes="401.9;249.1"))[0]


def test_all_negative_is_non_diabetic():
    assert not cohort.classify_diabetes(_statics(icd9_codes="401.9"))[0]
    # a code merely containing 250 is not a 250.* code
    assert not cohort.classify_diabetes(_statics(icd9_codes="1250.1"))[0]


def test_hba1c_alone_is_diabetic():
    assert cohort.classify_diabetes(_statics(hba1c_ge_7=True))[0]


@pytest.mark.parametrize("field", ["admission_meds_diabetic", "history_mentions_diabetes"])
def test_other_sources_are_diabetic(field):
    assert cohort.classify_diabetes(_statics(**{field: True}))[0]


# --- imputation ----------------------------------------------------------------

def _series_with_column(*columns, ids=None):
    """Single-covariate cohort, one patient per column of per-hour values
    (None = missing)."""
    ids = ids or ["px%d" % i if i else "px" for i in range(len(columns))]
    patients = [_statics(patient_id=pid) for pid in ids]
    lengths = [len(col) for col in columns]
    n = sum(lengths)
    return cohort.Cohort(
        ("only_cov",),
        {name: np.concatenate([p[name] for p in patients])
         for name in cohort.PATIENT_COLUMNS},
        np.concatenate(([0], np.cumsum(lengths))),
        np.array([np.nan if v is None else v for col in columns for v in col],
                 dtype=float).reshape(n, 1),
        np.full(n, 100.0),
        np.zeros(n, dtype=np.int8),
    )


def _imputed(values):
    kept, dropped = cohort.impute_cohort(_series_with_column(values))
    assert not dropped
    return kept.values[:, 0].tolist()


def test_impute_interior_midpoint():
    assert _imputed([1.0, None, 3.0])[1] == 2.0


def test_impute_leading_gap_constant():
    assert _imputed([None, 2.0, 3.0])[0] == 2.0


def test_impute_trailing_gap_constant():
    assert _imputed([1.0, 2.0, None])[2] == 2.0


def test_impute_all_missing_raises():
    kept, dropped = cohort.impute_cohort(_series_with_column([None, None, None]))
    assert not len(kept.ids)
    assert dropped == [("px", str(ImputationError("px", "only_cov")))]


def test_impute_recovers_linear_signals():
    rng = np.random.default_rng(7)
    for _ in range(20):
        slope = rng.uniform(-3, 3)
        intercept = rng.uniform(-5, 5)
        full = [intercept + slope * h for h in range(12)]
        values = list(full)
        # delete interior cells, keep endpoints observed
        for h in rng.choice(np.arange(1, 11), size=5, replace=False):
            values[h] = None
        np.testing.assert_allclose(_imputed(values), full, rtol=0, atol=1e-9)


def test_impute_edge_deletions_equal_nearest_observation():
    assert _imputed([None, None, 4.0, 6.0, None]) == [4.0, 4.0, 4.0, 6.0, 6.0]


def test_impute_cohort_drops_unimputable():
    both = _series_with_column([1.0, None, 3.0], [None, None, None],
                               ids=["px", "py"])
    kept, dropped = cohort.impute_cohort(both)
    assert kept.ids.tolist() == ["px"]
    assert kept.values[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert dropped[0][0] == "py"
    assert "only_cov" in dropped[0][1]


def test_impute_reason_names_the_first_empty_covariate():
    rows = [cohort_row("p1", h, covs=("1.0", "", "")) for h in range(2)]
    _, dropped = cohort.impute_cohort(cohort.parse_cohort(make_csv(rows), COVARIATES))
    assert dropped == [("p1", str(ImputationError("p1", "sbp")))]


def test_impute_never_bridges_patients():
    # each patient's edge gaps take its own observations, not a neighbor's
    both = _series_with_column([None, 1.0, None], [None, 5.0, None, 9.0, None],
                               ids=["pa", "pb"])
    kept, _ = cohort.impute_cohort(both)
    assert kept.values[:, 0].tolist() == [1.0, 1.0, 1.0, 5.0, 5.0, 7.0, 9.0, 9.0]


# --- normalization ---------------------------------------------------------------

def test_normalization_affine_map():
    spec = cohort.fit_normalization(_series_with_column([50.0, 150.0]))
    states = cohort.apply_normalization(_series_with_column([100.0, 100.0]), spec)
    np.testing.assert_array_equal(states[:, -1], [0.5, 0.5])


def test_normalization_constant_feature_maps_to_zero():
    train = _series_with_column([7.0, 7.0])
    spec = cohort.fit_normalization(train)
    np.testing.assert_array_equal(
        cohort.apply_normalization(train, spec)[:, -1], [0.0, 0.0])


def test_normalization_clamps_out_of_range_test_values():
    spec = cohort.fit_normalization(_series_with_column([50.0, 150.0]))
    states = cohort.apply_normalization(_series_with_column([200.0, 10.0]), spec)
    np.testing.assert_array_equal(states[:, -1], [1.0, 0.0])


def test_normalization_output_always_unit_interval():
    rng = np.random.default_rng(11)
    train = _series_with_column(*[list(rng.normal(0, 50, size=4)) for _ in range(5)])
    train.patients["hba1c_ge_7"][::2] = True  # diabetic flag varies
    test = _series_with_column(*[list(rng.normal(0, 120, size=4)) for _ in range(5)])
    spec = cohort.fit_normalization(train)
    for part in (train, test):
        states = cohort.apply_normalization(part, spec)
        assert np.all(states >= 0.0) and np.all(states <= 1.0)


def test_normalization_requires_imputed_series():
    spec = cohort.fit_normalization(_series_with_column([50.0, 150.0]))
    with pytest.raises(ValueError, match="impute"):
        cohort.apply_normalization(_series_with_column([None, 1.0]), spec)


def test_normalization_refuses_a_spec_of_other_covariates():
    spec = cohort.fit_normalization(_series_with_column([50.0, 150.0]))
    other = dataclasses.replace(spec, feature_names=spec.feature_names[:-1])
    with pytest.raises(ValueError, match="covariate schema does not match"):
        cohort.apply_normalization(_series_with_column([100.0, 100.0]), other)


# --- split ---------------------------------------------------------------------

def _split_cohort(n=10, died_every=3):
    rows = []
    for i in range(n):
        died = 1 if (i + 1) % died_every == 0 else 0
        rows += _patient(f"p{i:02d}", died=died)
    parsed = cohort.parse_cohort(make_csv(rows), COVARIATES)
    return parsed.ids, ~parsed.patients["died_within_90d"]


def test_split_exact_size_and_determinism():
    ids, survived = _split_cohort(10)
    train1, test1 = cohort.split_patients(ids, survived, 0.2, seed=42)
    train2, test2 = cohort.split_patients(ids, survived, 0.2, seed=42)
    assert len(test1) == 2 and len(train1) == 8
    assert test1.tolist() == test2.tolist()
    assert train1.tolist() == train2.tolist()


def test_split_seed_changes_selection():
    ids, survived = _split_cohort(30)
    picks = {
        tuple(cohort.split_patients(ids, survived, 0.2, seed)[1].tolist())
        for seed in range(5)
    }
    assert len(picks) > 1


def test_split_rejects_bad_fraction():
    ids, survived = _split_cohort(10)
    with pytest.raises(ValueError):
        cohort.split_patients(ids, survived, 0.0, seed=1)
    with pytest.raises(ValueError):
        cohort.split_patients(ids, survived, 1.0, seed=1)


def test_split_is_outcome_stratified():
    ids, survived = _split_cohort(100, died_every=4)  # 25% mortality
    train, test = cohort.split_patients(ids, survived, 0.2, seed=3)
    cohort_rate = 0.25
    for part in (train, test):
        rate = np.mean(~survived[part])
        assert abs(rate - cohort_rate) <= 0.02


def test_split_single_class_falls_back_to_plain(caplog):
    ids, survived = _split_cohort(10, died_every=999)
    with caplog.at_level("WARNING"):
        train, test = cohort.split_patients(ids, survived, 0.2, seed=1)
    assert len(test) == 2
    assert "single outcome" in caplog.text


def test_split_partition_is_exact():
    ids, survived = _split_cohort(23)
    train, test = cohort.split_patients(ids, survived, 0.3, seed=9)
    assert sorted(ids[np.concatenate([train, test])].tolist()) == sorted(ids.tolist())


@given(survived=st.lists(st.booleans(), min_size=1, max_size=80),
       test_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
@example(survived=[True, False], test_fraction=5e-324, seed=0)
@example(survived=[True, False, False], test_fraction=0.9999999999999999,
         seed=0)
@example(survived=[False] * 7 + [True] * 6, test_fraction=0.5, seed=1)
def test_split_takes_the_rounded_quota_and_leaves_training_patients(
        survived, test_fraction, seed):
    # the per-outcome floors never exceed the quota, so the allocation only
    # ever adds test patients; at least one patient stays in training
    n = len(survived)
    ids = np.array(["p%02d" % i for i in range(n)])
    train, test = cohort.split_patients(ids, np.array(survived), test_fraction,
                                        seed)
    assert sorted(train.tolist() + test.tolist()) == list(range(n))
    assert len(train) >= 1
    if n >= 2:
        assert len(test) == min(max(round(n * test_fraction), 1), n - 1)


def test_split_ignores_input_order():
    ids, survived = _split_cohort(23)
    shuffled = np.random.default_rng(0).permutation(len(ids))
    train, test = cohort.split_patients(ids, survived, 0.3, seed=9)
    train_s, test_s = cohort.split_patients(ids[shuffled], survived[shuffled], 0.3, seed=9)
    assert ids[shuffled][test_s].tolist() == ids[test].tolist()
    assert ids[shuffled][train_s].tolist() == ids[train].tolist()
