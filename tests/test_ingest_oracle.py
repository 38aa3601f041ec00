"""The columnar ingest against the object-per-hour reference in cohort_oracle.

Random small cohorts must give the reference's bytes for every ingest
artifact and the reference's imputed training and test splits bit for bit,
in any row order and at any chunk size, and every malformed or inconsistent file must
raise the reference's error: same class, message and line.
"""

import csv
import io
import math
import os
import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cohort_oracle
from glyrl import cohort, pipeline
from glyrl.config import PipelineConfig
from glyrl.errors import DataError, ParseError

COVARIATES = ("hr", "map", "lactate")
ARTIFACTS = ("hours.npy", "test.csv", "norm_spec.json", "exclusions.json")
HEADER = ",".join(cohort.FIXED_COLUMNS + COVARIATES)

# cell values that stress the formatting and the arithmetic: signed zeros,
# repeats (ties in min/max), values with long reprs, several spellings
FLOATS = st.sampled_from(["-0.0", "0.0", "0", "1.5", "1.50", "-2.25", "7",
                          "0.1", "1e-3", "123456.789", "-1e5", "3.0000000001"])


# each static column's values, each value as one or more spellings that parse
# to the same bits; a patient's rows may spell its value differently, and
# text cells may need CSV quoting
STATIC_SPELLINGS = [
    [["40.5"], ["18", "18.0"], ["66.25", "66.250"], ["17.0"], ["-0.0"]],
    [["F"], ["M"], ["X"], ["F,M"], ['"M"'], ["F\nM"]],
    [["MICU"], ["SICU"], ["CCU"], ["MI\nCU"], ["S,ICU"], ['C"CU']],
    [["2", "02"], ["5"], ["1"]],
    [["0"], ["3", "03"], ["-1"]],
] + [[["0"], ["1"]]] * 4 + [
    [["130.0"], ["-0.0"], ["95.5"], ["1e2", "100.0"]],
    [[""], ["250.00"], ["401.9;249.1"], ["1250.1"], [";250;", "250"],
     ["401.9;;428.0"], ["401.9,428.0"], ['250"1'], ["250.00\n401.9"]],
    [["0"], ["1"]],
    [["0"], ["1"]],
    [["0"], ["1"]],  # died_within_90d
]
DIED = cohort.FIXED_COLUMNS.index("died_within_90d")


@st.composite
def patients(draw, pid):
    """Cell lists of one patient's rows: hour gaps, missing cells, edge
    statics."""
    max_hour = draw(st.integers(1, 6))
    hours = draw(st.sets(st.integers(0, max_hour - 1), max_size=max_hour))
    hours = sorted(hours | {max_hour})
    # mostly patients the filters keep; some fail on age or SOFA
    statics = [draw(st.sampled_from(values)) for values in STATIC_SPELLINGS]
    # per covariate: always observed, sometimes missing, or never observed
    modes = [draw(st.sampled_from(["dense"] * 6 + ["sparse"] * 2 + ["empty"]))
             for _ in COVARIATES]
    rows = []
    for hour in hours:
        glucose = draw(st.sampled_from(["", "", "120.0", "95.5", "0.001",
                                        "300.25"]))
        if glucose:
            source = draw(st.sampled_from(["arterial", "venous", "other"]))
        else:
            source = draw(st.sampled_from(["", "none", "arterial"]))
        covs = []
        for mode in modes:
            missing = mode == "empty" or (
                mode == "sparse" and draw(st.integers(0, 2)) == 0)
            covs.append("" if missing else draw(FLOATS))
        rows.append([pid, str(hour)]
                    + [draw(st.sampled_from(spellings)) for spellings in statics]
                    + [glucose, source] + covs)
    return rows


def record(cells):
    """One CSV record, quoted where a cell needs it, without its line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


@st.composite
def cohorts(draw):
    # ids of several widths, so the hours table's id width varies too
    ids = draw(st.lists(st.sampled_from(["p1", "p10", "p2", "a", "zz9", "p01",
                                         "q"]),
                        min_size=2, max_size=7, unique=True))
    rows = []
    for pid in ids:
        rows += draw(patients(pid))
    if draw(st.booleans()):  # single-outcome cohort
        outcome = draw(st.sampled_from(["0", "1"]))
        for row in rows:
            row[DIED] = outcome
    order = draw(st.permutations(range(len(rows))))
    return [record(rows[i]) for i in order]


def _config(max_missing, test_fraction, seed):
    config = PipelineConfig()
    config.covariates = COVARIATES
    config.preprocessing.max_missing_fraction = max_missing
    config.split.test_fraction = test_fraction
    config.seed = seed
    # ingest refuses a k above the training hours; these cohorts have few
    config.clustering.k = 1
    return config


def _hex_floats(values):
    """``values`` with every float, in lists too, as its hex: compared bit
    for bit, -0.0 and NaN included."""
    return [_hex_floats(v) if isinstance(v, list) else
            v.hex() if isinstance(v, float) else v for v in values]


def _cohort_columns(split):
    """A ``cohort.Cohort``'s columns as lists; no source where no glucose."""
    columns = {name: split.patients[name].tolist()
               for name in cohort.PATIENT_COLUMNS}
    observed = ~np.isnan(split.glucose)
    columns.update(
        hour=split.hours.tolist(), values=split.values.tolist(),
        glucose=split.glucose.tolist(),
        source=np.where(observed, np.array(cohort.GLUCOSE_SOURCES)[split.source],
                        "none").tolist())
    return {name: _hex_floats(col) for name, col in columns.items()}


def _series_columns(split):
    """The same columns of the reference's list of PatientSeries."""
    columns = {name: [getattr(s.statics, name) for s in split]
               for name in cohort.STATIC_COLUMNS}
    columns.update(
        patient_id=[s.patient_id for s in split],
        icd9_codes=[";".join(s.statics.icd9_codes) for s in split],
        died_within_90d=[not s.survived for s in split])
    hours = [h for s in split for h in s.hours]
    columns.update(
        hour=[h.hour_index for h in hours],
        values=[list(h.covariates) for h in hours],
        glucose=[math.nan if h.glucose_mgdl is None else h.glucose_mgdl
                 for h in hours],
        source=["none" if h.glucose_mgdl is None else h.glucose_source
                for h in hours])
    return {name: _hex_floats(col) for name, col in columns.items()}


def _ingest(module, fn, config, csv_path, art_dir):
    """The artifact bytes and the columns of the training and test splits
    ``fn`` passes to ``module.hours_table``, or the DataError raised."""
    hours_table, splits = module.hours_table, []

    def keep_splits(parts, spec):
        splits.append(parts)
        return hours_table(parts, spec)

    try:
        with mock.patch.object(module, "hours_table", keep_splits):
            fn(config, csv_path, art_dir)
    except DataError as err:
        return type(err), str(err)
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(art_dir, name), "rb") as fh:
            out[name] = fh.read()
    columns = _series_columns if module is cohort_oracle else _cohort_columns
    (train, test), = splits
    out["train"], out["test"] = columns(train), columns(test)
    return out


def _stage_ingest(config, csv_path, art_dir):
    """``pipeline.stage_ingest`` on its own view of ``art_dir``: run_stage
    would name the stage in errors, which ``cohort_oracle.ingest`` does
    not."""
    pipeline.stage_ingest(config, csv_path,
                          pipeline._StageFiles(art_dir, "ingest"))


@settings(max_examples=100)
@given(rows=cohorts(),
       max_missing=st.sampled_from([0.1, 0.5, 1.0, 1.0]),
       test_fraction=st.sampled_from([0.2, 0.5]),
       seed=st.integers(0, 3),
       chunk=st.sampled_from([1, 3, 4096]),
       shuffle=st.randoms(use_true_random=False))
def test_ingest_bytes_equal_the_object_reference(rows, max_missing,
                                                 test_fraction, seed, chunk,
                                                 shuffle):
    config = _config(max_missing, test_fraction, seed)
    root = tempfile.mkdtemp()
    try:
        path = os.path.join(root, "cohort.csv")
        with open(path, "w") as fh:
            fh.write("\n".join([HEADER] + rows) + "\n")
        expected = _ingest(cohort_oracle, cohort_oracle.ingest, config, path,
                           os.path.join(root, "oracle"))
        with mock.patch.object(cohort, "CHUNK_ROWS", chunk):
            got = _ingest(pipeline, _stage_ingest, config, path,
                          os.path.join(root, "columns"))
        assert got == expected
        # the same rows in another order give the same bytes
        shuffle.shuffle(rows)
        with open(path, "w") as fh:
            fh.write("\n".join([HEADER] + rows) + "\n")
        assert _ingest(pipeline, _stage_ingest, config, path,
                       os.path.join(root, "shuffled")) == expected
    finally:
        shutil.rmtree(root)


# --- error parity ---------------------------------------------------------------

def _row(pid, hour, **cells):
    values = {"patient_id": pid, "hour_index": str(hour), "age_years": "50.0",
              "gender": "F", "icu_unit": "MICU", "sofa_admission": "5",
              "elixhauser": "2", "mech_vent": "0", "intubation": "0",
              "vasopressor": "0", "hba1c_ge_7": "0",
              "first_glucose_mgdl": "130.0", "icd9_codes": "250.00",
              "admission_meds_diabetic": "0", "history_mentions_diabetes": "0",
              "died_within_90d": "0", "glucose_mgdl": "120.0",
              "glucose_source": "arterial", "hr": "80.0", "map": "70.0",
              "lactate": "1.5"}
    values.update(cells)
    return ",".join(values[name] for name in cohort.FIXED_COLUMNS + COVARIATES)


def _base():
    """Nine good rows: three patients, three hours each, in file order."""
    return [_row("p%d" % p, h) for p in range(3) for h in range(3)]


def _with(*edits):
    """The base rows with row i replaced by _row(...) for each (i, cells)."""
    rows = _base()
    for i, cells in edits:
        pid, hour = "p%d" % (i // 3), i % 3
        rows[i] = _row(cells.pop("patient_id", pid),
                       cells.pop("hour_index", hour), **cells)
    return rows


PARSE_DEFECTS = {
    "extra_column": lambda: _base()[:4] + [_base()[4] + ",9"] + _base()[5:],
    "missing_column": lambda: _base()[:4] + [_base()[4].rsplit(",", 1)[0]]
    + _base()[5:],
    "nul_in_id": lambda: _with((4, {"patient_id": "p1\0"})),
    "nul_in_covariate": lambda: _with((4, {"lactate": "1.5\0"})),
    "nul_in_gender": lambda: _with((4, {"gender": "F\0"})),
    "empty_id": lambda: _with((4, {"patient_id": ""})),
    # quoted in the cohort CSV, but artifact tables write ids unquoted
    "comma_in_id": lambda: _with((4, {"patient_id": '"p1,x"'})),
    "quote_in_id": lambda: _with((4, {"patient_id": 'p1"x'})),
    "line_break_in_id": lambda: _with((4, {"patient_id": '"p1\r\nx"'})),
    "hour_text": lambda: _with((4, {"hour_index": "one"})),
    "hour_float": lambda: _with((4, {"hour_index": "1.0"})),
    "hour_negative": lambda: _with((4, {"hour_index": "-1"})),
    "unknown_source": lambda: _with((4, {"glucose_source": "capillary"})),
    "glucose_text": lambda: _with((4, {"glucose_mgdl": "high"})),
    "glucose_inf": lambda: _with((4, {"glucose_mgdl": "inf"})),
    "glucose_nan": lambda: _with((4, {"glucose_mgdl": "nan"})),
    "glucose_zero": lambda: _with((4, {"glucose_mgdl": "-0.0"})),
    "glucose_negative": lambda: _with((4, {"glucose_mgdl": "-5"})),
    "glucose_empty_source": lambda: _with((4, {"glucose_source": ""})),
    "glucose_none_source": lambda: _with((4, {"glucose_source": "none"})),
    "covariate_text": lambda: _with((4, {"map": "oops"})),
    "covariate_inf": lambda: _with((4, {"map": "-inf"})),
    "age_empty": lambda: _with((4, {"age_years": ""})),
    "age_text": lambda: _with((4, {"age_years": "old"})),
    "age_nan": lambda: _with((4, {"age_years": "NaN"})),
    "age_negative": lambda: _with((4, {"age_years": "-1e-9"})),
    "sofa_text": lambda: _with((4, {"sofa_admission": "x"})),
    "sofa_negative": lambda: _with((4, {"sofa_admission": "-2"})),
    "elixhauser_float": lambda: _with((4, {"elixhauser": "2.5"})),
    "first_glucose_text": lambda: _with((4, {"first_glucose_mgdl": "?"})),
    "first_glucose_inf": lambda: _with((4, {"first_glucose_mgdl": "1e999"})),
    # several defects in one row: the first check in row order wins
    "row_hour_and_glucose": lambda: _with(
        (4, {"hour_index": "x", "glucose_mgdl": "bad"})),
    "row_source_and_glucose": lambda: _with(
        (4, {"glucose_source": "x", "glucose_mgdl": "bad"})),
    "row_covariates": lambda: _with((4, {"map": "inf", "hr": "bad"})),
    "row_statics": lambda: _with(
        (4, {"age_years": "-1", "sofa_admission": "x", "lactate": "nan"})),
    "row_flag_and_died": lambda: _with(
        (4, {"died_within_90d": "2", "vasopressor": "yes"})),
    "row_nul_and_count": lambda: _base()[:4] + [_base()[4] + ",\0"],
    # the earliest row wins, whatever its check
    "two_rows": lambda: _with((7, {"hour_index": "x"}), (5, {"map": "?"})),
    # p0's rows each span two lines: later rows start further down the file
    "after_quoted_line_breaks": lambda: _with(
        *((i, {"icu_unit": '"MI\nCU"'}) for i in range(3)),
        (4, {"hour_index": "x"})),
}
for flag in ("mech_vent", "intubation", "vasopressor", "hba1c_ge_7",
             "admission_meds_diabetic", "history_mentions_diabetes",
             "died_within_90d"):
    PARSE_DEFECTS["flag_" + flag] = lambda flag=flag: _with((4, {flag: "true"}))

INTEGRITY_DEFECTS = {
    "statics_age": lambda: _with((5, {"age_years": "51.0"})),
    "statics_icd9": lambda: _with((5, {"icd9_codes": "250.01"})),
    "statics_died": lambda: _with((5, {"died_within_90d": "1"})),
    "statics_gender_first_row_wins": lambda: _with((3, {"gender": "M"})),
    "duplicate_hour": lambda: _with((5, {"hour_index": "1"})),
    "duplicate_across_patients_order": lambda: _base() + [_row("p0", 2)],
    "single_hour": lambda: _with((6, {"hour_index": "0", "patient_id": "p9"})),
    "single_hour_sorted_first": lambda: _base()[:8] + [_row("p0a", 0),
                                                       _row("a", 0)],
    "inconsistent_after_equal_spellings": lambda: _with(
        (4, {"age_years": "50", "icd9_codes": ";250.00;"}),
        (5, {"age_years": "50.5"})),
    # a parse error before an integrity error, and the reverse
    "parse_then_duplicate": lambda: _with((2, {"map": "?"}),
                                          (7, {"hour_index": "0"})),
    "duplicate_then_parse": lambda: _with((2, {"hour_index": "1"}),
                                          (7, {"map": "?"})),
    "parse_then_statics": lambda: _with((1, {"glucose_mgdl": "x"}),
                                        (8, {"sofa_admission": "6"})),
    "statics_then_parse": lambda: _with((1, {"sofa_admission": "6"}),
                                        (8, {"glucose_mgdl": "x"})),
    "single_hour_then_parse": lambda: _with((6, {"hour_index": "0",
                                                 "patient_id": "p9"}),
                                            (8, {"map": "?"})),
    "statics_after_quoted_line_breaks": lambda: _with(
        *((i, {"icd9_codes": '"250.00\n401.9"'}) for i in range(3)),
        (5, {"age_years": "51.0"})),
}

BODY = "\n".join(_base()) + "\n"
HEADER_DEFECTS = {
    "empty_file": "",
    "wrong_header": "patient,hour\n" + BODY,
    "schema_mismatch": ",".join(cohort.FIXED_COLUMNS + ("hr", "map")) + "\n" + BODY,
    "nul_in_header": HEADER.replace("map", "m\0ap") + "\n" + BODY,
    # longer than csv.field_size_limit(), so the CSV reader itself refuses it
    "oversized_header": "x" * 200_000 + "," + HEADER + "\n" + BODY,
}


def _error(parse, text, covariates=COVARIATES):
    try:
        parse(io.StringIO(text), covariates)
    except DataError as err:
        return type(err), str(err), getattr(err, "line_number", None)
    return None


CASES = [(name, make) for name, make in
         sorted({**PARSE_DEFECTS, **INTEGRITY_DEFECTS}.items())]


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "n"])
@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_errors_match_the_object_reference(name, make, chunk):
    rows = make()
    # a blank line shifts the line numbers and is skipped by both parsers
    text = "\n".join([HEADER, rows[0], ""] + rows[1:]) + "\n"
    expected = _error(cohort_oracle.parse_cohort, text)
    assert expected is not None
    with mock.patch.object(cohort, "CHUNK_ROWS", chunk or len(rows) + 1):
        assert _error(cohort.parse_cohort, text) == expected


@pytest.mark.parametrize("name", sorted(HEADER_DEFECTS))
def test_header_errors_match_the_object_reference(name):
    text = HEADER_DEFECTS[name]
    expected = _error(cohort_oracle.parse_cohort, text)
    assert expected is not None and expected[2] == 1
    assert _error(cohort.parse_cohort, text) == expected


def test_parity_cases_cover_every_check():
    """Every message the parser can produce appears in the parity table."""
    messages = set()
    for _, make in CASES:
        rows = make()
        messages.add(_error(cohort.parse_cohort,
                            "\n".join([HEADER] + rows) + "\n")[1])
    stems = ["expected 21 columns", "NUL character", "empty patient_id",
             "holds a comma, quote, CR or LF",
             "cannot parse hour_index", "hour_index must be >= 0",
             "unknown glucose_source", "cannot parse glucose_mgdl",
             "non-finite glucose_mgdl", "glucose_mgdl must be > 0",
             "glucose_mgdl present but", "cannot parse map", "non-finite map",
             "cannot parse age_years", "non-finite age_years",
             "age_years must be >= 0", "cannot parse sofa_admission",
             "sofa_admission must be >= 0", "cannot parse elixhauser",
             "cannot parse first_glucose_mgdl",
             "non-finite first_glucose_mgdl", "inconsistent static fields",
             "duplicate hour_index", "needs at least 2 hourly records"]
    stems += ["%s must be 0 or 1" % flag for flag in (
        "mech_vent", "intubation", "vasopressor", "hba1c_ge_7",
        "admission_meds_diabetic", "history_mentions_diabetes",
        "died_within_90d")]
    for stem in stems:
        assert any(stem in m for m in messages), stem


def test_error_lines_are_where_the_row_starts_in_the_file():
    # lines 2-7 hold p0's three rows, two lines each: p1's first row is on
    # line 8, the 5th CSV record
    rows = _with(*((i, {"icu_unit": '"MI\nCU"'}) for i in range(3)),
                 (3, {"hour_index": "x"}))
    text = "\n".join([HEADER] + rows) + "\n"
    for parse in (cohort.parse_cohort, cohort_oracle.parse_cohort):
        for chunk in (1, 2, 4096):
            with mock.patch.object(cohort, "CHUNK_ROWS", chunk), \
                    pytest.raises(ParseError, match="^line 8: cannot parse "
                                  "hour_index='x' as an integer$"):
                parse(io.StringIO(text), COVARIATES)


@pytest.mark.parametrize("before", [0, 1])
def test_a_refused_record_is_named_by_its_first_line(before):
    # the second record's quoted icu_unit holds a middle line longer than
    # csv.field_size_limit(); the reader refuses the record on that line,
    # and the error names the line where the record starts: line 3, or
    # line 4 after a first record that spans two lines
    edits = [(1, {"icu_unit": '"MI\n%s\nCU"' % ("4" * 200_000)})]
    if before:
        edits.append((0, {"icu_unit": '"MI\nCU"'}))
    text = "\n".join([HEADER] + _with(*edits)) + "\n"
    for parse in (cohort.parse_cohort, cohort_oracle.parse_cohort):
        for chunk in (1, 2, 4096):
            with mock.patch.object(cohort, "CHUNK_ROWS", chunk), \
                    pytest.raises(ParseError, match="^line %d: field larger "
                                  "than field limit" % (3 + before)):
                parse(io.StringIO(text), COVARIATES)


def test_nul_rows_do_not_merge_with_their_patient():
    # at numpy's fixed-width strings "p0\0" would read back as "p0"
    text = "\n".join([HEADER] + _base() + [_row("p0\0", h) for h in range(3)])
    with pytest.raises(DataError, match="line 11: NUL character in patient_id"):
        cohort.parse_cohort(io.StringIO(text + "\n"), COVARIATES)


def test_covariates_may_share_names_with_other_columns():
    # columns are read by position, as the reference reads them
    covariates = ("age_years", "x", "x")
    header = ",".join(cohort.FIXED_COLUMNS + covariates)
    good = [_row("p0", h) for h in range(2)]
    bad = good + [_row("p1", 0, lactate="oops"), _row("p1", 1)]
    for rows in (good, bad):
        text = "\n".join([header] + rows) + "\n"
        expected = _error(cohort_oracle.parse_cohort, text, covariates)
        assert _error(cohort.parse_cohort, text, covariates) == expected
    parsed = cohort.parse_cohort(io.StringIO("\n".join([header] + good) + "\n"),
                                 covariates)
    assert parsed.values[0].tolist() == [80.0, 70.0, 1.5]
    assert parsed.patients["age_years"].tolist() == [50.0]
