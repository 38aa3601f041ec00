"""Patient time-series ingestion: parse, filter, impute, normalize, split.

Input is a long-format CSV (one row per patient-hour, empty string = missing).
``parse_cohort`` reads it CHUNK_ROWS rows at a time, converts each chunk to
numpy columns with ``float()``/``int()`` and keeps only the columns, so ingest
holds at most one chunk of cell strings.  The per-patient cells, which repeat
on every row of a patient, are converted once per distinct block of them.
Errors name the physical line where the row starts.  The result is a
``Cohort``: one entry per patient (statics and outcome, patients sorted by id)
and one row per patient-hour on a gap-free hourly grid.  Filtering, diabetic
classification, imputation, min-max normalization and the train/test split
are array expressions over those columns; the end product is the model-ready
table of per-hour state vectors on a 0..1 scale with glucose readings and the
90-day outcome attached.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .config import PreprocessingConfig
from .errors import ImputationError, IntegrityError, ParseError

log = logging.getLogger(__name__)

GLUCOSE_SOURCES = ("arterial", "venous", "other", "none")
NO_SOURCE = GLUCOSE_SOURCES.index("none")
# the sources whose glucose readings filter_cohort keeps
VALID_GLUCOSE_SOURCES = ("arterial", "venous")
# glucose_source cell -> index into GLUCOSE_SOURCES; an empty cell means none
_SOURCE_CODES = {**{name: j for j, name in enumerate(GLUCOSE_SOURCES)},
                 "": NO_SOURCE}

# Fixed leading columns of the cohort CSV; covariate columns follow.
STATIC_COLUMNS = (
    "age_years",
    "gender",
    "icu_unit",
    "sofa_admission",
    "elixhauser",
    "mech_vent",
    "intubation",
    "vasopressor",
    "hba1c_ge_7",
    "first_glucose_mgdl",
    "icd9_codes",
    "admission_meds_diabetic",
    "history_mentions_diabetes",
)
FIXED_COLUMNS = (
    ("patient_id", "hour_index")
    + STATIC_COLUMNS
    + ("died_within_90d", "glucose_mgdl", "glucose_source")
)
# Columns that hold one value per patient; every row of a patient must agree.
PATIENT_COLUMNS = ("patient_id",) + STATIC_COLUMNS + ("died_within_90d",)
_FLAG_COLUMNS = frozenset((
    "mech_vent", "intubation", "vasopressor", "hba1c_ge_7",
    "admission_meds_diabetic", "history_mentions_diabetes", "died_within_90d",
))

# CSV rows converted to columns at a time: bounds the cell strings held at once.
CHUNK_ROWS = 4096
# Characters a patient id may not hold: artifact tables write ids unquoted.
_ID_RESERVED = frozenset(',"\r\n')
# What a byte that is not UTF-8 becomes when the file is read with
# errors="surrogateescape"; a message shows such a cell only through repr().
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


@dataclass
class Cohort:
    """A cohort as columns.  ``patients`` maps each of PATIENT_COLUMNS to one
    entry per patient, in patient-id order (ICD-9 codes ';'-joined, empty
    codes dropped).  Patient p's hours 0, 1, ... are rows
    ``bounds[p]:bounds[p + 1]`` of the per-hour columns."""

    covariates: tuple[str, ...]
    patients: dict[str, np.ndarray]
    bounds: np.ndarray  # (P + 1,) row offsets
    values: np.ndarray  # (N, n_covariates), NaN where missing
    glucose: np.ndarray  # (N,) mg/dl, NaN where missing
    source: np.ndarray  # (N,) index into GLUCOSE_SOURCES

    @property
    def ids(self) -> np.ndarray:
        return self.patients["patient_id"]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.bounds)

    @property
    def hours(self) -> np.ndarray:
        """Hour index of every row."""
        return np.arange(self.bounds[-1]) - np.repeat(self.bounds[:-1], self.lengths)

    def take(self, index: np.ndarray) -> "Cohort":
        """The cohort of patients ``index``, in that order."""
        index = np.asarray(index, dtype=np.intp)
        lengths = self.lengths[index]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        rows = np.arange(bounds[-1]) + np.repeat(self.bounds[index] - bounds[:-1],
                                                 lengths)
        return Cohort(self.covariates,
                      {name: col[index] for name, col in self.patients.items()},
                      bounds, self.values[rows], self.glucose[rows],
                      self.source[rows])


# --- parsing ------------------------------------------------------------------


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """float() of every non-empty cell (NaN for empty and unparsable ones),
    the cells float() rejects, and the non-empty cells."""
    present = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    values = np.full(len(cells), np.nan)
    bad = np.zeros(len(cells), dtype=bool)
    try:
        values[present] = np.fromiter(
            map(float, itertools.compress(cells, present)), dtype=float,
            count=int(np.count_nonzero(present)))
    except ValueError:
        for i in np.flatnonzero(present):
            try:
                values[i] = float(cells[i])
            except ValueError:
                bad[i] = True
    return values, bad, present


def _ints(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """int() of every cell (0 where it fails), and the cells int() rejects or
    that do not fit in 64 bits."""
    values = np.zeros(len(cells), dtype=np.int64)
    bad = np.zeros(len(cells), dtype=bool)
    try:
        values[:] = np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    except (ValueError, OverflowError):
        for i, c in enumerate(cells):
            try:
                values[i] = int(c)
            except (ValueError, OverflowError):
                bad[i] = True
    return values, bad


def _parse_chunk(rows: list[list[str]], names: Sequence[str]) -> tuple[
        dict[str, np.ndarray], int, Optional[str]]:
    """Columns of ``rows`` before their first malformed row; returns the
    columns, that row's position (len(rows) if none) and its message.

    Each check runs on the whole chunk as one mask.  A row's message is that
    of the first check it fails, in the order the checks are made.  The
    per-patient cells are converted and checked once per distinct block of
    them, and each check's mask is expanded back to the rows."""
    failures: list[tuple[int, str]] = []

    def check(mask, message):
        bad = np.flatnonzero(mask)
        if bad.size:
            failures.append((int(bad[0]), message(int(bad[0]))))

    width = len(names)
    short = np.flatnonzero(np.fromiter(map(len, rows), dtype=np.intp,
                                       count=len(rows)) != width)
    if short.size:
        short = int(short[0])
        failures.append((short, f"expected {width} columns, got {len(rows[short])}"))
        rows = rows[:short]
    n = len(rows)
    by_position = list(zip(*rows)) if n else [()] * width
    for name, col in zip(names, by_position):
        text = "".join(col)
        if "\0" in text:
            failures.append((next(i for i, c in enumerate(col) if "\0" in c),
                             f"NUL character in {name}"))
        if not text.isascii() and _NOT_UTF8.search(text):
            failures.append((next(i for i, c in enumerate(col)
                                  if _NOT_UTF8.search(c)),
                             f"{name} is not UTF-8 text"))
    # covariate names may repeat each other or a fixed name: look columns up
    # by position
    cells = dict(zip(FIXED_COLUMNS, by_position))
    # a patient's rows repeat its per-patient cells: key each row on them,
    # and number the distinct blocks of them in order of first appearance
    block_of: dict[tuple[str, ...], int] = {}
    inverse = np.array([block_of.setdefault(key, len(block_of)) for key in
                        zip(*(cells[name] for name in PATIENT_COLUMNS))],
                       dtype=np.intp)
    blocks = dict(zip(PATIENT_COLUMNS,
                      zip(*block_of) if n else [()] * len(PATIENT_COLUMNS)))

    def check_blocks(mask, message):
        check(np.asarray(mask, dtype=bool)[inverse],
              lambda i: message(int(inverse[i])))

    def unparsable(name, col, kind):
        return lambda i: f"cannot parse {name}={col[i]!r} as {kind}"

    def non_finite(name, col):
        return lambda i: f"non-finite {name}={col[i]!r}"

    ids = blocks["patient_id"]
    check_blocks([not c for c in ids], lambda b: "empty patient_id")
    check_blocks([not _ID_RESERVED.isdisjoint(c) for c in ids],
                 lambda b: f"patient_id {ids[b]!r} holds a comma, quote, CR "
                 "or LF")
    hour, bad = _ints(cells["hour_index"])
    check(bad, unparsable("hour_index", cells["hour_index"], "an integer"))
    check(hour < 0, lambda i: f"hour_index must be >= 0, got {int(hour[i])}")
    codes = {c: _SOURCE_CODES.get(c, -1) for c in set(cells["glucose_source"])}
    source = np.fromiter(map(codes.__getitem__, cells["glucose_source"]),
                         dtype=np.int8, count=n)
    check(source < 0,
          lambda i: f"unknown glucose_source {cells['glucose_source'][i]!r}")
    glucose, bad, present = _floats(cells["glucose_mgdl"])
    check(bad, unparsable("glucose_mgdl", cells["glucose_mgdl"], "a number"))
    check(present & ~np.isfinite(glucose),
          non_finite("glucose_mgdl", cells["glucose_mgdl"]))
    check(glucose <= 0,
          lambda i: f"glucose_mgdl must be > 0, got {float(glucose[i])}")
    check(present & (source == NO_SOURCE),
          lambda i: "glucose_mgdl present but glucose_source missing")
    covariates = names[len(FIXED_COLUMNS):]
    values = np.empty((n, len(covariates)))
    for j, (name, text) in enumerate(zip(covariates,
                                         by_position[len(FIXED_COLUMNS):])):
        values[:, j], bad, present = _floats(text)
        check(bad, unparsable(name, text, "a number"))
        check(present & ~np.isfinite(values[:, j]), non_finite(name, text))

    columns = {"hour_index": hour, "glucose_mgdl": glucose,
               "glucose_source": source, "values": values}
    for name, text in blocks.items():
        if name in ("age_years", "first_glucose_mgdl"):
            col, bad, present = _floats(text)
            check_blocks(bad | ~present, unparsable(name, text, "a number"))
            check_blocks(present & ~np.isfinite(col), non_finite(name, text))
            if name == "age_years":
                check_blocks(col < 0, lambda b: "age_years must be >= 0, got "
                             f"{float(col[b])}")
        elif name in ("sofa_admission", "elixhauser"):
            col, bad = _ints(text)
            check_blocks(bad, unparsable(name, text, "an integer"))
            if name == "sofa_admission":
                check_blocks(col < 0, lambda b: "sofa_admission must be >= 0, "
                             f"got {int(col[b])}")
        elif name in _FLAG_COLUMNS:
            flag = np.array(text, dtype=str)
            col = flag == "1"
            check_blocks(~col & (flag != "0"),
                         lambda b: f"{name} must be 0 or 1, got {text[b]!r}")
        elif name == "icd9_codes":
            col = np.array([";".join(filter(None, c.split(";"))) for c in text],
                           dtype=str)
        else:
            col = np.array(text, dtype=str)
        columns[name] = col[inverse]

    first_bad, message = min(failures, default=(n, None), key=lambda f: f[0])
    return {k: v[:first_bad] for k, v in columns.items()}, first_bad, message


def _first_integrity_failure(rows: dict[str, np.ndarray], lines: np.ndarray,
                             inverse: np.ndarray, first: np.ndarray
                             ) -> Optional[IntegrityError]:
    """The error of the first row that disagrees with its patient's first row
    on a per-patient column, or repeats an earlier row's (patient, hour)."""
    seen = first[inverse]
    inconsistent = np.zeros(len(inverse), dtype=bool)
    for name in PATIENT_COLUMNS[1:]:
        inconsistent |= rows[name] != rows[name][seen]
    hour = rows["hour_index"]
    order = np.lexsort((hour, inverse))  # stable: repeats follow in file order
    repeat = np.zeros(len(inverse), dtype=bool)
    repeat[order[1:]] = (inverse[order[1:]] == inverse[order[:-1]]) & \
        (hour[order[1:]] == hour[order[:-1]])
    bad = np.flatnonzero(inconsistent | repeat)
    if not bad.size:
        return None
    r = bad[0]
    pid = str(rows["patient_id"][r])
    if inconsistent[r]:
        return IntegrityError(pid, f"inconsistent static fields at line {lines[r]}")
    return IntegrityError(pid, f"duplicate hour_index {hour[r]} at line {lines[r]}")


def parse_cohort(
    stream: IO[str] | Iterable[str],
    covariates: Optional[Sequence[str]] = None,
) -> Cohort:
    """Parse the long-format cohort CSV into a ``Cohort``.

    Rows may arrive unsorted; they are grouped by patient, sorted by hour,
    and missing hour indices inside [0, max_hour] become all-missing rows.
    Statics come from the first row seen for a patient and must be
    consistent across all of that patient's rows.  The first malformed or
    inconsistent row in file order raises, a line the CSV reader refuses or
    a byte not UTF-8 (read with errors="surrogateescape") included; a
    patient with a single hour raises only once every row has been read.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file, expected a header row")
    except csv.Error as exc:
        raise ParseError(1, str(exc))
    if any("\0" in h for h in header):
        raise ParseError(1, "NUL character in the header")
    if _NOT_UTF8.search("".join(header)):
        raise ParseError(1, "the header is not UTF-8 text")
    header = [h.strip() for h in header]
    n_fixed = len(FIXED_COLUMNS)
    if tuple(header[:n_fixed]) != FIXED_COLUMNS:
        raise ParseError(1, f"header must start with {', '.join(FIXED_COLUMNS)}")
    file_covariates = header[n_fixed:]
    if covariates is not None and list(covariates) != file_covariates:
        raise ParseError(
            1,
            f"covariate columns {file_covariates} do not match the configured "
            f"schema {list(covariates)}",
        )
    names = FIXED_COLUMNS + tuple(file_covariates)

    # the empty first chunk gives every column its type when no rows follow
    chunks = [_parse_chunk([], names)[0]]
    chunk_lines, error = [np.zeros(0, dtype=np.int64)], None
    while error is None:
        read = reader.line_num
        block, refused = [], None
        try:
            block.extend(itertools.islice(reader, CHUNK_ROWS))
        except csv.Error as exc:
            refused = str(exc)
        # each record starts on the line after the previous one ends; only a
        # quoted line break makes a record span more than one line
        spans = np.ones(len(block), dtype=np.int64)
        if block and reader.line_num - read != len(block):
            spans += [sum(cell.count("\n") for cell in row) for row in block]
        lines = read + 1 + np.cumsum(spans) - spans
        if refused is not None:
            # named by its first line; the rows read before it are checked
            # first: they come earlier
            error = ParseError(read + 1 + int(spans.sum()), refused)
        if not block:
            break
        if not all(block):  # blank lines hold no record
            lines = lines[[bool(row) for row in block]]
            block = [row for row in block if row]
        columns, first_bad, message = _parse_chunk(block, names)
        chunks.append(columns)
        chunk_lines.append(lines[:first_bad])
        if message is not None:
            error = ParseError(int(lines[first_bad]), message)
    rows = {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
    lines = np.concatenate(chunk_lines)
    del chunks

    ids, first, inverse = np.unique(rows["patient_id"], return_index=True,
                                    return_inverse=True)
    inverse = inverse.reshape(-1)
    failure = _first_integrity_failure(rows, lines, inverse, first)
    if failure is not None:
        raise failure
    if error is not None:
        raise error

    max_hour = np.zeros(len(ids), dtype=np.int64)
    np.maximum.at(max_hour, inverse, rows["hour_index"])
    single = np.flatnonzero(max_hour == 0)
    if single.size:
        raise IntegrityError(str(ids[single[0]]), "needs at least 2 hourly records")
    bounds = np.concatenate(([0], np.cumsum(max_hour + 1)))
    at = bounds[:-1][inverse] + rows["hour_index"]
    values = np.full((bounds[-1], len(file_covariates)), np.nan)
    values[at] = rows["values"]
    glucose = np.full(bounds[-1], np.nan)
    glucose[at] = rows["glucose_mgdl"]
    source = np.full(bounds[-1], NO_SOURCE, dtype=np.int8)
    source[at] = rows["glucose_source"]
    return Cohort(tuple(file_covariates),
                  {name: rows[name][first] for name in PATIENT_COLUMNS},
                  bounds, values, glucose, source)


def filter_cohort(
    cohort: Cohort, config: PreprocessingConfig = PreprocessingConfig()
) -> tuple[Cohort, dict[str, int]]:
    """Apply cohort exclusions and the glucose-source validity rule.

    Patients are excluded for age below the minimum, admission SOFA below
    the minimum, or too many missing covariate cells. Glucose readings from
    sources outside ``VALID_GLUCOSE_SOURCES`` are set to missing
    (the hourly grid is preserved). Returns the kept patients plus exclusion
    counts keyed by the first criterion each excluded patient failed.
    """
    p = cohort.patients
    cells = cohort.lengths * len(cohort.covariates)
    missing = np.add.reduceat(np.isnan(cohort.values).sum(axis=1),
                              cohort.bounds[:-1])
    fraction = missing / np.maximum(cells, 1)
    reasons = (("age_below_minimum", p["age_years"] < config.min_age),
               ("sofa_below_minimum", p["sofa_admission"] < config.min_sofa),
               ("missing_covariates_above_maximum",
                fraction > config.max_missing_fraction))
    excluded = np.zeros(len(cells), dtype=bool)
    exclusions = {}
    for reason, fails in reasons:
        count = int(np.count_nonzero(fails & ~excluded))
        if count:
            exclusions[reason] = count
        excluded |= fails
    kept = cohort.take(np.flatnonzero(~excluded))
    valid = [GLUCOSE_SOURCES.index(s) for s in VALID_GLUCOSE_SOURCES]
    invalid = ~np.isin(kept.source, valid) & ~np.isnan(kept.glucose)
    kept.glucose[invalid] = np.nan
    kept.source[invalid] = NO_SOURCE
    if exclusions:
        log.info("filter_cohort: kept %d of %d patients, exclusions: %s",
                 len(kept.ids), len(cohort.ids), exclusions)
    return kept, exclusions


def classify_diabetes(patients: dict[str, np.ndarray]) -> np.ndarray:
    """Diabetic if any source fires: ICD-9 249.*/250.*, HbA1c >= 7.0,
    admission medications, or a history mention."""
    codes = np.char.add(";", patients["icd9_codes"])
    coded = (np.char.find(codes, ";249") >= 0) | (np.char.find(codes, ";250") >= 0)
    return (coded | patients["hba1c_ge_7"] | patients["admission_meds_diabetic"]
            | patients["history_mentions_diabetes"])


def impute_cohort(cohort: Cohort) -> tuple[Cohort, list[tuple[str, str]]]:
    """Fill missing covariate cells on the hourly grid, dropping patients
    with a covariate that is never observed.

    Interior gaps are linearly interpolated between the nearest observed
    neighbors; leading/trailing gaps take the first/last observation
    (piecewise-constant extension). Glucose is left untouched.  Returns the
    imputed cohort and (patient_id, reason) for each dropped patient.
    """
    observed = ~np.isnan(cohort.values)
    empty = np.add.reduceat(observed, cohort.bounds[:-1], axis=0) == 0
    dropped = []
    for p in np.flatnonzero(empty.any(axis=1)):
        err = ImputationError(str(cohort.ids[p]),
                              cohort.covariates[int(np.argmax(empty[p]))])
        log.warning("dropping patient: %s", err)
        dropped.append((err.patient_id, str(err)))
    kept = cohort.take(np.flatnonzero(~empty.any(axis=1)))
    starts = kept.bounds[:-1]
    owner = np.repeat(np.arange(len(starts)), kept.lengths)
    rows = np.arange(len(owner))
    for j in range(len(kept.covariates)):
        col = kept.values[:, j]
        missing = np.isnan(col)
        gaps = np.flatnonzero(missing)
        if not gaps.size:
            continue
        seen = np.flatnonzero(~missing)
        # One np.interp over the whole column: a gap between two observations
        # of its patient gets the same bits as an interp over that patient's
        # hours alone, because np.interp uses only the bracketing pair and
        # the row offsets cancel exactly in the differences.  Gaps before a
        # patient's first or after its last observation take that value.
        filled = np.interp(gaps, seen, col[seen])
        first = np.minimum.reduceat(np.where(missing, len(col), rows), starts)
        last = np.maximum.reduceat(np.where(missing, -1, rows), starts)
        edge_first, edge_last = first[owner[gaps]], last[owner[gaps]]
        filled = np.where(gaps < edge_first, col[edge_first], filled)
        filled = np.where(gaps > edge_last, col[edge_last], filled)
        col[gaps] = filled
    return kept, dropped


# --- state-vector assembly and normalization -------------------------------

# Static fields entering the per-hour state vector, in order, ahead of the
# time-varying covariates: the numeric and enum statics (enum fields are
# mapped to integer codes first), then the derived diabetic flag.
STATIC_FEATURES = STATIC_COLUMNS[:STATIC_COLUMNS.index("icd9_codes")] + ("diabetic",)


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-feature (min, max) from the training split plus enum codebooks."""

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    gender_codes: tuple[str, ...]
    icu_unit_codes: tuple[str, ...]


def state_feature_names(covariates: Sequence[str]) -> tuple[str, ...]:
    return STATIC_FEATURES + tuple(covariates)


def _raw_state_matrix(cohort: Cohort, gender_codes: Sequence[str],
                      icu_unit_codes: Sequence[str]) -> np.ndarray:
    """One state vector per row, before scaling; gender and icu_unit become
    their index in ``gender_codes`` and ``icu_unit_codes`` (unseen values
    map just past the codebook and clamp later)."""
    if np.isnan(cohort.values).any():
        raise ValueError("missing covariates, impute before normalizing")
    p = cohort.patients
    statics = np.empty((len(cohort.ids), len(STATIC_FEATURES)))
    for j, name in enumerate(STATIC_FEATURES):
        if name in ("gender", "icu_unit"):
            codebook = gender_codes if name == "gender" else icu_unit_codes
            index = {value: float(i) for i, value in enumerate(codebook)}
            statics[:, j] = [index.get(v, float(len(codebook)))
                             for v in p[name].tolist()]
        elif name == "diabetic":
            statics[:, j] = classify_diabetes(p)
        else:
            statics[:, j] = p[name]
    raw = np.empty((len(cohort.values),
                    len(STATIC_FEATURES) + len(cohort.covariates)))
    raw[:, :len(STATIC_FEATURES)] = np.repeat(statics, cohort.lengths, axis=0)
    raw[:, len(STATIC_FEATURES):] = cohort.values
    return raw


def fit_normalization(training: Cohort) -> NormalizationSpec:
    """Compute per-feature (min, max) over all training hours (train split
    only), reduced over the rows in cohort order."""
    gender_codes = tuple(sorted(set(training.patients["gender"].tolist())))
    icu_unit_codes = tuple(sorted(set(training.patients["icu_unit"].tolist())))
    raw = _raw_state_matrix(training, gender_codes, icu_unit_codes)
    return NormalizationSpec(state_feature_names(training.covariates),
                             raw.min(axis=0), raw.max(axis=0), gender_codes,
                             icu_unit_codes)


def apply_normalization(cohort: Cohort, spec: NormalizationSpec) -> np.ndarray:
    """Map each row's state vector to [0, 1] via the training (min, max).

    Features that were constant on the training split map to 0; values
    outside the training range clamp to the unit interval.
    """
    if len(spec.feature_names) != len(STATIC_FEATURES) + len(cohort.covariates):
        raise ValueError("covariate schema does not match the cohort")
    raw = _raw_state_matrix(cohort, spec.gender_codes, spec.icu_unit_codes)
    span = spec.maxs - spec.mins
    scaled = np.zeros_like(raw)
    nonconst = span > 0
    scaled[:, nonconst] = (raw[:, nonconst] - spec.mins[nonconst]) / span[nonconst]
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return scaled


def hours_dtype(n_features: int, id_width: int) -> np.dtype:
    """Row type of the model-ready hours table; split 0 is train, 1 test.
    No field holds objects, so the table saves and loads without pickle."""
    return np.dtype([("split", np.uint8), ("patient_id", "<U%d" % max(id_width, 1)),
                     ("hour", np.int64), ("glucose", np.float64),
                     ("survived", np.bool_), ("state", np.float64, (n_features,))])


def hours_table(splits: Sequence[Cohort], spec: NormalizationSpec) -> np.ndarray:
    """One normalized row per patient-hour, split by split, patient by
    patient, hour by hour; glucose is NaN where missing."""
    width = max((len(pid) for split in splits for pid in split.ids.tolist()),
                default=1)
    table = np.empty(sum(len(split.values) for split in splits),
                     dtype=hours_dtype(len(spec.feature_names), width))
    pos = 0
    for j, split in enumerate(splits):
        rows = table[pos:pos + len(split.values)]
        rows["split"] = j
        rows["patient_id"] = np.repeat(split.ids, split.lengths)
        rows["hour"] = split.hours
        rows["glucose"] = split.glucose
        rows["survived"] = np.repeat(~split.patients["died_within_90d"],
                                     split.lengths)
        rows["state"] = apply_normalization(split, spec)
        pos += len(rows)
    return table


def split_patients(
    ids: np.ndarray, survived: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Patient-level random split, outcome-stratified when possible; returns
    the train and test positions in ``ids``, each in patient-id order.

    Deterministic under the seed regardless of input order. Falls back to a
    plain random split (with a warning) when one outcome group is empty.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    ordered = np.argsort(ids, kind="stable")
    rng = np.random.default_rng(seed)
    n_test_total = int(round(len(ordered) * test_fraction))
    n_test_total = min(max(n_test_total, 1), len(ordered) - 1)

    alive = np.asarray(survived, dtype=bool)[ordered]
    groups = [ordered[~alive], ordered[alive]]
    if not groups[0].size or not groups[1].size:
        log.warning("cohort has a single outcome class, using a plain random split")
        groups, counts = [ordered], [n_test_total]
    else:
        # Largest-remainder allocation of the test quota across outcome groups.
        exact = [len(g) * test_fraction for g in groups]
        counts = [int(math.floor(e)) for e in exact]
        remainders = [e - c for e, c in zip(exact, counts)]
        while sum(counts) < n_test_total:
            i = int(np.argmax(remainders))
            counts[i] += 1
            remainders[i] = -1.0
    test = np.zeros(len(ids), dtype=bool)
    for group, n_test in zip(groups, counts):
        test[group[rng.permutation(len(group))[:n_test]]] = True
    return ordered[~test[ordered]], ordered[test[ordered]]
