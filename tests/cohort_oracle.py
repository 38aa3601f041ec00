"""Object-per-hour reference for the columnar ingest in ``glyrl.cohort``.

This is the cohort path as it was before ingest worked on numpy columns: one
``StaticCovariates`` and one ``HourRecord`` per parsed row, a
``dataclasses.replace`` per hour in filtering and imputation, and one
``apply_normalization`` call per patient.  The tests run it next to the
library and require the same artifact bytes and the same errors.  ``ingest``
is the old ``stage_ingest`` on top of it.  It departs from the old path in
two ways the columnar parser shares: the NUL check, and error lines that are
the physical line where a row starts rather than its CSV record number.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from glyrl import pipeline
from glyrl.config import PreprocessingConfig
from glyrl.cohort import (
    FIXED_COLUMNS,
    GLUCOSE_SOURCES,
    NormalizationSpec,
    VALID_GLUCOSE_SOURCES,
    hours_dtype,
    state_feature_names,
)
from glyrl.errors import DataError, ImputationError, IntegrityError, ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StaticCovariates:
    age_years: float
    gender: str
    icu_unit: str
    sofa_admission: int
    elixhauser: int
    mech_vent: bool
    intubation: bool
    vasopressor: bool
    hba1c_ge_7: bool
    first_glucose_mgdl: float
    icd9_codes: tuple[str, ...]
    admission_meds_diabetic: bool
    history_mentions_diabetes: bool


@dataclass
class HourRecord:
    hour_index: int
    covariates: list[Optional[float]]
    glucose_mgdl: Optional[float] = None
    glucose_source: str = "none"


@dataclass
class PatientSeries:
    patient_id: str
    hours: list[HourRecord]
    statics: StaticCovariates
    survived: bool  # alive at 90 days post-admission
    diabetic: Optional[bool] = None

    @property
    def n_hours(self) -> int:
        return len(self.hours)

    def missing_fraction(self) -> float:
        """Fraction of missing covariate cells over the whole series."""
        total = sum(len(h.covariates) for h in self.hours)
        if total == 0:
            return 0.0
        missing = sum(1 for h in self.hours for v in h.covariates if v is None)
        return missing / total


@dataclass
class NormalizedSeries:
    """A patient's model-ready form: per-hour state vectors in [0, 1]."""

    patient_id: str
    states: np.ndarray  # (n_hours, n_features)
    glucose: list[Optional[float]]  # post source-filter, mg/dl
    survived: bool
    diabetic: bool


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line_no, f"cannot parse {column}={text!r} as a number")
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite {column}={text!r}")
    return value


def _parse_int(text: str, line_no: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(line_no, f"cannot parse {column}={text!r} as an integer")


def _parse_flag(text: str, line_no: int, column: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ParseError(line_no, f"{column} must be 0 or 1, got {text!r}")


def _parse_statics(row: dict[str, str], line_no: int) -> StaticCovariates:
    age = _parse_float(row["age_years"], line_no, "age_years")
    if age < 0:
        raise ParseError(line_no, f"age_years must be >= 0, got {age}")
    sofa = _parse_int(row["sofa_admission"], line_no, "sofa_admission")
    if sofa < 0:
        raise ParseError(line_no, f"sofa_admission must be >= 0, got {sofa}")
    codes = tuple(c for c in row["icd9_codes"].split(";") if c)
    return StaticCovariates(
        age_years=age,
        gender=row["gender"],
        icu_unit=row["icu_unit"],
        sofa_admission=sofa,
        elixhauser=_parse_int(row["elixhauser"], line_no, "elixhauser"),
        mech_vent=_parse_flag(row["mech_vent"], line_no, "mech_vent"),
        intubation=_parse_flag(row["intubation"], line_no, "intubation"),
        vasopressor=_parse_flag(row["vasopressor"], line_no, "vasopressor"),
        hba1c_ge_7=_parse_flag(row["hba1c_ge_7"], line_no, "hba1c_ge_7"),
        first_glucose_mgdl=_parse_float(
            row["first_glucose_mgdl"], line_no, "first_glucose_mgdl"
        ),
        icd9_codes=codes,
        admission_meds_diabetic=_parse_flag(
            row["admission_meds_diabetic"], line_no, "admission_meds_diabetic"
        ),
        history_mentions_diabetes=_parse_flag(
            row["history_mentions_diabetes"], line_no, "history_mentions_diabetes"
        ),
    )


def parse_cohort(
    stream: IO[str] | Iterable[str],
    covariates: Optional[Sequence[str]] = None,
) -> list[PatientSeries]:
    """Parse the long-format cohort CSV into per-patient hourly series.

    Rows may arrive unsorted; they are grouped by patient, sorted by hour,
    and missing hour indices inside [0, max_hour] are materialized as
    all-missing records. Statics come from the first row seen for a patient
    and must be consistent across all of that patient's rows.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file, expected a header row")
    if any("\0" in h for h in header):
        raise ParseError(1, "NUL character in the header")
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
    n_cov = len(file_covariates)

    # patient_id -> hour_index -> HourRecord; plus the first-row statics.
    hours_by_patient: dict[str, dict[int, HourRecord]] = {}
    statics_by_patient: dict[str, StaticCovariates] = {}
    died_by_patient: dict[str, bool] = {}

    # a record starts on the line after the previous one ends: a quoted line
    # break makes a record span several lines
    end = reader.line_num
    for row in reader:
        line_no, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) != n_fixed + n_cov:
            raise ParseError(
                line_no, f"expected {n_fixed + n_cov} columns, got {len(row)}"
            )
        for name, text in zip(FIXED_COLUMNS + tuple(file_covariates), row):
            if "\0" in text:
                raise ParseError(line_no, f"NUL character in {name}")
        named = dict(zip(FIXED_COLUMNS, row[:n_fixed]))
        pid = named["patient_id"]
        if not pid:
            raise ParseError(line_no, "empty patient_id")
        if any(c in pid for c in ',"\r\n'):
            raise ParseError(line_no,
                             f"patient_id {pid!r} holds a comma, quote, CR or LF")
        hour = _parse_int(named["hour_index"], line_no, "hour_index")
        if hour < 0:
            raise ParseError(line_no, f"hour_index must be >= 0, got {hour}")

        glucose_text = named["glucose_mgdl"]
        source = named["glucose_source"] or "none"
        if source not in GLUCOSE_SOURCES:
            raise ParseError(line_no, f"unknown glucose_source {source!r}")
        glucose = None
        if glucose_text:
            glucose = _parse_float(glucose_text, line_no, "glucose_mgdl")
            if glucose <= 0:
                raise ParseError(line_no, f"glucose_mgdl must be > 0, got {glucose}")
            if source == "none":
                raise ParseError(
                    line_no, "glucose_mgdl present but glucose_source missing"
                )

        cov_values: list[Optional[float]] = []
        for name, text in zip(file_covariates, row[n_fixed:]):
            cov_values.append(None if text == "" else _parse_float(text, line_no, name))

        statics = _parse_statics(named, line_no)
        died = _parse_flag(named["died_within_90d"], line_no, "died_within_90d")

        if pid not in hours_by_patient:
            hours_by_patient[pid] = {}
            statics_by_patient[pid] = statics
            died_by_patient[pid] = died
        else:
            if statics != statics_by_patient[pid] or died != died_by_patient[pid]:
                raise IntegrityError(pid, f"inconsistent static fields at line {line_no}")
        if hour in hours_by_patient[pid]:
            raise IntegrityError(pid, f"duplicate hour_index {hour} at line {line_no}")
        hours_by_patient[pid][hour] = HourRecord(hour, cov_values, glucose, source)

    series_list = []
    for pid in sorted(hours_by_patient):
        by_hour = hours_by_patient[pid]
        max_hour = max(by_hour)
        if max_hour == 0:
            raise IntegrityError(pid, "needs at least 2 hourly records")
        hours = [
            by_hour.get(h, HourRecord(h, [None] * n_cov, None, "none"))
            for h in range(max_hour + 1)
        ]
        series_list.append(
            PatientSeries(
                patient_id=pid,
                hours=hours,
                statics=statics_by_patient[pid],
                survived=not died_by_patient[pid],
            )
        )
    return series_list


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_cohort(
    series_list: Sequence[PatientSeries],
    stream: IO[str],
    covariates: Sequence[str],
) -> None:
    """Serialize series back to the long-format CSV (round-trips with parse)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(FIXED_COLUMNS) + list(covariates))
    for series in series_list:
        s = series.statics
        static_cells = [
            _format_cell(s.age_years),
            s.gender,
            s.icu_unit,
            str(s.sofa_admission),
            str(s.elixhauser),
            _format_cell(s.mech_vent),
            _format_cell(s.intubation),
            _format_cell(s.vasopressor),
            _format_cell(s.hba1c_ge_7),
            _format_cell(s.first_glucose_mgdl),
            ";".join(s.icd9_codes),
            _format_cell(s.admission_meds_diabetic),
            _format_cell(s.history_mentions_diabetes),
        ]
        died = "0" if series.survived else "1"
        for hour in series.hours:
            glucose = "" if hour.glucose_mgdl is None else repr(hour.glucose_mgdl)
            source = hour.glucose_source if hour.glucose_mgdl is not None else "none"
            writer.writerow(
                [series.patient_id, str(hour.hour_index)]
                + static_cells
                + [died, glucose, source]
                + [_format_cell(v) for v in hour.covariates]
            )


def filter_cohort(
    series_list: Sequence[PatientSeries],
    config: PreprocessingConfig = PreprocessingConfig(),
) -> tuple[list[PatientSeries], Counter]:
    """Apply cohort exclusions and the glucose-source validity rule.

    Patients are excluded for age below the minimum, admission SOFA below
    the minimum, or too many missing covariate cells. Glucose readings from
    sources outside ``VALID_GLUCOSE_SOURCES`` are set to missing
    (the hourly grid is preserved). Returns the kept series plus exclusion
    counts keyed by the first criterion each excluded patient failed.
    """
    kept: list[PatientSeries] = []
    exclusions: Counter = Counter()
    for series in series_list:
        if series.statics.age_years < config.min_age:
            exclusions["age_below_minimum"] += 1
            continue
        if series.statics.sofa_admission < config.min_sofa:
            exclusions["sofa_below_minimum"] += 1
            continue
        if series.missing_fraction() > config.max_missing_fraction:
            exclusions["missing_covariates_above_maximum"] += 1
            continue
        hours = []
        for hour in series.hours:
            if (
                hour.glucose_mgdl is not None
                and hour.glucose_source not in VALID_GLUCOSE_SOURCES
            ):
                hours.append(replace(hour, glucose_mgdl=None, glucose_source="none"))
            else:
                hours.append(hour)
        kept.append(replace(series, hours=hours))
    if exclusions:
        log.info(
            "filter_cohort: kept %d of %d patients, exclusions: %s",
            len(kept),
            len(series_list),
            dict(exclusions),
        )
    return kept, exclusions


def classify_diabetes(statics: StaticCovariates) -> bool:
    """Diabetic if any source fires: ICD-9 249.*/250.*, HbA1c >= 7.0,
    admission medications, or a history mention."""
    if any(code.startswith(("249", "250")) for code in statics.icd9_codes):
        return True
    return (
        statics.hba1c_ge_7
        or statics.admission_meds_diabetic
        or statics.history_mentions_diabetes
    )


def annotate_diabetes(series_list: Sequence[PatientSeries]) -> list[PatientSeries]:
    return [replace(s, diabetic=classify_diabetes(s.statics)) for s in series_list]


def impute_series(
    series: PatientSeries, covariate_names: Optional[Sequence[str]] = None
) -> PatientSeries:
    """Fill missing covariate cells on the hourly grid.

    Interior gaps are linearly interpolated between the nearest observed
    neighbors; leading/trailing gaps take the first/last observation
    (piecewise-constant extension). Glucose is left untouched.
    """
    if not series.hours:
        return series
    n_cov = len(series.hours[0].covariates)
    grid = np.arange(len(series.hours), dtype=float)
    columns = []
    for j in range(n_cov):
        values = [h.covariates[j] for h in series.hours]
        obs_idx = [i for i, v in enumerate(values) if v is not None]
        if not obs_idx:
            name = covariate_names[j] if covariate_names else f"covariate_{j}"
            raise ImputationError(series.patient_id, name)
        obs_hours = grid[obs_idx]
        obs_values = np.array([values[i] for i in obs_idx], dtype=float)
        columns.append(np.interp(grid, obs_hours, obs_values))
    hours = [
        replace(h, covariates=[float(columns[j][i]) for j in range(n_cov)])
        for i, h in enumerate(series.hours)
    ]
    return replace(series, hours=hours)


def impute_cohort(
    series_list: Sequence[PatientSeries],
    covariate_names: Optional[Sequence[str]] = None,
) -> tuple[list[PatientSeries], list[tuple[str, str]]]:
    """Impute every series, dropping patients where imputation is impossible.

    Returns (imputed series, list of (patient_id, reason) for drops).
    """
    kept = []
    dropped = []
    for series in series_list:
        try:
            kept.append(impute_series(series, covariate_names))
        except ImputationError as err:
            dropped.append((series.patient_id, str(err)))
            log.warning("dropping patient: %s", err)
    return kept, dropped


def _enum_code(value: str, codebook: tuple[str, ...]) -> float:
    # Unseen categories map just past the known range and clamp to 1 later.
    try:
        return float(codebook.index(value))
    except ValueError:
        return float(len(codebook))


def _raw_state_matrix(series: PatientSeries, spec: NormalizationSpec) -> np.ndarray:
    if series.diabetic is None:
        raise ValueError(
            f"patient {series.patient_id}: diabetic flag unset, run annotate_diabetes first"
        )
    s = series.statics
    static_row = np.array(
        [
            s.age_years,
            _enum_code(s.gender, spec.gender_codes),
            _enum_code(s.icu_unit, spec.icu_unit_codes),
            float(s.sofa_admission),
            float(s.elixhauser),
            float(s.mech_vent),
            float(s.intubation),
            float(s.vasopressor),
            float(s.hba1c_ge_7),
            s.first_glucose_mgdl,
            float(series.diabetic),
        ]
    )
    rows = np.empty((len(series.hours), len(static_row) + len(series.hours[0].covariates)))
    rows[:, : len(static_row)] = static_row
    for i, hour in enumerate(series.hours):
        if any(v is None for v in hour.covariates):
            raise ValueError(
                f"patient {series.patient_id}: hour {hour.hour_index} has missing "
                "covariates, impute before normalizing"
            )
        rows[i, len(static_row):] = hour.covariates
    return rows


def fit_normalization(
    training_series: Sequence[PatientSeries], covariates: Sequence[str]
) -> NormalizationSpec:
    """Compute per-feature (min, max) over all training hours (train split only)."""
    if not training_series:
        raise ValueError("cannot fit normalization on an empty training split")
    gender_codes = tuple(sorted({s.statics.gender for s in training_series}))
    icu_codes = tuple(sorted({s.statics.icu_unit for s in training_series}))
    spec = NormalizationSpec(
        feature_names=state_feature_names(covariates),
        mins=np.zeros(0),
        maxs=np.zeros(0),
        gender_codes=gender_codes,
        icu_unit_codes=icu_codes,
    )
    # one preallocated matrix: each series' raw rows are freed before the
    # next series is built, which keeps ingest's peak memory down
    stacked = np.empty((sum(len(s.hours) for s in training_series),
                        len(spec.feature_names)))
    pos = 0
    for series in training_series:
        raw = _raw_state_matrix(series, spec)
        if raw.shape[1] != stacked.shape[1]:
            raise ValueError("covariate schema does not match the series")
        stacked[pos:pos + len(raw)] = raw
        pos += len(raw)
    return replace(spec, mins=stacked.min(axis=0), maxs=stacked.max(axis=0))


def apply_normalization(
    series: PatientSeries, spec: NormalizationSpec
) -> NormalizedSeries:
    """Map each state-vector cell to [0, 1] via the training (min, max).

    Features that were constant on the training split map to 0; values
    outside the training range clamp to the unit interval.
    """
    raw = _raw_state_matrix(series, spec)
    span = spec.maxs - spec.mins
    scaled = np.zeros_like(raw)
    nonconst = span > 0
    scaled[:, nonconst] = (raw[:, nonconst] - spec.mins[nonconst]) / span[nonconst]
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return NormalizedSeries(
        patient_id=series.patient_id,
        states=scaled,
        glucose=[h.glucose_mgdl for h in series.hours],
        survived=series.survived,
        diabetic=bool(series.diabetic),
    )


def hours_table(
    splits: Sequence[Sequence[PatientSeries]], spec: NormalizationSpec
) -> np.ndarray:
    """One normalized row per patient-hour, split by split, series by series,
    hour by hour; glucose is NaN where missing."""
    tagged = [(j, series) for j, split in enumerate(splits) for series in split]
    width = max((len(series.patient_id) for _, series in tagged), default=1)
    table = np.empty(sum(len(series.hours) for _, series in tagged),
                     dtype=hours_dtype(len(spec.feature_names), width))
    pos = 0
    for j, series in tagged:
        normalized = apply_normalization(series, spec)
        rows = table[pos:pos + len(series.hours)]
        rows["split"], rows["patient_id"], rows["survived"] = \
            j, series.patient_id, series.survived
        rows["hour"] = [h.hour_index for h in series.hours]
        rows["glucose"] = [np.nan if g is None else g for g in normalized.glucose]
        rows["state"] = normalized.states
        pos += len(rows)
    return table


def split_patients(
    series_list: Sequence[PatientSeries], test_fraction: float, seed: int
) -> tuple[list[PatientSeries], list[PatientSeries]]:
    """Patient-level random split, outcome-stratified when possible.

    Deterministic under the seed regardless of input order. Falls back to a
    plain random split (with a warning) when one outcome group is empty.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    ordered = sorted(series_list, key=lambda s: s.patient_id)
    rng = np.random.default_rng(seed)
    n_test_total = int(round(len(ordered) * test_fraction))
    n_test_total = min(max(n_test_total, 1), len(ordered) - 1)

    died = [s for s in ordered if not s.survived]
    alive = [s for s in ordered if s.survived]
    if not died or not alive:
        log.warning("cohort has a single outcome class, using a plain random split")
        perm = rng.permutation(len(ordered))
        test_idx = set(perm[:n_test_total].tolist())
        test = [s for i, s in enumerate(ordered) if i in test_idx]
        train = [s for i, s in enumerate(ordered) if i not in test_idx]
        return train, test

    # Largest-remainder allocation of the test quota across outcome groups.
    groups = [died, alive]
    exact = [len(g) * test_fraction for g in groups]
    counts = [int(math.floor(e)) for e in exact]
    remainders = [e - c for e, c in zip(exact, counts)]
    while sum(counts) < n_test_total:
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1.0
    while sum(counts) > n_test_total:
        i = int(np.argmin(remainders))
        counts[i] -= 1
        remainders[i] = 2.0
    train: list[PatientSeries] = []
    test: list[PatientSeries] = []
    for group, n_test in zip(groups, counts):
        perm = rng.permutation(len(group))
        chosen = set(perm[:n_test].tolist())
        test.extend(s for i, s in enumerate(group) if i in chosen)
        train.extend(s for i, s in enumerate(group) if i not in chosen)
    train.sort(key=lambda s: s.patient_id)
    test.sort(key=lambda s: s.patient_id)
    return train, test


def ingest(config, input_csv: str, art_dir: str) -> None:
    """``pipeline.stage_ingest`` on the object path: the same four files."""
    with open(input_csv, encoding="utf-8") as fh:
        patients = parse_cohort(fh, config.covariates)
    n_parsed = len(patients)
    kept, exclusions = filter_cohort(patients, config.preprocessing)
    imputed, dropped = impute_cohort(annotate_diabetes(kept), config.covariates)
    if not imputed:
        raise DataError("no patients left after filtering and imputation")
    train, test = split_patients(imputed, config.split.test_fraction,
                                 pipeline.derive_seed(config.seed, "split"))
    spec = fit_normalization(train, config.covariates)
    pipeline._write(os.path.join(art_dir, "norm_spec.json"),
                    pipeline._norm_spec_doc(spec))
    pipeline._write(os.path.join(art_dir, "hours.npy"),
                    hours_table((train, test), spec))
    buf = io.StringIO()
    write_cohort(test, buf, config.covariates)
    pipeline._write(os.path.join(art_dir, "test.csv"), buf.getvalue())
    pipeline._write(os.path.join(art_dir, "exclusions.json"), {
        "parsed_patients": n_parsed,
        "filtered": {k: int(v) for k, v in sorted(exclusions.items())},
        "imputation_dropped": sorted([pid, reason] for pid, reason in dropped),
        "train_patients": len(train),
        "test_patients": len(test),
    })
