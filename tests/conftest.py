import io

import numpy as np
import pytest
from hypothesis import settings

from glyrl import cohort

# Property tests draw the same examples on every run and write no example
# database, so tier-1 stays deterministic; no per-example deadline, because
# timing on a shared machine varies.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, max_examples=60)
settings.load_profile("deterministic")

COVARIATES = ["heart_rate", "sbp", "lactate"]


def cohort_header():
    return ",".join(list(cohort.FIXED_COLUMNS) + COVARIATES)


def cohort_row(
    pid,
    hour,
    age=50.0,
    gender="F",
    icu_unit="MICU",
    sofa=5,
    elixhauser=2,
    mech_vent=0,
    intubation=0,
    vasopressor=0,
    hba1c_ge_7=0,
    first_glucose=130.0,
    icd9="",
    meds=0,
    history=0,
    died=0,
    glucose="120.0",
    source="arterial",
    covs=("80.0", "110.0", "1.5"),
):
    return ",".join(
        [
            pid,
            str(hour),
            str(age),
            gender,
            icu_unit,
            str(sofa),
            str(elixhauser),
            str(mech_vent),
            str(intubation),
            str(vasopressor),
            str(hba1c_ge_7),
            str(first_glucose),
            icd9,
            str(meds),
            str(history),
            str(died),
            str(glucose),
            source if glucose else "none",
        ]
        + list(covs)
    )


def make_csv(rows):
    return io.StringIO("\n".join([cohort_header()] + rows) + "\n")


@pytest.fixture
def three_hour_patient():
    rows = [cohort_row("p1", h) for h in range(3)]
    return cohort.parse_cohort(make_csv(rows), COVARIATES)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((name, status))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}")
