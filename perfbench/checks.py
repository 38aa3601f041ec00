"""Output checks and ground-truth quality measures for one pipeline run.

Everything here reads only the artifacts directory and the generator's
ground truth, never the pipeline's in-memory state, so the same checks
apply to the command-line runs and to the traced run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Dict, List, Tuple

# the key set acceptance criterion 01 pins
REPORT_KEYS = {
    "cohort_mortality", "config_digest", "optimal", "real",
    "representation", "seed", "train_anchor",
}
POLICY_KEYS = {"estimated_mortality", "mean_expected_return"}
ANCHOR_KEYS = {"empirical_mortality", "estimated_mortality_real"}


class CheckFailed(Exception):
    """An artifact is missing, malformed or inconsistent."""


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed("cannot read %s: %s" % (path, exc))


def check_report(art_dir: str) -> dict:
    """report.json carries exactly the pinned key set; returns it."""
    report = _read_json(os.path.join(art_dir, "report.json"))
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        raise CheckFailed("report.json keys %r differ from %r"
                          % (sorted(report) if isinstance(report, dict)
                             else report, sorted(REPORT_KEYS)))
    for name, keys in (("real", POLICY_KEYS), ("optimal", POLICY_KEYS),
                       ("train_anchor", ANCHOR_KEYS)):
        if not isinstance(report[name], dict) or set(report[name]) != keys:
            raise CheckFailed("report.json %s keys differ from %r"
                              % (name, sorted(keys)))
    return report


def check_manifest(art_dir: str) -> Dict[str, str]:
    """Every SHA-256 the manifest records matches its file.

    Returns the checksums by relative path.
    """
    manifest = _read_json(os.path.join(art_dir, "manifest.json"))
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not stages:
        raise CheckFailed("manifest.json records no stages")
    sums: Dict[str, str] = {}
    for stage, files in sorted(stages.items()):
        for rel, recorded in sorted(files.items()):
            path = os.path.join(art_dir, rel)
            if not os.path.isfile(path):
                raise CheckFailed("manifest lists missing file %s" % rel)
            actual = file_sha256(path)
            if actual != recorded:
                raise CheckFailed("%s: manifest says %s, file hashes to %s"
                                  % (rel, recorded[:12], actual[:12]))
            sums[rel] = actual
    return sums


def artifact_digest(art_dir: str, sums: Dict[str, str]) -> str:
    """One SHA-256 over the manifest and every file it checksums.

    Files outside the manifest (timing sidecars, logs) are left out, so the
    digest covers exactly what the determinism contract covers.
    """
    h = hashlib.sha256()
    h.update(file_sha256(os.path.join(art_dir, "manifest.json")).encode())
    for rel in sorted(sums):
        h.update(("\n%s %s" % (rel.replace(os.sep, "/"), sums[rel])).encode())
    return h.hexdigest()


def artifact_bytes(art_dir: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(art_dir):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _patient_hours(path: str) -> List[Tuple[str, int]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pid_col = header.index("patient_id")
        hour_col = header.index("hour_index")
        return [(row[pid_col], int(row[hour_col])) for row in reader if row]


def _assignments(path: str) -> Dict[Tuple[str, int], int]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {(pid, int(hour)): int(state) for pid, hour, state in reader}


def _policy_actions(path: str) -> Dict[int, int]:
    with open(path) as fh:
        fh.readline()  # JSON header
        reader = csv.reader(fh)
        next(reader)
        return {int(s): int(a) for s, a, _ in reader}


def policy_agreement(art_dir: str, truth) -> float:
    """Share of test-split patient-hours whose learned action is optimal.

    The learned action is solution/optimal.csv's action for the state
    assignments.csv gives the hour; the optimal one is the ground truth's
    pi_star for the hour's true latent state.
    """
    try:
        hours = _patient_hours(os.path.join(art_dir, "test.csv"))
        states = _assignments(os.path.join(art_dir, "assignments.csv"))
        actions = _policy_actions(os.path.join(art_dir, "solution",
                                               "optimal.csv"))
        if not hours:
            raise CheckFailed("test split is empty")
        agree = sum(
            actions[states[(pid, hour)]]
            == int(truth.pi_star[truth.latent_states[pid][hour]])
            for pid, hour in hours)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        raise CheckFailed("cannot score policy agreement: %r" % (exc,))
    return agree / len(hours)


def anchor_error(report: dict) -> float:
    """|estimated - empirical| training mortality, in mortality points."""
    anchor = report["train_anchor"]
    return abs(float(anchor["estimated_mortality_real"])
               - float(anchor["empirical_mortality"]))
