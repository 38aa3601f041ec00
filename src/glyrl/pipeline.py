"""Stage orchestration: cohort CSV in, calibrated policy report out.

Each stage is a function over an artifacts directory: it reads the files
earlier stages wrote and writes its own, so the CLI subcommands and
run_pipeline are the same code path.  Within one run_pipeline call a stage
also hands the value of a file it wrote to the one later stage that reads
it, which then skips reading the file back.  Every byte written is a pure
function of (config, master seed, input CSV); reruns must reproduce
artifacts exactly, which the manifest's checksums make checkable.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
from typing import Optional, Sequence, Tuple

import numpy as np

from . import calib
from .cluster import assign_many, kmeans_fit, save_clusters
from .cohort import (
    Cohort,
    NormalizationSpec,
    filter_cohort,
    fit_normalization,
    hours_dtype,
    hours_table,
    impute_cohort,
    parse_cohort,
    split_patients,
    state_feature_names,
    write_cohort,
)
from .config import PipelineConfig
from .encoder import EncoderParams, encode, load_encoder, save_encoder, train
from .errors import ArtifactError, ConfigError, DataError, GlyrlError
from .mdp import (
    ActionSpace,
    Trajectories,
    build_trajectories,
    estimate_mdp,
    extract_real_policy,
    load_mdp,
    read_table,
    read_trajectories,
    save_mdp,
    write_table,
    write_trajectories,
)
from .solver import (
    PolicySolution,
    read_solution,
    solve,
    write_q_table,
    write_solution,
)

log = logging.getLogger(__name__)

MANIFEST_FILE = "manifest.json"
MANIFEST_FORMAT = "glyrl-manifest"
MANIFEST_FORMAT_VERSION = 1

# Every stage in run order: its name, its CLI help, and whether it reads the
# cohort CSV.  Stage "build-mdp" runs stage_build_mdp, looked up when it runs.
STAGES = (
    ("ingest", "parse, filter, impute, split, fit normalization", True),
    ("train-encoder", "fit the sparse autoencoder on the training split", False),
    ("cluster", "fit k-means and assign every hour to a state", False),
    ("build-mdp", "count the training MDP from assigned trajectories", False),
    ("solve", "policy-iterate the optimal policy, evaluate the real one", False),
    ("evaluate", "fit the mortality-versus-return curve, score both "
                 "policies and write report.json", False),
)


def derive_seed(master: int, stream: str) -> int:
    """Stable per-stage substream seed from the master seed and a name."""
    digest = hashlib.sha256(("%d/%s" % (master, stream)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _write(path: str, content) -> str:
    """Write ``content`` to ``path`` through a temporary file, creating its
    directory, and return the SHA-256 of the bytes written: text as UTF-8,
    a dict as sorted JSON, an array without objects as np.save writes it.
    The bytes are hashed and written a slice at a time, never copied whole."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=1, sort_keys=True) + "\n"
    if isinstance(content, str):
        parts = (content[at:at + (1 << 20)].encode("utf-8")
                 for at in range(0, len(content), 1 << 20))
    else:
        # the header, then views of the array's memory: np.save would copy
        # the array, 16 MiB at a time, into anything but a plain file
        content = np.ascontiguousarray(content)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, np.lib.format.header_data_from_array_1_0(content))
        data = content.reshape(-1).view(np.uint8)
        parts = [header.getvalue()] + [data[at:at + (1 << 20)]
                                       for at in range(0, len(data), 1 << 20)]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    sha256 = hashlib.sha256()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for part in parts:
            sha256.update(part)
            fh.write(part)
    os.replace(tmp, path)
    return sha256.hexdigest()


# --- manifest ----------------------------------------------------------------


def _manifest_read(art_dir: str) -> dict:
    path = os.path.join(art_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_FORMAT_VERSION,
            "stages": {},
        }
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ArtifactError("cannot read manifest %s: %s" % (path, exc))
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT or \
            not isinstance(doc.get("stages"), dict):
        raise ArtifactError("%s is not a pipeline manifest" % path)
    return doc


class _StageFiles:
    """One stage's view of the artifacts directory: the manifest, read once
    when the stage starts; checked reads of what earlier stages wrote; and
    the SHA-256 of each file the stage writes, taken as it is written.

    ``handoff``, shared by the stages of one run, maps a file a stage wrote
    to (its SHA-256, its value as the reader's ``parse`` would return it)."""

    def __init__(self, art_dir: str, stage: str,
                 handoff: Optional[dict] = None):
        self.dir, self.stage = art_dir, stage
        self.manifest = _manifest_read(art_dir)
        self.written = {}
        self.handoff = {} if handoff is None else handoff

    def path(self, rel: str) -> str:
        return os.path.join(self.dir, rel)

    def _put(self, rel: str, content) -> str:
        path = self.path(rel)
        try:
            return _write(path, content)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (path, exc))

    def write(self, rel: str, content, decoded=None) -> None:
        """Write ``rel``; a ``decoded`` value goes to its reader in this
        run."""
        self.written[rel] = self._put(rel, content)
        if decoded is not None:
            self.handoff[rel] = (self.written[rel], decoded)

    def read(self, writer: str, rel: str, what: str, parse):
        """``parse`` of the bytes of ``rel``, read once and checked against
        the SHA-256 that ``writer``'s manifest entry records, or the value
        handed off with that SHA-256.  A file that cannot be read, does not
        match or does not parse raises an ArtifactError naming it."""
        path = self.path(rel)
        entry = self.manifest["stages"].get(writer)
        recorded = entry.get(rel) if isinstance(entry, dict) else None
        if recorded is None:
            raise ArtifactError("the manifest records no %s checksum for %s; "
                                "rerun %s" % (writer, path, writer))
        sha256, value = self.handoff.pop(rel, (None, None))
        if sha256 == recorded:
            return value
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ArtifactError("cannot read %s %s: %s" % (what, path, exc))
        if hashlib.sha256(data).hexdigest() != recorded:
            raise ArtifactError("%s does not match the SHA-256 the %s manifest "
                                "entry records; rerun %s" % (path, writer, writer))
        try:
            return parse(data)
        except KeyError as exc:
            raise ArtifactError("malformed %s %s: no %s field" % (what, path, exc))
        except (ValueError, TypeError, IndexError, OverflowError,
                RecursionError, EOFError) as exc:
            raise ArtifactError("malformed %s %s: %s" % (what, path, exc))

    def record(self, config: PipelineConfig, **extra) -> None:
        """Write the manifest with this stage's entry: what it wrote.  An
        entry of a stage that no longer exists is dropped, so no file is
        listed twice or with the hash of bytes since rewritten."""
        self.manifest.update(config_digest=config.digest(), seed=config.seed,
                             **extra)
        stages = self.manifest["stages"]
        stages[self.stage] = self.written
        self.manifest["stages"] = {name: stages[name] for name, _, _ in STAGES
                                   if name in stages}
        self._put(MANIFEST_FILE, self.manifest)


# --- normalization spec serialization ----------------------------------------

NORM_SPEC_FORMAT = "glyrl-norm-spec"


def _norm_spec_doc(spec: NormalizationSpec) -> dict:
    return {
        "format": NORM_SPEC_FORMAT,
        "version": 1,
        "feature_names": list(spec.feature_names),
        "mins": [repr(float(v)) for v in spec.mins],
        "maxs": [repr(float(v)) for v in spec.maxs],
        "gender_codes": list(spec.gender_codes),
        "icu_unit_codes": list(spec.icu_unit_codes),
    }


# --- shared artifact access ---------------------------------------------------


def _read_cohort_file(path: str, covariates: Sequence[str]) -> Cohort:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_cohort(fh, covariates)
    except OSError as exc:
        raise ArtifactError("cannot read cohort %s: %s" % (path, exc))
    except csv.Error:
        # csv.reader counts the lines it has read: read again to the bad row
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                for _ in reader:
                    pass
            except csv.Error as exc:
                raise DataError("cohort %s line %d: %s"
                                % (path, reader.line_num, exc))
        raise
    except UnicodeDecodeError:
        # the decoder reads ahead of the CSV reader: locate the bad byte itself
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("cohort %s line %d is not UTF-8 text (%s)" % (
                path, data.count(b"\n", 0, exc.start) + 1, exc.reason))
        raise


HOURS_FILE = "hours.npy"
ASSIGNMENT_COLUMNS = "patient_id,hour_index,state_id"
ENCODER_FILE = "encoder.model"
MDP_FILE = os.path.join("mdp", "mdp.txt")
TRAJECTORY_FILE = os.path.join("mdp", "trajectories_%s.csv")
SOLUTION_FILE = os.path.join("solution", "%s.csv")


def _hours_problem(rows: np.ndarray, n_features: int) -> Optional[str]:
    """Why ``rows`` is not a model-ready hours table, or None if it is."""
    id_type = (rows.dtype.fields or {}).get("patient_id", (None,))[0]
    if id_type is None or id_type.kind != "U" or \
            rows.dtype != hours_dtype(n_features, id_type.itemsize // 4):
        return "row type %s, expected %d state features" % (rows.dtype, n_features)
    if rows.ndim != 1 or len(rows) == 0:
        return "shape %r, expected one row per hour" % (rows.shape,)
    split, hour = rows["split"], rows["hour"]
    if split[0] != 0 or np.any(split > 1) or np.any(split[1:] < split[:-1]):
        return "split column is not training rows, then test rows"
    starts = np.flatnonzero(hour == 0)
    if hour[0] != 0 or np.any(
            hour != np.arange(len(rows)) - starts[np.cumsum(hour == 0) - 1]):
        return "hour indices do not run 0, 1, ... within each patient"
    if not np.all((rows["state"] >= 0.0) & (rows["state"] <= 1.0)):
        return "state values outside [0, 1] or not finite"
    glucose = rows["glucose"]
    if not np.all(np.isnan(glucose) | ((glucose > 0.0) & (glucose < np.inf))):
        return "glucose values neither positive and finite nor missing"
    return None


def _load_hours(config: PipelineConfig,
                files: _StageFiles) -> Tuple[np.ndarray, int]:
    """hours.npy and its number of (leading) training rows."""
    rows = files.read("ingest", HOURS_FILE, "model-ready hours",
                      lambda data: np.load(io.BytesIO(data), allow_pickle=False))
    # checked once the file's bytes are freed
    problem = _hours_problem(rows, len(state_feature_names(config.covariates)))
    if problem is not None:
        raise ArtifactError("malformed model-ready hours %s: %s"
                            % (files.path(HOURS_FILE), problem))
    return rows, int(np.count_nonzero(rows["split"] == 0))


# --- stages -------------------------------------------------------------------


def stage_ingest(config: PipelineConfig, input_csv: str, art_dir: str,
                 handoff: Optional[dict] = None) -> None:
    """Parse, filter, impute, split, fit normalization (train only), and
    write the model-ready hours every later stage reads."""
    files = _StageFiles(art_dir, "ingest", handoff)
    parsed = _read_cohort_file(input_csv, config.covariates)
    kept, exclusions = filter_cohort(parsed, config.preprocessing)
    n_parsed = len(parsed.ids)
    # free each copy of the cohort once the next one exists: ingest's peak
    # memory is the largest two copies, not all of them
    del parsed
    imputed, dropped = impute_cohort(kept)
    del kept
    if not len(imputed.ids):
        raise DataError("no patients left after filtering and imputation")
    train_at, test_at = split_patients(
        imputed.ids, ~imputed.patients["died_within_90d"],
        config.split.test_fraction, derive_seed(config.seed, "split"))
    train, test = imputed.take(train_at), imputed.take(test_at)
    del imputed
    # k-means needs a training hour per cluster; refuse before writing
    train_hours = len(train.values)
    if config.clustering.k > train_hours:
        raise ConfigError("clustering.k is %d, but the cohort has only %d "
                          "training hours" % (config.clustering.k, train_hours))

    spec = fit_normalization(train)
    files.write("norm_spec.json", _norm_spec_doc(spec))
    files.write(HOURS_FILE, hours_table((train, test), spec))
    # the benchmark's policy-agreement check reads the test split's hours
    buf = io.StringIO()
    write_cohort(test, buf)
    files.write("test.csv", buf.getvalue())
    files.write("exclusions.json", {
        "parsed_patients": n_parsed,
        "filtered": dict(sorted(exclusions.items())),
        "imputation_dropped": sorted([pid, reason] for pid, reason in dropped),
        "train_patients": len(train.ids),
        "test_patients": len(test.ids),
    })
    files.record(config)
    log.info("ingest: %d parsed, %d train / %d test",
             n_parsed, len(train.ids), len(test.ids))


def stage_train_encoder(config: PipelineConfig, art_dir: str,
                        handoff: Optional[dict] = None) -> None:
    """Fit the sparse autoencoder on training-hour state vectors."""
    files = _StageFiles(art_dir, "train-encoder", handoff)
    if config.representation != "sparse_ae":
        log.info("representation %r needs no encoder, skipping",
                 config.representation)
        files.record(config)
        return
    rows, n_train = _load_hours(config, files)
    dataset = np.ascontiguousarray(rows["state"][:n_train])
    del rows  # training needs the room
    params = train(dataset, config.encoder, derive_seed(config.seed, "encoder"))
    # latent_dim is recorded with the weights' shapes
    hyperparameters = dataclasses.asdict(config.encoder)
    del hyperparameters["latent_dim"]
    # as load_encoder returns it: contiguous weights, no loss history
    files.write(ENCODER_FILE, save_encoder(params, hyperparameters),
                decoded=EncoderParams(*(
                    np.ascontiguousarray(w, dtype=float) for w in
                    (params.W_enc, params.b_enc, params.W_dec, params.b_dec))))
    files.record(config)


def stage_cluster(config: PipelineConfig, art_dir: str,
                  handoff: Optional[dict] = None) -> None:
    """Fit k-means on training hours; assign every hour of both splits."""
    files = _StageFiles(art_dir, "cluster", handoff)
    rows, n_train = _load_hours(config, files)
    # contiguous copies: on a strided view of the table numpy would skip BLAS,
    # which changes the bits of every matrix product
    points_train = np.ascontiguousarray(rows["state"][:n_train])
    points_test = np.ascontiguousarray(rows["state"][n_train:])
    # free the table before k-means needs its scratch space
    ids, hours = rows["patient_id"].copy(), rows["hour"].copy()
    del rows
    if config.representation == "sparse_ae":
        params = files.read("train-encoder", ENCODER_FILE, "encoder model",
                            lambda data: load_encoder(data.decode()))
        points_train = encode(points_train, params)
        if len(points_test):
            points_test = encode(points_test, params)
    model = kmeans_fit(points_train, config.clustering.k,
                       seed=derive_seed(config.seed, "kmeans"),
                       max_iters=config.clustering.max_iters,
                       tol=config.clustering.tol)
    files.write("clusters.model", save_clusters(model))

    labels = model.labels
    if len(points_test):
        labels = np.concatenate((labels, assign_many(points_test, model)))
    files.write("assignments.csv", write_table(
        ASSIGNMENT_COLUMNS, "%s,%d,%d\n", (ids, hours, labels)),
        decoded=labels)
    files.record(config, representation=config.representation)


def _aligned_labels(files: _StageFiles, rows: np.ndarray, k: int) -> np.ndarray:
    """The state of each row of ``rows``; assignments.csv must list the same
    patient-hours in the same order."""
    def parse(data: bytes) -> np.ndarray:
        _, (ids, hours, labels) = read_table(
            data.decode(), "cluster assignment", ASSIGNMENT_COLUMNS,
            (str, int, int))
        if len(ids) != len(rows):
            raise ValueError("%d rows but %s has %d"
                             % (len(ids), HOURS_FILE, len(rows)))
        off = np.flatnonzero((ids != rows["patient_id"])
                             | (hours != rows["hour"]))
        if off.size:
            raise ValueError("line %d does not line up with %s"
                             % (off[0] + 2, HOURS_FILE))
        off = np.flatnonzero((labels < 0) | (labels >= k))
        if off.size:
            raise ValueError("line %d: state %d outside [0, %d)"
                             % (off[0] + 2, labels[off[0]], k))
        return labels

    return files.read("cluster", "assignments.csv", "assignments", parse)


def _as_read(trajs: Trajectories) -> Trajectories:
    """``trajs`` as read_trajectories returns them from their text: the id
    column only as wide as its longest id."""
    width = int(np.char.str_len(trajs.patient_ids).max(initial=1))
    return dataclasses.replace(
        trajs, patient_ids=trajs.patient_ids.astype("<U%d" % width))


def stage_build_mdp(config: PipelineConfig, art_dir: str,
                    handoff: Optional[dict] = None) -> None:
    """Turn assigned hours into trajectories and count the training MDP."""
    files = _StageFiles(art_dir, "build-mdp", handoff)
    rows, n_train = _load_hours(config, files)
    k = config.clustering.k
    labels = _aligned_labels(files, rows, k)
    space = ActionSpace(config.mdp.bin_edges)
    trajs = {}
    for split, at in (("train", slice(0, n_train)),
                      ("test", slice(n_train, len(rows)))):
        part = rows[at]
        first = np.flatnonzero(part["hour"] == 0)
        trajs[split] = build_trajectories(
            part["patient_id"][first], np.append(first, len(part)),
            labels[at], part["glucose"], part["survived"][first], space, k)
    if not trajs["train"]:
        raise DataError("no usable training trajectories")
    model = estimate_mdp(trajs["train"], k, min_count=config.mdp.min_count,
                         gamma=config.mdp.gamma, action_space=space)
    files.write(MDP_FILE, save_mdp(model),
                decoded=dataclasses.replace(model, gamma=float(model.gamma)))
    for split in ("train", "test"):
        files.write(TRAJECTORY_FILE % split, write_trajectories(trajs[split]),
                    decoded=_as_read(trajs[split]))
    files.record(config)


def stage_solve(config: PipelineConfig, art_dir: str,
                handoff: Optional[dict] = None) -> None:
    """Policy-iterate the optimal policy; evaluate the behavioral one."""
    files = _StageFiles(art_dir, "solve", handoff)
    model = files.read("build-mdp", MDP_FILE, "MDP",
                       lambda data: load_mdp(data.decode()))
    pi_real = extract_real_policy(model)
    optimal, v_real = solve(model, pi_real, epsilon=config.solver.epsilon)
    real = PolicySolution(policy=pi_real, V=v_real, Q=None,
                          eval_sweeps=0, improvements=0, converged=True)
    for label, solution in (("optimal", optimal), ("real", real)):
        # V over the k non-terminal states, the ones the file lists
        files.write(SOLUTION_FILE % label, write_solution(solution, label),
                    decoded=solution.V[:model.k])
    files.write(SOLUTION_FILE % "q_optimal", write_q_table(optimal))
    files.record(config)


def _read_values(files: _StageFiles, label: str) -> np.ndarray:
    """V over the k non-terminal states from solution/<label>.csv."""
    def parse(data: bytes) -> np.ndarray:
        _, values, found = read_solution(data.decode())
        if found != label:
            raise ValueError("holds the %r solution, expected %r"
                             % (found, label))
        if not np.all(np.isfinite(values)):
            raise ValueError("holds a value that is not finite")
        return values

    return files.read("solve", SOLUTION_FILE % label, "solution", parse)


def _read_trajectories(files: _StageFiles, split: str,
                       k: int) -> Trajectories:
    """mdp/trajectories_<split>.csv, every step inside the k-state MDP."""
    def parse(data: bytes) -> Trajectories:
        trajs = read_trajectories(data.decode())
        if split == "train" and not trajs:
            raise ValueError("lists no trajectories")
        trajs.check(k)
        return trajs

    return files.read("build-mdp", TRAJECTORY_FILE % split, "trajectory file",
                      parse)


def stage_evaluate(config: PipelineConfig, art_dir: str,
                   handoff: Optional[dict] = None) -> dict:
    """Fit the mortality-versus-return curve on the training split, score
    both policies' solved values on the test split through it, and anchor
    the logged policy's estimate against training data."""
    files = _StageFiles(art_dir, "evaluate", handoff)
    v_real = _read_values(files, "real")
    v_opt = _read_values(files, "optimal")
    k = len(v_real)
    if len(v_opt) != k:
        raise ArtifactError("%s covers %d states but real.csv covers %d"
                            % (files.path(SOLUTION_FILE % "optimal"),
                               len(v_opt), k))
    trajs_train = _read_trajectories(files, "train", k)
    trajs_test = _read_trajectories(files, "test", k)
    curve = calib.fit_curve(v_real, trajs_train,
                            n_bins=config.calibration.n_bins,
                            min_bin_support=config.calibration.min_bin_support)
    files.write("curve.csv", calib.emit_curve_csv(curve))

    representation = config.representation
    recorded = files.manifest.get("representation")
    if recorded is not None and recorded != representation:
        log.warning("config says representation %r but the artifacts were "
                    "built with %r; keeping the artifact label",
                    representation, recorded)
        representation = recorded

    scoring = trajs_test if trajs_test else trajs_train
    if not trajs_test:
        log.warning("empty test split, scoring on the training split")
    visits = calib.visitation_from_trajectories(scoring, k)
    report = calib.evaluate(
        v_real, v_opt, curve,
        visits / visits.sum(),
        calib.empirical_mortality(scoring, k),
        representation=representation,
        config_digest=config.digest(),
        seed=config.seed,
    )
    doc = calib.report_to_dict(report)

    visits_train = calib.visitation_from_trajectories(trajs_train, k)
    doc["train_anchor"] = {
        "estimated_mortality_real": calib.score(
            v_real, curve, visits_train / visits_train.sum()
        ).estimated_mortality,
        "empirical_mortality": calib.empirical_mortality(trajs_train, k),
    }
    files.write("report.json", doc)
    files.record(config)
    return doc


def stage_function(name: str):
    """The function that runs stage ``name``, looked up when called, so a
    replaced module attribute (a test double, a tracing wrapper) runs."""
    return globals()["stage_" + name.replace("-", "_")]


def _run_stage(name: str, *args, **kwargs):
    try:
        return stage_function(name)(*args, **kwargs)
    except GlyrlError as exc:
        # name the stage, but keep the class and its fields (a
        # TrainingDivergedError's epoch, a ParseError's line_number)
        exc.args = ("stage %r: %s" % (name, exc),)
        raise


def run_pipeline(config: PipelineConfig, input_csv: str, art_dir: str) -> dict:
    """Chain every stage over one artifacts directory, each handing the
    files it writes to their reader; returns the report."""
    config.validate()
    handoff = {}
    for name, _, reads_cohort in STAGES:
        inputs = (input_csv,) if reads_cohort else ()
        report = _run_stage(name, config, *inputs, art_dir, handoff=handoff)
    return report
