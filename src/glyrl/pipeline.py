"""Stage orchestration: cohort CSV in, calibrated policy report out.

Each stage is a function over one stage's view of an artifacts directory:
it reads the files earlier stages wrote and writes its own.  run_stage is
the one way to run a stage, for the CLI subcommands and run_pipeline alike:
it opens that view, runs the stage on it and, once the stage returns,
records what it wrote in the manifest, dropping the entries of the stages
after it.  Within one run_pipeline call a stage also hands the value of a
file it wrote to the one later stage that reads it, which then skips
reading the file back.  Every byte written is a pure function of (config,
master seed, input CSV); reruns must reproduce artifacts exactly, which the
manifest's checksums make checkable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import math
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
)
from .config import PipelineConfig
from .encoder import EncoderParams, encode, load_encoder, save_encoder, train
from .errors import ArtifactError, ConfigError, DataError, GlyrlError
from .mdp import (
    ActionSpace,
    Trajectories,
    build_trajectories,
    check_header,
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
    policy_evaluation,
    policy_iteration,
    read_solution,
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


def write_file(path: str, content) -> str:
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
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                sha256.update(part)
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no partial file behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return sha256.hexdigest()


# --- manifest ----------------------------------------------------------------


def _manifest_read(art_dir: str) -> dict:
    path = os.path.join(art_dir, MANIFEST_FILE)
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except FileNotFoundError:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_FORMAT_VERSION,
            "stages": {},
        }
    except NotADirectoryError as exc:
        # the artifacts directory, or one above it, is a regular file
        raise ConfigError("cannot write %s: %s" % (path, exc))
    except (OSError, ValueError, RecursionError) as exc:
        raise ArtifactError("cannot read manifest %s: %s" % (path, exc))
    try:
        check_header(doc, MANIFEST_FORMAT, MANIFEST_FORMAT_VERSION)
    except ValueError as exc:
        raise ArtifactError("manifest %s: %s" % (path, exc))
    if not isinstance(doc.get("stages"), dict):
        raise ArtifactError("manifest %s: stages is not a mapping" % path)
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
            return write_file(path, content)
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

    def record(self, config: PipelineConfig) -> None:
        """Write the manifest with this stage's entry: what it wrote.  The
        entries of later stages, made from what this one rewrote, and of a
        stage that no longer exists are dropped."""
        self.manifest.update(config_digest=config.digest(), seed=config.seed)
        stages = self.manifest["stages"]
        stages[self.stage] = self.written
        names = [name for name, _, _ in STAGES]
        self.manifest["stages"] = {
            name: stages[name]
            for name in names[:names.index(self.stage) + 1] if name in stages}
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
    # a leading byte-order mark is dropped, as spreadsheets write one; a
    # byte that is not UTF-8 is refused by parse_cohort in its row
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            return parse_cohort(fh, covariates)
    except DataError as exc:
        # name the file, but keep the class and its fields (a
        # ParseError's line_number, an IntegrityError's patient_id)
        exc.args = ("cohort %s %s" % (path, exc),)
        raise
    except OSError as exc:
        raise ArtifactError("cannot read cohort %s: %s" % (path, exc))


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


def _parse_npy(data: bytes) -> np.ndarray:
    """np.load of the bytes of a .npy file whose header's shape and type
    account for exactly the bytes after it, checked before anything is
    allocated: np.load allocates the shape the header declares, and it
    ignores bytes beyond it."""
    fh = io.BytesIO(data)
    np.lib.format.read_magic(fh)
    shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    expected, found = math.prod(shape) * dtype.itemsize, len(data) - fh.tell()
    if found != expected:
        raise ValueError("its header declares shape %r of %s, %d bytes, but "
                         "%d bytes follow it" % (shape, dtype, expected, found))
    fh.seek(0)
    return np.load(fh, allow_pickle=False)


def _load_hours(config: PipelineConfig,
                files: _StageFiles) -> Tuple[np.ndarray, int]:
    """hours.npy and its number of (leading) training rows."""
    rows = files.read("ingest", HOURS_FILE, "model-ready hours", _parse_npy)
    # checked once the file's bytes are freed
    problem = _hours_problem(rows, len(state_feature_names(config.covariates)))
    if problem is not None:
        raise ArtifactError("malformed model-ready hours %s: %s"
                            % (files.path(HOURS_FILE), problem))
    return rows, int(np.count_nonzero(rows["split"] == 0))


def _check_k(config: PipelineConfig, train_hours: int) -> None:
    """k-means needs a training hour per cluster."""
    if config.clustering.k > train_hours:
        raise ConfigError("clustering.k is %d, but the cohort has only %d "
                          "training hours" % (config.clustering.k, train_hours))


# --- stages -------------------------------------------------------------------


def stage_ingest(config: PipelineConfig, input_csv: str,
                 files: _StageFiles) -> None:
    """Parse, filter, impute, split, fit normalization (train only), and
    write the model-ready hours every later stage reads."""
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
    _check_k(config, len(train.values))  # before anything is written

    spec = fit_normalization(train)
    files.write("norm_spec.json", _norm_spec_doc(spec))
    files.write(HOURS_FILE, hours_table((train, test), spec))
    # the benchmark's policy-agreement check reads the test split's hours
    files.write("test.csv", write_table(
        "patient_id,hour_index", "%s,%d\n",
        (np.repeat(test.ids, test.lengths), test.hours)))
    files.write("exclusions.json", {
        "parsed_patients": n_parsed,
        "filtered": dict(sorted(exclusions.items())),
        "imputation_dropped": sorted([pid, reason] for pid, reason in dropped),
        "train_patients": len(train.ids),
        "test_patients": len(test.ids),
    })
    log.info("ingest: %d parsed, %d train / %d test",
             n_parsed, len(train.ids), len(test.ids))


def stage_train_encoder(config: PipelineConfig, files: _StageFiles) -> None:
    """Fit the sparse autoencoder on training-hour state vectors."""
    if config.representation != "sparse_ae":
        log.info("representation %r needs no encoder, skipping",
                 config.representation)
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


def stage_cluster(config: PipelineConfig, files: _StageFiles) -> None:
    """Fit k-means on training hours; assign every hour of both splits."""
    rows, n_train = _load_hours(config, files)
    _check_k(config, n_train)
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
        if params.input_dim != points_train.shape[1]:
            raise ArtifactError(
                "%s takes %d state features but %s has %d; rerun "
                "train-encoder" % (files.path(ENCODER_FILE), params.input_dim,
                                   files.path(HOURS_FILE),
                                   points_train.shape[1]))
        points_train = encode(points_train, params)
        if len(points_test):
            points_test = encode(points_test, params)
    model = kmeans_fit(points_train, config.clustering.k,
                       seed=derive_seed(config.seed, "kmeans"),
                       max_iters=config.clustering.max_iters,
                       tol=config.clustering.tol)
    del points_train  # the fit's labels are all the stage needs of them
    files.write("clusters.model", save_clusters(model))

    labels = model.labels
    if len(points_test):
        labels = np.concatenate((labels, assign_many(points_test, model)))
    files.write("assignments.csv", write_table(
        ASSIGNMENT_COLUMNS, "%s,%d,%d\n", (ids, hours, labels)),
        decoded=labels)
    files.manifest["representation"] = config.representation


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


def stage_build_mdp(config: PipelineConfig, files: _StageFiles) -> None:
    """Turn assigned hours into trajectories and count the training MDP."""
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
    files.write(MDP_FILE, save_mdp(model), decoded=model)
    for split in ("train", "test"):
        files.write(TRAJECTORY_FILE % split, write_trajectories(trajs[split]),
                    decoded=_as_read(trajs[split]))


def stage_solve(config: PipelineConfig, files: _StageFiles) -> None:
    """Policy-iterate the optimal policy; evaluate the behavioral one."""
    model = files.read("build-mdp", MDP_FILE, "MDP",
                       lambda data: load_mdp(data.decode()))
    epsilon = config.solver.epsilon
    optimal = policy_iteration(model, epsilon=epsilon)
    pi_real = extract_real_policy(model)
    v_real = policy_evaluation(model, pi_real, epsilon=epsilon)
    # V over the k non-terminal states, the ones each file lists
    files.write(SOLUTION_FILE % "optimal",
                write_solution("optimal", optimal.policy, optimal.V,
                               optimal.eval_sweeps, optimal.improvements),
                decoded=optimal.V[:model.k])
    files.write(SOLUTION_FILE % "real",
                write_solution("real", pi_real, v_real, eval_sweeps=0,
                               improvements=0),
                decoded=v_real[:model.k])
    files.write(SOLUTION_FILE % "q_optimal", write_q_table(optimal))


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
    """mdp/trajectories_<split>.csv, every step inside the k-state MDP and
    every patient ending in SURVIVE or DEATH."""
    def parse(data: bytes) -> Trajectories:
        trajs = read_trajectories(data.decode())
        if split == "train" and not trajs:
            raise ValueError("lists no trajectories")
        trajs.check(k)
        last = np.zeros(len(trajs.state), dtype=bool)
        last[trajs.bounds[1:] - 1] = True
        off = np.flatnonzero((trajs.next_state >= k) != last)
        if off.size:
            raise ValueError("line %d steps to state %d; a patient's last step, "
                             "and only it, enters SURVIVE (%d) or DEATH (%d)"
                             % (off[0] + 2, trajs.next_state[off[0]], k, k + 1))
        return trajs

    return files.read("build-mdp", TRAJECTORY_FILE % split, "trajectory file",
                      parse)


def stage_evaluate(config: PipelineConfig, files: _StageFiles) -> dict:
    """Fit the mortality-versus-return curve on the training split, score
    both policies' solved values on the test split through it, and anchor
    the logged policy's estimate against training data."""
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

    if not trajs_test:
        log.warning("empty test split, scoring on the training split")
        trajs_test = trajs_train
    doc = calib.evaluate(v_real, v_opt, curve, trajs_train, trajs_test,
                         representation, config.digest(), config.seed)
    files.write("report.json", doc)
    return doc


def run_stage(name: str, config: PipelineConfig, *paths: str,
              handoff: Optional[dict] = None):
    """Run stage ``name`` on its inputs, then the artifacts directory, in
    ``paths``, and record it in the manifest if it returns.  The stage
    function is looked up when called, so a replaced module attribute (a
    test double, a tracing wrapper) runs."""
    *inputs, art_dir = paths
    try:
        files = _StageFiles(art_dir, name, handoff)
        result = globals()["stage_" + name.replace("-", "_")](
            config, *inputs, files)
        files.record(config)
    except GlyrlError as exc:
        # name the stage, but keep the class and its fields (a
        # TrainingDivergedError's epoch, a ParseError's line_number)
        exc.args = ("stage %r: %s" % (name, exc),)
        raise
    return result


def run_pipeline(config: PipelineConfig, input_csv: str, art_dir: str) -> dict:
    """Chain every stage over one artifacts directory, each handing the
    files it writes to their reader; returns the report."""
    config.validate()
    handoff = {}
    for name, _, reads_cohort in STAGES:
        inputs = (input_csv,) if reads_cohort else ()
        report = run_stage(name, config, *inputs, art_dir, handoff=handoff)
    return report
