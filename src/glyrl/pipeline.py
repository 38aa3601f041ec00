"""Stage orchestration: cohort CSV in, calibrated policy report out.

Each stage is a function over an artifacts directory: it reads the files
earlier stages wrote and writes its own, so the CLI subcommands and
run_pipeline are the same code path.  Every byte written is a pure
function of (config, master seed, input CSV); reruns must reproduce
artifacts exactly, which the manifest's checksums make checkable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import calib
from .cluster import ClusterModel, assign_many, kmeans_fit, save_clusters
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
    FilterCriteria,
)
from .config import PipelineConfig
from .encoder import (
    SparsityConfig,
    TrainConfig,
    encode,
    load_encoder,
    save_encoder,
    train,
)
from .errors import ArtifactError, DataError, GlyrlError
from .mdp import (
    ActionSpace,
    AssignedSeries,
    Trajectory,
    build_trajectories,
    estimate_mdp,
    extract_real_policy,
    load_mdp,
    read_trajectories,
    save_mdp,
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

MANIFEST_FORMAT = "glyrl-manifest"
MANIFEST_FORMAT_VERSION = 1

STAGE_ORDER = ("ingest", "train-encoder", "cluster", "build-mdp",
               "solve", "calibrate", "evaluate")


def derive_seed(master: int, stream: str) -> int:
    """Stable per-stage substream seed from the master seed and a name."""
    digest = hashlib.sha256(("%d/%s" % (master, stream)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --- manifest ----------------------------------------------------------------


def _manifest_path(art_dir: str) -> str:
    return os.path.join(art_dir, "manifest.json")


def _manifest_read(art_dir: str) -> dict:
    path = _manifest_path(art_dir)
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
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ArtifactError("%s is not a pipeline manifest" % path)
    return doc


def _manifest_record(art_dir: str, config: PipelineConfig, stage: str,
                     files: Sequence[str], extra: Optional[dict] = None) -> None:
    doc = _manifest_read(art_dir)
    doc["config_digest"] = config.digest()
    doc["seed"] = config.seed
    if extra:
        doc.update(extra)
    doc["stages"][stage] = {
        rel: _sha256(os.path.join(art_dir, rel)) for rel in sorted(files)
    }
    _write_json(_manifest_path(art_dir), doc)


# --- normalization spec serialization ----------------------------------------

NORM_SPEC_FORMAT = "glyrl-norm-spec"


def _save_norm_spec(path: str, spec: NormalizationSpec) -> None:
    _write_json(path, {
        "format": NORM_SPEC_FORMAT,
        "version": 1,
        "feature_names": list(spec.feature_names),
        "mins": [repr(float(v)) for v in spec.mins],
        "maxs": [repr(float(v)) for v in spec.maxs],
        "gender_codes": list(spec.gender_codes),
        "icu_unit_codes": list(spec.icu_unit_codes),
    })


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
ENCODER_FILE = "encoder.model"
MDP_FILE = os.path.join("mdp", "mdp.txt")
TRAJECTORY_FILE = os.path.join("mdp", "trajectories_%s.csv")
SOLUTION_FILE = os.path.join("solution", "%s.csv")


def _save_hours(path: str, table: np.ndarray) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, table, allow_pickle=False)
    os.replace(tmp, path)


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


def _read_artifact(art_dir: str, stage: str, rel: str, what: str, parse):
    """``parse`` of the bytes of ``rel``, read once and checked against the
    SHA-256 that ``stage``'s manifest entry records.  A file that cannot be
    read, does not match or does not parse raises an ArtifactError naming it."""
    path = os.path.join(art_dir, rel)
    stages = _manifest_read(art_dir).get("stages")
    entry = stages.get(stage) if isinstance(stages, dict) else None
    recorded = entry.get(rel) if isinstance(entry, dict) else None
    if recorded is None:
        raise ArtifactError("the manifest records no %s checksum for %s; "
                            "rerun %s" % (stage, path, stage))
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ArtifactError("cannot read %s %s: %s" % (what, path, exc))
    if hashlib.sha256(data).hexdigest() != recorded:
        raise ArtifactError("%s does not match the SHA-256 the %s manifest "
                            "entry records; rerun %s" % (path, stage, stage))
    try:
        return parse(data)
    except KeyError as exc:
        raise ArtifactError("malformed %s %s: no %s field" % (what, path, exc))
    except (ValueError, TypeError, IndexError, OverflowError, RecursionError,
            EOFError, csv.Error) as exc:
        raise ArtifactError("malformed %s %s: %s" % (what, path, exc))


def _load_hours(config: PipelineConfig, art_dir: str) -> Tuple[np.ndarray, int]:
    """hours.npy and its number of (leading) training rows."""
    rows = _read_artifact(art_dir, "ingest", HOURS_FILE, "model-ready hours",
                          lambda data: np.load(io.BytesIO(data),
                                               allow_pickle=False))
    # checked once the file's bytes are freed
    problem = _hours_problem(rows, len(state_feature_names(config.covariates)))
    if problem is not None:
        raise ArtifactError("malformed model-ready hours %s: %s"
                            % (os.path.join(art_dir, HOURS_FILE), problem))
    return rows, int(np.count_nonzero(rows["split"] == 0))


# --- stages -------------------------------------------------------------------


def stage_ingest(config: PipelineConfig, input_csv: str, art_dir: str) -> None:
    """Parse, filter, impute, split, fit normalization (train only), and
    write the model-ready hours every later stage reads."""
    os.makedirs(art_dir, exist_ok=True)
    parsed = _read_cohort_file(input_csv, config.covariates)
    criteria = FilterCriteria(
        min_age=config.preprocessing.min_age,
        min_sofa=config.preprocessing.min_sofa,
        max_missing_fraction=config.preprocessing.max_missing_fraction,
    )
    kept, exclusions = filter_cohort(parsed, criteria)
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

    spec = fit_normalization(train)
    _save_norm_spec(os.path.join(art_dir, "norm_spec.json"), spec)
    _save_hours(os.path.join(art_dir, HOURS_FILE), hours_table((train, test), spec))
    for name, subset in (("train.csv", train), ("test.csv", test)):
        buf = io.StringIO()
        write_cohort(subset, buf)
        _write_text(os.path.join(art_dir, name), buf.getvalue())
    _write_json(os.path.join(art_dir, "exclusions.json"), {
        "parsed_patients": n_parsed,
        "filtered": dict(sorted(exclusions.items())),
        "imputation_dropped": sorted([pid, reason] for pid, reason in dropped),
        "train_patients": len(train.ids),
        "test_patients": len(test.ids),
    })
    _manifest_record(art_dir, config, "ingest",
                     ["train.csv", "test.csv", "norm_spec.json", "exclusions.json",
                      HOURS_FILE])
    log.info("ingest: %d parsed, %d train / %d test",
             n_parsed, len(train.ids), len(test.ids))


def stage_train_encoder(config: PipelineConfig, art_dir: str) -> None:
    """Fit the sparse autoencoder on training-hour state vectors."""
    if config.representation != "sparse_ae":
        log.info("representation %r needs no encoder, skipping",
                 config.representation)
        _manifest_record(art_dir, config, "train-encoder", [])
        return
    rows, n_train = _load_hours(config, art_dir)
    dataset = np.ascontiguousarray(rows["state"][:n_train])
    del rows  # training needs the room
    enc = config.encoder
    params = train(
        dataset,
        TrainConfig(epochs=enc.epochs, batch_size=enc.batch_size,
                    learning_rate=enc.learning_rate,
                    seed=derive_seed(config.seed, "encoder"),
                    optimizer=enc.optimizer),
        SparsityConfig(target=enc.sparsity_target, beta=enc.beta),
        latent_dim=enc.latent_dim,
    )
    _write_text(os.path.join(art_dir, ENCODER_FILE), save_encoder(
        params, hyperparameters={"sparsity_target": enc.sparsity_target,
                                 "beta": enc.beta, "epochs": enc.epochs,
                                 "batch_size": enc.batch_size,
                                 "learning_rate": enc.learning_rate,
                                 "optimizer": enc.optimizer}))
    _manifest_record(art_dir, config, "train-encoder", [ENCODER_FILE])


def stage_cluster(config: PipelineConfig, art_dir: str) -> None:
    """Fit k-means on training hours; assign every hour of both splits."""
    rows, n_train = _load_hours(config, art_dir)
    # contiguous copies: on a strided view of the table numpy would skip BLAS,
    # which changes the bits of every matrix product
    points_train = np.ascontiguousarray(rows["state"][:n_train])
    points_test = np.ascontiguousarray(rows["state"][n_train:])
    # free the table before k-means needs its scratch space
    ids, hours = rows["patient_id"].tolist(), rows["hour"].tolist()
    del rows
    if config.representation == "sparse_ae":
        params = _read_artifact(art_dir, "train-encoder", ENCODER_FILE,
                                "encoder model",
                                lambda data: load_encoder(data.decode()))
        points_train = encode(points_train, params)
        if len(points_test):
            points_test = encode(points_test, params)
    model = kmeans_fit(points_train, config.clustering.k,
                       seed=derive_seed(config.seed, "kmeans"),
                       max_iters=config.clustering.max_iters,
                       tol=config.clustering.tol)
    _write_text(os.path.join(art_dir, "clusters.model"), save_clusters(model))

    labels_test = assign_many(points_test, model).tolist() if len(points_test) \
        else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["patient_id", "hour_index", "state_id"])
    writer.writerows(zip(ids, hours, model.labels.tolist() + labels_test))
    _write_text(os.path.join(art_dir, "assignments.csv"), buf.getvalue())
    _manifest_record(art_dir, config, "cluster",
                     ["clusters.model", "assignments.csv"],
                     extra={"representation": config.representation})


def _aligned_labels(art_dir: str, rows: np.ndarray, k: int) -> np.ndarray:
    """The state of each row of ``rows``; assignments.csv must list the same
    patient-hours in the same order."""
    def parse(data: bytes) -> np.ndarray:
        # decoded as it is read, like a file: no second copy of the text
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                             newline=""))
        if next(reader, None) != ["patient_id", "hour_index", "state_id"]:
            raise ValueError("not an assignments file")
        ids, ints = [], []
        for row in reader:
            if len(row) != 3:
                raise ValueError("line %d does not have 3 fields"
                                 % reader.line_num)
            ids.append(row[0])
            ints.append((int(row[1]), int(row[2])))
        if len(ids) != len(rows):
            raise ValueError("%d rows but %s has %d"
                             % (len(ids), HOURS_FILE, len(rows)))
        hours, labels = np.array(ints, dtype=np.int64).reshape(-1, 2).T
        off = np.flatnonzero((np.array(ids, dtype=str) != rows["patient_id"])
                             | (hours != rows["hour"]))
        if off.size:
            raise ValueError("line %d does not line up with %s"
                             % (off[0] + 2, HOURS_FILE))
        off = np.flatnonzero((labels < 0) | (labels >= k))
        if off.size:
            raise ValueError("line %d: state %d outside [0, %d)"
                             % (off[0] + 2, labels[off[0]], k))
        return labels

    return _read_artifact(art_dir, "cluster", "assignments.csv", "assignments",
                          parse)


def _assigned(rows: np.ndarray, labels: np.ndarray) -> List[AssignedSeries]:
    """Cut aligned rows and labels into one series per patient."""
    first = np.flatnonzero(rows["hour"] == 0)
    bounds = first.tolist() + [len(rows)]
    states = labels.tolist()
    glucose = [None if g != g else g for g in rows["glucose"].tolist()]
    return [AssignedSeries(pid, states[a:b], glucose[a:b], alive)
            for pid, alive, a, b in zip(rows["patient_id"][first].tolist(),
                                        rows["survived"][first].tolist(),
                                        bounds, bounds[1:])]


def stage_build_mdp(config: PipelineConfig, art_dir: str) -> None:
    """Turn assigned hours into trajectories and count the training MDP."""
    rows, n_train = _load_hours(config, art_dir)
    k = config.clustering.k
    labels = _aligned_labels(art_dir, rows, k)
    space = ActionSpace(config.mdp.bin_edges)
    trajs_train = build_trajectories(
        _assigned(rows[:n_train], labels[:n_train]), space, k)
    trajs_test = build_trajectories(
        _assigned(rows[n_train:], labels[n_train:]), space, k)
    if not trajs_train:
        raise DataError("no usable training trajectories")
    model = estimate_mdp(trajs_train, k, min_count=config.mdp.min_count,
                         gamma=config.mdp.gamma, action_space=space)
    os.makedirs(os.path.join(art_dir, "mdp"), exist_ok=True)
    _write_text(os.path.join(art_dir, MDP_FILE), save_mdp(model))
    for split, trajs in (("train", trajs_train), ("test", trajs_test)):
        _write_text(os.path.join(art_dir, TRAJECTORY_FILE % split),
                    write_trajectories(trajs))
    _manifest_record(art_dir, config, "build-mdp",
                     [MDP_FILE, TRAJECTORY_FILE % "train",
                      TRAJECTORY_FILE % "test"])


def stage_solve(config: PipelineConfig, art_dir: str) -> None:
    """Policy-iterate the optimal policy; evaluate the behavioral one."""
    model = _read_artifact(art_dir, "build-mdp", MDP_FILE, "MDP",
                           lambda data: load_mdp(data.decode()))
    pi_real = extract_real_policy(model)
    optimal, v_real = solve(model, pi_real, epsilon=config.solver.epsilon)
    real = PolicySolution(policy=pi_real, V=v_real, Q=None,
                          eval_sweeps=0, improvements=0, converged=True)
    os.makedirs(os.path.join(art_dir, "solution"), exist_ok=True)
    for label, solution in (("optimal", optimal), ("real", real)):
        _write_text(os.path.join(art_dir, SOLUTION_FILE % label),
                    write_solution(solution, label))
    q_table = os.path.join("solution", "q_optimal.csv")
    _write_text(os.path.join(art_dir, q_table), write_q_table(optimal))
    _manifest_record(art_dir, config, "solve",
                     [SOLUTION_FILE % "optimal", SOLUTION_FILE % "real",
                      q_table])


def _read_values(art_dir: str, label: str) -> np.ndarray:
    """V over the k non-terminal states from solution/<label>.csv."""
    def parse(data: bytes) -> np.ndarray:
        _, values, found = read_solution(data.decode())
        if found != label:
            raise ValueError("holds the %r solution, expected %r"
                             % (found, label))
        if not np.all(np.isfinite(values)):
            raise ValueError("holds a value that is not finite")
        return values

    return _read_artifact(art_dir, "solve", SOLUTION_FILE % label, "solution",
                          parse)


def _read_trajectories(art_dir: str, split: str, k: int) -> List[Trajectory]:
    """mdp/trajectories_<split>.csv, every step inside the k-state MDP."""
    def parse(data: bytes) -> List[Trajectory]:
        trajs = read_trajectories(data.decode())
        if split == "train" and not trajs:
            raise ValueError("lists no trajectories")
        for traj in trajs:
            for s, _, sp in traj.steps:
                if not (0 <= s < k and 0 <= sp < k + 2):
                    raise ValueError(
                        "patient %s steps from state %d to %d; states must "
                        "lie in [0, %d) and next states in [0, %d)"
                        % (traj.patient_id, s, sp, k, k + 2))
        return trajs

    return _read_artifact(art_dir, "build-mdp", TRAJECTORY_FILE % split,
                          "trajectory file", parse)


def stage_calibrate(config: PipelineConfig, art_dir: str) -> None:
    """Fit the mortality-versus-return curve on the training split."""
    v_real = _read_values(art_dir, "real")
    trajs_train = _read_trajectories(art_dir, "train", len(v_real))
    curve = calib.fit_curve(v_real, trajs_train,
                            n_bins=config.calibration.n_bins,
                            min_bin_support=config.calibration.min_bin_support)
    _write_text(os.path.join(art_dir, "curve.csv"), calib.emit_curve_csv(curve))
    _manifest_record(art_dir, config, "calibrate", ["curve.csv"])


def stage_evaluate(config: PipelineConfig, art_dir: str) -> dict:
    """Score both policies' solved values on the test split; anchor the
    logged policy's estimate against training data."""
    v_real = _read_values(art_dir, "real")
    v_opt = _read_values(art_dir, "optimal")
    k = len(v_real)
    if len(v_opt) != k:
        raise ArtifactError("%s covers %d states but real.csv covers %d"
                            % (os.path.join(art_dir, SOLUTION_FILE % "optimal"),
                               len(v_opt), k))
    curve = _read_artifact(art_dir, "calibrate", "curve.csv",
                           "calibration curve",
                           lambda data: calib.parse_curve_csv(data.decode()))
    trajs_train = _read_trajectories(art_dir, "train", k)
    trajs_test = _read_trajectories(art_dir, "test", k)

    representation = config.representation
    manifest = _manifest_read(art_dir)
    recorded = manifest.get("representation")
    if recorded is not None and recorded != representation:
        log.warning("config says representation %r but the artifacts were "
                    "built with %r; keeping the artifact label",
                    representation, recorded)
        representation = recorded

    mapping = config.calibration.mortality_mapping
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
        mortality_mapping=mapping,
    )
    doc = calib.report_to_dict(report)

    visits_train = calib.visitation_from_trajectories(trajs_train, k)
    doc["train_anchor"] = {
        "estimated_mortality_real": calib.score(
            v_real, curve, visits_train / visits_train.sum(),
            mapping).estimated_mortality,
        "empirical_mortality": calib.empirical_mortality(trajs_train, k),
    }
    _write_json(os.path.join(art_dir, "report.json"), doc)
    _manifest_record(art_dir, config, "evaluate", ["report.json"])
    return doc


def _run_stage(name: str, fn, *args):
    try:
        return fn(*args)
    except GlyrlError as exc:
        # name the stage, but keep the class and its fields (a
        # TrainingDivergedError's epoch, a ParseError's line_number)
        exc.args = ("stage %r: %s" % (name, exc),)
        raise


def run_pipeline(config: PipelineConfig, input_csv: str, art_dir: str) -> dict:
    """Chain every stage over one artifacts directory; returns the report."""
    config.validate()
    _run_stage("ingest", stage_ingest, config, input_csv, art_dir)
    _run_stage("train-encoder", stage_train_encoder, config, art_dir)
    _run_stage("cluster", stage_cluster, config, art_dir)
    _run_stage("build-mdp", stage_build_mdp, config, art_dir)
    _run_stage("solve", stage_solve, config, art_dir)
    _run_stage("calibrate", stage_calibrate, config, art_dir)
    return _run_stage("evaluate", stage_evaluate, config, art_dir)
