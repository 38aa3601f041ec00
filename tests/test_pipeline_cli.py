"""End-to-end pipeline and CLI behavior.

One small synthetic cohort is pushed through the full pipeline once per
module; the tests then check determinism, the staged-versus-run equivalence,
exit codes, and a pinned report so silent behavior drift shows up as a diff.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil

import numpy as np
import pytest
import yaml

import cohort_oracle
from conftest import cohort_row, make_csv
from glyrl import cli, cohort, mdp, pipeline, synthgen
from glyrl.cohort import (NormalizationSpec, apply_normalization, hours_dtype,
                          parse_cohort)
from glyrl.config import PipelineConfig, load_config
from glyrl.errors import ConvergenceError, ParseError, TrainingDivergedError
from glyrl.solver import read_solution

N_PATIENTS = 200
COHORT_SEED = 5
PIPELINE_SEED = 3

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

# every file a later stage of a raw run reads from the artifacts directory,
# and the stages that read it
READERS = {
    "hours.npy": ["cluster", "build-mdp"],
    "assignments.csv": ["build-mdp"],
    "mdp/mdp.txt": ["solve"],
    "solution/real.csv": ["evaluate"],
    "solution/optimal.csv": ["evaluate"],
    "mdp/trajectories_train.csv": ["evaluate"],
    "mdp/trajectories_test.csv": ["evaluate"],
}

CONFIG_YAML = """
seed: 3
clustering:
  k: 5
"""

SPARSE_CONFIG_YAML = CONFIG_YAML + """
representation: sparse_ae
encoder:
  epochs: 2
  latent_dim: 4
"""

# the files whose decoded value one stage of a run hands to its reader
HANDED_OFF = set(READERS) - {"hours.npy"}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def tree_hashes(root):
    hashes = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cohort = root / "cohort.csv"
    csv_text, truth = synthgen.generate(
        synthgen.ladder_config(N_PATIENTS, seed=COHORT_SEED))
    cohort.write_text(csv_text)
    config = root / "config.yaml"
    config.write_text(CONFIG_YAML)
    return {"root": root, "cohort": str(cohort), "config": str(config),
            "truth": truth}


@pytest.fixture(scope="module")
def golden(workspace):
    art = workspace["root"] / "golden"
    rc, stdout = run_cli(["run", "--config", workspace["config"],
                          "--input", workspace["cohort"], "--out", str(art)])
    assert rc == 0
    return {"art": str(art), "stdout": stdout,
            "report": json.loads((art / "report.json").read_text())}


def test_expected_artifact_files(golden):
    assert sorted(tree_hashes(golden["art"])) == [
        "assignments.csv",
        "clusters.model",
        "curve.csv",
        "exclusions.json",
        "hours.npy",
        "manifest.json",
        "mdp/mdp.txt",
        "mdp/trajectories_test.csv",
        "mdp/trajectories_train.csv",
        "norm_spec.json",
        "report.json",
        "solution/optimal.csv",
        "solution/q_optimal.csv",
        "solution/real.csv",
        "test.csv",
    ]


def test_report_matches_pinned_values(golden):
    # golden numbers for the 200-patient seed-5 cohort under seed-3 config;
    # a change here means pipeline behavior changed, not just formatting
    report = golden["report"]
    pin = lambda x: pytest.approx(x, rel=1e-9, abs=1e-12)
    assert report["seed"] == 3
    assert report["representation"] == "raw"
    assert report["cohort_mortality"] == pin(0.358974358974359)
    assert report["real"]["mean_expected_return"] == pin(15.810059711224822)
    assert report["real"]["estimated_mortality"] == pin(0.3410648213230155)
    assert report["optimal"]["mean_expected_return"] == pin(35.99529092408237)
    assert report["optimal"]["estimated_mortality"] == pin(0.30242350956683056)
    anchor = report["train_anchor"]
    assert anchor["empirical_mortality"] == pin(0.3717948717948718)
    assert anchor["estimated_mortality_real"] == pin(0.3511852502194908)


def test_run_prints_report_json(golden):
    assert json.loads(golden["stdout"]) == golden["report"]


def test_rerun_is_byte_identical(workspace, golden):
    again = workspace["root"] / "again"
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(again)])
    assert rc == 0
    assert tree_hashes(str(again)) == tree_hashes(golden["art"])


# The SHA-256 of every file the golden run's manifest records.  A change that
# moves any of these bytes must update the pin and say which bytes moved and
# why.
GOLDEN_SHA256 = {
    'assignments.csv': '4a69e57a8045bacb2335fe5c0ff919c9aa186b496e13a2e9f32cb6457f311309',
    'clusters.model': '878038d630aa88767e5cc5055589f58968dbbe940c0b9053fbc80ad5df83cbe3',
    'curve.csv': 'b3af4a26350b48f04911f9fbefa5a4a83be92a0260616900a16b69f9265de946',
    'exclusions.json': 'c3a25e0ddae3ff79ca46deb62cdad85c66de21e2def765220da2176df3008e30',
    'hours.npy': '9810269242af19eed6264f2d1176598c126a7a6e999df3afce3eefc0cdb383e5',
    'mdp/mdp.txt': '8b79e455bfef8f34f7bcac36dc8e040aa7f053c89536a80e843d004d3b0be84d',
    'mdp/trajectories_test.csv': 'a8b445af1d329cb0a6f1c37e0f17a82529c42452b3bff45e892f58b69707560f',
    'mdp/trajectories_train.csv': 'cffc712c66a425bfa59e57dff7cb8c946515e681176b3afdf88bfef668f62889',
    'norm_spec.json': 'e61a615ab19c6ba26f764a0270c180cd00e78a7e5f0b4c098cf82e25a15518a6',
    'report.json': '82f10355e11eaa2ea94ef0a99aadb2403bc8109ad224b4b4d9efca33d0af5c54',
    'solution/optimal.csv': 'ffd73de75dac81d0ba41943a5cc408ae84973d71d8a240bda430bce1b6693c4c',
    'solution/q_optimal.csv': '4fb91b42a052899998ff19cb4a72d90b45d4ceeea9e05d92012c80531f49903a',
    'solution/real.csv': '52d81cd6b6320bf1fb4b1df3298611299df8cb7ed22e9b03d53f0c231dd0ccb7',
    'test.csv': '8971bf4dae2aa16b0ecd486d0543fd79bb2f2aaf1d51fc52072afdc5fc843ead',
}


def test_golden_run_bytes_are_pinned(golden):
    with open(os.path.join(golden["art"], pipeline.MANIFEST_FILE)) as fh:
        stages = json.load(fh)["stages"]
    recorded = {rel: sha for entry in stages.values() for rel, sha in entry.items()}
    assert recorded == GOLDEN_SHA256
    on_disk = tree_hashes(golden["art"])
    assert {rel: on_disk[rel] for rel in recorded} == GOLDEN_SHA256


def test_golden_run_bytes_hold_when_every_chunk_is_7(workspace, monkeypatch,
                                                    tmp_path):
    # the golden cohort's ~1,200 rows fit in one chunk at the default sizes
    for module, name in ((mdp, "CHUNK_ROWS"), (mdp, "CHUNK_CHARS"),
                         (cohort, "CHUNK_ROWS")):
        monkeypatch.setattr(module, name, 7)
    art = tmp_path / "art"
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(art)])
    assert rc == 0
    stages = json.loads((art / pipeline.MANIFEST_FILE).read_text())["stages"]
    assert {rel: sha for entry in stages.values()
            for rel, sha in entry.items()} == GOLDEN_SHA256
    on_disk = tree_hashes(str(art))
    assert {rel: on_disk[rel] for rel in GOLDEN_SHA256} == GOLDEN_SHA256


@pytest.mark.parametrize("config_yaml", [CONFIG_YAML, SPARSE_CONFIG_YAML],
                         ids=["raw", "sparse_ae"])
def test_staged_chain_matches_run(workspace, golden, tmp_path, config_yaml):
    # each subcommand reads every file it needs back from disk, while run
    # hands decoded values from stage to stage: the bytes must not differ
    config = tmp_path / "config.yaml"
    config.write_text(config_yaml)
    ran = golden["art"]
    if config_yaml != CONFIG_YAML:
        ran = str(tmp_path / "run")
        assert run_cli(["run", "--config", str(config), "--input",
                        workspace["cohort"], "--out", ran])[0] == 0
    staged = tmp_path / "staged"
    common = ["--config", str(config), "--out", str(staged)]
    assert run_cli(["ingest", "--input", workspace["cohort"]] + common)[0] == 0
    for command in ["train-encoder", "cluster", "build-mdp", "solve",
                    "evaluate"]:
        rc, _ = run_cli([command] + common)
        assert rc == 0, command
    assert tree_hashes(str(staged)) == tree_hashes(ran)


def test_seed_flag_overrides_config(workspace):
    art = workspace["root"] / "reseeded"
    rc, stdout = run_cli(["run", "--config", workspace["config"],
                          "--seed", "99",
                          "--input", workspace["cohort"], "--out", str(art)])
    assert rc == 0
    report = json.loads(stdout)
    assert report["seed"] == 99
    # the split seed is derived from the master seed, so the split moves
    base = PipelineConfig()
    assert pipeline.derive_seed(99, "split") != pipeline.derive_seed(
        base.seed, "split")


def test_exclusions_summary_written(golden):
    doc = json.loads(open(os.path.join(golden["art"], "exclusions.json")).read())
    assert doc["parsed_patients"] == N_PATIENTS
    assert doc["train_patients"] + doc["test_patients"] <= N_PATIENTS
    assert doc["train_patients"] > doc["test_patients"]


def test_manifest_lists_every_stage(golden):
    doc = json.loads(open(os.path.join(golden["art"], "manifest.json")).read())
    assert doc["format"] == pipeline.MANIFEST_FORMAT
    assert sorted(doc["stages"]) == sorted(name for name, _, _ in
                                           pipeline.STAGES)
    assert doc["representation"] == "raw"


def readme_stage_outputs():
    """Stage -> (the files README's stage table says it writes, whether it
    writes them on sparse_ae runs only), in table order."""
    with open(README) as fh:
        lines = fh.read().split("| stage ", 1)[1].splitlines()[2:]
    outputs = {}
    for line in lines[:lines.index("")]:
        _, stage, _, writes, _ = line.split("|")
        outputs[stage.strip().strip("`")] = (
            set(re.findall(r"`([^`]+)`", writes)), "sparse_ae runs only" in writes)
    return outputs


def test_manifest_records_the_readme_outputs_with_their_hashes(golden,
                                                               sparse_art):
    outputs = readme_stage_outputs()
    assert list(outputs) == [name for name, _, _ in pipeline.STAGES]
    on_disk = tree_hashes(golden["art"])
    stages = json.loads(open(os.path.join(golden["art"],
                                          "manifest.json")).read())["stages"]
    for stage, entry in stages.items():
        files, sparse_only = outputs[stage]
        assert set(entry) == (set() if sparse_only else files), stage
        assert entry == {rel: on_disk[rel] for rel in entry}, stage
    assert set(on_disk) - {"manifest.json"} == \
        {rel for entry in stages.values() for rel in entry}

    sparse = sparse_art["art"]
    entry = json.loads((sparse / "manifest.json").read_text())["stages"][
        "train-encoder"]
    assert set(entry) == outputs["train-encoder"][0]
    assert entry == {rel: tree_hashes(str(sparse))[rel] for rel in entry}


def test_manifest_drops_the_entry_of_a_stage_that_no_longer_exists(
        workspace, golden, tmp_path):
    # a directory written while calibrate was a stage of its own lists
    # curve.csv under calibrate; evaluate now rewrites that file
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["stages"]["calibrate"] = {
        "curve.csv": manifest["stages"]["evaluate"].pop("curve.csv")}
    (art / "manifest.json").write_text(json.dumps(manifest))
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG_YAML + "calibration:\n  n_bins: 3\n")
    assert run_cli(["evaluate", "--config", str(config),
                    "--out", str(art)])[0] == 0
    on_disk = tree_hashes(str(art))
    assert on_disk["curve.csv"] != GOLDEN_SHA256["curve.csv"]
    # every file listed by exactly one entry, with the hash of its bytes
    stages = json.loads((art / "manifest.json").read_text())["stages"]
    listed = [(rel, sha) for entry in stages.values()
              for rel, sha in entry.items()]
    del on_disk["manifest.json"]
    assert sorted(listed) == sorted(on_disk.items())


def test_evaluate_turns_an_older_manifest_into_the_current_one(
        workspace, golden, tmp_path):
    # with the config unchanged, dropping the stale calibrate entry and
    # relisting curve.csv under evaluate gives the manifest a run writes
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["stages"]["calibrate"] = {
        "curve.csv": manifest["stages"]["evaluate"].pop("curve.csv")}
    (art / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli(["evaluate", "--config", workspace["config"],
                    "--out", str(art)])[0] == 0
    assert tree_hashes(str(art)) == tree_hashes(golden["art"])


@pytest.mark.parametrize("damage", ["flipped", "truncated", "deleted"])
def test_evaluate_rewrites_a_damaged_curve_it_does_not_read(
        workspace, golden, tmp_path, damage):
    # curve.csv is an output only: evaluate fits the curve afresh, so damage
    # to the file on disk is overwritten, not refused
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    path = art / "curve.csv"
    data = path.read_bytes()
    mid = len(data) // 2
    if damage == "flipped":
        path.write_bytes(data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:])
    elif damage == "truncated":
        path.write_bytes(data[:mid])
    else:
        path.unlink()
    assert run_cli(["evaluate", "--config", workspace["config"],
                    "--out", str(art)])[0] == 0
    assert tree_hashes(str(art)) == tree_hashes(golden["art"])


def test_calibration_error_names_evaluate_and_exits_2(workspace, golden,
                                                      tmp_path, caplog):
    # the curve is fitted inside evaluate, so a cohort too small for the
    # configured bins fails that stage before it writes anything
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG_YAML + "calibration:\n  min_bin_support: 100000\n")
    message = "only 0 bin(s) reach min_bin_support=100000"
    art = tmp_path / "run"
    rc, _ = run_cli(["run", "--config", str(config),
                     "--input", workspace["cohort"], "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "stage 'evaluate': " + message in caplog.text
    assert not (art / "curve.csv").exists()
    assert not (art / "report.json").exists()
    assert "evaluate" not in json.loads(
        (art / "manifest.json").read_text())["stages"]

    staged = tmp_path / "staged"
    shutil.copytree(golden["art"], staged)
    caplog.clear()
    rc, _ = run_cli(["evaluate", "--config", str(config),
                     "--out", str(staged)])
    assert rc == cli.DATA_EXIT
    assert message in caplog.text
    assert tree_hashes(str(staged)) == tree_hashes(golden["art"])


def test_each_stage_reads_the_manifest_once_and_no_file_it_wrote(
        workspace, monkeypatch, tmp_path):
    # a run reads back only hours.npy: every other file a later stage needs
    # is handed over decoded
    art = tmp_path / "art"
    manifest_reads, reads = [], collections.Counter()
    manifest_read = pipeline._manifest_read

    def counted_manifest_read(art_dir):
        manifest_reads.append(art_dir)
        return manifest_read(art_dir)

    def counted_open(path, mode="r", *args, **kwargs):
        if "w" not in mode and str(path).startswith(str(art)):
            reads[os.path.relpath(path, art)] += 1
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_manifest_read", counted_manifest_read)
    monkeypatch.setattr(pipeline, "open", counted_open, raising=False)
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(art)])
    assert rc == 0
    assert len(manifest_reads) == len(pipeline.STAGES) == 6
    # ingest finds no manifest yet
    assert reads == {"manifest.json": 5, "hours.npy": len(READERS["hours.npy"])}


def assert_same_value(got, expected, where):
    """``got`` and ``expected`` are of one type throughout, and their arrays
    of one dtype, shape and layout, and equal bit for bit."""
    assert type(got) is type(expected), where
    if isinstance(got, np.ndarray):
        assert (got.dtype, got.shape, got.flags.c_contiguous) == \
            (expected.dtype, expected.shape, expected.flags.c_contiguous), where
        assert got.tobytes() == expected.tobytes(), where
    elif dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            assert_same_value(getattr(got, field.name),
                              getattr(expected, field.name),
                              "%s.%s" % (where, field.name))
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(expected), where
        for at, (a, b) in enumerate(zip(got, expected)):
            assert_same_value(a, b, "%s[%d]" % (where, at))
    elif isinstance(got, float):
        assert got.hex() == expected.hex(), where
    else:
        assert got == expected, where


@pytest.mark.parametrize("config_yaml,handed_off,long_id", [
    (CONFIG_YAML, HANDED_OFF, False),
    (SPARSE_CONFIG_YAML, HANDED_OFF | {"encoder.model"}, False),
    # one id longer than the rest, so one split's ids are narrower than the
    # hours table's; and an int gamma, which the MDP file reads as a float
    (CONFIG_YAML + "mdp:\n  gamma: 0\n", HANDED_OFF, True),
], ids=["raw", "sparse_ae", "long_id_int_gamma"])
def test_each_handed_off_value_equals_its_file_decoded(
        workspace, monkeypatch, tmp_path, config_yaml, handed_off, long_id):
    cohort_csv = workspace["cohort"]
    if long_id:
        text = open(cohort_csv).read()
        pid = text.splitlines()[1].split(",", 1)[0]
        cohort_csv = str(tmp_path / "long_id.csv")
        with open(cohort_csv, "w") as fh:
            fh.write(text.replace("\n%s," % pid, "\n%s-with-a-longer-id," % pid))
    read = pipeline._StageFiles.read
    checked, handoffs = [], []

    def read_and_decode(files, writer, rel, what, parse):
        held = rel in files.handoff
        handoffs.append(files.handoff)
        value = read(files, writer, rel, what, parse)
        if held:
            with open(files.path(rel), "rb") as fh:
                assert_same_value(value, parse(fh.read()), rel)
            checked.append(rel)
        return value

    monkeypatch.setattr(pipeline._StageFiles, "read", read_and_decode)
    config = tmp_path / "config.yaml"
    config.write_text(config_yaml)
    rc, _ = run_cli(["run", "--config", str(config), "--input", cohort_csv,
                     "--out", str(tmp_path / "art")])
    assert rc == 0
    assert sorted(checked) == sorted(handed_off)
    # one hand-off per run, every value in it read by its stage
    assert all(handoff is handoffs[0] for handoff in handoffs)
    assert handoffs[0] == {}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["run", "ingest"])
def test_out_on_a_file_exits_1_naming_the_path(workspace, tmp_path, caplog,
                                               capsys, command, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "art" if under else blocker
    rc, _ = run_cli([command, "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(out)])
    assert rc == cli.USAGE_EXIT
    assert "cannot write %s%s" % (out, os.sep) in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("content", [
    "text, and one non-ASCII character: \u00e9\n",
    "\u00e9" * ((1 << 20) + 3),  # more than one slice of text
    {"b": [1, 2.5], "a": "x"},
    np.arange(12.0).reshape(3, 4),
    np.zeros(5, dtype=hours_dtype(3, 6)),
    np.arange(300_000, dtype=np.int64),  # more than one slice of memory
], ids=["text", "long_text", "json", "matrix", "hours_rows", "long_array"])
def test_write_returns_the_sha256_of_exactly_the_bytes_written(tmp_path,
                                                               content):
    if isinstance(content, np.ndarray):
        buf = io.BytesIO()
        np.save(buf, content, allow_pickle=False)
        expected = buf.getvalue()
    elif isinstance(content, dict):
        expected = (json.dumps(content, indent=1, sort_keys=True)
                    + "\n").encode()
    else:
        expected = content.encode("utf-8")
    path = tmp_path / "new" / "artifact"
    digest = pipeline._write(str(path), content)
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()
    assert os.listdir(tmp_path / "new") == ["artifact"]


def test_usage_error_exits_1(capsys):
    assert cli.main(["ingest", "--input", "x.csv"]) == cli.USAGE_EXIT
    assert cli.main(["not-a-command"]) == cli.USAGE_EXIT
    # evaluate fits the curve; there is no separate calibrate stage
    assert cli.main(["calibrate", "--out", "x"]) == cli.USAGE_EXIT
    capsys.readouterr()


def test_help_exits_0(capsys):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_config_key_exits_1_and_names_it(workspace, caplog):
    bad = workspace["root"] / "bad.yaml"
    bad.write_text("klustering:\n  k: 5\n")
    rc, _ = run_cli(["run", "--config", str(bad),
                     "--input", workspace["cohort"], "--out",
                     str(workspace["root"] / "never")])
    assert rc == cli.USAGE_EXIT
    assert "klustering" in caplog.text


# (key named in the error, config): values of the wrong type, non-finite
# floats and bin edges that ActionSpace refuses
BAD_CONFIGS = [
    ("clustering.k", "clustering: {k: '5'}"),
    ("clustering.k", "clustering: {k: 2.5}"),
    ("clustering.k", "clustering: {k: true}"),
    ("clustering.max_iters", "clustering: {k: 5, max_iters: 2.5}"),
    ("calibration.n_bins", "calibration: {n_bins: 2.5}"),
    ("preprocessing.min_sofa", "preprocessing: {min_sofa: '2'}"),
    ("split.test_fraction", "split: {test_fraction: x}"),
    ("encoder.epochs", "representation: sparse_ae\nencoder: {epochs: 1.5}"),
    ("mdp.min_count", "mdp: {min_count: 2.5}"),
    ("solver.epsilon", "solver: {epsilon: .nan}"),
    ("preprocessing.min_age", "preprocessing: {min_age: .nan}"),
    ("mdp.bin_edges", "mdp: {bin_edges: [-60, 80]}"),
    ("mdp.bin_edges", "mdp: {bin_edges: [60, .nan]}"),
    ("mdp.bin_edges", "mdp: {bin_edges: [60, .inf]}"),
    ("mdp.bin_edges", "mdp: {bin_edges: [60, '80']}"),
    ("mdp.bin_edges", "mdp: {bin_edges: [80, 60]}"),
]


@pytest.mark.parametrize("key, text", BAD_CONFIGS,
                         ids=[text for _, text in BAD_CONFIGS])
def test_bad_config_value_exits_1_naming_the_key_before_any_stage(
        workspace, tmp_path, caplog, capsys, key, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    out = tmp_path / "never"
    rc, _ = run_cli(["run", "--config", str(bad),
                     "--input", workspace["cohort"], "--out", str(out)])
    assert rc == cli.USAGE_EXIT
    assert key in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("encoder", "optimizer", "adam"),
    ("calibration", "mortality_mapping", "per_state")])
def test_removed_config_keys_are_unknown(workspace, tmp_path, caplog,
                                         section, key, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text("%s:\n  %s: %s\n" % (section, key, value))
    rc, _ = run_cli(["run", "--config", str(bad),
                     "--input", workspace["cohort"],
                     "--out", str(tmp_path / "never")])
    assert rc == cli.USAGE_EXIT
    assert "unknown key %r in section %r" % (key, section) in caplog.text


@pytest.mark.parametrize("command", ["run", "ingest"])
def test_k_above_the_training_hours_exits_1_before_ingest_writes(
        workspace, golden, tmp_path, caplog, capsys, command):
    train_hours = int(np.count_nonzero(np.load(
        os.path.join(golden["art"], "hours.npy"))["split"] == 0))
    out = tmp_path / "art"
    for k in (train_hours + 1, 10 ** 20):
        bad = tmp_path / "big_k.yaml"
        bad.write_text("seed: 3\nclustering:\n  k: %d\n" % k)
        caplog.clear()
        rc, _ = run_cli([command, "--config", str(bad),
                         "--input", workspace["cohort"], "--out", str(out)])
        assert rc == cli.USAGE_EXIT
        assert "clustering.k is %d, but the cohort has only %d training hours" \
            % (k, train_hours) in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (out / "hours.npy").exists()
    bad.write_text("seed: 3\nclustering:\n  k: %d\n" % train_hours)
    assert run_cli(["ingest", "--config", str(bad),
                    "--input", workspace["cohort"], "--out", str(out)])[0] == 0


def test_missing_cohort_file_exits_2(workspace):
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", str(workspace["root"] / "nope.csv"),
                     "--out", str(workspace["root"] / "never2")])
    assert rc == cli.DATA_EXIT


def test_corrupted_artifact_exits_2(workspace, golden):
    damaged = workspace["root"] / "damaged"
    shutil.copytree(golden["art"], damaged)
    (damaged / "mdp" / "mdp.txt").write_text("not an mdp\n")
    rc, _ = run_cli(["solve", "--config", workspace["config"],
                     "--out", str(damaged)])
    assert rc == cli.DATA_EXIT


def test_report_scores_the_solved_values_without_the_mdp(workspace, golden):
    # each mean_expected_return is the test-visitation mean of the V that
    # solve wrote, bit for bit
    art = golden["art"]
    with open(os.path.join(art, "mdp", "trajectories_test.csv")) as fh:
        states = [int(line.split(",")[2]) for line in list(fh)[1:]]
    for label in ("real", "optimal"):
        with open(os.path.join(art, "solution", label + ".csv")) as fh:
            _, v, _ = read_solution(fh.read())
        # normalized twice, as visitation_from_trajectories and then
        # stage_evaluate do
        w = np.bincount(states, minlength=len(v)).astype(float)
        w = w / w.sum()
        w = w / w.sum()
        assert golden["report"][label]["mean_expected_return"] == float(w @ v)

    # evaluate reads only what solve and build-mdp wrote
    no_mdp = workspace["root"] / "no_mdp"
    shutil.copytree(art, no_mdp)
    (no_mdp / "mdp" / "mdp.txt").unlink()
    rc, _ = run_cli(["evaluate", "--config", workspace["config"],
                     "--out", str(no_mdp)])
    assert rc == 0
    for name in ("curve.csv", "report.json"):
        assert (no_mdp / name).read_bytes() == \
            open(os.path.join(art, name), "rb").read()


def edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def rerecord(art, rel):
    """Record the SHA-256 of the edited file ``rel`` in the manifest entry that
    lists it, so the stage reading it gets past the checksum to its own
    checks."""
    manifest = json.loads((art / "manifest.json").read_text())
    for entry in manifest["stages"].values():
        if rel in entry:
            entry[rel] = hashlib.sha256((art / rel).read_bytes()).hexdigest()
    (art / "manifest.json").write_text(json.dumps(manifest))


def edit_header(**fields):
    def edit(lines):
        header = json.loads(lines[0])
        header.update(fields)
        return [json.dumps(header, sort_keys=True) + "\n"] + lines[1:]
    return edit


def state_99(lines):
    pid, step, _, action, next_state = lines[3].split(",")
    lines[3] = ",".join([pid, step, "99", action, next_state])
    return lines


def step_skipped(lines):
    pid, _, rest = lines[2].split(",", 2)  # the first patient's second step
    lines[2] = ",".join([pid, "2", rest])
    return lines


def cut_to_four_states(lines):
    return edit_header(k=4)(lines)[:-1]


def nan_value(lines):
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan\n"
    return lines


def value_raised_by_5(lines):
    head, value = lines[2].rsplit(",", 1)
    lines[2] = "%s,%r\n" % (head, float(value) + 5.0)
    return lines


def state_moved(lines):
    head, state = lines[3].rsplit(",", 1)
    lines[3] = "%s,%d\n" % (head, (int(state) + 1) % 5)  # k is 5
    return lines


def nested_too_deep(lines):
    header = json.loads(lines[0])
    return [json.dumps(header)[:-1] + ', "x": ' + "[" * 100_000
            + "]" * 100_000 + "}\n"] + lines[1:]


def header_only(lines):
    return lines[:1]


def cut_mid_line(lines):
    """The last line cut at its first comma."""
    lines[-1] = lines[-1].split(",", 1)[0]
    return lines


# the number of fields of each text table in READERS (all but hours.npy)
TABLE_FIELDS = {
    "assignments.csv": 3,
    "mdp/mdp.txt": 5,
    "solution/real.csv": 3,
    "solution/optimal.csv": 3,
    "mdp/trajectories_train.csv": 5,
    "mdp/trajectories_test.csv": 5,
}


def mdp_columns_renamed(lines):
    lines[1] = "s,a,next_state,count,p\n"
    return lines


def swap_solutions(art):
    real, opt = art / "solution" / "real.csv", art / "solution" / "optimal.csv"
    text = real.read_text()
    real.write_text(opt.read_text())
    opt.write_text(text)


# a file edited after its stage ran, its checksum left as recorded
TAMPERED = "does not match the SHA-256"


@pytest.mark.parametrize("command,path,edit,named,message", [
    ("evaluate", "mdp/trajectories_test.csv", state_99, "trajectories_test.csv",
     "steps from state 99"),
    ("evaluate", "solution/optimal.csv", cut_to_four_states, "optimal.csv",
     "covers 4 states but real.csv covers 5"),
    ("evaluate", "mdp/trajectories_train.csv", state_99,
     "trajectories_train.csv", "steps from state 99"),
    ("evaluate", None, None, "real.csv",
     "holds the 'optimal' solution, expected 'real'"),
    ("evaluate", "solution/optimal.csv", nan_value, "optimal.csv",
     "holds a value that is not finite"),
    ("evaluate", "mdp/trajectories_train.csv", header_only,
     "trajectories_train.csv", "lists no trajectories"),
    ("evaluate", "solution/real.csv", edit_header(k="five"), "real.csv",
     "invalid literal for int()"),
    ("solve", "mdp/mdp.txt", edit_header(version=2), "mdp.txt",
     "unsupported glyrl-mdp version 2"),
    ("solve", "mdp/mdp.txt", mdp_columns_renamed, "mdp.txt",
     "column header is not 's,a,s_next,count,p'"),
    ("solve", "mdp/mdp.txt", edit_header(n_states=None), "mdp.txt",
     "NoneType"),
    ("solve", "mdp/mdp.txt", edit_header(k=float("inf")), "mdp.txt",
     "cannot convert float infinity to integer"),
    ("evaluate", "mdp/trajectories_train.csv", step_skipped,
     "trajectories_train.csv", "non-contiguous steps"),
    ("evaluate", "solution/real.csv", edit_header(k=None), "real.csv",
     "NoneType"),
    ("evaluate", "solution/real.csv", nested_too_deep, "real.csv",
     "maximum recursion depth exceeded"),
    ("evaluate", "solution/real.csv", value_raised_by_5, "real.csv", TAMPERED),
    ("build-mdp", "assignments.csv", state_moved, "assignments.csv", TAMPERED),
] + [
    (READERS[rel][0], rel, cut_mid_line, os.path.basename(rel),
     "has 1 fields, expected %d" % fields)
    for rel, fields in TABLE_FIELDS.items()
], ids=["test_state_99", "optimal_cut_to_k4", "train_state_99",
        "swapped_labels", "optimal_value_nan", "train_emptied",
        "real_k_not_a_number", "mdp_version_2", "mdp_columns_renamed",
        "mdp_n_states_null", "mdp_k_infinite", "train_step_skipped",
        "real_k_null", "real_header_too_deep", "tampered_real_value",
        "tampered_assignment"] + [
            os.path.basename(rel).split(".")[0] + "_cut_mid_line"
            for rel in TABLE_FIELDS])
def test_bad_late_artifacts_exit_2_and_name_them(
        workspace, golden, caplog, capsys, request, command, path, edit, named,
        message):
    art = workspace["root"] / ("late_" + request.node.callspec.id)
    shutil.copytree(golden["art"], art)
    if edit is None:
        swap_solutions(art)
        edited = ["solution/real.csv", "solution/optimal.csv"]
    else:
        edit_lines(art / path, edit)
        edited = [path]
    if message != TAMPERED:
        for rel in edited:
            rerecord(art, rel)
    rc, _ = run_cli([command, "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert named in caplog.text
    assert message in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


READER_PAIRS = [(rel, command) for rel, commands in READERS.items()
                for command in commands]


def refuses_damage(workspace, golden, caplog, capsys, rel, command, damage):
    """Damage a copy of one recorded artifact (its checksum left as
    recorded), run a stage that reads it, and return the log."""
    art = workspace["root"] / ("%s_%s_%s"
                               % (damage, command, rel.replace("/", "_")))
    shutil.copytree(golden["art"], art)
    path = art / rel
    data = path.read_bytes()
    mid = len(data) // 2
    if damage == "flipped":
        path.write_bytes(data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:])
    elif damage == "truncated":
        path.write_bytes(data[:mid])
    else:
        path.unlink()
    rc, _ = run_cli([command, "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert str(path) in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    return caplog.text


@pytest.mark.parametrize("rel,command", READER_PAIRS)
def test_every_recorded_artifact_refuses_a_flipped_byte(
        workspace, golden, caplog, capsys, rel, command):
    assert TAMPERED in refuses_damage(workspace, golden, caplog, capsys, rel,
                                      command, "flipped")


@pytest.mark.parametrize("damage", ["truncated", "deleted"])
@pytest.mark.parametrize("rel,command", READER_PAIRS)
def test_every_recorded_artifact_refuses_truncation_and_deletion(
        workspace, golden, caplog, capsys, rel, command, damage):
    log = refuses_damage(workspace, golden, caplog, capsys, rel, command,
                         damage)
    assert (TAMPERED if damage == "truncated" else "No such file") in log


@pytest.mark.parametrize("command", ["cluster", "solve", "evaluate"])
def test_manifest_nested_too_deep_exits_2_and_names_it(
        workspace, golden, caplog, capsys, command):
    art = workspace["root"] / ("deep_manifest_" + command)
    shutil.copytree(golden["art"], art)
    edit_lines(art / "manifest.json",
               lambda lines: nested_too_deep(["".join(lines)]))
    rc, _ = run_cli([command, "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "manifest.json" in caplog.text
    assert "maximum recursion depth exceeded" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def copy_with_hours(workspace, golden, name):
    art = workspace["root"] / name
    shutil.copytree(golden["art"], art)
    return art, art / "hours.npy"


@pytest.mark.parametrize("damage", ["flipped", "truncated", "missing",
                                    "unrecorded"])
def test_damaged_hours_exit_2_and_name_it(workspace, golden, caplog, capsys,
                                          damage):
    art, path = copy_with_hours(workspace, golden, "hours_" + damage)
    data = path.read_bytes()
    if damage == "flipped":
        mid = len(data) // 2
        path.write_bytes(data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:])
    elif damage == "truncated":
        path.write_bytes(data[:len(data) // 2])
    elif damage == "missing":
        path.unlink()
    else:
        manifest = json.loads((art / "manifest.json").read_text())
        del manifest["stages"]["ingest"]["hours.npy"]
        (art / "manifest.json").write_text(json.dumps(manifest))
    rc, _ = run_cli(["cluster", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "hours.npy" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def tamper_hours(rows, how):
    rows = rows.copy()
    if how == "state_above_one":
        rows["state"][3, 0] = 1.5
    elif how == "state_nan":
        rows["state"][7, 2] = np.nan
    elif how == "glucose_negative":
        rows["glucose"][5] = -1.0
    elif how == "hour_gap":
        rows["hour"][2] += 1
    elif how == "test_rows_first":
        rows = np.concatenate([rows[rows["split"] == 1], rows[rows["split"] == 0]])
    elif how == "plain_matrix":
        rows = np.ascontiguousarray(rows["state"])
    return rows


@pytest.mark.parametrize("how", ["state_above_one", "state_nan",
                                 "glucose_negative", "hour_gap",
                                 "test_rows_first", "plain_matrix"])
def test_inconsistent_hours_exit_2_even_when_the_checksum_matches(
        workspace, golden, caplog, how):
    art, path = copy_with_hours(workspace, golden, "hours_tampered_" + how)
    rows = np.load(str(path), allow_pickle=False)
    with open(path, "wb") as fh:
        np.save(fh, tamper_hours(rows, how), allow_pickle=False)
    rerecord(art, "hours.npy")
    rc, _ = run_cli(["build-mdp", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "malformed model-ready hours" in caplog.text
    assert "hours.npy" in caplog.text


@pytest.mark.parametrize("damage,message", [
    ("dropped_row", "rows but hours.npy has"),
    ("swapped_hours", "line 4 does not line up with hours.npy"),
    ("state_out_of_range", "line 4: state 5 outside [0, 5)"),
], ids=["dropped_row", "swapped_hours", "state_out_of_range"])
def test_misaligned_assignments_exit_2_and_name_it(workspace, golden, caplog,
                                                   damage, message):
    art = workspace["root"] / ("assignments_" + damage)
    shutil.copytree(golden["art"], art)
    path = art / "assignments.csv"
    lines = path.read_text().splitlines(keepends=True)
    if damage == "dropped_row":
        del lines[5]
    elif damage == "swapped_hours":
        lines[3], lines[4] = lines[4], lines[3]
    else:
        lines[3] = lines[3].rsplit(",", 1)[0] + ",5\n"  # k is 5
    path.write_text("".join(lines))
    rerecord(art, "assignments.csv")
    rc, _ = run_cli(["build-mdp", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "assignments.csv" in caplog.text
    assert message in caplog.text


def test_hours_equal_the_object_ingest_and_a_reparse_of_test_csv(
        workspace, golden, tmp_path):
    # the object-per-hour reference writes the same ingest bytes
    oracle = tmp_path / "oracle"
    cohort_oracle.ingest(load_config(workspace["config"]), workspace["cohort"],
                         str(oracle))
    for name in ("hours.npy", "test.csv", "norm_spec.json", "exclusions.json"):
        assert (oracle / name).read_bytes() == \
            open(os.path.join(golden["art"], name), "rb").read(), name

    # the test rows are test.csv's hours, normalized by the stored spec
    rows = np.load(os.path.join(golden["art"], "hours.npy"), allow_pickle=False)
    rows = rows[rows["split"] == 1]
    with open(os.path.join(golden["art"], "test.csv")) as fh:
        part = parse_cohort(fh, PipelineConfig().covariates)
    with open(os.path.join(golden["art"], "norm_spec.json")) as fh:
        stored = json.load(fh)
    spec = NormalizationSpec(
        tuple(stored["feature_names"]),
        np.array([float(v) for v in stored["mins"]]),
        np.array([float(v) for v in stored["maxs"]]),
        tuple(stored["gender_codes"]), tuple(stored["icu_unit_codes"]))
    n = part.lengths
    assert rows["patient_id"].tolist() == np.repeat(part.ids, n).tolist()
    assert rows["hour"].tolist() == part.hours.tolist()
    assert rows["survived"].tolist() == \
        np.repeat(~part.patients["died_within_90d"], n).tolist()
    assert rows["glucose"].tobytes() == part.glucose.tobytes()
    assert rows["state"].tobytes() == \
        apply_normalization(part, spec).tobytes()


def test_reordered_input_gives_byte_identical_hours(workspace, golden):
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    reordered = workspace["root"] / "reordered.csv"
    reordered.write_text(lines[0] + "".join(reversed(lines[1:])))
    outputs = []
    for name, cohort in (("ingest_a", workspace["cohort"]),
                         ("ingest_b", str(reordered))):
        art = workspace["root"] / name
        rc, _ = run_cli(["ingest", "--config", workspace["config"],
                         "--input", cohort, "--out", str(art)])
        assert rc == 0
        outputs.append((art / "hours.npy").read_bytes())
    golden_hours = open(os.path.join(golden["art"], "hours.npy"), "rb").read()
    assert outputs[0] == outputs[1] == golden_hours


def test_single_patient_cohort_runs_with_an_empty_test_split(tmp_path):
    cohort = tmp_path / "one.csv"
    cohort.write_text(make_csv([
        cohort_row("p1", h, glucose=str(90.0 + 15 * h),
                   covs=(str(80.0 + h), str(110.0 - 2 * h), "1.5"))
        for h in range(8)]).getvalue())
    config = tmp_path / "config.yaml"
    config.write_text("seed: 3\ncovariates: [heart_rate, sbp, lactate]\n"
                      "clustering:\n  k: 2\nmdp:\n  min_count: 1\n")
    art = tmp_path / "art"
    common = ["--config", str(config), "--out", str(art)]
    assert run_cli(["ingest", "--input", str(cohort)] + common)[0] == 0
    for command in ["cluster", "build-mdp"]:
        assert run_cli([command] + common)[0] == 0, command
    rows = np.load(str(art / "hours.npy"), allow_pickle=False)
    assert rows["split"].tolist() == [0] * 8
    assert rows["hour"].tolist() == list(range(8))
    assert (art / "mdp" / "trajectories_test.csv").read_text() == \
        "patient_id,step_index,state,action,next_state\n"


def test_numerical_failure_exits_3(workspace, golden, monkeypatch):
    def explode(config, art_dir):
        raise ConvergenceError("policy evaluation exceeded iteration cap")

    monkeypatch.setattr(pipeline, "stage_solve", explode)
    rc, _ = run_cli(["solve", "--config", workspace["config"],
                     "--out", golden["art"]])
    assert rc == cli.NUMERICAL_EXIT


# The SHA-256 of every file the manifest records in the SPARSE_CONFIG_YAML
# run of the golden cohort: encoder.model and every file downstream of it.
SPARSE_GOLDEN_SHA256 = {
    'assignments.csv': '078209cda66533d51063e1e516debd4d8bd3e7e200f52380d9f4cffcdb078937',
    'clusters.model': 'beaa9f720ae319347868d64fbe37de7069875d8d46a7a6fcfc55844db461128b',
    'curve.csv': '8391266824b9971e93d7c02ffcc0f0c56ed4be3d6d71190b5e51f152ce4e4eed',
    'encoder.model': '09fe06f39b81e9c81888b8e3d1a33d7dcdfb044058ce90683141e0d9801f456a',
    'exclusions.json': 'c3a25e0ddae3ff79ca46deb62cdad85c66de21e2def765220da2176df3008e30',
    'hours.npy': '9810269242af19eed6264f2d1176598c126a7a6e999df3afce3eefc0cdb383e5',
    'mdp/mdp.txt': 'cc359042a1d4cca0e54597cfc1f8f1c815dbc46d569bf39a245302ba4cc589d1',
    'mdp/trajectories_test.csv': 'd6caeb04ef80674ea5e1790636faca767fcc35293347aa1156cbbda0c56dcc18',
    'mdp/trajectories_train.csv': 'f4c39bf6342d88418f1e74362ff88c3a7b37588f4f5e6356bf757cf5ecabb8c7',
    'norm_spec.json': 'e61a615ab19c6ba26f764a0270c180cd00e78a7e5f0b4c098cf82e25a15518a6',
    'report.json': '859d555b7c46ffee3c4bce5d134c8a46b49eefcb59e218fe667f7bc60e49fa83',
    'solution/optimal.csv': '70cb6598acc4769914fc617db4ee0ae9f0e713feca4eb0b50bb431716412c931',
    'solution/q_optimal.csv': 'd028b47d2eac3ebc4e94c310031c10bd67492ee232a664bdd88a3ef1a1a4bc54',
    'solution/real.csv': '49b748c520b6d6740a8129dff6719c1bf0afabf8eb34dbec8d2ca6a15416a367',
    'test.csv': '8971bf4dae2aa16b0ecd486d0543fd79bb2f2aaf1d51fc52072afdc5fc843ead',
}


@pytest.mark.parametrize("config_yaml,seed", [
    (CONFIG_YAML, 0), (CONFIG_YAML, 1), (CONFIG_YAML, 2),
    (SPARSE_CONFIG_YAML, 3),
], ids=["raw_0", "raw_1", "raw_2", "sparse_ae_3"])
def test_shuffled_cohort_rows_give_byte_identical_artifacts(
        workspace, golden, tmp_path, config_yaml, seed):
    # ingest groups rows by patient and hour, so no byte of any artifact,
    # report.json included, may depend on the order of the cohort's rows
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(lines) - 1) + 1
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(lines[0] + "".join(lines[i] for i in order))
    config = tmp_path / "config.yaml"
    config.write_text(config_yaml)

    def run(cohort_csv, name):
        art = tmp_path / name
        assert run_cli(["run", "--config", str(config), "--input", cohort_csv,
                        "--out", str(art)])[0] == 0
        stages = json.loads((art / pipeline.MANIFEST_FILE).read_text())["stages"]
        return ({rel: sha for entry in stages.values()
                 for rel, sha in entry.items()}, tree_hashes(str(art)))

    recorded, hashes = run(str(shuffled), "shuffled")
    if config_yaml == CONFIG_YAML:
        assert recorded == GOLDEN_SHA256
        assert hashes == tree_hashes(golden["art"])
    else:
        assert recorded == SPARSE_GOLDEN_SHA256
        assert hashes == run(workspace["cohort"], "ordered")[1]
    assert {rel: hashes[rel] for rel in recorded} == recorded


def test_stage_errors_keep_their_class_and_fields(workspace, monkeypatch,
                                                   tmp_path):
    def diverge(*args, **kwargs):
        raise TrainingDivergedError(7, 0.05)

    monkeypatch.setattr(pipeline, "train", diverge)
    config = load_config(workspace["config"])
    config.representation = "sparse_ae"
    with pytest.raises(TrainingDivergedError) as err:
        pipeline.run_pipeline(config, workspace["cohort"], str(tmp_path / "a"))
    assert (err.value.epoch, err.value.learning_rate) == (7, 0.05)
    assert str(err.value).startswith(
        "stage 'train-encoder': non-finite loss at epoch 7")

    sparse = tmp_path / "sparse.yaml"
    sparse.write_text(SPARSE_CONFIG_YAML)
    rc, _ = run_cli(["run", "--config", str(sparse), "--input",
                     workspace["cohort"], "--out", str(tmp_path / "b")])
    assert rc == cli.NUMERICAL_EXIT


def test_parse_error_keeps_its_line_number(workspace, tmp_path):
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    fields = lines[4].split(",")
    fields[1] = "four"  # hour_index of the fifth line
    lines[4] = ",".join(fields)
    cohort = tmp_path / "bad.csv"
    cohort.write_text("".join(lines))
    with pytest.raises(ParseError) as err:
        pipeline.run_pipeline(load_config(workspace["config"]), str(cohort),
                              str(tmp_path / "art"))
    assert err.value.line_number == 5
    assert str(err.value).startswith("stage 'ingest': line 5: ")


def test_non_utf8_cohort_exits_2_and_names_file_and_line(workspace, tmp_path,
                                                        caplog, capsys):
    lines = open(workspace["cohort"], "rb").read().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"MICU", b"\xff\xfeMICU", 1)
    cohort = tmp_path / "latin.csv"
    cohort.write_bytes(b"".join(lines))
    rc, _ = run_cli(["ingest", "--config", workspace["config"],
                     "--input", str(cohort), "--out", str(tmp_path / "art")])
    assert rc == cli.DATA_EXIT
    assert "%s line 3 is not UTF-8" % cohort in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_oversized_cell_exits_2_and_names_file_and_line(workspace, tmp_path,
                                                       caplog, capsys):
    # longer than csv.field_size_limit(), so the CSV reader itself fails
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    column = lines[0].split(",").index("icd9_codes")
    fields = lines[2].split(",")
    fields[column] = "4" * 200_000
    lines[2] = ",".join(fields)
    cohort = tmp_path / "oversized.csv"
    cohort.write_text("".join(lines))
    rc, _ = run_cli(["ingest", "--config", workspace["config"],
                     "--input", str(cohort), "--out", str(tmp_path / "art")])
    assert rc == cli.DATA_EXIT
    assert "%s line 3: field larger than field limit" % cohort in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_nul_in_a_cell_exits_2_naming_line_and_column(workspace, tmp_path,
                                                      caplog):
    # numpy strings drop trailing NULs, so "p\0" would merge with "p"
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    pid = lines[1].split(",", 1)[0]
    copies = [pid + "\0" + line[len(pid):] for line in lines[1:]
              if line.startswith(pid + ",")]
    cohort = tmp_path / "nul.csv"
    cohort.write_text("".join(lines + copies))
    rc, _ = run_cli(["ingest", "--config", workspace["config"],
                     "--input", str(cohort), "--out", str(tmp_path / "art")])
    assert rc == cli.DATA_EXIT
    assert "line %d: NUL character in patient_id" % (len(lines) + 1) \
        in caplog.text


def test_id_with_a_comma_exits_2_naming_the_line(workspace, tmp_path, caplog):
    # the artifact tables write ids unquoted, so ingest refuses an id they
    # could not hold, even when the cohort CSV quotes it
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    pid = lines[1].split(",", 1)[0]
    lines = ['"x,%s"' % pid + line[len(pid):] if line.startswith(pid + ",")
             else line for line in lines]
    cohort_csv = tmp_path / "comma.csv"
    cohort_csv.write_text("".join(lines))
    rc, _ = run_cli(["ingest", "--config", workspace["config"],
                     "--input", str(cohort_csv), "--out", str(tmp_path / "art")])
    assert rc == cli.DATA_EXIT
    assert "line 2: patient_id 'x,%s' holds a comma, quote, CR or LF" % pid \
        in caplog.text


@pytest.fixture(scope="module")
def sparse_art(workspace, golden):
    """The golden artifacts plus a recorded encoder.model, and a config
    whose cluster stage reads it."""
    config = workspace["root"] / "sparse.yaml"
    config.write_text(SPARSE_CONFIG_YAML)
    art = workspace["root"] / "sparse_golden"
    shutil.copytree(golden["art"], art)
    assert run_cli(["train-encoder", "--config", str(config),
                    "--out", str(art)])[0] == 0
    intact = workspace["root"] / "sparse_intact"
    shutil.copytree(art, intact)
    assert run_cli(["cluster", "--config", str(config),
                    "--out", str(intact)])[0] == 0
    return {"art": art, "config": str(config)}


@pytest.mark.parametrize("damage", ["tampered", "missing", "unrecorded"])
def test_damaged_encoder_exits_2_and_names_it(workspace, sparse_art, caplog,
                                              capsys, damage):
    art = workspace["root"] / ("encoder_" + damage)
    shutil.copytree(sparse_art["art"], art)
    model = art / "encoder.model"
    if damage == "tampered":
        doc = json.loads(model.read_text())
        doc["W_enc"][0][0] += 0.5
        model.write_text(json.dumps(doc, indent=1) + "\n")
    elif damage == "missing":
        model.unlink()
    else:
        manifest = json.loads((art / "manifest.json").read_text())
        del manifest["stages"]["train-encoder"]["encoder.model"]
        (art / "manifest.json").write_text(json.dumps(manifest))
    rc, _ = run_cli(["cluster", "--config", sparse_art["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "encoder.model" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_evaluate_reports_manifest_representation_on_mismatch(
        workspace, golden, caplog):
    relabeled = workspace["root"] / "relabeled"
    shutil.copytree(golden["art"], relabeled)
    config = load_config(workspace["config"])
    config.representation = "sparse_ae"
    report = pipeline.stage_evaluate(config, str(relabeled))
    assert report["representation"] == "raw"
    assert "representation" in caplog.text.lower()


def test_synth_writes_parseable_cohort(workspace):
    out = workspace["root"] / "synth.csv"
    truth_out = workspace["root"] / "truth.json"
    rc, _ = run_cli(["synth", "--patients", "30", "--seed", "2",
                     "--out", str(out), "--truth-out", str(truth_out)])
    assert rc == 0
    with open(out) as fh:
        parsed = parse_cohort(fh)
    assert len(parsed.ids) == 30
    truth = synthgen.load_ground_truth(str(truth_out))
    assert truth.pi_star.shape == (truth.n_latent_states,)
    # values cover the two absorbing outcomes as well
    assert truth.v_star.shape == (truth.n_latent_states + 2,)


def test_synth_truth_out_creates_its_directory_or_exits_1(
        workspace, caplog, capsys):
    root = workspace["root"]
    argv = ["synth", "--patients", "5", "--seed", "2",
            "--out", str(root / "synth_truth.csv"), "--truth-out"]
    truth_out = root / "new_dir" / "truth.json"
    assert run_cli(argv + [str(truth_out)])[0] == 0
    assert synthgen.load_ground_truth(str(truth_out)).seed == 2

    blocked = root / "synth_truth.csv" / "truth.json"  # under a regular file
    assert run_cli(argv + [str(blocked)])[0] == cli.USAGE_EXIT
    assert "cannot write %s" % blocked in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_synth_is_deterministic(workspace):
    a = workspace["root"] / "synth_a.csv"
    b = workspace["root"] / "synth_b.csv"
    for path in (a, b):
        rc, _ = run_cli(["synth", "--patients", "25", "--seed", "9",
                         "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_yaml_knobs_with_flag_override(workspace):
    scenario = workspace["root"] / "scenario.yaml"
    scenario.write_text("patients: 40\nmissing_prob: 0.0\nseed: 4\n")
    out = workspace["root"] / "synth_small.csv"
    rc, _ = run_cli(["synth", "--config", str(scenario),
                     "--patients", "12", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        parsed = parse_cohort(fh)
    assert len(parsed.ids) == 12
    assert not np.isnan(parsed.glucose).any()


def test_synth_rejects_unknown_knob(workspace):
    scenario = workspace["root"] / "scenario_bad.yaml"
    scenario.write_text("patients: 10\nlatent_states: 4\n")
    rc, _ = run_cli(["synth", "--config", str(scenario),
                     "--out", str(workspace["root"] / "never4.csv")])
    assert rc == cli.USAGE_EXIT


def test_synth_requires_patient_count(workspace):
    rc, _ = run_cli(["synth", "--out", str(workspace["root"] / "never5.csv")])
    assert rc == cli.USAGE_EXIT


# (key named in the error, synth config): knob values of the wrong type,
# non-finite floats and integers out of range
BAD_SYNTH_CONFIGS = [
    ("patients", "patients: 2.5"),
    ("patients", "patients: true"),
    ("seed", "patients: 5\nseed: 1.5"),
    ("seed", "patients: 5\nseed: -1"),
    ("horizon_hours", "patients: 5\nhorizon_hours: 4.5"),
    ("noise_scale", "patients: 5\nnoise_scale: .nan"),
    ("noise_scale", "patients: 5\nnoise_scale: .inf"),
    ("patients", "patients: 0"),
    ("n_latent_states", "patients: 5\nn_latent_states: 1"),
    ("horizon_hours", "patients: 5\nhorizon_hours: 1"),
    ("noise_scale", "patients: 5\nnoise_scale: 0"),
    ("missing_prob", "patients: 5\nmissing_prob: 1"),
]


def test_readme_synth_table_lists_every_knob_with_its_default():
    with open(README) as fh:
        lines = fh.read().split("| knob ", 1)[1].splitlines()[2:]
    table = {}
    for line in lines[:lines.index("")]:
        _, knob, default, _, _ = line.split("|")
        table[knob.strip().strip("`")] = default.strip()
    assert list(table) == list(cli._SYNTH_KNOBS)
    assert table.pop("patients") == "(required)"
    assert {knob: yaml.safe_load(cell.strip("`"))
            for knob, cell in table.items()} == \
        {knob: cli._SYNTH_KNOBS[knob] for knob in table}


@pytest.mark.parametrize("key, text", BAD_SYNTH_CONFIGS,
                         ids=[text for _, text in BAD_SYNTH_CONFIGS])
def test_synth_bad_knob_value_exits_1_naming_the_key(tmp_path, caplog, capsys,
                                                      key, text):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text + "\n")
    out = tmp_path / "never.csv"
    rc, _ = run_cli(["synth", "--config", str(scenario), "--out", str(out)])
    assert rc == cli.USAGE_EXIT
    assert re.search(r"\b%s\b" % key, caplog.text)
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert not out.exists()


def test_derive_seed_is_stable_and_stream_sensitive():
    assert pipeline.derive_seed(0, "split") == pipeline.derive_seed(0, "split")
    streams = {pipeline.derive_seed(0, name)
               for name in ["split", "encoder", "kmeans"]}
    assert len(streams) == 3
    assert pipeline.derive_seed(1, "split") != pipeline.derive_seed(0, "split")
