"""End-to-end pipeline and CLI behavior.

One small synthetic cohort is pushed through the full pipeline once per
module; the tests then check determinism, the staged-versus-run equivalence,
exit codes, and a pinned report so silent behavior drift shows up as a diff.
"""

import collections
import contextlib
import csv
import dataclasses
import fnmatch
import hashlib
import io
import json
import os
import re
import shutil

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import cohort_oracle
from conftest import cohort_row, make_csv
from glyrl import cli, cohort, mdp, pipeline, synthgen
from glyrl.cohort import hours_dtype, parse_cohort
from glyrl.config import PipelineConfig, load_config
from glyrl.errors import (ConvergenceError, DataError, ParseError,
                          TrainingDivergedError)
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


@pytest.fixture(scope="module")
def sparse_golden(workspace):
    """The artifacts directory of a SPARSE_CONFIG_YAML run of the golden
    cohort."""
    config = workspace["root"] / "sparse_run.yaml"
    config.write_text(SPARSE_CONFIG_YAML)
    art = workspace["root"] / "sparse_run"
    assert run_cli(["run", "--config", str(config), "--input",
                    workspace["cohort"], "--out", str(art)])[0] == 0
    return str(art)


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
    'report.json': 'e949c88313f59bc41457b0aafa455c7c0da7d482ab1080f0c4cd3400b9f752ea',
    'solution/optimal.csv': 'ffd73de75dac81d0ba41943a5cc408ae84973d71d8a240bda430bce1b6693c4c',
    'solution/q_optimal.csv': '4fb91b42a052899998ff19cb4a72d90b45d4ceeea9e05d92012c80531f49903a',
    'solution/real.csv': '52d81cd6b6320bf1fb4b1df3298611299df8cb7ed22e9b03d53f0c231dd0ccb7',
    'test.csv': '23fc709fb4b227b092d87914ed0f1fe5efb7a2bc6b1f3107c316043217f299d8',
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
def test_staged_chain_matches_run(workspace, golden, sparse_golden, tmp_path,
                                  config_yaml):
    # each subcommand reads every file it needs back from disk, while run
    # hands decoded values from stage to stage: the bytes must not differ
    config = tmp_path / "config.yaml"
    config.write_text(config_yaml)
    ran = golden["art"] if config_yaml == CONFIG_YAML else sparse_golden
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


def readme_table_columns():
    """File name pattern -> column line, from README's table of the text
    tables."""
    with open(README) as fh:
        lines = fh.read().split("| file | columns |", 1)[1].splitlines()[2:]
    columns = {}
    for line in lines[:lines.index("")]:
        _, files, cells, _ = line.split("|")
        for pattern in re.findall(r"`([^`]+)`", files):
            columns[pattern] = cells.strip().strip("`")
    return columns


def _canonical(cell):
    """``cell`` as write_table writes its number: an int, or a float's repr."""
    try:
        return str(int(cell))
    except ValueError:
        return repr(float(cell))


@pytest.mark.parametrize("representation", ["raw", "sparse_ae"])
def test_every_text_table_reads_back_with_the_readme_columns(
        golden, sparse_golden, representation):
    art = golden["art"] if representation == "raw" else sparse_golden
    columns = readme_table_columns()
    with open(os.path.join(art, pipeline.MANIFEST_FILE)) as fh:
        stages = json.load(fh)["stages"]
    tables = []
    for rel in (rel for entry in stages.values() for rel in entry):
        matches = {line for pattern, line in columns.items()
                   if fnmatch.fnmatch(rel, pattern)}
        if not rel.endswith((".csv", ".txt")):
            assert not matches, rel
            continue
        (line,) = matches
        with open(os.path.join(art, rel)) as fh:
            text = fh.read()
        header = json.loads(text.split("\n", 1)[0]) \
            if text.startswith("{") else {}
        names = line.split(",")
        _, cells = mdp.read_table(text, header.get("format", rel), line,
                                  [str] * len(names), header.get("version"))
        assert len(cells[0]) > 0, rel
        # a field is an id, an integer, or a float written as its repr
        for name, col in zip(names, cells):
            if name != "patient_id":
                col = col.tolist()
                assert col == [_canonical(c) for c in col], (rel, name)
        tables.append(rel)
    assert sorted(tables) == [
        "assignments.csv", "curve.csv", "mdp/mdp.txt",
        "mdp/trajectories_test.csv", "mdp/trajectories_train.csv",
        "solution/optimal.csv", "solution/q_optimal.csv", "solution/real.csv",
        "test.csv"]


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


def test_rerunning_a_stage_drops_the_entries_of_later_stages(
        workspace, golden, tmp_path, caplog, capsys):
    # cluster rewrites the states build-mdp counted, so the MDP, solutions
    # and report of the old states are no longer trusted, whatever config
    # the later stages are given
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    config = tmp_path / "k7.yaml"
    config.write_text("seed: 3\nclustering:\n  k: 7\n")
    common = ["--config", str(config), "--out", str(art)]
    assert run_cli(["cluster"] + common)[0] == 0
    stages = json.loads((art / "manifest.json").read_text())["stages"]
    assert set(stages) == {"ingest", "train-encoder", "cluster"}
    for command, writer, rel in [("solve", "build-mdp", "mdp/mdp.txt"),
                                 ("evaluate", "solve", "solution/real.csv")]:
        caplog.clear()
        rc, _ = run_cli([command] + common)
        assert rc == cli.DATA_EXIT
        assert "stage %r: the manifest records no %s checksum for %s; " \
            "rerun %s" % (command, writer, art / rel, writer) in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert json.loads((art / "manifest.json").read_text())["stages"] == stages


def fail_after_writing(config, *args):
    """A stage that writes a file and then fails."""
    args[-1].write("partial.txt", "written before the failure\n")
    raise DataError("failed after writing")


@pytest.mark.parametrize("name", [name for name, _, _ in pipeline.STAGES])
def test_a_stage_that_raises_leaves_the_manifest_as_it_was(
        workspace, golden, tmp_path, monkeypatch, caplog, name):
    # what a stage writes before it fails is never recorded
    monkeypatch.setattr(pipeline, "stage_" + name.replace("-", "_"),
                        fail_after_writing)
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    written = (art / "manifest.json").read_bytes()
    inputs = ["--input", workspace["cohort"]] if READS_COHORT[name] else []
    rc, _ = run_cli([name, "--config", workspace["config"], *inputs,
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "stage %r: failed after writing" % name in caplog.text
    assert (art / "partial.txt").exists()
    assert (art / "manifest.json").read_bytes() == written


def test_run_writes_the_manifest_once_per_run(workspace, golden, tmp_path,
                                              monkeypatch):
    written = []
    write_file = pipeline.write_file

    def counted(path, content):
        written.append(os.path.basename(path))
        return write_file(path, content)

    monkeypatch.setattr(pipeline, "write_file", counted)
    art = tmp_path / "art"
    assert run_cli(["run", "--config", workspace["config"],
                    "--input", workspace["cohort"], "--out", str(art)])[0] == 0
    assert written.count(pipeline.MANIFEST_FILE) == 1
    assert tree_hashes(str(art)) == tree_hashes(golden["art"])


@pytest.mark.parametrize("earlier_run", [False, True],
                         ids=["fresh", "over_a_run"])
@pytest.mark.parametrize("name", [name for name, _, _ in pipeline.STAGES])
def test_a_run_that_fails_leaves_the_manifest_of_the_stages_before(
        workspace, golden, tmp_path, monkeypatch, caplog, name, earlier_run):
    # the run leaves the manifest that the stages before the failing one
    # leave when each runs as a subcommand: after a failure in ingest, the
    # earlier run's manifest, or none in a fresh directory
    names = [name for name, _, _ in pipeline.STAGES]
    art, staged = tmp_path / "art", tmp_path / "staged"
    if earlier_run:
        shutil.copytree(golden["art"], art)
        shutil.copytree(golden["art"], staged)
    for earlier in names[:names.index(name)]:
        inputs = ["--input", workspace["cohort"]] if READS_COHORT[earlier] \
            else []
        assert run_cli([earlier, "--config", workspace["config"], *inputs,
                        "--out", str(staged)])[0] == 0
    monkeypatch.setattr(pipeline, "stage_" + name.replace("-", "_"),
                        fail_after_writing)
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "stage %r: failed after writing" % name in caplog.text
    assert (art / "partial.txt").exists()
    left = [(root / "manifest.json").read_bytes()
            if (root / "manifest.json").exists() else None
            for root in (art, staged)]
    assert left[0] == left[1]
    assert (left[0] is None) == (name == "ingest" and not earlier_run)


def test_a_failed_manifest_write_leaves_the_stage_error_to_propagate(
        workspace, tmp_path, monkeypatch, caplog):
    write_file = pipeline.write_file

    def no_manifest(path, content):
        if os.path.basename(path) == pipeline.MANIFEST_FILE:
            raise OSError("disk full")
        return write_file(path, content)

    monkeypatch.setattr(pipeline, "write_file", no_manifest)
    monkeypatch.setattr(pipeline, "stage_evaluate", fail_after_writing)
    art = tmp_path / "art"
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "stage 'evaluate': failed after writing" in caplog.text
    assert "cannot write %s: disk full" % (art / "manifest.json") \
        in caplog.text
    assert not (art / "manifest.json").exists()


def test_a_run_renames_onto_no_existing_file_and_reruns_to_the_same_tree(
        workspace, golden, tmp_path, monkeypatch):
    # on ext4 a rename onto an existing file waits for the data written
    # before it to reach the disk: a run into a fresh directory makes none
    art = tmp_path / "art"
    renames = []
    replace = os.replace

    def recorded(src, dst, *args, **kwargs):
        renames.append((os.path.relpath(dst, art), os.path.exists(dst)))
        return replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", recorded)
    argv = ["run", "--config", workspace["config"],
            "--input", workspace["cohort"], "--out", str(art)]
    assert run_cli(argv)[0] == 0
    first = tree_hashes(str(art))
    assert first == tree_hashes(golden["art"])
    # each file is renamed into place once, onto nothing
    assert sorted(renames) == sorted((rel, False) for rel in first)
    renames.clear()
    assert run_cli(argv)[0] == 0
    assert tree_hashes(str(art)) == first
    assert sorted(renames) == sorted((rel, True) for rel in first)


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


def count_models_made(monkeypatch):
    """The list every MDPModel made from now on is appended to."""
    made = []
    post_init = mdp.MDPModel.__post_init__

    def counted(model):
        made.append(model)
        post_init(model)

    monkeypatch.setattr(mdp.MDPModel, "__post_init__", counted)
    return made


def test_a_run_makes_the_mdp_once(workspace, golden, tmp_path, monkeypatch):
    # build-mdp makes the model and hands it to solve, which solves it
    # twice on the pair table it was made with
    made = count_models_made(monkeypatch)
    art = tmp_path / "art"
    assert run_cli(["run", "--config", workspace["config"],
                    "--input", workspace["cohort"], "--out", str(art)])[0] == 0
    assert len(made) == 1
    assert tree_hashes(str(art)) == tree_hashes(golden["art"])


def test_solve_makes_the_mdp_once(workspace, golden, tmp_path, monkeypatch):
    # a standalone solve makes the model once, in load_mdp, and the
    # solution files keep their bytes; evaluate must run again
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    made = count_models_made(monkeypatch)
    assert run_cli(["solve", "--config", workspace["config"],
                    "--out", str(art)])[0] == 0
    assert len(made) == 1
    hashes, golden_hashes = tree_hashes(str(art)), tree_hashes(golden["art"])
    assert {rel: sha for rel, sha in hashes.items()
            if rel.startswith("solution")} == \
        {rel: sha for rel, sha in golden_hashes.items()
         if rel.startswith("solution")}
    stages = json.loads((art / "manifest.json").read_text())["stages"]
    assert set(stages) == {name for name, _, _ in pipeline.STAGES[:-1]}


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


def test_a_run_reads_the_manifest_once_and_no_file_it_wrote(
        workspace, monkeypatch, tmp_path):
    # a run reads back only hours.npy: every other file a later stage needs
    # is handed over decoded, and every stage checks against the manifest
    # the run read when it started
    art = tmp_path / "art"
    manifest_reads, reads = [], collections.Counter()
    manifest_read = pipeline._manifest_read

    def counted_manifest_read(art_dir):
        manifest_reads.append(art_dir)
        return manifest_read(art_dir)

    def counted_open(path, mode="r", *args, **kwargs):
        # counted once open: ingest's look for a manifest finds none
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode and str(path).startswith(str(art)):
            reads[os.path.relpath(path, art)] += 1
        return fh

    monkeypatch.setattr(pipeline, "_manifest_read", counted_manifest_read)
    monkeypatch.setattr(pipeline, "open", counted_open, raising=False)
    rc, _ = run_cli(["run", "--config", workspace["config"],
                     "--input", workspace["cohort"], "--out", str(art)])
    assert rc == 0
    assert len(manifest_reads) == 1
    # the run finds no manifest yet
    assert reads == {"hours.npy": len(READERS["hours.npy"])}


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


# every subcommand that takes --out as an artifacts directory, and whether
# it also takes --input
READS_COHORT = {name: reads for name, _, reads in pipeline.STAGES}
READS_COHORT["run"] = True


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", sorted(READS_COHORT))
def test_out_on_a_file_exits_1_naming_the_path(workspace, tmp_path, caplog,
                                               capsys, command, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "art" if under else blocker
    # a cohort that does not exist exits 2 if it is opened: --out must be
    # refused before it is
    inputs = ["--input", str(tmp_path / "missing.csv")] \
        if READS_COHORT[command] else []
    rc, _ = run_cli([command, "--config", workspace["config"], *inputs,
                     "--out", str(out)])
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
    digest = pipeline.write_file(str(path), content)
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
    # an int too large to become a float
    ("mdp.bin_edges", "mdp: {bin_edges: [60, 1%s]}" % ("0" * 400)),
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


@pytest.mark.parametrize("command", ["run", "synth"])
def test_deeply_nested_yaml_exits_1_as_invalid_config(workspace, tmp_path,
                                                      caplog, capsys, command):
    # PyYAML recurses once per level: the reader turns the RecursionError
    # into the same error as any YAML it cannot parse
    bad = tmp_path / "deep.yaml"
    bad.write_text("seed: " + "[" * 5000 + "]" * 5000 + "\n")
    out = tmp_path / "never"
    argv = [command, "--config", str(bad), "--out", str(out)]
    if command == "run":
        argv += ["--input", workspace["cohort"]]
    rc, _ = run_cli(argv)
    assert rc == cli.USAGE_EXIT
    assert "config %s is not valid YAML" % bad in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert not out.exists()


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


def test_cluster_with_k_above_the_training_hours_exits_1_naming_the_key(
        workspace, golden, tmp_path, caplog, capsys):
    # ingest ran with k = 5; a standalone cluster gets the same check
    train_hours = int(np.count_nonzero(np.load(
        os.path.join(golden["art"], "hours.npy"))["split"] == 0))
    art = tmp_path / "art"
    shutil.copytree(golden["art"], art)
    bad = tmp_path / "big_k.yaml"
    bad.write_text("seed: 3\nclustering:\n  k: 100000\n")
    rc, _ = run_cli(["cluster", "--config", str(bad), "--out", str(art)])
    assert rc == cli.USAGE_EXIT
    assert "stage 'cluster': clustering.k is 100000, but the cohort has only " \
        "%d training hours" % train_hours in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert tree_hashes(str(art)) == tree_hashes(golden["art"])


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


def gamma_dropped(lines):
    header = json.loads(lines[0])
    del header["gamma"]
    return [json.dumps(header, sort_keys=True) + "\n"] + lines[1:]


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


def death_step_dropped(lines):
    """The last step of the first patient who dies after more than one step
    deleted: that patient now ends without entering DEATH (6, k being 5)."""
    rows = [line.rstrip("\n").split(",") for line in lines]
    at = next(i for i, row in enumerate(rows)
              if i and row[4] == "6" and row[1] != "0")
    return lines[:at] + lines[at + 1:]


def early_terminal(lines):
    """The first step that is not its patient's last made to enter SURVIVE
    (5, k being 5)."""
    rows = [line.rstrip("\n").split(",") for line in lines]
    at = next(i for i in range(1, len(rows) - 1)
              if rows[i][0] == rows[i + 1][0])
    lines[at] = ",".join(rows[at][:4] + ["5"]) + "\n"
    return lines


# the trajectory files' end rule, for k = 5
END_RULE = "a patient's last step, and only it, enters SURVIVE (5) or DEATH (6)"


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
     "header k is 'five', not an integer"),
    ("solve", "mdp/mdp.txt", edit_header(version=2), "mdp.txt",
     "unsupported glyrl-mdp version 2"),
    ("solve", "mdp/mdp.txt", mdp_columns_renamed, "mdp.txt",
     "column header is not 's,a,s_next,count,p'"),
    ("solve", "mdp/mdp.txt", edit_header(n_states=None), "mdp.txt",
     "header n_states is None, not an integer"),
    ("solve", "mdp/mdp.txt", edit_header(k=float("inf")), "mdp.txt",
     "header k is inf, not an integer"),
    ("solve", "mdp/mdp.txt", edit_header(min_count=5.5), "mdp.txt",
     "header min_count is 5.5, not an integer"),
    ("solve", "mdp/mdp.txt", nan_value, "mdp/mdp.txt",
     "stored probabilities disagree with counts"),
    ("solve", "mdp/mdp.txt", edit_header(gamma="0.9"), "mdp/mdp.txt",
     "gamma must be a number in [0, 1), got '0.9'"),
    ("evaluate", "mdp/trajectories_train.csv", step_skipped,
     "trajectories_train.csv", "non-contiguous steps"),
    ("evaluate", "solution/real.csv", edit_header(k=None), "real.csv",
     "header k is None, not an integer"),
    ("evaluate", "solution/real.csv", edit_header(k=5.0), "real.csv",
     "header k is 5.0, not an integer"),
    ("evaluate", "solution/real.csv", nested_too_deep, "real.csv",
     "maximum recursion depth exceeded"),
    ("evaluate", "solution/real.csv", value_raised_by_5, "real.csv", TAMPERED),
    ("build-mdp", "assignments.csv", state_moved, "assignments.csv", TAMPERED),
    ("evaluate", "mdp/trajectories_test.csv", death_step_dropped,
     "trajectories_test.csv", END_RULE),
    ("evaluate", "mdp/trajectories_train.csv", early_terminal,
     "trajectories_train.csv", END_RULE),
    ("solve", "mdp/mdp.txt", gamma_dropped, "mdp/mdp.txt",
     "no 'gamma' field"),
] + [
    (READERS[rel][0], rel, cut_mid_line, os.path.basename(rel),
     "has 1 fields, expected %d" % fields)
    for rel, fields in TABLE_FIELDS.items()
], ids=["test_state_99", "optimal_cut_to_k4", "train_state_99",
        "swapped_labels", "optimal_value_nan", "train_emptied",
        "real_k_not_a_number", "mdp_version_2", "mdp_columns_renamed",
        "mdp_n_states_null", "mdp_k_infinite", "mdp_min_count_fractional",
        "mdp_p_nan", "mdp_gamma_text", "train_step_skipped",
        "real_k_null", "real_k_float", "real_header_too_deep", "tampered_real_value",
        "tampered_assignment", "test_death_step_dropped",
        "train_early_terminal", "mdp_gamma_missing"] + [
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


@pytest.mark.parametrize("version", [True, 1.0, "1"],
                         ids=["true", "float", "string"])
@pytest.mark.parametrize("command,rel,fmt", [
    ("solve", "mdp/mdp.txt", "glyrl-mdp"),
    ("evaluate", "solution/optimal.csv", "glyrl-solution"),
    ("evaluate", "solution/real.csv", "glyrl-solution"),
    ("cluster", "encoder.model", "glyrl-encoder"),
], ids=["mdp", "optimal", "real", "encoder"])
def test_header_version_other_than_the_integer_1_exits_2_and_names_it(
        workspace, golden, sparse_golden, caplog, capsys, request, command,
        rel, fmt, version):
    art = workspace["root"] / ("header_version_" + request.node.callspec.id)
    if rel == "encoder.model":
        shutil.copytree(sparse_golden, art)
        config = str(workspace["root"] / "sparse_run.yaml")
        doc = json.loads((art / rel).read_text())
        doc["version"] = version
        (art / rel).write_text(json.dumps(doc))
    else:
        shutil.copytree(golden["art"], art)
        config = workspace["config"]
        edit_lines(art / rel, edit_header(version=version))
    rerecord(art, rel)
    rc, _ = run_cli([command, "--config", config, "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "%s: unsupported %s version %r" % (art / rel, fmt, version) \
        in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda manifest: [], "not a glyrl-manifest file"),
    (lambda manifest: dict(manifest, stages=[]), "stages is not a mapping"),
], ids=["list", "stages_list"])
def test_manifest_that_is_not_one_exits_2_and_names_it(
        workspace, golden, caplog, capsys, request, edit, message):
    art = workspace["root"] / ("not_manifest_" + request.node.callspec.id)
    shutil.copytree(golden["art"], art)
    manifest = json.loads((art / "manifest.json").read_text())
    (art / "manifest.json").write_text(json.dumps(edit(manifest)))
    written = (art / "manifest.json").read_bytes()
    rc, _ = run_cli(["evaluate", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "manifest %s: %s" % (art / "manifest.json", message) in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert (art / "manifest.json").read_bytes() == written


def test_empty_test_split_is_scored_on_the_training_split(
        workspace, golden, caplog):
    art = workspace["root"] / "empty_test_split"
    shutil.copytree(golden["art"], art)
    edit_lines(art / "mdp" / "trajectories_test.csv", header_only)
    rerecord(art, "mdp/trajectories_test.csv")
    rc, stdout = run_cli(["evaluate", "--config", workspace["config"],
                          "--out", str(art)])
    assert rc == 0
    assert "empty test split, scoring on the training split" in caplog.text
    report = json.loads(stdout)
    anchor = report["train_anchor"]
    assert report["cohort_mortality"] == anchor["empirical_mortality"]
    assert report["real"]["estimated_mortality"] == \
        anchor["estimated_mortality_real"]
    assert report["cohort_mortality"] != golden["report"]["cohort_mortality"]


def test_cohort_without_glucose_readings_exits_2_in_build_mdp(
        workspace, tmp_path, caplog):
    with open(workspace["cohort"], newline="") as fh:
        rows = list(csv.reader(fh))
    at = rows[0].index("glucose_mgdl")
    for row in rows[1:]:
        row[at] = ""
    cohort = tmp_path / "no_glucose.csv"
    with open(cohort, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc, _ = run_cli(["run", "--config", workspace["config"], "--input",
                     str(cohort), "--out", str(tmp_path / "art")])
    assert rc == cli.DATA_EXIT
    assert "stage 'build-mdp': no usable training trajectories" in caplog.text
    assert not (tmp_path / "art" / "mdp").exists()


@pytest.mark.parametrize("doc,key", [
    ({"preprocessing": {"min_age": -1}}, "preprocessing.min_age"),
    ({"preprocessing": {"min_sofa": -1}}, "preprocessing.min_sofa"),
    ({"preprocessing": {"max_missing_fraction": 1.5}},
     "preprocessing.max_missing_fraction"),
    ({"clustering": {"k": 0}}, "clustering.k"),
    ({"clustering": {"tol": -1e-6}}, "clustering.tol"),
    ({"clustering": {"max_iters": -1}}, "clustering.max_iters"),
    ({"mdp": {"min_count": 0}}, "mdp.min_count"),
    ({"solver": {"epsilon": 0.0}}, "solver.epsilon"),
    ({"calibration": {"n_bins": 1}}, "calibration.n_bins"),
    ({"calibration": {"min_bin_support": 0}}, "calibration.min_bin_support"),
    ({"covariates": []}, "covariates"),
    ({"mdp": {"bin_edges": 100.0}}, "mdp.bin_edges"),
    ({"clustering": 5}, "'clustering'"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_config_value_out_of_range_exits_1_and_names_it(
        workspace, tmp_path, caplog, doc, key):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    rc, _ = run_cli(["solve", "--config", str(config),
                     "--out", str(tmp_path / "art")])
    assert rc == cli.USAGE_EXIT
    assert key in caplog.text
    assert not (tmp_path / "art").exists()


READER_PAIRS = [(rel, command) for rel, commands in READERS.items()
                for command in commands]


def refuses_damage(workspace, golden, caplog, capsys, rel, command, damage,
                   at=None):
    """Damage a copy of one recorded artifact (its checksum left as
    recorded), run a stage that reads it, and return the log.  A flip
    changes the byte at offset ``at`` and a truncation cuts the file to
    ``at`` bytes, by default half its length."""
    art = workspace["root"] / ("%s_%s_%s"
                               % (damage, command, rel.replace("/", "_")))
    shutil.rmtree(art, ignore_errors=True)
    shutil.copytree(golden["art"], art)
    caplog.clear()
    path = art / rel
    data = path.read_bytes()
    at = len(data) // 2 if at is None else at
    if damage == "flipped":
        path.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
    elif damage == "truncated":
        path.write_bytes(data[:at])
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


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flipped_byte_or_cut_length_is_refused(workspace, golden, caplog,
                                                   capsys, data):
    rel, command = data.draw(st.sampled_from(READER_PAIRS))
    damage = data.draw(st.sampled_from(["flipped", "truncated"]))
    size = os.path.getsize(os.path.join(golden["art"], rel))
    at = data.draw(st.integers(0, size - 1), label="offset or cut length")
    assert TAMPERED in refuses_damage(workspace, golden, caplog, capsys, rel,
                                      command, damage, at)


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


@pytest.mark.parametrize("version", [99, 0, "1", True, None])
def test_manifest_of_another_version_exits_2_and_names_it(
        workspace, golden, caplog, capsys, version):
    art = workspace["root"] / ("manifest_version_%s" % version)
    shutil.copytree(golden["art"], art)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["version"] = version
    (art / "manifest.json").write_text(json.dumps(manifest))
    written = (art / "manifest.json").read_bytes()
    rc, _ = run_cli(["evaluate", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "manifest %s: unsupported glyrl-manifest version %r" % (
        art / "manifest.json", version) in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert (art / "manifest.json").read_bytes() == written


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
    elif how == "no_rows":
        rows = rows[:0]
    return rows


@pytest.mark.parametrize("how", ["state_above_one", "state_nan",
                                 "glucose_negative", "hour_gap",
                                 "test_rows_first", "plain_matrix",
                                 "no_rows"])
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


@pytest.mark.parametrize("declared", ["ten_trillion_rows", "three_rows_short"])
def test_hours_header_misstating_its_rows_exits_2_and_names_it(
        workspace, golden, caplog, capsys, declared):
    # the data bytes kept and the checksum re-recorded: np.load would
    # allocate ten trillion rows, or leave the last three rows unread
    art, path = copy_with_hours(workspace, golden, "hours_header_" + declared)
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        (rows,), _, dtype = np.lib.format.read_array_header_1_0(fh)
        data = fh.read()
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "shape": (10 ** 13 if declared == "ten_trillion_rows" else rows - 3,),
        "fortran_order": False,
        "descr": np.lib.format.dtype_to_descr(dtype)})
    path.write_bytes(header.getvalue() + data)
    rerecord(art, "hours.npy")
    rc, _ = run_cli(["cluster", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "malformed model-ready hours %s: its header declares" % path \
        in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_hours_in_npy_format_2_exits_2_and_names_it(workspace, golden, caplog,
                                                  capsys):
    # ingest writes format 1.0 only, and only 1.0 is read back
    art, path = copy_with_hours(workspace, golden, "hours_npy_2_0")
    rows = np.load(str(path), allow_pickle=False)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, rows, version=(2, 0), allow_pickle=False)
    rerecord(art, "hours.npy")
    rc, _ = run_cli(["cluster", "--config", workspace["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "malformed model-ready hours %s: " % path in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


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

    # test.csv lists exactly the test rows' patient-hours, in order
    rows = np.load(os.path.join(golden["art"], "hours.npy"), allow_pickle=False)
    rows = rows[rows["split"] == 1]
    with open(os.path.join(golden["art"], "test.csv")) as fh:
        _, (ids, hours) = mdp.read_table(fh.read(), "test hours",
                                         "patient_id,hour_index", (str, int))
    assert len(rows) > 0
    assert ids.tolist() == rows["patient_id"].tolist()
    assert hours.tolist() == rows["hour"].tolist()


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
    def explode(config, files):
        raise ConvergenceError("policy evaluation exceeded iteration cap")

    monkeypatch.setattr(pipeline, "stage_solve", explode)
    rc, _ = run_cli(["solve", "--config", workspace["config"],
                     "--out", golden["art"]])
    assert rc == cli.NUMERICAL_EXIT


# The SHA-256 of every file the manifest records in the SPARSE_CONFIG_YAML
# run of the golden cohort: encoder.model and every file downstream of it.
SPARSE_GOLDEN_SHA256 = {
    'assignments.csv': '078209cda66533d51063e1e516debd4d8bd3e7e200f52380d9f4cffcdb078937',
    'clusters.model': '9de5e643422b914289d09ae385f0c31f816e05b6d6cb188d785b67acf6ad21f4',
    'curve.csv': '8391266824b9971e93d7c02ffcc0f0c56ed4be3d6d71190b5e51f152ce4e4eed',
    'encoder.model': '867809bb15e3343841a6ccef71c398b71021d14cebaf356b227a2362815ff860',
    'exclusions.json': 'c3a25e0ddae3ff79ca46deb62cdad85c66de21e2def765220da2176df3008e30',
    'hours.npy': '9810269242af19eed6264f2d1176598c126a7a6e999df3afce3eefc0cdb383e5',
    'mdp/mdp.txt': 'cc359042a1d4cca0e54597cfc1f8f1c815dbc46d569bf39a245302ba4cc589d1',
    'mdp/trajectories_test.csv': 'd6caeb04ef80674ea5e1790636faca767fcc35293347aa1156cbbda0c56dcc18',
    'mdp/trajectories_train.csv': 'f4c39bf6342d88418f1e74362ff88c3a7b37588f4f5e6356bf757cf5ecabb8c7',
    'norm_spec.json': 'e61a615ab19c6ba26f764a0270c180cd00e78a7e5f0b4c098cf82e25a15518a6',
    'report.json': 'ad2446a286394bd8acaf64c1b840f27b38c91879098bd8c2a154e86745afedf2',
    'solution/optimal.csv': '70cb6598acc4769914fc617db4ee0ae9f0e713feca4eb0b50bb431716412c931',
    'solution/q_optimal.csv': 'd028b47d2eac3ebc4e94c310031c10bd67492ee232a664bdd88a3ef1a1a4bc54',
    'solution/real.csv': '49b748c520b6d6740a8129dff6719c1bf0afabf8eb34dbec8d2ca6a15416a367',
    'test.csv': '23fc709fb4b227b092d87914ed0f1fe5efb7a2bc6b1f3107c316043217f299d8',
}


@pytest.mark.parametrize("config_yaml,seed", [
    (CONFIG_YAML, 0), (CONFIG_YAML, 1), (CONFIG_YAML, 2),
    (SPARSE_CONFIG_YAML, 3),
], ids=["raw_0", "raw_1", "raw_2", "sparse_ae_3"])
def test_shuffled_cohort_rows_give_byte_identical_artifacts(
        workspace, golden, sparse_golden, tmp_path, config_yaml, seed):
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
        assert hashes == tree_hashes(sparse_golden)
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
    assert str(err.value).startswith("stage 'ingest': cohort %s line 5: "
                                     % cohort)


def test_ingest_subcommand_names_its_stage_like_run(workspace, tmp_path,
                                                    caplog):
    lines = open(workspace["cohort"]).read().splitlines(keepends=True)
    cohort = tmp_path / "short.csv"
    cohort.write_text(lines[0] + lines[1])  # one patient with one hour
    for command in ("ingest", "run"):
        caplog.clear()
        rc, _ = run_cli([command, "--config", workspace["config"], "--input",
                         str(cohort), "--out", str(tmp_path / command)])
        assert rc == cli.DATA_EXIT
        assert "stage 'ingest': cohort %s patient " % cohort in caplog.text


def test_non_utf8_cohort_exits_2_and_names_file_and_line(workspace, tmp_path,
                                                        caplog, capsys):
    lines = open(workspace["cohort"], "rb").read().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"MICU", b"\xff\xfeMICU", 1)
    cohort = tmp_path / "latin.csv"
    cohort.write_bytes(b"".join(lines))
    rc, _ = run_cli(["ingest", "--config", workspace["config"],
                     "--input", str(cohort), "--out", str(tmp_path / "art")])
    assert rc == cli.DATA_EXIT
    assert "%s line 3: icu_unit is not UTF-8 text" % cohort in caplog.text
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


def ingest_lines(workspace, tmp_path, name, lines):
    """The exit code of ``ingest`` on a cohort of ``lines`` (bytes), and
    the cohort's path."""
    cohort = tmp_path / name
    cohort.write_bytes(b"".join(lines))
    rc, _ = run_cli(["ingest", "--config", workspace["config"],
                     "--input", str(cohort), "--out", str(tmp_path / "art")])
    return rc, cohort


def with_cell(line, header, column, cell):
    fields = line.split(b",")
    fields[header.split(b",").index(column)] = cell
    return b",".join(fields)


@pytest.mark.parametrize("late", ["oversized", "not_utf8"])
def test_the_earliest_bad_line_wins_over_a_later_reader_failure(
        workspace, tmp_path, caplog, capsys, late):
    # lines 4 and 10 fall in one chunk: the CSV reader fails on line 10,
    # or its decoder meets a byte that is not UTF-8 there, after the rows
    # up to line 9 were read, and those rows are still checked
    lines = open(workspace["cohort"], "rb").read().splitlines(keepends=True)
    lines[3] = with_cell(lines[3], lines[0], b"glucose_mgdl", b"abc")
    lines[9] = with_cell(lines[9], lines[0], b"icd9_codes",
                         b"4" * 200_000 if late == "oversized" else b"\xff")
    rc, cohort = ingest_lines(workspace, tmp_path, late + ".csv", lines)
    assert rc == cli.DATA_EXIT
    assert "cohort %s line 4: cannot parse glucose_mgdl='abc'" % cohort \
        in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_oversized_header_field_exits_2_naming_line_1(workspace, tmp_path,
                                                     caplog, capsys):
    lines = open(workspace["cohort"], "rb").read().splitlines(keepends=True)
    lines[0] = b"x" * 200_000 + b"," + lines[0]
    rc, cohort = ingest_lines(workspace, tmp_path, "header.csv", lines)
    assert rc == cli.DATA_EXIT
    assert "cohort %s line 1: field larger than field limit" % cohort \
        in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_header_byte_that_is_not_utf8_exits_2_naming_line_1(
        workspace, tmp_path, caplog):
    lines = open(workspace["cohort"], "rb").read().splitlines(keepends=True)
    lines[0] = lines[0].rstrip(b"\n") + b"\xff\n"
    rc, cohort = ingest_lines(workspace, tmp_path, "header.csv", lines)
    assert rc == cli.DATA_EXIT
    assert "cohort %s line 1: the header is not UTF-8 text" % cohort \
        in caplog.text


def test_byte_order_mark_is_dropped(workspace, golden, tmp_path):
    # spreadsheet exports start a UTF-8 file with one
    data = open(workspace["cohort"], "rb").read()
    rc, _ = ingest_lines(workspace, tmp_path, "bom.csv",
                         [b"\xef\xbb\xbf", data])
    assert rc == 0
    assert (tmp_path / "art" / "hours.npy").read_bytes() == \
        open(os.path.join(golden["art"], "hours.npy"), "rb").read()


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
    assert "cohort %s line %d: NUL character in patient_id" % (
        cohort, len(lines) + 1) in caplog.text


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
    assert "cohort %s line 2: patient_id 'x,%s' holds a comma, quote, CR " \
        "or LF" % (cohort_csv, pid) in caplog.text


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


def malform_encoder(doc, how):
    if how == "nan_weight":
        doc["W_enc"][0][0] = float("nan")  # Python's JSON reader takes NaN
    elif how == "W_dec_misshapen":
        doc["W_dec"].pop()
    else:
        doc["b_enc"].pop()


# an encoder.model that parses, its checksum re-recorded: what the cluster
# stage says about it
MALFORMED_ENCODERS = {
    "nan_weight": "encoder parameters contain non-finite values",
    "W_dec_misshapen": "decoder weights shaped (14, 4), expected (15, 4)",
    "b_enc_misshapen": "bias shapes inconsistent with weight matrices",
}


@pytest.mark.parametrize("damage", ["tampered", "flipped", "truncated",
                                    "missing", "unrecorded",
                                    *MALFORMED_ENCODERS])
def test_damaged_encoder_exits_2_and_names_it(workspace, sparse_art, caplog,
                                              capsys, damage):
    art = workspace["root"] / ("encoder_" + damage)
    shutil.copytree(sparse_art["art"], art)
    model = art / "encoder.model"
    data = model.read_bytes()
    mid = len(data) // 2
    if damage == "tampered":
        doc = json.loads(data)
        doc["W_enc"][0][0] += 0.5
        model.write_text(json.dumps(doc, indent=1) + "\n")
    elif damage == "flipped":
        model.write_bytes(data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:])
    elif damage == "truncated":
        model.write_bytes(data[:mid])
    elif damage == "missing":
        model.unlink()
    elif damage in MALFORMED_ENCODERS:
        doc = json.loads(data)
        malform_encoder(doc, damage)
        model.write_text(json.dumps(doc))
        rerecord(art, "encoder.model")
    else:
        manifest = json.loads((art / "manifest.json").read_text())
        del manifest["stages"]["train-encoder"]["encoder.model"]
        (art / "manifest.json").write_text(json.dumps(manifest))
    rc, _ = run_cli(["cluster", "--config", sparse_art["config"],
                     "--out", str(art)])
    assert rc == cli.DATA_EXIT
    assert "encoder.model" in caplog.text
    if damage in ("tampered", "flipped", "truncated"):
        assert TAMPERED in caplog.text
    if damage in MALFORMED_ENCODERS:
        assert "malformed encoder model %s: %s" % (
            model, MALFORMED_ENCODERS[damage]) in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_encoder_of_another_state_width_exits_2_and_names_it(
        workspace, sparse_golden, tmp_path, caplog, capsys):
    # a sparse_ae run on the 4-covariate cohort, then ingest of the same
    # cohort without its last covariate into the same directory: ingest
    # drops train-encoder's entry, so the old encoder.model is not trusted
    art = tmp_path / "art"
    shutil.copytree(sparse_golden, art)
    narrow = tmp_path / "three_covariates.csv"
    with open(workspace["cohort"]) as fh:
        narrow.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                  for line in fh))
    config = tmp_path / "config.yaml"
    config.write_text(SPARSE_CONFIG_YAML
                      + "covariates: [heart_rate, mean_bp, lactate]\n")
    common = ["--config", str(config), "--out", str(art)]
    assert run_cli(["ingest", "--input", str(narrow)] + common)[0] == 0
    caplog.clear()
    rc, _ = run_cli(["cluster"] + common)
    assert rc == cli.DATA_EXIT
    assert "stage 'cluster': the manifest records no train-encoder checksum " \
        "for %s; rerun train-encoder" % (art / "encoder.model") in caplog.text

    # with the old entry recorded again, cluster gets past the checksum to
    # the model's input width, which still is the old state width
    with open(os.path.join(sparse_golden, "manifest.json")) as fh:
        old = json.load(fh)["stages"]["train-encoder"]
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["stages"]["train-encoder"] = old
    (art / "manifest.json").write_text(json.dumps(manifest))
    caplog.clear()
    rc, _ = run_cli(["cluster"] + common)
    assert rc == cli.DATA_EXIT
    assert "%s takes 15 state features but %s has 14; rerun train-encoder" \
        % (art / "encoder.model", art / "hours.npy") in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_evaluate_reports_manifest_representation_on_mismatch(
        workspace, golden, caplog):
    relabeled = workspace["root"] / "relabeled"
    shutil.copytree(golden["art"], relabeled)
    config = load_config(workspace["config"])
    config.representation = "sparse_ae"
    report = pipeline.run_stage("evaluate", config, str(relabeled))
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


@pytest.mark.parametrize("command", ["solve", "synth"])
def test_write_onto_a_directory_exits_1_and_leaves_no_tmp(
        workspace, golden, tmp_path, caplog, capsys, command):
    # the temporary file is written, then cannot be renamed onto the path
    if command == "solve":
        art = tmp_path / "art"
        shutil.copytree(golden["art"], art)
        blocked = art / "solution" / "optimal.csv"
        blocked.unlink()
        argv = ["solve", "--config", workspace["config"], "--out", str(art)]
    else:
        blocked = tmp_path / "cohort.csv"
        argv = ["synth", "--patients", "5", "--out", str(blocked)]
    blocked.mkdir()
    rc, _ = run_cli(argv)
    assert rc == cli.USAGE_EXIT
    assert "cannot write %s" % blocked in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert not os.path.exists(str(blocked) + ".tmp")


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
    # 0.25 * 1.0e-323 underflows to a zero noise scale
    ("noise_scale", "patients: 5\nnoise_scale: 1.0e-323"),
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
