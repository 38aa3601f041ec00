"""Pipeline config loading: defaults, strictness, digest stability."""

import os

import pytest
import yaml

from glyrl.config import (
    PipelineConfig,
    config_from_dict,
    load_config,
)
from glyrl.errors import ConfigError

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def write(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def test_empty_file_yields_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == PipelineConfig()
    assert cfg.representation == "raw"
    assert cfg.mdp.gamma == 0.9
    assert cfg.solver.epsilon == 1e-4
    assert cfg.clustering.k == 500
    assert cfg.encoder.latent_dim == 32


def test_partial_sections_override_only_named_fields(tmp_path):
    cfg = load_config(write(tmp_path, """
seed: 7
representation: sparse_ae
clustering:
  k: 12
mdp:
  min_count: 3
"""))
    assert cfg.seed == 7
    assert cfg.representation == "sparse_ae"
    assert cfg.clustering.k == 12
    assert cfg.clustering.tol == 1e-6  # untouched default
    assert cfg.mdp.min_count == 3
    assert cfg.mdp.gamma == 0.9


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="klustering"):
        config_from_dict({"klustering": {"k": 5}})


def test_unknown_section_key_is_named():
    with pytest.raises(ConfigError, match="max_iter'"):
        config_from_dict({"clustering": {"max_iter": 10}})


def test_unknown_keys_that_are_not_strings_are_named():
    with pytest.raises(ConfigError, match="unknown key 1 in config"):
        config_from_dict({1: 2, "zz": 3})
    with pytest.raises(ConfigError, match="unknown key 1 in section"):
        config_from_dict({"clustering": {1: 2, "zz": 3}})


def test_bad_yaml_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "a: [unclosed"))


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.yaml"))


def test_value_validation_runs_on_load():
    with pytest.raises(ConfigError, match="test_fraction"):
        config_from_dict({"split": {"test_fraction": 1.5}})
    with pytest.raises(ConfigError, match="representation"):
        config_from_dict({"representation": "autoencoder"})
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict({"mdp": {"gamma": 1.0}})
    with pytest.raises(ConfigError, match="bin_edges"):
        config_from_dict({"mdp": {"bin_edges": [100.0, 80.0]}})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": True})
    with pytest.raises(ConfigError, match="covariates"):
        config_from_dict({"covariates": ["hr", "hr"]})


def test_bin_edges_become_floats():
    cfg = config_from_dict({"mdp": {"bin_edges": [60, 80, 100]}})
    assert cfg.mdp.bin_edges == (60.0, 80.0, 100.0)


def test_digest_is_stable_and_sensitive():
    base = PipelineConfig()
    again = PipelineConfig()
    assert base.digest() == again.digest()
    bumped = config_from_dict({"seed": 1})
    assert bumped.digest() != base.digest()
    rebinned = config_from_dict({"calibration": {"n_bins": 21}})
    assert rebinned.digest() != base.digest()


def test_to_dict_round_trips():
    cfg = config_from_dict({
        "seed": 3,
        "covariates": ["heart_rate", "lactate"],
        "encoder": {"latent_dim": 8, "epochs": 5},
        "clustering": {"k": 6},
    })
    assert config_from_dict(cfg.to_dict()) == cfg


def test_values_are_kept_as_written():
    cfg = config_from_dict({"clustering": {"tol": 0},
                            "preprocessing": {"min_age": 18}})
    assert type(cfg.clustering.tol) is int
    assert type(cfg.preprocessing.min_age) is int
    assert cfg.digest() != config_from_dict(
        {"clustering": {"tol": 0.0}, "preprocessing": {"min_age": 18}}).digest()


def readme_config_table():
    """Key -> default, in the order of README's configuration table, each
    default cell read as YAML."""
    with open(README) as fh:
        lines = fh.read().split("| key ", 1)[1].splitlines()[2:]
    table = {}
    for line in lines[:lines.index("")]:
        _, key, default, _, _ = line.split("|")
        table[key.strip().strip("`")] = yaml.safe_load(default.strip().strip("`"))
    return table


def test_readme_config_table_lists_every_key_with_its_default():
    defaults = PipelineConfig().to_dict()
    keys = [name if not isinstance(value, dict) else "%s.%s" % (name, key)
            for name, value in defaults.items()
            for key in (value if isinstance(value, dict) else [None])]
    table = readme_config_table()
    assert list(table) == keys
    # each default, pasted into a config as written, is that default
    doc = {}
    for key, value in table.items():
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
    assert config_from_dict(doc).digest() == PipelineConfig().digest()
