"""Pipeline configuration: YAML file -> validated dataclasses.

One file drives every stage.  Each stage reads only its own section plus
the master seed, and the encoder and the cohort filter take their section
itself; a default that a layer also uses is that layer's constant.
Unknown keys anywhere are rejected by name so typos cannot silently fall
back to defaults, and so are values of the wrong type.  ``read_yaml`` and
``checked_keys`` also read and check the ``glyrl synth`` knobs file, so
both files give the same messages.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Tuple

import yaml

from . import calib, cluster, mdp, solver
from .errors import ConfigError

REPRESENTATIONS = ("raw", "sparse_ae")

DEFAULT_COVARIATES = ("heart_rate", "mean_bp", "lactate", "creatinine")


@dataclass
class PreprocessingConfig:
    min_age: float = 18.0
    min_sofa: int = 2
    max_missing_fraction: float = 0.10

    def validate(self) -> None:
        if self.min_age < 0:
            raise ConfigError("preprocessing.min_age must be >= 0")
        if self.min_sofa < 0:
            raise ConfigError("preprocessing.min_sofa must be >= 0")
        if not 0.0 <= self.max_missing_fraction <= 1.0:
            raise ConfigError(
                "preprocessing.max_missing_fraction must lie in [0, 1]")


@dataclass
class EncoderConfig:
    latent_dim: int = 32
    sparsity_target: float = 0.05
    beta: float = 3.0
    epochs: int = 50
    # chosen by true mortality on seeded synthetic cohorts (README,
    # Representations), not by training loss
    batch_size: int = 128
    learning_rate: float = 0.05

    def validate(self) -> None:
        if self.latent_dim <= 0:
            raise ConfigError("encoder.latent_dim must be positive")
        if not 0.0 < self.sparsity_target < 1.0:
            raise ConfigError("encoder.sparsity_target must lie in (0, 1)")
        if self.beta < 0:
            raise ConfigError("encoder.beta must be >= 0")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigError("encoder.epochs and encoder.batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("encoder.learning_rate must be positive")


@dataclass
class ClusteringConfig:
    # paper-scale default; small cohorts and tests pass their own k
    k: int = 500
    tol: float = cluster.DEFAULT_TOL
    max_iters: int = cluster.DEFAULT_MAX_ITERS

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError("clustering.k must be >= 1")
        if self.tol < 0 or self.max_iters < 0:
            raise ConfigError("clustering.tol and clustering.max_iters must be >= 0")


@dataclass
class MdpConfig:
    bin_edges: Tuple[float, ...] = mdp.DEFAULT_BIN_EDGES
    min_count: int = mdp.DEFAULT_MIN_COUNT
    gamma: float = mdp.DEFAULT_GAMMA

    def validate(self) -> None:
        try:
            mdp.ActionSpace(self.bin_edges)
        except ValueError as exc:
            raise ConfigError("mdp.bin_edges: %s" % exc)
        if self.min_count < 1:
            raise ConfigError("mdp.min_count must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("mdp.gamma must lie in [0, 1)")


@dataclass
class SolverConfig:
    epsilon: float = solver.DEFAULT_EPSILON

    def validate(self) -> None:
        if self.epsilon <= 0:
            raise ConfigError("solver.epsilon must be positive")


@dataclass
class CalibrationConfig:
    n_bins: int = calib.DEFAULT_N_BINS
    min_bin_support: int = calib.DEFAULT_MIN_BIN_SUPPORT

    def validate(self) -> None:
        if self.n_bins < 2:
            raise ConfigError("calibration.n_bins must be at least 2")
        if self.min_bin_support < 1:
            raise ConfigError("calibration.min_bin_support must be at least 1")


@dataclass
class SplitConfig:
    test_fraction: float = 0.2

    def validate(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("split.test_fraction must lie in (0, 1)")


@dataclass
class PipelineConfig:
    covariates: Tuple[str, ...] = DEFAULT_COVARIATES
    representation: str = "raw"
    seed: int = 0
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    mdp: MdpConfig = field(default_factory=MdpConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    split: SplitConfig = field(default_factory=SplitConfig)

    def validate(self) -> None:
        if not self.covariates:
            raise ConfigError("covariates must name at least one column")
        if len(set(self.covariates)) != len(self.covariates):
            raise ConfigError("covariates contains duplicate names")
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(
                "representation must be one of %s, got %r"
                % ("/".join(REPRESENTATIONS), self.representation))
        for section in vars(self).values():
            if dataclasses.is_dataclass(section):
                section.validate()

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["covariates"] = list(self.covariates)
        doc["mdp"]["bin_edges"] = [float(e) for e in self.mdp.bin_edges]
        return doc

    def digest(self) -> str:
        """Stable fingerprint of the full configuration."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _check_type(key: str, default, value) -> None:
    """Refuse a value that cannot stand in for the field's default: an int
    takes an int, a float a finite int or float, a str a str, and a tuple a
    list of what the tuple holds; a bool is no number."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError("%s must be a list, got %r" % (key, value))
        for i, item in enumerate(value):
            _check_type("%s[%d]" % (key, i), default[0], item)
        return
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        wanted, ok = "a string", isinstance(value, str)
    elif isinstance(default, int):
        wanted, ok = "an integer", number and isinstance(value, int)
    else:
        # false for NaN, and for an int too large to become a float
        wanted = "a finite number"
        ok = number and abs(value) <= sys.float_info.max
    if not ok:
        raise ConfigError("%s must be %s, got %r" % (key, wanted, value))


def checked_keys(doc, defaults: dict, where: str, prefix: str = "") -> dict:
    """``doc``, once it is known to be a mapping from keys of ``defaults``
    to values that fit their default; a section (a dataclass default)
    takes a mapping checked the same way, whose keys are named
    ``section.key``.  Nothing is converted, so a valid config keeps its
    digest.  The first bad key raises a ConfigError naming it and
    ``where`` it is."""
    if not isinstance(doc, dict):
        raise ConfigError("%s must be a mapping" % where)
    # YAML keys need not be strings
    unknown = sorted(set(doc) - set(defaults), key=str)
    if unknown:
        raise ConfigError("unknown key %r in %s" % (unknown[0], where))
    for key, value in doc.items():
        default = defaults[key]
        if dataclasses.is_dataclass(default):
            checked_keys(value, vars(default), "section %r" % key, key + ".")
        else:
            _check_type(prefix + key, default, value)
    return doc


def _build(default, value):
    """The checked ``value`` in the shape of ``default``: a section built
    from its mapping, a list as a tuple of the default's item type."""
    if dataclasses.is_dataclass(default):
        return type(default)(**{key: _build(getattr(default, key), v)
                                for key, v in value.items()})
    if isinstance(default, tuple):
        return tuple(map(type(default[0]), value))
    return value


def config_from_dict(doc) -> PipelineConfig:
    """The validated config that the mapping ``doc`` describes."""
    default = PipelineConfig()
    cfg = _build(default, checked_keys(doc, vars(default), "config"))
    cfg.validate()
    return cfg


def read_yaml(path: str):
    """The document in the YAML file ``path``; an empty file holds an
    empty mapping."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    # PyYAML recurses once per level of nesting
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError("config %s is not valid YAML: %s" % (path, exc))
    return {} if doc is None else doc


def load_config(path: str) -> PipelineConfig:
    """Read and validate a YAML pipeline config; empty file means defaults."""
    return config_from_dict(read_yaml(path))
