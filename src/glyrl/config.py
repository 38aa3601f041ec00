"""Pipeline configuration: YAML file -> validated dataclasses.

One file drives every stage.  Each stage reads only its own section plus
the master seed, and the encoder and the cohort filter take their section
itself; a default that a layer also uses is that layer's constant.
Unknown keys anywhere are rejected by name so typos cannot silently fall
back to defaults, and so are values of the wrong type.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
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
    batch_size: int = 32
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
        for section in (self.preprocessing, self.encoder, self.clustering,
                        self.mdp, self.solver, self.calibration, self.split):
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


_SECTIONS = {
    "preprocessing": PreprocessingConfig,
    "encoder": EncoderConfig,
    "clustering": ClusteringConfig,
    "mdp": MdpConfig,
    "solver": SolverConfig,
    "calibration": CalibrationConfig,
    "split": SplitConfig,
}

_SCALAR_KEYS = ("covariates", "representation", "seed")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(key: str, default, value) -> None:
    """Refuse a value whose type does not fit the field's default: an int
    field takes an int, a float field a finite int or float, and bin_edges
    a list of numbers.  Nothing is converted, so a valid config keeps its
    digest."""
    if isinstance(default, int):
        wanted = "an integer"
        ok = _is_number(value) and isinstance(value, int)
    elif isinstance(default, float):
        wanted = "a finite number"
        # false for NaN, and for an int too large to become a float
        ok = _is_number(value) and abs(value) <= sys.float_info.max
    else:
        wanted = "a list of numbers"
        ok = isinstance(value, (list, tuple)) and all(map(_is_number, value))
    if not ok:
        raise ConfigError("%s must be %s, got %r" % (key, wanted, value))


def _build_section(name: str, cls, doc: dict):
    if not isinstance(doc, dict):
        raise ConfigError("section %r must be a mapping" % name)
    known = {f.name for f in fields(cls)}
    # YAML keys need not be strings
    unknown = sorted(set(doc) - known, key=str)
    if unknown:
        raise ConfigError("unknown key %r in section %r" % (unknown[0], name))
    kwargs = {}
    for f in fields(cls):
        if f.name not in doc:
            continue
        value = doc[f.name]
        _check_type("%s.%s" % (name, f.name), f.default, value)
        if f.name == "bin_edges":
            value = tuple(float(v) for v in value)
        kwargs[f.name] = value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> PipelineConfig:
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(set(doc) - set(_SECTIONS) - set(_SCALAR_KEYS), key=str)
    if unknown:
        raise ConfigError("unknown key %r in config" % unknown[0])

    kwargs = {}
    if "covariates" in doc:
        value = doc["covariates"]
        if not isinstance(value, (list, tuple)) or \
                not all(isinstance(c, str) for c in value):
            raise ConfigError("covariates must be a list of column names")
        kwargs["covariates"] = tuple(value)
    if "representation" in doc:
        kwargs["representation"] = doc["representation"]
    if "seed" in doc:
        _check_type("seed", 0, doc["seed"])
        kwargs["seed"] = doc["seed"]
    for name, cls in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _build_section(name, cls, doc[name])

    cfg = PipelineConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str) -> PipelineConfig:
    """Read and validate a YAML pipeline config; empty file means defaults."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except yaml.YAMLError as exc:
        raise ConfigError("config %s is not valid YAML: %s" % (path, exc))
    return config_from_dict(doc)
