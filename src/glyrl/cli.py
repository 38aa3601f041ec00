"""Command-line entry point wrapping the pipeline stages.

Every subcommand shares one YAML config and one artifacts directory, so a
full run and the chained stage invocations produce identical bytes.  Exit
codes: 0 success, 1 usage or configuration problem, 2 bad input data or
artifacts, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys
from typing import List, Optional

import yaml

from . import pipeline, synthgen
from .config import PipelineConfig, _check_type, load_config
from .errors import ConfigError, DataError, GlyrlError, NumericalError

log = logging.getLogger("glyrl")

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for data
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glyrl",
                     description="Offline RL pipeline for glycemic-target "
                                 "policies from logged ICU trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_input=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML pipeline config (defaults apply "
                                        "when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if needs_input:
            p.add_argument("--input", required=True, help="cohort CSV path")
        p.add_argument("--out", required=True, help="artifacts directory")
        return p

    for name, help_text, reads_cohort in pipeline.STAGES:
        add(name, help_text, needs_input=reads_cohort)
    add("run", "run every stage in order", needs_input=True)

    synth = sub.add_parser("synth", help="generate a synthetic cohort with "
                                         "known ground truth")
    synth.add_argument("--config", help="YAML with generator knobs "
                                        "(patients, seed, n_latent_states, "
                                        "horizon_hours, noise_scale, "
                                        "missing_prob)")
    synth.add_argument("--patients", type=int, help="number of patients")
    synth.add_argument("--seed", type=int, help="generator seed")
    synth.add_argument("--out", required=True, help="cohort CSV path")
    synth.add_argument("--truth-out", help="also write the ground-truth JSON")
    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.config is None:
        cfg.validate()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


# each synth knob with a value of the type it takes: ladder_config's
# defaults, and an int for the patient count, which has none
_SYNTH_KNOBS = {"patients": 0, **{
    name: param.default for name, param
    in inspect.signature(synthgen.ladder_config).parameters.items()
    if param.default is not param.empty}}


def _synth_config(args) -> synthgen.GeneratorConfig:
    knobs = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (args.config, exc))
        except yaml.YAMLError as exc:
            raise ConfigError("config %s is not valid YAML: %s"
                              % (args.config, exc))
        if not isinstance(doc, dict):
            raise ConfigError("synth config root must be a mapping")
        unknown = sorted(set(doc) - set(_SYNTH_KNOBS), key=str)
        if unknown:
            raise ConfigError("unknown key %r in synth config" % unknown[0])
        knobs.update(doc)
    if args.patients is not None:
        knobs["patients"] = args.patients
    if args.seed is not None:
        knobs["seed"] = args.seed
    if "patients" not in knobs:
        raise ConfigError("synth needs --patients or a config with 'patients'")
    for key, value in knobs.items():
        _check_type(key, _SYNTH_KNOBS[key], value)
    patients = knobs.pop("patients")
    if patients < 1:
        raise ConfigError("patients is %d; it must be positive" % patients)
    try:
        return synthgen.ladder_config(patients, **knobs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad synth parameters: %s" % exc)


def _run_command(args) -> int:
    if args.command == "synth":
        config = _synth_config(args)
        csv_text, truth = synthgen.generate(config)
        path = args.out
        try:
            pipeline._write(path, csv_text)
            log.info("wrote %d-patient cohort to %s", config.n_patients, path)
            if args.truth_out:
                path = args.truth_out
                synthgen.save_ground_truth(path, truth)
                log.info("wrote ground truth to %s", path)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (path, exc))
        return 0

    cfg = _load_pipeline_config(args)
    if args.command == "run":
        result = pipeline.run_pipeline(cfg, args.input, args.out)
    else:
        inputs = (args.input,) if "input" in args else ()
        result = pipeline.stage_function(args.command)(cfg, *inputs, args.out)
    if result is not None:  # the report, from run and evaluate
        json.dump(result, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse --help exits 0; usage problems must exit 1
        return 0 if exc.code == 0 else USAGE_EXIT
    try:
        return _run_command(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return USAGE_EXIT
    except DataError as exc:
        log.error("%s", exc)
        return DATA_EXIT
    except NumericalError as exc:
        log.error("%s", exc)
        return NUMERICAL_EXIT
    except ValueError as exc:
        log.error("%s", exc)
        return USAGE_EXIT
    except GlyrlError as exc:
        log.error("%s", exc)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
