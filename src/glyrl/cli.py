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

from . import pipeline, synthgen
from .config import PipelineConfig, checked_keys, config_from_dict, read_yaml
from .errors import ConfigError, DataError, NumericalError

log = logging.getLogger("glyrl")

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyrl", description="Offline RL pipeline for glycemic-target "
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
    cfg = config_from_dict(read_yaml(args.config) if args.config else {})
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


# each synth knob with a value of the type it takes: ladder_config's
# defaults, and an int for the patient count, which has none
_SYNTH_KNOBS = {"patients": 0, **{
    name: param.default for name, param
    in inspect.signature(synthgen.ladder_config).parameters.items()
    if param.default is not param.empty}}


def _synth_config(args) -> synthgen.GeneratorConfig:
    knobs = checked_keys(read_yaml(args.config), _SYNTH_KNOBS,
                         "synth config") if args.config else {}
    if args.patients is not None:
        knobs["patients"] = args.patients
    if args.seed is not None:
        knobs["seed"] = args.seed
    if "patients" not in knobs:
        raise ConfigError("synth needs --patients or a config with 'patients'")
    patients = knobs.pop("patients")
    if patients < 1:
        raise ConfigError("patients is %d; it must be positive" % patients)
    try:
        config = synthgen.ladder_config(patients, **knobs)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad synth parameters: %s" % exc)
    return config


def _run_command(args) -> int:
    if args.command == "synth":
        config = _synth_config(args)
        csv_text, truth = synthgen.generate(config)
        path = args.out
        try:
            pipeline.write_file(path, csv_text)
            log.info("wrote %d-patient cohort to %s", config.n_patients, path)
            if args.truth_out:
                path = args.truth_out
                pipeline.write_file(path, synthgen.ground_truth_doc(truth))
                log.info("wrote ground truth to %s", path)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (path, exc))
        return 0

    cfg = _load_pipeline_config(args)
    if args.command == "run":
        result = pipeline.run_pipeline(cfg, args.input, args.out)
    else:
        inputs = (args.input,) if "input" in args else ()
        result = pipeline.run_stage(args.command, cfg, *inputs, args.out)
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
        # argparse exits 0 after --help and 2, the data code, on a usage error
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


if __name__ == "__main__":
    sys.exit(main())
