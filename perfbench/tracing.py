"""Span tracing around the public functions of the glyrl package.

The tracer wraps every public function defined in a loaded ``glyrl.*``
module, plus ``MDPModel.validate``, and records one span per call: the
function's qualified name, start and end on ``time.perf_counter``, and the
index of the enclosing span.  Spans stay in memory until the run ends.
Because ``pipeline.py`` binds names with ``from .x import y``, a wrapper is
installed under every name, in every glyrl module namespace, that refers to
the original function object.

Run as a script, it performs one traced ``glyrl run`` in this process,
through ``cli.main`` so that the only difference from an untraced run is the
tracing, and writes the spans and counters to a JSON file::

    PYTHONPATH=src python3 perfbench/tracing.py TRACE_JSON -- RUN_ARGS...

where RUN_ARGS are the arguments of ``glyrl run``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import logging
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

log = logging.getLogger("perfbench.tracing")

PACKAGE = "glyrl"

# Functions the per-layer metrics are computed from.  A missing one is
# reported and its metrics read 0; the traced run still completes.
NAMED_TARGETS = (
    "pipeline.run_pipeline",
    "pipeline.stage_ingest", "pipeline.stage_train_encoder",
    "pipeline.stage_cluster", "pipeline.stage_build_mdp",
    "pipeline.stage_solve", "pipeline.stage_calibrate",
    "pipeline.stage_evaluate",
    "cohort.parse_cohort", "cohort.filter_cohort", "cohort.impute_cohort",
    "cohort.split_patients", "cohort.write_cohort",
    "cohort.fit_normalization", "cohort.apply_normalization",
    "encoder.train", "encoder.encode",
    "cluster.kmeans_fit", "cluster.assign_many",
    "mdp.build_trajectories", "mdp.estimate_mdp", "mdp.save_mdp",
    "mdp.load_mdp", "mdp.MDPModel.validate", "mdp.read_trajectories",
    "solver.policy_iteration", "solver.policy_evaluation",
    "calib.fit_curve", "calib.evaluate",
)


# --- counters read from return values ------------------------------------------


def _probe_parse(counters, args, result):
    counters["cohort.parse_rows"] += sum(len(s.hours) for s in result)


def _probe_train(counters, args, result):
    history = result.loss_history or []
    counters["encoder.epochs"] += max(len(history) - 1, 0)
    if history:
        counters["encoder.final_loss"] = float(history[-1])


def _probe_kmeans(counters, args, result):
    counters["cluster.iterations"] += len(result.inertia_history) - 1
    counters["cluster.inertia"] = float(result.inertia)


def _probe_assign(counters, args, result):
    counters["cluster.assign_points"] += len(result)


def _probe_estimate(counters, args, result):
    raw = result.action_counts
    kept = raw >= result.min_count
    counters["mdp.fallback_states"] = len(result.fallback_states)
    counters["mdp.available_pairs"] = int(result.available.sum())
    total = int(raw.sum())
    counters["mdp.filtered_step_share"] = \
        float(raw[~kept].sum()) / total if total else 0.0


def _probe_policy_iteration(counters, args, result):
    counters["solver.improvements"] += result.improvements
    counters["solver.eval_sweeps"] += result.eval_sweeps


def _probe_fit_curve(counters, args, result):
    counters["calib.curve_bins"] = len(result.bin_centers)


PROBES: Dict[str, Callable] = {
    "cohort.parse_cohort": _probe_parse,
    "encoder.train": _probe_train,
    "cluster.kmeans_fit": _probe_kmeans,
    "cluster.assign_many": _probe_assign,
    "mdp.estimate_mdp": _probe_estimate,
    "solver.policy_iteration": _probe_policy_iteration,
    "calib.fit_curve": _probe_fit_curve,
}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.names: List[str] = []
        # [name index, start, end, parent span index or -1]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, qualname: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(qualname)
        probe = PROBES.get(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([fid, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if probe is not None:
                self._probe(qualname, probe, args, result)
            return result

        return traced

    def _probe(self, qualname, probe, args, result):
        try:
            probe(self.counters, args, result)
        except (AttributeError, TypeError, ValueError) as exc:
            log.warning("counter probe on %s failed: %s", qualname, exc)

    def install(self, modules: Optional[Dict[str, object]] = None) -> None:
        """Wrap every public function of the loaded glyrl modules."""
        if modules is None:
            modules = {name: mod for name, mod in sys.modules.items()
                       if mod is not None and
                       (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers: Dict[int, Callable] = {}
        found = set()
        for modname, mod in sorted(modules.items()):
            short = modname[len(PACKAGE) + 1:]
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value) or \
                        value.__module__ != modname:
                    continue
                qualname = "%s.%s" % (short, attr)
                wrappers[id(value)] = self.wrap(qualname, value)
                found.add(qualname)
            mdp_model = vars(mod).get("MDPModel") if short == "mdp" else None
            if mdp_model is not None and inspect.isfunction(
                    vars(mdp_model).get("validate")):
                original = mdp_model.validate
                self._set(mdp_model, "validate",
                          self.wrap("mdp.MDPModel.validate", original))
                found.add("mdp.MDPModel.validate")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        self.missing = [t for t in NAMED_TARGETS if t not in found]
        for target in self.missing:
            log.warning("trace target %s.%s not found; its metrics read 0",
                        PACKAGE, target)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def to_dict(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters, "missing": self.missing}


# --- span aggregation ------------------------------------------------------------


def span_times(trace: dict) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Per-function and per-module time, self time and call count.

    A span's self time is its duration minus the durations of its direct
    children, which never overlap in a single-threaded run.  A function's
    or module's time counts only its outermost spans, so nested calls of
    the same function or module are not counted twice.
    """
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for fid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def module(fid):
        return names[fid].split(".", 1)[0]

    funcs: Dict[str, dict] = {}
    mods: Dict[str, dict] = {}
    for i, (fid, start, end, parent) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        name, mod = names[fid], module(fid)
        f = funcs.setdefault(name, {"time_s": 0.0, "self_s": 0.0, "calls": 0})
        m = mods.setdefault(mod, {"time_s": 0.0, "self_s": 0.0, "calls": 0})
        f["calls"] += 1
        f["self_s"] += own
        m["calls"] += 1
        m["self_s"] += own
        outer_fn = outer_mod = True
        p = parent
        while p >= 0 and (outer_fn or outer_mod):
            pfid = spans[p][0]
            if pfid == fid:
                outer_fn = False
            if module(pfid) == mod:
                outer_mod = False
            p = spans[p][3]
        if outer_fn:
            f["time_s"] += dur
        if outer_mod:
            m["time_s"] += dur
    return funcs, mods


# --- per-layer metrics -------------------------------------------------------------

LAYERS = ("pipeline", "cohort", "encoder", "cluster", "mdp", "solver", "calib")
STAGES = ("ingest", "train_encoder", "cluster", "build_mdp", "solve",
          "calibrate", "evaluate")

# metric -> traced function whose outermost-call time it sums
FUNCTION_TIMES = dict(
    [("pipeline.%s_s" % s, "pipeline.stage_%s" % s) for s in STAGES] + [
        ("cohort.parse_s", "cohort.parse_cohort"),
        ("cohort.filter_s", "cohort.filter_cohort"),
        ("cohort.impute_s", "cohort.impute_cohort"),
        ("cohort.split_s", "cohort.split_patients"),
        ("cohort.write_s", "cohort.write_cohort"),
        ("cohort.fit_normalization_s", "cohort.fit_normalization"),
        ("cohort.normalize_s", "cohort.apply_normalization"),
        ("encoder.train_s", "encoder.train"),
        ("encoder.encode_s", "encoder.encode"),
        ("cluster.fit_s", "cluster.kmeans_fit"),
        ("cluster.assign_s", "cluster.assign_many"),
        ("mdp.build_trajectories_s", "mdp.build_trajectories"),
        ("mdp.estimate_s", "mdp.estimate_mdp"),
        ("mdp.save_s", "mdp.save_mdp"),
        ("mdp.load_s", "mdp.load_mdp"),
        ("mdp.validate_s", "mdp.MDPModel.validate"),
        ("mdp.read_trajectories_s", "mdp.read_trajectories"),
        ("solver.policy_iteration_s", "solver.policy_iteration"),
        ("solver.policy_evaluation_s", "solver.policy_evaluation"),
        ("calib.fit_curve_s", "calib.fit_curve"),
        ("calib.evaluate_s", "calib.evaluate"),
    ])

# metric -> traced function whose calls it counts
FUNCTION_CALLS = {
    "cohort.parse_calls": "cohort.parse_cohort",
    "cohort.normalize_calls": "cohort.apply_normalization",
    "encoder.encode_calls": "encoder.encode",
    "mdp.load_calls": "mdp.load_mdp",
    "mdp.validate_calls": "mdp.MDPModel.validate",
    "mdp.read_trajectories_calls": "mdp.read_trajectories",
    "solver.policy_evaluation_calls": "solver.policy_evaluation",
    "calib.evaluate_calls": "calib.evaluate",
}

# counters the probes fill, with their units
COUNTER_UNITS = {
    "cohort.parse_rows": "count",
    "encoder.epochs": "count",
    "encoder.final_loss": "loss",
    "cluster.iterations": "count",
    "cluster.assign_points": "count",
    "cluster.inertia": "sq_dist",
    "mdp.fallback_states": "count",
    "mdp.available_pairs": "count",
    "mdp.filtered_step_share": "share",
    "solver.improvements": "count",
    "solver.eval_sweeps": "count",
    "calib.curve_bins": "count",
}


def layer_metrics(trace: dict, input_rows: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Functions that were never called, or no longer exist, read 0.
    """
    funcs, mods = span_times(trace)
    zero = {"time_s": 0.0, "self_s": 0.0, "calls": 0}
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        stats = mods.get(layer, zero)
        out["%s.time_s" % layer] = (stats["time_s"], "s")
        out["%s.self_s" % layer] = (stats["self_s"], "s")
    for metric, fn in FUNCTION_TIMES.items():
        out[metric] = (funcs.get(fn, zero)["time_s"], "s")
    for metric, fn in FUNCTION_CALLS.items():
        out[metric] = (funcs.get(fn, zero)["calls"], "count")
    counters = trace["counters"]
    for metric, unit in COUNTER_UNITS.items():
        out[metric] = (counters.get(metric, 0), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    out["cohort.parse_amplification"] = (
        ratio(out["cohort.parse_rows"][0], input_rows), "ratio")
    out["encoder.epoch_s"] = (
        ratio(out["encoder.train_s"][0], out["encoder.epochs"][0]), "s")
    out["cluster.iter_s"] = (
        ratio(out["cluster.fit_s"][0], out["cluster.iterations"][0]), "s")
    return out


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    trace_json, run_args = argv[0], argv[2:]
    from glyrl import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["run"] + run_args)
    finally:
        tracer.uninstall()
    with open(trace_json, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
