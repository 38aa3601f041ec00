#!/usr/bin/env python3
"""Pipeline benchmark: end-to-end time and ground-truth quality per workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload acceptance_raw --seed 3 --seconds 10 --trace 0

With ``--trace 0`` the benchmark synthesizes the workload's cohort and runs
``python -m glyrl.cli run`` on it as a child process, as often as fits in
``--seconds`` seconds of run time and at least once; it synthesizes the
cohort again between and after the runs to time set-up four times in all,
checks every run's artifacts and prints the end-to-end metrics.  With
``--trace 1`` it runs the pipeline once untraced and once traced (see
``tracing.py``) and prints the per-layer metrics.  ``--smoke`` shrinks the
cohort so a run finishes in seconds.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Load is one closed-loop client: one pipeline at a time, and no more BLAS
threads than the processor count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from checks import (CheckFailed, anchor_error, artifact_bytes,
                    artifact_digest, check_manifest, check_report,
                    policy_agreement)
from tracing import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 4
# a declared workload's invocation must end well inside three minutes
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    patients: int
    horizon_hours: int
    representation: str
    clustering: Dict[str, float] = field(default_factory=dict)
    deadline_s: float = DEADLINE_S

    def pipeline_config(self, seed: int) -> dict:
        return {"seed": seed, "representation": self.representation,
                "clustering": dict(self.clustering)}

    def smoke(self) -> "Workload":
        clustering = dict(self.clustering)
        clustering["k"] = min(int(clustering["k"]), 20)
        return replace(self, patients=200, clustering=clustering)


# Why each workload exists is written up in perfbench/README.md.
WORKLOADS = {
    "acceptance_raw": Workload(6000, 16, "raw", {"k": 5}),
    # the paper's k on the full cohort, with a fixed Lloyd budget so one
    # run fits the time limit and its work does not depend on the seed
    "paper_raw": Workload(6000, 72, "raw",
                          {"k": 500, "tol": 0.0, "max_iters": 5}),
    "latent_ae": Workload(6000, 16, "sparse_ae", {"k": 5}),
    # the full paper-scale run (several minutes); not declared in BENCHMARK.json
    "paper_raw_full": Workload(6000, 72, "raw", {"k": 500},
                               deadline_s=1200.0),
}

class BenchError(Exception):
    """The benchmark cannot run here at all."""


# --- environment ---------------------------------------------------------------


def blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    limits = [nproc]
    for var in BLAS_THREAD_VARS:
        try:
            limits.append(int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    return max(1, min(limits))


def child_env(threads: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def git_commit(root: str) -> Optional[str]:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "glyrl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int, threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": threads,
        "seed": seed,
    }


# --- one pipeline run -------------------------------------------------------------


@dataclass
class RunResult:
    wall_s: float
    peak_rss_mb: float
    error: Optional[str] = None
    digest: str = ""
    report: Optional[dict] = None


def run_child(cmd: List[str], env: Dict[str, str], log_path: str,
              timeout_s: float) -> Tuple[float, int, float]:
    """Wall time, exit code and peak RSS (MB) of one child process."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _log_tail(path: str, lines: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def checked_run(cmd: List[str], env: Dict[str, str], art_dir: str,
                timeout_s: float) -> RunResult:
    """Run one pipeline child and check its artifacts."""
    log_path = art_dir + ".log"
    wall, code, rss = run_child(cmd, env, log_path, timeout_s)
    result = RunResult(wall, rss)
    if code != 0:
        result.error = "exit code %d: %s" % (code, _log_tail(log_path))
        return result
    try:
        result.report = check_report(art_dir)
        result.digest = artifact_digest(art_dir, check_manifest(art_dir))
    except CheckFailed as exc:
        result.error = str(exc)
    return result


# --- the benchmark ------------------------------------------------------------------


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int,
                 work_dir: str, threads: int):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.env = child_env(threads)
        self.started = time.perf_counter()
        self.cohort = os.path.join(work_dir, "cohort.csv")
        self.config = os.path.join(work_dir, "config.yaml")
        self.attempted = 0
        self.failed = 0
        self.truth = None
        self.rows = 0
        self.cohort_digest: Optional[str] = None

    def remaining(self) -> float:
        return self.workload.deadline_s - (time.perf_counter() - self.started)

    def setup(self) -> float:
        """Synthesize the cohort and write its CSV; returns the time taken."""
        from glyrl import synthgen

        gen = synthgen.ladder_config(self.workload.patients, self.seed,
                                     horizon_hours=self.workload.horizon_hours)
        start = time.perf_counter()
        text, truth = synthgen.generate(gen)
        with open(self.cohort, "w") as fh:
            fh.write(text)
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.cohort_digest is None:
            self.cohort_digest = digest
            self.truth = truth
            self.rows = text.count("\n") - 1
            with open(self.config, "w") as fh:
                json.dump(self.workload.pipeline_config(self.seed), fh)
        elif digest != self.cohort_digest:
            raise BenchError("the cohort generator is not deterministic")
        return elapsed

    def run_args(self, art_dir: str) -> List[str]:
        return ["--config", self.config, "--input", self.cohort,
                "--out", art_dir]

    def cli_cmd(self, art_dir: str) -> List[str]:
        return [sys.executable, "-m", "glyrl.cli", "run"] + \
            self.run_args(art_dir)

    def run(self, tag: str, cmd_for, reference: Optional[str]) -> RunResult:
        art_dir = os.path.join(self.work, tag)
        self.attempted += 1
        result = checked_run(cmd_for(art_dir), self.env, art_dir,
                             max(self.remaining(), 1.0))
        if result.error is None and reference is not None and \
                result.digest != reference:
            result.error = "artifact digest %s differs from %s" % (
                result.digest[:12], reference[:12])
        if result.error is not None:
            self.failed += 1
            print("FAILED %s run %s: %s" % (self.name, tag, result.error),
                  file=sys.stderr)
        return result

    def end_to_end(self, seconds: float) -> Dict[str, Tuple[float, str]]:
        # set-ups go between the runs (the rest after them), so their median
        # spans the whole invocation rather than one moment of it
        setup_times = [self.setup()]
        good: List[RunResult] = []
        reference = None
        quality = None
        measured = 0.0  # pipeline-run time only; set-ups do not count
        while True:
            tag = "run-%d" % self.attempted
            result = self.run(tag, self.cli_cmd, reference)
            measured += result.wall_s
            art_dir = os.path.join(self.work, tag)
            if result.error is None and quality is None:
                try:
                    quality = (policy_agreement(art_dir, self.truth),
                               anchor_error(result.report))
                except CheckFailed as exc:
                    result.error = str(exc)
                    self.failed += 1
            if result.error is None:
                good.append(result)
                reference = reference or result.digest
            shutil.rmtree(art_dir, ignore_errors=True)
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(self.setup())
            # start another run only while it should end within `seconds`
            walls = [r.wall_s for r in good] or [result.wall_s]
            if measured + statistics.median(walls) > seconds:
                break
            if self.remaining() < 1.2 * max(walls) + \
                    SETUP_REPEATS * max(setup_times):
                break
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(self.setup())
        if not good or quality is None:
            raise BenchError("no run of %s succeeded" % self.name)
        print("digest %s" % reference)
        print("runs_s %s" % " ".join("%.3f" % r.wall_s for r in good))
        print("anchor_err %.6g share" % quality[1])
        run_s = statistics.median(r.wall_s for r in good)
        return {
            "run_s": (run_s, "s"),
            "hours_per_s": (self.rows / run_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good),
                            "MB"),
            "policy_agreement": (quality[0], "share"),
            "anchor_score": (1.0 - quality[1], "share"),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        self.setup()
        plain = self.run("untraced", self.cli_cmd, None)
        if plain.error is not None:
            raise BenchError("the untraced run of %s failed" % self.name)
        trace_json = os.path.join(self.work, "trace.json")

        def traced_cmd(art_dir):
            return [sys.executable, os.path.join(HERE, "tracing.py"),
                    trace_json, "--"] + self.run_args(art_dir)

        traced = self.run("traced", traced_cmd, plain.digest)
        if traced.error is not None:
            raise BenchError("the traced run of %s failed" % self.name)
        print("digest %s" % traced.digest)
        with open(trace_json) as fh:
            trace = json.load(fh)
        for target in trace["missing"]:
            print("warning: trace target %s not found; its metrics read 0"
                  % target, file=sys.stderr)
        metrics = layer_metrics(trace, self.rows)
        metrics["pipeline.artifact_bytes"] = (
            artifact_bytes(os.path.join(self.work, "traced")), "bytes")
        metrics["calib.anchor_err"] = (anchor_error(traced.report), "share")
        metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cohort of the same shape")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwind, so the running child is killed and the work directory removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "glyrl", "pipeline.py")):
        print("perfbench: no glyrl sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    threads = blas_threads()
    # before numpy loads in this process
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK)
    bench = Bench(args.workload, workload, args.seed, work_dir, threads)
    try:
        print("workload %s seed %d%s" % (args.workload, args.seed,
                                          " (smoke)" if args.smoke else ""))
        print("env %s" % json.dumps(environment(args.seed, threads),
                                    sort_keys=True))
        if args.trace:
            metrics = bench.per_layer()
        else:
            metrics = bench.end_to_end(args.seconds)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another invocation's files are still there
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
