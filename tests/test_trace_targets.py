"""The benchmark's tracer still finds the functions it measures.

``perfbench/tracing.py`` wraps glyrl functions by name and reads counters
off their return values.  A function that is renamed, or that the pipeline
stops calling, makes its metrics read 0 with only a logged warning; this
runs the tracer around one in-process ``run_pipeline`` and fails instead.
"""

import os
import sys

from glyrl import pipeline, synthgen
from glyrl.config import PipelineConfig

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402

# targets the tracer still lists though the pipeline no longer has them
STALE_TARGETS = {"pipeline.stage_calibrate", "cohort.write_cohort"}


def test_tracer_finds_its_targets_and_counts_the_solver(tmp_path):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(synthgen.generate(synthgen.ladder_config(200, seed=3))[0])
    config = PipelineConfig()
    config.seed = 3
    config.clustering.k = 5
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config, str(cohort), str(tmp_path / "art"))
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE_TARGETS
    assert tracer.counters["solver.improvements"] > 0
    assert tracer.counters["solver.eval_sweeps"] > 0
