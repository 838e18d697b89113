"""One traced pass of each benchmark workload, as a traced benchmark run makes it.

The tracer (``bench/tracer.py``) wraps package functions and binds their
arguments by name, so a traced pass fails an op when a parameter it reads
is renamed or removed. Every workload runs its pass under the tracer, and
its ops are checked after the tracer is uninstalled, as ``bench/worker.py``
does.
"""

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_one_traced_pass_of_each_workload(tmp_path):
    runs = [cls(workloads.DEFAULT_SEED, 1, tmp_path) for cls in workloads.WORKLOADS.values()]
    trace = tracer.Tracer()
    trace.install()
    try:
        raws = [run.run_pass() for run in runs]
    finally:
        trace.uninstall()
    ops = [op for run, raw in zip(runs, raws) for op in run.ops(raw, None)]
    assert [(op.name, op.failures) for op in ops if op.failures] == []
    layers = trace.layer_metrics()
    assert set(layers) == set(tracer.LAYER_METRICS) - {"trace.overhead_s"}
    assert all(math.isfinite(value) for value in layers.values())
    assert all(layers[f"experiments.{name}.wall_s"] > 0 for name in tracer.EXHIBIT_NAMES)
