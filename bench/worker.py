"""One pass of one workload in a fresh process; prints its result as one JSON line.

``run.py`` starts this once per pass, so nothing a pass caches in the process
carries over to the next pass, and ``ru_maxrss`` is the peak of that pass.
Set-up (imports, input generation, warm-up) ends at the ``ready`` timestamp,
taken on the system-wide monotonic clock so the parent can subtract its own
spawn time. Untraced passes run under ``calibrate.SpeedClock``; set-up is
probed at its start and its end, so ``run.py`` can calibrate it the same way.

    python3 bench/worker.py --workload NAME --seed N --pass-index I --trace 0|1 \\
        --workdir DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # at the start of set-up and again at its end


def main() -> int:
    setup_probes = [calibrate.probe() for _ in range(SETUP_PROBES)]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import agencykit

    if not Path(agencykit.__file__).resolve().is_relative_to(SRC):
        print(f"error: agencykit imported from {agencykit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import reference
    import tracer
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.pass_index, workdir)
    workload.warm_up()
    ready = time.monotonic()
    setup_probes += [calibrate.probe() for _ in range(SETUP_PROBES)]

    trace = tracer.Tracer() if args.trace else None
    clock = calibrate.SpeedClock() if trace is None else None
    if trace is not None:
        trace.install()
    else:
        clock.start()
    error = None
    start = time.perf_counter()
    try:
        raw = workload.run_pass()
    except Exception:  # the pass's ops are counted as failed, with this reason
        raw, error = None, traceback.format_exc(limit=-3)
    pass_s = time.perf_counter() - start
    if trace is not None:
        trace.uninstall()
    else:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = workload.ops(raw, error)
    if workloads.reference_applies(args.workload, args.seed, workload.inputs_id):
        reference.check(args.workload, ops, reference.load())
    result = {
        "ready": ready,
        "pass_s": pass_s,
        # untraced passes: the pass without its probes, its speed-calibrated
        # units and every probe of the pass and of its set-up
        "work_s": sum(clock.segments) if clock is not None else None,
        "units": clock.units() if clock is not None else None,
        "probes": [s for _, s in clock.probes] + setup_probes if clock is not None else None,
        "setup_probe_s": statistics.fmean(setup_probes),
        "peak_rss_mb": peak_rss_mb,
        "ops": [{"name": op.name, "failures": op.failures, "notes": op.notes} for op in ops],
        "inputs": workload.inputs_id,
        "digest": workloads.results_digest(ops),
        "layers": trace.layer_metrics() if trace is not None else None,
    }
    if trace is not None and args.spans:
        trace.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
