"""Benchmark for agencykit: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload {exhibits,ring-ladder,random-kernels} \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The loop is closed with one client: passes run
one after another, each in a fresh worker process (``worker.py``), until
``--seconds`` would be exceeded (at least ``MIN_PASSES``). BLAS threads are
pinned to ``BLAS_THREADS`` in every worker.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (pass time in
reference seconds, calibrated by ``calibrate.py``: the median over the passes
on one input set, averaged over input sets; the plain median, minimum and
maximum are printed beside it), ``peak_rss_mb`` (median over
passes of the worker's ``ru_maxrss``) and ``setup_s`` (median time from
spawning a worker to the end of its imports, input generation and warm-up,
calibrated the same way). ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of the traced ones (medians), plus
``trace.overhead_s``, the median over traced passes of the traced pass time
minus that of the untraced pass just before it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The command exits with 2, without
that line, when the checkout holds no ``src/agencykit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exhibits", "ring-ladder", "random-kernels")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # each of untraced and traced
RUN_LIMIT_S = 170.0  # no pass starts that could end after this
# One BLAS thread: on a host of few shared cores a second thread mostly adds
# contention; it cut ring-256 time by a third but doubled its spread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402  (needs the path above)
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
    }


def run_worker(args, index: int, workdir: Path, traced: bool, env: dict,
               timeout: float) -> dict | None:
    """One pass in a fresh process; None when it produced no result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--pass-index", str(index),
        "--trace", "1" if traced else "0", "--workdir", str(workdir),
    ]
    if traced:
        cmd += ["--spans", str(BENCH / "out" / f"spans-{args.workload}.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["index"] = index
    result["traced"] = traced
    return result


def measure(args, threads: int) -> list[dict | None]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    workdir = BENCH / "out" / f"work-{args.workload}-{os.getpid()}"
    passes: list[dict | None] = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            elapsed = time.monotonic() - start
            passes.append(
                run_worker(args, len(passes), workdir, traced, env, RUN_LIMIT_S - elapsed)
            )
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(passes)
            done = [p for p in passes if p is not None]
            if args.trace:
                enough = min(sum(p["traced"] for p in done),
                             sum(not p["traced"] for p in done)) >= MIN_TRACED_PASSES
            else:
                enough = len(done) >= MIN_PASSES
            if elapsed + per_pass > RUN_LIMIT_S:
                break
            if enough and elapsed + per_pass > args.seconds:
                break
            if len(passes) >= MIN_PASSES and not done:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes


def per_inputs_mean(passes: list[dict], key: str) -> float:
    """Mean over input sets of the median over the passes that ran each one."""
    by_inputs: dict[int, list[float]] = {}
    for p in passes:
        by_inputs.setdefault(p["inputs"], []).append(p[key])
    return statistics.fmean(statistics.median(v) for v in by_inputs.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "agencykit" / "__init__.py").is_file():
        print(f"error: no agencykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS, nproc())
    print("environment:", json.dumps(environment(threads)))
    passes = measure(args, threads)
    done = [p for p in passes if p is not None]
    if not done:
        print("error: no pass produced a result", file=sys.stderr)
        return 1

    n_ops = len(done[0]["ops"])
    attempted = n_ops * len(passes)
    failed = n_ops * (len(passes) - len(done))
    first_digest: dict[int, str] = {}  # passes on the same inputs must agree
    for p in done:
        i = p["index"]
        bad = [op for op in p["ops"] if op["failures"]]
        if first_digest.setdefault(p["inputs"], p["digest"]) != p["digest"] and not bad:
            bad = p["ops"]
            print(f"pass {i}: results differ from an earlier pass on the same inputs",
                  file=sys.stderr)
        failed += len(bad)
        for op in bad:
            print(f"pass {i}: FAILED {op['name']}: {op['failures']}", file=sys.stderr)

    untraced = [p for p in done if not p["traced"]]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(untraced)} untraced, one fresh process each, closed loop, one client")
    print(f"  ops_failed_frac  {failed / attempted:.4f}  ({failed} of {attempted} ops)")
    for op in done[0]["ops"]:
        if op["notes"]:
            notes = ", ".join(f"{k} {v:.6g}" for k, v in op["notes"].items())
            print(f"  {op['name']}: {notes}")
    if args.trace:
        traced = [p for p in done if p["traced"]]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in LAYER_METRICS if name != "trace.overhead_s"
        }
        # passes alternate, so each traced pass is paired with the untraced
        # pass just before it, which ran on a core in much the same state,
        # when the two solved the same inputs
        by_index = {p["index"]: p for p in done}
        pairs = [(p, by_index.get(p["index"] - 1)) for p in traced]
        gaps = [p["pass_s"] - q["work_s"] for p, q in pairs
                if q is not None and q["inputs"] == p["inputs"]]
        metrics["trace.overhead_s"] = statistics.median(gaps) if gaps else float("nan")
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in LAYER_METRICS.items()}
        print(f"  per-layer medians over {len(traced)} traced passes")
        for name, m in report.items():
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
        cap = {k.rsplit(".", 1)[1]: v for k, v in metrics.items()
               if k.startswith("empowerment.channel_capacity.")}
        if cap["calls"]:
            print(f"  channel_capacity: {cap['distinct_channels']:.0f} distinct channels and"
                  f" {cap['distinct_channels_cyclic']:.0f} up to a cyclic shift, of"
                  f" {cap['calls']:.0f} calls; {cap['distinct_rows_total']:.0f} distinct rows"
                  f" of {cap['rows_total']:.0f}; {cap['uncertified']:.0f} uncertified of"
                  f" {cap['calls']:.0f} solves")
    else:
        ref_s = calibrate.REFERENCE_PROBE_S
        fast_s = calibrate.fast_probe_s([x for p in untraced for x in p["probes"]])
        setups = [p["setup_s"] / p["setup_probe_s"] * ref_s for p in untraced]
        values = {
            "wall_s": per_inputs_mean(untraced, "units") * ref_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(setups),
        }
        report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        work = [p["work_s"] for p in untraced]
        n_inputs = len({p["inputs"] for p in untraced})
        print(f"  wall_s       {values['wall_s']:.4f} s   {len(untraced)} passes on {n_inputs}"
              f" input sets, in reference seconds (plain: median {statistics.median(work):.4f},"
              f" min {min(work):.4f}, max {max(work):.4f}; fast-state probe"
              f" {fast_s * 1e3:.4f} ms here, {ref_s * 1e3:.4f} ms for reference)")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB  median of {len(untraced)} passes")
        print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(untraced)} processes,"
              f" in reference seconds (plain: median"
              f" {statistics.median(p['setup_s'] for p in untraced):.4f})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
