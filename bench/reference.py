"""Stored reference results and the rule that compares a pass against them.

``exact`` trees (kernel sizes, members, defects, contracts) must match
exactly; ``bits`` trees (capacities) may differ by at most
2 x ``capacity_tol_bits``. The reference covers every exhibit, every ladder
rung and the random kernels of the default seed.

Regenerate it, only when a result is meant to change, with
``python3 bench/reference.py`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
MAX_REPORTED = 5


def load(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _diff(expected, actual, tol: float | None, path: str, out: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            out.append(f"{path}: keys differ")
            return
        for key in expected:
            _diff(expected[key], actual[key], tol, f"{path}.{key}", out)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            out.append(f"{path}: length differs")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, tol, f"{path}[{i}]", out)
    elif tol is not None and isinstance(expected, float):
        if not isinstance(actual, (int, float)) or not abs(actual - expected) <= tol:
            out.append(f"{path}: {actual!r} differs from {expected!r} by more than {tol!r}")
    elif expected != actual or type(expected) is not type(actual):
        out.append(f"{path}: {actual!r} != {expected!r}")


def compare(expected: dict, actual: dict, capacity_tol_bits: float) -> list[str]:
    """Mismatches between an op result and its reference; empty when it matches."""
    out: list[str] = []
    _diff(expected.get("exact"), actual.get("exact"), None, "exact", out)
    _diff(expected.get("bits"), actual.get("bits"), 2 * capacity_tol_bits, "bits", out)
    return out[:MAX_REPORTED]


def check(workload: str, ops, reference: dict) -> None:
    """Append a failure to every op whose result differs from the reference."""
    stored = reference["workloads"][workload]
    tol = reference["capacity_tol_bits"]
    for op in ops:
        if op.failures:
            continue
        if op.name not in stored:
            op.failures.append("no reference result")
            continue
        op.failures += [f"reference: {m}" for m in compare(stored[op.name], op.result, tol)]


def generate() -> dict:
    import tempfile

    import workloads

    out = {
        "capacity_tol_bits": workloads.EMPOWERMENT_TOL,
        "seed": workloads.DEFAULT_SEED,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workloads.DEFAULT_SEED, 0, Path(tmp))
            ops = workload.ops(workload.run_pass(), None)
            failed = [(op.name, op.failures) for op in ops if op.failures]
            if failed:
                raise SystemExit(f"{name}: cannot store a failing result: {failed}")
            out["workloads"][name] = {op.name: op.result for op in ops}
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    REFERENCE_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
