"""Canonical serialization, stable config hashing, artifact files, and auditing.

Every experiment emits one JSON artifact containing its full configuration,
the SHA-256 hash of that configuration under a canonical serialization, the
metrics payload, and provenance (UTC timestamp, component versions). The
auditor re-derives the hash from the embedded config and checks basic
stochasticity invariants on any metrics tagged as probability objects.

The hash covers the config subtree only -- never metrics or timestamps -- so
identical configurations always map to identical hashes and filenames.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# metrics keys with these suffixes are audited as probability objects
DISTRIBUTION_SUFFIX = "_distribution"
ROWS_SUFFIX = "_rows"
STOCHASTICITY_TOLERANCE = 1e-9


def canonical_serialize(value) -> bytes:
    """Stable UTF-8 JSON bytes: sorted keys, no whitespace, shortest decimals.

    Accepts what ``to_jsonable`` accepts, numpy values and tuples included.
    Integers and floats are distinct value kinds and are never coerced into
    each other.
    """
    return json.dumps(
        to_jsonable(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")


def config_hash(config) -> str:
    """Lowercase SHA-256 hex digest of the canonical config serialization."""
    return hashlib.sha256(canonical_serialize(config)).hexdigest()


def to_jsonable(value):
    """Plain JSON tree of ``value``, with numpy scalars and arrays converted.

    Raises ValueError, naming the path of the entry, on a non-finite number,
    a non-string map key or any other value kind.
    """
    def walk(v, path: str):
        if isinstance(v, (np.generic, np.ndarray)):
            v = v.tolist()
        if v is None or isinstance(v, (str, bool, int)):
            return v
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"non-finite number at {path}: {v!r}")
            return v
        if isinstance(v, dict):
            for k in v:
                if not isinstance(k, str):
                    raise ValueError(f"non-string map key at {path}: {k!r}")
            return {k: walk(x, f"{path}.{k}") for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x, f"{path}[{i}]") for i, x in enumerate(v)]
        raise ValueError(f"unsupported value kind at {path}: {type(v).__name__}")

    return walk(value, "$")


@dataclass
class ArtifactRecord:
    """Config + hash + metrics + provenance, ready for canonical writing."""

    artifact_type: str
    config: dict
    config_hash: str
    metrics: dict
    created_at_utc: str
    versions: dict

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        if self.config_hash != config_hash(self.config):
            raise ValueError("config_hash does not match the embedded config")

    @property
    def filename(self) -> str:
        return f"{self.artifact_type}_{self.config_hash[:12]}.json"


REQUIRED_FIELDS = tuple(f.name for f in fields(ArtifactRecord))


def component_versions() -> dict:
    from agencykit import __version__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "agencykit": __version__,
    }


def make_artifact(artifact_type: str, config: dict, metrics: dict) -> ArtifactRecord:
    """Assemble a record, hashing the config and stamping provenance."""
    config = to_jsonable(config)
    return ArtifactRecord(
        artifact_type=artifact_type,
        config=config,
        config_hash=config_hash(config),
        metrics=to_jsonable(metrics),
        created_at_utc=datetime.now(timezone.utc).isoformat(),
        versions=component_versions(),
    )


def write_artifact(record: ArtifactRecord, directory: str | Path) -> Path:
    """Atomically write ``<artifact_type>_<hash12>.json`` under ``directory``."""
    record.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = canonical_serialize(record.to_dict())
    target = directory / record.filename
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return target


@dataclass
class AuditReport:
    """Per-directory audit outcome; passes iff no failures were recorded."""

    files_checked: int
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token!r}")


def read_artifact(path: Path):
    """Parsed JSON of an artifact file; a NaN or Infinity raises ValueError."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _iter_probability_objects(tree, path: str = "$.metrics"):
    if isinstance(tree, dict):
        for k, v in tree.items():
            child = f"{path}.{k}"
            if k.endswith(DISTRIBUTION_SUFFIX) or k.endswith(ROWS_SUFFIX):
                yield child, v
            yield from _iter_probability_objects(v, child)
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _iter_probability_objects(v, f"{path}[{i}]")


def _check_probability_object(value) -> str | None:
    """Entries must lie in [0, 1]; distribution vectors and each row sum to 1."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        return f"not a numeric array ({exc})"
    if arr.ndim == 0:
        return f"a scalar ({value!r}), not a distribution or rows"
    if arr.size == 0:
        return None
    if not np.all(np.isfinite(arr)):
        return "non-numeric or non-finite entries"
    if np.any(arr < -STOCHASTICITY_TOLERANCE) or np.any(arr > 1 + STOCHASTICITY_TOLERANCE):
        return f"entries outside [0, 1] (range [{arr.min()}, {arr.max()}])"
    rows = arr[None, :] if arr.ndim == 1 else arr
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > STOCHASTICITY_TOLERANCE):
        worst = float(sums[np.argmax(np.abs(sums - 1.0))])
        return f"row sum {worst} deviates from 1"
    return None


def _check_solver(metrics) -> str | None:
    """A ``solver`` block's certified gap must not exceed its capacity tolerance."""
    solver = metrics.get("solver") if isinstance(metrics, dict) else None
    if solver is None:
        return None
    try:
        gap = float(solver["max_gap_bits"])
        tol = float(solver["capacity_tol_bits"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return f"malformed solver block ({exc!r})"
    if not gap <= tol:
        return f"max_gap_bits {gap!r} exceeds capacity_tol_bits {tol!r}"
    return None


def audit(directory: str | Path, strict: bool = True) -> AuditReport:
    """Check every JSON artifact in ``directory`` against the artifact contract.

    Verifies required fields, recomputes each config hash from the embedded
    config, scans tagged probability objects for stochasticity violations,
    checks that a ``solver`` block's certified capacity gap is within its
    tolerance, and checks filename/hash consistency (a warning instead of a
    failure when ``strict`` is off). Unreadable or malformed files, nested
    too deeply to parse or walk included, become failure entries, not crashes.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such directory: {directory}")
    report = AuditReport(files_checked=0)
    for path in sorted(directory.glob("*.json")):
        report.files_checked += 1
        try:
            _audit_file(path, strict, report)
        except RecursionError:
            report.failures.append((str(path), "too_deep", "nesting exceeds the recursion limit"))
    return report


def _audit_file(path: Path, strict: bool, report: AuditReport) -> None:
    """Append the failures and warnings of one artifact file to ``report``."""
    name = str(path)
    try:
        record = read_artifact(path)
    except (OSError, ValueError) as exc:
        report.failures.append((name, "unreadable", str(exc)))
        return

    if not isinstance(record, dict):
        report.failures.append((name, "missing_fields", "file is not a JSON object"))
        return
    missing = [f for f in REQUIRED_FIELDS if f not in record]
    if missing:
        report.failures.append((name, "missing_fields", ", ".join(missing)))
        return

    try:
        expected = config_hash(record["config"])
    except ValueError as exc:
        report.failures.append((name, "config_not_serializable", str(exc)))
        return
    stored = record["config_hash"]
    if not isinstance(stored, str):
        report.failures.append(
            (name, "config_hash_mismatch", f"stored {stored!r} is not a hex string")
        )
    elif stored != expected:
        report.failures.append(
            (name, "config_hash_mismatch", f"stored {stored[:12]}..., recomputed {expected[:12]}...")
        )

    for tree_path, value in _iter_probability_objects(record["metrics"]):
        problem = _check_probability_object(value)
        if problem is not None:
            report.failures.append((name, "stochasticity", f"{tree_path}: {problem}"))

    problem = _check_solver(record["metrics"])
    if problem is not None:
        report.failures.append((name, "uncertified_capacity", f"$.metrics.solver: {problem}"))

    if not isinstance(stored, str):
        return
    expected_name = f"{record['artifact_type']}_{stored[:12]}.json"
    if path.name != expected_name:
        entry = (name, "filename_hash_prefix", f"expected {expected_name}")
        if strict:
            report.failures.append(entry)
        else:
            report.warnings.append(entry)
