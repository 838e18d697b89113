"""Canonical serialization, stable config hashing, artifact files, and auditing.

Every experiment emits one JSON artifact containing its full configuration,
the SHA-256 hash of that configuration under a canonical serialization, the
metrics payload, and provenance (UTC timestamp, component versions). The
auditor re-derives the hash from the embedded config and each exhibit's
contracts and stored aggregates from its metrics, checks stochasticity
invariants on any metrics tagged as probability objects, and compares
``generated/`` copies byte for byte.

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

from agencykit.empowerment import ROW_TOLERANCE
from agencykit.kernel import _check_rows

# metrics keys with these suffixes are audited as probability objects
DISTRIBUTION_SUFFIX = "_distribution"
ROWS_SUFFIX = "_rows"


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


def _nodes(tree, path: str = "$.metrics"):
    """(path, value) of every node below ``tree``, each parent before its children."""
    is_map = isinstance(tree, dict)
    for k, v in tree.items() if is_map else enumerate(tree) if isinstance(tree, list) else ():
        child = f"{path}.{k}" if is_map else f"{path}[{k}]"
        yield child, v
        if isinstance(v, (dict, list)):
            yield from _nodes(v, child)


def _check_probability_object(value) -> str | None:
    """Why ``value`` is no numeric array whose last-axis rows pass ``_check_rows``, or None."""
    try:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return f"a scalar ({value!r}), not a distribution or rows"
        _check_rows(arr.reshape(-1, arr.shape[-1] or 1), ROW_TOLERANCE, lambda r, total: (
            f"row {r} has a negative or non-finite entry" if total is None
            else f"row {r}: row sum {total} deviates from 1"))
    except (TypeError, ValueError, OverflowError) as exc:  # unreadable by numpy, or a bad row
        return str(exc)
    return None


def _check_solver(config, metrics) -> str | None:
    """Why the hashed ``capacity_tol_bits`` and the ``solver`` block's gap disagree, or None."""
    has_solver = isinstance(metrics, dict) and "solver" in metrics
    if not (isinstance(config, dict) and "capacity_tol_bits" in config):
        return "present, though the config sets no capacity_tol_bits" if has_solver else None
    if not has_solver:
        return "missing, though the config sets capacity_tol_bits"
    try:
        gap, tol = metrics["solver"]["max_gap_bits"], config["capacity_tol_bits"]
        if {type(gap), type(tol)} - {int, float}:  # exact types: a JSON boolean is no number
            raise TypeError(f"{gap!r} and {tol!r} are not both numbers")
        gap, tol = float(gap), float(tol)
    except (KeyError, TypeError, OverflowError) as exc:
        return f"max_gap_bits or the config's capacity_tol_bits is unreadable ({exc!r})"
    if not gap <= tol:
        return f"max_gap_bits {gap!r} exceeds the config's capacity_tol_bits {tol!r}"
    return None


def _contract_problems(exhibit, metrics, boolean_path) -> list[tuple[str, str]]:
    """(rule, detail) of each way an exhibit's stored contracts or aggregates fail re-derivation."""
    from agencykit.experiments import RUNNERS  # at call time: experiments imports this module

    if not isinstance(exhibit, str) or exhibit not in RUNNERS:
        return []
    _, contracts, aggregates = RUNNERS[exhibit]
    try:
        derived = contracts(metrics)
        # as JSON text, which tells 1 from 1.0 and true from 1
        compared = [(path, json.dumps(old), json.dumps(new))
                    for path, old, new in aggregates(metrics)]
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        return [("missing_metrics", f"the {exhibit} checks cannot read $.metrics ({exc!r})")]
    # a contract comparing a boolean metric with a number takes true for 1
    if boolean_path is not None:
        return [("missing_metrics", f"{boolean_path} is a boolean, not a number")]
    problems = [("contract_false", key) for key, ok in derived.items() if not ok]
    problems += [("aggregate_mismatch", f"{path} is {old}, re-derived {new}")
                 for path, old, new in compared if old != new]
    # sorted-key JSON tells true from 1, and cannot fail on a parsed tree
    expected = json.dumps(derived, sort_keys=True)
    if json.dumps(metrics.get("contracts"), sort_keys=True) != expected:
        problems.append(("contract_mismatch", f"$.metrics.contracts is not the derived {expected}"))
    return problems


def audit(directory: str | Path, strict: bool = True) -> AuditReport:
    """Check every JSON artifact in ``directory`` against the artifact contract.

    Verifies required fields, recomputes each config hash from the embedded
    config, scans tagged probability objects for stochasticity violations,
    checks that a ``solver`` block's certified capacity gap is within the
    config's hashed ``capacity_tol_bits``, re-derives an exhibit's contracts
    (each must hold and equal the stored block) and its stored aggregates
    (``aggregate_mismatch`` names each that differs), and checks filename/hash
    consistency (a warning instead of a failure when ``strict`` is off). A
    copy ``generated/<exhibit>.json`` must hold the bytes of its hashed
    artifact; ``files_checked`` counts top-level files only. Unreadable or
    malformed files, nested too deeply to parse or walk included, become
    failure entries, not crashes.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such directory: {directory}")
    report = AuditReport(files_checked=0)
    for path in sorted(directory.glob("*.json")):
        report.files_checked += 1
        try:
            for rule, detail in _audit_file(path):
                loose = rule == "filename_hash_prefix" and not strict
                (report.warnings if loose else report.failures).append((str(path), rule, detail))
        except RecursionError:
            report.failures.append((str(path), "too_deep", "nesting exceeds the recursion limit"))
    for path in sorted(directory.glob("generated/*.json")):
        detail = generated_copy_problem(directory, path)
        if detail is not None:
            report.failures.append((str(path), "generated_copy_mismatch", detail))
    return report


def generated_copy_problem(directory: Path, path: Path) -> str | None:
    """Why ``path`` is no ``generated/`` copy of its hashed artifact (see ``audit``), or None."""
    try:
        record = read_artifact(path)
        original = directory / f"{record['artifact_type']}_{record['config_hash'][:12]}.json"
        # the name check comes first, so an odd artifact_type never reaches the file system
        if path.stem == record["artifact_type"] and original.read_bytes() == path.read_bytes():
            return None
        return f"not the bytes of {original.name} under its artifact_type's name"
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
        return f"not a readable artifact copy ({exc!r})"


def _audit_file(path: Path):
    """Yield ``(rule, detail)`` of each failure of one file; those before a RecursionError stay."""
    try:
        record = read_artifact(path)
    except (OSError, ValueError) as exc:
        yield "unreadable", str(exc)
        return

    if not isinstance(record, dict):
        yield "missing_fields", "file is not a JSON object"
        return
    missing = [f for f in REQUIRED_FIELDS if f not in record]
    if missing:
        yield "missing_fields", ", ".join(missing)
        return

    try:
        expected = config_hash(record["config"])
    except ValueError as exc:
        yield "config_not_serializable", str(exc)
        return
    stored = record["config_hash"]
    if not isinstance(stored, str):
        yield "config_hash_mismatch", f"stored {stored!r} is not a hex string"
    elif stored != expected:
        yield "config_hash_mismatch", f"stored {stored[:12]}..., recomputed {expected[:12]}..."

    # one walk: tagged probability objects, and the first boolean outside contracts
    boolean_path, tagged = None, ()
    for tree_path, value in _nodes(record["metrics"]):
        if tree_path.endswith((DISTRIBUTION_SUFFIX, ROWS_SUFFIX)):
            problem = _check_probability_object(value)
            # numpy reads true or "0.5" as a number, so the walk checks the entries' JSON types
            tagged = () if problem else (f"{tree_path}[", f"{tree_path}.")
            if problem is not None:
                yield "stochasticity", f"{tree_path}: {problem}"
        elif tree_path.startswith(tagged) and type(value) not in (int, float, list):
            tagged = ()  # one failure per tagged value
            yield "stochasticity", f"{tree_path}: {json.dumps(value)} is not a number"
        # the contracts block and anything below it hold booleans by design
        in_contracts = f"{tree_path}.".startswith(("$.metrics.contracts.", "$.metrics.contracts["))
        if isinstance(value, bool) and boolean_path is None and not in_contracts:
            boolean_path = tree_path

    problem = _check_solver(record["config"], record["metrics"])
    if problem is not None:
        yield "uncertified_capacity", f"$.metrics.solver: {problem}"
    yield from _contract_problems(record["artifact_type"], record["metrics"], boolean_path)

    if not isinstance(stored, str):
        return
    expected_name = f"{record['artifact_type']}_{stored[:12]}.json"
    if path.name != expected_name:
        yield "filename_hash_prefix", f"expected {expected_name}"
