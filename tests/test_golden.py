"""Byte golden of the six exhibits: SHA-256 of each record's canonical config and metrics.

``golden_exhibits.json`` holds, per exhibit, the digests of
``canonical_serialize(record.config)`` and ``canonical_serialize(record.metrics)``
of ``run_exhibit(name)``. A refactor that claims to leave results unchanged
must pass it as it stands; a change that moves a metric on purpose rewrites
the file with

    PYTHONPATH=src python tests/test_golden.py

and says which digests moved and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from agencykit.artifacts import canonical_serialize
from agencykit.experiments import EXHIBITS, run_exhibit

GOLDEN = Path(__file__).with_name("golden_exhibits.json")


def digests(name: str) -> dict[str, str]:
    record = run_exhibit(name)
    return {part: hashlib.sha256(canonical_serialize(getattr(record, part))).hexdigest()
            for part in ("config", "metrics")}


def test_golden_covers_every_exhibit():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(EXHIBITS)


@pytest.mark.parametrize("name", EXHIBITS)
def test_exhibit_bytes_match_golden(name):
    assert digests(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digests(name) for name in EXHIBITS}, indent=2) + "\n")
