"""The benchmark's stored reference results as a test gate.

Runs the ``exhibits`` workload and every ``ring-ladder`` rung through
``bench/workloads.py`` and compares each result with ``bench/reference.json``
under the reference's own rule (``bench/reference.compare``): ``exact`` trees
(kernel sizes and members, selected states, defects, contracts) must match
exactly, and capacities must agree within 2 x tol.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def stored() -> dict:
    return reference.load()


def assert_matches(stored: dict, workload: str, name: str, result: dict):
    expected = stored["workloads"][workload][name]
    assert reference.compare(expected, result, stored["capacity_tol_bits"]) == []


def test_exhibits_match_reference(stored, tmp_path):
    workload = workloads.Exhibits(workloads.DEFAULT_SEED, 0, tmp_path)
    ops = workload.ops(workload.run_pass(), None)
    assert sorted(op.name for op in ops) == sorted(stored["workloads"]["exhibits"])
    for op in ops:
        assert op.failures == []
        assert_matches(stored, "exhibits", op.name, op.result)


@pytest.mark.parametrize("ring", workloads.LADDER_RINGS)
def test_ring_ladder_rung_matches_reference(stored, ring):
    result, _ = workloads.ring_rung(ring)
    assert_matches(stored, "ring-ladder", f"ring{ring}", result)
