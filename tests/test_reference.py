"""The benchmark's stored reference results as a test gate.

Runs the ``exhibits`` workload, every ``ring-ladder`` rung and the default
seed's first ``random-kernels`` batch through ``bench/workloads.py`` and
compares each result with ``bench/reference.json`` under the reference's own
rule (``bench/reference.compare``): ``exact`` trees (kernel sizes and members,
selected states, defects, contracts) must match exactly, and capacities must
agree within 2 x tol. Random kernels also pass the workload's own invariant
checks, and the Blahut-Arimoto work of their first batch is pinned as exact
counts.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

import agencykit as ak  # noqa: E402
from agencykit.empowerment import median_empowerments  # noqa: E402
from agencykit.experiments import solver_block  # noqa: E402


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


def test_random_kernels_batch0_matches_reference(stored, tmp_path):
    # the stored values of batch 0 include a channel that stops at max_iter
    # uncertified, so a capacity solver change that moves it fails here
    workload = workloads.RandomKernels(workloads.DEFAULT_SEED, 0, tmp_path)
    assert workloads.reference_applies(workload.name, workloads.DEFAULT_SEED, workload.inputs_id)
    ops = workload.ops(workload.run_pass(), None)
    assert sorted(op.name for op in ops) == sorted(stored["workloads"]["random-kernels"])
    for op in ops:
        assert op.failures == []
        assert_matches(stored, "random-kernels", op.name, op.result)


# (solves, iterations_total, iterations_max, max_gap_bits) of each median of
# batch 0; a change to Blahut-Arimoto that moves any iterate moves these
BATCH0_SOLVER_COUNTS = [
    (64, 63233, 8436, 9.996437011494663e-10),
    (64, 72605, 9556, 9.997842553843839e-10),
    (64, 76100, 10000, 6.347443746612669e-06),
]


def test_random_kernels_batch0_solver_counts():
    counts = []
    for inst in workloads.random_instances(workloads.DEFAULT_SEED, 0):
        k = ak.ControlledKernel(n_states=inst.n_states, n_actions=inst.succ.shape[0],
                                probs=workloads.dense_probs(inst))
        gate = ak.FeasibilityGate(ledger=inst.ledger,
                                  costs=np.array(workloads.RANDOM_ACTION_COSTS))
        safe = ak.SafetyPredicate(safe=inst.safe, name="random_safe")
        out = ak.Lens(name="random_output", project=inst.output_labels,
                      n_labels=workloads.RANDOM_OUTPUT_LABELS)
        med, = median_empowerments(
            [(k, gate, ak.viability_kernel(k, gate, safe).kernel, workloads.RANDOM_HORIZON, out)],
            max_states=workloads.MAX_MEDIAN_STATES, tol=workloads.EMPOWERMENT_TOL,
        )
        block = solver_block([med])
        counts.append(tuple(block[key] for key in
                            ("solves", "iterations_total", "iterations_max", "max_gap_bits")))
    assert counts == BATCH0_SOLVER_COUNTS
