"""Robust viability kernels as greatest fixed points of a contracting operator.

A state stays in a candidate set K when it is safe and some feasible action
keeps the *entire* successor support inside K (worst-case semantics: every
nonzero-probability outcome must remain inside). Iterating this operator from
the top safe set converges, in at most |S| sweeps, to the greatest fixed point.

State sets are represented as boolean masks over state indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from agencykit.feasibility import FeasibilityGate, feasible_action_matrix
from agencykit.kernel import ControlledKernel, _check_mask, _freeze, check_fits


@dataclass(frozen=True)
class SafetyPredicate:
    """Total boolean map over states marking which ones count as viable.

    ``safe`` is a 1-d bool mask (``_check_mask``: numbers, NaN and strings
    are refused, never coerced); ``check_fits`` checks its length.
    """

    safe: np.ndarray
    name: str = "safe"

    def __post_init__(self):
        # a copy: freezing it leaves the caller's array writable
        _freeze(self, safe=_check_mask("safety mask", np.array(self.safe)))


@dataclass
class ViabilityResult:
    """Greatest viable set plus the iteration trace that produced it."""

    kernel: np.ndarray  # boolean mask over states
    trace: list[int]  # set sizes per sweep, non-increasing

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def size(self) -> int:
        return int(self.kernel.sum())

    @property
    def indices(self) -> list[int]:
        return np.flatnonzero(self.kernel).tolist()


def viability_step(
    k: ControlledKernel,
    gate: FeasibilityGate,
    safe: SafetyPredicate,
    K: np.ndarray,
) -> np.ndarray:
    """One sweep of the controlled-invariance operator.

    Returns {s in K : safe(s) and exists feasible a with support(s,a) subset K}.
    Pointwise contracting: the result is always a subset of K. Raises
    ValueError unless the gate and safety mask are sized for ``k`` and K is
    an (S,) bool mask (``_check_mask``).
    """
    check_fits(k, gate, safe=safe)
    K = _check_mask("candidate set", K, k.n_states)
    # escapes[a, s]: some nonzero-probability successor of (s, a) lies outside K
    escapes = ((k.weights > 0) & ~K[k.succ]).any(axis=2)
    keeps = feasible_action_matrix(gate) & ~escapes
    has_safe_action = keeps.any(axis=0)
    return K & safe.safe & has_safe_action


def viability_kernel(
    k: ControlledKernel, gate: FeasibilityGate, safe: SafetyPredicate
) -> ViabilityResult:
    """Greatest fixed point of the viability operator, by downward iteration.

    Starts from the top safe set and sweeps until the set repeats exactly.
    An empty safe set short-circuits to the empty kernel in zero iterations.
    """
    check_fits(k, gate, safe=safe)
    K = safe.safe.copy()
    trace: list[int] = []
    if not K.any():
        return ViabilityResult(kernel=K, trace=trace)
    while True:
        nxt = viability_step(k, gate, safe, K)
        trace.append(int(nxt.sum()))
        if np.array_equal(nxt, K):
            return ViabilityResult(kernel=nxt, trace=trace)
        K = nxt

