"""Degenerate inputs: each public name returns its documented convention or raises ValueError.

One table over an empty value list, empty and non-closed endomaps, safety
masks that are no 1-d bool array, and kernel, policy and channel rows with
one bad entry or sum. ``pytest.raises(ValueError)`` lets any other error
through, so no ``IndexError``, ``ZeroDivisionError`` or ``KeyError`` may
escape; ``_check_state``'s documented ``IndexError`` is pinned elsewhere. A
bad row sits at index 2, and each error names it as it always has.
"""

import numpy as np
import pytest

from agencykit.empowerment import Lens, channel_capacities, lower_median, median_empowerments
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import ControlledKernel, Policy
from agencykit.packaging import Endomap, idempotence_defect, packaging_endomap
from agencykit.viability import SafetyPredicate

GOOD = [1.0, 0.0]
BAD_ENTRIES = {"nan": [np.nan, 1.0], "inf": [np.inf, 0.0], "negative": [1.5, -0.5]}
OFF_SUM = [0.5, 0.4]
NEGATIVE_ZERO = [1.0, -0.0]


def kernel(row) -> ControlledKernel:
    """Two actions on three states, every state staying put, with ``row`` at (action 1, state 2)."""
    succ = np.repeat(np.arange(3)[None, :, None], 2, axis=0).repeat(2, axis=2)
    weights = np.array([[GOOD] * 3, [GOOD, GOOD, row]])
    return ControlledKernel(3, 2, succ=succ, weights=weights)


def policy(row, earlier=GOOD) -> np.ndarray:
    return Policy(kind="stochastic", table={0: GOOD, 1: earlier, 2: row}).action_weights(3, 2)


def channel(row) -> float:
    return channel_capacities([[GOOD, [0.0, 1.0], row]])[0].capacity_bits


def one_state_median() -> float:
    k = ControlledKernel(1, 1, probs=[[[1.0]]])
    gate = FeasibilityGate(ledger=[0.0], costs=[0.0])
    lens = Lens(name="one", project=[0], n_labels=1)
    return median_empowerments([(k, gate, np.zeros(1, dtype=bool), 1, lens)])[0].median_bits


def one_state_endomap() -> dict:
    k = ControlledKernel(1, 1, probs=[[[1.0]]])
    lens = Lens(name="one", project=[0], n_labels=1)
    mu = Policy(kind="deterministic", table={0: 0})
    return packaging_endomap(k, lens, mu, 0).mapping


KERNEL_ROW = r"kernel row \(action 1, state 2\) "
KERNEL_ENTRY = "has a negative or non-finite weight"
CHANNEL_ENTRY = "has an entry that is not finite and >= 0"
CASES = {
    "lower_median_empty": (lambda: lower_median([]), "values must hold at least one number"),
    "median_empty_kernel_set": (one_state_median, 0.0),
    "endomap_tau0_one_state": (one_state_endomap, {0: 0}),
    "endomap_empty": (lambda: idempotence_defect(Endomap("p", {}, {})), "nonempty and closed"),
    "endomap_not_closed": (lambda: idempotence_defect(Endomap("p", {0: 1}, {0: 1.0})),
                           "nonempty and closed"),
    "endomap_closed": (lambda: idempotence_defect(Endomap("p", {0: 1, 1: 1}, {})), 0.0),
    **{f"safety_{kind}": (lambda mask=mask: SafetyPredicate(safe=mask),
                          r"safety mask has shape .* not a 1-d bool mask$")
       for kind, mask in {"floats": [0.5, 1.0], "ints": [1, 0], "2d": [[True, False]],
                          "strings": ["no", ""]}.items()},
    "safety_bools": (lambda: SafetyPredicate(safe=[True, False]).safe.tolist(), [True, False]),
    **{f"kernel_{kind}": (lambda row=row: kernel(row), KERNEL_ROW + f"{KERNEL_ENTRY}$")
       for kind, row in BAD_ENTRIES.items()},
    "kernel_off_sum": (lambda: kernel(OFF_SUM), KERNEL_ROW + r"sums to 0\.9$"),
    "kernel_negative_zero": (lambda: kernel(NEGATIVE_ZERO).weights[1, 2].tolist(), GOOD),
    **{f"policy_{kind}": (lambda row=row: policy(row), "policy row for state 2 is no distribution")
       for kind, row in BAD_ENTRIES.items()},
    "policy_off_sum": (lambda: policy(OFF_SUM),
                       r"policy row for state 2 is no distribution: \[0\.5, 0\.4\]$"),
    # a bad entry is named before an earlier row whose sum is off, as for kernels and channels
    "policy_nan_after_off_sum": (lambda: policy(BAD_ENTRIES["nan"], earlier=OFF_SUM),
                                 "policy row for state 2 is no distribution"),
    "policy_negative_zero": (lambda: policy(NEGATIVE_ZERO)[2].tolist(), GOOD),
    **{f"channel_{kind}": (lambda row=row: channel(row), f"channel row 2 {CHANNEL_ENTRY}")
       for kind, row in BAD_ENTRIES.items()},
    "channel_off_sum": (lambda: channel(OFF_SUM), r"channel row 2 sums to 0\.9$"),
    "channel_negative_zero": (lambda: channel(NEGATIVE_ZERO), pytest.approx(1.0, abs=1e-9)),
}


@pytest.mark.parametrize("call, outcome", CASES.values(), ids=CASES.keys())
def test_degenerate_input(call, outcome):
    """A string outcome is the ValueError's pattern; anything else is the return value."""
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call()
    else:
        assert call() == outcome
