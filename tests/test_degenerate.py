"""Degenerate inputs: each public name returns its documented convention or raises ValueError.

One table over an empty value list, empty and non-closed endomaps, safety
masks that are no 1-d bool array, kernel, policy and channel rows with one
bad entry or sum, a policy over no states, and one action (A = 1), one step
(H = 1) or one label across the sequence, channel, capacity, median,
viability and packaging paths. ``pytest.raises(ValueError)`` lets any other
error through, so no ``IndexError``, ``ZeroDivisionError`` or ``KeyError``
may escape; ``_check_state``'s documented ``IndexError`` is pinned
elsewhere. A bad row sits at index 2, and each error names it as it always
has.
"""

import numpy as np
import pytest

from agencykit.empowerment import (Lens, build_channel, channel_capacities, lower_median,
                                   median_empowerments)
from agencykit.feasibility import FeasibilityGate, feasible_sequences
from agencykit.kernel import ControlledKernel, Policy
from agencykit.packaging import Endomap, idempotence_defect, packaging_endomap
from agencykit.viability import SafetyPredicate, viability_kernel

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


def ring(n_actions: int) -> ControlledKernel:
    """Three states in a ring: action 0 stays put, action 1 moves one state on with mass 1/2."""
    probs = np.array([np.eye(3), (np.eye(3) + np.roll(np.eye(3), 1, axis=1)) / 2])
    return ControlledKernel(3, n_actions, probs=probs[:n_actions])


def free(n_actions: int) -> FeasibilityGate:
    """A gate under which every sequence is affordable."""
    return FeasibilityGate(ledger=np.zeros(3), costs=np.zeros(n_actions))


THREE = Lens(name="three", project=[0, 1, 2], n_labels=3)
ONE = Lens(name="one", project=[0, 0, 0], n_labels=1)


def ring_channel(n_actions: int, horizon: int, lens: Lens) -> list:
    return build_channel(ring(n_actions), free(n_actions), 0, horizon, lens).tolist()


def ring_capacity(n_actions: int, horizon: int, lens: Lens) -> tuple[float, int]:
    solved = channel_capacities([ring_channel(n_actions, horizon, lens)])[0]
    return solved.capacity_bits, solved.iterations


def ring_median(n_actions: int, horizon: int, lens: Lens) -> float:
    problem = (ring(n_actions), free(n_actions), np.ones(3, dtype=bool), horizon, lens)
    return median_empowerments([problem])[0].median_bits


def ring_endomap(n_actions: int, lens: Lens, tau: int) -> dict:
    mu = Policy(kind="deterministic", table={s: n_actions - 1 for s in range(3)})
    return dict(packaging_endomap(ring(n_actions), lens, mu, tau).mapping)


def ring_viability(n_actions: int) -> tuple[list, list]:
    safe = SafetyPredicate(safe=np.array([True, True, False]))
    result = viability_kernel(ring(n_actions), free(n_actions), safe)
    return result.kernel.tolist(), result.trace


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
    "policy_no_states": (lambda: Policy(kind="stochastic", table={}).action_weights(0, 2).shape,
                         (0, 2)),
    # A = 1: one sequence, a one-row channel, capacity 0.0 after 0 iterations
    "a1_feasible_sequences": (lambda: feasible_sequences(free(1), 0, 3).tolist(), [[0, 0, 0]]),
    "a1_build_channel": (lambda: ring_channel(1, 2, THREE), [[1.0, 0.0, 0.0]]),
    "a1_capacity": (lambda: ring_capacity(1, 2, THREE), (0.0, 0)),
    "a1_median": (lambda: ring_median(1, 2, THREE), 0.0),
    "a1_viability": (lambda: ring_viability(1), ([True, True, False], [2])),
    "a1_endomap": (lambda: ring_endomap(1, THREE, 2), {0: 0, 1: 1, 2: 2}),
    # H = 1: each row is one step from state 0 into labels; the median solves a
    # Z-channel of crossover 1/2, whose capacity is log2(1 + 1/4) bits
    "h1_feasible_sequences": (lambda: feasible_sequences(free(2), 0, 1).tolist(), [[0], [1]]),
    "h1_build_channel": (lambda: ring_channel(2, 1, THREE), [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
    "h1_median": (lambda: ring_median(2, 1, THREE), pytest.approx(np.log2(1.25), abs=1e-9)),
    # one label: every row is [1.0], so nothing can be told apart
    "one_label_build_channel": (lambda: ring_channel(2, 2, ONE), [[1.0]] * 4),
    "one_label_capacity": (lambda: ring_capacity(2, 2, ONE)[0], 0.0),
    "one_label_median": (lambda: ring_median(2, 2, ONE), 0.0),
    "one_label_endomap": (lambda: ring_endomap(2, ONE, 2), {0: 0}),
}


@pytest.mark.parametrize("call, outcome", CASES.values(), ids=CASES.keys())
def test_degenerate_input(call, outcome):
    """A string outcome is the ValueError's pattern; anything else is the return value."""
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call()
    else:
        assert call() == outcome
