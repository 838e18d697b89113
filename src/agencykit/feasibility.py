"""Ledger-gated action feasibility and budgeted open-loop sequence enumeration.

An action is feasible at a state when its cost does not exceed the state's
ledger value. A length-H action sequence is feasible when its total cost fits
the *initial* budget (open-loop gate); feasibility is never re-evaluated along
the branch. A sequence is identified by its lexicographic number: row ``n`` of
every sequence table is the sequence whose base-A digits are ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from agencykit.kernel import _check_count, _check_state, _freeze


@dataclass(frozen=True)
class FeasibilityGate:
    """Ledger extractor r(s) and per-action cost table c(a).

    ``ledger`` is a 1-d array with one nonnegative entry per state, ``costs``
    a 1-d array with one per action; anything else raises ValueError.
    """

    ledger: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        # copies: freezing them leaves the caller's arrays writable
        ledger = np.array(self.ledger, dtype=np.float64)
        costs = np.array(self.costs, dtype=np.float64)
        if ledger.ndim != 1 or costs.ndim != 1:
            raise ValueError(f"ledger and costs must be 1-d, not of shapes "
                             f"{ledger.shape} and {costs.shape}")
        if not np.all(ledger >= 0):
            raise ValueError("ledger values must be nonnegative, not negative or NaN")
        if not np.all(costs >= 0):
            raise ValueError("action costs must be nonnegative, not negative or NaN")
        _freeze(self, ledger=ledger, costs=costs)

    @property
    def n_actions(self) -> int:
        return len(self.costs)


def feasible_action_matrix(gate: FeasibilityGate) -> np.ndarray:
    """Boolean matrix F[a, s] = (c(a) <= r(s)) for batch set computations."""
    return gate.costs[:, None] <= gate.ledger[None, :]


def _all_sequences(n_actions: int, horizon: int) -> np.ndarray:
    """Every length-H sequence as an (A**H, H) int array; row n holds the digits of n."""
    return np.indices((n_actions,) * horizon).reshape(horizon, -1).T


def sequence_costs(gate: FeasibilityGate, horizon: int) -> np.ndarray:
    """Total cost of every length-H sequence, in lexicographic row order.

    ``horizon`` must be an integer >= 1; anything else raises ValueError.
    """
    _check_count("horizon", horizon, 1)
    return gate.costs[_all_sequences(gate.n_actions, horizon)].sum(axis=1)


def feasible_sequences(gate: FeasibilityGate, s0: int, horizon: int) -> np.ndarray:
    """All length-H sequences whose total cost fits the initial budget r(s0).

    Returns an (n, H) int array of the affordable rows of the lexicographic
    enumeration, in that order; it may have zero rows. ``s0`` must be an
    integer state index (``_check_state``).
    """
    costs = sequence_costs(gate, horizon)
    _check_state(s0, len(gate.ledger))
    return _all_sequences(gate.n_actions, horizon)[costs <= gate.ledger[s0]]
