import itertools
import re

import numpy as np
import pytest

from agencykit.feasibility import (
    FeasibilityGate,
    feasible_action_matrix,
    feasible_sequences,
    sequence_costs,
)


def gate(ledger, costs) -> FeasibilityGate:
    return FeasibilityGate(ledger=np.asarray(ledger, float), costs=np.asarray(costs, float))


def affordable_at(g: FeasibilityGate, s: int) -> set[int]:
    return set(np.flatnonzero(feasible_action_matrix(g)[:, s]).tolist())


class TestGateInputs:
    @pytest.mark.parametrize("field, ledger, costs", [
        ("ledger", [0.0, np.nan], [0.0, 1.0]),
        ("ledger", [-1.0, 2.0], [0.0, 1.0]),
        ("costs", [0.0, 2.0], [np.nan, 1.0]),
        ("costs", [0.0, 2.0], [0.0, -1.0]),
    ])
    def test_negative_or_nan_rejected(self, field, ledger, costs):
        # a NaN ledger would make every action and sequence at its state
        # silently infeasible
        with pytest.raises(ValueError, match=f"{field} .*not negative or NaN"):
            gate(ledger, costs)

    @pytest.mark.parametrize("ledger, costs", [
        ([3.0, 1.0], [[0.0, 1.0]]),
        ([[3.0, 1.0]], [0.0, 1.0]),
        (3.0, [0.0, 1.0]),
        ([3.0, 1.0], 1.0),
    ], ids=["2d_costs", "2d_ledger", "scalar_ledger", "scalar_costs"])
    def test_ledger_and_costs_must_be_1d(self, ledger, costs):
        # a (1, 2) cost table read as one action made feasible_sequences
        # return a flat [0, 0] rather than a (4, 2) table
        with pytest.raises(ValueError, match="ledger and costs must be 1-d"):
            gate(ledger, costs)


class TestFeasibleActions:
    def test_zero_costs_everything_feasible(self):
        g = gate([0, 1, 2], [0, 0, 0])
        for s in range(3):
            assert affordable_at(g, s) == {0, 1, 2}

    def test_budget_two(self):
        g = gate([2], [0, 1, 3])
        assert affordable_at(g, 0) == {0, 1}

    def test_empty_budget_positive_costs(self):
        g = gate([0], [1, 2])
        assert affordable_at(g, 0) == set()

    def test_comparison_is_exact(self):
        g = gate([1], [1])
        assert affordable_at(g, 0) == {0}


class TestFeasibleSequences:
    def test_zero_cost_lexicographic(self):
        g = gate([0], [0, 0])
        seqs = feasible_sequences(g, 0, 2)
        assert seqs.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_budget_filter(self):
        g = gate([1], [0, 1])
        seqs = feasible_sequences(g, 0, 2)
        assert seqs.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert sequence_costs(g, 2).tolist() == [0.0, 1.0, 1.0, 2.0]

    def test_empty_when_unaffordable(self):
        g = gate([0], [1, 2])
        assert feasible_sequences(g, 0, 3).shape == (0, 3)

    @pytest.mark.parametrize("s0", [-1, 3])
    def test_start_state_out_of_range(self, s0):
        with pytest.raises(IndexError, match=f"state index {s0} out of range"):
            feasible_sequences(gate([0, 1, 2], [0, 1]), s0, 2)

    @pytest.mark.parametrize("horizon", [True, 2.0])
    def test_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
            feasible_sequences(gate([0], [0, 0]), 0, horizon)

    @pytest.mark.parametrize("s0", [True, 1.5, 1.0, np.float64(0.0)])
    def test_start_state_must_be_an_integer(self, s0):
        # True would index the ledger as a bool mask, and a float not at all
        expected = re.escape(f"state index must be an integer, not {s0!r}")
        with pytest.raises(ValueError, match=expected):
            feasible_sequences(gate([0, 1, 2], [0, 1]), s0, 1)

    @pytest.mark.parametrize("horizon", [0, -1, True, 2.0])
    def test_sequence_costs_checks_the_horizon(self, horizon):
        with pytest.raises(ValueError, match=f"horizon must be an integer >= 1, not {horizon!r}"):
            sequence_costs(gate([0, 1], [0, 1]), horizon)

    def test_zero_costs_count(self):
        g = gate([0], [0, 0, 0])
        assert len(feasible_sequences(g, 0, 4)) == 3**4

    def test_order_stable_across_runs(self):
        g = gate([3], [0, 1, 2])
        first = feasible_sequences(g, 0, 3).tolist()
        second = feasible_sequences(g, 0, 3).tolist()
        assert first == second

    def test_costs_equal_per_sequence_sums_exactly(self, rng):
        # row n is the sequence whose base-A digits are n, lexicographic order
        for n_actions in range(1, 5):
            for horizon in range(1, 7):
                g = gate([0], rng.random(n_actions) * 10)
                combos = list(itertools.product(range(n_actions), repeat=horizon))
                expected = [float(g.costs[list(c)].sum()) for c in combos]
                assert sequence_costs(g, horizon).tolist() == expected

    def test_stepwise_subset_of_initial_budget(self, rng):
        # with zero replenishment, sequences affordable prefix-by-prefix are a
        # subset of those passing the initial-budget gate
        for _ in range(20):
            costs = rng.randint(0, 3, size=3).astype(float)
            budget = float(rng.randint(0, 5))
            g = gate([budget], costs)
            horizon = 3
            initial = {tuple(s) for s in feasible_sequences(g, 0, horizon).tolist()}
            stepwise = set()
            for combo in itertools.product(range(3), repeat=horizon):
                remaining = budget
                ok = True
                for a in combo:
                    if costs[a] > remaining:
                        ok = False
                        break
                    remaining -= costs[a]
                if ok:
                    stepwise.add(combo)
            assert stepwise <= initial
