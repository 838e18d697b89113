import gc
import tracemalloc

import numpy as np
import pytest

from agencykit import empowerment
from agencykit.empowerment import (
    Lens,
    _batched_sequence_rows,
    _feasible_channels,
    build_channel,
    channel_capacities,
    channel_capacity,
    cyclic_channel_key,
    feasible_empowerment,
    lower_median,
    median_empowerment_on_kernel,
    rollout_output_distribution,
    select_kernel_subset,
    total_variation,
)
from agencykit.environments import build_ringworld
from agencykit.experiments import holonomy_config
from agencykit.feasibility import FeasibilityGate, feasible_sequences
from agencykit.kernel import ControlledKernel
from agencykit.viability import viability_kernel
from conftest import random_gate, random_kernel
from oracles import blahut_arimoto_capacity, bsc_capacity, grid_search_capacity


def single_matrix_kernel(rows) -> ControlledKernel:
    probs = np.asarray(rows, dtype=np.float64)
    if probs.ndim == 2:
        probs = probs[None]
    return ControlledKernel(n_states=probs.shape[1], n_actions=probs.shape[0], probs=probs)


def identity_lens(n) -> Lens:
    return Lens(name="identity", project=np.arange(n), n_labels=n)


def zero_gate(n_states, n_actions) -> FeasibilityGate:
    return FeasibilityGate(ledger=np.zeros(n_states), costs=np.zeros(n_actions))


class TestRollout:
    def test_batched_rows_keep_nothing_alive(self):
        # the rows are freed with the result, without waiting for the cycle
        # collector: nothing from the rollout holds on to its leaf blocks
        env = build_ringworld(holonomy_config("paper", True))
        states = np.arange(0, env.n_states, 8)
        gc.disable()
        tracemalloc.start()
        try:
            rows = _batched_sequence_rows(env.kernel, 4, env.output_lens, states)
            size = rows.nbytes
            del rows
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < size / 10

    def test_deterministic_kernel_delta_output(self):
        k = single_matrix_kernel([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        out = rollout_output_distribution(k, 0, (0, 0), identity_lens(3))
        np.testing.assert_array_equal(out, [0, 0, 1])

    def test_identity_dynamics_keep_start_label(self):
        k = single_matrix_kernel(np.eye(4))
        out = rollout_output_distribution(k, 2, (0, 0, 0), identity_lens(4))
        np.testing.assert_array_equal(out, [0, 0, 1, 0])

    def test_double_flip_returns_start(self):
        flip = single_matrix_kernel([[0, 1], [1, 0]])
        out = rollout_output_distribution(flip, 0, (0, 0), identity_lens(2))
        np.testing.assert_allclose(out, [1, 0])

    def test_empty_sequence_rejected(self):
        k = single_matrix_kernel(np.eye(2))
        with pytest.raises(ValueError):
            rollout_output_distribution(k, 0, (), identity_lens(2))


class TestBuildChannel:
    def test_single_action_one_row(self):
        k = single_matrix_kernel([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
        ch = build_channel(k, zero_gate(4, 1), 0, 3, identity_lens(4))
        assert ch.shape == (1, 4)

    def test_two_free_actions_four_rows(self, rng):
        k = random_kernel(rng, 3, 2)
        g = zero_gate(3, 2)
        ch = build_channel(k, g, 0, 2, identity_lens(3))
        assert ch.shape == (4, 3)
        assert feasible_sequences(g, 0, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_rows_follow_feasible_sequence_order(self, rng):
        for _ in range(5):
            k = random_kernel(rng, 5, 3)
            g = random_gate(rng, 5, 3)
            f = Lens(name="mod3", project=np.arange(5) % 3, n_labels=3)
            for s0 in range(5):
                ch = build_channel(k, g, s0, 2, f)
                seqs = feasible_sequences(g, s0, 2)
                assert len(ch) == len(seqs)
                for row, alpha in zip(ch, seqs):
                    np.testing.assert_array_equal(row, rollout_output_distribution(k, s0, alpha, f))

    def test_budget_limits_rows(self, rng):
        k = random_kernel(rng, 3, 2)
        g = FeasibilityGate(ledger=np.ones(3), costs=np.array([0.0, 1.0]))
        ch = build_channel(k, g, 0, 2, identity_lens(3))
        assert ch.shape[0] == 3

    def test_zero_cost_gate_keeps_all_rows(self, rng):
        k = random_kernel(rng, 3, 2)
        g = FeasibilityGate(ledger=np.zeros(3), costs=np.array([1.0, 1.0]))
        assert build_channel(k, g, 0, 2, identity_lens(3)).shape[0] == 0
        free = FeasibilityGate(ledger=g.ledger, costs=np.zeros(2))
        assert build_channel(k, free, 0, 2, identity_lens(3)).shape[0] == 4

    def test_rows_are_distributions(self, rng):
        k = random_kernel(rng, 5, 3)
        ch = build_channel(k, zero_gate(5, 3), 1, 2, identity_lens(5))
        np.testing.assert_allclose(ch.sum(axis=1), 1.0, atol=1e-10)


class TestChannelCapacity:
    def test_identity_channel_one_bit(self):
        res = channel_capacity(np.eye(2))
        assert res.capacity_bits == pytest.approx(1.0, abs=1e-9)

    def test_equal_rows_zero_capacity(self):
        res = channel_capacity(np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]]))
        assert res.capacity_bits <= 1e-9

    def test_bsc_matches_closed_form(self):
        res = channel_capacity(np.array([[0.9, 0.1], [0.1, 0.9]]), tol=1e-9)
        assert res.capacity_bits == pytest.approx(bsc_capacity(0.1), abs=1e-9)
        assert res.capacity_bits == pytest.approx(0.53100, abs=1e-5)

    def test_zero_and_one_row_conventions(self):
        empty = channel_capacity(np.zeros((0, 3)))
        assert (empty.capacity_bits, empty.iterations) == (0.0, 0)
        assert empty.input_distribution.shape == (0,)
        single = channel_capacity(np.array([[0.2, 0.8]]))
        assert (single.capacity_bits, single.iterations) == (0.0, 0)
        np.testing.assert_array_equal(single.input_distribution, [1.0])

    def test_non_stochastic_row_rejected(self):
        with pytest.raises(ValueError):
            channel_capacity(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            channel_capacity(np.eye(2), tol=0.0)

    def test_matches_grid_search_oracle(self, rng):
        for _ in range(10):
            m = rng.randint(2, 4)
            cols = rng.randint(2, 5)
            W = rng.dirichlet(np.ones(cols), size=m) * 0.8 + 0.2 / cols
            W = W / W.sum(axis=1, keepdims=True)
            ba = channel_capacity(W, tol=1e-10).capacity_bits
            grid = grid_search_capacity(W, step=1e-3)
            assert ba == pytest.approx(grid, abs=1e-4)


class TestRowMerging:
    def test_input_distribution_covers_original_rows(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(4), size=3)
            copies = rng.randint(0, 3, size=8)
            dup = W[copies]
            res = channel_capacity(dup, tol=1e-10)
            p = res.input_distribution
            assert p.shape == (8,)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            for row in np.unique(copies):
                np.testing.assert_array_equal(p[copies == row], p[copies == row][0])

    def test_merged_matches_unmerged_oracle(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(4), size=3)
            dup = W[rng.randint(0, 3, size=7)]
            res = channel_capacity(dup, tol=1e-10)
            assert res.capacity_bits == pytest.approx(
                blahut_arimoto_capacity(dup, tol=1e-10), abs=2e-10
            )

    def test_all_rows_equal_is_one_distinct_row(self):
        res = channel_capacity(np.tile([0.25, 0.75], (5, 1)))
        assert res.capacity_bits == 0.0
        np.testing.assert_array_equal(res.input_distribution, np.full(5, 0.2))

    def test_non_stochastic_row_reported_by_original_index(self):
        W = np.array([[0.5, 0.5], [0.5, 0.5], [0.3, 0.6]])
        with pytest.raises(ValueError, match="row 2"):
            channel_capacity(W)


class TestCyclicChannelKey:
    def test_every_column_roll_shares_the_key(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(6), size=5)
            key = cyclic_channel_key(W)
            for shift in range(6):
                assert cyclic_channel_key(np.roll(W, shift, axis=1)) == key

    def test_tied_column_sums_still_canonical(self):
        W = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.5, 0.5, 0.0, 0.0]])
        key = cyclic_channel_key(W)
        assert all(cyclic_channel_key(np.roll(W, j, axis=1)) == key for j in range(4))

    def test_one_ulp_changes_the_key(self, rng):
        W = rng.dirichlet(np.ones(4), size=3)
        bumped = W.copy()
        bumped[1, 2] = np.nextafter(bumped[1, 2], 1.0)
        assert cyclic_channel_key(bumped) != cyclic_channel_key(W)

    def test_shape_is_part_of_the_key(self):
        assert cyclic_channel_key(np.zeros((0, 4))) != cyclic_channel_key(np.zeros((0, 2)))


class TestCapacityInvariants:
    def test_capacity_bounded_by_log_rows(self, rng):
        for _ in range(15):
            m, cols = rng.randint(2, 6), rng.randint(2, 6)
            W = rng.dirichlet(np.ones(cols), size=m)
            res = channel_capacity(W)
            assert -1e-12 <= res.capacity_bits <= np.log2(min(m, cols)) + 1e-9

    def test_row_duplication_invariance(self, rng):
        # equality is certified only up to each run's reported bound gap
        for _ in range(10):
            W = rng.dirichlet(np.ones(3), size=3)
            dup = np.vstack([W, W[rng.randint(0, 3)]])
            r1 = channel_capacity(W, tol=1e-10)
            r2 = channel_capacity(dup, tol=1e-10)
            assert abs(r1.capacity_bits - r2.capacity_bits) <= r1.gap + r2.gap + 1e-9

    def test_column_permutation_invariance(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(4), size=3)
            perm = rng.permutation(4)
            c1 = channel_capacity(W, tol=1e-10).capacity_bits
            c2 = channel_capacity(W[:, perm], tol=1e-10).capacity_bits
            assert c1 == pytest.approx(c2, abs=1e-9)

    def test_distinct_rows_give_positive_capacity(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(3), size=2)
            if np.abs(W[0] - W[1]).max() < 1e-6:
                continue
            assert channel_capacity(W).capacity_bits > 1e-9

    def test_lower_bound_nondecreasing_and_gap_met(self, rng):
        # the bound returned after t iterations, for every t up to 40 and then
        # on a geometric grid up to the certified stop
        for _ in range(10):
            W = rng.dirichlet(np.ones(4), size=4)
            res = channel_capacity(W, tol=1e-9)
            steps = np.union1d(np.arange(1, 41), np.geomspace(41, res.iterations, 12).astype(int))
            trace = [
                channel_capacity(W, tol=1e-9, max_iter=int(t)).capacity_bits
                for t in steps[steps <= res.iterations]
            ]
            assert trace[-1] == res.capacity_bits
            assert np.all(np.diff(trace) >= -1e-12)
            assert res.gap <= 1e-9


class TestChannelCapacities:
    """The batched solver must return exactly what each channel's own solve returns."""

    @staticmethod
    def mixed_channels(rng, n_labels=5):
        channels = [np.zeros((0, n_labels)), rng.dirichlet(np.ones(n_labels), size=1),
                    np.tile(rng.dirichlet(np.ones(n_labels)), (4, 1))]
        for _ in range(12):
            W = rng.dirichlet(np.ones(n_labels) * rng.choice([0.5, 1.0]), size=rng.randint(2, 12))
            channels.append(W[rng.randint(0, len(W), size=len(W) + rng.randint(0, 4))])
        return channels

    @staticmethod
    def assert_same(a, b):
        assert (a.capacity_bits, a.gap, a.iterations) == (b.capacity_bits, b.gap, b.iterations)
        np.testing.assert_array_equal(a.input_distribution, b.input_distribution)

    def test_batch_equals_single_solves_in_both_orders(self, rng):
        for _ in range(2):
            channels = self.mixed_channels(rng)
            order = rng.permutation(len(channels))
            single = [channel_capacity(w) for w in channels]
            batched = channel_capacities(channels)
            shuffled = channel_capacities([channels[i] for i in order])
            assert len(batched) == len(channels)
            for i, res in enumerate(single):
                self.assert_same(batched[i], res)
                self.assert_same(shuffled[int(np.flatnonzero(order == i)[0])], res)

    def test_max_iter_stop_matches_single_solves(self, rng):
        channels = self.mixed_channels(rng)
        batched = channel_capacities(channels, tol=1e-12, max_iter=7)
        for w, res in zip(channels, batched):
            self.assert_same(res, channel_capacity(w, tol=1e-12, max_iter=7))
            assert res.iterations <= 7
            assert res.iterations == 7 or res.gap <= 1e-12

    def test_empty_batch(self):
        assert channel_capacities([]) == []

    def test_mismatched_label_counts_rejected(self, rng):
        with pytest.raises(ValueError, match="output alphabet"):
            channel_capacities([rng.dirichlet(np.ones(3), size=2), rng.dirichlet(np.ones(4), size=2)])

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            channel_capacities([np.eye(2)], max_iter=0)
        with pytest.raises(ValueError, match="2-d"):
            channel_capacities([np.array([0.5, 0.5])])


class TestFeasibleEmpowerment:
    def test_no_feasible_sequences_zero(self, rng):
        k = random_kernel(rng, 3, 2)
        g = FeasibilityGate(ledger=np.zeros(3), costs=np.ones(2))
        assert feasible_empowerment(k, g, 0, 2, identity_lens(3)) == 0.0

    def test_single_state_kernel_median_equals_state_value(self, rng):
        k = random_kernel(rng, 4, 2)
        g = zero_gate(4, 2)
        f = identity_lens(4)
        med = median_empowerment_on_kernel(k, g, np.array([2]), 2, f)
        assert med.median_bits == pytest.approx(feasible_empowerment(k, g, 2, 2, f), abs=1e-12)

    def test_empty_kernel_zero_by_convention(self, rng):
        k = random_kernel(rng, 4, 2)
        med = median_empowerment_on_kernel(k, zero_gate(4, 2), np.zeros(4, bool), 2,
                                           identity_lens(4))
        assert med.median_bits == 0.0
        assert med.subset_rule == "empty_kernel"
        assert med.max_gap_bits == 0.0

    def test_median_rejects_horizon_zero(self, rng):
        k = random_kernel(rng, 4, 2)
        with pytest.raises(ValueError, match="horizon"):
            median_empowerment_on_kernel(k, zero_gate(4, 2), np.ones(4, bool), 0,
                                         identity_lens(4))

    def test_values_equal_per_state_calls_exactly(self, rng):
        for _ in range(5):
            k = random_kernel(rng, 6, 3)
            g = random_gate(rng, 6, 3)
            f = identity_lens(6)
            states = [0, 2, 3, 5]
            batched = [
                channel_capacity(w).capacity_bits
                for w in _feasible_channels(k, g, states, 2, f)
            ]
            assert batched == [feasible_empowerment(k, g, s, 2, f) for s in states]
        assert list(_feasible_channels(k, g, [], 2, f)) == []

    def test_batched_median_matches_per_state_path(self, rng):
        k = random_kernel(rng, 5, 2)
        g = FeasibilityGate(ledger=np.array([0, 1, 2, 0, 1], float),
                            costs=np.array([0.0, 1.0]))
        f = identity_lens(5)
        med = median_empowerment_on_kernel(k, g, np.ones(5, bool), 2, f)
        direct = [feasible_empowerment(k, g, s, 2, f) for s in range(5)]
        np.testing.assert_allclose(med.values, direct, atol=1e-9)
        assert med.median_bits == pytest.approx(lower_median(direct), abs=1e-12)


class TestMedianMemo:
    """The per-call memo must return exactly what per-state solves certify."""

    @staticmethod
    def direct(k, g, med, horizon, f, tol):
        return [
            channel_capacity(build_channel(k, g, s, horizon, f), tol=tol)
            for s in med.selected_states
        ]

    def test_random_kernels_match_unmerged_channels(self, rng):
        tol = 1e-9
        for _ in range(6):
            k = random_kernel(rng, 6, 3)
            g = random_gate(rng, 6, 3)
            f = Lens(name="mod3", project=np.arange(6) % 3, n_labels=3)
            for horizon in (1, 2):
                med = median_empowerment_on_kernel(k, g, np.ones(6, bool), horizon, f, tol=tol)
                direct = self.direct(k, g, med, horizon, f, tol)
                np.testing.assert_allclose(
                    med.values, [r.capacity_bits for r in direct], rtol=0, atol=2 * tol
                )

    def test_max_gap_is_largest_per_state_gap(self, rng):
        for _ in range(6):
            k = random_kernel(rng, 5, 2)
            g = zero_gate(5, 2)
            f = identity_lens(5)
            med = median_empowerment_on_kernel(k, g, np.ones(5, bool), 2, f, tol=1e-9)
            direct = self.direct(k, g, med, 2, f, 1e-9)
            assert med.max_gap_bits == max(r.gap for r in direct)
            assert med.iterations_max == max(r.iterations for r in direct)
            assert 1 <= med.solves <= len(direct)
            assert med.iterations_max <= med.iterations_total

    @pytest.mark.parametrize("protocol_on", [True, False])
    def test_holonomy_ring_matches_unmerged_channels(self, protocol_on, monkeypatch):
        tol = 1e-9
        env = build_ringworld(holonomy_config("paper", protocol_on))
        vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
        solves = []
        counted = empowerment.channel_capacities

        def counting(channels, **kw):
            results = counted(list(channels), **kw)
            solves.extend(results)
            return results

        monkeypatch.setattr(empowerment, "channel_capacities", counting)
        for horizon in (1, 2, 3):
            solves.clear()
            med = median_empowerment_on_kernel(
                env.kernel, env.gate, vres.kernel, horizon, env.output_lens,
                max_states=16, tol=tol,
            )
            # y-shifted start states repeat channels up to a label shift
            assert 1 <= len(solves) == med.solves < len(med.selected_states)
            assert med.iterations_total == sum(r.iterations for r in solves)
            assert med.iterations_max == max(r.iterations for r in solves)
            direct = self.direct(env.kernel, env.gate, med, horizon, env.output_lens, tol)
            np.testing.assert_allclose(
                med.values, [r.capacity_bits for r in direct], rtol=0, atol=2 * tol
            )
            assert med.max_gap_bits <= tol


class TestSubsetRule:
    def test_small_sets_taken_whole(self):
        sel = select_kernel_subset(np.array([5, 3, 9]), max_states=64)
        np.testing.assert_array_equal(sel, [3, 5, 9])

    def test_strided_selection_deterministic(self):
        idx = np.arange(100)
        sel = select_kernel_subset(idx, max_states=10)
        np.testing.assert_array_equal(sel, np.arange(10) * 10)

    def test_lower_median_definition(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0


class TestTotalVariation:
    def test_identical_distributions(self):
        assert total_variation([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation([1, 0], [0, 1]) == 1.0

    def test_hand_sum(self):
        assert total_variation([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation([1.0], [0.5, 0.5])
