import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from agencykit import empowerment
from agencykit.empowerment import (
    EMPOWERMENT_TOL,
    Lens,
    _batched_sequence_rows,
    _feasible_channels,
    _translation_orbits,
    build_channel,
    channel_capacities,
    channel_capacity,
    feasible_empowerment,
    lower_median,
    median_empowerment_on_kernel,
    select_kernel_subset,
    total_variation,
)
from agencykit.environments import build_ringworld, build_schedule_trap, ring_state_index
from agencykit.experiments import (
    ablation_configs,
    base_profile,
    holonomy_config,
    learning_config,
    maintenance_economy_config,
)
from agencykit.feasibility import FeasibilityGate, feasible_sequences
from agencykit.kernel import ControlledKernel, pull
from agencykit.viability import viability_kernel
from conftest import random_gate, random_kernel
from oracles import (
    blahut_arimoto_capacity,
    bsc_capacity,
    dense_sequence_rows,
    grid_search_capacity,
    mutual_information_bits,
    rollout_output_distribution,
    row_divergences_bits,
)


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

    @pytest.mark.parametrize("n_states, n_labels, pulls", [
        (4, 5, 4),  # S <= L: breadth-first from the root, one pull per level
        (9, 2, 11),  # S > L * A**(H - 3): split down to depth H - 2 = 2
    ])
    def test_walk_branches_match_single_rollouts(self, rng, monkeypatch, n_states, n_labels,
                                                 pulls):
        n_actions, horizon = 2, 4
        k = random_kernel(rng, n_states, n_actions)
        f = Lens(name="random", project=rng.randint(0, n_labels, size=n_states),
                 n_labels=n_labels)
        states = np.arange(n_states)
        calls = []

        def counted_pull(*args):
            calls.append(None)
            return pull(*args)

        monkeypatch.setattr(empowerment, "pull", counted_pull)
        rows = _batched_sequence_rows(k, horizon, f, states)
        assert len(calls) == pulls
        seqs = feasible_sequences(zero_gate(n_states, n_actions), 0, horizon)
        assert rows.shape == (len(seqs), n_states, n_labels)
        for j, alpha in enumerate(seqs):
            for s in states:
                out = rollout_output_distribution(k, int(s), alpha, f)
                assert out.tobytes() == rows[j, s].tobytes()

    # a one-action kernel's channel has one row, the all-zeros sequence
    def test_deterministic_kernel_delta_output(self):
        k = single_matrix_kernel([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        out = build_channel(k, zero_gate(3, 1), 0, 2, identity_lens(3))
        np.testing.assert_array_equal(out, [[0, 0, 1]])

    def test_identity_dynamics_keep_start_label(self):
        k = single_matrix_kernel(np.eye(4))
        out = build_channel(k, zero_gate(4, 1), 2, 3, identity_lens(4))
        np.testing.assert_array_equal(out, [[0, 0, 1, 0]])

    def test_double_flip_returns_start(self):
        flip = single_matrix_kernel([[0, 1], [1, 0]])
        out = build_channel(flip, zero_gate(2, 1), 0, 2, identity_lens(2))
        np.testing.assert_allclose(out, [[1, 0]])

    def test_empty_sequence_rejected(self):
        k = single_matrix_kernel(np.eye(2))
        with pytest.raises(ValueError, match="horizon"):
            build_channel(k, zero_gate(2, 1), 0, 0, identity_lens(2))


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

    def test_rollout_mass_checked_on_every_path(self):
        # the one-row channel from state 0 carries mass 0.5; capacity alone
        # would report it as zero
        k = ControlledKernel(2, 1, probs=[[[0.5, 0], [0, 1]]])
        g, f = zero_gate(2, 1), identity_lens(2)
        # the mass is a plain float in the message, not a numpy repr
        with pytest.raises(ValueError, match=r"rollout mass 0\.5 deviates from 1"):
            build_channel(k, g, 0, 1, f)
        with pytest.raises(ValueError, match=r"rollout mass 0\.5 deviates from 1"):
            median_empowerment_on_kernel(k, g, np.array([0]), 1, f)


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
        with pytest.raises(ValueError, match=r"channel row 0 sums to 1\.1$"):
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


def exhibit_ring_configs():
    """The ring configs of the holonomy, ablation, sweep, learning and packaging exhibits."""
    economy = maintenance_economy_config("paper")
    return [
        holonomy_config("paper", True),
        holonomy_config("paper", False),
        *ablation_configs("paper").values(),
        *(replace(economy, p_flip=round(float(p), 10), cost_repair=c)
          for p in np.linspace(0.0, 0.7, 8) for c in range(8)),
        learning_config("paper", 0.2),
        learning_config("paper", 0.0),
        base_profile("paper"),
    ]


def is_identity(orbits) -> bool:
    rep, shift = orbits
    return np.array_equal(rep, np.arange(len(rep))) and not shift.any()


class TestTranslationOrbits:
    def test_every_y_shift_maps_to_one_representative(self):
        cfg = holonomy_config("paper", True)
        env = build_ringworld(cfg)
        rep, shift = _translation_orbits(env.kernel, env.gate, env.output_lens)
        for u, phi, r in [(0, 0, 0), (1, 1, 2), (0, 1, 1)]:
            orbit = [ring_state_index(cfg, y, u, phi, r) for y in range(cfg.ring_size)]
            assert set(rep[orbit].tolist()) == {orbit[0]}
            assert shift[orbit].tolist() == list(range(cfg.ring_size))

    def test_detected_on_every_exhibit_ring(self):
        for cfg in exhibit_ring_configs():
            env = build_ringworld(cfg)
            period = env.n_states // cfg.ring_size
            rep, shift = _translation_orbits(env.kernel, env.gate, env.output_lens)
            states = np.arange(env.n_states)
            np.testing.assert_array_equal(rep, states % period)
            np.testing.assert_array_equal(shift, states // period)

    def test_one_ulp_weight_bump_breaks_the_symmetry(self):
        cfg = holonomy_config("paper", True)
        env = build_ringworld(cfg)
        k = env.kernel
        weights = k.weights.copy()
        s = ring_state_index(cfg, 5, 0, 1, 2)
        weights[1, s, 0] = np.nextafter(weights[1, s, 0], 1.0)
        bumped = ControlledKernel(k.n_states, k.n_actions, succ=k.succ, weights=weights)
        assert is_identity(_translation_orbits(bumped, env.gate, env.output_lens))

    def test_indivisible_label_count_gives_identity(self):
        env = build_ringworld(holonomy_config("paper", True))
        y = env.output_lens.project
        assert env.n_states % 5 != 0
        lens = Lens(name="y_mod_5", project=y % 5, n_labels=5)
        assert is_identity(_translation_orbits(env.kernel, env.gate, lens))

    def test_not_detected_without_the_symmetry(self, rng):
        for _ in range(5):
            n = rng.randint(2, 10)
            k = random_kernel(rng, n, rng.randint(1, 4))
            assert is_identity(_translation_orbits(k, zero_gate(n, k.n_actions), identity_lens(n)))
        for model in ("wrong", "right"):
            trap = build_schedule_trap(model)
            assert is_identity(_translation_orbits(trap.kernel, trap.gate, trap.output_lens))
        env = build_ringworld(holonomy_config("paper", True))
        y = env.output_lens.project
        uneven = FeasibilityGate(ledger=env.gate.ledger + (y == 3), costs=env.gate.costs)
        assert is_identity(_translation_orbits(env.kernel, uneven, env.output_lens))
        mirrored = Lens(name="mirrored", project=(-y) % env.output_lens.n_labels,
                        n_labels=env.output_lens.n_labels)
        assert is_identity(_translation_orbits(env.kernel, env.gate, mirrored))

    def test_shifted_rollouts_are_rolled_bit_for_bit(self):
        # H = 4 and 5 on the holonomy ring walk breadth-first below depth 2
        for cfg, horizons in (
            (holonomy_config("paper", False), (1, 2, 3, 4, 5)),
            (ablation_configs("paper")["learn_on"], (1, 2, 3)),
        ):
            env = build_ringworld(cfg)
            k, f = env.kernel, env.output_lens
            period = env.n_states // cfg.ring_size
            states = np.arange(env.n_states)
            for horizon in horizons:
                rows = _batched_sequence_rows(k, horizon, f, states)
                reps = _batched_sequence_rows(k, horizon, f, np.arange(period))
                for s in states:
                    np.testing.assert_array_equal(
                        rows[:, s], np.roll(reps[:, s % period], s // period, axis=1)
                    )

    def test_build_channel_is_the_rolled_representative(self):
        env = build_ringworld(ablation_configs("paper")["full"])
        k, g, f = env.kernel, env.gate, env.output_lens
        rep, shift = _translation_orbits(k, g, f)
        for s0 in range(0, env.n_states, 7):
            for horizon in (1, 2):
                np.testing.assert_array_equal(
                    build_channel(k, g, s0, horizon, f),
                    np.roll(build_channel(k, g, int(rep[s0]), horizon, f), shift[s0], axis=1),
                )


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

    def test_subnormal_input_mass_is_flushed(self, rng):
        # two of this channel's six rows are dominated, and their mass falls
        # below 2**-1022 during the 3149-iteration solve
        tiny = np.finfo(np.float64).tiny
        W = np.random.RandomState(51).dirichlet([0.5, 0.5], size=6)
        res = channel_capacity(W)
        p = res.input_distribution
        assert np.count_nonzero(p == 0) == 2
        assert not np.any((p > 0) & (p < tiny))
        others = [rng.dirichlet(np.ones(2), size=n) for n in (3, 7)]
        batched = channel_capacities([others[0], W, others[1]])[1]
        self.assert_same(batched, res)
        assert batched.input_distribution.tobytes() == p.tobytes()
        # the gap is still taken over every row, the flushed ones included
        upper = row_divergences_bits(W, p @ W).max()
        assert res.gap == pytest.approx(upper - mutual_information_bits(p, W), abs=1e-12)
        assert abs(res.capacity_bits - blahut_arimoto_capacity(W)) <= 2 * EMPOWERMENT_TOL

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
        assert med.solved == []

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
            channels, slot, shift = _feasible_channels(k, g, states, 2, f)
            batched = [
                channel_capacity(np.roll(channels[j], y, axis=1)).capacity_bits
                for j, y in zip(slot, shift)
            ]
            assert batched == [feasible_empowerment(k, g, s, 2, f) for s in states]
        channels, slot, shift = _feasible_channels(k, g, [], 2, f)
        assert channels == [] and len(slot) == len(shift) == 0

    def test_batched_median_matches_per_state_path(self, rng):
        k = random_kernel(rng, 5, 2)
        g = FeasibilityGate(ledger=np.array([0, 1, 2, 0, 1], float),
                            costs=np.array([0.0, 1.0]))
        f = identity_lens(5)
        med = median_empowerment_on_kernel(k, g, np.ones(5, bool), 2, f)
        direct = [feasible_empowerment(k, g, s, 2, f) for s in range(5)]
        np.testing.assert_allclose(med.values, direct, atol=1e-9)
        assert med.median_bits == pytest.approx(lower_median(direct), abs=1e-12)


class TestMedianInputs:
    """State sets, gates and lenses that do not fit the kernel are rejected."""

    @pytest.fixture(scope="class")
    def env(self):
        return build_ringworld(base_profile("paper"))

    @staticmethod
    def median(env, states, gate=None, lens=None):
        return median_empowerment_on_kernel(
            env.kernel, gate or env.gate, states, 1, lens or env.output_lens
        )

    @pytest.mark.parametrize("index", [-1, "S"])
    def test_out_of_range_index_rejected(self, env, index):
        # the stride over these 70 indices never picks the last one
        index = env.n_states if index == "S" else index
        with pytest.raises(IndexError, match="out of range"):
            self.median(env, np.array([*range(69), index]))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_mask_of_wrong_length_rejected(self, env, delta):
        with pytest.raises(ValueError, match="kernel mask"):
            self.median(env, np.ones(env.n_states + delta, dtype=bool))

    def test_repeated_indices_count_once(self, env):
        once = self.median(env, np.array([0, 50]))
        repeated = self.median(env, np.array([50, 0, 50]))
        assert repeated.selected_states == once.selected_states == [0, 50]
        assert (repeated.values, repeated.median_bits) == (once.values, once.median_bits)

    @pytest.mark.parametrize("part", ["gate ledger", "gate costs", "lens projection"])
    def test_gate_and_lens_must_fit_the_kernel(self, env, part):
        gate, lens = env.gate, env.output_lens
        if part == "gate ledger":
            gate = FeasibilityGate(ledger=[2.0], costs=gate.costs)
        elif part == "gate costs":
            gate = FeasibilityGate(ledger=gate.ledger, costs=[0.0])
        else:
            lens = Lens(name="one_entry", project=np.array([0]), n_labels=lens.n_labels)
        with pytest.raises(ValueError, match=part):
            self.median(env, np.array([0]), gate, lens)


class TestMedianMemo:
    """The orbit quotient must return what per-state solves certify."""

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
            assert max(r.gap for r in med.solved) == max(r.gap for r in direct)
            assert max(r.iterations for r in med.solved) == max(r.iterations for r in direct)
            assert 1 <= len(med.solved) <= len(direct)

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
            # y-shifted start states share one orbit representative
            rep, _ = _translation_orbits(env.kernel, env.gate, env.output_lens)
            assert 1 <= len(solves) == len(med.solved) < len(med.selected_states)
            assert len(med.solved) <= len(set(rep[med.selected_states].tolist()))
            # the median keeps its one capacity call's results, unreduced
            assert all(a is b for a, b in zip(med.solved, solves))
            # channels cut from independent dense rollouts, one per selected state
            seqs, rows = dense_sequence_rows(
                env.kernel, horizon, env.output_lens, med.selected_states
            )
            costs = np.array([env.gate.costs[list(seq)].sum() for seq in seqs])
            oracle = [
                channel_capacity(rows[costs <= env.gate.ledger[s], i], tol=tol).capacity_bits
                for i, s in enumerate(med.selected_states)
            ]
            np.testing.assert_allclose(med.values, oracle, rtol=0, atol=2 * tol)
            assert max(r.gap for r in med.solved) <= tol


class TestSubsetRule:
    def test_small_sets_taken_whole(self):
        sel, rule = select_kernel_subset(np.array([5, 3, 9]), max_states=64)
        np.testing.assert_array_equal(sel, [3, 5, 9])
        assert rule == "all_states"
        sel, rule = select_kernel_subset(np.array([], dtype=np.int64), max_states=64)
        assert len(sel) == 0 and rule == "empty_kernel"

    def test_repeated_indices_count_once(self):
        sel, rule = select_kernel_subset(np.array([5, 3, 5, 9, 3]), max_states=3)
        np.testing.assert_array_equal(sel, [3, 5, 9])
        assert rule == "all_states"

    def test_strided_selection_deterministic(self):
        idx = np.arange(100)
        sel, rule = select_kernel_subset(idx, max_states=10)
        np.testing.assert_array_equal(sel, np.arange(10) * 10)
        assert rule == "strided_10"

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
