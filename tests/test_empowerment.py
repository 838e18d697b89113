import gc
import tracemalloc

import numpy as np
import pytest

from agencykit import empowerment
from agencykit.empowerment import (
    EMPOWERMENT_TOL,
    Lens,
    _batched_sequence_rows,
    _block_period,
    _feasible_channels,
    _reachable,
    build_channel,
    channel_capacities,
    channel_capacity,
    feasible_empowerment,
    lower_median,
    median_empowerment_on_kernel,
    median_empowerments,
    select_kernel_subset,
    total_variation,
)
from agencykit.environments import (
    RingWorldConfig,
    build_null_single_action,
    build_ringworld,
    build_schedule_trap,
    ring_state_index,
)
from agencykit.experiments import ABLATIONS, PAPER, holonomy_config
from agencykit.feasibility import FeasibilityGate, feasible_sequences
from agencykit.kernel import ControlledKernel, pull
from agencykit.viability import viability_kernel
from conftest import exhibit_ring_configs, random_gate, random_kernel
from oracles import (
    blahut_arimoto_capacity,
    bsc_capacity,
    dense,
    dense_sequence_rows,
    full_state_rows,
    grid_search_capacity,
    mutual_information_bits,
    reachable_states,
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

    @pytest.mark.parametrize("horizon", [True, 2.0])
    def test_horizon_must_be_an_integer(self, horizon):
        k = single_matrix_kernel(np.eye(2))
        with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
            build_channel(k, zero_gate(2, 1), 0, horizon, identity_lens(2))

    @pytest.mark.parametrize("s0, error, message", [
        (True, ValueError, "state index must be an integer, not True"),
        (1.5, ValueError, "state index must be an integer, not 1.5"),
        (-1, IndexError, "state index -1 out of range"),
        (96, IndexError, "state index 96 out of range"),
    ])
    def test_start_state_must_be_a_state_index(self, s0, error, message):
        # True would index the ledger as a bool mask, and a float not at all
        env = build_ringworld(PAPER)
        assert env.n_states == 96
        with pytest.raises(error, match=message):
            build_channel(env.kernel, env.gate, s0, 1, env.output_lens)


def with_unreachable_sources(rng, n, n_extra, n_actions) -> ControlledKernel:
    """A sparse random kernel on n states, plus n_extra states that only lead into them."""
    probs = np.zeros((n_actions, n + n_extra, n + n_extra))
    probs[:, :n, :n] = dense(random_kernel(rng, n, n_actions, max_support=2))
    probs[:, n:, :n] = dense(random_kernel(rng, n, n_actions))[:, :n_extra]
    return ControlledKernel(n_states=n + n_extra, n_actions=n_actions, probs=probs)


class TestReachableRegion:
    """Rollouts over the region their start states reach equal rollouts over all S."""

    @staticmethod
    def assert_rows_equal_full(k, f, states, horizons):
        for horizon in horizons:
            rows = _batched_sequence_rows(k, horizon, f, states)
            full = full_state_rows(k, horizon, f, states)
            assert rows.shape == full.shape
            assert rows.tobytes() == full.tobytes()

    def test_random_kernels_with_unreachable_states(self, rng):
        for _ in range(8):
            n, n_actions = rng.randint(4, 10), rng.randint(1, 4)
            k = with_unreachable_sources(rng, n, rng.randint(1, n), n_actions)
            f = Lens(name="random", project=rng.randint(0, 3, size=k.n_states), n_labels=3)
            # a repeated start state gets two equal columns
            states = rng.randint(0, n, size=4)
            assert len(_reachable(k, states, 3)) <= n < k.n_states
            self.assert_rows_equal_full(k, f, states, (1, 2, 3, 4))

    def test_rings(self):
        env = build_ringworld(holonomy_config("paper", True))
        states = np.arange(0, env.n_states, 23)
        assert len(_reachable(env.kernel, states, 2)) < env.n_states
        self.assert_rows_equal_full(env.kernel, env.output_lens, states, (1, 2, 3, 4))

    def test_nulls(self):
        for env in (build_null_single_action(), *map(build_schedule_trap, ("wrong", "right"))):
            for states in ([0], np.arange(env.n_states)):
                self.assert_rows_equal_full(env.kernel, env.output_lens, np.array(states),
                                            (1, 2, 3))

    def test_one_step_region_is_the_start_states(self, rng):
        k = random_kernel(rng, 9, 3)
        f = Lens(name="random", project=rng.randint(0, 4, size=9), n_labels=4)
        states = np.array([7, 2, 7, 4])
        np.testing.assert_array_equal(_reachable(k, states, 0), [2, 4, 7])
        self.assert_rows_equal_full(k, f, states, (1,))

    def test_empty_start_set(self, rng):
        k = random_kernel(rng, 6, 2)
        f = Lens(name="random", project=rng.randint(0, 3, size=6), n_labels=3)
        assert _reachable(k, np.array([], dtype=np.int64), 2).size == 0
        for horizon in (1, 2, 3):
            assert _batched_sequence_rows(k, horizon, f, []).shape == (2**horizon, 0, 3)
        self.assert_rows_equal_full(k, f, np.array([], dtype=np.int64), (1, 2, 3))

    def test_reachable_matches_dense_support(self, rng):
        env = build_ringworld(holonomy_config("paper", False))
        cases = [(env.kernel, np.array([0, 50, 191]))]
        for _ in range(10):
            n = rng.randint(2, 10)
            k = with_unreachable_sources(rng, n, rng.randint(1, n + 1), rng.randint(1, 4))
            cases.append((k, rng.randint(0, k.n_states, size=rng.randint(1, 4))))
        for k, states in cases:
            for steps in range(5):
                np.testing.assert_array_equal(_reachable(k, states, steps),
                                              reachable_states(k, states, steps))


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
        # a row of mass 0.5 would give a one-row channel that capacity alone
        # reports as zero; the kernel is refused at construction, so no
        # rollout path ever sees it, in either input form
        with pytest.raises(ValueError, match=r"row \(action 0, state 0\) sums to 0\.5$"):
            ControlledKernel(2, 1, probs=[[[0.5, 0], [0, 1]]])
        with pytest.raises(ValueError, match=r"row \(action 0, state 0\) sums to 0\.5$"):
            ControlledKernel(2, 1, succ=[[[0], [1]]], weights=[[[0.5], [1.0]]])


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

    @pytest.mark.parametrize("W, row", [
        ([[np.nan, 1.0], [0.0, 1.0]], 0),
        ([[1.5, -0.5], [0.5, 0.5], [0.0, 1.0]], 0),
        ([[0.5, 0.5], [np.inf, 0.0]], 1),
        ([[0.5, 0.5], [-np.inf, np.inf]], 1),
        ([[0.5, 0.5], [0.5, 0.5], [1.0 + 1e-12, -1e-12]], 2),
        ([[np.nan, 1.0]], 0),
        ([[0.5, 0.4]], 0),
    ], ids=["nan", "negative", "inf", "inf_minus_inf", "negative_within_sum_tolerance",
            "one_row_nan", "one_row_short"])
    def test_every_row_must_be_a_distribution(self, W, row):
        # one-row channels are checked too, before their zero-capacity shortcut
        with pytest.raises(ValueError, match=f"channel row {row} (sums to|has an entry)"):
            channel_capacity(W)
        with pytest.raises(ValueError, match=f"channel row {row} (sums to|has an entry)"):
            channel_capacities([np.eye(2), W])

    def test_negative_zero_entries_are_accepted(self):
        res = channel_capacity([[-0.0, 1.0], [1.0, -0.0]])
        assert res.capacity_bits == pytest.approx(1.0, abs=1e-9)


class TestLens:
    @pytest.mark.parametrize("project", [[0.7, 1.2], [0.0, 1.0], [True, False], [], [[0, 1]]],
                             ids=["fractional", "integral_floats", "bools", "empty_list", "2d"])
    def test_projection_must_be_1d_integers(self, project):
        with pytest.raises(ValueError, match="lens projection must be a 1-d integer label array"):
            Lens(name="bad", project=project, n_labels=2)

    @pytest.mark.parametrize("n_labels", [2.5, 2.0, True, 0, -1, "2"])
    def test_label_count_must_be_an_integer_of_at_least_one(self, n_labels):
        with pytest.raises(ValueError, match="lens n_labels must be an integer >= 1"):
            Lens(name="bad", project=[0, 1], n_labels=n_labels)

    def test_numpy_integers_are_accepted_and_labels_range_checked(self):
        lens = Lens(name="small", project=np.array([1, 0], dtype=np.uint8), n_labels=np.int64(2))
        assert lens.project.dtype == np.int64 and not lens.project.flags.writeable
        np.testing.assert_array_equal(lens.project, [1, 0])
        for project in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="lens labels out of range"):
                Lens(name="bad", project=project, n_labels=2)


def median_period(k, gate, f) -> int:
    """The state shift ``median_empowerments`` takes for one problem."""
    return _block_period(k.succ, k.weights, f.project, f.n_labels, gate.ledger)


def mirrored_lens(f: Lens) -> Lens:
    """``f`` with its labels negated mod ``n_labels``: shifting by half the labels raises them."""
    return Lens(name="mirrored", project=(-f.project) % f.n_labels, n_labels=f.n_labels)


class TestTranslationOrbits:
    def test_every_y_shift_maps_to_one_representative(self):
        cfg = holonomy_config("paper", True)
        env = build_ringworld(cfg)
        period = env.n_states // cfg.ring_size
        assert median_period(env.kernel, env.gate, env.output_lens) == period
        rep = np.arange(env.n_states) % period
        for u, phi, r in [(0, 0, 0), (1, 1, 2), (0, 1, 1)]:
            orbit = [ring_state_index(cfg, y, u, phi, r) for y in range(cfg.ring_size)]
            assert set(rep[orbit].tolist()) == {orbit[0]}
            # ring position y is the representative moved by y periods
            assert orbit == [orbit[0] + y * period for y in range(cfg.ring_size)]

    def test_detected_on_every_exhibit_ring(self):
        for cfg in exhibit_ring_configs():
            env = build_ringworld(cfg)
            period = env.n_states // cfg.ring_size
            assert median_period(env.kernel, env.gate, env.output_lens) == period

    def test_one_ulp_weight_bump_breaks_the_symmetry(self):
        cfg = holonomy_config("paper", True)
        env = build_ringworld(cfg)
        k = env.kernel
        weights = k.weights.copy()
        s = ring_state_index(cfg, 5, 0, 1, 2)
        weights[1, s, 0] = np.nextafter(weights[1, s, 0], 1.0)
        bumped = ControlledKernel(k.n_states, k.n_actions, succ=k.succ, weights=weights)
        assert median_period(bumped, env.gate, env.output_lens) == env.n_states

    @pytest.mark.parametrize("block", ["first", "last"])
    @pytest.mark.parametrize("part", ["weight", "successor", "ledger", "label"])
    def test_edit_in_an_end_block_breaks_the_symmetry(self, part, block):
        cfg = holonomy_config("paper", True)
        env = build_ringworld(cfg)
        k, gate, lens = env.kernel, env.gate, env.output_lens
        y = 0 if block == "first" else cfg.ring_size - 1
        s = ring_state_index(cfg, y, 1, 0, 1)
        assert s // (env.n_states // cfg.ring_size) == y
        assert median_period(k, gate, lens) == env.n_states // cfg.ring_size
        succ, weights = k.succ.copy(), k.weights.copy()
        if part == "weight":
            weights[1, s, 0] = np.nextafter(weights[1, s, 0], 2.0)
        elif part == "successor":
            succ[0, s, 0] = (succ[0, s, 0] + 1) % env.n_states
        elif part == "ledger":
            ledger = gate.ledger.copy()
            ledger[s] += 1
            gate = FeasibilityGate(ledger=ledger, costs=gate.costs)
        else:
            project = lens.project.copy()
            project[s] = (project[s] + 1) % lens.n_labels
            lens = Lens(name="edited", project=project, n_labels=lens.n_labels)
        k = ControlledKernel(k.n_states, k.n_actions, succ=succ, weights=weights)
        assert median_period(k, gate, lens) == env.n_states

    def test_indivisible_label_count_gives_identity(self):
        env = build_ringworld(holonomy_config("paper", True))
        y = env.output_lens.project
        assert np.gcd(env.n_states, 5) == 1
        lens = Lens(name="y_mod_5", project=y % 5, n_labels=5)
        assert median_period(env.kernel, env.gate, lens) == env.n_states

    def test_smallest_shift_passing_every_check(self):
        # a 12-cycle with labels s // 2 maps onto itself under a shift of 2
        # (6 blocks); a per-state array of period 4 leaves 3 blocks
        k = single_matrix_kernel(np.roll(np.eye(12), 1, axis=1))
        labels = np.arange(12) // 2
        assert _block_period(k.succ, k.weights, labels, 6) == 2
        assert _block_period(k.succ, k.weights, labels, 6, np.arange(12) % 4 == 0) == 4
        assert _block_period(k.succ, k.weights, labels, 6, np.arange(12) == 0) == 12
        # labels that repeat instead of rising by 6 / B admit no shift
        assert _block_period(k.succ, k.weights, np.arange(12) % 6, 6) == 12

    def test_not_detected_without_the_symmetry(self, rng):
        for _ in range(5):
            n = rng.randint(2, 10)
            k = random_kernel(rng, n, rng.randint(1, 4))
            assert median_period(k, zero_gate(n, k.n_actions), identity_lens(n)) == n
        for model in ("wrong", "right"):
            trap = build_schedule_trap(model)
            assert median_period(trap.kernel, trap.gate, trap.output_lens) == trap.n_states
        env = build_ringworld(holonomy_config("paper", True))
        y = env.output_lens.project
        uneven = FeasibilityGate(ledger=env.gate.ledger + (y == 3), costs=env.gate.costs)
        assert median_period(env.kernel, uneven, env.output_lens) == env.n_states
        # y -> -y is raised by 8 of 16 labels only by a shift of half the ring
        mirrored = mirrored_lens(env.output_lens)
        assert median_period(env.kernel, env.gate, mirrored) == env.n_states // 2

    def test_shifted_rollouts_are_rolled_bit_for_bit(self):
        # H = 4 and 5 on the holonomy ring walk breadth-first below depth 2;
        # the mirrored lens shifts by half the ring and raises labels by 8
        for cfg, horizons, mirrored in (
            (holonomy_config("paper", False), (1, 2, 3, 4, 5), False),
            (holonomy_config("paper", False), (1, 2, 3, 4, 5), True),
            (ABLATIONS["learn_on"], (1, 2, 3), False),
        ):
            env = build_ringworld(cfg)
            k = env.kernel
            f = mirrored_lens(env.output_lens) if mirrored else env.output_lens
            period = median_period(k, env.gate, f)
            step = f.n_labels * period // env.n_states
            states = np.arange(env.n_states)
            for horizon in horizons:
                rows = _batched_sequence_rows(k, horizon, f, states)
                reps = _batched_sequence_rows(k, horizon, f, np.arange(period))
                for s in states:
                    np.testing.assert_array_equal(
                        rows[:, s], np.roll(reps[:, s % period], s // period * step, axis=1)
                    )

    def test_build_channel_is_the_rolled_representative(self):
        # two independent rollouts: one from s0, one from its representative
        env = build_ringworld(ABLATIONS["full"])
        k, g, f = env.kernel, env.gate, env.output_lens
        period = median_period(k, g, f)
        assert period == env.n_states // f.n_labels
        for s0 in range(0, env.n_states, 7):
            for horizon in (1, 2):
                np.testing.assert_array_equal(
                    build_channel(k, g, s0, horizon, f),
                    np.roll(build_channel(k, g, s0 % period, horizon, f), s0 // period, axis=1),
                )

    def test_build_channel_never_reads_the_orbits(self, monkeypatch):
        env = build_ringworld(holonomy_config("paper", True))
        k, g, f = env.kernel, env.gate, env.output_lens
        s0 = env.n_states - 1  # the last ring position, no representative
        channel = build_channel(k, g, s0, 2, f)

        def refuse(*args):
            raise AssertionError("build_channel searched a translation")

        monkeypatch.setattr(empowerment, "_block_period", refuse)
        assert build_channel(k, g, s0, 2, f).tobytes() == channel.tobytes()


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

    def test_lower_bound_nondecreasing_and_gap_met(self, rng, monkeypatch):
        # the bound returned after t iterations, for every t up to 40 and then
        # on a geometric grid up to the certified stop
        cap = empowerment.BA_MAX_ITER
        for _ in range(10):
            W = rng.dirichlet(np.ones(4), size=4)
            res = channel_capacity(W, tol=1e-9)
            steps = np.union1d(np.arange(1, 41), np.geomspace(41, res.iterations, 12).astype(int))
            trace = []
            for t in steps[steps <= res.iterations]:
                monkeypatch.setattr(empowerment, "BA_MAX_ITER", int(t))
                trace.append(channel_capacity(W, tol=1e-9).capacity_bits)
            monkeypatch.setattr(empowerment, "BA_MAX_ITER", cap)
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

    def test_max_iter_stop_matches_single_solves(self, rng, monkeypatch):
        channels = self.mixed_channels(rng)
        monkeypatch.setattr(empowerment, "BA_MAX_ITER", 7)
        batched = channel_capacities(channels, tol=1e-12)
        for w, res in zip(channels, batched):
            self.assert_same(res, channel_capacity(w, tol=1e-12))
            assert res.iterations <= 7
            assert res.iterations == 7 or res.gap <= 1e-12

    def test_channels_reaching_few_labels_solve_alike_on_both_paths(self, rng):
        # q skips the unreached labels only when a call's rows reach at most half of them
        def reaching(n_reached, n_rows):
            W = np.zeros((n_rows, 256))
            W[:, rng.choice(256, size=n_reached, replace=False)] = rng.dirichlet(
                np.ones(n_reached), size=n_rows)
            return W

        few, other_few, every = reaching(9, 12), reaching(9, 5), reaching(256, 6)
        alone = channel_capacity(few)
        # with ``every`` the call reaches all 256 labels; with ``other_few`` 18
        for batch, at in (([every, few], 1), ([few, every], 0), ([other_few, few], 1)):
            res = channel_capacities(batch)
            self.assert_same(res[at], alone)
            assert res[at].input_distribution.tobytes() == alone.input_distribution.tobytes()
            self.assert_same(res[1 - at], channel_capacity(batch[1 - at]))

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
        with pytest.raises(ValueError, match="2-d"):
            channel_capacities([np.array([0.5, 0.5])])

    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": True}, {"tol": "1e-9"},
    ])
    def test_unusable_tol_or_max_iter_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            channel_capacities([np.array([[0.9, 0.1], [0.1, 0.9]])], **kwargs)


class TestFeasibleEmpowerment:
    def test_no_feasible_sequences_zero(self, rng):
        k = random_kernel(rng, 3, 2)
        g = FeasibilityGate(ledger=np.zeros(3), costs=np.ones(2))
        assert feasible_empowerment(k, g, 0, 2, identity_lens(3)) == 0.0

    def test_single_state_kernel_median_equals_state_value(self, rng):
        k = random_kernel(rng, 4, 2)
        g = zero_gate(4, 2)
        f = identity_lens(4)
        med = median_empowerment_on_kernel(k, g, np.arange(4) == 2, 2, f)
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

    @pytest.mark.parametrize("horizon", [0, True, 2.0])
    def test_empty_kernel_set_still_checks_the_horizon(self, rng, horizon):
        # an empty set cuts nothing, so the check ``sequence_costs`` makes is made apart
        with pytest.raises(ValueError, match="horizon"):
            median_empowerment_on_kernel(random_kernel(rng, 4, 2), zero_gate(4, 2),
                                         np.zeros(4, bool), horizon, identity_lens(4))

    def test_empty_kernel_set_finds_no_period_and_cuts_nothing(self, rng, monkeypatch):
        for name in ("_block_period", "_feasible_channels"):
            monkeypatch.setattr(empowerment, name,
                                lambda *args, name=name: pytest.fail(f"{name} called"))
        med = median_empowerment_on_kernel(random_kernel(rng, 4, 2), zero_gate(4, 2),
                                           np.zeros(4, bool), 2, identity_lens(4))
        assert (med.median_bits, med.values, med.solved) == (0.0, [], [])

    def test_values_equal_per_state_calls_exactly(self, rng):
        for _ in range(5):
            k = random_kernel(rng, 6, 3)
            g = random_gate(rng, 6, 3)
            f = identity_lens(6)
            states = [0, 2, 3, 5]
            channels = _feasible_channels(k, g, states, 2, f)
            batched = [channel_capacity(w).capacity_bits for w in channels]
            assert batched == [feasible_empowerment(k, g, s, 2, f) for s in states]
        assert _feasible_channels(k, g, [], 2, f) == []

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
        return build_ringworld(PAPER)

    @staticmethod
    def median(env, states, gate=None, lens=None):
        return median_empowerment_on_kernel(
            env.kernel, gate or env.gate, states, 1, lens or env.output_lens
        )

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_mask_of_wrong_length_rejected(self, env, delta):
        with pytest.raises(ValueError, match="kernel set has .* bool mask"):
            self.median(env, np.ones(env.n_states + delta, dtype=bool))

    @pytest.mark.parametrize("max_states", [0, -3])
    def test_max_states_below_one_rejected(self, env, max_states):
        with pytest.raises(ValueError, match=f"max_states must be an integer >= 1, not {max_states}"):
            median_empowerment_on_kernel(env.kernel, env.gate, np.ones(env.n_states, dtype=bool),
                                         1, env.output_lens, max_states=max_states)

    @pytest.mark.parametrize("part", ["gate ledger", "gate costs", "lens projection"])
    def test_gate_and_lens_must_fit_the_kernel(self, env, part):
        gate, lens = env.gate, env.output_lens
        if part == "gate ledger":
            gate = FeasibilityGate(ledger=[2.0], costs=gate.costs)
        elif part == "gate costs":
            gate = FeasibilityGate(ledger=gate.ledger, costs=[0.0])
        else:
            lens = Lens(name="one_entry", project=np.array([0]), n_labels=lens.n_labels)
        # an empty state set is checked too, though it rolls nothing out
        for states in (np.arange(env.n_states) == 0, np.zeros(env.n_states, dtype=bool)):
            with pytest.raises(ValueError, match=part):
                self.median(env, states, gate, lens)

    @pytest.mark.parametrize("states, named", [
        (np.array([[0, 1], [2, 3]]), r"shape \(2, 2\) and dtype int64"),
        ([0.0, 1.5], r"shape \(2,\) and dtype float64"),
        (np.array([], dtype=np.float64), r"shape \(0,\) and dtype float64"),
        (np.array([0, 50]), r"shape \(2,\) and dtype int64"),
    ], ids=["2d_indices", "float_indices", "empty_floats", "index_list"])
    def test_kernel_set_is_a_mask_or_1d_indices(self, env, states, named):
        # only a mask: index arrays, 1-d ones included, are rejected
        expected = rf"kernel set has {named}, not a \({env.n_states},\) bool mask"
        with pytest.raises(ValueError, match=expected):
            self.median(env, states)


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

    @pytest.mark.parametrize("protocol_on, lens", [(True, "y"), (False, "y"), (True, "mirrored")],
                             ids=["True", "False", "mirrored"])
    def test_holonomy_ring_matches_unmerged_channels(self, protocol_on, lens, monkeypatch):
        tol = 1e-9
        env = build_ringworld(holonomy_config("paper", protocol_on))
        f = env.output_lens if lens == "y" else mirrored_lens(env.output_lens)
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
                env.kernel, env.gate, vres.kernel, horizon, f, max_states=16, tol=tol,
            )
            # y-shifted start states share one orbit representative
            period = median_period(env.kernel, env.gate, f)
            assert 1 <= len(solves) == len(med.solved) < len(med.selected_states)
            assert len(med.solved) == len(set(np.array(med.selected_states) % period))
            # the median keeps its one capacity call's results, unreduced
            assert all(a is b for a, b in zip(med.solved, solves))
            # channels cut from independent dense rollouts, one per selected state
            seqs, rows = dense_sequence_rows(env.kernel, horizon, f, med.selected_states)
            costs = np.array([env.gate.costs[list(seq)].sum() for seq in seqs])
            oracle = [
                channel_capacity(rows[costs <= env.gate.ledger[s], i], tol=tol).capacity_bits
                for i, s in enumerate(med.selected_states)
            ]
            np.testing.assert_allclose(med.values, oracle, rtol=0, atol=2 * tol)
            assert max(r.gap for r in med.solved) <= tol


class TestMedianEmpowerments:
    """A batch of medians must return what each median's own call returns."""

    @staticmethod
    def mixed_problems(rng):
        """Three-label problems: random kernels and a ring, horizons 1-3, dense and sparse masks."""
        def mod3(n):
            return Lens(name="mod3", project=np.arange(n) % 3, n_labels=3)

        ring = build_ringworld(RingWorldConfig(ring_size=3, p_slip=0.2, cost_left=0, cost_right=0))
        ring_viable = viability_kernel(ring.kernel, ring.gate, ring.safety_ledger_only).kernel
        problems = []
        for n, horizon, free in ((6, 1, False), (9, 2, True), (6, 3, False)):
            k = random_kernel(rng, n, 2)
            g = zero_gate(n, 2) if free else random_gate(rng, n, 2)
            problems.append((k, g, rng.random(n) < 0.7, horizon, mod3(n)))
            problems.append((k, g, np.isin(np.arange(n), rng.randint(0, n, size=4)), horizon,
                             mod3(n)))
        problems.append((k, g, np.zeros(6, bool), 2, mod3(6)))
        problems.append((ring.kernel, ring.gate, ring_viable, 2, ring.output_lens))
        problems.append((ring.kernel, ring.gate, ring_viable, 3, ring.output_lens))
        return problems

    @staticmethod
    def assert_same(a, b):
        assert (a.median_bits, a.values, a.subset_rule, a.selected_states) == (
            b.median_bits, b.values, b.subset_rule, b.selected_states)
        assert len(a.solved) == len(b.solved)
        for x, y in zip(a.solved, b.solved):
            assert (x.capacity_bits, x.gap, x.iterations) == (y.capacity_bits, y.gap, y.iterations)
            assert x.input_distribution.tobytes() == y.input_distribution.tobytes()

    @pytest.mark.parametrize("max_states", [4, 64])
    def test_batch_equals_single_medians_in_both_orders(self, rng, max_states):
        problems = self.mixed_problems(rng)
        single = [median_empowerment_on_kernel(*p, max_states=max_states) for p in problems]
        assert any(m.subset_rule == "empty_kernel" for m in single)
        assert len({len(m.solved) for m in single}) > 1
        forward = median_empowerments(problems, max_states=max_states)
        backward = median_empowerments(problems[::-1], max_states=max_states)
        assert len(forward) == len(backward) == len(problems)
        for a, b, c in zip(single, forward, backward[::-1]):
            self.assert_same(b, a)
            self.assert_same(c, a)

    def test_generator_is_cut_one_problem_at_a_time(self, rng, monkeypatch):
        problems = self.mixed_problems(rng)
        validated = []
        real_check = empowerment.check_fits
        monkeypatch.setattr(empowerment, "check_fits",
                            lambda *args, **kw: validated.append(1) or real_check(*args, **kw))

        def drawn():
            for i, problem in enumerate(problems):
                # every earlier problem, empty ones included, is validated before this one is drawn
                assert len(validated) == i
                yield problem

        meds = median_empowerments(drawn())
        assert len(validated) == len(problems)
        for med, problem in zip(meds, problems):
            self.assert_same(med, median_empowerment_on_kernel(*problem))

    def test_gates_with_other_orbits_get_their_own_setup(self):
        env = build_ringworld(holonomy_config("paper", True))
        k, f, states = env.kernel, env.output_lens, np.ones(env.n_states, dtype=bool)
        y = f.project
        uneven = FeasibilityGate(ledger=env.gate.ledger + (y == 3), costs=env.gate.costs)
        assert median_period(k, env.gate, f) == env.n_states // f.n_labels
        assert median_period(k, uneven, f) == env.n_states
        # one kernel and lens, gates alternating: each problem computes its own orbits
        problems = [(k, gate, states, 2, f) for gate in (env.gate, uneven, env.gate, uneven)]
        for med, problem in zip(median_empowerments(problems), problems):
            self.assert_same(med, median_empowerment_on_kernel(*problem))

    def test_fresh_kernel_per_problem_never_reads_a_dropped_setup(self):
        # each kernel is built as it is drawn and dropped after its cut, so
        # CPython may give a later kernel a dropped one's id
        g, f, states = zero_gate(6, 2), identity_lens(6), np.ones(6, dtype=bool)
        seeds = range(8)

        def kernel(seed):
            return random_kernel(np.random.RandomState(seed), 6, 2)

        meds = median_empowerments((kernel(seed), g, states, 2, f) for seed in seeds)
        for med, seed in zip(meds, seeds):
            self.assert_same(med, median_empowerment_on_kernel(kernel(seed), g, states, 2, f))

    def test_lenses_must_share_a_label_count(self, rng):
        k, g = random_kernel(rng, 6, 2), zero_gate(6, 2)
        states = np.arange(6) < 2
        problems = [(k, g, states, 2, identity_lens(6)),
                    (k, g, states, 2, Lens(name="mod3", project=np.arange(6) % 3, n_labels=3))]
        with pytest.raises(ValueError, match="labels"):
            median_empowerments(problems)

    def test_empty_batch(self):
        assert median_empowerments([]) == []


class TestSubsetRule:
    def test_small_sets_taken_whole(self):
        sel, rule = select_kernel_subset(np.isin(np.arange(12), [5, 3, 9]), max_states=3)
        np.testing.assert_array_equal(sel, [3, 5, 9])
        assert rule == "all_states"
        sel, rule = select_kernel_subset(np.zeros(12, dtype=bool), max_states=64)
        assert len(sel) == 0 and rule == "empty_kernel"

    def test_strided_selection_deterministic(self):
        mask = np.arange(200) % 2 == 1
        sel, rule = select_kernel_subset(mask, max_states=10)
        np.testing.assert_array_equal(sel, np.arange(10) * 20 + 1)
        assert rule == "strided_10"

    @pytest.mark.parametrize("max_states", [0, -3])
    def test_max_states_below_one_rejected(self, max_states):
        with pytest.raises(ValueError, match="max_states must be an integer >= 1"):
            select_kernel_subset(np.ones(5, dtype=bool), max_states)

    @pytest.mark.parametrize("mask", [np.full(5, 0.5), np.full(5, 2), np.ones((1, 5), dtype=bool)],
                             ids=["fractions", "integers", "2d"])
    def test_mask_must_be_1d_bools(self, mask):
        # numbers would be coerced to True and select every state
        expected = rf"state mask has shape .*, not a \({mask.size},\) bool mask"
        with pytest.raises(ValueError, match=expected):
            select_kernel_subset(mask, 2)

    @pytest.mark.parametrize("max_states", [True, 2.5, 2.0])
    def test_max_states_must_be_an_integer(self, max_states):
        # True would name the rule "strided_True"; a float would index with floats
        with pytest.raises(ValueError, match="max_states must be an integer >= 1"):
            select_kernel_subset(np.ones(5, dtype=bool), max_states)

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
