import numpy as np
import pytest

from agencykit.empowerment import Lens, build_channel
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import (
    SCAN_CHUNK,
    ControlledKernel,
    Policy,
    pack_rows,
    policy_successors,
    predecessor_lists,
    pull,
    validate_kernel,
)
from conftest import random_kernel
from oracles import dense, dense_rows, successor_support


def kernel_from_rows(rows) -> ControlledKernel:
    probs = np.asarray(rows, dtype=np.float64)
    if probs.ndim == 2:
        probs = probs[None, :, :]
    return ControlledKernel(n_states=probs.shape[1], n_actions=probs.shape[0], probs=probs)


def step(k: ControlledKernel, d, a: int) -> np.ndarray:
    """Distribution ``d`` one step on under action ``a``, by the engine's ``pull``."""
    D = np.asarray(d, dtype=np.float64)[:, None]
    return pull(predecessor_lists(k), D).reshape(k.n_actions, k.n_states)[a]


def closure(k: ControlledKernel, mu: Policy) -> np.ndarray:
    """Dense (S, S) matrix of the policy-closed chain's successor lists."""
    return dense_rows(*policy_successors(k, mu), k.n_states)


class TestValidation:
    def test_identity_kernel_ok(self):
        report = validate_kernel(kernel_from_rows([[1, 0], [0, 1]]))
        assert report.ok
        assert report.violations == []

    def test_row_sum_violation_located(self):
        report = validate_kernel(kernel_from_rows([[0.5, 0.6], [0, 1]]))
        assert not report.ok
        v = report.violations[0]
        assert v["rule"] == "row sum"
        assert (v["action"], v["state"]) == (0, 0)
        assert v["row_sum"] == pytest.approx(1.1)

    def test_negative_entry_flagged(self):
        report = validate_kernel(kernel_from_rows([[1.1, -0.1], [0, 1]]))
        assert not report.ok
        rules = {v["rule"] for v in report.violations}
        assert "negative probability" in rules

    def test_shape_mismatch(self):
        k = ControlledKernel(n_states=3, n_actions=1, probs=np.eye(2)[None])
        report = validate_kernel(k)
        assert not report.ok
        assert report.violations[0]["rule"] == "shape"


class TestStepDistribution:
    def test_identity_fixes_any_distribution(self, rng):
        k = kernel_from_rows(np.eye(4))
        d = rng.dirichlet(np.ones(4))
        np.testing.assert_allclose(step(k, d, 0), d)

    def test_deterministic_move(self):
        k = kernel_from_rows([[0, 1], [0, 1]])
        np.testing.assert_array_equal(step(k, [1.0, 0.0], 0), [0.0, 1.0])

    def test_hand_matrix_product(self):
        # [0.5, 0.5] @ [[0.5, 0.5], [0.5, 0.5]] = [0.5, 0.5]
        k = kernel_from_rows([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(step(k, [0.5, 0.5], 0), [0.5, 0.5])

    def test_action_out_of_range(self):
        k = kernel_from_rows(np.eye(2))
        with pytest.raises(IndexError):
            step(k, [1.0, 0.0], 1)

    def test_rejects_invalid_distribution(self):
        # a rollout that loses mass through a sub-stochastic row is rejected
        k = kernel_from_rows([[0.5, 0.4], [0, 1]])
        lens = Lens(name="identity", project=np.arange(2), n_labels=2)
        gate = FeasibilityGate(ledger=np.zeros(2), costs=np.zeros(1))
        with pytest.raises(ValueError, match="mass"):
            build_channel(k, gate, 0, 1, lens)


def nonzero_successor_lists(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense conversion by a 3-d ``np.nonzero``, as an independent reference."""
    n_actions, n_states, _ = probs.shape
    a, s, t = np.nonzero(probs)
    succ, weights = pack_rows(
        a * n_states + s, t, probs[a, s, t], np.tile(np.arange(n_states), n_actions)
    )
    return succ.reshape(n_actions, n_states, -1), weights.reshape(n_actions, n_states, -1)


class TestDenseConversion:
    def assert_matches_nonzero(self, probs):
        k = ControlledKernel(n_states=probs.shape[1], n_actions=probs.shape[0], probs=probs)
        succ, weights = nonzero_successor_lists(np.asarray(probs, dtype=np.float64))
        assert k.succ.tobytes() == succ.tobytes() and k.succ.shape == succ.shape
        assert k.weights.tobytes() == weights.tobytes()

    def test_negative_zero_and_one_entry_rows(self):
        probs = np.array([
            [[-0.0, 1.0, 0.0], [0.25, -0.0, 0.75], [0.0, 0.0, 1.0]],
            [[1.0, -0.0, -0.0], [0.5, 0.25, 0.25], [-0.0, 1.0, 0.0]],
        ])
        self.assert_matches_nonzero(probs)
        k = ControlledKernel(n_states=3, n_actions=2, probs=probs)
        assert k.weights[0, 0].tolist() == [1.0, 0.0, 0.0]
        assert k.succ[0, 0].tolist() == [1, 0, 0]
        assert not np.signbit(k.weights).any()

    def test_random_kernels(self, rng):
        for n_states, n_actions in [(1, 1), (5, 2), (17, 3)]:
            probs = dense(random_kernel(rng, n_states, n_actions))
            self.assert_matches_nonzero(probs)
            # a non-contiguous view converts like its contiguous copy
            self.assert_matches_nonzero(np.asfortranarray(probs))

    def test_entries_on_scan_chunk_edges(self, rng):
        # 2 * 300**2 = 180,000 entries: two full scan chunks and a partial one
        n_actions, n_states = 2, 300
        size = n_actions * n_states**2
        values = np.where(rng.rand(size) < 1e-3, rng.rand(size), 0.0)
        starts = np.arange(0, size, SCAN_CHUNK)
        ends = np.minimum(starts + SCAN_CHUNK, size) - 1
        assert size % SCAN_CHUNK and len(starts) == 3
        values[np.concatenate([starts + 1, ends - 1, rng.randint(0, size, 50)])] = -0.0
        values[np.concatenate([starts, ends])] = 0.5
        probs = values.reshape(n_actions, n_states, n_states)
        self.assert_matches_nonzero(probs)


class TestSuccessorSupport:
    def test_deterministic_move(self):
        k = kernel_from_rows([[0, 1], [0, 1]])
        assert successor_support(k, 0, 0) == {1}

    def test_partial_support(self):
        k = kernel_from_rows([[0.9, 0.1, 0.0], [1, 0, 0], [0, 0, 1]])
        assert successor_support(k, 0, 0) == {0, 1}

    def test_default_support_is_exact(self):
        k = kernel_from_rows([[1 - 1e-15, 1e-15, 0], [1, 0, 0], [0, 0, 1]])
        assert successor_support(k, 0, 0) == {0, 1}
        probs = dense(k)
        for s in range(3):
            assert successor_support(k, s, 0) == set(np.flatnonzero(probs[0, s] > 0).tolist())

    def test_index_out_of_range(self):
        k = kernel_from_rows(np.eye(2))
        with pytest.raises(IndexError):
            successor_support(k, 2, 0)


class TestPolicyClosure:
    def test_constant_policy_selects_matrix(self, rng):
        k = random_kernel(rng, 5, 3)
        mu = Policy(kind="deterministic", table={s: 0 for s in range(5)})
        np.testing.assert_array_equal(closure(k, mu), dense(k)[0])

    def test_uniform_mix_identity_and_swap(self):
        swap = np.array([[0, 1], [1, 0]], dtype=float)
        k = ControlledKernel(n_states=2, n_actions=2,
                             probs=np.stack([np.eye(2), swap]))
        mu = Policy(kind="stochastic", table={s: np.array([0.5, 0.5]) for s in range(2)})
        np.testing.assert_allclose(closure(k, mu), np.full((2, 2), 0.5))

    def test_single_action_kernel(self, rng):
        k = random_kernel(rng, 4, 1)
        mu = Policy(kind="deterministic", table={s: 0 for s in range(4)})
        np.testing.assert_array_equal(closure(k, mu), dense(k)[0])

    def test_partial_policy_rejected(self, rng):
        k = random_kernel(rng, 4, 2)
        mu = Policy(kind="deterministic", table={0: 0, 1: 1})
        with pytest.raises(ValueError):
            closure(k, mu)

    def test_wrong_length_policy_row_rejected(self, rng):
        k = random_kernel(rng, 3, 2)
        table = {0: np.array([0.5, 0.5]), 1: np.array([1.0]), 2: np.array([0.0, 1.0])}
        with pytest.raises(ValueError, match="state 1 has wrong length"):
            closure(k, Policy(kind="stochastic", table=table))


class TestProperties:
    def test_step_preserves_row_stochasticity(self, rng):
        for _ in range(25):
            n, m = rng.randint(2, 9), rng.randint(1, 4)
            k = random_kernel(rng, n, m)
            assert validate_kernel(k).ok
            d = rng.dirichlet(np.ones(n))
            for a in range(m):
                out = step(k, d, a)
                assert abs(out.sum() - 1.0) <= 1e-12
                assert np.all(out >= -1e-15)

    def test_closure_preserves_row_stochasticity(self, rng):
        for _ in range(25):
            n, m = rng.randint(2, 9), rng.randint(1, 4)
            k = random_kernel(rng, n, m)
            mu = Policy(kind="stochastic",
                        table={s: rng.dirichlet(np.ones(m)) for s in range(n)})
            T = closure(k, mu)
            np.testing.assert_allclose(T.sum(axis=1), np.ones(n), atol=1e-12)

    def test_step_linear_in_distribution(self, rng):
        for _ in range(10):
            k = random_kernel(rng, 6, 2)
            d1, d2 = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
            alpha = rng.random()
            mix = alpha * d1 + (1 - alpha) * d2
            lhs = step(k, mix, 0)
            rhs = alpha * step(k, d1, 0) + (1 - alpha) * step(k, d2, 0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
