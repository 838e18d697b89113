import numpy as np
import pytest

from agencykit.empowerment import Lens
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import (
    SCAN_CHUNK,
    ControlledKernel,
    Policy,
    _successor_lists,
    pack_rows,
    policy_successors,
    predecessor_lists,
    pull,
    validate_kernel,
)
from agencykit.viability import SafetyPredicate
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
    return pull(predecessor_lists(k, np.arange(k.n_states)), D).reshape(k.n_actions, k.n_states)[a]


def closure(k: ControlledKernel, mu: Policy) -> np.ndarray:
    """Dense (S, S) matrix of the policy-closed chain's successor lists."""
    return dense_rows(*policy_successors(k, mu), k.n_states)


class TestValidation:
    def test_identity_kernel_ok(self):
        report = validate_kernel(kernel_from_rows([[1, 0], [0, 1]]))
        assert report.ok
        assert report.violations == []

    def test_row_sum_violation_located(self):
        with pytest.raises(ValueError, match=r"row \(action 0, state 0\) sums to 1\.1$"):
            kernel_from_rows([[0.5, 0.6], [0, 1]])

    def test_negative_entry_flagged(self):
        with pytest.raises(ValueError, match=r"row \(action 0, state 0\) has a negative"):
            kernel_from_rows([[1.1, -0.1], [0, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"\(1, 3, k\) shape"):
            ControlledKernel(n_states=3, n_actions=1, probs=np.eye(2)[None])

    def test_report_names_the_rule_the_constructor_raises(self):
        # only lists that bypass the constructor can fail the report
        k = kernel_from_rows(np.eye(2))
        object.__setattr__(k, "weights", np.array([[[0.5], [1.0]]]))
        report = validate_kernel(k)
        assert not report.ok
        assert report.violations == [{"rule": "kernel row (action 0, state 0) sums to 0.5"}]


# two actions on three states, as successor lists: a valid kernel to break
VALID_SUCC = np.array([[[1, 0], [2, 1], [2, 2]], [[0, 0], [0, 2], [1, 2]]])
VALID_WEIGHTS = np.array([[[1.0, 0.0], [0.25, 0.75], [1.0, -0.0]],
                          [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]])


def build(form: str, succ, weights, n_states=3, n_actions=2) -> ControlledKernel:
    """Construct from ``succ``/``weights`` (``"lists"``) or from their dense tensor."""
    if form == "lists":
        return ControlledKernel(n_states, n_actions, succ=succ, weights=weights)
    probs = np.zeros((len(succ), len(succ[0]), n_states))
    a, s, _ = np.indices(np.shape(succ))
    np.add.at(probs, (a, s, succ), weights)
    return ControlledKernel(n_states, n_actions, probs=probs)


class TestConstructionRules:
    """Every malformed kernel raises ValueError at construction, in either input form."""

    @pytest.mark.parametrize("form", ["lists", "probs"])
    def test_valid_lists_with_negative_zero_and_padding_construct(self, form):
        k = build(form, VALID_SUCC, VALID_WEIGHTS)
        assert validate_kernel(k).ok

    @pytest.mark.parametrize("arrays", [
        {"succ": np.zeros((2, 5, 1), dtype=np.int64), "weights": np.ones((2, 5, 1))},
        {"succ": VALID_SUCC, "weights": VALID_WEIGHTS[:, :, :1]},
        {"probs": np.stack([np.eye(2)] * 2)},
    ], ids=["lists", "list_widths", "probs"])
    def test_shape_mismatch(self, arrays):
        with pytest.raises(ValueError, match=r"must share one \(2, 3, k\) shape"):
            ControlledKernel(3, 2, **arrays)

    def test_fractional_successor(self):
        # casting would silently truncate successor 0.7 to state 0
        succ = VALID_SUCC.astype(float)
        succ[1, 2, 0] = 0.7
        with pytest.raises(ValueError, match="successors must be integers, not float64"):
            build("lists", succ, VALID_WEIGHTS)

    @pytest.mark.parametrize("target", [-1, 3])
    def test_successor_out_of_range(self, target):
        # a dense tensor names successors by column, so only the lists can
        # point outside [0, S); a too-wide tensor is the shape case above
        succ = VALID_SUCC.copy()
        succ[1, 2, 0] = target
        message = r"row \(action 1, state 2\) has a successor outside \[0, 3\)"
        with pytest.raises(ValueError, match=message):
            build("lists", succ, VALID_WEIGHTS)

    @pytest.mark.parametrize("form", ["lists", "probs"])
    @pytest.mark.parametrize("value", [-0.25, np.nan, np.inf, -np.inf])
    def test_bad_weight(self, form, value):
        weights = VALID_WEIGHTS.copy()
        weights[1, 1] = [1.0 - value, value] if np.isfinite(value) else [0.5, value]
        message = r"row \(action 1, state 1\) has a negative or non-finite weight"
        with pytest.raises(ValueError, match=message):
            build(form, VALID_SUCC, weights)

    @pytest.mark.parametrize("form", ["lists", "probs"])
    @pytest.mark.parametrize("total", [0.5, 1 + 1e-9, 1 - 1e-9])
    def test_row_sum_off_one(self, form, total):
        weights = VALID_WEIGHTS.copy()
        weights[0, 2, 0] = total
        with pytest.raises(ValueError, match=r"row \(action 0, state 2\) sums to"):
            build(form, VALID_SUCC, weights)

    @pytest.mark.parametrize("form", ["lists", "probs"])
    @pytest.mark.parametrize("n_states, n_actions", [(0, 1), (2, 0), (0, 0)])
    def test_no_states_or_no_actions(self, form, n_states, n_actions):
        shape = (n_actions, n_states, n_states if form == "probs" else 1)
        arrays = ({"probs": np.zeros(shape)} if form == "probs"
                  else {"succ": np.zeros(shape, dtype=np.int64), "weights": np.zeros(shape)})
        with pytest.raises(ValueError, match=r"kernel n_(states|actions) must be an integer >= 1"):
            ControlledKernel(n_states, n_actions, **arrays)

    @pytest.mark.parametrize("form", ["lists", "probs"])
    @pytest.mark.parametrize("n_states, n_actions", [(2.0, 1), (2, np.float64(1.0)), (2, True)])
    def test_counts_that_equal_the_shape_must_still_be_integers(self, form, n_states, n_actions):
        shape = (1, 2, 2 if form == "probs" else 1)
        arrays = ({"probs": np.full(shape, 0.5)} if form == "probs"
                  else {"succ": np.zeros(shape, dtype=np.int64), "weights": np.ones(shape)})
        with pytest.raises(ValueError, match=r"kernel n_(states|actions) must be an integer >= 1, not"):
            ControlledKernel(n_states, n_actions, **arrays)

    def test_empty_tensor_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"must share one \(1, 3, k\) shape"):
            ControlledKernel(3, 1, probs=np.zeros((1, 0, 0)))

    @pytest.mark.parametrize("form", ["lists", "probs"])
    def test_row_sum_within_tolerance_constructs(self, form):
        weights = VALID_WEIGHTS.copy()
        weights[0, 2, 0] = 1 + 1e-13
        build(form, VALID_SUCC, weights)


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
        # a sub-stochastic row, which would lose rollout mass, is refused at
        # construction, so no channel can be cut from it
        with pytest.raises(ValueError, match=r"row \(action 0, state 0\) sums to 0\.9$"):
            kernel_from_rows([[0.5, 0.4], [0, 1]])


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
        # these rows do not sum to 1, so the conversion is called directly
        probs = values.reshape(n_actions, n_states, n_states)
        for got, want in zip(_successor_lists(probs), nonzero_successor_lists(probs)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape


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

    @pytest.mark.parametrize("kind, row", [("deterministic", 1), ("stochastic", [0.5, 0.5])])
    @pytest.mark.parametrize("extra", [4, -1, "s4"])
    def test_policy_over_extra_states_rejected(self, rng, kind, row, extra):
        k = random_kernel(rng, 4, 2)
        mu = Policy(kind=kind, table={**dict.fromkeys(range(4), row), extra: row, 9: row})
        with pytest.raises(ValueError, match=f"policy covers state {extra!r}, which is not in range"):
            closure(k, mu)

    def test_wrong_length_policy_row_rejected(self, rng):
        k = random_kernel(rng, 3, 2)
        table = {0: np.array([0.5, 0.5]), 1: np.array([1.0]), 2: np.array([0.0, 1.0])}
        with pytest.raises(ValueError, match="state 1 has wrong length"):
            closure(k, Policy(kind="stochastic", table=table))

    def test_unknown_kind_rejected(self):
        mu = Policy(kind="greedy", table={0: np.array([0.5, 0.5])})
        with pytest.raises(ValueError, match="unknown policy kind 'greedy'"):
            mu.action_weights(1, 2)

    # 1.0 and True equal the index 1 but are no action
    @pytest.mark.parametrize("action", [-1, 2, 0.5, 1.0, True])
    def test_deterministic_action_out_of_range_rejected(self, action):
        mu = Policy(kind="deterministic", table={0: 0, 1: action, 2: 1})
        with pytest.raises(ValueError, match=rf"action {action} at state 1 is not in range\(2\)"):
            mu.action_weights(3, 2)

    def test_numpy_integer_actions_accepted(self):
        mu = Policy(kind="deterministic", table={0: np.int64(1), 1: np.int32(0)})
        np.testing.assert_array_equal(mu.action_weights(2, 2), [[0, 1], [1, 0]])

    def test_closure_keeps_only_live_slots(self, rng):
        # a deterministic policy keeps one action block of each row, so the
        # width is the kernel's largest fan-out, not A times it
        k = random_kernel(rng, 6, 3)
        mu = Policy(kind="deterministic", table={s: s % 3 for s in range(6)})
        succ, weights = policy_successors(k, mu)
        fan_out = [(k.weights[s % 3, s] != 0).sum() for s in range(6)]
        assert succ.shape == weights.shape == (6, max(fan_out))
        assert (weights != 0).sum(axis=1).tolist() == fan_out
        # padding points back at the state, with weight 0
        pad = weights == 0
        np.testing.assert_array_equal(succ[pad], np.nonzero(pad)[0])

    def test_deterministic_policy_on_no_states(self):
        assert Policy(kind="deterministic", table={}).action_weights(0, 2).shape == (0, 2)

    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0]])
    def test_stochastic_row_with_bad_entry_rejected(self, row):
        mu = Policy(kind="stochastic", table={0: np.array([0.5, 0.5]), 1: np.array(row)})
        with pytest.raises(ValueError, match="state 1 is no distribution"):
            mu.action_weights(2, 2)

    def test_stochastic_row_off_one_rejected(self, rng):
        k = random_kernel(rng, 2, 2)
        mu = Policy(kind="stochastic", table={0: np.array([0.5, 0.5]), 1: np.array([0.5, 0.4])})
        with pytest.raises(ValueError, match=r"state 1 is no distribution: \[0\.5, 0\.4\]"):
            mu.action_weights(2, 2)
        with pytest.raises(ValueError, match=r"state 1 is no distribution: \[0\.5, 0\.4\]"):
            closure(k, mu)


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


class TestValueTypesCopyTheirInputs:
    # each constructor freezes its own copy: the caller's arrays stay
    # writable, and editing one leaves the constructed value unchanged
    CASES = {
        "kernel": (lambda a: ControlledKernel(2, 1, succ=a["succ"], weights=a["weights"]),
                   {"succ": np.array([[[1], [0]]]), "weights": np.ones((1, 2, 1))}),
        "lens": (lambda a: Lens(name="x", project=a["project"], n_labels=2),
                 {"project": np.array([0, 1])}),
        "safety": (lambda a: SafetyPredicate(safe=a["safe"]), {"safe": np.array([True, False])}),
        "gate": (lambda a: FeasibilityGate(ledger=a["ledger"], costs=a["costs"]),
                 {"ledger": np.array([1.0, 2.0]), "costs": np.array([0.0])}),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_callers_arrays_stay_writable_and_unshared(self, name):
        make, arrays = self.CASES[name]
        value = make(arrays)
        for field, array in arrays.items():
            before = getattr(value, field).copy()
            assert array.flags.writeable and not getattr(value, field).flags.writeable
            array[...] = ~array if array.dtype == bool else array + 1  # edits every entry
            np.testing.assert_array_equal(getattr(value, field), before)
