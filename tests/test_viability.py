import numpy as np
import pytest

from agencykit.environments import RingWorldConfig, build_ringworld
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import ControlledKernel
from agencykit.viability import SafetyPredicate, viability_kernel, viability_step
from conftest import random_gate, random_kernel, random_safety
from oracles import brute_force_greatest_fixpoint


def chain_kernel(rows) -> ControlledKernel:
    probs = np.asarray(rows, dtype=np.float64)[None, :, :]
    return ControlledKernel(n_states=probs.shape[1], n_actions=1, probs=probs)


def free_gate(n_states, n_actions=1) -> FeasibilityGate:
    return FeasibilityGate(ledger=np.zeros(n_states), costs=np.zeros(n_actions))


def all_safe(n) -> SafetyPredicate:
    return SafetyPredicate(safe=np.ones(n, dtype=bool), name="all")


class TestViabilityStep:
    def test_empty_set_stays_empty(self, rng):
        k = random_kernel(rng, 5, 2)
        out = viability_step(k, random_gate(rng, 5, 2), all_safe(5), np.zeros(5, bool))
        assert not out.any()

    def test_self_loops_fix_full_set(self):
        k = chain_kernel(np.eye(4))
        out = viability_step(k, free_gate(4), all_safe(4), np.ones(4, bool))
        assert out.all()

    def test_three_state_chain_without_self_loop(self):
        # 0 -> 1 -> 2, 2 absorbing; only state 0 keeps its support inside {0, 1}
        k = chain_kernel([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
        safe = SafetyPredicate(safe=np.array([True, True, False]))
        K = np.array([True, True, False])
        out = viability_step(k, free_gate(3), safe, K)
        assert out.tolist() == [True, False, False]

    def test_three_state_chain_with_self_loop(self):
        # 0 -> 1, 1 -> 1: both survive inside {0, 1}
        k = chain_kernel([[0, 1, 0], [0, 1, 0], [0, 0, 1]])
        safe = SafetyPredicate(safe=np.array([True, True, False]))
        K = np.array([True, True, False])
        out = viability_step(k, free_gate(3), safe, K)
        assert out.tolist() == [True, True, False]


class TestViabilityKernel:
    def test_no_feasible_actions_anywhere(self, rng):
        k = random_kernel(rng, 4, 2)
        g = FeasibilityGate(ledger=np.zeros(4), costs=np.ones(2))
        res = viability_kernel(k, g, all_safe(4))
        assert res.size == 0

    def test_universal_self_loops_single_sweep(self):
        k = chain_kernel(np.eye(5))
        res = viability_kernel(k, free_gate(5), all_safe(5))
        assert res.size == 5
        assert res.iterations == 1

    def test_empty_safe_set_short_circuits(self, rng):
        k = random_kernel(rng, 4, 2)
        res = viability_kernel(k, free_gate(4, 2), SafetyPredicate(safe=np.zeros(4, bool)))
        assert res.size == 0
        assert res.iterations == 0

    @pytest.mark.parametrize("part", ["gate ledger", "gate costs", "safety mask"])
    def test_inputs_must_fit_the_kernel(self, part):
        # numpy would broadcast each of these one-entry arrays over the kernel
        env = build_ringworld(RingWorldConfig())
        gate, safe = env.gate, env.safety_ledger_only
        if part == "gate ledger":
            gate = FeasibilityGate(ledger=[2.0], costs=gate.costs)
        elif part == "gate costs":
            gate = FeasibilityGate(ledger=gate.ledger, costs=[0.0])
        else:
            safe = SafetyPredicate(safe=[True], name="one_entry")
        with pytest.raises(ValueError, match=part):
            viability_kernel(env.kernel, gate, safe)


class TestBruteForceOracle:
    def test_identity_dynamics_all_safe(self):
        k = chain_kernel(np.eye(3))
        out = brute_force_greatest_fixpoint(k, free_gate(3), all_safe(3))
        assert out.all()

    def test_empty_safe_set(self, rng):
        k = random_kernel(rng, 4, 1)
        out = brute_force_greatest_fixpoint(
            k, free_gate(4), SafetyPredicate(safe=np.zeros(4, bool))
        )
        assert not out.any()

    def test_guard_rejects_large_spaces(self):
        big = chain_kernel(np.eye(25))
        with pytest.raises(ValueError):
            brute_force_greatest_fixpoint(big, free_gate(25), all_safe(25))

    def test_matches_iterative_kernel_on_random_instances(self, rng):
        for _ in range(20):
            k = random_kernel(rng, 6, 2)
            g = random_gate(rng, 6, 2)
            safe = random_safety(rng, 6)
            fast = viability_kernel(k, g, safe).kernel
            slow = brute_force_greatest_fixpoint(k, g, safe)
            np.testing.assert_array_equal(fast, slow)


class TestProperties:
    def test_contraction(self, rng):
        for _ in range(30):
            k = random_kernel(rng, 7, 2)
            g = random_gate(rng, 7, 2)
            safe = random_safety(rng, 7)
            K = rng.random(7) < 0.6
            out = viability_step(k, g, safe, K)
            assert np.all(~out | K)

    def test_monotonicity(self, rng):
        for _ in range(30):
            k = random_kernel(rng, 7, 2)
            g = random_gate(rng, 7, 2)
            safe = random_safety(rng, 7)
            K1 = rng.random(7) < 0.4
            K2 = K1 | (rng.random(7) < 0.4)
            out1 = viability_step(k, g, safe, K1)
            out2 = viability_step(k, g, safe, K2)
            assert np.all(~out1 | out2)

    def test_termination_bound(self, rng):
        for _ in range(20):
            n = rng.randint(2, 10)
            k = random_kernel(rng, n, 2)
            res = viability_kernel(k, random_gate(rng, n, 2), random_safety(rng, n))
            assert res.iterations <= n + 1
            assert res.trace == sorted(res.trace, reverse=True)

    def test_every_fixed_point_below_kernel(self, rng):
        # the finite greatest-fixed-point property, checked by enumeration
        for _ in range(10):
            k = random_kernel(rng, 6, 2)
            g = random_gate(rng, 6, 2)
            safe = random_safety(rng, 6)
            kernel = viability_kernel(k, g, safe).kernel
            for bits in range(1 << 6):
                S = np.array([(bits >> i) & 1 == 1 for i in range(6)])
                if np.array_equal(viability_step(k, g, safe, S), S):
                    assert np.all(~S | kernel)

    def test_unavoidable_unsafe_successor_excludes_state(self):
        # both actions at state 0 can leak to the unsafe state 2
        probs = np.zeros((2, 3, 3))
        probs[0, 0] = [0.5, 0.0, 0.5]
        probs[1, 0] = [0.0, 0.5, 0.5]
        probs[:, 1] = [0, 1, 0]
        probs[:, 2] = [0, 0, 1]
        k = ControlledKernel(n_states=3, n_actions=2, probs=probs)
        safe = SafetyPredicate(safe=np.array([True, True, False]))
        res = viability_kernel(k, free_gate(3, 2), safe)
        assert not res.kernel[0]
        assert res.kernel[1]

    def test_tiny_leak_to_unsafe_state_excludes_state(self):
        # robust viability must see a successor however small its probability
        k = chain_kernel([[1 - 1e-15, 1e-15], [0, 1]])
        res = viability_kernel(k, free_gate(2), SafetyPredicate(safe=np.array([True, False])))
        assert not res.kernel.any()

    @pytest.mark.parametrize("p_flip", [1e-13, 1e-11])
    def test_ringworld_tiny_noise_without_repair_has_empty_coherent_kernel(self, p_flip):
        # any nonzero flip chance eventually breaks coherence when repair is off
        env = build_ringworld(RingWorldConfig(p_flip=p_flip, repair_enabled=False))
        assert viability_kernel(env.kernel, env.gate, env.safety_coherent).size == 0
