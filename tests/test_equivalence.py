"""The successor-list engine against the dense (A, S, S) oracles in ``oracles``.

Kernels, traces and endomaps must be identical; rollout rows may differ from
the dense products only by summation order, so they must agree within 1e-12,
and the per-state rollouts must equal the batched columns exactly. Ring worlds are checked
at the holonomy configuration (ring 16, both protocol regimes) and at ring 64.
"""

from dataclasses import replace

import numpy as np
import pytest

from agencykit.empowerment import (
    Lens,
    _batched_sequence_rows,
    build_channel,
    median_empowerments,
)
from agencykit.environments import RingWorldConfig, build_ringworld
from agencykit.experiments import ABLATIONS, HOLONOMY, learning_config
from agencykit.feasibility import FeasibilityGate, feasible_sequences
from agencykit.kernel import ControlledKernel, Policy
from agencykit.packaging import idempotence_defect, packaging_endomap
from agencykit.viability import viability_kernel, viability_step
from conftest import random_gate, random_kernel, random_safety
from oracles import (
    dense,
    dense_sequence_rows,
    dense_viability_kernel,
    dense_viability_step,
    fraction_ring_tensor,
    matrix_power_endomap,
    rollout_output_distribution,
)

RING_CONFIGS = {
    "holonomy_on": HOLONOMY,
    "holonomy_off": replace(HOLONOMY, protocol_on=False),
    "ring64": replace(HOLONOMY, ring_size=64),
}


@pytest.fixture(scope="module", params=sorted(RING_CONFIGS))
def ring_env(request):
    return build_ringworld(RING_CONFIGS[request.param])


class TestBuild:
    @pytest.mark.parametrize("cfg", [
        *RING_CONFIGS.values(),
        RingWorldConfig(),
        RingWorldConfig(ring_size=3, p_flip=0.3, p_slip=0.25, repair_success=0.5),
        learning_config(0.2),
        *ABLATIONS.values(),
        # edges of the mass tables and of the target arithmetic
        RingWorldConfig(phase_period=1),
        RingWorldConfig(ledger_max=0, cost_repair=0),
        # LEFT and RIGHT never execute, so no row has four branches
        RingWorldConfig(ledger_max=1, cost_left=2, cost_right=3, cost_repair=1),
        RingWorldConfig(p_slip=0.0),
        RingWorldConfig(p_slip=1.0, p_flip=1.0),
        RingWorldConfig(ring_size=5, p_flip=1.0, repair_success=0.0, cost_left=1, cost_right=1),
        replace(learning_config(1.0), repair_enabled=False),
        replace(learning_config(0.0), repair_enabled=False, p_flip=1.0),
    ])
    def test_weights_within_one_ulp_of_fraction_tensor(self, cfg):
        probs = fraction_ring_tensor(cfg)
        k = build_ringworld(cfg).kernel
        rebuilt = dense(k)
        np.testing.assert_array_equal(rebuilt > 0, probs > 0)
        ulps = np.abs(rebuilt - probs) / np.spacing(np.maximum(rebuilt, probs))
        assert ulps.max() <= 1.0
        assert k.succ.shape[2] == (probs > 0).sum(axis=-1).max()
        assert np.all(k.weights.sum(axis=-1) == 1.0)
        own = np.broadcast_to(np.arange(k.n_states)[:, None], k.succ.shape[1:])
        assert np.all((k.succ == own) | (k.weights > 0))  # padding points back

    def test_every_ring_position_gets_identical_rows(self, ring_env):
        k = ring_env.kernel
        ring = ring_env.output_lens.n_labels  # the output lens reads the ring position
        per_y = k.weights.reshape(k.n_actions, ring, -1, k.weights.shape[2])
        assert np.all(per_y == per_y[:, :1])
        assert np.all(k.weights.sum(axis=-1) == 1.0)

    def test_from_dense_round_trip(self, ring_env):
        k = ring_env.kernel
        back = ControlledKernel(n_states=k.n_states, n_actions=k.n_actions, probs=dense(k))
        np.testing.assert_array_equal(dense(back), dense(k))
        assert back.succ.shape[2] == k.succ.shape[2]


class TestViability:
    def test_random_kernels_match_dense_sweeps(self, rng):
        for _ in range(30):
            n, m = rng.randint(2, 12), rng.randint(1, 4)
            k = random_kernel(rng, n, m)
            gate, safe = random_gate(rng, n, m), random_safety(rng, n)
            K = rng.random(n) < 0.6
            np.testing.assert_array_equal(
                viability_step(k, gate, safe, K), dense_viability_step(k, gate, safe, K)
            )
            res = viability_kernel(k, gate, safe)
            kernel, iterations, trace = dense_viability_kernel(k, gate, safe)
            np.testing.assert_array_equal(res.kernel, kernel)
            assert (res.iterations, res.trace) == (iterations, trace)

    def test_ring_worlds_match_dense_sweeps(self, ring_env):
        for safe in (ring_env.safety_ledger_only, ring_env.safety_coherent):
            res = viability_kernel(ring_env.kernel, ring_env.gate, safe)
            kernel, iterations, trace = dense_viability_kernel(ring_env.kernel, ring_env.gate, safe)
            np.testing.assert_array_equal(res.kernel, kernel)
            assert (res.iterations, res.trace) == (iterations, trace)


class TestRollouts:
    def test_random_kernels_match_dense_products(self, rng):
        for _ in range(10):
            n, m = rng.randint(2, 10), rng.randint(1, 4)
            k = random_kernel(rng, n, m)
            f = Lens(name="random", project=rng.randint(0, 3, size=n), n_labels=3)
            states = np.flatnonzero(rng.random(n) < 0.5)
            free = FeasibilityGate(ledger=np.zeros(n), costs=np.zeros(m))
            for horizon in (1, 2, 3):
                rows = _batched_sequence_rows(k, horizon, f, states)
                ref_seqs, ref_rows = dense_sequence_rows(k, horizon, f, states)
                assert [tuple(a) for a in feasible_sequences(free, 0, horizon).tolist()] == ref_seqs
                np.testing.assert_allclose(rows, ref_rows, rtol=0, atol=1e-12)

    def test_ring_worlds_match_dense_products(self, ring_env):
        k = ring_env.kernel
        states = np.linspace(0, k.n_states - 1, 24).astype(np.int64)
        free = FeasibilityGate(ledger=np.zeros(k.n_states), costs=np.zeros(k.n_actions))
        for horizon in (1, 3):
            rows = _batched_sequence_rows(k, horizon, ring_env.output_lens, states)
            ref_seqs, ref_rows = dense_sequence_rows(k, horizon, ring_env.output_lens, states)
            assert [tuple(a) for a in feasible_sequences(free, 0, horizon).tolist()] == ref_seqs
            np.testing.assert_allclose(rows, ref_rows, rtol=0, atol=1e-12)


    def test_per_state_rollouts_are_columns_of_the_batch(self, rng):
        # one push primitive for both paths: a start state's rows do not
        # depend on which other start states share the batch. On the holonomy
        # ring (S = 192, L = 16, A = 4), H = 4 and H = 5 walk breadth-first
        # below depth 2
        env = build_ringworld(RING_CONFIGS["holonomy_on"])
        cases = [(env.kernel, env.output_lens, (1, 2, 3, 4, 5))]
        for _ in range(5):
            n = rng.randint(2, 10)
            cases.append((random_kernel(rng, n, rng.randint(1, 4)),
                          Lens(name="random", project=rng.randint(0, 3, size=n), n_labels=3),
                          (1, 2, 3)))
        for k, f, horizons in cases:
            states = np.linspace(0, k.n_states - 1, min(k.n_states, 12)).astype(np.int64)
            free = FeasibilityGate(ledger=np.zeros(k.n_states), costs=np.zeros(k.n_actions))
            for horizon in horizons:
                rows = _batched_sequence_rows(k, horizon, f, states)
                seqs = feasible_sequences(free, 0, horizon)
                for i, s in enumerate(states):
                    channel = build_channel(k, free, int(s), horizon, f)
                    np.testing.assert_array_equal(channel, rows[:, i])
                    for j in (0, len(seqs) // 3, len(seqs) - 1):
                        out = rollout_output_distribution(k, int(s), seqs[j], f)
                        np.testing.assert_array_equal(out, rows[j, i])


class TestPackaging:
    def test_random_kernels_match_matrix_power(self, rng):
        for _ in range(20):
            n, m = rng.randint(2, 10), rng.randint(1, 4)
            k = random_kernel(rng, n, m)
            n_labels = rng.randint(1, n + 1)
            pi = Lens(name="random", project=rng.randint(0, n_labels, size=n), n_labels=n_labels)
            stochastic = Policy(kind="stochastic",
                                table={s: rng.dirichlet(np.ones(m)) for s in range(n)})
            deterministic = Policy(kind="deterministic",
                                   table={s: int(rng.randint(m)) for s in range(n)})
            for mu in (stochastic, deterministic):
                for tau in range(4):
                    e = packaging_endomap(k, pi, mu, tau)
                    mapping, reach = matrix_power_endomap(k, pi, mu, tau)
                    assert e.mapping == mapping
                    for x in mapping:
                        assert e.reach_mass[x] == pytest.approx(reach[x], abs=1e-12)

    def test_ring_worlds_match_matrix_power(self, ring_env):
        for mu in ring_env.policies.values():
            for tau in range(5):
                e = packaging_endomap(ring_env.kernel, ring_env.macro_lens, mu, tau)
                mapping, reach = matrix_power_endomap(ring_env.kernel, ring_env.macro_lens, mu, tau)
                assert e.mapping == mapping
                for x in mapping:
                    assert e.reach_mass[x] == pytest.approx(reach[x], abs=1e-12)


def test_ring_1024_runs_within_small_kernel_arrays():
    """S = 12288: the dense tensor would be 4.8 GB; the successor lists stay small."""
    env = build_ringworld(replace(HOLONOMY, ring_size=1024))
    k = env.kernel
    assert k.n_states == 12288
    arrays = [v for v in vars(k).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 8 * 2**20
    vres = viability_kernel(k, env.gate, env.safety_ledger_only)
    assert 0 < vres.size < k.n_states
    med, = median_empowerments([(k, env.gate, vres.kernel, 3, env.output_lens)], max_states=64)
    assert len(med.selected_states) == 64
    assert 0.0 < med.median_bits <= np.log2(64)
    e = packaging_endomap(k, env.macro_lens, env.policies["repair_then_right"], 2)
    assert sorted(e.mapping) == list(range(env.macro_lens.n_labels))
    assert 0.0 <= idempotence_defect(e) <= 1.0
