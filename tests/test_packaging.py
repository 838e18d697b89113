import copy
import pickle
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from agencykit import packaging
from agencykit.empowerment import Lens
from agencykit.environments import LEFT, RIGHT, RingWorldConfig, build_ringworld, ring_state_index
from agencykit.experiments import ABLATIONS, HOLONOMY, PAPER, TAU_GRID
from agencykit.kernel import ControlledKernel, Policy
from agencykit.packaging import Endomap, idempotence_defect, packaging_endomap
from conftest import random_kernel
from oracles import fraction_packaging_masses, full_push_endomap, matrix_power_endomap

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def identity_lens(n) -> Lens:
    return Lens(name="identity", project=np.arange(n), n_labels=n)


def constant_policy(n_states, action=0) -> Policy:
    return Policy(kind="deterministic", table={s: action for s in range(n_states)})


class TestFiber:
    """A label's fiber is the set of states the lens projects onto it."""

    def test_identity_lens_singletons(self, rng):
        # each singleton fiber starts all its mass on its one state
        k = random_kernel(rng, 4, 1)
        e = packaging_endomap(k, identity_lens(4), constant_policy(4), 0)
        assert e.mapping == {x: x for x in range(4)}
        assert e.reach_mass == {x: 1.0 for x in range(4)}

    def test_constant_lens_full_fiber(self, rng):
        # five unit masses divided by the fiber size give mass 1
        k = random_kernel(rng, 5, 2)
        lens = Lens(name="const", project=np.zeros(5, dtype=int), n_labels=1)
        e = packaging_endomap(k, lens, constant_policy(5), 3)
        assert e.mapping == {0: 0}
        assert e.reach_mass[0] == pytest.approx(1.0, abs=1e-12)

    def test_ringworld_macro_fibers_hide_damage_bit(self):
        env = build_ringworld(RingWorldConfig())
        for x in range(env.macro_lens.n_labels):
            members = np.flatnonzero(env.macro_lens.project == x)
            assert sorted(env.state_fields[1, members]) == [0, 1]

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Lens(name="identity", project=np.arange(4), n_labels=3)


class TestPackagingEndomap:
    def test_tau_zero_is_identity(self, rng):
        k = random_kernel(rng, 6, 2)
        lens = Lens(name="coarse", project=np.array([0, 0, 1, 1, 2, 2]), n_labels=3)
        e = packaging_endomap(k, lens, constant_policy(6), 0)
        assert e.mapping == {0: 0, 1: 1, 2: 2}
        assert idempotence_defect(e) == 0.0

    def test_negative_tau_rejected(self, rng):
        k = random_kernel(rng, 6, 2)
        with pytest.raises(ValueError, match="tau must be an integer >= 0, not -1"):
            packaging_endomap(k, identity_lens(6), constant_policy(6), -1)

    def test_policy_of_a_larger_ring_rejected(self):
        # ring 16's policy has 192 entries; ring 8's kernel has 96 states
        small = build_ringworld(PAPER)
        large = build_ringworld(RingWorldConfig(ring_size=16))
        with pytest.raises(ValueError, match="policy covers state 96, which is not in range"):
            packaging_endomap(small.kernel, small.macro_lens,
                              large.policies["repair_then_right"], 2)

    @pytest.mark.parametrize("tau", [True, 2.0])
    def test_tau_must_be_an_integer(self, rng, tau):
        k = random_kernel(rng, 6, 2)
        with pytest.raises(ValueError, match="tau must be an integer >= 0"):
            packaging_endomap(k, identity_lens(6), constant_policy(6), tau)

    def test_two_label_cycle_swaps(self):
        # two states swapping deterministically, identity lens, tau = 1
        swap = np.array([[[0, 1], [1, 0]]], dtype=float)
        k = ControlledKernel(n_states=2, n_actions=1, probs=swap)
        e = packaging_endomap(k, identity_lens(2), constant_policy(2), 1)
        assert e.mapping == {0: 1, 1: 0}
        assert idempotence_defect(e) == 1.0

    def test_empty_fibers_excluded_from_domain(self, rng):
        k = random_kernel(rng, 4, 1)
        lens = Lens(name="gappy", project=np.array([0, 0, 2, 2]), n_labels=3)
        e = packaging_endomap(k, lens, constant_policy(4), 1)
        assert 1 not in e.mapping
        assert set(e.domain) <= {0, 2}

    def test_modal_mass_recorded(self, rng):
        k = random_kernel(rng, 6, 2)
        e = packaging_endomap(k, identity_lens(6), constant_policy(6), 2)
        for x, target in e.mapping.items():
            assert 0 < e.reach_mass[x] <= 1.0

    def test_smallest_label_tie_break(self):
        # uniform two-way split: mode must resolve to the smaller label
        probs = np.array([[[0.5, 0.5], [0.5, 0.5]]])
        k = ControlledKernel(n_states=2, n_actions=1, probs=probs)
        e = packaging_endomap(k, identity_lens(2), constant_policy(2), 1)
        assert e.mapping == {0: 0, 1: 0}

    def test_ringworld_odd_tau_shifts_phase_component(self):
        cfg = RingWorldConfig()
        env = build_ringworld(cfg)
        e = packaging_endomap(
            env.kernel, env.macro_lens, env.policies["repair_then_right"], 1
        )
        for x, target in e.mapping.items():
            assert (x % cfg.phase_period) != (target % cfg.phase_period)

    def test_lens_must_fit_the_kernel(self, rng):
        k = random_kernel(rng, 4, 1)
        one_entry = Lens(name="one_entry", project=np.array([0]), n_labels=1)
        with pytest.raises(ValueError, match="lens projection"):
            packaging_endomap(k, one_entry, constant_policy(4), 1)


class TestIdempotenceDefect:
    def test_identity_map_zero(self):
        e = Endomap("p", mapping={0: 0, 1: 1}, reach_mass={0: 1, 1: 1})
        assert idempotence_defect(e) == 0.0

    def test_two_cycle_everything_fails(self):
        e = Endomap("p", mapping={0: 1, 1: 0}, reach_mass={0: 1, 1: 1})
        assert idempotence_defect(e) == 1.0

    def test_constant_map_zero(self):
        e = Endomap("p", mapping={0: 2, 1: 2, 2: 2}, reach_mass={})
        assert idempotence_defect(e) == 0.0

    def test_denominator_is_domain_size(self):
        e = Endomap("p", mapping={0: 1, 1: 0, 2: 2}, reach_mass={})
        assert idempotence_defect(e) == pytest.approx(2 / 3)

    def test_zero_defect_iff_identity_on_image(self, rng):
        for _ in range(50):
            n = rng.randint(2, 8)
            mapping = {x: int(rng.randint(0, n)) for x in range(n)}
            e = Endomap("p", mapping=mapping, reach_mass={})
            image_identity = all(mapping[y] == y for y in set(mapping.values()))
            assert (idempotence_defect(e) == 0.0) == image_identity


class TestEndomapIsImmutable:
    """The closure check at construction holds for the endomap's whole life."""

    def test_fields_cannot_be_reassigned(self):
        e = Endomap("p", mapping={0: 0}, reach_mass={0: 1.0})
        for name, value in (("mapping", {}), ("reach_mass", {}), ("policy_name", "q")):
            with pytest.raises(FrozenInstanceError):
                setattr(e, name, value)
        assert idempotence_defect(e) == 0.0

    def test_items_cannot_be_assigned(self):
        e = Endomap("p", mapping={0: 0}, reach_mass={0: 1.0})
        with pytest.raises(TypeError):
            e.mapping[0] = 5
        with pytest.raises(TypeError):
            e.reach_mass[0] = 0.5
        assert dict(e.mapping) == {0: 0} and dict(e.reach_mass) == {0: 1.0}

    def test_editing_the_callers_dicts_leaves_it_unchanged(self):
        mapping, reach_mass = {0: 1, 1: 1}, {0: 0.5, 1: 1.0}
        e = Endomap("p", mapping=mapping, reach_mass=reach_mass)
        mapping[0], reach_mass[0] = 7, 0.0
        del mapping[1]
        assert e.mapping == {0: 1, 1: 1} and e.reach_mass == {0: 0.5, 1: 1.0}
        assert idempotence_defect(e) == 0.0

    @pytest.mark.parametrize("round_trip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                            copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_copies_are_equal_and_read_only(self, round_trip):
        e = Endomap("p", mapping={0: 1, 1: 1}, reach_mass={0: 0.5, 1: 1.0})
        twin = round_trip(e)
        assert twin == e and twin is not e
        with pytest.raises(TypeError):
            twin.mapping[0] = 0
        with pytest.raises(FrozenInstanceError):
            twin.mapping = {}
        assert idempotence_defect(twin) == 0.0


class TestExactTies:
    """The ring's modal labels against exact rational masses."""

    @pytest.mark.parametrize("policy", ["always_right", "repair_then_right"])
    def test_modes_match_exact_masses_with_smallest_label_ties(self, policy):
        env = build_ringworld(PAPER)
        mu = env.policies[policy]
        for tau in TAU_GRID:
            exact = fraction_packaging_masses(PAPER, mu.table, env.macro_lens.project, tau)
            modes = {fiber: min(label for label, mass in masses.items()
                                if mass == max(masses.values()))
                     for fiber, masses in exact.items()}
            assert packaging_endomap(env.kernel, env.macro_lens, mu, tau).mapping == modes

    def test_tau1_fiber2_tie_is_exact(self):
        # under repair_then_right, fiber 2's two members reach labels 1 and 3
        # with mass exactly 1 each, so label 1 is the exact smallest-label mode
        env = build_ringworld(PAPER)
        mu = env.policies["repair_then_right"]
        exact = fraction_packaging_masses(PAPER, mu.table, env.macro_lens.project, 1)
        assert exact[2] == {1: 1, 3: 1}
        e = packaging_endomap(env.kernel, env.macro_lens, mu, 1)
        assert e.mapping[2] == 1 and e.reach_mass[2] == 0.5


def ladder_config(ring: int) -> RingWorldConfig:
    return replace(HOLONOMY, ring_size=ring)


@pytest.fixture(scope="module")
def random_problems():
    """The random-kernels benchmark's batch-0 instances as (kernel, macro lens, policy)."""
    problems = []
    for inst in workloads.random_instances(workloads.DEFAULT_SEED, 0):
        n = inst.n_states
        k = ControlledKernel(n_states=n, n_actions=inst.succ.shape[0],
                             probs=workloads.dense_probs(inst))
        lens = Lens(name="random_macro", project=inst.macro_labels,
                    n_labels=n // workloads.RANDOM_FIBER_SIZE)
        policy = Policy(kind="deterministic", table=dict(enumerate(inst.policy.tolist())))
        problems.append((k, lens, policy))
    return problems


BLOCK_PERIOD = packaging._block_period


def quotient_period(monkeypatch, k, lens, mu) -> int:
    """The state shift ``packaging_endomap`` takes, from its one ``_block_period`` search."""
    periods = []

    def spy(*args):
        periods.append(BLOCK_PERIOD(*args))
        return periods[-1]

    monkeypatch.setattr(packaging, "_block_period", spy)
    packaging_endomap(k, lens, mu, 2)
    monkeypatch.undo()
    (period,) = periods
    return period


class TestTranslationQuotient:
    """Pushing one ring position's fibers and shifting them is the full push, bit for bit."""

    @staticmethod
    def assert_full_push(k, lens, mu, tau):
        e = packaging_endomap(k, lens, mu, tau)
        mapping, reach = full_push_endomap(k, lens, mu, tau)
        assert list(e.mapping.items()) == list(mapping.items())
        assert list(e.reach_mass.items()) == list(reach.items())

    @pytest.mark.parametrize("ring", [8, 64, 128, 256])
    @pytest.mark.parametrize("policy", ["always_right", "repair_then_right"])
    def test_ladder_rungs_match_the_full_push(self, ring, policy):
        env = build_ringworld(ladder_config(ring))
        self.assert_full_push(env.kernel, env.macro_lens, env.policies[policy], 2)

    @pytest.mark.parametrize("policy", ["always_right", "repair_then_right"])
    def test_paper_matches_the_full_push_at_every_tau(self, policy):
        env = build_ringworld(PAPER)
        for tau in TAU_GRID:
            self.assert_full_push(env.kernel, env.macro_lens, env.policies[policy], tau)

    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_ablations_match_the_full_push(self, name):
        env = build_ringworld(ABLATIONS[name])
        self.assert_full_push(env.kernel, env.macro_lens, env.policies["repair_then_right"], 2)

    def test_random_instances_match_the_full_push(self, random_problems):
        for k, lens, mu in random_problems:
            self.assert_full_push(k, lens, mu, 2)

    @pytest.mark.parametrize("cfg", [
        *(ladder_config(ring) for ring in workloads.LADDER_RINGS), PAPER, *ABLATIONS.values(),
    ], ids=[*(f"ring{ring}" for ring in workloads.LADDER_RINGS), "paper", *ABLATIONS])
    def test_ring_worlds_push_one_ring_position(self, monkeypatch, cfg):
        env = build_ringworld(cfg)
        lens = env.macro_lens
        for mu in env.policies.values():
            period = quotient_period(monkeypatch, env.kernel, lens, mu)
            assert period == env.n_states // cfg.ring_size
            assert lens.n_labels * period // env.n_states == (cfg.ledger_max + 1) * cfg.phase_period

    def test_random_instances_have_no_symmetry(self, monkeypatch, random_problems):
        for k, lens, mu in random_problems:
            assert quotient_period(monkeypatch, k, lens, mu) == k.n_states

    @staticmethod
    def assert_fallback(monkeypatch, k, lens, mu):
        assert quotient_period(monkeypatch, k, lens, mu) == k.n_states
        for tau in range(4):
            e = packaging_endomap(k, lens, mu, tau)
            mapping, reach = matrix_power_endomap(k, lens, mu, tau)
            assert e.mapping == mapping
            for x in mapping:
                assert e.reach_mass[x] == pytest.approx(reach[x], abs=1e-12)

    def test_labels_permuted_within_one_ring_position_fall_back(self, monkeypatch):
        env = build_ringworld(PAPER)
        step = (PAPER.ledger_max + 1) * PAPER.phase_period
        project = env.macro_lens.project.copy()
        at_y3 = (project >= 3 * step) & (project < 4 * step)
        project[at_y3] = 7 * step - 1 - project[at_y3]  # reversed within ring position 3
        lens = Lens(name="permuted", project=project, n_labels=env.macro_lens.n_labels)
        self.assert_fallback(monkeypatch, env.kernel, lens, env.policies["repair_then_right"])

    def test_one_changed_action_falls_back(self, monkeypatch):
        env = build_ringworld(PAPER)
        table = dict(env.policies["repair_then_right"].table)
        s = ring_state_index(PAPER, y=3, u=0, phi=0, r=PAPER.ledger_max)
        assert table[s] == RIGHT
        table[s] = LEFT  # affordable at a full ledger, so the step moves the other way
        mu = Policy(kind="deterministic", table=table)
        self.assert_fallback(monkeypatch, env.kernel, env.macro_lens, mu)

    def test_random_kernel_falls_back(self, monkeypatch, rng):
        k = random_kernel(rng, 12, 2)
        lens = Lens(name="random", project=rng.randint(0, 6, size=12), n_labels=6)
        mu = Policy(kind="deterministic", table={s: int(rng.randint(2)) for s in range(12)})
        self.assert_fallback(monkeypatch, k, lens, mu)
