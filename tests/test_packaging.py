import numpy as np
import pytest

from agencykit.empowerment import Lens
from agencykit.environments import RingWorldConfig, build_ringworld
from agencykit.kernel import ControlledKernel, Policy
from agencykit.packaging import Endomap, idempotence_defect, packaging_endomap
from conftest import random_kernel


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
