import dataclasses

import numpy as np
import pytest

from agencykit.artifacts import config_hash
from agencykit.empowerment import build_channel, channel_capacities
from agencykit.environments import (
    LEFT,
    NOOP,
    REPAIR,
    RIGHT,
    RingWorldConfig,
    _branch_masses,
    build_null_single_action,
    build_ringworld,
    build_schedule_trap,
    ring_state_index,
)
from conftest import assert_constructs_again, exhibit_ring_configs, sweep_ring_configs
from oracles import dense, successor_support


class TestKernelExactness:
    @pytest.mark.parametrize("cfg", [
        RingWorldConfig(),
        RingWorldConfig(ring_size=6),
        RingWorldConfig(p_flip=0.3, p_slip=0.25, repair_success=0.5),
        RingWorldConfig(damage_leak=2, ledger_gain=1, gain_every_step=True,
                        cost_left=1, cost_right=1),
        RingWorldConfig(theta_levels=3, p_slip=0.2),
        RingWorldConfig(protocol_on=False),
    ])
    def test_rows_sum_exactly_to_one(self, cfg):
        env = build_ringworld(cfg)
        assert_constructs_again(env.kernel)
        sums = dense(env.kernel).sum(axis=2)
        assert np.abs(sums - 1.0).max() == 0.0

    def test_rows_sum_exactly_to_one_for_random_probabilities(self):
        # one residual push into the largest entry, in state order, leaves a
        # row off 1.0 by an ulp in 3 of these 40 configs
        rng = np.random.default_rng(7)
        for _ in range(40):
            cfg = RingWorldConfig(
                ring_size=3, p_flip=float(rng.random()), p_slip=float(rng.random()),
                repair_success=float(rng.random()), theta_levels=int(rng.integers(2, 5)),
            )
            env = build_ringworld(cfg)
            assert_constructs_again(env.kernel)
            assert np.all(env.kernel.weights.sum(axis=2) == 1.0)

    def test_state_count_formula(self):
        cfg = RingWorldConfig(theta_levels=3)
        assert cfg.n_states == 8 * 2 * 2 * 3 * 3
        assert build_ringworld(cfg).n_states == cfg.n_states

    def test_encoding_round_trip(self):
        cfg = RingWorldConfig(theta_levels=2)
        env = build_ringworld(cfg)
        assert env.state_fields.shape == (5, cfg.n_states)
        assert not env.state_fields.flags.writeable
        for idx, t in enumerate(env.state_fields.T.tolist()):
            assert ring_state_index(cfg, *t) == idx

    @pytest.mark.parametrize("fields", [
        {"y": 8, "u": 0, "phi": 0, "r": 0},
        {"y": 0, "u": 2, "phi": 0, "r": 0},
        {"y": 0, "u": 0, "phi": 2, "r": 0},
        {"y": 0, "u": 0, "phi": 0, "r": 3},
        {"y": 0, "u": 0, "phi": 0, "r": -1},
        {"y": 0, "u": 0, "phi": 0, "r": 0, "theta": 1},
    ], ids=["y", "u", "phi", "r", "negative_r", "theta"])
    def test_state_index_rejects_out_of_range_field(self, fields):
        with pytest.raises(ValueError):
            ring_state_index(RingWorldConfig(), **fields)


    @pytest.mark.parametrize(("fields", "message"), [
        ({"y": True}, "y must be an integer >= 0, not True"),
        ({"y": 1.0}, "y must be an integer >= 0, not 1.0"),
        ({"phi": -1}, "phi must be an integer >= 0, not -1"),
        ({"y": 8}, r"y must be in range\(8\), not 8"),
        ({"theta": 1}, r"theta must be in range\(1\), not 1"),
    ], ids=["bool", "float", "negative", "y_past_ring", "theta_past_levels"])
    def test_state_index_names_the_bad_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ring_state_index(RingWorldConfig(), **{"y": 0, "u": 0, "phi": 0, "r": 0, **fields})

    def test_state_index_takes_numpy_integers(self):
        cfg = RingWorldConfig()
        assert ring_state_index(cfg, *np.array([1, 0, 1, 2])) == ring_state_index(cfg, 1, 0, 1, 2)


class TestMovementRules:
    def test_plain_right_step(self):
        cfg = RingWorldConfig(p_flip=0.0, p_slip=0.0, protocol_on=False)
        env = build_ringworld(cfg)
        for y in range(cfg.ring_size):
            s = ring_state_index(cfg, y=y, u=0, phi=0, r=2)
            t = ring_state_index(cfg, y=(y + 1) % cfg.ring_size, u=0, phi=1, r=0)
            assert dense(env.kernel)[RIGHT, s, t] == 1.0

    def test_protocol_doubles_displacement_on_odd_phase(self):
        cfg = RingWorldConfig(p_flip=0.0, p_slip=0.0, protocol_on=True)
        env = build_ringworld(cfg)
        s = ring_state_index(cfg, y=0, u=0, phi=1, r=2)
        # phase wraps and pays cost 2, gains 1
        t = ring_state_index(cfg, y=2, u=0, phi=0, r=1)
        assert dense(env.kernel)[RIGHT, s, t] == 1.0

    def test_slip_keeps_position(self):
        cfg = RingWorldConfig(p_flip=0.0, p_slip=0.25, protocol_on=False)
        env = build_ringworld(cfg)
        s = ring_state_index(cfg, y=3, u=0, phi=0, r=2)
        stay = ring_state_index(cfg, y=3, u=0, phi=1, r=0)
        move = ring_state_index(cfg, y=4, u=0, phi=1, r=0)
        assert dense(env.kernel)[RIGHT, s, stay] == 0.25
        assert dense(env.kernel)[RIGHT, s, move] == 0.75

    def test_repair_resets_damage_bit(self):
        cfg = RingWorldConfig(p_flip=0.0)
        env = build_ringworld(cfg)
        s = ring_state_index(cfg, y=0, u=1, phi=0, r=2)
        t = ring_state_index(cfg, y=0, u=0, phi=1, r=1)
        assert dense(env.kernel)[REPAIR, s, t] == 1.0

    def test_imperfect_repair_splits_damage_bit(self):
        cfg = RingWorldConfig(p_flip=0.0, repair_success=0.25)
        env = build_ringworld(cfg)
        s = ring_state_index(cfg, y=0, u=1, phi=0, r=2)
        repaired = ring_state_index(cfg, y=0, u=0, phi=1, r=1)
        still_broken = ring_state_index(cfg, y=0, u=1, phi=1, r=1)
        assert dense(env.kernel)[REPAIR, s, repaired] == 0.25
        assert dense(env.kernel)[REPAIR, s, still_broken] == 0.75

    def test_infeasible_command_collapses_to_noop(self):
        cfg = RingWorldConfig()  # movement costs 2
        env = build_ringworld(cfg)
        for y in range(cfg.ring_size):
            for phi in range(cfg.phase_period):
                broke = ring_state_index(cfg, y=y, u=0, phi=phi, r=1)
                np.testing.assert_array_equal(
                    dense(env.kernel)[RIGHT, broke], dense(env.kernel)[NOOP, broke]
                )
                np.testing.assert_array_equal(
                    dense(env.kernel)[LEFT, broke], dense(env.kernel)[NOOP, broke]
                )


class TestLedgerRules:
    def test_ledger_stays_in_bounds_everywhere(self):
        for cfg in (RingWorldConfig(), RingWorldConfig(damage_leak=2, gain_every_step=True)):
            env = build_ringworld(cfg)
            for a in range(env.kernel.n_actions):
                for s in range(env.n_states):
                    for t in successor_support(env.kernel, s, a):
                        assert 0 <= env.state_fields[3, t] <= cfg.ledger_max

    def test_wrap_income_credits_ledger(self):
        cfg = RingWorldConfig(p_flip=0.0)
        env = build_ringworld(cfg)
        s = ring_state_index(cfg, y=0, u=0, phi=1, r=0)  # broke: NOOP only
        t = ring_state_index(cfg, y=0, u=0, phi=0, r=1)
        assert dense(env.kernel)[NOOP, s, t] == 1.0

    def test_damage_leak_drains_ledger(self):
        cfg = RingWorldConfig(p_flip=0.0, damage_leak=2, ledger_gain=1,
                              gain_every_step=True, cost_left=1, cost_right=1)
        env = build_ringworld(cfg)
        s = ring_state_index(cfg, y=0, u=1, phi=0, r=2)
        t = ring_state_index(cfg, y=0, u=1, phi=1, r=1)  # -0 cost -2 leak +1 gain
        assert dense(env.kernel)[NOOP, s, t] == 1.0

    def test_damage_conservation_without_noise(self):
        cfg = RingWorldConfig(p_flip=0.0)
        env = build_ringworld(cfg)
        for s in np.flatnonzero(env.state_fields[1] == 0):
            for a in range(env.kernel.n_actions):
                for t in successor_support(env.kernel, s, a):
                    assert env.state_fields[1, t] == 0


class TestSkillSector:
    def test_slip_strictly_decreases_with_skill(self):
        cfg = RingWorldConfig(theta_levels=3, p_slip=0.3,
                              p_flip=0.0, cost_left=0, cost_right=0, protocol_on=False)
        env = build_ringworld(cfg)
        slips = []
        for theta in range(3):
            s = ring_state_index(cfg, y=0, u=0, phi=0, r=2, theta=theta)
            stay = ring_state_index(cfg, y=0, u=0, phi=1, r=2, theta=theta)
            slips.append(dense(env.kernel)[RIGHT, s, stay])
        assert slips[0] > slips[1] > slips[2]
        assert slips[2] == 0.0

    def test_theta_is_static(self):
        cfg = RingWorldConfig(theta_levels=2)
        env = build_ringworld(cfg)
        theta = env.state_fields[4]
        for s in range(env.n_states):
            for a in range(env.kernel.n_actions):
                for succ in successor_support(env.kernel, s, a):
                    assert theta[succ] == theta[s]


class TestProtocolMatching:
    def test_phase_zero_rows_identical_on_off(self):
        on = build_ringworld(RingWorldConfig(protocol_on=True))
        off = build_ringworld(RingWorldConfig(protocol_on=False))
        cfg = RingWorldConfig()
        for y in range(cfg.ring_size):
            for u in range(2):
                for r in range(cfg.ledger_max + 1):
                    s = ring_state_index(cfg, y=y, u=u, phi=0, r=r)
                    np.testing.assert_array_equal(dense(on.kernel)[:, s], dense(off.kernel)[:, s])

    def test_h1_capacity_matches_across_protocol(self):
        on = build_ringworld(RingWorldConfig(protocol_on=True, cost_left=0, cost_right=0))
        off = build_ringworld(RingWorldConfig(protocol_on=False, cost_left=0, cost_right=0))
        cfg = RingWorldConfig()
        for phi in range(2):
            s = ring_state_index(cfg, y=0, u=0, phi=phi, r=2)
            c_on, c_off = channel_capacities(
                build_channel(env.kernel, env.gate, s, 1, env.output_lens) for env in (on, off))
            assert abs(c_on.capacity_bits - c_off.capacity_bits) <= 1e-9


class TestBranchTableMemo:
    """Memoised branch tables must keep every build a pure function of its config."""

    @staticmethod
    def random_configs(n=20):
        rng = np.random.RandomState(20261019)

        def probability():
            return float(rng.choice([0.0, 0.1, 0.25, 1.0, rng.random()]))

        return [
            RingWorldConfig(
                ring_size=int(rng.randint(3, 7)), phase_period=int(rng.randint(1, 4)),
                ledger_max=int(rng.randint(0, 4)), p_flip=probability(), p_slip=probability(),
                repair_success=probability(), cost_left=int(rng.randint(0, 3)),
                cost_right=int(rng.randint(0, 3)), cost_repair=int(rng.randint(0, 3)),
                cost_noop=int(rng.randint(0, 2)), ledger_gain=int(rng.randint(0, 3)),
                gain_every_step=bool(rng.randint(2)), damage_leak=int(rng.randint(0, 3)),
                protocol_on=bool(rng.randint(2)), repair_enabled=bool(rng.randint(2)),
                theta_levels=int(rng.randint(1, 4)),
            )
            for _ in range(n)
        ]

    @staticmethod
    def kernel_bytes(configs, order, clear_each=False):
        _branch_masses.cache_clear()
        out = {}
        for i in order:
            if clear_each:
                _branch_masses.cache_clear()
            k = build_ringworld(configs[i]).kernel
            out[i] = (k.succ.tobytes(), k.weights.tobytes())
        return out

    def test_builds_do_not_depend_on_the_memo_or_the_order(self):
        configs = exhibit_ring_configs() + self.random_configs()
        n = len(configs)
        assert n == 96
        cold = self.kernel_bytes(configs, range(n), clear_each=True)
        assert self.kernel_bytes(configs, range(n)) == cold
        assert self.kernel_bytes(configs, reversed(range(n))) == cold

    def test_sweep_sums_48_distinct_tables(self):
        # 8 noise levels times 6 (movement kind, u) tables; repair cost sets none
        _branch_masses.cache_clear()
        for cfg in sweep_ring_configs():
            build_ringworld(cfg)
        info = _branch_masses.cache_info()
        assert (info.misses, info.currsize) == (48, 48)

    def test_every_keyed_field_changes_a_table(self):
        # (p_slip, p_flip, repair_success, theta_levels, moves, repairs, u, theta)
        key = (0.08, 0.1, 0.5, 3, True, True, 0, 1)
        perturbed = (0.2, 0.3, 0.25, 4, False, False, 1, 2)
        table = _branch_masses(*key)
        for i, value in enumerate(perturbed):
            other = key[:i] + (value,) + key[i + 1:]
            assert _branch_masses(*other) != table, f"argument {i}"


class TestNullEnvironments:
    def test_single_action_cycle_is_permutation(self):
        env = build_null_single_action()
        assert_constructs_again(env.kernel)
        mat = dense(env.kernel)[0]
        assert np.array_equal(mat.sum(axis=0), np.ones(4))
        assert set(np.unique(mat)) == {0.0, 1.0}

    def test_single_action_zero_empowerment(self):
        env = build_null_single_action()
        for h in (1, 2, 3):
            channel = build_channel(env.kernel, env.gate, 0, h, env.output_lens)
            assert channel_capacities([channel])[0].capacity_bits == 0.0

    def test_schedule_trap_wrong_model_one_bit(self):
        env = build_schedule_trap("wrong")
        cap, = channel_capacities([build_channel(env.kernel, env.gate, 0, 1, env.output_lens)])
        assert cap.capacity_bits == pytest.approx(1.0, abs=1e-9)

    def test_schedule_trap_right_model_rows_identical(self):
        env = build_schedule_trap("right")
        np.testing.assert_array_equal(dense(env.kernel)[0], dense(env.kernel)[1])
        cap, = channel_capacities([build_channel(env.kernel, env.gate, 0, 1, env.output_lens)])
        assert cap.capacity_bits == 0.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_schedule_trap("confused")


class TestConfigValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            RingWorldConfig(p_flip=1.5)

    def test_tiny_ring_rejected(self):
        with pytest.raises(ValueError):
            RingWorldConfig(ring_size=2)

    def test_theta_levels_must_be_positive(self):
        with pytest.raises(ValueError):
            RingWorldConfig(theta_levels=0)

    @pytest.mark.parametrize("name, value", [
        ("gain_every_step", 0), ("protocol_on", 1), ("repair_enabled", np.bool_(True)),
        ("ring_size", 8.0), ("cost_left", 1.5), ("theta_levels", True), ("ledger_gain", False),
        ("p_flip", True), ("p_slip", "0.1"), ("repair_success", None),
    ])
    def test_field_of_the_wrong_kind_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RingWorldConfig(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RingWorldConfig)
                                      if f.type == "int"])
    def test_count_below_its_minimum_rejected(self, name):
        minimum = {"ring_size": 3, "phase_period": 1, "theta_levels": 1}.get(name, 0)
        RingWorldConfig(**{name: minimum})
        with pytest.raises(ValueError, match=f"{name} must be an integer >= {minimum}, "
                                             f"not {minimum - 1}"):
            RingWorldConfig(**{name: minimum - 1})

    @pytest.mark.parametrize("name", ["p_flip", "p_slip", "repair_success"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), np.inf])
    def test_probability_outside_the_unit_interval_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"{name} must be a real number in \[0, 1\], "
                                             rf"not {value!r}"):
            RingWorldConfig(**{name: value})

    def test_equal_configs_hash_alike(self):
        pairs = [
            (RingWorldConfig(p_slip=0, repair_success=1), RingWorldConfig(p_slip=0.0)),
            (RingWorldConfig(ring_size=np.int64(8), p_flip=np.float32(0.5)),
             RingWorldConfig(p_flip=0.5)),
        ]
        for a, b in pairs:
            assert a == b and config_hash(a.to_dict()) == config_hash(b.to_dict())
            assert [type(v) for v in vars(a).values()] == [type(v) for v in vars(b).values()]

    def test_no_field_is_only_hashed(self):
        # every field is hashed into the artifacts, so each must also shape
        # the kernel, gate, lenses, safety masks or policies of some build
        def engine_inputs(cfg: RingWorldConfig) -> list[np.ndarray]:
            env = build_ringworld(cfg)
            return [
                env.kernel.succ, env.kernel.weights, env.gate.ledger, env.gate.costs,
                env.output_lens.project, env.macro_lens.project,
                env.safety_ledger_only.safe, env.safety_coherent.safe,
                *(mu.action_weights(env.n_states, env.kernel.n_actions)
                  for mu in env.policies.values()),
            ]

        def changes_environment(base: RingWorldConfig, name: str) -> bool:
            value = getattr(base, name)
            if isinstance(value, bool):
                value = not value
            else:
                value = value + 1 if isinstance(value, int) else value / 2
            before = engine_inputs(base)
            after = engine_inputs(dataclasses.replace(base, **{name: value}))
            return any(not np.array_equal(a, b) for a, b in zip(before, after))

        inert = [f.name for f in dataclasses.fields(RingWorldConfig)
                 if not changes_environment(RingWorldConfig(), f.name)]
        assert inert == []
