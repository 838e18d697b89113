"""Tests of the benchmark's own parts: input generation, tracer, reference check.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import agencykit  # noqa: E402
import agencykit.cli  # noqa: E402
import agencykit.empowerment  # noqa: E402
import agencykit.experiments  # noqa: E402
import calibrate  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from agencykit.environments import build_schedule_trap  # noqa: E402


def _instance(seed: int, n_states: int = 256) -> workloads.RandomInstance:
    return workloads.random_instance(np.random.default_rng([seed, 0]), n_states)


class TestRandomKernels:
    def test_same_seed_gives_byte_identical_kernels(self):
        a, b = _instance(7), _instance(7)
        assert workloads.dense_probs(a).tobytes() == workloads.dense_probs(b).tobytes()
        for name in ("ledger", "safe", "output_labels", "macro_labels", "policy"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_other_seed_gives_other_kernel(self):
        assert workloads.dense_probs(_instance(7)).tobytes() != (
            workloads.dense_probs(_instance(8)).tobytes()
        )

    def test_rows_sum_to_exactly_one(self):
        probs = workloads.dense_probs(_instance(3))
        assert np.all(probs.sum(axis=2) == 1.0)
        assert agencykit.validate_kernel(
            agencykit.ControlledKernel(n_states=256, n_actions=4, probs=probs)
        ).ok

    def test_generator_shape(self):
        inst = _instance(4)
        n = inst.n_states
        fanout = (inst.numer > 0).sum(axis=2)
        assert fanout.min() >= 1 and fanout.max() <= workloads.RANDOM_MAX_FANOUT
        step = (inst.succ - np.arange(n)[None, :, None] + n // 2) % n - n // 2
        assert np.abs(step).max() <= workloads.RANDOM_BAND
        assert set(np.bincount(inst.macro_labels)) == {workloads.RANDOM_FIBER_SIZE}
        assert set(inst.ledger.tolist()) <= {0.0, 1.0, 2.0, 3.0}

    def test_engine_results_pass_invariants_and_a_broken_kernel_fails(self):
        inst = _instance(5, n_states=64)
        result, detail = workloads.random_op(inst)
        tol = workloads.EMPOWERMENT_TOL
        assert workloads.invariant_failures(inst, result, detail, tol) == []
        unsafe = dict(detail, kernel=detail["kernel"] | ~inst.safe)
        assert any("safe set" in f
                   for f in workloads.invariant_failures(inst, result, unsafe, tol))
        assert not np.array_equal(detail["kernel"], inst.safe)
        too_big = dict(detail, kernel=inst.safe.copy())
        assert any("fixed point" in f
                   for f in workloads.invariant_failures(inst, result, too_big, tol))
        too_many_bits = copy.deepcopy(result)
        too_many_bits["bits"]["values"][0] = 5.0
        assert workloads.invariant_failures(inst, too_many_bits, detail, tol)


class TestTracer:
    def test_self_times_on_synthetic_nest(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 5.0, 9.0, 0),
            ("b.child", 6.0, 7.0, 2),
            ("c", 9.5, 10.0, 0),
            ("other_root", 11.0, 12.0, -1),
        ]
        assert tracer.self_times(spans) == pytest.approx([2.5, 3.0, 3.0, 1.0, 0.5, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 12.0, 0)]
        assert tracer.self_times(spans)[0] == pytest.approx(1.0)

    def test_wrapped_calls_nest_with_a_fake_clock(self):
        ticks = iter(range(100))
        t = tracer.Tracer(clock=lambda: float(next(ticks)))

        def inner(x):
            return x + 1

        def outer(x):
            return wrapped_inner(x) * 2

        wrapped_inner = t.wrap(inner, "inner")
        assert t.wrap(outer, "outer")(1) == 4
        names = [(name, parent) for name, _, _, parent in t.spans]
        assert names == [
            ("outer", -1), ("inner", 0), ("trace.observe", 0), ("trace.observe", -1)
        ]
        # one tick each between outer's begin, inner, the tracer's counting
        # and outer's end: three of them are outer's own
        assert tracer.self_times(t.spans) == [3.0, 1.0, 1.0, 1.0]

    def test_install_patches_every_lookup_and_uninstall_restores(self):
        original = agencykit.experiments.run_exhibit
        t = tracer.Tracer()
        t.install()
        try:
            assert agencykit.cli.run_exhibit is not original
            assert agencykit.experiments.run_exhibit is agencykit.cli.run_exhibit
            env = build_schedule_trap("wrong")
            bits = agencykit.feasible_empowerment(env.kernel, env.gate, 0, 1, env.output_lens)
        finally:
            t.uninstall()
        assert agencykit.cli.run_exhibit is original
        assert agencykit.experiments.run_exhibit is original
        assert bits == pytest.approx(1.0)
        names = [(name, parent) for name, _, _, parent in t.spans if name != "trace.observe"]
        assert names == [
            ("empowerment.feasible_empowerment", -1),
            ("empowerment.channel_capacity", 0),
        ]
        layers = t.layer_metrics()
        assert layers["empowerment.channel_capacity.calls"] == 1
        assert layers["empowerment.channel_capacity.rows_total"] == 2
        assert layers["empowerment.channel_capacity.uncertified"] == 0

    def test_cyclic_channel_key_ignores_label_rotation(self):
        rng = np.random.default_rng(1)
        w = rng.random((5, 7))
        w /= w.sum(axis=1, keepdims=True)
        rolled = np.roll(w, 3, axis=1)
        assert tracer.cyclic_channel_key(w) == tracer.cyclic_channel_key(rolled)
        assert tracer.channel_key(w) != tracer.channel_key(rolled)
        assert tracer.cyclic_channel_key(w) != tracer.cyclic_channel_key(w[:, ::-1])


class TestSpeedClock:
    @pytest.fixture
    def fake_time(self, monkeypatch):
        """A clock that only moves when told to; each probe takes ``probe_s``."""
        state = {"now": 0.0, "probe_s": 1.0}

        def probe(clock):
            state["now"] += state["probe_s"]
            return state["probe_s"]

        monkeypatch.setattr(calibrate, "probe", probe)
        return state

    def test_probes_are_left_out_and_segments_count_in_local_probe_times(self, fake_time):
        clock = calibrate.SpeedClock(clock=lambda: fake_time["now"])
        clock.cut(force_probe=True)            # probe 1.0
        fake_time["now"] += 10.0               # segment 0: 10 s
        fake_time["probe_s"] = 2.0
        clock.cut(force_probe=True)            # probe 2.0
        fake_time["now"] += 0.01               # segment 1: too soon to probe again
        clock.cut()
        fake_time["now"] += 4.0                # segment 2
        clock.cut(force_probe=True)            # probe 2.0
        assert clock.segments == pytest.approx([10.0, 0.01, 4.0])
        assert [i for i, _ in clock.probes] == [0, 1, 3]
        # segment 0 between probes of 1 and 2 s, the others between 2 and 2
        assert clock.units() == pytest.approx(10.0 / 1.5 + 0.01 / 2.0 + 4.0 / 2.0)

    def test_wraps_targets_and_restores_them(self):
        original = agencykit.empowerment.channel_capacity
        clock = calibrate.SpeedClock()
        clock.start()
        try:
            assert agencykit.empowerment.channel_capacity is not original
            env = build_schedule_trap("wrong")
            bits = agencykit.feasible_empowerment(env.kernel, env.gate, 0, 1, env.output_lens)
        finally:
            clock.stop()
        assert agencykit.empowerment.channel_capacity is original
        assert bits == pytest.approx(1.0)
        # feasible_empowerment and the channel_capacity inside it: 4 cuts
        # between the opening and closing ones, so 5 segments
        assert len(clock.segments) == 5
        assert clock.units() > 0

    def test_fast_probe_time_is_a_low_quantile(self):
        probes = [1.0] * 10 + [2.0] * 90
        assert calibrate.fast_probe_s(probes) == pytest.approx(1.0)


class TestReference:
    @pytest.fixture
    def stored(self):
        ref = reference.load()
        return ref, ref["workloads"]["exhibits"]["ablations"]

    def test_reference_matches_itself(self, stored):
        ref, expected = stored
        assert reference.compare(expected, copy.deepcopy(expected), ref["capacity_tol_bits"]) == []

    def test_perturbed_kernel_size_is_rejected(self, stored):
        ref, expected = stored
        actual = copy.deepcopy(expected)
        actual["exact"]["full"]["kernel_size"] += 1
        assert reference.compare(expected, actual, ref["capacity_tol_bits"])

    def test_capacity_tolerance_is_twice_the_solver_tolerance(self, stored):
        ref, expected = stored
        tol = ref["capacity_tol_bits"]
        within, beyond = copy.deepcopy(expected), copy.deepcopy(expected)
        within["bits"]["full"] += 1.5 * tol
        beyond["bits"]["full"] += 3 * tol
        assert reference.compare(expected, within, tol) == []
        assert reference.compare(expected, beyond, tol)

    def test_check_marks_the_perturbed_op_failed(self):
        ref = reference.load()
        ops = [
            workloads.Op(name, result=copy.deepcopy(result))
            for name, result in ref["workloads"]["ring-ladder"].items()
        ]
        ops[0].result["exact"]["defects"]["always_right"] += 0.25
        reference.check("ring-ladder", ops, ref)
        assert ops[0].failures and not any(op.failures for op in ops[1:])
