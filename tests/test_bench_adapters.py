"""The adapters that only the benchmark still calls, and what it reads of them.

``bench/`` calls ``channel_capacity``, ``feasible_empowerment``,
``median_empowerment_on_kernel``, ``validate_kernel`` and
``holonomy_config("paper", True)``, and reads the first four by attribute
(``agencykit.feasible_empowerment``, ``agencykit.validate_kernel``,
``empowerment.channel_capacity``, ``empowerment.median_empowerment_on_kernel``).
Nothing else calls them: each is pinned here to the engine's own entry point
it wraps, so that deleting them with this file, once the benchmark no longer
calls them, changes no result.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

import agencykit
from agencykit import empowerment, experiments
from agencykit.empowerment import (
    build_channel,
    channel_capacities,
    channel_capacity,
    feasible_empowerment,
    median_empowerment_on_kernel,
    median_empowerments,
)
from agencykit.environments import build_ringworld, build_schedule_trap
from agencykit.experiments import HOLONOMY, holonomy_config
from agencykit.kernel import ControlledKernel, ValidationReport, validate_kernel
from conftest import random_gate, random_kernel


def identity_lens(n: int) -> empowerment.Lens:
    return empowerment.Lens(name="id", project=np.arange(n), n_labels=n)


def assert_same_solve(a, b):
    assert (a.capacity_bits, a.gap, a.iterations) == (b.capacity_bits, b.gap, b.iterations)
    assert a.input_distribution.tobytes() == b.input_distribution.tobytes()


def test_the_benchmark_reads_them_where_it_always_did():
    assert agencykit.feasible_empowerment is feasible_empowerment
    assert agencykit.validate_kernel is validate_kernel
    assert empowerment.channel_capacity is channel_capacity
    assert empowerment.median_empowerment_on_kernel is median_empowerment_on_kernel
    assert experiments.holonomy_config is holonomy_config
    # the tracer binds arguments by these names
    assert list(inspect.signature(channel_capacity).parameters) == ["w", "tol"]
    assert list(inspect.signature(median_empowerment_on_kernel).parameters) == [
        "k", "gate", "kernel_set", "horizon", "f", "max_states", "tol"]


def test_no_adapter_is_exported():
    adapters = {"channel_capacity", "feasible_empowerment", "median_empowerment_on_kernel",
                "validate_kernel", "ValidationReport", "holonomy_config"}
    assert adapters.isdisjoint(agencykit.__all__)
    assert not hasattr(agencykit, "channel_capacity")


def test_channel_capacity_is_its_one_channel_batch(rng):
    channels = [np.zeros((0, 3)), np.array([[0.2, 0.8]])]
    for _ in range(8):
        rows, cols = rng.randint(2, 7), rng.randint(2, 5)
        channels.append(rng.dirichlet(np.ones(cols), size=rows)[rng.randint(0, rows, size=rows)])
    for w in channels:
        for tol in (1e-9, 1e-12):
            assert_same_solve(channel_capacity(w, tol=tol), channel_capacities([w], tol=tol)[0])


def test_feasible_empowerment_is_the_capacity_of_build_channel(rng):
    for _ in range(5):
        k, g, f = random_kernel(rng, 6, 3), random_gate(rng, 6, 3), identity_lens(6)
        for s in range(6):
            for horizon in (1, 2):
                alone, = channel_capacities([build_channel(k, g, s, horizon, f)])
                assert feasible_empowerment(k, g, s, horizon, f) == alone.capacity_bits
    trap = build_schedule_trap("wrong")
    bits = feasible_empowerment(trap.kernel, trap.gate, 0, 1, trap.output_lens)
    assert bits == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("max_states, tol", [(64, 1e-9), (2, 1e-12)])
def test_median_empowerment_on_kernel_is_its_one_problem_batch(rng, max_states, tol):
    for _ in range(4):
        k, g, f = random_kernel(rng, 6, 2), random_gate(rng, 6, 2), identity_lens(6)
        for mask in (rng.random(6) < 0.6, np.zeros(6, bool)):
            a = median_empowerment_on_kernel(k, g, mask, 2, f, max_states=max_states, tol=tol)
            b, = median_empowerments([(k, g, mask, 2, f)], max_states=max_states, tol=tol)
            assert (a.median_bits, a.values, a.selected_states, a.subset_rule) == (
                b.median_bits, b.values, b.selected_states, b.subset_rule)
            assert len(a.solved) == len(b.solved)
            for x, y in zip(a.solved, b.solved):
                assert_same_solve(x, y)


def test_validate_kernel_reports_a_constructed_kernel_ok():
    k = ControlledKernel(2, 1, probs=np.eye(2)[None])
    assert validate_kernel(k) == ValidationReport(ok=True, violations=[])
    env = build_ringworld(HOLONOMY)
    assert validate_kernel(env.kernel).ok


@pytest.mark.parametrize("weights", [
    [[[0.5], [1.0]]],
    [[[1.5], [1.0]]],
    [[[np.nan], [1.0]]],
], ids=["short_row", "long_row", "nan"])
def test_validate_kernel_reports_the_rule_the_constructor_raises(weights):
    # only lists that bypass the constructor can fail the report
    succ, weights = np.array([[[0], [1]]]), np.array(weights)
    with pytest.raises(ValueError) as raised:
        ControlledKernel(2, 1, succ=succ, weights=weights)
    k = ControlledKernel(2, 1, probs=np.eye(2)[None])
    object.__setattr__(k, "weights", weights)
    report = validate_kernel(k)
    assert report == ValidationReport(ok=False, violations=[{"rule": str(raised.value)}])


@pytest.mark.parametrize("protocol_on", [True, False])
def test_holonomy_config_is_holonomy_with_its_protocol(protocol_on):
    assert holonomy_config("paper", protocol_on) == replace(HOLONOMY, protocol_on=protocol_on)


@pytest.mark.parametrize("profile", ["nope", "fast", "", None])
def test_holonomy_config_refuses_other_profiles(profile):
    with pytest.raises(ValueError, match=f"unknown profile {profile!r}; only 'paper' exists"):
        holonomy_config(profile, True)
