from dataclasses import replace

import numpy as np
import pytest

from agencykit.experiments import ABLATIONS, ECONOMY, HOLONOMY, PAPER, learning_config
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import ControlledKernel
from agencykit.viability import SafetyPredicate


def random_kernel(rng: np.random.RandomState, n_states: int, n_actions: int,
                  max_support: int | None = None) -> ControlledKernel:
    """Random valid kernel with genuinely sparse successor supports."""
    max_support = max_support or max(2, n_states // 2)
    probs = np.zeros((n_actions, n_states, n_states))
    for a in range(n_actions):
        for s in range(n_states):
            k = rng.randint(1, max_support + 1)
            targets = rng.choice(n_states, size=k, replace=False)
            weights = rng.random(k) + 0.05
            probs[a, s, targets] = weights / weights.sum()
    return ControlledKernel(n_states=n_states, n_actions=n_actions, probs=probs)


def assert_constructs_again(k: ControlledKernel) -> None:
    """Build ``k`` again from its own successor lists; construction checks every kernel rule."""
    ControlledKernel(k.n_states, k.n_actions, succ=k.succ, weights=k.weights)


def random_gate(rng: np.random.RandomState, n_states: int, n_actions: int) -> FeasibilityGate:
    return FeasibilityGate(
        ledger=rng.randint(0, 4, size=n_states).astype(float),
        costs=rng.randint(0, 3, size=n_actions).astype(float),
    )


def random_safety(rng: np.random.RandomState, n_states: int) -> SafetyPredicate:
    return SafetyPredicate(safe=rng.random(n_states) < 0.7, name="random")


def sweep_ring_configs():
    """The 64 ring configs of the sweep exhibit, in grid order."""
    return [replace(ECONOMY, p_flip=round(float(p), 10), cost_repair=c)
            for p in np.linspace(0.0, 0.7, 8) for c in range(8)]


def exhibit_ring_configs():
    """The 76 ring configs of the holonomy, ablation, sweep, learning and packaging exhibits."""
    return [
        HOLONOMY,
        replace(HOLONOMY, protocol_on=False),
        *ABLATIONS.values(),
        *sweep_ring_configs(),
        learning_config(0.2),
        learning_config(0.0),
        PAPER,
    ]


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for one test; the returned list gains an entry per call."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def rng():
    return np.random.RandomState(20260809)
