"""Finite controlled stochastic kernels and their one-step algebra.

A controlled kernel is a row-stochastic tensor ``probs[a, s, s']`` giving the
probability of moving from state ``s`` to ``s'`` under action ``a``. All state
and action spaces are finite and indexed by integers; structured labels live in
the environment constructors, never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ControlledKernel:
    """Row-stochastic transition tensor indexed [action, state, next_state].

    Immutable after construction; all operations on it are pure functions.
    """

    n_states: int
    n_actions: int
    probs: np.ndarray
    action_names: tuple[str, ...] = ()
    state_labels: dict[int, tuple] | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if not self.action_names:
            object.__setattr__(
                self, "action_names", tuple(f"a{i}" for i in range(self.n_actions))
            )

    def action_index(self, name: str) -> int:
        return self.action_names.index(name)

    def to_dict(self) -> dict:
        """Key-value form for canonical serialization (see artifacts module)."""
        return {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "probs": self.probs.tolist(),
            "action_names": list(self.action_names),
        }


def kernel_from_dict(data: dict) -> ControlledKernel:
    """Rebuild a kernel from its serialized key-value form."""
    return ControlledKernel(
        n_states=int(data["n_states"]),
        n_actions=int(data["n_actions"]),
        probs=np.asarray(data["probs"], dtype=np.float64),
        action_names=tuple(data["action_names"]),
    )


@dataclass(frozen=True)
class Policy:
    """Stationary policy: per-state action choice or distribution over actions.

    ``table`` maps every state index to an action index (deterministic) or to a
    probability vector over actions (stochastic).
    """

    kind: str  # "deterministic" | "stochastic"
    table: dict[int, int] | dict[int, np.ndarray]

    def action_distribution(self, s: int, n_actions: int) -> np.ndarray:
        if self.kind == "deterministic":
            row = np.zeros(n_actions)
            row[self.table[s]] = 1.0
            return row
        row = np.asarray(self.table[s], dtype=np.float64)
        if row.shape != (n_actions,):
            raise ValueError(f"policy row for state {s} has wrong length")
        return row


@dataclass
class ValidationReport:
    """Outcome of kernel validation: ``ok`` or a list of indexed violations."""

    ok: bool
    violations: list[dict] = field(default_factory=list)


def validate_kernel(k: ControlledKernel) -> ValidationReport:
    """Check shape, nonnegativity, and row-stochasticity of a kernel.

    Report-style: never raises. Each violation records the (action, state)
    pair and the defect magnitude.
    """
    violations: list[dict] = []
    expected = (k.n_actions, k.n_states, k.n_states)
    if k.probs.shape != expected:
        violations.append(
            {"rule": "shape", "expected": expected, "actual": tuple(k.probs.shape)}
        )
        return ValidationReport(ok=False, violations=violations)

    neg = np.argwhere(k.probs < 0.0)
    for a, s, t in neg:
        violations.append(
            {
                "rule": "negative probability",
                "action": int(a),
                "state": int(s),
                "next_state": int(t),
                "value": float(k.probs[a, s, t]),
            }
        )

    row_sums = k.probs.sum(axis=2)
    bad = np.argwhere(np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE)
    for a, s in bad:
        violations.append(
            {
                "rule": "row sum",
                "action": int(a),
                "state": int(s),
                "row_sum": float(row_sums[a, s]),
                "defect": float(abs(row_sums[a, s] - 1.0)),
            }
        )

    return ValidationReport(ok=not violations, violations=violations)


def validate_distribution(d: np.ndarray, n_states: int, tol: float = ROW_SUM_TOLERANCE) -> None:
    """Raise ValueError unless ``d`` is a valid distribution over states."""
    d = np.asarray(d)
    if d.shape != (n_states,):
        raise ValueError(f"distribution has shape {d.shape}, expected ({n_states},)")
    if np.any(d < 0):
        raise ValueError("distribution has negative entries")
    if abs(float(d.sum()) - 1.0) > tol:
        raise ValueError(f"distribution sums to {d.sum()!r}, not 1")


def step_distribution(k: ControlledKernel, d: np.ndarray, a: int) -> np.ndarray:
    """One step of the kernel under action ``a``: ``d'[s'] = sum_s d[s] P[a,s,s']``.

    The result is returned as computed; renormalization is deliberately not
    performed (a result off by more than tolerance indicates a broken kernel).
    """
    if not 0 <= a < k.n_actions:
        raise IndexError(f"action index {a} out of range [0, {k.n_actions})")
    validate_distribution(d, k.n_states)
    return np.asarray(d, dtype=np.float64) @ k.probs[a]


def successor_support(k: ControlledKernel, s: int, a: int, epsilon: float = 0.0) -> set[int]:
    """States reachable from (s, a) with probability above ``epsilon``.

    The default support is exact: environment constructors build rows from
    rationals, so a zero is a true zero, and robust viability must see every
    nonzero-probability successor.
    """
    if not 0 <= s < k.n_states:
        raise IndexError(f"state index {s} out of range [0, {k.n_states})")
    if not 0 <= a < k.n_actions:
        raise IndexError(f"action index {a} out of range [0, {k.n_actions})")
    return set(np.flatnonzero(k.probs[a, s] > epsilon).tolist())


def support_tensor(k: ControlledKernel, epsilon: float = 0.0) -> np.ndarray:
    """Boolean tensor post[a, s, s'] = (P[a,s,s'] > epsilon), for batch set work."""
    return k.probs > epsilon


def policy_closure(k: ControlledKernel, mu: Policy) -> np.ndarray:
    """Induced one-step transition matrix ``T[s,s'] = sum_a mu(a|s) P[a,s,s']``."""
    missing = [s for s in range(k.n_states) if s not in mu.table]
    if missing:
        raise ValueError(f"policy does not cover states {missing[:5]}")
    weights = np.zeros((k.n_states, k.n_actions))
    for s in range(k.n_states):
        weights[s] = mu.action_distribution(s, k.n_actions)
        row_sum = weights[s].sum()
        if abs(row_sum - 1.0) > ROW_SUM_TOLERANCE:
            raise ValueError(f"policy row for state {s} sums to {row_sum}")
    # T[s, s'] = sum_a weights[s, a] * probs[a, s, s']
    return np.einsum("sa,ast->st", weights, k.probs)
