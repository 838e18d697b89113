"""Finite controlled stochastic kernels and their one-step algebra.

A controlled kernel is stored as padded successor lists: ``succ[a, s, j]`` is
a state reachable from ``s`` under action ``a`` with probability
``weights[a, s, j]``. The width ``j`` is the largest fan-out of any
(action, state) pair; shorter rows are padded with slots of weight exactly 0
that point back at ``s``. A dense row-stochastic tensor ``probs[a, s, s']`` is
accepted as input, converted once and not kept. All state and action spaces
are finite and indexed by integers; structured labels live in the environment
constructors, never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOLERANCE = 1e-12
SCAN_CHUNK = 1 << 16  # entries of a dense tensor scanned per nonzero search


def pack_rows(
    row: np.ndarray, col: np.ndarray, val: np.ndarray, fill: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack entries grouped by ``row`` into padded (n_rows, width) arrays.

    Entries of one row must be contiguous; they keep their order. ``width``
    is the longest row, and row ``r``'s unused slots hold column ``fill[r]``
    with value 0.
    """
    counts = np.bincount(row, minlength=len(fill))
    width = max(1, int(counts.max(initial=0)))
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.repeat(np.asarray(fill, dtype=np.int64)[:, None], width, axis=1)
    vals = np.zeros((len(fill), width))
    cols[row, slot] = col
    vals[row, slot] = val
    return cols, vals


def _successor_lists(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded successor lists of a dense (A, S, S) tensor, in target order."""
    n_actions, n_states, _ = probs.shape
    # flat indices are row-major, so each (a, s) row's entries are contiguous;
    # a bool scan is several times faster than a float one, and fixed chunks
    # keep its mask small whatever S is
    values = probs.reshape(-1)
    flat = np.concatenate([
        start + np.flatnonzero(values[start : start + SCAN_CHUNK] != 0)
        for start in range(0, values.size, SCAN_CHUNK)
    ])
    row, t = np.divmod(flat, n_states)
    succ, weights = pack_rows(row, t, values[flat], np.tile(np.arange(n_states), n_actions))
    return succ.reshape(n_actions, n_states, -1), weights.reshape(n_actions, n_states, -1)


@dataclass(frozen=True, init=False)
class ControlledKernel:
    """Transition kernel as padded successor lists indexed [action, state, slot].

    Build it from a dense tensor (``probs=``) or from ``succ=`` and
    ``weights=`` directly. Immutable after construction; all operations on it
    are pure functions.
    """

    n_states: int
    n_actions: int
    succ: np.ndarray
    weights: np.ndarray

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        probs: np.ndarray | None = None,
        *,
        succ: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ):
        if (probs is None) == (succ is None or weights is None):
            raise ValueError("give either probs or both succ and weights")
        if probs is not None:
            probs = np.asarray(probs, dtype=np.float64)
            if probs.ndim != 3 or probs.shape[1] != probs.shape[2]:
                raise ValueError(f"probs must have shape (A, S, S), got {probs.shape}")
            succ, weights = _successor_lists(probs)
        succ = np.asarray(succ, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if succ.ndim != 3 or succ.shape != weights.shape:
            raise ValueError(
                f"succ {succ.shape} and weights {weights.shape} must share one (A, S, k) shape"
            )
        succ.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "n_actions", n_actions)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class Policy:
    """Stationary policy: per-state action choice or distribution over actions.

    ``table`` maps every state index to an action index (deterministic) or to a
    probability vector over actions (stochastic).
    """

    kind: str  # "deterministic" | "stochastic"
    table: dict[int, int] | dict[int, np.ndarray]

    def action_weights(self, n_states: int, n_actions: int) -> np.ndarray:
        """(S, A) array whose row ``s`` is the action distribution at state ``s``."""
        missing = [s for s in range(n_states) if s not in self.table]
        if missing:
            raise ValueError(f"policy does not cover states {missing[:5]}")
        if self.kind == "deterministic":
            weights = np.zeros((n_states, n_actions))
            weights[np.arange(n_states), [self.table[s] for s in range(n_states)]] = 1.0
            return weights
        rows = [np.asarray(self.table[s], dtype=np.float64) for s in range(n_states)]
        bad = [s for s, row in enumerate(rows) if row.shape != (n_actions,)]
        if bad:
            raise ValueError(f"policy row for state {bad[0]} has wrong length")
        return np.stack(rows)


@dataclass
class ValidationReport:
    """Outcome of kernel validation: ``ok`` or a list of indexed violations."""

    ok: bool
    violations: list[dict] = field(default_factory=list)


def validate_kernel(k: ControlledKernel) -> ValidationReport:
    """Check shape, successor range, nonnegativity, and row-stochasticity.

    Report-style: never raises. Each violation records the (action, state)
    pair and the defect magnitude.
    """
    violations: list[dict] = []
    expected = (k.n_actions, k.n_states)
    if k.succ.shape[:2] != expected:
        violations.append(
            {"rule": "shape", "expected": expected, "actual": tuple(k.succ.shape[:2])}
        )
        return ValidationReport(ok=False, violations=violations)

    for a, s, j in np.argwhere((k.succ < 0) | (k.succ >= k.n_states)):
        violations.append(
            {
                "rule": "successor out of range",
                "action": int(a),
                "state": int(s),
                "next_state": int(k.succ[a, s, j]),
            }
        )

    for a, s, j in np.argwhere(k.weights < 0.0):
        violations.append(
            {
                "rule": "negative probability",
                "action": int(a),
                "state": int(s),
                "next_state": int(k.succ[a, s, j]),
                "value": float(k.weights[a, s, j]),
            }
        )

    row_sums = k.weights.sum(axis=2)
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


def check_fits(k: ControlledKernel, gate=None, safe=None, lens=None) -> None:
    """Raise ValueError unless a gate, safety predicate or lens is sized for ``k``.

    numpy would otherwise broadcast a one-entry ledger, cost table, safety
    mask or lens projection over every state or action.
    """
    for name, owner, attr, n in (
        ("gate ledger", gate, "ledger", k.n_states),
        ("gate costs", gate, "costs", k.n_actions),
        ("safety mask", safe, "safe", k.n_states),
        ("lens projection", lens, "project", k.n_states),
    ):
        if owner is not None and getattr(owner, attr).shape != (n,):
            raise ValueError(f"{name} has shape {getattr(owner, attr).shape}, not ({n},)")


def predecessor_lists(
    k: ControlledKernel, target_of: np.ndarray | None = None, n_targets: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Padded in-lists of every action: each target's sources and their weights.

    Row ``a * n_targets + t`` lists the sources that reach target ``t`` under
    action ``a``. ``target_of`` maps successor states to targets: the
    identity by default, a lens projection for a step straight into labels.
    A source that reaches one target through several successors gets one slot
    carrying their summed weight, and padding slots have weight 0 and source 0.
    Target ``t``'s sources are sorted by offset ``(src - t * S // n_targets) mod
    S``: where shifting states by ``S / n_targets`` maps the kernel onto itself
    and ``target_of`` to ``target_of + 1``, rollouts are translation-exact.
    """
    if target_of is None:
        target_of, n_targets = np.arange(k.n_states), k.n_states
    a, src, j = np.nonzero(k.weights)
    target = np.asarray(target_of)[k.succ[a, src, j]]
    dst = a * n_targets + target
    w = k.weights[a, src, j]
    order = np.lexsort(((src - target * k.n_states // n_targets) % k.n_states, dst))
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(len(dst), dtype=bool)
    first[1:] = (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])
    starts = np.flatnonzero(first)
    return pack_rows(
        dst[starts],
        src[starts],
        np.add.reduceat(w, starts),
        np.zeros(k.n_actions * n_targets, dtype=np.int64),
    )


def pull(lists: tuple[np.ndarray, np.ndarray], D: np.ndarray) -> np.ndarray:
    """Push the columns of D (S, m) one step under every action at once.

    Returns (A * targets, m) with ``out[r] = sum_j w[r, j] D[src[r, j]]``.
    Only slots whose source row of D is nonzero are visited; each row adds
    them one at a time in slot order. With nonnegative weights and columns
    every term is >= 0, so a skipped term would have added an exact 0, and a
    column's result does not depend on which other columns travel with it:
    a rollout from one start state is bit-identical to its column of a
    batched rollout. Each temporary is at most (A * targets, m), whatever
    the in-degree.
    """
    use = (lists[1] != 0) & D.any(axis=1)[lists[0]]
    counts = use.sum(axis=1)
    live = np.flatnonzero(counts)
    # longest rows first, so slot j is used by a prefix of the live rows
    live = live[np.argsort(-counts[live], kind="stable")]
    counts = counts[live]
    # each row's used slots move to the front, in their original order
    slots = np.argsort(~use[live], axis=1, kind="stable")
    rows = np.arange(len(live))[:, None]
    sources, weights = lists[0][live][rows, slots], lists[1][live][rows, slots]
    acc = weights[:, 0, None] * D[sources[:, 0]]
    for j in range(1, int(counts.max(initial=1))):
        n = np.count_nonzero(counts > j)
        acc[:n] += weights[:n, j, None] * D[sources[:n, j]]
    out = np.zeros((len(lists[0]), D.shape[1]))
    out[live] = acc
    return out


def policy_successors(k: ControlledKernel, mu: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Successor lists of the policy-closed chain, shape (S, A*k) each.

    Slot (a, j) of state ``s`` carries ``mu(a|s) * P[a, s, succ[a, s, j]]``;
    actions the policy never takes at ``s`` leave weight-0 slots.
    """
    action_weights = mu.action_weights(k.n_states, k.n_actions)
    row_sums = action_weights.sum(axis=1)
    bad = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE)
    if bad.size:
        raise ValueError(f"policy row for state {int(bad[0])} sums to {row_sums[bad[0]]}")
    succ = k.succ.transpose(1, 0, 2).reshape(k.n_states, -1)
    weights = (action_weights.T[:, :, None] * k.weights).transpose(1, 0, 2)
    return succ, weights.reshape(k.n_states, -1)
