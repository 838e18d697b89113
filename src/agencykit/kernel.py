"""Finite controlled stochastic kernels and their one-step algebra.

A controlled kernel is stored as padded successor lists: ``succ[a, s, j]`` is
a state reachable from ``s`` under action ``a`` with probability
``weights[a, s, j]``. The width ``j`` is the largest fan-out of any
(action, state) pair; shorter rows are padded with slots of weight exactly 0
that point back at ``s``. A dense row-stochastic tensor ``probs[a, s, s']`` is
accepted as input, converted once and not kept. Every kernel is checked at
construction. States and actions are finite and integer-indexed; structured
labels live in the environment constructors, never here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

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
    # keep its mask small whatever S is; an empty tensor still scans one chunk
    values = probs.reshape(-1)
    flat = np.concatenate([
        start + np.flatnonzero(values[start : start + SCAN_CHUNK] != 0)
        for start in range(0, max(values.size, 1), SCAN_CHUNK)
    ])
    row, t = np.divmod(flat, n_states)
    succ, weights = pack_rows(row, t, values[flat], np.tile(np.arange(n_states), n_actions))
    shape = (n_actions, n_states, succ.shape[1])
    return succ.reshape(shape), weights.reshape(shape)


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= ``minimum``.

    A bool or a float is refused even when it equals an integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, not {value!r}")


def _check_state(s0, n_states: int) -> None:
    """Raise ValueError unless ``s0`` is an integer (not a bool), IndexError unless in [0, S)."""
    if isinstance(s0, bool) or not isinstance(s0, numbers.Integral):
        raise ValueError(f"state index must be an integer, not {s0!r}")
    if not 0 <= s0 < n_states:
        raise IndexError(f"state index {s0} out of range")


def _check_mask(name: str, mask, n_states: int | None = None) -> np.ndarray:
    """``mask`` as an array; ValueError naming ``name`` unless it is a 1-d bool mask.

    Of length ``n_states`` if given; numbers are refused, never coerced: 2 is not True.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.ndim != 1 or n_states not in (None, len(mask)):
        raise ValueError(f"{name} has shape {mask.shape} and dtype {mask.dtype}, not a "
                         f"{'1-d' if n_states is None else f'({n_states},)'} bool mask")
    return mask


def _check_rows(rows: np.ndarray, tol: float, message) -> None:
    """Raise ValueError unless each row (last axis) of ``rows`` is a distribution.

    The one row rule: entries finite and >= 0 (all rows first), then sums within
    ``tol`` of 1. ``message(*i, None)``, or ``message(*i, row_sum)`` for a sum,
    words the error of the first bad row ``i``.
    """
    # NaN fails every comparison; masks locating a bad row are built only on failure
    if not (rows.min(initial=0.0) >= 0 and rows.max(initial=0.0) < np.inf):
        i = np.argwhere(~((rows >= 0) & (rows < np.inf)).all(axis=-1))[0]
        raise ValueError(message(*i, None))
    sums = rows.sum(axis=-1)
    if np.abs(sums - 1.0).max(initial=0.0) > tol:
        i = tuple(np.argwhere(np.abs(sums - 1.0) > tol)[0])
        raise ValueError(message(*i, float(sums[i])))


def _freeze(obj, **fields) -> None:
    """Set ``fields`` on frozen ``obj``: arrays read-only in place, dicts as read-only copies."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif isinstance(value, dict):
            value = MappingProxyType(dict(value))
        object.__setattr__(obj, name, value)


def _check_kernel(n_states: int, n_actions: int, succ: np.ndarray, weights: np.ndarray) -> None:
    """Raise ValueError, naming the first offending (action, state), on a broken kernel rule.

    The rules: integer counts of at least one state and one action, both
    arrays of shape (n_actions, n_states, k), integer successors in
    [0, n_states), and rows passing ``_check_rows`` at ``ROW_SUM_TOLERANCE``.
    """
    _check_count("kernel n_states", n_states, 1)
    _check_count("kernel n_actions", n_actions, 1)
    if succ.dtype.kind not in "iu":
        raise ValueError(f"successors must be integers, not {succ.dtype}")
    if succ.ndim != 3 or succ.shape != weights.shape or succ.shape[:2] != (n_actions, n_states):
        raise ValueError(f"succ {succ.shape} and weights {weights.shape} must share one "
                         f"({n_actions}, {n_states}, k) shape")
    row = "kernel row (action {}, state {}) "
    if not (succ.min(initial=0) >= 0 and succ.max(initial=0) < n_states):
        a, s, _ = np.argwhere((succ < 0) | (succ >= n_states))[0]
        raise ValueError(row.format(a, s) + f"has a successor outside [0, {n_states})")
    _check_rows(weights, ROW_SUM_TOLERANCE, lambda a, s, total: row.format(a, s) + (
        "has a negative or non-finite weight" if total is None else f"sums to {total!r}"))


@dataclass(frozen=True, init=False)
class ControlledKernel:
    """Transition kernel as padded successor lists indexed [action, state, slot].

    Build it from a dense tensor (``probs=``) or from ``succ=`` and
    ``weights=``; either way the lists must pass ``_check_kernel``, or
    ValueError is raised. Immutable; all operations on it are pure functions.
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
        else:
            # copies: freezing them leaves the caller's arrays writable
            succ, weights = np.array(succ), np.array(weights, dtype=np.float64)
        _check_kernel(n_states, n_actions, succ, weights)
        _freeze(self, n_states=n_states, n_actions=n_actions,
                succ=succ.astype(np.int64, copy=False), weights=weights)


@dataclass(frozen=True)
class Policy:
    """Stationary policy: per-state action choice or distribution over actions.

    ``table`` maps every state index, and nothing else, to an action index
    (deterministic) or to a probability vector over actions (stochastic).
    """

    kind: str  # "deterministic" | "stochastic"
    table: dict[int, int] | dict[int, np.ndarray]

    def action_weights(self, n_states: int, n_actions: int) -> np.ndarray:
        """(S, A) array whose row ``s`` is the action distribution at state ``s``.

        The one check of a policy: raises ValueError on an unknown ``kind``, a
        missed state, a key outside range(S), an action that is no integer in
        range(A) (a float or bool is refused even when it equals an index) or a
        row that is no distribution.
        """
        if self.kind not in ("deterministic", "stochastic"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        missing = [s for s in range(n_states) if s not in self.table]
        if missing:
            raise ValueError(f"policy does not cover states {missing[:5]}")
        if len(self.table) > n_states:
            extra = next(s for s in self.table if s not in range(n_states))
            raise ValueError(f"policy covers state {extra!r}, which is not in range({n_states})")
        if self.kind == "deterministic":
            actions = [self.table[s] for s in range(n_states)]

            def is_action(a) -> bool:
                return (isinstance(a, (int, np.integer)) and not isinstance(a, bool)
                        and 0 <= a < n_actions)

            # types are checked apart from values, since 1.0 and True equal 1
            if not (all(t is not bool and issubclass(t, (int, np.integer))
                        for t in set(map(type, actions)))
                    and set(actions) <= set(range(n_actions))):
                s = next(s for s, a in enumerate(actions) if not is_action(a))
                raise ValueError(f"policy action {actions[s]} at state {s} "
                                 f"is not in range({n_actions})")
            return np.eye(n_actions)[actions]
        rows = [np.asarray(self.table[s], dtype=np.float64) for s in range(n_states)]
        bad = [s for s, row in enumerate(rows) if row.shape != (n_actions,)]
        if bad:
            raise ValueError(f"policy row for state {bad[0]} has wrong length")
        weights = np.array(rows).reshape(n_states, n_actions)  # (0, A) for no states
        _check_rows(weights, ROW_SUM_TOLERANCE, lambda s, _: f"policy row for state {s} is no "
                    f"distribution: {weights[s].tolist()}")
        return weights


@dataclass
class ValidationReport:
    """Outcome of ``validate_kernel`` (benchmark only): ``ok``, or the violated rule."""

    ok: bool
    violations: list[dict] = field(default_factory=list)


def validate_kernel(k: ControlledKernel) -> ValidationReport:
    """The constructor's check as a report; never raises (see ``_check_kernel``)."""
    try:
        _check_kernel(k.n_states, k.n_actions, k.succ, k.weights)
    except ValueError as exc:
        return ValidationReport(ok=False, violations=[{"rule": str(exc)}])
    return ValidationReport(ok=True)


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
    k: ControlledKernel,
    region: np.ndarray,
    lens=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Padded in-lists of every action over the sources in ``region``.

    ``region`` holds distinct states, and sources are numbered by their
    position in it, so the lists push an (len(region), m) array. Row
    ``a * T + t`` lists the sources that reach target ``t`` of ``T`` under
    action ``a``. Without a lens the targets are the region's own states,
    numbered like the sources, and slots leaving the region are dropped;
    with one they are its ``n_labels`` labels, each successor state counting
    for its label, which gives a step straight into labels. A source that
    reaches one target through several successors gets one slot carrying
    their summed weight, and padding slots have weight 0 and source 0.
    Target ``t``'s sources are sorted by offset ``(src - t * S // T) mod S``
    in state numbers: where shifting states by ``S / B`` maps the kernel onto
    itself and raises the lens labels by ``T / B`` (``_block_period``), that
    anchor moves by exactly ``S / B``, so rollouts are translation-exact.
    Every kept slot, and its order, is that of the lists over all S states.
    """
    region = np.asarray(region, dtype=np.int64)
    a, i, j = np.nonzero(k.weights[:, region])
    src = region[i]
    w, state = k.weights[a, src, j], k.succ[a, src, j]
    if lens is None:
        local = np.full(k.n_states, -1)
        local[region] = np.arange(len(region))
        keep = local[state] >= 0
        a, i, src, w, state = a[keep], i[keep], src[keep], w[keep], state[keep]
        target, anchor, n_out = local[state], state, len(region)
    else:
        target, n_out = lens.project[state], lens.n_labels
        anchor = target * k.n_states // n_out
    dst = a * n_out + target
    order = np.lexsort(((src - anchor) % k.n_states, dst))
    i, dst, w = i[order], dst[order], w[order]
    first = np.ones(len(dst), dtype=bool)
    first[1:] = (dst[1:] != dst[:-1]) | (i[1:] != i[:-1])
    starts = np.flatnonzero(first)
    return pack_rows(
        dst[starts],
        i[starts],
        np.add.reduceat(w, starts),
        np.zeros(k.n_actions * n_out, dtype=np.int64),
    )


def _block_period(succ: np.ndarray, weights: np.ndarray, labels: np.ndarray, n_labels: int,
                  *fixed: np.ndarray) -> int:
    """Smallest state shift ``P = S / B`` that maps the model onto itself.

    ``B`` runs over the divisors of ``gcd(S, n_labels)``, most blocks first,
    and ``P`` qualifies when each block ``y`` of ``P`` states is block 0 moved
    by ``y * P``: labels (one per state) rise by ``y * n_labels / B`` mod
    ``n_labels``, the cheap test, so it comes first; every ``fixed`` per-state
    array is equal block by block; successors (states on axis -2) shift by
    ``y * P``, with equal weights. ``B = 1``, ``P = S``, always qualifies.
    Entries compare by value, since kernels and gates hold no NaN and a
    ``-0.0`` weight or cost acts exactly like ``0.0``. ``predecessor_lists``'
    in-list order is the other half of this translation convention.
    """
    n, most = len(labels), np.gcd(len(labels), n_labels)
    counts = np.arange(most, 1, -1)
    for blocks in counts[most % counts == 0].tolist():
        period, y = n // blocks, np.arange(blocks)[:, None]
        raised = (labels[:period] + y * (n_labels // blocks)) % n_labels
        if not ((labels.reshape(raised.shape) == raised).all()
                and all((a.reshape(raised.shape) == a[:period]).all() for a in fixed)):
            continue
        shape, y = (*succ.shape[:-2], blocks, period, succ.shape[-1]), y[:, None] * period
        moved = succ.reshape(shape) - succ[..., None, :period, :]  # in (-S, S), so no modulo
        if ((weights.reshape(shape) == weights[..., None, :period, :]).all()
                and ((moved == y) | (moved == y - n)).all()):
            return period
    return n


def pull(lists: tuple[np.ndarray, np.ndarray], D: np.ndarray) -> np.ndarray:
    """Push the columns of D (S, m) one step under every action at once.

    Returns (A * targets, m) with ``out[r] = sum_j w[r, j] D[src[r, j]]``.
    Only slots whose source row of D is nonzero are visited; each row adds
    them one at a time in slot order. A kernel's weights are nonnegative by
    construction, so with nonnegative columns every term is >= 0, a skipped
    term would have added an exact 0, and a column's result does not depend
    on which other columns travel with it: a rollout from one start state is
    bit-identical to its column of a batched rollout. Each temporary is at
    most (A * targets, m), whatever the in-degree.
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
    """Successor lists of the policy-closed chain, shape (S, width) each.

    State ``s`` keeps, in (action, slot) order, each nonzero
    ``mu(a|s) * P[a, s, succ[a, s, j]]``; shorter rows are padded with
    weight-0 slots pointing back at ``s``, as in a kernel.
    """
    action_weights = mu.action_weights(k.n_states, k.n_actions)
    weights = action_weights.T[:, :, None] * k.weights
    s, a, j = np.nonzero(weights.transpose(1, 0, 2))
    return pack_rows(s, k.succ[a, s, j], weights[a, s, j], np.arange(k.n_states))
