"""Action-sequence channels, channel capacity, and empowerment aggregation.

Empowerment at (s0, H, f) is the channel capacity of the map from length-H
action sequences to the lens output at time H. Feasible empowerment restricts
the input alphabet to sequences whose total cost fits the initial budget.
Capacity is solved by Blahut-Arimoto with certified upper/lower bounds; all
logs are base 2 and 0*log(0) = 0 throughout.

Every output distribution comes from one rollout, ``_batched_sequence_rows``,
cut into channels by ``_feasible_channels``; a single sequence's distribution
is a row of ``build_channel``. Medians are computed by ``median_empowerments``,
which rolls out one state per orbit of the shortest self-mapping state shift
(``_block_period``) and solves a whole batch of them in one
``channel_capacities`` call.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from agencykit.feasibility import FeasibilityGate, sequence_costs
from agencykit.kernel import (ControlledKernel, _block_period, _check_count, _check_mask,
                              _check_rows, _check_state, _freeze, check_fits,
                              predecessor_lists, pull)

ROW_TOLERANCE = 1e-9

# default capacity stop tolerance in bits, the most states a median solves
# and the iteration cap of every Blahut-Arimoto solve
EMPOWERMENT_TOL = 1e-9
MAX_MEDIAN_STATES = 64
BA_MAX_ITER = 10000
SMALLEST_NORMAL = np.finfo(np.float64).tiny  # 2**-1022


@dataclass(frozen=True)
class Lens:
    """Total projection from state indices to a finite label set.

    ``project`` is a 1-d integer array (bools and floats are refused, never
    truncated) with labels in ``[0, n_labels)``, and ``n_labels`` an integer
    >= 1; anything else raises ValueError.
    """

    name: str
    project: np.ndarray
    n_labels: int

    def __post_init__(self):
        # a copy: freezing it leaves the caller's array writable
        n_labels, project = self.n_labels, np.array(self.project)
        _check_count("lens n_labels", n_labels, 1)
        if project.ndim != 1 or project.dtype.kind not in "iu":
            raise ValueError(f"lens projection must be a 1-d integer label array, "
                             f"not {project.dtype} of shape {project.shape}")
        if np.any(project < 0) or np.any(project >= n_labels):
            raise ValueError("lens labels out of range")
        _freeze(self, project=project.astype(np.int64, copy=False))


@dataclass
class CapacityResult:
    """Certified capacity estimate with its achieving input distribution."""

    capacity_bits: float
    input_distribution: np.ndarray
    iterations: int
    gap: float


def build_channel(
    k: ControlledKernel,
    gate: FeasibilityGate,
    s0: int,
    horizon: int,
    f: Lens,
) -> np.ndarray:
    """Channel matrix from ``s0``: one output-label row per budget-feasible sequence.

    Rows follow ``feasible_sequences(gate, s0, horizon)`` order; a zero-row
    channel is legal. It is cut from ``s0``'s own rollout. ``s0`` must be an
    integer state index (``_check_state``).
    """
    _check_state(s0, k.n_states)
    check_fits(k, gate, lens=f)
    return _feasible_channels(k, gate, [s0], horizon, f)[0]


def channel_capacity(
    w: np.ndarray,
    tol: float = EMPOWERMENT_TOL,
) -> CapacityResult:
    """Channel capacity in bits of one channel matrix (see ``channel_capacities``).

    Kept for the benchmark's callers; ROADMAP item 2 deletes it.
    """
    return channel_capacities([w], tol=tol)[0]


def channel_capacities(
    channels: Iterable[np.ndarray],
    tol: float = EMPOWERMENT_TOL,
) -> list[CapacityResult]:
    """Channel capacities in bits via Blahut-Arimoto alternating maximization.

    A channel stops when its certified bound gap max_x D(W_x || q) - I(p; W)
    drops to ``tol`` bits; one that reaches the fixed cap of ``BA_MAX_ITER``
    iterations, read at each call, reports its last gap.
    Every row must be finite, nonnegative and sum to 1 within
    ``ROW_TOLERANCE``, or ValueError names the first that is not. Channels
    with zero or one row have capacity zero by convention.

    Exact duplicate rows are merged before iterating, since capacity depends
    only on the set of distinct rows. The returned ``input_distribution``
    still has one entry per original row: each merged row's mass is split
    evenly over its copies, which leaves I(p; W) and the gap unchanged.

    Channels are read one at a time and only their distinct rows are kept.
    All channels iterate together in one flat stack of those rows, each
    channel's rows contiguous, and leave it once they stop. Every step is
    elementwise, per row or per channel segment, so a channel's arithmetic and
    result do not depend on which other channels share the call.

    After each normalisation, input mass below 2**-1022 (the smallest normal
    double) is set to exactly 0. Such a row adds less than 2**-1022 to any
    output marginal, and q is floored at 1e-300 anyway, so the flush does not
    move the other rows' iterates. It cannot certify a wrong value either:
    the upper bound is still the maximum of D(W_x || q) over every row,
    flushed ones included, so a row the optimum needed could only hold the
    gap open. The flush exists because arithmetic on subnormal operands runs
    several times slower and numpy has no flush-to-zero mode.
    """
    # bools are refused; a NaN tol fails ``0 < tol`` and would otherwise never stop a solve
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, not {tol!r}")
    results: list[CapacityResult | None] = []
    blocks, merges = [], []
    for w in channels:
        matrix = np.asarray(w, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("a channel must be a 2-d matrix")
        if results and matrix.shape[1] != n_labels:
            raise ValueError("channels must share one output alphabet")
        n_labels = matrix.shape[1]
        _check_rows(matrix, ROW_TOLERANCE, lambda r, total: f"channel row {r} sums to {total}"
                    if total is not None else f"channel row {r} has an entry that is not finite "
                    f"and >= 0: {np.array2string(matrix[r], threshold=8)}")
        if len(matrix) <= 1:
            results.append(CapacityResult(
                capacity_bits=0.0,
                input_distribution=np.ones(len(matrix)),
                iterations=0,
                gap=0.0,
            ))
            continue
        # one opaque item per row, so np.unique compares whole rows bytewise;
        # this is exact and several times faster than np.unique(matrix, axis=0)
        row_items = np.ascontiguousarray(matrix).view(np.dtype((np.void, matrix[0].nbytes)))
        _, first, copy_of, copies = np.unique(
            row_items.ravel(), return_index=True, return_inverse=True, return_counts=True
        )
        blocks.append(matrix[first])
        merges.append((len(results), copy_of, copies))
        results.append(None)
    if not blocks:
        return results

    counts = np.array([len(b) for b in blocks])
    W = np.concatenate(blocks)
    del blocks
    logW = np.log2(W, out=np.zeros_like(W), where=W > 0)
    row_neg_entropy = np.einsum("ij,ij->i", W, logW)
    live = np.arange(len(counts))
    p = np.repeat(1.0 / counts, counts)
    starts = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(len(counts)), counts)
    for iterations in range(1, BA_MAX_ITER + 1):
        q = np.add.reduceat(p[:, None] * W, starts)
        # flooring q makes a supported column with zero marginal register as a
        # huge divergence (instead of dropping out of D), so the update pushes
        # input mass back toward that row; since logq stays finite and W is 0
        # off its support, the row dot sums over supported columns only
        logq = np.log2(np.maximum(q, 1e-300))
        D = row_neg_entropy - np.einsum("ij,ij->i", W, logq.take(seg, axis=0))
        lower = np.add.reduceat(p * D, starts)
        upper = np.maximum.reduceat(D, starts)
        gap = upper - lower
        stop = gap <= tol
        if iterations == BA_MAX_ITER:
            stop[:] = True
        if np.count_nonzero(stop):
            for j in np.flatnonzero(stop):
                owner, copy_of, copies = merges[live[j]]
                results[owner] = CapacityResult(
                    capacity_bits=max(float(lower[j]), 0.0),
                    input_distribution=(p[starts[j] : starts[j] + counts[j]] / copies)[copy_of],
                    iterations=iterations,
                    gap=float(gap[j]),
                )
            go = ~stop
            if not np.count_nonzero(go):
                break
            rows = np.repeat(go, counts)
            W, row_neg_entropy, p, D = W[rows], row_neg_entropy[rows], p[rows], D[rows]
            live, counts, upper = live[go], counts[go], upper[go]
            starts = np.cumsum(counts) - counts
            seg = np.repeat(np.arange(len(counts)), counts)
        # multiplicative update p <- p * 2^D, normalized per channel
        scaled = p * np.exp2(D - upper.take(seg))
        p = scaled / np.add.reduceat(scaled, starts).take(seg)
        # flush subnormal input mass to zero (see the docstring)
        np.putmask(p, p < SMALLEST_NORMAL, 0.0)
    return results


def feasible_empowerment(
    k: ControlledKernel,
    gate: FeasibilityGate,
    s0: int,
    horizon: int,
    f: Lens,
) -> float:
    """Capacity (bits), to ``EMPOWERMENT_TOL``, of the budget-restricted channel from ``s0``.

    Kept for the benchmark's callers; ROADMAP item 2 deletes it.
    """
    return channel_capacity(build_channel(k, gate, s0, horizon, f)).capacity_bits


@dataclass
class MedianEmpowermentResult:
    """Lower-median empowerment over a deterministically selected state subset.

    ``solved`` holds one certified solve per distinct channel, that is per
    orbit representative of the selected states; it is empty for an empty
    kernel. ``experiments.solver_block`` reduces it.
    """

    median_bits: float
    selected_states: list[int]
    values: list[float]
    subset_rule: str
    solved: list[CapacityResult]


def select_kernel_subset(mask: np.ndarray, max_states: int) -> tuple[np.ndarray, str]:
    """Deterministic subset rule over a state mask: all states when few, else evenly strided.

    Of the n masked states, ascending, positions floor(i * n / max_states) for
    i = 0..max_states-1 are kept when n > ``max_states``, an integer >= 1.
    ``mask`` must be a 1-d bool array (``_check_mask``). Returns the selected
    states and the rule's name: ``empty_kernel``, ``all_states`` or
    ``strided_<max_states>``.
    """
    _check_count("max_states", max_states, 1)
    indices = np.flatnonzero(_check_mask("state mask", mask, np.size(mask)))
    n = len(indices)
    if n <= max_states:
        return indices, "all_states" if n else "empty_kernel"
    return indices[np.arange(max_states) * n // max_states], f"strided_{max_states}"


def lower_median(values: list[float] | np.ndarray) -> float:
    """Element at position floor((m-1)/2) of the sorted values; ValueError if there are none."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if not ordered.size:
        raise ValueError("values must hold at least one number")
    return float(ordered[(len(ordered) - 1) // 2])


def _reachable(k: ControlledKernel, states: np.ndarray, steps: int) -> np.ndarray:
    """Sorted states that ``states`` reach in at most ``steps`` steps, by any actions.

    A step follows every successor slot of nonzero weight.
    """
    seen = np.zeros(k.n_states, dtype=bool)
    seen[states] = True
    for _ in range(steps):
        seen[k.succ[:, seen][k.weights[:, seen] != 0]] = True
    return np.flatnonzero(seen)


def _batched_sequence_rows(
    k: ControlledKernel, horizon: int, f: Lens, states: np.ndarray
) -> np.ndarray:
    """Output rows for every length-H sequence from several start states at once.

    Shares prefix pushes across the lexicographic sequence tree, holding one
    column per start state and pushing every action at once, and takes the
    last step straight into labels; returns an array of shape
    (A**H, len(states), n_labels) whose row n is the sequence with base-A
    digits n. Each column is bit-identical to the rollout of its start state
    alone (see ``pull``), so grouping columns differently never changes a row.

    The walk runs over the R states the start states reach in H - 1 steps
    (``_reachable``): the mass of every prefix of at most H - 1 actions stays
    in that region, and ``predecessor_lists`` over it keeps the slots, and the
    slot order, that reach its states in lists over all S, so every row is
    bit for bit that of a rollout over all S states.

    The walk is depth-first over the top of the tree and breadth-first below.
    A node at depth d splits into its A children while ``d < H - 2`` and
    ``R > L * A**d``; otherwise its whole subtree is pushed level by level,
    one ``pull`` per level over all of its prefixes' columns side by side,
    and one last ``pull`` fills that subtree's block of rows. The split rule
    depends only on R, L, A and H, and it bounds the breadth-first frontier,
    (R, A**(H-1-d) * m), by the larger of two arrays the walk allocates
    anyway: the node's own one-step output (A * R, m) or 1/A of ``rows``.
    """
    states = np.asarray(states, dtype=np.int64)
    m = len(states)
    n_actions, n_labels = k.n_actions, f.n_labels
    rows = np.empty((n_actions**horizon, m, n_labels))
    if not m:  # an empty region has no source for a padding slot to name
        return rows
    region = _reachable(k, states, horizon - 1)
    n_region = len(region)
    step = predecessor_lists(k, region)
    last = predecessor_lists(k, region, f)
    D0 = np.zeros((n_region, m))
    D0[np.searchsorted(region, states), np.arange(m)] = 1.0

    # each node carries its prefix number; only the stacked views hold a
    # split's children, so each is freed once its subtree is done
    stack = [(0, 0, D0)]
    while stack:
        depth, prefix, D = stack.pop()
        if depth < horizon - 2 and n_region > n_labels * n_actions**depth:
            stack += [
                (depth + 1, prefix * n_actions + a, child)
                for a, child in enumerate(pull(step, D).reshape(n_actions, n_region, m))
            ]
            continue
        # D's columns are (subtree prefix, start state), prefix-major
        width = 1
        for _ in range(depth, horizon - 1):
            out = pull(step, D).reshape(n_actions, n_region, width, m)
            D = out.transpose(1, 2, 0, 3).reshape(n_region, width * n_actions * m)
            width *= n_actions
        block = rows[prefix * width * n_actions : (prefix + 1) * width * n_actions]
        out = pull(last, D).reshape(n_actions, n_labels, width, m)
        block.reshape(width, n_actions, m, n_labels)[...] = out.transpose(2, 0, 3, 1)
    return rows


def _feasible_channels(
    k: ControlledKernel, gate: FeasibilityGate, states, horizon: int, f: Lens
) -> list[np.ndarray]:
    """Budget-feasible channel of each start state in ``states``, from one rollout.

    The only code that cuts a channel: ``states[i]``'s channel holds its rows
    of the sequences that fit its ledger, in ``feasible_sequences`` order.
    Callers check that the gate and lens fit the kernel; ``sequence_costs``
    checks the horizon before the rollout.
    """
    costs = sequence_costs(gate, horizon)
    rows = _batched_sequence_rows(k, horizon, f, states)
    return [rows[costs <= gate.ledger[s], i] for i, s in enumerate(states)]


def median_empowerment_on_kernel(
    k: ControlledKernel,
    gate: FeasibilityGate,
    kernel_set: np.ndarray,
    horizon: int,
    f: Lens,
    max_states: int = MAX_MEDIAN_STATES,
    tol: float = EMPOWERMENT_TOL,
) -> MedianEmpowermentResult:
    """Lower-median feasible empowerment over a viability kernel (see ``median_empowerments``).

    Kept for the benchmark's callers; ROADMAP item 2 deletes it.
    """
    return median_empowerments([(k, gate, kernel_set, horizon, f)], max_states, tol)[0]


def median_empowerments(
    problems: Iterable[tuple[ControlledKernel, FeasibilityGate, np.ndarray, int, Lens]],
    max_states: int = MAX_MEDIAN_STATES,
    tol: float = EMPOWERMENT_TOL,
) -> list[MedianEmpowermentResult]:
    """Lower-median feasible empowerments of ``(k, gate, kernel_set, horizon, f)`` problems.

    ``kernel_set`` is a ``(S,)`` boolean mask; anything else raises
    ValueError. The empty set yields zero by convention (no viable states
    means no induced action layer). Each problem finds its own shift ``P =
    _block_period(...)`` over kernel, lens and ledger; state ``s``'s channel
    is that of ``s % P`` with its labels permuted, which leaves capacity
    unchanged, so only the distinct ``selected % P`` are rolled out and solved.

    ``problems`` is read lazily: each problem is validated and cut into its
    channels before the next is drawn, so a generator may build one
    environment at a time. After the last one, every channel goes to one
    ``channel_capacities`` call, whose solves do not depend on which channels
    share it, so each result equals its problem's own median bit for bit.
    That call needs one output alphabet: a problem whose lens has another
    label count than the first problem's raises ValueError.
    """
    pending, channels, n_labels = [], [], None
    for k, gate, kernel_set, horizon, f in problems:
        if n_labels is not None and f.n_labels != n_labels:
            raise ValueError(f"lens has {f.n_labels} labels, not {n_labels} like the first problem's")
        n_labels = f.n_labels
        check_fits(k, gate, lens=f)
        selected, rule = select_kernel_subset(_check_mask("kernel set", kernel_set, k.n_states),
                                              max_states)
        period = _block_period(k.succ, k.weights, f.project, f.n_labels, gate.ledger)
        reps, slot = np.unique(selected % period, return_inverse=True)
        start = len(channels)
        channels += _feasible_channels(k, gate, reps, horizon, f)
        pending.append((selected, rule, slot, start, len(channels)))

    # fed lazily, so each full channel is dropped once its distinct rows are kept
    solved = channel_capacities((channels.pop(0) for _ in range(len(channels))), tol=tol)
    results = []
    for selected, rule, slot, start, stop in pending:
        values = [solved[start + j].capacity_bits for j in slot]
        results.append(MedianEmpowermentResult(
            median_bits=lower_median(values) if values else 0.0,
            selected_states=[int(s) for s in selected],
            values=values,
            subset_rule=rule,
            solved=solved[start:stop],
        ))
    return results


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (1/2) sum |p_i - q_i| between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())
