"""Action-sequence channels, channel capacity, and empowerment aggregation.

Empowerment at (s0, H, f) is the channel capacity of the map from length-H
action sequences to the lens output at time H. Feasible empowerment restricts
the input alphabet to sequences whose total cost fits the initial budget.
Capacity is solved by Blahut-Arimoto with certified upper/lower bounds; all
logs are base 2 and 0*log(0) = 0 throughout.

Every output distribution comes from one rollout, ``_batched_sequence_rows``,
cut into channels by ``_feasible_channels``; a single sequence's distribution
is a row of ``build_channel``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from agencykit.feasibility import FeasibilityGate, sequence_costs
from agencykit.kernel import ControlledKernel, check_fits, predecessor_lists, pull

ROW_TOLERANCE = 1e-9
MASS_TOLERANCE = 1e-10

# default capacity stop tolerance in bits, and the most states a median solves
EMPOWERMENT_TOL = 1e-9
MAX_MEDIAN_STATES = 64
BA_DEFAULT_MAX_ITER = 10000
SMALLEST_NORMAL = np.finfo(np.float64).tiny  # 2**-1022


@dataclass(frozen=True)
class Lens:
    """Total projection from state indices to a finite label set."""

    name: str
    project: np.ndarray
    n_labels: int

    def __post_init__(self):
        project = np.asarray(self.project, dtype=np.int64)
        if project.ndim != 1:
            raise ValueError("lens projection must be a 1-d label array")
        if np.any(project < 0) or np.any(project >= self.n_labels):
            raise ValueError("lens labels out of range")
        project.setflags(write=False)
        object.__setattr__(self, "project", project)


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
    channel is legal. It is ``s0``'s orbit representative's channel with its
    labels rolled (see ``_feasible_channels``), bit for bit ``s0``'s own rollout.
    """
    if not 0 <= s0 < k.n_states:
        raise IndexError(f"state index {s0} out of range")
    channels, _, shift = _feasible_channels(k, gate, [s0], horizon, f)
    return np.roll(channels[0], shift[0], axis=1)


def channel_capacity(
    w: np.ndarray,
    tol: float = EMPOWERMENT_TOL,
    max_iter: int = BA_DEFAULT_MAX_ITER,
) -> CapacityResult:
    """Channel capacity in bits of one channel matrix (see ``channel_capacities``)."""
    return channel_capacities([w], tol=tol, max_iter=max_iter)[0]


def channel_capacities(
    channels: Iterable[np.ndarray],
    tol: float = EMPOWERMENT_TOL,
    max_iter: int = BA_DEFAULT_MAX_ITER,
) -> list[CapacityResult]:
    """Channel capacities in bits via Blahut-Arimoto alternating maximization.

    A channel stops when its certified bound gap max_x D(W_x || q) - I(p; W)
    drops to ``tol`` bits; one that reaches ``max_iter`` reports its last gap.
    Channels with zero or one row have capacity zero by convention.

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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    results: list[CapacityResult | None] = []
    blocks, merges = [], []
    for w in channels:
        matrix = np.asarray(w, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("a channel must be a 2-d matrix")
        if results and matrix.shape[1] != n_labels:
            raise ValueError("channels must share one output alphabet")
        n_labels = matrix.shape[1]
        if len(matrix) <= 1:
            results.append(CapacityResult(
                capacity_bits=0.0,
                input_distribution=np.ones(len(matrix)),
                iterations=0,
                gap=0.0,
            ))
            continue
        row_sums = matrix.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_TOLERANCE)
        if bad.size:
            raise ValueError(f"channel row {int(bad[0])} sums to {float(row_sums[bad[0]])}")
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

    W = np.concatenate(blocks)
    logW = np.log2(W, out=np.zeros_like(W), where=W > 0)
    row_neg_entropy = np.einsum("ij,ij->i", W, logW)
    live = np.arange(len(blocks))
    counts = np.array([len(b) for b in blocks])
    p = np.repeat(1.0 / counts, counts)
    starts = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(len(counts)), counts)
    for iterations in range(1, max_iter + 1):
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
        if iterations == max_iter:
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
    tol: float = EMPOWERMENT_TOL,
) -> float:
    """Capacity (bits) of the budget-restricted sequence channel from ``s0``."""
    return channel_capacity(build_channel(k, gate, s0, horizon, f), tol=tol).capacity_bits


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


def select_kernel_subset(indices: np.ndarray, max_states: int) -> tuple[np.ndarray, str]:
    """Deterministic subset rule: all states when small, else evenly strided.

    The indices are taken as a set, sorted; when more than ``max_states``
    remain, positions floor(i * n / max_states) for i = 0..max_states-1 are
    kept. Returns the selected states and the rule's name: ``empty_kernel``,
    ``all_states`` or ``strided_<max_states>``.
    """
    indices = np.sort(np.asarray(indices))
    # each index once; plain np.unique would take numpy's hash-table path,
    # whose first call maps about 1 MB of pages into the process
    first = np.ones(len(indices), dtype=bool)
    first[1:] = indices[1:] != indices[:-1]
    indices = indices[first]
    n = len(indices)
    if n == 0:
        return indices, "empty_kernel"
    if n <= max_states:
        return indices, "all_states"
    picks = (np.arange(max_states) * n) // max_states
    return indices[picks], f"strided_{max_states}"


def lower_median(values: list[float] | np.ndarray) -> float:
    """Element at position floor((m-1)/2) of the sorted values."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(ordered[(len(ordered) - 1) // 2])


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

    The walk is depth-first over the top of the tree and breadth-first below.
    A node at depth d splits into its A children while ``d < H - 2`` and
    ``S > L * A**d``; otherwise its whole subtree is pushed level by level,
    one ``pull`` per level over all of its prefixes' columns side by side,
    and one last ``pull`` fills that subtree's block of rows. The split rule
    depends only on S, L, A and H, and it bounds the breadth-first frontier,
    (S, A**(H-1-d) * m), by the larger of two arrays the walk allocates
    anyway: the node's own one-step output (A * S, m) or 1/A of ``rows``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    states = np.asarray(states, dtype=np.int64)
    m = len(states)
    n_actions, n_states, n_labels = k.n_actions, k.n_states, f.n_labels
    step = predecessor_lists(k)
    last = predecessor_lists(k, f.project, n_labels)
    D0 = np.zeros((n_states, m))
    D0[states, np.arange(m)] = 1.0

    # each node carries its prefix number; only the stacked views hold a
    # split's children, so each is freed once its subtree is done
    rows = np.empty((n_actions**horizon, m, n_labels))
    stack = [(0, 0, D0)]
    while stack:
        depth, prefix, D = stack.pop()
        if depth < horizon - 2 and n_states > n_labels * n_actions**depth:
            stack += [
                (depth + 1, prefix * n_actions + a, child)
                for a, child in enumerate(pull(step, D).reshape(n_actions, n_states, m))
            ]
            continue
        # D's columns are (subtree prefix, start state), prefix-major
        width = 1
        for _ in range(depth, horizon - 1):
            out = pull(step, D).reshape(n_actions, n_states, width, m)
            D = out.transpose(1, 2, 0, 3).reshape(n_states, width * n_actions * m)
            width *= n_actions
        block = rows[prefix * width * n_actions : (prefix + 1) * width * n_actions]
        out = pull(last, D).reshape(n_actions, n_labels, width, m)
        block.reshape(width, n_actions, m, n_labels)[...] = out.transpose(2, 0, 3, 1)
    return rows


def _translation_orbits(k: ControlledKernel, gate: FeasibilityGate, f: Lens):
    """Each state's orbit representative and label shift under an exact translation.

    ``s -> s + P (mod S)`` with ``P = S / n_labels`` (one ring position in the
    ring world) is a channel symmetry when, bit for bit, it maps successor
    lists onto successor lists with equal weights, keeps the ledger and steps
    the lens label by +1. Then ``s``'s channel is that of ``s % P`` with its
    labels rolled by ``s // P``; otherwise every state represents itself.
    """
    states, period = np.arange(k.n_states), k.n_states // f.n_labels
    if k.n_states % f.n_labels == 0 and (
        np.array_equal(np.roll(f.project, -period), (f.project + 1) % f.n_labels)
        and np.roll(gate.ledger, -period).tobytes() == gate.ledger.tobytes()
        and np.array_equal(np.roll(k.succ, -period, axis=1), (k.succ + period) % k.n_states)
        and np.roll(k.weights, -period, axis=1).tobytes() == k.weights.tobytes()
    ):
        return states % period, states // period
    return states, np.zeros_like(states)


def _feasible_channels(
    k: ControlledKernel, gate: FeasibilityGate, states: np.ndarray, horizon: int, f: Lens
):
    """Budget-feasible channels of ``states``, rolled out once per translation orbit.

    The only code that cuts a channel. Returns ``(channels, slot, shift)``:
    one rollout of the distinct orbit representatives (``_translation_orbits``)
    gives each its rows of the sequences that fit its ledger, in
    ``feasible_sequences`` order, and ``states[i]``'s channel is, bit for bit,
    ``np.roll(channels[slot[i]], shift[i], axis=1)``. Raises ValueError when
    the gate or lens does not fit the kernel or a row of a cut channel does
    not carry total mass 1.
    """
    check_fits(k, gate, lens=f)
    rep, shift = _translation_orbits(k, gate, f)
    reps, slot = np.unique(rep[states], return_inverse=True)
    rows = _batched_sequence_rows(k, horizon, f, reps)
    costs = sequence_costs(gate, horizon)
    channels = [rows[costs <= gate.ledger[s], i] for i, s in enumerate(reps)]
    for channel in channels:
        total = channel.sum(axis=1)
        bad = np.flatnonzero(np.abs(total - 1.0) > MASS_TOLERANCE)
        if bad.size:
            raise ValueError(f"rollout mass {float(total[bad[0]])} deviates from 1")
    return channels, slot, shift[states]


def median_empowerment_on_kernel(
    k: ControlledKernel,
    gate: FeasibilityGate,
    kernel_set: np.ndarray,
    horizon: int,
    f: Lens,
    max_states: int = MAX_MEDIAN_STATES,
    tol: float = EMPOWERMENT_TOL,
) -> MedianEmpowermentResult:
    """Lower-median feasible empowerment over a viability kernel.

    ``kernel_set`` is a boolean mask over the states or a set of state
    indices; a repeated index counts once. The empty set yields zero by
    convention (no viable states means no induced action layer). Only the
    orbit representatives of the selected states are rolled out and solved,
    in one ``channel_capacities`` call (see ``_feasible_channels``).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    kernel_set = np.asarray(kernel_set)
    if kernel_set.dtype == bool and kernel_set.shape != (k.n_states,):
        raise ValueError(f"kernel mask has shape {kernel_set.shape}, not ({k.n_states},)")
    indices = np.flatnonzero(kernel_set) if kernel_set.dtype == bool else kernel_set
    outside = indices[(indices < 0) | (indices >= k.n_states)]
    if outside.size:
        raise IndexError(f"state index {outside[0]} out of range")
    selected, rule = select_kernel_subset(indices, max_states)
    if len(selected) == 0:
        return MedianEmpowermentResult(0.0, [], [], rule, [])

    channels, slot, _ = _feasible_channels(k, gate, selected, horizon, f)
    solved = channel_capacities(channels, tol=tol)
    values = [solved[j].capacity_bits for j in slot]
    return MedianEmpowermentResult(
        median_bits=lower_median(values),
        selected_states=[int(s) for s in selected],
        values=values,
        subset_rule=rule,
        solved=solved,
    )


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (1/2) sum |p_i - q_i| between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())
