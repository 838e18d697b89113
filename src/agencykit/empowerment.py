"""Action-sequence channels, channel capacity, and empowerment aggregation.

Empowerment at (s0, H, f) is the channel capacity of the map from length-H
action sequences to the lens output at time H. Feasible empowerment restricts
the input alphabet to sequences whose total cost fits the initial budget.
Capacity is solved by Blahut-Arimoto with certified upper/lower bounds; all
logs are base 2 and 0*log(0) = 0 throughout.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from agencykit.feasibility import FeasibilityGate, sequence_costs
from agencykit.kernel import ControlledKernel, predecessor_lists, pull

ROW_TOLERANCE = 1e-9
MASS_TOLERANCE = 1e-10

BA_DEFAULT_TOL = 1e-9
BA_DEFAULT_MAX_ITER = 10000


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

    def push(self, d: np.ndarray) -> np.ndarray:
        """Aggregate a state distribution into a label distribution."""
        return np.bincount(self.project, weights=d, minlength=self.n_labels)


@dataclass
class CapacityResult:
    """Certified capacity estimate with its achieving input distribution."""

    capacity_bits: float
    input_distribution: np.ndarray
    iterations: int
    gap: float


def _check_mass(out: np.ndarray) -> None:
    total = out.sum(axis=-1)
    bad = np.flatnonzero(np.abs(total - 1.0) > MASS_TOLERANCE)
    if bad.size:
        raise ValueError(f"rollout mass {total.flat[bad[0]]!r} deviates from 1")


def rollout_output_distribution(
    k: ControlledKernel, s0: int, alpha: tuple[int, ...] | np.ndarray, f: Lens
) -> np.ndarray:
    """Exact push-forward of delta_{s0} through an action sequence, then the lens.

    Uses the same pushes as ``_batched_sequence_rows``, so the result is
    bit-identical to that sequence's row there.
    """
    actions = tuple(alpha)
    if len(actions) < 1:
        raise ValueError("action sequence must have length >= 1")
    if not 0 <= s0 < k.n_states:
        raise IndexError(f"state index {s0} out of range")
    step = predecessor_lists(k)
    D = np.zeros((k.n_states, 1))
    D[s0, 0] = 1.0
    for a in actions[:-1]:
        D = pull(step, D).reshape(k.n_actions, k.n_states, 1)[a]
    last = predecessor_lists(k, f.project, f.n_labels)
    out = pull(last, D).reshape(k.n_actions, f.n_labels)[actions[-1]]
    _check_mass(out)
    return out


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
    matrix = np.roll(channels[0], shift[0], axis=1)
    _check_mass(matrix)
    return matrix


def channel_capacity(
    w: np.ndarray,
    tol: float = BA_DEFAULT_TOL,
    max_iter: int = BA_DEFAULT_MAX_ITER,
) -> CapacityResult:
    """Channel capacity in bits of one channel matrix (see ``channel_capacities``)."""
    return channel_capacities([w], tol=tol, max_iter=max_iter)[0]


def channel_capacities(
    channels: Iterable[np.ndarray],
    tol: float = BA_DEFAULT_TOL,
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
            raise ValueError(f"channel row {int(bad[0])} sums to {row_sums[bad[0]]!r}")
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
    return results


def feasible_empowerment(
    k: ControlledKernel,
    gate: FeasibilityGate,
    s0: int,
    horizon: int,
    f: Lens,
    tol: float = BA_DEFAULT_TOL,
) -> float:
    """Capacity (bits) of the budget-restricted sequence channel from ``s0``."""
    return channel_capacity(build_channel(k, gate, s0, horizon, f), tol=tol).capacity_bits


@dataclass
class MedianEmpowermentResult:
    """Lower-median empowerment over a deterministically selected state subset.

    The last four fields describe the channels solved, one per orbit
    representative: their largest certified gap, their number, and their
    total and largest Blahut-Arimoto iteration counts.
    """

    median_bits: float
    selected_states: list[int]
    values: list[float]
    subset_rule: str
    max_gap_bits: float
    solves: int
    iterations_total: int
    iterations_max: int


def select_kernel_subset(indices: np.ndarray, max_states: int) -> np.ndarray:
    """Deterministic subset rule: all states when small, else evenly strided.

    States are sorted by index; when more than ``max_states`` remain, positions
    floor(i * n / max_states) for i = 0..max_states-1 are kept.
    """
    indices = np.sort(np.asarray(indices))
    n = len(indices)
    if n <= max_states:
        return indices
    picks = (np.arange(max_states) * n) // max_states
    return indices[picks]


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
    alone (see ``pull``).
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

    # depth-first over the sequence tree; each node carries its prefix number,
    # and each last-step node fills the rows of its n_actions sequences. Only
    # the stacked views hold a push's children, so each is freed once its
    # last child is done
    rows = np.empty((n_actions**horizon, m, n_labels))
    stack = [(0, 0, D0)]
    while stack:
        depth, prefix, D = stack.pop()
        if depth == horizon - 1:
            out = pull(last, D).reshape(n_actions, n_labels, m)
            rows[prefix * n_actions : (prefix + 1) * n_actions] = out.transpose(0, 2, 1)
            continue
        stack += [
            (depth + 1, prefix * n_actions + a, child)
            for a, child in enumerate(pull(step, D).reshape(n_actions, n_states, m))
        ]
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
    ``np.roll(channels[slot[i]], shift[i], axis=1)``.
    """
    rep, shift = _translation_orbits(k, gate, f)
    reps, slot = np.unique(rep[states], return_inverse=True)
    rows = _batched_sequence_rows(k, horizon, f, reps)
    costs = sequence_costs(gate, horizon)
    channels = [rows[costs <= gate.ledger[s], i] for i, s in enumerate(reps)]
    return channels, slot, shift[states]


def median_empowerment_on_kernel(
    k: ControlledKernel,
    gate: FeasibilityGate,
    kernel_set: np.ndarray,
    horizon: int,
    f: Lens,
    max_states: int = 64,
    tol: float = BA_DEFAULT_TOL,
) -> MedianEmpowermentResult:
    """Lower-median feasible empowerment over a viability kernel.

    ``kernel_set`` is a boolean mask or an index array. The empty set yields
    zero by convention (no viable states means no induced action layer).
    Only the orbit representatives of the selected states are rolled out and
    solved, in one ``channel_capacities`` call (see ``_feasible_channels``);
    ``max_gap_bits`` is the largest certified gap among those solves.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    kernel_set = np.asarray(kernel_set)
    indices = np.flatnonzero(kernel_set) if kernel_set.dtype == bool else kernel_set
    if len(indices) == 0:
        return MedianEmpowermentResult(
            median_bits=0.0,
            selected_states=[],
            values=[],
            subset_rule="empty_kernel",
            max_gap_bits=0.0,
            solves=0,
            iterations_total=0,
            iterations_max=0,
        )
    selected = select_kernel_subset(indices, max_states)
    rule = "all_states" if len(indices) <= max_states else f"strided_{max_states}"

    channels, slot, _ = _feasible_channels(k, gate, selected, horizon, f)
    solved = channel_capacities(channels, tol=tol)
    values = [solved[j].capacity_bits for j in slot]
    iterations = [r.iterations for r in solved]
    return MedianEmpowermentResult(
        median_bits=lower_median(values),
        selected_states=[int(s) for s in selected],
        values=values,
        subset_rule=rule,
        max_gap_bits=max(r.gap for r in solved),
        solves=len(solved),
        iterations_total=sum(iterations),
        iterations_max=max(iterations),
    )


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (1/2) sum |p_i - q_i| between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())
