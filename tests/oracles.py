"""Independent reference computations used to cross-check the solvers.

Everything here deliberately avoids the code paths under test: capacity comes
from a dense grid search over the input simplex or from textbook
Blahut-Arimoto on the rows exactly as given (no row merging), mutual
information from the identity I(p) = H(pW) - sum_x p_x H(W_x), and the BSC
capacity from its closed form 1 - H2(eps). The viability kernel is checked
against the union of all fixed points of its operator, by subset enumeration.
The dense oracles at the end rebuild the (A, S, S) tensor and compute
viability, rollouts and packaging with plain matrix algebra, independent of
the successor lists. ``rollout_output_distribution`` pushes a single column
with the engine's own ``pull``, and ``full_state_rows`` every column over all
S states, as the references for the batched sequence walk over a region.
"""

import itertools
from fractions import Fraction

import numpy as np


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information_bits(p: np.ndarray, W: np.ndarray) -> float:
    row_entropies = np.array([entropy_bits(row) for row in W])
    return entropy_bits(p @ W) - float(p @ row_entropies)


def row_divergences_bits(W: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W_x || q) in bits for every row x of W."""
    return np.array([
        sum(w * np.log2(w / qj) for w, qj in zip(row, q) if w > 0) for row in W
    ])


def grid_search_capacity(W: np.ndarray, step: float = 1e-3) -> float:
    """Capacity by dense enumeration of input distributions (<= 3 rows)."""
    W = np.asarray(W, dtype=np.float64)
    m = W.shape[0]
    if m <= 1:
        return 0.0
    n_steps = int(round(1.0 / step))
    if m == 2:
        t = np.arange(n_steps + 1) / n_steps
        grid = np.stack([t, 1.0 - t], axis=1)
    elif m == 3:
        pairs = [
            (i, j)
            for i in range(n_steps + 1)
            for j in range(n_steps + 1 - i)
        ]
        ij = np.array(pairs, dtype=np.float64) / n_steps
        grid = np.column_stack([ij[:, 0], ij[:, 1], 1.0 - ij.sum(axis=1)])
    else:
        raise ValueError("grid search oracle supports at most 3 rows")

    # I(p) = H(pW) - p . h, vectorized over the whole grid
    h = np.array([entropy_bits(row) for row in W])
    q = grid @ W
    with np.errstate(divide="ignore", invalid="ignore"):
        qlog = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    inf_grid = -qlog.sum(axis=1) - grid @ h
    return float(inf_grid.max())


def blahut_arimoto_capacity(W: np.ndarray, tol: float = 1e-10,
                            max_iter: int = 100000) -> float:
    """Capacity by plain Blahut-Arimoto over every row, duplicates included.

    Stops when max_x D(W_x || pW) - I(p) <= tol; the result is a lower bound
    within ``tol`` of the capacity.
    """
    W = np.asarray(W, dtype=np.float64)
    m = W.shape[0]
    if m <= 1:
        return 0.0
    p = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        D = row_divergences_bits(W, p @ W)
        lower = float(p @ D)
        if D.max() - lower <= tol:
            return lower
        p = p * np.exp2(D - D.max())
        p /= p.sum()
    raise RuntimeError("Blahut-Arimoto oracle did not converge")


BRUTE_FORCE_MAX_STATES = 20


def brute_force_greatest_fixpoint(k, gate, safe) -> np.ndarray:
    """Union of all fixed points of the viability operator, by 2^n enumeration.

    The union of all fixed points of a monotone contracting set operator
    equals its greatest fixed point, which ``viability_kernel`` must find.
    Guarded to small state spaces.
    """
    from agencykit.viability import viability_step

    n = k.n_states
    if n > BRUTE_FORCE_MAX_STATES:
        raise ValueError(f"brute force enumeration limited to {BRUTE_FORCE_MAX_STATES} states")
    union = np.zeros(n, dtype=bool)
    for mask_bits in range(1 << n):
        K = np.array([(mask_bits >> i) & 1 == 1 for i in range(n)])
        if np.array_equal(viability_step(k, gate, safe, K), K):
            union |= K
    return union


def bsc_capacity(eps: float) -> float:
    """Closed-form binary symmetric channel capacity 1 - H2(eps)."""
    if eps in (0.0, 1.0):
        return 1.0
    h2 = -(eps * np.log2(eps) + (1 - eps) * np.log2(1 - eps))
    return 1.0 - h2


def rollout_output_distribution(k, s0: int, alpha, f) -> np.ndarray:
    """Exact push-forward of delta_{s0} through an action sequence, then the lens.

    Pushes one column through ``pull`` one action at a time, with no sequence
    tree, orbit quotient or channel cut, so it must equal that sequence's row
    of a batched rollout bit for bit.
    """
    from agencykit.kernel import predecessor_lists, pull

    *prefix, final = alpha
    everywhere = np.arange(k.n_states)
    step = predecessor_lists(k, everywhere)
    D = np.zeros((k.n_states, 1))
    D[s0, 0] = 1.0
    for a in prefix:
        D = pull(step, D).reshape(k.n_actions, k.n_states, 1)[a]
    last = predecessor_lists(k, everywhere, f)
    return pull(last, D).reshape(k.n_actions, f.n_labels)[final]


def full_state_rows(k, horizon: int, f, states) -> np.ndarray:
    """Sequence rows (A**H, len(states), n_labels) of a rollout over all S states.

    Pushes every column through ``pull`` over the in-lists of the whole
    state set, one level of the sequence tree at a time, with no reachable
    region; it must equal the engine's batched rows bit for bit.
    """
    from agencykit.kernel import predecessor_lists, pull

    everywhere = np.arange(k.n_states)
    step = predecessor_lists(k, everywhere)
    last = predecessor_lists(k, everywhere, f)
    m, A, S = len(states), k.n_actions, k.n_states
    D = np.zeros((S, m))
    D[np.asarray(states, dtype=np.int64), np.arange(m)] = 1.0
    for depth in range(horizon - 1):
        out = pull(step, D).reshape(A, S, A**depth, m)
        D = out.transpose(1, 2, 0, 3).reshape(S, -1)
    out = pull(last, D).reshape(A, f.n_labels, A ** (horizon - 1), m)
    return out.transpose(2, 0, 3, 1).reshape(A**horizon, m, f.n_labels)


# --------------------------------------------------------------------------
# Dense (A, S, S) versions of the engine's layers, as they were before the
# kernel moved to successor lists. Each works on ``dense(k)``.


def dense_rows(succ: np.ndarray, weights: np.ndarray, n_states: int) -> np.ndarray:
    """Dense rows of padded successor lists: ``out[..., t]`` sums the slots pointing at t."""
    out = np.zeros(succ.shape[:-1] + (n_states,))
    idx = np.nonzero(weights)
    np.add.at(out, idx[:-1] + (succ[idx],), weights[idx])
    return out


def dense(k) -> np.ndarray:
    """The (A, S, S) probability tensor of a kernel; for small kernels only."""
    return dense_rows(k.succ, k.weights, k.n_states)


def successor_support(k, s: int, a: int) -> set[int]:
    """States reachable from (s, a) with nonzero probability, from the successor lists."""
    return set(k.succ[a, s][k.weights[a, s] > 0].tolist())


def fraction_ring_rows(cfg):
    """Yield ``(a, s, row)`` for every action and state, ``row`` mapping each
    successor to its exact rational probability."""
    from agencykit.environments import ACTION_NAMES, LEFT, NOOP, REPAIR, RIGHT, ring_state_index

    flip, q = Fraction(cfg.p_flip), Fraction(cfg.repair_success)
    for y, u, phi, r, theta in itertools.product(
        range(cfg.ring_size), range(2), range(cfg.phase_period),
        range(cfg.ledger_max + 1), range(cfg.theta_levels),
    ):
        s = ring_state_index(cfg, y, u, phi, r, theta)
        slip = Fraction(cfg.p_slip)
        if cfg.theta_levels > 1:
            slip *= 1 - Fraction(theta, cfg.theta_levels - 1)
        for a in range(len(ACTION_NAMES)):
            e = a if cfg.costs[a] <= r else NOOP
            row: dict[int, Fraction] = {}
            if e in (LEFT, RIGHT):
                mag = 2 if (cfg.protocol_on and phi == 1) else 1
                moves = [(mag if e == RIGHT else -mag, 1 - slip), (0, slip)]
            else:
                moves = [(0, Fraction(1))]
            flips = [(1, flip), (0, 1 - flip)] if u == 0 else [(1, Fraction(1))]
            for delta, p_move in moves:
                for u1, p_flip in flips:
                    repairs = ([(0, q), (1, 1 - q)]
                               if e == REPAIR and cfg.repair_enabled and u1 == 1
                               else [(u1, Fraction(1))])
                    for u2, p_rep in repairs:
                        mass = p_move * p_flip * p_rep
                        if mass == 0:
                            continue
                        phi2 = (phi + 1) % cfg.phase_period
                        income = cfg.ledger_gain if (cfg.gain_every_step or phi2 == 0) else 0
                        r2 = min(cfg.ledger_max,
                                 max(0, r - cfg.costs[e] - cfg.damage_leak * u2 + income))
                        t = ring_state_index(cfg, (y + delta) % cfg.ring_size, u2, phi2, r2, theta)
                        row[t] = row.get(t, Fraction(0)) + mass
            yield a, s, row


def fraction_ring_tensor(cfg) -> np.ndarray:
    """Ring-world tensor built state by state in exact rationals.

    The float residual of each row is pushed into its largest entry, found in
    dense state order.
    """
    from agencykit.environments import ACTION_NAMES

    probs = np.zeros((len(ACTION_NAMES), cfg.n_states, cfg.n_states))
    for a, s, row in fraction_ring_rows(cfg):
        for t, mass in row.items():
            probs[a, s, t] = float(mass)
        residual = 1.0 - float(probs[a, s].sum())
        if residual != 0.0:
            probs[a, s, int(np.argmax(probs[a, s]))] += residual
    return probs


def fraction_packaging_masses(cfg, actions, project: np.ndarray, tau: int) -> dict:
    """Exact ``{fiber: {label: mass}}`` after tau steps of a deterministic policy.

    Every member of a fiber starts with mass 1, as in ``packaging_endomap``
    before its division by the fiber size; ``actions[s]`` is the policy's
    action at state ``s``, and every step uses ``fraction_ring_rows``.
    """
    rows = {(a, s): row for a, s, row in fraction_ring_rows(cfg)}
    masses = {}
    for fiber in sorted(set(project.tolist())):
        dist = dict.fromkeys(np.flatnonzero(project == fiber).tolist(), Fraction(1))
        for _ in range(tau):
            step: dict[int, Fraction] = {}
            for s, mass in dist.items():
                for t, p in rows[actions[s], s].items():
                    step[t] = step.get(t, Fraction(0)) + mass * p
            dist = step
        labels: dict[int, Fraction] = {}
        for s, mass in dist.items():
            labels[int(project[s])] = labels.get(int(project[s]), Fraction(0)) + mass
        masses[fiber] = labels
    return masses


def reachable_states(k, states, steps: int) -> np.ndarray:
    """States reached from ``states`` in at most ``steps`` steps, by dense support products."""
    support = (dense(k) > 0).any(axis=0).astype(np.int64)
    reached = np.zeros(k.n_states, dtype=np.int64)
    reached[np.asarray(states, dtype=np.int64)] = 1
    for _ in range(steps):
        reached = np.minimum(reached + reached @ support, 1)
    return np.flatnonzero(reached)


def dense_viability_step(k, gate, safe, K) -> np.ndarray:
    """One sweep of the viability operator over the dense support tensor."""
    from agencykit.feasibility import feasible_action_matrix

    K = np.asarray(K, dtype=bool)
    post = dense(k) > 0
    escapes = np.einsum("ast,t->as", post.astype(np.int64), (~K).astype(np.int64)) > 0
    keeps = feasible_action_matrix(gate) & ~escapes
    return K & safe.safe & keeps.any(axis=0)


def dense_viability_kernel(k, gate, safe) -> tuple[np.ndarray, int, list[int]]:
    """(kernel, iterations, trace) by sweeping ``dense_viability_step`` to a repeat."""
    K = np.asarray(safe.safe, dtype=bool).copy()
    trace: list[int] = []
    if not K.any():
        return K, 0, trace
    while True:
        nxt = dense_viability_step(k, gate, safe, K)
        trace.append(int(nxt.sum()))
        if np.array_equal(nxt, K):
            return nxt, len(trace), trace
        K = nxt


def dense_sequence_rows(k, horizon: int, f, states) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Output rows of every length-H sequence by dense matrix products.

    Returns the sequences in lex order and rows of shape (n_seq, len(states), n_labels).
    """
    probs = dense(k)
    states = np.asarray(states, dtype=np.int64)
    lens_onehot = np.zeros((k.n_states, f.n_labels))
    lens_onehot[np.arange(k.n_states), f.project] = 1.0
    D0 = np.zeros((len(states), k.n_states))
    D0[np.arange(len(states)), states] = 1.0
    seqs, rows = [], []

    def descend(prefix, D):
        if len(prefix) == horizon:
            seqs.append(prefix)
            rows.append(D @ lens_onehot)
            return
        for a in range(k.n_actions):
            descend(prefix + (a,), D @ probs[a])

    descend((), D0)
    return seqs, np.stack(rows)


def matrix_power_endomap(k, pi, mu, tau: int) -> tuple[dict[int, int], dict[int, float]]:
    """(mapping, reach_mass) of the packaging endomap via the dense closure T^tau."""
    weights = mu.action_weights(k.n_states, k.n_actions)
    T = np.einsum("sa,ast->st", weights, dense(k))
    M = np.linalg.matrix_power(T, tau)
    mapping, reach = {}, {}
    for x in range(pi.n_labels):
        members = np.flatnonzero(pi.project == x)
        if members.size == 0:
            continue
        macro = np.bincount(pi.project, weights=M[members].mean(axis=0), minlength=pi.n_labels)
        mapping[x] = int(np.argmax(macro))
        reach[x] = float(macro[mapping[x]])
    return mapping, reach


def full_push_endomap(k, pi, mu, tau: int) -> tuple[dict[int, int], dict[int, float]]:
    """(mapping, reach_mass) by pushing every fiber, with no translation quotient.

    The bit-for-bit reference for ``packaging_endomap``: the same sparse
    (fiber, state, mass) push over the policy's successor lists, started
    from all S states, so every fiber's masses are summed on their own.
    """
    from agencykit.kernel import policy_successors

    succ, weights = policy_successors(k, mu)
    n = k.n_states
    fib, state, mass = pi.project, np.arange(n), np.ones(n)
    for _ in range(tau):
        w = weights[state]
        live = w != 0
        keys, merged = np.unique((fib[:, None] * n + succ[state])[live], return_inverse=True)
        mass = np.bincount(merged, weights=(mass[:, None] * w)[live])
        fib, state = np.divmod(keys, n)
    keys, merged = np.unique(fib * pi.n_labels + pi.project[state], return_inverse=True)
    mass = np.bincount(merged, weights=mass)
    fib, label = np.divmod(keys, pi.n_labels)
    order = np.lexsort((label, -mass, fib))
    first = order[np.r_[True, fib[order][1:] != fib[order][:-1]]]
    sizes = np.bincount(pi.project, minlength=pi.n_labels)
    domain = fib[first].tolist()
    return (dict(zip(domain, label[first].tolist())),
            dict(zip(domain, (mass[first] / sizes[fib[first]]).tolist())))
