"""Independent reference computations used to cross-check the solvers.

Everything here deliberately avoids the code paths under test: capacity comes
from a dense grid search over the input simplex or from textbook
Blahut-Arimoto on the rows exactly as given (no row merging), mutual
information from the identity I(p) = H(pW) - sum_x p_x H(W_x), and the BSC
capacity from its closed form 1 - H2(eps).
"""

import numpy as np


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information_bits(p: np.ndarray, W: np.ndarray) -> float:
    row_entropies = np.array([entropy_bits(row) for row in W])
    return entropy_bits(p @ W) - float(p @ row_entropies)


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
        q = p @ W
        D = np.array([
            sum(w * np.log2(w / qj) for w, qj in zip(row, q) if w > 0) for row in W
        ])
        lower = float(p @ D)
        if D.max() - lower <= tol:
            return lower
        p = p * np.exp2(D - D.max())
        p /= p.sum()
    raise RuntimeError("Blahut-Arimoto oracle did not converge")


def bsc_capacity(eps: float) -> float:
    """Closed-form binary symmetric channel capacity 1 - H2(eps)."""
    if eps in (0.0, 1.0):
        return 1.0
    h2 = -(eps * np.log2(eps) + (1 - eps) * np.log2(1 - eps))
    return 1.0 - h2
