"""Performance indices for unmixing estimates."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["mdi", "amari"]


def mdi(g: np.ndarray) -> float:
    """Minimum distance index of a gain matrix, in [0, 1].

    Measures how far ``g`` (estimated unmixing times true mixing) is from
    the class of matrices with exactly one nonzero entry per row and
    column.  The infimum over that class reduces to a maximum-weight
    assignment on the weights g_ij^2 / ||g_i||^2 because the best scale for
    an assigned entry is available in closed form:

        mdi = sqrt(p - max_pi sum_i g_{i,pi(i)}^2 / ||g_i||^2) / sqrt(p - 1)

    Zero iff g is a scaled, signed permutation; the scaling makes 1 the
    worst possible value.  Defined as 0 for p = 1.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    p = g.shape[0]
    if g.shape != (p, p):
        raise ValueError("gain matrix must be square")
    if not np.all(np.isfinite(g)):
        raise ValueError("gain matrix must be finite")
    if p == 1:
        return 0.0
    row_norms = (g**2).sum(axis=1)
    if np.any(row_norms == 0.0):
        raise ValueError("rank deficient")
    weights = g**2 / row_norms[:, None]
    rows, cols = linear_sum_assignment(weights, maximize=True)
    matched = float(weights[rows, cols].sum())
    return float(np.sqrt(max(p - matched, 0.0) / (p - 1)))


def amari(g: np.ndarray) -> float:
    """Amari index of a gain matrix; zero iff a scaled, signed permutation.

    L1-based and invariant to row/column permutations and sign changes, but
    not to heterogeneous row rescaling.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    p = g.shape[0]
    if g.shape != (p, p):
        raise ValueError("gain matrix must be square")
    a = np.abs(g)
    row_max = a.max(axis=1)
    col_max = a.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise ValueError("zero row or column")
    rows = (a / row_max[:, None]).sum()
    cols = (a / col_max[None, :]).sum()
    return float((rows + cols) / p - 2.0)
