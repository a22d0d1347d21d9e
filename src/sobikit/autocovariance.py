"""Symmetrized sample autocovariance matrices, whitening, autocorrelations.

Conventions: series are p x T arrays (rows = components).  Matrices at lag k > 0
use the divisor 1/(2(T-k)) over the symmetrized cross products; the lag-0
matrix uses 1/T.  Every matrix returned here is exactly symmetric.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

__all__ = ["AutocovSet", "autocov_set", "whitener", "autocorrelations"]


@dataclasses.dataclass(frozen=True)
class AutocovSet:
    """S_0 (..., p, p) and the stack S_k (..., K, p, p) of the lags, in lag order.

    ``sk[..., a, :, :]`` is S at lag ``lags[a]``; leading axes, if any, index
    a batch of series.
    """

    s0: np.ndarray
    sk: np.ndarray
    lags: tuple[int, ...]


def _as_series(x) -> np.ndarray:
    """x as a finite p x T float array, T >= 2, with C-contiguous rows: numpy
    sums a contiguous row pairwise and a strided one sequentially, so a copy
    of a strided input makes no result depend on the input's memory layout."""
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=float)
    if x.ndim != 2:
        raise ValueError("series must be a p x T matrix")
    if x.shape[1] < 2:
        raise ValueError("series must have at least T = 2 observations")
    _check_finite(x)
    return x


def _check_finite(x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")


def _products(x: np.ndarray, lags: Sequence[int], centered: bool) -> np.ndarray:
    """The stack of S_k, k in ``lags`` with 0 first, of validated series x (p, T), by
    one matrix product per lag and one symmetrization over the lag axis; ValueError,
    with no numpy warning, where one of them leaves the float range.  ``centered``
    centres x in place: a copy per Monte Carlo replicate costs time."""
    T = x.shape[1]
    out = np.empty((len(lags), x.shape[0], x.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        if centered:
            x -= x.mean(axis=1, keepdims=True)
        out[0] = x @ x.T / T
        for a, k in enumerate(lags[1:], start=1):
            out[a] = x[:, : T - k] @ x[:, k:].T
        shifts = np.asarray(lags[1:], dtype=float)
        out[1:] = (out[1:] + out[1:].mT) / (2.0 * (T - shifts))[:, None, None]
        out = (out + out.mT) / 2
    if not np.all(np.isfinite(out)):
        raise ValueError("series values too large: their autocovariances overflow")
    return out


def _check_lags(lags: Sequence[int], T: int | None = None) -> tuple[int, ...]:
    """The lags as ints: distinct, positive and at most T - 2, or below 2**62."""
    lags = tuple(int(k) for k in lags)
    if len(set(lags)) != len(lags):
        raise ValueError("duplicate lags")
    if any(k <= 0 for k in lags):
        raise ValueError("lags must be positive")
    if any(k > (2**62 - 1 if T is None else T - 2) for k in lags):
        raise ValueError("lag out of range")
    return lags


def autocov_set(x, lags: Sequence[int], centered: bool = False) -> AutocovSet:
    """Assemble S_0 together with S_k for each requested positive lag; with
    ``centered`` the sample mean over all T columns is removed first.  The
    matrices do not depend on the memory layout of ``x`` (``_as_series``)."""
    x = _as_series(x)
    lags = _check_lags(lags, x.shape[1])
    s = _products(x.copy() if centered else x, (0,) + lags, centered)
    return AutocovSet(s0=s[0], sk=s[1:], lags=lags)


def whitener(s0: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of each covariance matrix in s0 (..., p, p).

    Eigendecomposition based: W = V diag(w**-1/2) V'.  The eigenvalue floor
    is 1e-12 relative to the largest eigenvalue.
    """
    s0 = np.asarray(s0, dtype=float)
    w, v = np.linalg.eigh((s0 + s0.mT) / 2)
    if np.any(w[..., 0] <= 1e-12 * np.maximum(w[..., -1], 0.0)):
        raise ValueError("not positive definite")
    m = (v * w[..., None, :] ** -0.5) @ v.mT
    return (m + m.mT) / 2


def autocorrelations(acs: AutocovSet, w: np.ndarray | None = None) -> np.ndarray:
    """Whitened autocovariances R_k = W S_k W (..., K, p, p), symmetrized, in lag order."""
    w = (whitener(acs.s0) if w is None else w)[..., None, :, :]
    r = w @ acs.sk @ w
    return (r + r.mT) / 2


