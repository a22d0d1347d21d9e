"""Symmetrized sample autocovariance matrices, whitening, autocorrelations.

Conventions: series are p x T arrays (rows = components).  Lagged matrices
use the divisor 1/(2(T-k)) over the symmetrized cross products; the lag-0
matrix uses 1/T.  Every matrix returned here is exactly symmetric.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

__all__ = ["AutocovSet", "sample_autocov", "autocov_set", "whitener", "autocorrelations"]


@dataclasses.dataclass(frozen=True)
class AutocovSet:
    """Lag-indexed collection of symmetrized sample autocovariance matrices."""

    s0: np.ndarray
    lagged: dict
    lags: tuple[int, ...]
    T: int
    centered: bool

    @property
    def p(self) -> int:
        return self.s0.shape[0]

    def matrices(self) -> list[np.ndarray]:
        """All matrices in lag order, S_0 first."""
        return [self.s0] + [self.lagged[k] for k in self.lags]


def _as_series(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2:
        raise ValueError("series must be a p x T matrix")
    if x.shape[1] < 2:
        raise ValueError("series must have at least T = 2 observations")
    _check_finite(x)
    return x


def _check_finite(x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")


def sample_autocov(x, k: int, centered: bool = False) -> np.ndarray:
    """Symmetrized sample autocovariance matrix at lag k.

    Returns (1/(2(T-k))) sum_t (x_t x'_{t+k} + x_{t+k} x'_t) for k > 0 and
    (1/T) sum_t x_t x'_t for k = 0.  With ``centered`` the sample mean over
    all T columns is removed first.
    """
    x = _as_series(x)
    T = x.shape[1]
    if not 0 <= k <= T - 2:
        raise ValueError(f"lag {k} out of range for T = {T}")
    if centered:
        x = x - x.mean(axis=1, keepdims=True)
    return _lag_product(x, k)


def _lag_product(x: np.ndarray, k: int) -> np.ndarray:
    """S_k of validated (and, if wanted, already centered) series x (..., p, T).

    Leading axes are a batch: stacked matmul rounds each series exactly as
    the one-series product does.
    """
    T = x.shape[-1]
    if k == 0:
        m = (x @ x.mT) / T
    else:
        a = x[..., : T - k] @ x[..., k:].mT
        m = (a + a.mT) / (2 * (T - k))
    return (m + m.mT) / 2


def _check_lags(lags: Sequence[int], T: int) -> tuple[int, ...]:
    """The lags as ints, checked against each other and against T."""
    lags = tuple(int(k) for k in lags)
    if len(set(lags)) != len(lags):
        raise ValueError("duplicate lags")
    if any(k <= 0 for k in lags):
        raise ValueError("lags must be positive")
    if any(k > T - 2 for k in lags):
        raise ValueError("lag out of range")
    return lags


def autocov_set(x, lags: Sequence[int], centered: bool = False) -> AutocovSet:
    """Assemble S_0 together with S_k for each requested positive lag."""
    x = _as_series(x)
    T = x.shape[1]
    lags = _check_lags(lags, T)
    if centered:
        x = x - x.mean(axis=1, keepdims=True)
    s0 = _lag_product(x, 0)
    lagged = {k: _lag_product(x, k) for k in lags}
    return AutocovSet(s0=s0, lagged=lagged, lags=lags, T=T, centered=centered)


def _whiten(s0: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Symmetric inverse square root of each covariance matrix in s0 (..., p, p)."""
    w, v = np.linalg.eigh((s0 + s0.mT) / 2)
    floor = 1e-12 * np.maximum(w[..., -1], 0.0) if eps is None else eps
    if np.any(w[..., 0] <= floor):
        raise ValueError("not positive definite")
    m = (v * w[..., None, :] ** -0.5) @ v.mT
    return (m + m.mT) / 2


def _whitened(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """R_k = W S_k W, symmetrized, for W (..., p, p) and S (..., K, p, p)."""
    w = w[..., None, :, :]
    r = w @ s @ w
    return (r + r.mT) / 2


def whitener(s0: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Symmetric inverse square root of a covariance matrix.

    Eigendecomposition based: W = V diag(w**-1/2) V'.  ``eps`` is the
    eigenvalue floor; by default 1e-12 relative to the largest eigenvalue.
    """
    return _whiten(np.asarray(s0, dtype=float), eps)


def autocorrelations(acs: AutocovSet, w: np.ndarray | None = None) -> list[np.ndarray]:
    """Whitened autocovariances R_k = W S_k W, symmetrized, in lag order."""
    if w is None:
        w = whitener(acs.s0)
    if not acs.lags:
        return []
    return list(_whitened(w, np.stack([acs.lagged[k] for k in acs.lags])))
