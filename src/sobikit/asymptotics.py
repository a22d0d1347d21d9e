"""Limiting variances of unmixing estimates for MA(inf) sources.

Everything here is exact finite arithmetic once each source has a truncated
MA(inf) weight sequence: the cross-product matrices F_k vanish beyond the
weight support, so the nominally infinite sums in the covariance building
blocks D_lm collapse to finite ones.  The per-element asymptotic variances
(ASVs) of both SOBI estimators follow as rational expressions in the source
autocovariances lambda_kj and D_lm entries, which ``build_model`` computes
once per model, and their off-diagonal sum is the efficiency criterion used
to compare estimators and lag sets.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
from scipy import fft as sp_fft

from .joint_diag import UnmixingResult
from .signal_model import MAExpansion

__all__ = [
    "AsymptoticModel",
    "ASVTable",
    "build_model",
    "asv",
    "asv_deflation",
    "asv_symmetric",
    "global_criterion",
    "transform_general_mixing",
    "empirical_asv",
]

_IDENT_TOL = 1e-12

# method of a fit (or a formula name) -> the ASV formulas that describe it.
# AMUSE is SOBI on its one lag, where both tables agree; the symmetric one
# needs AMUSE's lambda_i != lambda_j, the deflation one lambda_i^2 != lambda_j^2.
_FORMULAS = {
    "amuse": "symmetric",
    "deflation": "deflation",
    "symmetric": "symmetric",
    "symmetric-fixedpoint": "symmetric",
    "symmetric-jacobi": "symmetric",
}


@dataclasses.dataclass(frozen=True)
class AsymptoticModel:
    """Source model prepared for limiting-variance evaluation.

    Every per-component attribute, and every row and column of an ASV
    table built from the model, is in estimator order (see ``build_model``).

    Attributes
    ----------
    expansions : tuple of MAExpansion
        Unit-variance weight sequences, one per component.
    beta : ndarray
        Fourth-moment parameters of the innovations, beta[i, i] =
        E(eps_i^4) and beta[i, j] = E(eps_i^2 eps_j^2).
    lags : tuple of int
        The analysis lags entering the estimators.
    lam : ndarray
        (K, p): lam[a, i] is lambda_k = (F_k)_ii of component i at k =
        lags[a], where (F_k)_ij = sum_t psi_{t,i} psi_{t+k,j}.
    d : ndarray
        (K + 1, K + 1, p, p): d[a, b] is D_lm at l, m = positions a, b of
        (0,) + lags.  Entry (i, j) of D_lm is the limiting covariance of
        the (i, j) elements of sqrt(T) times the symmetrized sample
        autocovariances at lags l and m.
    order : tuple of int
        Row r is the component listed at position order[r].
    """

    expansions: tuple[MAExpansion, ...]
    beta: np.ndarray
    lags: tuple[int, ...]
    lam: np.ndarray
    d: np.ndarray
    order: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.expansions)


@dataclasses.dataclass(frozen=True)
class ASVTable:
    """Per-element limiting variances of sqrt(T) gamma_hat.

    ``per_element[j, i]`` is the limiting variance of sqrt(T) times the
    (j, i) entry of the estimated unmixing matrix (identity mixing).
    """

    per_element: np.ndarray
    method: str

    def __post_init__(self):
        pe = np.asarray(self.per_element, dtype=float)
        if not np.all(np.isfinite(pe)):
            raise ValueError("ASV entries must be finite")
        if pe.min() < -1e-9:
            raise ValueError("negative ASV entry; inconsistent model")
        object.__setattr__(self, "per_element", np.maximum(pe, 0.0))

    def row_sums(self) -> np.ndarray:
        """Per-row variance totals, the lag-selection ranking statistic."""
        return self.per_element.sum(axis=1)


def _normal_beta(p: int) -> np.ndarray:
    """beta of independent standard normal innovations: 3 on the diagonal, 1 off it."""
    return np.eye(p) * 2.0 + 1.0


def build_model(
    expansions: Sequence[MAExpansion],
    lags: Sequence[int],
    beta: np.ndarray | None = None,
) -> AsymptoticModel:
    """Assemble lambda_kj and every D_lm that the ASV formulas read.

    Components, and ``beta`` given in listed order, are sorted into the
    order the deflation estimator extracts them: decreasing sum over
    ``lags`` of lambda_k^2, ties kept in listed order; the permutation is
    kept as ``order``.  F_k is formed for k below the longest weight
    support and is zero from there on, so every D_lm sum is exact on the
    horizon max(lags) + that support.  ``beta`` defaults to independent
    normal innovations (diagonal 3, off-diagonal 1).
    """
    expansions = tuple(expansions)
    p = len(expansions)
    if p == 0:
        raise ValueError("at least one expansion is required")
    lags = tuple(int(k) for k in lags)
    if any(k <= 0 for k in lags):
        raise ValueError("lags must be positive")
    if len(set(lags)) != len(lags):
        raise ValueError("duplicate lags")
    support = max(e.psi.size for e in expansions)

    beta = _normal_beta(p) if beta is None else np.asarray(beta, dtype=float)
    if beta.shape != (p, p):
        raise ValueError("beta must be p x p")
    if np.max(np.abs(beta - beta.T)) > 1e-12:
        raise ValueError("beta must be symmetric")
    if np.any(np.diag(beta) < 1.0):
        raise ValueError("beta diagonal must be at least 1")

    padded = np.zeros((p, support))
    for i, e in enumerate(expansions):
        padded[i, : e.psi.size] = e.psi
    strength = sum(((padded[:, : support - k] * padded[:, k:]).sum(axis=1) ** 2
                    for k in lags if k < support), np.zeros(p))
    order = np.argsort(-strength, kind="stable")
    padded = padded[order]
    beta = beta[np.ix_(order, order)]

    f = np.stack([padded[:, : support - k] @ padded[:, k:].T for k in range(support)])
    if np.max(np.abs(np.diag(f[0]) - 1.0)) > 1e-12:
        raise ValueError("expansions are not unit variance")

    seqs = np.zeros((p, max(lags, default=0) + support + 1))
    seqs[:, :support] = np.diagonal(f, axis1=1, axis2=2).T
    lam, d = _d_tensor(seqs, lags, beta, f)
    return AsymptoticModel(
        expansions=tuple(expansions[i] for i in order), beta=beta, lags=lags,
        lam=lam, d=d, order=tuple(order.tolist()),
    )


def _d_tensor(seqs: np.ndarray, lags, beta: np.ndarray,
              f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda rows (lag x component) and every D_lm over (0,) + lags.

    ``seqs`` (p, n) holds each component's lambda_k for 0 <= k < n, zero
    beyond, and ``f`` stacks F_0, F_1, ..., zero beyond its length.  In
    the returned D, D[a, b] = D_lm at l, m = positions a, b of (0,) + lags.
    Every entry comes from the cross-products c_ij(s) = sum_k rho_i(k)
    rho_j(k + s) over all integers k of the even extensions of ``seqs``,
    one matmul per distinct shift s in {|m - l|, m + l} (evenness gives
    c(-s) = c(s)).  Off-diagonal entries are (c(|m - l|) + c(m + l)) / 2
    plus (beta_ij - 1) / 4 (F_l + F_l')_ij (F_m + F_m')_ij; diagonal
    entries are c_ii(|m - l|) + c_ii(m + l) + (beta_ii - 3) lambda_l
    lambda_m.
    """
    lags = np.r_[0, np.asarray(lags, dtype=int)]
    lam = seqs[:, lags].T
    diag_seqs = np.concatenate([seqs[:, :0:-1], seqs], axis=1)
    p, n = diag_seqs.shape
    size = lags.size
    shifts = np.concatenate([np.abs(lags[:, None] - lags[None, :]),
                             lags[:, None] + lags[None, :]]).ravel()
    uniq, where = np.unique(shifts, return_inverse=True)
    where = where.reshape(2, size, size)
    c = np.stack([diag_seqs[:, : n - s] @ diag_seqs[:, s:].T for s in uniq])
    d = c[where[0]]
    d += c[where[1]]
    idx = np.arange(p)
    diag = d[:, :, idx, idx] + (np.diag(beta) - 3.0) * lam[:, None] * lam[None, :]
    q = 0.25 * (beta - 1.0)
    np.fill_diagonal(q, 0.0)
    fl = np.zeros((size, p, p))
    inside = lags < len(f)
    fl[inside] = f[lags[inside]]
    fsym = fl + fl.transpose(0, 2, 1)
    d *= 0.5
    d += q * (fsym[:, None] * fsym[None, :])
    d[:, :, idx, idx] = diag
    return lam[1:], d


def _asv_table(lam: np.ndarray, d: np.ndarray, method: str) -> ASVTable:
    """Closed-form ASVs from lambda rows (lag x component) and D over (0,) + lags.

    Entry (j, i) off the diagonal is w' D[:, :, j, i] w / den^2.  Symmetric:
    w = (-nu, lambda_j - lambda_i), den = |lambda_j - lambda_i|^2.
    Deflation: w = (-mu_ref, lambda_r) with r = min(i, j), and mu_ref and
    den set by whether the row is extracted before or after the interfering
    component.  Diagonal entries are (D_00)_jj / 4.
    """
    p = lam.shape[1]
    s = (lam**2).sum(axis=0)
    scale = float(s.max())
    if scale <= _IDENT_TOL:
        # no serial dependence at the analysis lags, nothing to separate
        raise ValueError("identifiability failure")
    off = ~np.eye(p, dtype=bool)
    if method == "deflation":
        if np.any(np.diff(s) >= -_IDENT_TOL * scale):
            raise ValueError("identifiability failure")
        mu = lam.T @ lam
        mu_jj = np.diag(mu)
        earlier = np.arange(p)[None, :] < np.arange(p)[:, None]  # i < j
        ref = np.where(earlier, mu.T, mu_jj[:, None])
        den = np.where(earlier, mu.T - mu_jj[None, :], mu_jj[:, None] - mu)
        if np.any(np.abs(den[off]) <= _IDENT_TOL * scale):
            raise ValueError("identifiability failure")
        w = lam.T[np.minimum.outer(np.arange(p), np.arange(p))]
    else:
        w = lam.T[:, None, :] - lam.T[None, :, :]
        den = (w**2).sum(axis=-1)
        if np.any(den[off] <= _IDENT_TOL * scale):
            raise ValueError("pairwise identifiability failure")
        ref = np.einsum("ja,jia->ji", lam.T, w)
    w = np.concatenate([-ref[..., None], w], axis=-1)
    num = np.einsum("jia,abji,jib->ji", w, d, w)
    np.fill_diagonal(den, 1.0)
    out = num / den**2
    np.fill_diagonal(out, 0.25 * np.diag(d[0, 0]))
    return ASVTable(per_element=out, method=method)


def asv_deflation(model: AsymptoticModel) -> ASVTable:
    """Per-element limiting variances of the deflation-based estimator.

    Requires the identifiability ordering: the per-component criterion
    values sum_k lambda_kj^2, sorted by ``build_model``, must be strictly
    decreasing over the analysis lags.  Diagonal entries are (D_00)_jj / 4;
    off-diagonal entries follow the two rational expressions (extraction
    row before or after the interfering component) in lambda, mu and D_lm.
    """
    return _asv_table(model.lam, model.d, "deflation")


def asv_symmetric(model: AsymptoticModel) -> ASVTable:
    """Per-element limiting variances of the symmetric estimator.

    Requires pairwise identifiability: every pair of components must have
    distinct autocovariance profiles over the analysis lags.
    """
    return _asv_table(model.lam, model.d, "symmetric")


def _formulas(method: str, lags: tuple[int, ...]) -> str:
    """The formulas (``_FORMULAS``) that give the ASV of ``method`` on ``lags``."""
    if method not in _FORMULAS:
        raise ValueError(f"no ASV for method {method!r}")
    if method == "amuse" and len(lags) != 1:
        raise ValueError(f"no ASV for amuse on {len(lags)} lags: it has one lag, tau")
    return _FORMULAS[method]


def asv(model: AsymptoticModel, method: str) -> ASVTable:
    """Exact ASV table of ``method``, a formula or a solver name.

    ``"deflation"`` gives ``asv_deflation``; ``"symmetric"`` and both
    symmetric solvers give ``asv_symmetric``, and so does ``"amuse"`` on a
    model with exactly one lag, tau: AMUSE is SOBI with K = 1, and its limit
    law (Miettinen, Nordhausen, Oja & Taskinen, Stat. Probab. Lett. 82,
    2012) is the one-lag table.  Anything else raises ``ValueError``.
    """
    # looked up at call time, so a rebinding of the module names is honoured
    return globals()[f"asv_{_formulas(method, model.lags)}"](model)


def global_criterion(table: ASVTable) -> float:
    """Sum of off-diagonal ASVs: expected limit of T (p-1) D_hat^2."""
    pe = table.per_element
    return float(pe.sum() - np.trace(pe))


def transform_general_mixing(sigma: np.ndarray, gamma: np.ndarray,
                             target: str = "unmixing") -> np.ndarray:
    """Transport a vec-covariance from identity mixing to a general one.

    With ``target="unmixing"`` returns (Gamma' kron I) Sigma (Gamma kron I),
    the covariance of the vectorized unmixing estimate; ``"mixing"`` returns
    (I kron Omega) Sigma (I kron Omega') with Omega the inverse of Gamma.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    p = gamma.shape[0]
    sigma = np.asarray(sigma, dtype=float)
    if gamma.shape != (p, p):
        raise ValueError("gamma must be square")
    if sigma.shape != (p * p, p * p):
        raise ValueError("sigma must be p^2 x p^2")
    sv = np.linalg.svd(gamma, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise ValueError("gamma is singular")
    eye = np.eye(p)
    if target == "unmixing":
        left = np.kron(gamma.T, eye)
        return left @ sigma @ np.kron(gamma, eye)
    if target == "mixing":
        omega = np.linalg.inv(gamma)
        left = np.kron(eye, omega)
        return left @ sigma @ np.kron(eye, omega.T)
    raise ValueError("target must be 'unmixing' or 'mixing'")


def empirical_asv(
    x: np.ndarray,
    result: UnmixingResult,
    lags: Sequence[int],
    kmax: int | None = None,
    method: str | None = None,
) -> ASVTable:
    """Plug-in ASV estimate from recovered sources.

    Recovers z = Gamma x, estimates each component's autocorrelation
    sequence up to ``kmax`` (default 12 times the largest analysis lag,
    zero beyond), and evaluates the ASV formulas under independent normal
    innovations, for which every required D_lm entry is a function of the
    autocorrelation sequences alone.  This is the Table-2-style workflow:
    ``row_sums`` of the returned table rank candidate lag sets.

    Lag-k autocovariances use the divisor T - k and are scaled by the lag-0
    one (divisor T).  All lags of a component come from one real FFT of the
    series zero-padded to at least T + kmax points, so the cost is
    O(T log T) per component rather than O(T kmax); the autocorrelations
    then feed the same D_lm kernel as the exact tables.

    ``method`` (default ``result.method``) picks the formulas as ``asv``
    does: deflation, or symmetric for ``"symmetric"``, both symmetric
    solvers and, on exactly one lag, ``"amuse"``.  Any other method raises
    ``ValueError``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lags = tuple(int(k) for k in lags)
    if not lags or any(k <= 0 for k in lags):
        raise ValueError("lags must be positive and non-empty")
    formulas = _formulas(result.method if method is None else method, lags)
    if kmax is None:
        kmax = 12 * max(lags)
    p, T = x.shape
    kmax = min(kmax, T - 2)
    if kmax < max(lags):
        raise ValueError("horizon too small")

    z = result.gamma @ (x - x.mean(axis=1, keepdims=True))
    # one row at a time: a (p, nfft) transform would raise the peak memory
    nfft = sp_fft.next_fast_len(T + kmax, real=True)
    divisor = T - np.arange(kmax + 1)
    rho = np.empty((p, kmax + 1))
    for i in range(p):
        spec = sp_fft.rfft(z[i], nfft)
        acov = sp_fft.irfft(spec.real**2 + spec.imag**2, nfft)[: kmax + 1]
        rho[i] = (acov / divisor) / (acov[0] / T)
    rho[:, 0] = 1.0
    # beta_ij = 1 off the diagonal drops the F_l cross term: no F_k is needed
    return _asv_table(*_d_tensor(rho, lags, _normal_beta(p), np.zeros((0, p, p))), formulas)
