"""Limiting variances of unmixing estimates for MA(inf) sources.

Everything here is exact finite arithmetic once each source has a truncated
MA(inf) weight sequence: the cross-product matrices F_k vanish beyond the
weight support, so the nominally infinite sums in the covariance building
blocks D_lm collapse to finite ones.  The per-element asymptotic variances
(ASVs) of both SOBI estimators follow as rational expressions in the source
autocovariances lambda_kj and D_lm entries, and their off-diagonal sum is
the efficiency criterion used to compare estimators and lag sets.
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
    "dlm",
    "vlm",
    "asv",
    "asv_deflation",
    "asv_symmetric",
    "global_criterion",
    "transform_general_mixing",
    "empirical_asv",
]

_IDENT_TOL = 1e-12

# method of a fit (or a formula name) -> the ASV formulas that describe it
_FORMULAS = {
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
    kmax : int
        Horizon: F_k is stored for 0 <= k <= kmax and is exactly zero there
        beyond the weight support.
    beta : ndarray
        Fourth-moment parameters of the innovations, beta[i, i] =
        E(eps_i^4) and beta[i, j] = E(eps_i^2 eps_j^2).
    lags : tuple of int
        The analysis lags entering the estimators.
    f : dict
        Map k >= 0 -> F_k with (F_k)_ij = sum_t psi_{t,i} psi_{t+k,j}.
    diag_seqs : ndarray
        (p, 2 kmax + 1): row i holds lambda_k = (F_k)_ii at column kmax + k.
    order : tuple of int
        Row r is the component listed at position order[r].
    """

    expansions: tuple[MAExpansion, ...]
    kmax: int
    beta: np.ndarray
    lags: tuple[int, ...]
    f: dict
    diag_seqs: np.ndarray
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


def build_model(
    expansions: Sequence[MAExpansion],
    lags: Sequence[int],
    beta: np.ndarray | None = None,
    kmax: int | None = None,
) -> AsymptoticModel:
    """Assemble F_k, lambda_kj and fourth-moment data for ASV evaluation.

    Components, and ``beta`` given in listed order, are sorted into the
    order the deflation estimator extracts them: decreasing sum over
    ``lags`` of lambda_k^2, ties kept in listed order; the permutation is
    kept as ``order``.  ``kmax`` defaults to max(lags) + the longest weight
    support, which makes every D_lm sum exact; a smaller explicit horizon
    is rejected.  ``beta`` defaults to independent normal innovations
    (diagonal 3, off-diagonal 1).
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
    needed = (max(lags) if lags else 0) + support
    if kmax is None:
        kmax = needed
    elif kmax < needed:
        raise ValueError("horizon too small")

    if beta is None:
        beta = np.ones((p, p))
        np.fill_diagonal(beta, 3.0)
    beta = np.asarray(beta, dtype=float)
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

    f = {k: padded[:, : support - k] @ padded[:, k:].T if k < support
         else np.zeros((p, p)) for k in range(kmax + 1)}
    if np.max(np.abs(np.diag(f[0]) - 1.0)) > 1e-12:
        raise ValueError("expansions are not unit variance")

    lam = np.stack([np.diag(f[k]) for k in range(kmax + 1)], axis=1)
    return AsymptoticModel(
        expansions=tuple(expansions[i] for i in order), kmax=kmax, beta=beta,
        lags=lags, f=f, diag_seqs=np.concatenate([lam[:, :0:-1], lam], axis=1),
        order=tuple(order.tolist()),
    )


def _d_tensor(diag_seqs: np.ndarray, beta: np.ndarray, fsym: np.ndarray,
              lags: np.ndarray) -> np.ndarray:
    """All D_lm over a lag list at once: D[a, b] = D_{lags[a], lags[b]}.

    Every entry comes from the cross-products c_ij(s) = sum_k rho_i(k)
    rho_j(k + s) of the even sequences in ``diag_seqs``, one matmul per
    distinct shift s in {|m - l|, m + l} (evenness gives c(-s) = c(s)).
    Off-diagonal entries are (c(|m - l|) + c(m + l)) / 2 plus
    (beta_ij - 1) / 4 (F_l + F_l')_ij (F_m + F_m')_ij, with ``fsym[a]`` =
    F_l + F_l' at l = lags[a]; diagonal entries are c_ii(|m - l|) +
    c_ii(m + l) + (beta_ii - 3) lambda_l lambda_m.
    """
    p, n = diag_seqs.shape
    kmax = (n - 1) // 2
    size = lags.size
    shifts = np.concatenate([np.abs(lags[:, None] - lags[None, :]),
                             lags[:, None] + lags[None, :]]).ravel()
    uniq, where = np.unique(shifts, return_inverse=True)
    where = where.reshape(2, size, size)
    c = np.stack([diag_seqs[:, : n - s] @ diag_seqs[:, s:].T for s in uniq])
    d = c[where[0]]
    d += c[where[1]]
    idx = np.arange(p)
    lam = diag_seqs[:, kmax + lags].T
    diag = d[:, :, idx, idx] + (np.diag(beta) - 3.0) * lam[:, None] * lam[None, :]
    q = 0.25 * (beta - 1.0)
    np.fill_diagonal(q, 0.0)
    d *= 0.5
    d += q * (fsym[:, None] * fsym[None, :])
    d[:, :, idx, idx] = diag
    return d


def _model_tensor(model: AsymptoticModel, lags) -> np.ndarray:
    lags = np.asarray(lags, dtype=int)
    fsym = np.stack([model.f[k] + model.f[k].T for k in lags])
    return _d_tensor(model.diag_seqs, model.beta, fsym, lags)


def dlm(model: AsymptoticModel, l: int, m: int) -> np.ndarray:
    """Limiting covariance of sqrt(T) (S_l)_ij with sqrt(T) (S_m)_ij.

    Entry (i, j) of the returned matrix is the limiting covariance of the
    (i, j) elements of the symmetrized sample autocovariances at lags l and
    m.  Diagonal entries carry the within-component fourth moment, edge
    off-diagonal ones the cross-component term weighted by beta_ij - 1.
    This is one slice of the kernel the ASV tables use, which builds every
    D_lm over the analysis lags from cross-products of the autocovariance
    sequences.
    """
    maxlag = max(model.lags) if model.lags else 0
    if not (0 <= l <= maxlag and 0 <= m <= maxlag):
        raise ValueError("horizon too small")
    return _model_tensor(model, (l, m))[0, 1]


def vlm(d: np.ndarray) -> np.ndarray:
    """Full covariance of vec(S_l) with vec(S_m) from its element matrix.

    Returns diag(vec(d)) (K_pp - D_pp + I_{p^2}) with K_pp the commutation
    matrix and D_pp the diagonal-selector, using column-major vec.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float))
    p = d.shape[0]
    if d.shape != (p, p):
        raise ValueError("d must be square")
    n = p * p
    k_pp = np.zeros((n, n))
    d_pp = np.zeros((n, n))
    for i in range(p):
        for j in range(p):
            k_pp[i + j * p, j + i * p] = 1.0
        d_pp[i + i * p, i + i * p] = 1.0
    return np.diag(d.flatten(order="F")) @ (k_pp - d_pp + np.eye(n))


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


def _exact_terms(model: AsymptoticModel) -> tuple[np.ndarray, np.ndarray]:
    """lambda rows (lag x component) and D over (0,) + lags of a model."""
    lags = np.asarray(model.lags, dtype=int)
    lam = model.diag_seqs[:, model.kmax + lags].T
    return lam, _model_tensor(model, np.r_[0, lags])


def asv_deflation(model: AsymptoticModel) -> ASVTable:
    """Per-element limiting variances of the deflation-based estimator.

    Requires the identifiability ordering: the per-component criterion
    values sum_k lambda_kj^2, sorted by ``build_model``, must be strictly
    decreasing over the analysis lags.  Diagonal entries are (D_00)_jj / 4;
    off-diagonal entries follow the two rational expressions (extraction
    row before or after the interfering component) in lambda, mu and D_lm.
    """
    return _asv_table(*_exact_terms(model), "deflation")


def asv_symmetric(model: AsymptoticModel) -> ASVTable:
    """Per-element limiting variances of the symmetric estimator.

    Requires pairwise identifiability: every pair of components must have
    distinct autocovariance profiles over the analysis lags.
    """
    return _asv_table(*_exact_terms(model), "symmetric")


def asv(model: AsymptoticModel, method: str) -> ASVTable:
    """Exact ASV table of ``method``, a formula or a solver name.

    ``"deflation"`` gives ``asv_deflation``; ``"symmetric"`` and both
    symmetric solvers give ``asv_symmetric``.  Any other method, AMUSE
    included, raises ``ValueError``: its ASV is not implemented here.
    """
    if method not in _FORMULAS:
        raise ValueError(f"no ASV for method {method!r}")
    # looked up at call time, so a rebinding of the module names is honoured
    return globals()[f"asv_{_FORMULAS[method]}"](model)


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

    ``method`` (default ``result.method``) picks the formulas: deflation,
    or symmetric for ``"symmetric"`` and both symmetric solvers.  Any other
    method, AMUSE included, raises ``ValueError``: its ASV is not
    implemented here.
    """
    if method is None:
        method = result.method
    if method not in _FORMULAS:
        raise ValueError(f"no plug-in ASV for method {method!r}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lags = tuple(int(k) for k in lags)
    if not lags or any(k <= 0 for k in lags):
        raise ValueError("lags must be positive and non-empty")
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
    diag_seqs = np.concatenate([rho[:, :0:-1], rho], axis=1)

    beta = np.ones((p, p))
    np.fill_diagonal(beta, 3.0)
    lag_arr = np.asarray(lags)
    l0 = np.r_[0, lag_arr]
    # beta_ij = 1 off the diagonal drops the F_l cross term; zeros stand in
    d = _d_tensor(diag_seqs, beta, np.zeros((l0.size, p, p)), l0)
    return _asv_table(rho[:, lag_arr].T, d, _FORMULAS[method])
