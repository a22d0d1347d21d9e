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

from .autocovariance import _as_series, _check_lags
from .joint_diag import _KERNELS, UnmixingResult
from .signal_model import MAExpansion

__all__ = [
    "AsymptoticModel",
    "ASVTable",
    "build_model",
    "asv",
    "global_criterion",
    "transform_general_mixing",
    "empirical_asv",
]

_IDENT_TOL = 1e-12
# Largest D tensor, (K + 1)^2 p^2 doubles, that _d_tensor builds; its
# temporaries are as large again.
_D_MAX_BYTES = 256 << 20


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
        Row r is the component listed at position order[r]; ties in the
        sort key keep the listed order (see ``build_model``).
    """

    expansions: tuple[MAExpansion, ...]
    beta: np.ndarray
    lags: tuple[int, ...]
    lam: np.ndarray
    d: np.ndarray
    order: tuple[int, ...]


class _NegativeASV(ValueError):
    """An ASV table with a negative entry: its D tensor is not a covariance."""


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
        lo, hi = pe.min(), pe.max()
        if not -np.inf < lo <= hi < np.inf:  # also fails on nan
            raise ValueError("ASV entries must be finite")
        if lo < -1e-9:
            raise _NegativeASV("negative ASV entry; inconsistent model")
        object.__setattr__(self, "per_element", np.maximum(pe, 0.0))

    def row_sums(self) -> np.ndarray:
        """Per-row variance totals, the lag-selection ranking statistic."""
        return self.per_element.sum(axis=1)


def build_model(
    expansions: Sequence[MAExpansion],
    lags: Sequence[int],
    beta: np.ndarray | None = None,
) -> AsymptoticModel:
    """Assemble lambda_kj and every D_lm that the ASV formulas read.

    One direct sum per component gives its lambda_k below its weight
    support, with exact zeros kept, and one zero column past the longest
    support stands for lambda at every later lag: every D_lm sum is exact,
    and no cost grows with the largest lag.  That sequence gives the
    unit-variance check, lambda at (0,) + ``lags`` and the normal-innovation
    D (``_d_tensor``).  Components, and ``beta`` given in listed order, are
    sorted into deflation's extraction order, decreasing sum over ``lags``
    of lambda_k^2; sorted sums that differ from a neighbour by at most
    ``_IDENT_TOL`` times the largest sum are tied, and a chain of ties keeps
    the listed order.  The permutation is kept as ``order``.  ``beta``
    defaults to normal innovations (diagonal 3, off-diagonal 1), whose
    fourth-moment terms are exact zeros and are not formed.  A given beta
    adds (beta_ii - 3) lambda_l lambda_m to the diagonal of D and (beta_ij
    - 1) / 4 (F_l + F_l')_ij (F_m + F_m')_ij off it, (F_k)_ij = sum_t
    psi_{t,i} psi_{t+k,j}, formed at (0,) + lags only.
    """
    expansions = tuple(expansions)
    p = len(expansions)
    if p == 0:
        raise ValueError("at least one expansion is required")
    lags = _check_lags(lags)

    if beta is not None:
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (p, p):
            raise ValueError("beta must be p x p")
        if np.max(np.abs(beta - beta.T)) > 1e-12:
            raise ValueError("beta must be symmetric")
        if np.any(np.diag(beta) < 1.0):
            raise ValueError("beta diagonal must be at least 1")

    support = max(e.psi.size for e in expansions)
    seqs = np.zeros((p, support + 1))
    for i, e in enumerate(expansions):
        seqs[i, : e.psi.size] = np.correlate(e.psi, e.psi, "full")[e.psi.size - 1:]
    if np.abs(seqs[:, 0] - 1.0).max() > 1e-12:
        raise ValueError("expansions are not unit variance")
    at = seqs[:, np.minimum((0, *lags), support)]  # lambda at (0,) + lags
    strength = (at[:, 1:] ** 2).sum(axis=1)
    order = np.argsort(-strength, kind="stable")
    run = np.cumsum(np.diff(strength[order]) < -_IDENT_TOL * strength.max())
    order = order[np.lexsort((order, np.concatenate(([0], run))))]
    expansions = tuple(expansions[i] for i in order)
    seqs, at = seqs[order], at[order].T

    d = _d_tensor(seqs, lags)
    if beta is not None:  # the fourth-moment terms, zero for the normal default
        beta = beta[order[:, None], order]
        idx = np.arange(p)
        d[:, :, idx, idx] += (np.diag(beta) - 3.0) * at[:, None] * at[None, :]
        q = 0.25 * (beta - 1.0) * (1.0 - np.eye(p))
        if q.any():
            psi = np.array([np.pad(e.psi, (0, support - e.psi.size)) for e in expansions])
            f = np.stack([psi[:, : max(support - k, 0)] @ psi[:, k:].T for k in (0, *lags)])
            fsym = f + f.transpose(0, 2, 1)
            d += q * (fsym[:, None] * fsym[None, :])
    return AsymptoticModel(expansions=expansions, lags=lags, lam=at[1:], d=d,
                           beta=np.eye(p) * 2.0 + 1.0 if beta is None else beta,
                           order=tuple(order.tolist()))


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the real FFT length scipy.fft.next_fast_len picks."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < n:
        p35 = p5
        while p35 < n:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        best, p5 = min(best, p35), p5 * 5
    return min(best, p5)


def _d_tensor(seqs: np.ndarray, lags) -> np.ndarray:
    """The normal-innovation D_lm over (0,) + lags.

    ``seqs`` (p, n) holds each component's lambda_k for 0 <= k < n, zero
    beyond.  In the returned D, D[a, b] = D_lm at l, m = positions a, b of
    (0,) + lags, for independent normal innovations (beta_ii = 3, beta_ij =
    1): the part that the exact and the plug-in tables share, to which
    ``build_model`` adds the fourth-moment terms of other beta.  Every entry
    comes from the cross-products c_ij(s) = sum_k rho_i(k) rho_j(k + s) of
    the even extensions of ``seqs`` (length L = 2n - 1), so c(-s) = c(s),
    c_ij = c_ji and c(s) = 0 for s >= L.  D reads c at shifts up to
    S = min(2 max(lags), L), and shift L is one zeroed column (c(L) = 0 but
    for FFT rounding).  One inverse real FFT of conj(X_i) X_j, X the real
    FFTs zero-padded to a period of _fast_len(L + min(S, L - 1)), gives
    c_ij at every shift read below L clear of the circular wrap, exact up to
    FFT rounding of about 1e-16 max|D|, so the cost is O(p^2 (L + S)
    log(L + S) + K^2 p^2), whatever the lags.  Off-diagonal entries are
    (c(|m - l|) + c(m + l)) / 2; diagonal ones c_ii(|m - l|) + c_ii(m + l).
    """
    nbytes = 8 * (len(lags) + 1) ** 2 * len(seqs) ** 2
    if nbytes > _D_MAX_BYTES:
        raise ValueError(f"{len(lags)} lags need a {nbytes / 2**20:.0f} MiB D tensor, "
                         f"over the {_D_MAX_BYTES >> 20} MiB bound")
    lags = np.array((0, *lags))
    diag_seqs = np.concatenate([seqs[:, :0:-1], seqs], axis=1)
    p, size, L = len(seqs), lags.size, diag_seqs.shape[1]
    nfft = _fast_len(L + min(2 * int(lags.max()), L - 1))
    spec = np.fft.rfft(diag_seqs, nfft)
    near, far = abs(lags[:, None] - lags), lags[:, None] + lags
    d = np.empty((p, p, size, size))  # (i, j, a, b): one C-contiguous block per pair
    for i in range(p):  # row i against every j >= i holds O(p nfft) at a time
        r = np.fft.irfft(spec[i].conj() * spec[i:], nfft)[:, : L + 1]
        r[1:] *= 0.5  # j > i: off-diagonal entries carry c / 2
        r[:, L] = 0.0  # mode="clip" reads every shift past L here
        d[i, i:] = r.take(near, axis=1, mode="clip") + r.take(far, axis=1, mode="clip")
        d[i + 1:, i] = d[i, i + 1:]
    return d.transpose(2, 3, 0, 1)


def _asv_table(lam: np.ndarray, d: np.ndarray, method: str) -> ASVTable:
    """Closed-form ASVs from lambda rows (lag x component) and D over (0,) + lags.

    Entry (j, i) off the diagonal is w' D[:, :, j, i] w / den^2, all in one
    batched matmul.  Symmetric: w = (-nu, lambda_j - lambda_i), nu = lambda_j'
    (lambda_j - lambda_i), den = |lambda_j - lambda_i|^2.  Deflation, with r =
    min(i, j) extracted first and mu = lambda' lambda: w = (-mu_rj, lambda_r),
    den = mu_rj - mu_ri.  Diagonal entries are (D_00)_jj / 4.
    """
    p = lam.shape[1]
    s = (lam**2).sum(axis=0)
    scale = float(s.max())
    if scale <= _IDENT_TOL or (
            method == "deflation" and np.any(s[1:] - s[:-1] >= -_IDENT_TOL * scale)):
        raise ValueError("identifiability failure")
    idx = np.arange(p)
    if method == "deflation":
        r = np.minimum(idx, idx[:, None])  # of j and i, the component extracted first
        mu = lam.T @ lam
        ref = mu[r, idx[:, None]]
        den = np.abs(ref - mu[r, idx])
        w = lam.T[r]
    else:
        w = lam.T[:, None, :] - lam.T
        den = (w**2).sum(axis=-1)
        ref = (w @ lam.T[:, :, None])[..., 0]
    den.flat[:: p + 1] = np.inf  # the diagonal takes no check and no quotient
    if np.any(den <= _IDENT_TOL * scale):
        raise ValueError(("" if method == "deflation" else "pairwise ") + "identifiability failure")
    w = np.concatenate([-ref[..., None], w], axis=-1)
    num = (w[..., None, :] @ d.transpose(2, 3, 0, 1) @ w[..., :, None])[..., 0, 0]
    out = num / den**2
    out.flat[:: p + 1] = 0.25 * d[0, 0].diagonal()
    return ASVTable(per_element=out, method=method)


def _formulas(method: str, lags: tuple[int, ...]) -> str:
    """The formulas of ``method``, a ``_KERNELS`` name or "symmetric", on ``lags``: deflation's
    or the symmetric ones.  AMUSE is SOBI on its one lag, where both agree; the symmetric
    table needs AMUSE's lambda_i != lambda_j, the deflation one lambda_i^2 != lambda_j^2."""
    if method not in _KERNELS and method != "symmetric":
        raise ValueError(f"no ASV for method {method!r}")
    if method == "amuse" and len(lags) != 1:
        raise ValueError(f"no ASV for amuse on {len(lags)} lags: it has one lag, tau")
    return "deflation" if method == "deflation" else "symmetric"


def asv(model: AsymptoticModel, method: str) -> ASVTable:
    """Exact per-element limiting variances of ``method``, a formula or a solver name.

    ``"deflation"`` gives the deflation-based estimator's table.  It requires
    the identifiability ordering: the per-component criterion values sum_k
    lambda_kj^2, sorted by ``build_model``, must be strictly decreasing over
    the analysis lags (Miettinen, Nordhausen, Oja & Taskinen, J. Multivariate
    Anal. 123, 2014).  Its off-diagonal entries follow the two rational
    expressions (extraction row before or after the interfering component)
    in lambda, mu and D_lm.  ``"symmetric"`` and both symmetric solvers give
    the symmetric estimator's table, which requires pairwise
    identifiability: every pair of components must have distinct
    autocovariance profiles over the analysis lags.  ``"amuse"`` gives it too
    on a model with exactly one lag, tau: AMUSE is SOBI with K = 1, and its
    limit law (Miettinen, Nordhausen, Oja & Taskinen, Stat. Probab. Lett.
    82, 2012) is the one-lag table.  Diagonal entries are (D_00)_jj / 4.
    Anything else, or a model that fails the requirement, raises
    ``ValueError``.
    """
    return _asv_table(model.lam, model.d, _formulas(method, model.lags))


def global_criterion(table: ASVTable) -> float:
    """Sum of off-diagonal ASVs: expected limit of T (p-1) D_hat^2."""
    pe = table.per_element
    return float(pe.sum() - pe.trace())


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
    then feed the same D_lm kernel as the exact tables.  ``x`` is checked
    as ``autocov_set`` checks it, and the table does not depend on its
    memory layout.

    ``result.method`` picks the formulas as ``asv`` does: deflation, or
    symmetric for both symmetric solvers and, on exactly one lag, AMUSE.
    Any other method raises ``ValueError``, and so does a table with a
    negative entry, which a horizon too long for T gives: the message names
    the lags, kmax and T.
    """
    x = _as_series(x)
    lags = _check_lags(lags)
    if not lags:
        raise ValueError("lags must be positive and non-empty")
    formulas = _formulas(result.method, lags)
    if kmax is None:
        kmax = 12 * max(lags)
    p, T = x.shape
    if result.gamma.shape != (p, p):
        raise ValueError(f"the fit unmixes {result.gamma.shape[1]} rows, the series has {p}")
    kmax = min(kmax, T - 2)
    if kmax < max(lags):
        raise ValueError("horizon too small")

    # one row at a time: a (p, nfft) transform would raise the peak memory
    nfft = _fast_len(T + kmax)
    acov = np.empty((p, kmax + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        z = result.gamma @ (x - x.mean(axis=1, keepdims=True))
        for i in range(p):
            spec = np.fft.rfft(z[i], nfft)
            acov[i] = np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[: kmax + 1]
    if not np.all(np.isfinite(acov)):
        raise ValueError("series values too large: their autocovariances overflow")
    var = acov[:, :1] / T
    if np.any(var <= 0):
        raise ValueError("series values too small: a source's lag-0 autocovariance is zero")
    rho = (acov / (T - np.arange(kmax + 1))) / var
    rho[:, 0] = 1.0
    try:
        return _asv_table(rho[:, list(lags)].T, _d_tensor(rho, lags), formulas)
    except _NegativeASV:
        raise ValueError(
            f"negative plug-in ASV entry for lags {' '.join(map(str, lags))} at kmax = {kmax}, "
            f"T = {T}: autocovariances that far out rest on too few products; "
            "try a smaller kmax (lagselect --kmax)") from None
