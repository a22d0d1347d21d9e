"""Unmixing matrix estimation by (approximate) joint diagonalization.

Four estimators share one output convention: an orthogonal factor U applied
after whitening, Gamma = U @ W.  Rows are ordered by decreasing
diagonalization criterion sum_k (u_j' R_k u_j)^2 (AMUSE orders by its
eigenvalues instead) and signed so each row sums to a non-negative value.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings as _warnings

import numpy as np
from scipy.linalg import null_space

from .autocovariance import AutocovSet, autocorrelations, whitener

__all__ = [
    "UnmixingResult",
    "amuse",
    "sobi_deflation",
    "sobi_symmetric_fixedpoint",
    "sobi_symmetric_jacobi",
    "estimating_residual",
]


@dataclasses.dataclass(frozen=True)
class UnmixingResult:
    """Estimated unmixing matrix with solver diagnostics.

    ``gamma`` is ``u @ whitener`` by construction; ``objective`` is the
    joint diagonality criterion over the analysis lags; ``residual`` is the
    unwhitened estimating-equation residual (see ``estimating_residual``).
    """

    gamma: np.ndarray
    u: np.ndarray
    whitener: np.ndarray
    method: str
    iterations: int
    converged: bool
    objective: float
    residual: float
    warnings: tuple[str, ...] = ()


def _tmap_rows(U: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Rows T(u_j) = sum_k (u_j' R_k u_j) R_k u_j for all rows of U."""
    y = np.einsum("kab,jb->kja", R, U)
    d = np.einsum("jb,kjb->kj", U, y)
    return np.einsum("kj,kja->ja", d, y)


def _criterion_rows(U: np.ndarray, R: np.ndarray) -> np.ndarray:
    d = np.einsum("jb,kab,ja->kj", U, R, U)
    return np.sum(d**2, axis=0)


def _fix_signs(U: np.ndarray) -> np.ndarray:
    U = U.copy()
    for j in range(U.shape[0]):
        s = U[j].sum()
        if s < 0:
            U[j] = -U[j]
        elif s == 0:
            nz = np.nonzero(U[j])[0]
            if nz.size and U[j, nz[0]] < 0:
                U[j] = -U[j]
    return U


def _order_rows(U: np.ndarray, crit: np.ndarray, tie_tol: float = 1e-12) -> np.ndarray:
    """Indices sorting rows by criterion descending, ties broken on |u|."""

    def cmp(a, b):
        if crit[a] - crit[b] > tie_tol:
            return -1
        if crit[b] - crit[a] > tie_tol:
            return 1
        ua, ub = np.abs(U[a]), np.abs(U[b])
        for x, y in zip(ua, ub):
            if x != y:
                return -1 if x > y else 1
        return 0

    return sorted(range(U.shape[0]), key=functools.cmp_to_key(cmp))


def _finish(U, R, reorder=True):
    crit = _criterion_rows(U, R)
    if reorder:
        idx = _order_rows(U, crit)
        U = U[idx]
    U = _fix_signs(U)
    return U, float(crit.sum())


def amuse(acs: AutocovSet, tau: int) -> UnmixingResult:
    """Unmixing from the eigendecomposition of a single whitened lag.

    Rows follow the eigenvalues of R_tau in decreasing order; a
    near-degenerate spectrum is flagged with the warning "eigenvalue tie"
    but a result is still returned.
    """
    if tau not in acs.lags:
        raise ValueError(f"tau = {tau} not among the computed lags")
    W = whitener(acs.s0)
    R = np.stack(autocorrelations(acs, W))
    r_tau = R[acs.lags.index(tau)]
    evals, evecs = np.linalg.eigh(r_tau)
    idx = np.argsort(-evals, kind="stable")
    evals = evals[idx]
    U = evecs[:, idx].T
    warn: tuple[str, ...] = ()
    if U.shape[0] > 1:
        spread = float(evals[0] - evals[-1])
        if np.min(-np.diff(evals)) < 1e-10 * max(spread, np.finfo(float).tiny):
            warn = ("eigenvalue tie",)
            _warnings.warn("eigenvalue tie", RuntimeWarning, stacklevel=2)
    U = _fix_signs(U)
    gamma = U @ W
    result = UnmixingResult(
        gamma=gamma, u=U, whitener=W, method="amuse", iterations=0,
        converged=True, objective=float(_criterion_rows(U, R).sum()),
        residual=0.0, warnings=warn,
    )
    return dataclasses.replace(result, residual=estimating_residual(result, acs))


def sobi_deflation(
    acs: AutocovSet,
    tol: float = 1e-10,
    max_iter: int = 1000,
    restarts: int = 5,
    seed: int = 0,
) -> UnmixingResult:
    """Deflation-based SOBI: rows extracted one by one.

    Row j maximizes sum_k (u' R_k u)^2 over unit vectors orthogonal to the
    rows already found, iterating u <- normalize(P T(u)) with P the
    projector onto that orthogonal complement.  Each row is restarted from
    ``restarts`` random directions and the run with the largest criterion
    value is kept; the last row completes the orthonormal basis.  Rows stay
    in extraction order, which is criterion-descending whenever each
    subproblem is maximized.
    """
    W = whitener(acs.s0)
    R = np.stack(autocorrelations(acs, W))
    p = acs.p
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    total_iter = 0
    all_converged = True

    for _ in range(p - 1):
        basis = np.array(rows) if rows else np.empty((0, p))
        proj = np.eye(p) - basis.T @ basis
        best_u, best_crit, best_iters, best_conv = None, -1.0, 0, False
        for _ in range(max(restarts, 1)):
            u = proj @ rng.standard_normal(p)
            norm = np.linalg.norm(u)
            if norm < 1e-12:
                continue
            u /= norm
            run_conv = False
            it = 0
            for it in range(1, max_iter + 1):
                v = proj @ _tmap_rows(u[None, :], R)[0]
                n = np.linalg.norm(v)
                if n < 1e-13:
                    break
                v /= n
                if np.linalg.norm(v - u) < tol:
                    u = v
                    run_conv = True
                    break
                u = v
            crit = float(_criterion_rows(u[None, :], R)[0])
            if crit > best_crit:
                best_u, best_crit, best_iters, best_conv = u, crit, it, run_conv
        if best_u is None:
            # every restart draw collapsed; fall back to any feasible direction
            q = np.linalg.qr(proj)[0][:, 0]
            best_u, best_conv = q / np.linalg.norm(q), False
        rows.append(best_u)
        total_iter += best_iters
        all_converged = all_converged and best_conv

    if rows:
        last = null_space(np.array(rows))
        rows.append(last[:, 0])
        U = np.array(rows)
    else:
        U = np.eye(p)
    U, objective = _finish(U, R, reorder=False)
    gamma = U @ W
    result = UnmixingResult(
        gamma=gamma, u=U, whitener=W, method="deflation",
        iterations=total_iter, converged=all_converged, objective=objective,
        residual=0.0,
    )
    return dataclasses.replace(result, residual=estimating_residual(result, acs))


def sobi_symmetric_fixedpoint(
    acs: AutocovSet,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> UnmixingResult:
    """Symmetric SOBI by fixed-point iteration on all rows at once.

    Alternates T <- (T(u_1), ..., T(u_p))' with the orthogonal polar
    retraction U <- (T T')^(-1/2) T, starting from the eigenbasis of the
    smallest analysis lag.  Row signs are aligned between iterates (the
    polar factor is sign-ambiguous per row) and iteration stops when
    max |U_new - U_old| < tol.
    """
    W = whitener(acs.s0)
    R = np.stack(autocorrelations(acs, W))
    p = acs.p
    U = amuse(acs, min(acs.lags)).u
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        tmat = _tmap_rows(U, R)
        m = tmat @ tmat.T
        evals, evecs = np.linalg.eigh((m + m.T) / 2)
        if evals[0] <= 1e-14 * max(evals[-1], 0.0):
            raise ValueError("degenerate temporal structure")
        u_new = (evecs * evals**-0.5) @ evecs.T @ tmat
        flip = np.where(np.einsum("ij,ij->i", u_new, U) < 0, -1.0, 1.0)
        u_new = flip[:, None] * u_new
        delta = np.max(np.abs(u_new - U))
        U = u_new
        if delta < tol:
            converged = True
            break
    U, objective = _finish(U, R)
    gamma = U @ W
    result = UnmixingResult(
        gamma=gamma, u=U, whitener=W, method="symmetric-fixedpoint",
        iterations=it, converged=converged, objective=objective, residual=0.0,
    )
    return dataclasses.replace(result, residual=estimating_residual(result, acs))


def sobi_symmetric_jacobi(
    acs: AutocovSet,
    tol: float = 1e-12,
    max_sweeps: int = 100,
) -> UnmixingResult:
    """Symmetric SOBI by cyclic Jacobi rotations.

    Each pair (i, j) is rotated by the closed-form angle maximizing the
    summed squared diagonals of the rotated matrices; sweeps stop when the
    largest |sin(angle)| falls below ``tol``.
    """
    W = whitener(acs.s0)
    R = np.stack(autocorrelations(acs, W))
    p = acs.p
    A = R.copy()
    U = np.eye(p)
    converged = False
    sweeps = 0   # sweeps that rotated by at least tol; already-diagonal input needs none
    passes = 0
    while passes < max_sweeps:
        passes += 1
        max_sin = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                am = A[:, i, i] - A[:, j, j]
                ap = A[:, i, j] + A[:, j, i]
                ton = float(np.sum(am * am - ap * ap))
                toff = float(2.0 * np.sum(am * ap))
                theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
                c, s = np.cos(theta), np.sin(theta)
                max_sin = max(max_sin, abs(s))
                if s == 0.0:
                    continue
                ai, aj = A[:, i, :].copy(), A[:, j, :].copy()
                A[:, i, :], A[:, j, :] = c * ai + s * aj, -s * ai + c * aj
                ai, aj = A[:, :, i].copy(), A[:, :, j].copy()
                A[:, :, i], A[:, :, j] = c * ai + s * aj, -s * ai + c * aj
                ui, uj = U[i].copy(), U[j].copy()
                U[i], U[j] = c * ui + s * uj, -s * ui + c * uj
        if max_sin < tol:
            converged = True
            break
        sweeps += 1
    U, objective = _finish(U, R)
    gamma = U @ W
    result = UnmixingResult(
        gamma=gamma, u=U, whitener=W, method="symmetric-jacobi",
        iterations=sweeps, converged=converged, objective=objective,
        residual=0.0,
    )
    return dataclasses.replace(result, residual=estimating_residual(result, acs))


def estimating_residual(result: UnmixingResult, acs: AutocovSet) -> float:
    """Unwhitened estimating-equation residual of a solution.

    Symmetric methods: max_{i != j} |gamma_i' T(gamma_j) - gamma_j'
    T(gamma_i)| plus the worst violation of gamma_i' S_0 gamma_j = delta_ij,
    with T built from the lagged sample autocovariances.  Deflation: the
    largest entry of T(gamma_j) - S_0 (sum_{r <= j} gamma_r gamma_r')
    T(gamma_j) over the first p - 1 rows.
    """
    G = result.gamma
    p = G.shape[0]
    tg = _tmap_rows(G, np.stack([acs.lagged[k] for k in acs.lags]))
    if result.method == "deflation":
        if p == 1:
            return 0.0
        worst = 0.0
        acc = np.zeros((p, p))
        for j in range(p - 1):
            acc += np.outer(G[j], G[j])
            diff = tg[j] - acs.s0 @ acc @ tg[j]
            worst = max(worst, float(np.max(np.abs(diff))))
        return worst
    cross = G @ tg.T
    skew = np.abs(cross - cross.T)
    np.fill_diagonal(skew, 0.0)
    ortho = np.abs(G @ acs.s0 @ G.T - np.eye(p))
    return float(skew.max() + ortho.max())
