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
from typing import NamedTuple

import numpy as np

from .autocovariance import AutocovSet, autocorrelations, whitener

__all__ = [
    "UnmixingResult",
    "BlockFit",
    "amuse",
    "sobi_deflation",
    "sobi_symmetric_fixedpoint",
    "sobi_symmetric_jacobi",
    "deflation_block",
    "fixedpoint_block",
    "jacobi_block",
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


class BlockFit(NamedTuple):
    """Solutions of a block of B problems, one entry per problem.

    ``u`` (B, p, p) holds the finished orthogonal factors, ordered and
    signed as in ``UnmixingResult.u``; ``objective``, ``iterations`` and
    ``converged`` are the per-problem diagnostics of ``UnmixingResult``.
    """

    u: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _tmap_rows(U: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Rows T(u_j) = sum_k (u_j' R_k u_j) R_k u_j for all rows of U.

    Leading axes of U (..., j, p) and R (..., K, p, p) are batch axes.
    """
    y = np.einsum("...kab,...jb->...kja", R, U)
    d = np.einsum("...jb,...kjb->...kj", U, y)
    return np.einsum("...kj,...kja->...ja", d, y)


def _criterion_rows(U: np.ndarray, R: np.ndarray) -> np.ndarray:
    d = np.einsum("...jb,...kab,...ja->...kj", U, R, U)
    return np.sum(d**2, axis=-2)


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Rows of U (..., p, p) negated if their sum is < 0, or 0 with a first nonzero entry < 0."""
    first = np.take_along_axis(U, np.argmax(U != 0, axis=-1)[..., None], -1)[..., 0]
    s = U.sum(axis=-1)
    flip = (s < 0) | ((s == 0) & (first < 0))
    return np.where(flip[..., None], -U, U)


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
    """Signed (with ``reorder`` also ordered) rows of a block U (B, p, p), and each criterion."""
    crit = _criterion_rows(U, R)
    if reorder:
        U = np.stack([u[_order_rows(u, c)] for u, c in zip(U, crit)])
    return _fix_signs(U), crit.sum(axis=-1)


def _start(lags) -> int:
    """Index of the smallest lag: AMUSE's default lag, and the fixed point's start."""
    return lags.index(min(lags))


def _amuse_block(R: np.ndarray, start: int) -> BlockFit:
    """AMUSE on B whitened lag stacks R (B, K, p, p): each problem's rows are the
    signed eigenvectors of its R[:, start], by decreasing eigenvalue."""
    evals, evecs = np.linalg.eigh(R[:, start])
    idx = np.argsort(-evals, axis=-1, kind="stable")
    # gathered as C-contiguous rows: _tmap_rows' einsums round differently on an F-ordered U
    U, objective = _finish(np.take_along_axis(evecs.mT, idx[..., None], -2), R, reorder=False)
    return BlockFit(U, objective, np.zeros(len(R), dtype=int), np.ones(len(R), dtype=bool))


def _unmix(acs: AutocovSet, method: str, solve) -> UnmixingResult:
    """Whiten ``acs``, ``solve`` its lag stack as a block of one and assemble the result."""
    if not acs.lags:
        raise ValueError("nothing to diagonalize: the lag set is empty")
    W = whitener(acs.s0)
    fit = solve(autocorrelations(acs, W)[None])
    U = fit.u[0]
    result = UnmixingResult(
        gamma=U @ W, u=U, whitener=W, method=method,
        iterations=int(fit.iterations[0]), converged=bool(fit.converged[0]),
        objective=float(fit.objective[0]), residual=0.0,
    )
    return dataclasses.replace(result, residual=estimating_residual(result, acs))


def amuse(acs: AutocovSet, tau: int) -> UnmixingResult:
    """Unmixing from the eigendecomposition of a single whitened lag.

    Rows follow the eigenvalues of R_tau in decreasing order; a
    near-degenerate spectrum gives the warning "eigenvalue tie"
    but a result is still returned.
    """
    if tau not in acs.lags:
        raise ValueError(f"tau = {tau} not among the computed lags")
    a = acs.lags.index(tau)
    result = _unmix(acs, "amuse", lambda R: _amuse_block(R, a))
    # the eigenvalues of R_tau, row by row: gamma S_tau gamma' = U R_tau U'
    evals = np.einsum("ja,ab,jb->j", result.gamma, acs.sk[a], result.gamma)
    spread = float(evals[0] - evals[-1])
    if np.any(-np.diff(evals) < 1e-10 * max(spread, np.finfo(float).tiny)):
        _warnings.warn("eigenvalue tie", RuntimeWarning, stacklevel=2)
        result = dataclasses.replace(result, warnings=("eigenvalue tie",))
    return result


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
    return _unmix(acs, "deflation", lambda R: deflation_block(
        R, [np.random.default_rng(seed)], tol=tol, max_iter=max_iter, restarts=restarts))


def deflation_block(
    R: np.ndarray,
    rngs,
    tol: float = 1e-10,
    max_iter: int = 1000,
    restarts: int = 5,
) -> BlockFit:
    """Deflation-based SOBI on B whitened lag stacks R of shape (B, K, p, p).

    Problem b draws its start directions from ``rngs[b]``, one
    (restarts, p) draw per row, which is the stream that drawing one
    direction at a time gives.  For each row every (problem, restart)
    pair iterates in one active set; a pair leaves it when its step falls
    below ``tol`` (converged) or its image collapses (it keeps its previous
    direction).  Each problem's result does not depend on the block it is
    solved in: the batched forms round like the one-problem ones.
    """
    B, _, p, _ = R.shape
    restarts = max(restarts, 1)
    rows = np.empty((B, p, p))
    iterations = np.zeros(B, dtype=int)
    converged = np.ones(B, dtype=bool)

    for j in range(p - 1):
        proj = np.eye(p) - rows[:, :j].mT @ rows[:, :j]
        draws = np.stack([rng.standard_normal((restarts, p)) for rng in rngs])
        # stacked matmul and sqrt(vecdot) round like proj @ v and the 1-D
        # norm; einsum or norm(axis=...) forms do not, and on near-tied
        # sources one ulp can move the stopping iteration
        starts = (proj[:, None] @ draws[..., None])[..., 0].reshape(B * restarts, p)
        norms = np.sqrt(np.vecdot(starts, starts))
        # a collapsed start direction is skipped, its draw still consumed
        started = act = np.nonzero(~(norms < 1e-12))[0]
        u = starts[act] / norms[act, None]
        P, Ra = proj[act // restarts], R[act // restarts]
        final = np.empty((B * restarts, p))
        iters = np.zeros(B * restarts, dtype=int)
        conv = np.zeros(B * restarts, dtype=bool)
        for it in range(1, max_iter + 1):
            if act.size == 0:
                break
            v = (P @ _tmap_rows(u[:, None], Ra)[:, 0, :, None])[..., 0]
            n = np.sqrt(np.vecdot(v, v))
            collapsed = n < 1e-13
            v = np.where(collapsed[:, None], u, v / np.where(collapsed, 1.0, n)[:, None])
            step = v - u
            done = ~collapsed & (np.sqrt(np.vecdot(step, step)) < tol)
            stop = collapsed | done
            if stop.any():
                final[act[stop]] = v[stop]
                iters[act[stop]] = it
                conv[act[stop]] = done[stop]
                keep = ~stop
                act, u, P, Ra = act[keep], v[keep], P[keep], Ra[keep]
            else:
                u = v
        final[act] = u
        iters[act] = max(max_iter, 0)

        crit = np.full(B * restarts, -np.inf)
        crit[started] = _criterion_rows(final[started, None], R[started // restarts])[:, 0]
        # the first restart with the strictly largest criterion wins
        crit = crit.reshape(B, restarts)
        best = np.argmax(np.where(crit > -1.0, crit, -np.inf), axis=1)
        for b in range(B):
            k = b * restarts + best[b]
            if crit[b, best[b]] > -1.0:
                rows[b, j] = final[k]
                iterations[b] += iters[k]
                converged[b] &= conv[k]
            else:
                # every restart draw collapsed; fall back to any feasible direction
                q = np.linalg.qr(proj[b])[0][:, 0]
                rows[b, j] = q / np.linalg.norm(q)
                converged[b] = False

    # the last row spans the null space of the others, as its SVD gives it
    rows[:, p - 1] = np.linalg.svd(rows[:, : p - 1])[2][:, -1]
    rows, objective = _finish(rows, R, reorder=False)
    return BlockFit(rows, objective, iterations, converged)


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
    return _unmix(acs, "symmetric-fixedpoint", lambda R: fixedpoint_block(
        R, _start(acs.lags), tol=tol, max_iter=max_iter))


def fixedpoint_block(
    R: np.ndarray,
    start: int,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> BlockFit:
    """Symmetric fixed-point SOBI on B whitened lag stacks R of shape (B, K, p, p).

    Each problem starts from its AMUSE fit on lag R[:, start] (``_amuse_block``).
    Live problems iterate together; one leaves after the first iteration whose
    max |U_new - U_old| is below ``tol`` (converged), which ``iterations``
    counts.  A problem's result does not depend on the block it is in.
    """
    U = _amuse_block(R, start).u
    live, Ra = np.arange(len(R)), R
    out = np.empty_like(U)
    iterations = np.full(len(R), max(max_iter, 0))
    converged = np.zeros(len(R), dtype=bool)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        tmat = _tmap_rows(U, Ra)
        m = tmat @ tmat.mT
        evals, evecs = np.linalg.eigh((m + m.mT) / 2)
        if np.any(evals[:, 0] <= 1e-14 * np.maximum(evals[:, -1], 0.0)):
            raise ValueError("degenerate temporal structure")
        u_new = (evecs * evals[:, None] ** -0.5) @ evecs.mT @ tmat
        u_new *= np.where(np.einsum("...ij,...ij->...i", u_new, U) < 0, -1.0, 1.0)[..., None]
        done = np.max(np.abs(u_new - U), axis=(-2, -1)) < tol
        U = u_new
        if done.any():
            out[live[done]] = U[done]
            iterations[live[done]] = it
            converged[live[done]] = True
            U, Ra, live = U[~done], Ra[~done], live[~done]
    out[live] = U
    U, objective = _finish(out, R)
    return BlockFit(U, objective, iterations, converged)


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
    return _unmix(acs, "symmetric-jacobi",
                  lambda R: jacobi_block(R, tol=tol, max_sweeps=max_sweeps))


def jacobi_block(R: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> BlockFit:
    """Cyclic Jacobi sweeps on B whitened lag stacks R of shape (B, K, p, p).

    All live problems rotate together, pair by pair; a pair whose angle has
    sin = 0 is not rotated.  A problem leaves after the first sweep whose
    largest |sin(angle)| is below ``tol`` (converged); ``iterations``
    counts the sweeps before it.  Each problem's result does not depend on
    the block it is solved in.
    """
    B, _, p, _ = R.shape
    A = R.copy()
    U = np.repeat(np.eye(p)[None], B, axis=0)
    live = np.arange(B)
    out = np.empty_like(U)
    sweeps = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    passes = 0
    while passes < max_sweeps and live.size:
        passes += 1
        max_sin = np.zeros(live.size)
        for i in range(p - 1):
            for j in range(i + 1, p):
                am = A[:, :, i, i] - A[:, :, j, j]
                ap = A[:, :, i, j] + A[:, :, j, i]
                ton = np.sum(am * am - ap * ap, axis=-1)
                toff = 2.0 * np.sum(am * ap, axis=-1)
                theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
                c, s = np.cos(theta), np.sin(theta)
                max_sin = np.maximum(max_sin, np.abs(s))
                rot = slice(None) if s.all() else np.nonzero(s)[0]
                c, s = c[rot, None, None], s[rot, None, None]
                ai, aj = A[rot, :, i, :], A[rot, :, j, :]
                A[rot, :, i, :], A[rot, :, j, :] = c * ai + s * aj, -s * ai + c * aj
                ai, aj = A[rot, :, :, i], A[rot, :, :, j]
                A[rot, :, :, i], A[rot, :, :, j] = c * ai + s * aj, -s * ai + c * aj
                c, s = c[:, 0], s[:, 0]
                ui, uj = U[rot, i], U[rot, j]
                U[rot, i], U[rot, j] = c * ui + s * uj, -s * ui + c * uj
        done = max_sin < tol
        sweeps[live[~done]] += 1
        if done.any():
            out[live[done]] = U[done]
            converged[live[done]] = True
            A, U, live = A[~done], U[~done], live[~done]
    out[live] = U
    out, objective = _finish(out, R)
    return BlockFit(out, objective, sweeps, converged)


def estimating_residual(result: UnmixingResult, acs: AutocovSet) -> float:
    """Unwhitened estimating-equation residual of a solution.

    Symmetric methods: max_{i != j} |gamma_i' T(gamma_j) - gamma_j'
    T(gamma_i)| plus the worst violation of gamma_i' S_0 gamma_j = delta_ij,
    with T built from the sample autocovariances at the lags.  Deflation: the
    largest entry of T(gamma_j) - S_0 (sum_{r <= j} gamma_r gamma_r')
    T(gamma_j) over the first p - 1 rows.
    """
    G = result.gamma
    p = G.shape[0]
    tg = _tmap_rows(G, acs.sk)
    if result.method == "deflation":
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
