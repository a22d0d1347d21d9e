"""Unmixing matrix estimation by (approximate) joint diagonalization.

Four estimators share one output convention: an orthogonal factor U applied
after whitening, Gamma = U @ W.  Rows are ordered by decreasing
diagonalization criterion sum_k (u_j' R_k u_j)^2, exact ties kept in the
solver's order (AMUSE orders by its eigenvalues instead), and signed so each
row sums to a non-negative value.
"""

from __future__ import annotations

import dataclasses
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


def _finish(U, R, iterations, converged, reorder=True) -> BlockFit:
    """The BlockFit of a block U (B, p, p): rows signed, and with ``reorder`` ordered
    by decreasing criterion, exact ties in the solver's order."""
    crit = _criterion_rows(U, R)
    if reorder:
        U = np.take_along_axis(U, np.argsort(-crit, axis=-1, kind="stable")[..., None], -2)
    return BlockFit(_fix_signs(U), crit.sum(axis=-1), iterations, converged)


def _iterate(step, state, max_iter):
    """Run ``step`` on a block of problems until each stops, for at most ``max_iter`` steps.

    ``state`` holds arrays over the live problems, the iterate first; ``step(*state)``
    returns the next state, a mask of the problems that stop there and a mask of those
    that converged.  Returns each problem's last iterate, its stop step (``max_iter``
    if none) and whether it converged.
    """
    live = np.arange(len(state[0]))
    out = np.empty_like(state[0])
    stops = np.full(len(live), max(max_iter, 0))
    converged = np.zeros(len(live), dtype=bool)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        state, stop, conv = step(*state)
        if stop.any():  # compaction copies every state array: only when one stops
            out[live[stop]] = state[0][stop]
            stops[live[stop]] = it
            converged[live[stop]] = conv[stop]
            keep = ~stop
            state, live = tuple(a[keep] for a in state), live[keep]
    out[live] = state[0]
    return out, stops, converged


def _lag_index(lags, tau=None) -> int:
    """Index in ``lags`` of lag ``tau``, by default of the smallest lag: AMUSE's
    lag, and the one whose AMUSE fit starts the fixed point."""
    tau = min(lags) if tau is None else tau
    if tau not in lags:
        raise ValueError(f"tau = {tau} not among the computed lags")
    return lags.index(tau)


def _amuse_block(R: np.ndarray, lags, rngs, tau=None) -> BlockFit:
    """AMUSE on B whitened lag stacks R (B, K, p, p) at ``lags``: each problem's rows
    are the signed eigenvectors of its R at lag ``tau`` (default: the smallest), by
    decreasing eigenvalue.  ``rngs`` is not read."""
    evals, evecs = np.linalg.eigh(R[:, _lag_index(lags, tau)])
    idx = np.argsort(-evals, axis=-1, kind="stable")
    # gathered as C-contiguous rows: _tmap_rows' einsums round differently on an F-ordered U
    return _finish(np.take_along_axis(evecs.mT, idx[..., None], -2), R,
                   np.zeros(len(R), dtype=int), np.ones(len(R), dtype=bool), reorder=False)


def _unmix(acs: AutocovSet, method: str, rngs=None, **options) -> UnmixingResult:
    """Whiten ``acs``, solve its lag stack as a block of one by ``method``'s kernel
    (``_KERNELS``) with ``rngs`` and ``options``, and assemble the result; an AMUSE
    fit whose R_tau has a near-degenerate spectrum warns "eigenvalue tie" and lists
    it in ``warnings``."""
    if not acs.lags:
        raise ValueError("nothing to diagonalize: the lag set is empty")
    W = whitener(acs.s0)
    fit = _KERNELS[method](autocorrelations(acs, W)[None], acs.lags, rngs, **options)
    U = fit.u[0]
    gamma, ties = U @ W, ()
    if method == "amuse":
        # the eigenvalues of R_tau, row by row: gamma S_tau gamma' = U R_tau U'
        sk = acs.sk[_lag_index(acs.lags, options.get("tau"))]
        evals = np.einsum("ja,ab,jb->j", gamma, sk, gamma)
        spread = float(evals[0] - evals[-1])
        if np.any(-np.diff(evals) < 1e-10 * max(spread, np.finfo(float).tiny)):
            _warnings.warn("eigenvalue tie", RuntimeWarning, stacklevel=3)
            ties = ("eigenvalue tie",)
    result = UnmixingResult(
        gamma=gamma, u=U, whitener=W, method=method,
        iterations=int(fit.iterations[0]), converged=bool(fit.converged[0]),
        objective=float(fit.objective[0]), residual=0.0, warnings=ties,
    )
    return dataclasses.replace(result, residual=estimating_residual(result, acs))


def amuse(acs: AutocovSet, tau: int | None = None) -> UnmixingResult:
    """Unmixing from the eigendecomposition of a single whitened lag.

    ``tau`` defaults to the smallest of ``acs.lags``.  Rows follow the
    eigenvalues of R_tau in decreasing order; a near-degenerate spectrum
    gives the warning "eigenvalue tie" but a result is still returned.
    """
    return _unmix(acs, "amuse", tau=tau)


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
    return _unmix(acs, "deflation", [np.random.default_rng(seed)],
                  tol=tol, max_iter=max_iter, restarts=restarts)


def deflation_block(
    R: np.ndarray,
    lags,
    rngs,
    tol: float = 1e-10,
    max_iter: int = 1000,
    restarts: int = 5,
) -> BlockFit:
    """Deflation-based SOBI on B whitened lag stacks R of shape (B, K, p, p).

    ``lags`` is not read.  Problem b draws its start directions from
    ``rngs[b]``, one (restarts, p) draw per row, which is the stream that
    drawing one direction at a time gives.  For each row every (problem,
    restart) pair iterates in one active set; a pair leaves it when its step
    falls below ``tol`` (converged) or its image collapses (it keeps its
    previous direction).  Each problem's result does not depend on the block it is
    solved in: the batched forms round like the one-problem ones.
    """
    B, _, p, _ = R.shape
    restarts = max(restarts, 1)
    rows = np.empty((B, p, p))
    iterations = np.zeros(B, dtype=int)
    converged = np.ones(B, dtype=bool)

    def step(u, P, Ra):
        v = (P @ _tmap_rows(u[:, None], Ra)[:, 0, :, None])[..., 0]
        n = np.sqrt(np.vecdot(v, v))
        collapsed = n < 1e-13
        v = np.where(collapsed[:, None], u, v / np.where(collapsed, 1.0, n)[:, None])
        d = v - u
        done = ~collapsed & (np.sqrt(np.vecdot(d, d)) < tol)
        return (v, P, Ra), collapsed | done, done

    for j in range(p - 1):
        proj = np.eye(p) - rows[:, :j].mT @ rows[:, :j]
        draws = np.stack([rng.standard_normal((restarts, p)) for rng in rngs])
        # stacked matmul and sqrt(vecdot) round like proj @ v and the 1-D
        # norm; einsum or norm(axis=...) forms do not, and on near-tied
        # sources one ulp can move the stopping iteration
        starts = (proj[:, None] @ draws[..., None])[..., 0].reshape(B * restarts, p)
        norms = np.sqrt(np.vecdot(starts, starts))
        # a collapsed start direction is skipped, its draw still consumed
        started = np.nonzero(~(norms < 1e-12))[0]
        Ra = R[started // restarts]
        final, iters, conv = _iterate(
            step, (starts[started] / norms[started, None], proj[started // restarts], Ra), max_iter)

        crit = np.full((B, restarts), -np.inf)
        crit.flat[started] = _criterion_rows(final[:, None], Ra)[:, 0]
        # the first restart with the strictly largest criterion wins; every
        # criterion is >= 0, or -inf where the restart did not start
        ok = crit.max(axis=1) > -np.inf
        # each winner started, so it has a place among the started restarts
        k = np.searchsorted(started, (np.arange(B) * restarts + np.argmax(crit, axis=1))[ok])
        rows[ok, j] = final[k]
        iterations[ok] += iters[k]
        converged[ok] &= conv[k]
        for b in np.nonzero(~ok)[0]:
            # every restart draw collapsed; fall back to a unit vector in the
            # projector's range, orthogonal to the rows found so far
            rows[b, j] = np.linalg.eigh(proj[b])[1][:, -1]
            converged[b] = False

    # the last row spans the null space of the others, as its SVD gives it
    rows[:, p - 1] = np.linalg.svd(rows[:, : p - 1])[2][:, -1]
    return _finish(rows, R, iterations, converged, reorder=False)


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
    return _unmix(acs, "symmetric-fixedpoint", tol=tol, max_iter=max_iter)


def fixedpoint_block(
    R: np.ndarray,
    lags: tuple[int, ...],
    rngs,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> BlockFit:
    """Symmetric fixed-point SOBI on B whitened lag stacks R of shape (B, K, p, p).

    R's lag axis follows ``lags``, and ``rngs`` is not read.  Each problem
    starts from its AMUSE fit on the smallest lag (``_amuse_block``).
    Live problems iterate together; one leaves after the first iteration whose
    max |U_new - U_old| is below ``tol`` (converged), which ``iterations``
    counts.  A problem's result does not depend on the block it is in.
    """
    def step(U, Ra):
        tmat = _tmap_rows(U, Ra)
        m = tmat @ tmat.mT
        evals, evecs = np.linalg.eigh((m + m.mT) / 2)
        if np.any(evals[:, 0] <= 1e-14 * np.maximum(evals[:, -1], 0.0)):
            raise ValueError("degenerate temporal structure")
        u_new = (evecs * evals[:, None] ** -0.5) @ evecs.mT @ tmat
        u_new *= np.where(np.einsum("...ij,...ij->...i", u_new, U) < 0, -1.0, 1.0)[..., None]
        done = np.max(np.abs(u_new - U), axis=(-2, -1)) < tol
        return (u_new, Ra), done, done

    U, iterations, converged = _iterate(step, (_amuse_block(R, lags, rngs).u, R), max_iter)
    return _finish(U, R, iterations, converged)


def sobi_symmetric_jacobi(
    acs: AutocovSet,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> UnmixingResult:
    """Symmetric SOBI by cyclic Jacobi rotations.

    Each pair (i, j) is rotated by the closed-form angle maximizing the
    summed squared diagonals of the rotated matrices; sweeps stop when the
    largest |sin(angle)| falls below ``tol``, after at most ``max_iter`` sweeps.
    """
    return _unmix(acs, "symmetric-jacobi", tol=tol, max_iter=max_iter)


def jacobi_block(R: np.ndarray, lags, rngs, tol: float = 1e-12, max_iter: int = 100) -> BlockFit:
    """Cyclic Jacobi sweeps on B whitened lag stacks R of shape (B, K, p, p).

    ``lags`` and ``rngs`` are not read.  All live problems rotate together,
    pair by pair; a pair whose angle has sin = 0 is not rotated.  A problem leaves after the first sweep whose
    largest |sin(angle)| is below ``tol`` (converged), or after ``max_iter``
    sweeps; ``iterations`` counts the sweeps before it.  Each problem's result does not depend on
    the block it is solved in.
    """
    B, _, p, _ = R.shape

    def sweep(U, A):
        max_sin = np.zeros(len(U))
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
        return (U, A), done, done

    U, stops, converged = _iterate(
        sweep, (np.repeat(np.eye(p)[None], B, axis=0), R.copy()), max_iter)
    return _finish(U, R, stops - converged, converged)


# Each method's block kernel.  Every kernel solves B whitened lag stacks R
# (B, K, p, p), whose lag axis follows ``lags``, as kernel(R, lags, rngs,
# **options); only deflation reads ``rngs``, one generator per problem.
_KERNELS = {
    "amuse": _amuse_block,
    "deflation": deflation_block,
    "symmetric-fixedpoint": fixedpoint_block,
    "symmetric-jacobi": jacobi_block,
}


def _options(method: str) -> tuple[str, ...]:
    """The options of ``method``'s kernel: its parameters after (R, lags, rngs)."""
    code = _KERNELS[method].__code__
    return code.co_varnames[3:code.co_argcount]


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
