"""Performance indices for unmixing estimates, and the Monte Carlo sweep of mdi."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import autocovariance, joint_diag, signal_model

__all__ = ["mdi", "amari", "efficiency_sweep"]


# Largest p whose p! assignments mdi enumerates; above it, the Hungarian
# algorithm solves one matrix at a time.  For a block of 256 on one core,
# enumerating took 0.02 ms at p = 3 and 0.3 ms at p = 5 against about
# 1.5 ms for the Hungarian loop, but 2.4 ms and 10 MiB at p = 6.
_ENUMERATED_P = 5


def mdi(g: np.ndarray) -> float | np.ndarray:
    """Minimum distance index of a gain matrix, in [0, 1].

    Measures how far ``g`` (estimated unmixing times true mixing) is from
    the class of matrices with exactly one nonzero entry per row and
    column.  The infimum over that class reduces to a maximum-weight
    assignment on the weights g_ij^2 / ||g_i||^2 because the best scale for
    an assigned entry is available in closed form:

        mdi = sqrt(p - max_pi sum_i g_{i,pi(i)}^2 / ||g_i||^2) / sqrt(p - 1)

    Zero iff g is a scaled, signed permutation; the scaling makes 1 the
    worst possible value.  Defined as 0 for p = 1.

    One (p, p) matrix gives a float; a stack (B, p, p) gives the array of
    its B indices, each equal bit for bit to the index of its matrix alone.
    Every assignment's weight is summed in row order, as
    ``weights[rows, cols].sum()`` sums the Hungarian one, so the two agree
    bit for bit on the best assignment.  Enumerating holds B p! p weights
    at once: 1.2 MB for a block of 256 at p = 5.
    """
    g = np.asarray(g, dtype=float)
    stack = g.ndim == 3
    g = g if stack else np.atleast_2d(g)[None]
    p = g.shape[-1]
    if g.shape[1:] != (p, p):
        raise ValueError("gain matrix must be square")
    if not np.all(np.isfinite(g)):
        raise ValueError("gain matrix must be finite")
    if p == 1:
        out = np.zeros(len(g))
    else:
        row_norms = (g**2).sum(axis=-1)
        if np.any(row_norms == 0.0):
            raise ValueError("rank deficient")
        weights = g**2 / row_norms[..., None]
        if p <= _ENUMERATED_P:
            perms = np.array(list(itertools.permutations(range(p))))
            matched = weights[:, np.arange(p), perms].sum(axis=-1).max(axis=-1)
        else:
            from scipy.optimize import linear_sum_assignment
            matched = np.array([w[linear_sum_assignment(w, maximize=True)].sum()
                                for w in weights])
        out = np.sqrt(np.maximum(p - matched, 0.0) / (p - 1))
    return out if stack else float(out[0])


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


# The most reps one kernel call solves: enough that per-call overhead on
# p x p matrices stops dominating, few enough that a block's matrices stay small.
_BLOCK_REPS = 256


def efficiency_sweep(specs, lags, t_values, methods, reps: int, seed=0, jobs: int = 1,
                     options=None) -> dict[int, dict[str, np.ndarray]]:
    """T (p - 1) mdi^2 of the unmixing estimates of ``reps`` replicates of the
    sources ``specs``, as ``{T: {method: (reps,)}}``; every ValueError comes
    before any draw.  Rep r is, bit for bit, the public chain at each T:
    ``simulate_sources(specs, T, (seed, r))``, ``autocov_set(..., lags,
    centered=True)`` and ``method``'s fit with ``options[method]`` (one not given
    keeps the kernel's default), deflation's restarts from ``default_rng((seed, r, 1))``.
    Blocks of at most _BLOCK_REPS reps, at least one per job, are solved
    together, in at most ``jobs`` processes; no value depends on the blocks."""
    for name, count in (("reps", reps), ("jobs", jobs)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    for name, values in (("t_values", t_values), ("methods", methods)):
        if len(values) == 0:
            raise ValueError(f"{name}: the list is empty")
        if len(set(values)) < len(values):
            raise ValueError(f"{name}: an entry is repeated")
    if min(t_values) < 2:
        raise ValueError("T must be at least 2")
    for method in methods:
        if method not in joint_diag._KERNELS:
            raise ValueError(f"methods: {method!r} is not one of {', '.join(joint_diag._KERNELS)}")
    for method, given in (options or {}).items():
        if method not in methods:
            raise ValueError(f"options: {method!r} names no method in methods")
        for name in given:
            if name not in joint_diag._options(method):
                raise ValueError(f"options: {method} takes no {name!r}")
    lags = autocovariance._check_lags(lags, min(t_values))
    if not lags:
        raise ValueError("nothing to diagonalize: the lag set is empty")
    n = min(max(-(-reps // _BLOCK_REPS), jobs), reps)
    blocks = [range(reps * k // n, reps * (k + 1) // n) for k in range(n)]
    solve = functools.partial(_mc_block, signal_model._plan_sources(specs), lags, t_values,
                              methods, seed, options or {})
    if min(jobs, n) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, n)) as ex:
            parts = list(ex.map(solve, blocks))
    else:
        parts = list(map(solve, blocks))
    return {T: {method: np.array([v for part in parts for v in part[T][method]])
                for method in methods} for T in t_values}


def _block_lag_matrices(plan, lags, t_values, reps, seed) -> dict[int, autocovariance.AutocovSet]:
    """Centered lag matrices of the reps' series, per T, stacked over the reps.
    Rep r draws its innovations once, from ``default_rng((seed, r))``, for the
    longest T, and a shorter T reads a prefix of that draw: the whole draw
    simulate_sources makes at that T.  Each series is reduced in a reused
    buffer by autocov_set's product code, so every matrix is bit for bit
    autocov_set's on that rep's series alone."""
    t_values = sorted(t_values)
    p, B = len(plan.components), len(reps)
    out = {T: autocovariance.AutocovSet(np.empty((B, p, p)), np.empty((B, len(lags), p, p)), lags)
           for T in t_values}
    eps = np.empty(p * (plan.pre + t_values[-1]))
    series = [np.empty((p, T)) for T in t_values]
    for b, rep in enumerate(reps):
        np.random.default_rng((seed, rep)).standard_normal(out=eps)
        for z, acs in zip(series, out.values()):
            signal_model._filter_sources(plan, eps[: p * (plan.pre + z.shape[-1])].reshape(p, -1), z)
            autocovariance._check_finite(z)
            s = autocovariance._products(z, (0,) + lags, centered=True)
            acs.s0[b], acs.sk[b] = s[0], s[1:]
    return out


def _mc_block(plan, lags, t_values, methods, seed, options, reps) -> dict[int, dict[str, list]]:
    """T (p-1) mdi^2 of every rep in ``reps``, per T and method, the block
    whitened once per T and solved at once by each method's kernel."""
    out, p = {}, len(plan.components)
    for T, acs in _block_lag_matrices(plan, lags, t_values, reps, seed).items():
        W = autocovariance.whitener(acs.s0)
        R = autocovariance.autocorrelations(acs, W)
        # rep r's deflation restarts draw from default_rng((seed, r, 1)) at every T
        rngs = [np.random.default_rng((seed, rep, 1)) for rep in reps]
        out[T] = {}
        for method in methods:
            fit = joint_diag._KERNELS[method](R, acs.lags, rngs, **options.get(method, {}))
            # squared as Python floats: C pow, which float ** 2 calls, and
            # numpy's square round differently in about 0.1% of values
            out[T][method] = [T * (p - 1) * m ** 2 for m in mdi(fit.u @ W).tolist()]
    return out
