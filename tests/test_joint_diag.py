import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import null_space

from sobikit.autocovariance import AutocovSet, autocorrelations, autocov_set, whitener
from sobikit.joint_diag import (
    _finish,
    _fix_signs,
    amuse,
    deflation_block,
    estimating_residual,
    fixedpoint_block,
    jacobi_block,
    sobi_deflation,
    sobi_symmetric_fixedpoint,
    sobi_symmetric_jacobi,
)
from sobikit.metrics import mdi
from sobikit.presets import benchmark_model
from sobikit.signal_model import MixingModel, mix, simulate_sources

ALL_SOLVERS = (
    amuse,
    sobi_deflation,
    sobi_symmetric_fixedpoint,
    sobi_symmetric_jacobi,
)


def planted_acs(diags, rotation=None):
    """AutocovSet whose whitened lag matrices are exactly O diag O'."""
    diags = np.asarray(diags, dtype=float)
    p = diags.shape[1]
    o = np.eye(p) if rotation is None else rotation
    sk = np.stack([o @ np.diag(d) @ o.T for d in diags])
    return AutocovSet(s0=np.eye(p), sk=sk, lags=tuple(range(1, diags.shape[0] + 1)))


def random_rotation(p, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def fitted(method, acs):
    return ALL_SOLVERS[("amuse", "deflation", "fixedpoint", "jacobi").index(method)](acs)


def test_amuse_diagonal_input_is_identity():
    acs = planted_acs([[0.9, 0.5, 0.1]])
    res = amuse(acs, 1)
    np.testing.assert_array_equal(res.u, np.eye(3))
    np.testing.assert_array_equal(res.gamma, np.eye(3))
    assert res.converged and res.iterations == 0
    assert res.warnings == ()


def test_amuse_planted_rotation():
    o = random_rotation(2, 0)
    res = amuse(planted_acs([[0.8, 0.2]], rotation=o), 1)
    assert mdi(res.gamma @ o) < 1e-8
    # rows recover O' up to sign
    match = np.abs(res.u @ o)
    np.testing.assert_allclose(match, np.eye(2), atol=1e-10)


def test_amuse_eigenvalue_tie_warning():
    acs = planted_acs([[0.5, 0.5, 0.1]])
    with pytest.warns(RuntimeWarning, match="eigenvalue tie"):
        res = amuse(acs, 1)
    assert "eigenvalue tie" in res.warnings


def test_fixedpoint_start_lag_tie_raises_no_warning():
    # the start lag's tied eigenvalues are the fixed point's business, not
    # an AMUSE fit: nothing is warned and nothing is recorded
    acs = planted_acs([[0.5, 0.5, 0.1], [0.9, 0.2, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sobi_symmetric_fixedpoint(acs)
    assert res.warnings == ()


def test_amuse_requires_computed_lag():
    acs = planted_acs([[0.9, 0.1]])
    with pytest.raises(ValueError, match="not among"):
        amuse(acs, 3)


def test_deflation_diagonal_input_is_identity():
    # criterion sums 0.81+0.36 > 0.25+0.16 > 0.01+0.04, already sorted
    acs = planted_acs([[0.9, 0.5, 0.1], [0.6, 0.4, -0.2]])
    res = sobi_deflation(acs)
    np.testing.assert_allclose(res.u, np.eye(3), atol=1e-9)
    assert res.converged


def test_fixedpoint_diagonal_input_converges_immediately():
    acs = planted_acs([[0.9, 0.5, 0.1], [0.6, 0.4, -0.2]])
    res = sobi_symmetric_fixedpoint(acs)
    np.testing.assert_allclose(res.u, np.eye(3), atol=1e-12)
    assert res.converged and res.iterations == 1


def test_jacobi_diagonal_input_needs_no_sweeps():
    acs = planted_acs([[0.9, 0.5, 0.1], [0.6, 0.4, -0.2]])
    res = sobi_symmetric_jacobi(acs)
    np.testing.assert_array_equal(res.u, np.eye(3))
    assert res.converged and res.iterations == 0


@pytest.mark.parametrize("method", ["amuse", "deflation", "fixedpoint", "jacobi"])
def test_exact_recovery_planted_rotation(method):
    o = random_rotation(4, 1)
    diags = [[0.9, 0.6, 0.3, 0.1], [0.5, -0.4, 0.2, -0.1]]
    res = fitted(method, planted_acs(diags, rotation=o))
    assert mdi(res.gamma @ o) < 1e-8


def test_exact_joint_diagonalizer_zero_residual():
    # the residual evaluated at the exact solution gamma = I is exactly zero
    acs = planted_acs([[0.9, 0.5, 0.1]])
    jc = sobi_symmetric_jacobi(acs)
    assert estimating_residual(jc, acs) == 0.0
    exact_deflation = dataclasses.replace(jc, method="deflation")
    assert estimating_residual(exact_deflation, acs) == 0.0


@pytest.mark.parametrize("method", ["amuse", "deflation", "fixedpoint", "jacobi"])
def test_orthogonality_and_whitening_invariants(method):
    z = simulate_sources(benchmark_model("c"), T=3000, seed=10)
    x = mix(z, MixingModel(omega=np.array([[2.0, 0.5, -0.3],
                                           [0.1, 1.0, 0.4],
                                           [-0.6, 0.2, 1.5]])))
    acs = autocov_set(x, range(1, 11), centered=True)
    res = fitted(method, acs)
    p = acs.s0.shape[-1]
    assert np.max(np.abs(res.u @ res.u.T - np.eye(p))) < 1e-8
    assert np.max(np.abs(res.gamma @ acs.s0 @ res.gamma.T - np.eye(p))) < 1e-8
    np.testing.assert_allclose(res.gamma, res.u @ res.whitener, atol=1e-12)


@pytest.mark.parametrize("method", ["deflation", "jacobi"])
def test_affine_equivariance(method):
    z = simulate_sources(benchmark_model("d"), T=4000, seed=12)
    acs_z = autocov_set(z, range(1, 11), centered=True)
    res_z = fitted(method, acs_z)
    a = np.random.default_rng(13).uniform(-1, 1, size=(3, 3)) + 2 * np.eye(3)
    acs_az = autocov_set(a @ z, range(1, 11), centered=True)
    res_az = fitted(method, acs_az)
    gain = res_az.gamma @ a @ np.linalg.inv(res_z.gamma)
    assert mdi(gain) < 1e-6


def test_fixedpoint_and_jacobi_agree():
    for name, seed in (("a", 20), ("d", 21)):
        z = simulate_sources(benchmark_model(name), T=2000, seed=seed)
        acs = autocov_set(z, range(1, 11), centered=True)
        fp = sobi_symmetric_fixedpoint(acs)
        jc = sobi_symmetric_jacobi(acs)
        assert mdi(fp.gamma @ np.linalg.inv(jc.gamma)) < 1e-6


def test_jacobi_criterion_monotone_over_sweeps():
    z = simulate_sources(benchmark_model("c"), T=1500, seed=30)
    acs = autocov_set(z, range(1, 11), centered=True)
    objectives = [sobi_symmetric_jacobi(acs, max_iter=s).objective
                  for s in range(1, 7)]
    diffs = np.diff(objectives)
    assert np.all(diffs >= -1e-10)


def test_runs_are_bit_identical():
    z = simulate_sources(benchmark_model("b"), T=1200, seed=31)
    acs = autocov_set(z, range(1, 11), centered=True)
    for method in ("amuse", "deflation", "fixedpoint", "jacobi"):
        g1 = fitted(method, acs).gamma
        g2 = fitted(method, acs).gamma
        np.testing.assert_array_equal(g1, g2)


def test_deflation_restart_seeds_agree_on_solution():
    z = simulate_sources(benchmark_model("d"), T=3000, seed=32)
    acs = autocov_set(z, range(1, 11), centered=True)
    g1 = sobi_deflation(acs, seed=0).gamma
    g2 = sobi_deflation(acs, seed=99).gamma
    assert mdi(g1 @ np.linalg.inv(g2)) < 1e-6


def test_converged_residuals_are_small():
    z = simulate_sources(benchmark_model("a"), T=2500, seed=33)
    acs = autocov_set(z, range(1, 11), centered=True)
    for method in ("deflation", "fixedpoint", "jacobi"):
        res = fitted(method, acs)
        assert res.converged
        assert res.residual < 1e-8


def test_perturbed_solution_has_large_residual():
    z = simulate_sources(benchmark_model("a"), T=2500, seed=34)
    acs = autocov_set(z, range(1, 11), centered=True)
    res = sobi_symmetric_jacobi(acs)
    theta = 0.1
    rot = np.eye(3)
    rot[:2, :2] = [[np.cos(theta), np.sin(theta)],
                   [-np.sin(theta), np.cos(theta)]]
    bent = dataclasses.replace(res, u=rot @ res.u, gamma=rot @ res.gamma)
    assert estimating_residual(bent, acs) > 1e-3


def test_fixedpoint_reports_non_convergence():
    z = simulate_sources(benchmark_model("c"), T=800, seed=35)
    acs = autocov_set(z, range(1, 11), centered=True)
    res = sobi_symmetric_fixedpoint(acs, max_iter=1)
    assert not res.converged


def test_fixedpoint_starts_from_the_smallest_lag():
    # with no iteration the fit is the AMUSE rows of lag 1, listed second here,
    # reordered by criterion
    z = simulate_sources(benchmark_model("c"), T=1000, seed=40)
    acs = autocov_set(z, (3, 1, 2), centered=True)
    res = sobi_symmetric_fixedpoint(acs, max_iter=0)
    assert (res.iterations, res.converged) == (0, False)
    assert sorted(map(tuple, res.u)) == sorted(map(tuple, amuse(acs, 1).u))


def test_amuse_defaults_to_the_smallest_lag():
    # the smallest lag, 1, is listed second
    z = simulate_sources(benchmark_model("c"), T=1000, seed=40)
    acs = autocov_set(z, (3, 1, 2), centered=True)
    default, lag_1 = amuse(acs), amuse(acs, 1)
    for field in dataclasses.fields(default):
        np.testing.assert_array_equal(getattr(default, field.name), getattr(lag_1, field.name))
    assert not np.array_equal(amuse(acs, 3).u, lag_1.u)


def test_fixedpoint_degenerate_structure_rejected():
    acs = planted_acs([[0.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate temporal structure"):
        sobi_symmetric_fixedpoint(acs)


@pytest.mark.parametrize("method", ["deflation", "fixedpoint", "jacobi"])
def test_solvers_reject_an_empty_lag_set(method):
    acs = autocov_set(np.random.default_rng(5).standard_normal((3, 500)), ())
    with pytest.raises(ValueError, match="lag set is empty"):
        fitted(method, acs)


def test_amuse_recovers_latent_series():
    # mixed autoregressive pair: recovered rows match the sources up to
    # order and sign, so the absolute correlation matrix is near-permutation
    from sobikit.signal_model import SourceSpec

    z = simulate_sources(
        [SourceSpec("ar", ar=(0.7,)), SourceSpec("ar", ar=(-0.4,))],
        T=5000, seed=36)
    x = mix(z, MixingModel(omega=np.array([[1.0, 0.8], [0.3, 1.0]])))
    res = amuse(autocov_set(x, (1,), centered=True), 1)
    rec = res.gamma @ (x - x.mean(axis=1, keepdims=True))
    corr = np.abs(np.corrcoef(np.vstack([rec, z]))[:2, 2:])
    best = max(corr[0, 0] + corr[1, 1], corr[0, 1] + corr[1, 0])
    assert best > 1.9


def test_rows_ordered_by_criterion():
    z = simulate_sources(benchmark_model("d"), T=20000, seed=37)
    acs = autocov_set(z, range(1, 11), centered=True)
    for method in ("deflation", "fixedpoint", "jacobi"):
        res = fitted(method, acs)
        # strongest autocorrelation (phi = 0.6) extracted first
        g = np.abs(res.gamma)
        assert np.argmax(g[0]) == 0 and np.argmax(g[2]) == 2


def test_row_signs_sum_nonnegative():
    z = simulate_sources(benchmark_model("b"), T=1500, seed=38)
    acs = autocov_set(z, range(1, 11), centered=True)
    for method in ("amuse", "deflation", "fixedpoint", "jacobi"):
        u = fitted(method, acs).u
        assert np.all(u.sum(axis=1) >= 0)


def test_deflation_reports_iteration_exhaustion():
    z = simulate_sources(benchmark_model("c"), T=800, seed=35)
    acs = autocov_set(z, range(1, 11), centered=True)
    res = sobi_deflation(acs, max_iter=1)
    assert not res.converged
    assert res.iterations == 2   # one iteration on each of the p - 1 rows


def test_deflation_zero_restarts_means_one():
    z = simulate_sources(benchmark_model("b"), T=1000, seed=39)
    acs = autocov_set(z, range(1, 11), centered=True)
    zero = sobi_deflation(acs, restarts=0, seed=4)
    one = sobi_deflation(acs, restarts=1, seed=4)
    np.testing.assert_array_equal(zero.u, one.u)
    assert (zero.iterations, zero.converged) == (one.iterations, one.converged)


def test_jacobi_reports_sweep_exhaustion():
    z = simulate_sources(benchmark_model("c"), T=800, seed=35)
    acs = autocov_set(z, range(1, 11), centered=True)
    res = sobi_symmetric_jacobi(acs, max_iter=1)
    assert not res.converged and res.iterations == 1


def lag_stack(acs):
    return autocorrelations(acs, whitener(acs.s0))


@pytest.mark.parametrize("options", [{}, {"max_iter": 3}, {"restarts": 0}])
def test_deflation_block_matches_each_problem_alone(options):
    # mixed models and sample sizes, so that problems converge at different
    # iterations and leave the active set at different times
    stacks = [lag_stack(autocov_set(simulate_sources(benchmark_model(m), T, s),
                                    range(1, 11), centered=True))
              for s, (m, T) in enumerate([("b", 300), ("c", 2000), ("d", 800),
                                          ("a", 5000), ("b", 4000)])]
    block = deflation_block(np.stack(stacks), None,
                            [np.random.default_rng((9, s)) for s in range(5)], **options)
    for s, r in enumerate(stacks):
        alone = deflation_block(r[None], None, [np.random.default_rng((9, s))], **options)
        for got, want in zip(block, alone):
            np.testing.assert_array_equal(got[s], want[0])


@pytest.mark.parametrize("kernel,options", [
    pytest.param(jacobi_block, {}, id="options0"),
    pytest.param(jacobi_block, {"max_iter": 2}, id="options1"),
    pytest.param(fixedpoint_block, {}, id="fixedpoint-options0"),
    pytest.param(fixedpoint_block, {"max_iter": 3}, id="fixedpoint-options1")])
def test_jacobi_block_matches_each_problem_alone(kernel, options):
    # an already diagonal problem is solved at once and leaves the block first
    planted = planted_acs([[0.9**k, 0.5**k, 0.1**k] for k in range(1, 11)])
    stacks = [lag_stack(planted)] + [
        lag_stack(autocov_set(simulate_sources(benchmark_model(m), T, s),
                              range(1, 11), centered=True))
        for s, (m, T) in enumerate([("b", 300), ("c", 2000), ("d", 800)])]
    block = kernel(np.stack(stacks), tuple(range(1, 11)), None, **options)
    assert block.converged[0] and block.iterations[0] < block.iterations[1:].min()
    for s, r in enumerate(stacks):
        alone = kernel(r[None], tuple(range(1, 11)), None, **options)
        for got, want in zip(block, alone):
            np.testing.assert_array_equal(got[s], want[0])


def sequential_deflation_rows(R, rng, tol=1e-10, max_iter=1000, restarts=5):
    """One-restart-at-a-time deflation loop, the reference for the kernel."""
    p = R.shape[-1]
    rows, total_iter, all_conv = [], 0, True
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
            run_conv, it = False, 0
            for it in range(1, max_iter + 1):
                y = np.einsum("kab,jb->kja", R, u[None, :])
                d = np.einsum("jb,kjb->kj", u[None, :], y)
                v = proj @ np.einsum("kj,kja->ja", d, y)[0]
                n = np.linalg.norm(v)
                if n < 1e-13:
                    break
                v /= n
                if np.linalg.norm(v - u) < tol:
                    u, run_conv = v, True
                    break
                u = v
            d = np.einsum("jb,kab,ja->kj", u[None, :], R, u[None, :])
            crit = float(np.sum(d**2, axis=0)[0])
            if crit > best_crit:
                best_u, best_crit, best_iters, best_conv = u, crit, it, run_conv
        rows.append(best_u)
        total_iter += best_iters
        all_conv = all_conv and best_conv
    return np.array(rows), total_iter, all_conv


def sequential_jacobi(R, tol=1e-12, max_sweeps=100):
    """One-problem cyclic Jacobi loop, the reference for the kernel."""
    A, p = R.copy(), R.shape[-1]
    U = np.eye(p)
    sweeps = 0
    for _ in range(max_sweeps):
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
            return U, sweeps, True
        sweeps += 1
    return U, sweeps, False


def sequential_fix_signs(U):
    """Row-at-a-time sign rule, the reference for _fix_signs."""
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


def test_fix_signs_follows_the_row_rule():
    U = np.array([[[-1.0, 0.5, 0.25, 0.125],   # negative sum
                   [-1.0, 1.0, 0.0, 0.0],      # zero sum, first nonzero negative
                   [0.0, -2.0, 0.5, 1.5],      # zero sum behind a leading zero
                   [0.0, 0.0, 0.0, 0.0]],      # all zero
                  [[0.0, 2.0, -1.0, -1.0],     # zero sum, first nonzero positive
                   [1.0, -0.5, 0.0, 0.0],
                   [0.0, 0.0, 0.0, -3.0],
                   [0.0, 0.0, 4.0, -4.0]]])
    want = np.stack([sequential_fix_signs(u) for u in U])
    np.testing.assert_array_equal(_fix_signs(U), want)
    np.testing.assert_array_equal(want[0, :3, 0], [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(want[0, 2:, 1], [2.0, 0.0])


def sequential_fixedpoint(R, tol=1e-10, max_iter=1000):
    """One-problem fixed-point loop from lag R[0]'s eigenbasis, the reference for the kernel."""
    evals, evecs = np.linalg.eigh(R[0])
    U = sequential_fix_signs(evecs[:, np.argsort(-evals, kind="stable")].T)
    it = 0
    for it in range(1, max_iter + 1):
        y = np.einsum("kab,jb->kja", R, U)
        tmat = np.einsum("kj,kja->ja", np.einsum("jb,kjb->kj", U, y), y)
        m = tmat @ tmat.T
        evals, evecs = np.linalg.eigh((m + m.T) / 2)
        u_new = (evecs * evals**-0.5) @ evecs.T @ tmat
        u_new = np.where(np.einsum("ij,ij->i", u_new, U) < 0, -1.0, 1.0)[:, None] * u_new
        delta = np.max(np.abs(u_new - U))
        U = u_new
        if delta < tol:
            return U, it, True
    return U, it, False


@pytest.mark.parametrize("name,T", [("b", 400), ("b", 4000), ("c", 1000), ("d", 2000)])
def test_block_kernels_round_like_the_sequential_loops(name, T):
    # model (b) has near-tied sources: one ulp of difference in the batched
    # arithmetic moves deflation's stopping iteration and shows up here
    stacks = np.stack([lag_stack(autocov_set(simulate_sources(benchmark_model(name), T, s),
                                             range(1, 11), centered=True))
                       for s in range(6)])
    defl = deflation_block(stacks, None, [np.random.default_rng((s, 1)) for s in range(6)])
    jac = jacobi_block(stacks, None, None)
    fp = fixedpoint_block(stacks, tuple(range(1, 11)), None)
    for s, r in enumerate(stacks):
        rows, iters, conv = sequential_deflation_rows(r, np.random.default_rng((s, 1)))
        u = np.vstack([rows, null_space(rows)[:, 0]])
        np.testing.assert_array_equal(
            defl.u[s], _finish(u[None], r[None], None, None, reorder=False)[0][0])
        assert (defl.iterations[s], defl.converged[s]) == (iters, conv)
        u, sweeps, conv = sequential_jacobi(r)
        np.testing.assert_array_equal(jac.u[s], _finish(u[None], r[None], None, None)[0][0])
        assert (jac.iterations[s], jac.converged[s]) == (sweeps, conv)
        u, iters, conv = sequential_fixedpoint(r)
        np.testing.assert_array_equal(fp.u[s], _finish(u[None], r[None], None, None)[0][0])
        assert (fp.iterations[s], fp.converged[s]) == (iters, conv)


def test_exact_criterion_ties_keep_the_solver_order():
    # rows e2 and e1 have the same criterion, 1; e3 has 0.5 ** 2
    R = np.diag([1.0, 1.0, 0.5])[None, None]
    U = np.eye(3)[[1, 0, 2]][None]
    u, objective, _, _ = _finish(U, R, None, None)
    np.testing.assert_array_equal(u, U)
    assert objective[0] == 2.25
    # a strictly larger criterion still moves a row up
    u = _finish(np.eye(3)[[2, 0, 1]][None], R, None, None).u
    np.testing.assert_array_equal(u[0], np.eye(3)[[0, 1, 2]])


class _CollapsedDraws:
    """An rng whose every start direction is zero, so no restart starts."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_deflation_falls_back_when_every_restart_collapses():
    A = np.random.default_rng(1).standard_normal((4, 3, 3))
    R = np.stack([A + A.mT] * 2)
    fit = deflation_block(R, None, [_CollapsedDraws(), np.random.default_rng(0)])
    # the fallback rows are orthonormal, and only their problem is flagged
    np.testing.assert_allclose(fit.u[0] @ fit.u[0].T, np.eye(3), atol=1e-12)
    assert fit.converged.tolist() == [False, True]
    assert fit.iterations[0] == 0
    # the other problem gets what it gets alone
    alone = deflation_block(R[1:], None, [np.random.default_rng(0)])
    np.testing.assert_array_equal(fit.u[1], alone.u[0])
