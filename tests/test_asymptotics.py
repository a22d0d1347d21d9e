import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from sobikit import asymptotics, signal_model
from sobikit.asymptotics import (
    asv,
    build_model,
    empirical_asv,
    global_criterion,
    transform_general_mixing,
)
from sobikit.autocovariance import _check_lags, autocov_set
from sobikit.joint_diag import (
    amuse,
    sobi_deflation,
    sobi_symmetric_fixedpoint,
    sobi_symmetric_jacobi,
)
from sobikit.presets import benchmark_model, lag_preset
from sobikit.signal_model import SourceSpec, expand_to_ma, simulate_sources

from delta_oracle import delta_asv

LAGS = tuple(range(1, 11))

# Global criteria for the four bundled models on lags 1..10, frozen from an
# independent implementation of the same formulas (expansion via impulse
# response at truncation 1e-14, D_lm assembled from explicit F_k matrices).
FROZEN_GLOBAL = {
    "a": (46.50276818748952, 24.07660026906324),
    "b": (47.17812531830706, 7.19634218948149),
    "c": (11.025137622744289, 9.35768702697793),
    "d": (61.57936830832466, 75.11466506309645),
}


def sorted_expansions(name):
    exps = [expand_to_ma(s) for s in benchmark_model(name)]

    def strength(e):
        return sum(float(np.dot(e.psi[:-k], e.psi[k:])) ** 2
                   for k in LAGS if k < e.psi.size)

    return sorted(exps, key=strength, reverse=True)


def ar1_expansions(monkeypatch, phis, tol):
    """AR(1) expansions truncated at relative tail mass ``tol``."""
    monkeypatch.setattr(signal_model, "_TAIL_TOL", tol)
    return [expand_to_ma(SourceSpec("ar", ar=(phi,))) for phi in phis]


def white_model(p, lags=(1, 2)):
    exps = [expand_to_ma(SourceSpec("psi", psi=(1.0,))) for _ in range(p)]
    return build_model(exps, lags)


def test_ar1_lambdas_are_powers(monkeypatch):
    # deep truncation: lambda at lag 10 of the phi = 0.2 component loses a
    # relative 0.04^(N-9) to the cut tail, so N must comfortably exceed 20
    exps = ar1_expansions(monkeypatch, (0.6, 0.4, 0.2), 1e-30)
    model = build_model(exps, LAGS)
    np.testing.assert_allclose(model.lam, [[0.6**k, 0.4**k, 0.2**k] for k in LAGS],
                               atol=1e-12)


def test_ma_lambdas_match_direct_weight_products():
    exps = sorted_expansions("a")
    model = build_model(exps, LAGS)
    for a, k in enumerate(LAGS):
        direct = [float(np.dot(e.psi[:-k], e.psi[k:])) if k < e.psi.size else 0.0
                  for e in exps]
        np.testing.assert_allclose(model.lam[a], direct, atol=1e-13)


def test_white_noise_d00():
    d00 = white_model(2).d[0, 0]
    np.testing.assert_allclose(d00, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_non_normal_kurtosis_shifts_diagonal_only():
    beta = np.array([[5.0, 1.0], [1.0, 5.0]])
    m_norm = white_model(2)
    m_heavy = build_model(m_norm.expansions, m_norm.lags, beta=beta)
    d_norm = m_norm.d[0, 0]
    d_heavy = m_heavy.d[0, 0]
    np.testing.assert_allclose(np.diag(d_heavy), [4.0, 4.0], atol=1e-14)
    off = ~np.eye(2, dtype=bool)
    np.testing.assert_array_equal(d_heavy[off], d_norm[off])


def test_d_symmetric_in_lag_order():
    model = build_model(sorted_expansions("c"), LAGS)
    assert model.d.shape == (11, 11, 3, 3)
    np.testing.assert_allclose(model.d, model.d.transpose(1, 0, 2, 3), atol=1e-12)


def test_fast_len_is_scipys_next_fast_real_len():
    # the FFT periods of the D kernel and the plug-in autocovariances
    from scipy.fft import next_fast_len
    ns = range(1, 10**5 + 1)
    assert [asymptotics._fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


def test_d_tensor_runs_once_per_model(monkeypatch):
    # the model carries lambda and D; tables and methods only read them
    calls = []
    kernel = asymptotics._d_tensor
    monkeypatch.setattr(asymptotics, "_d_tensor",
                        lambda *args: calls.append(args) or kernel(*args))
    model = build_model(sorted_expansions("c"), LAGS)
    assert len(calls) == 1
    for method in ("deflation", "symmetric", "symmetric-fixedpoint", "symmetric-jacobi"):
        asv(model, method)
    assert len(calls) == 1
    x = simulate_sources(benchmark_model("c"), T=500, seed=1)
    empirical_asv(x, sobi_symmetric_jacobi(autocov_set(x, LAGS)), LAGS)
    assert len(calls) == 2


def reference_d_tensor(seqs, lags, beta, f):
    """lambda rows and D from one (p, n - s) @ (n - s, p) matmul per distinct shift s."""
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


def reference_model_d(model):
    """lambda rows and D of ``model`` from the full F_k stack and per-shift matmuls."""
    p = len(model.expansions)
    support = max(e.psi.size for e in model.expansions)
    padded = np.zeros((p, support))
    for i, e in enumerate(model.expansions):
        padded[i, : e.psi.size] = e.psi
    f = np.stack([padded[:, : support - k] @ padded[:, k:].T for k in range(support)])
    seqs = np.zeros((p, max(model.lags, default=0) + support + 1))
    seqs[:, :support] = np.diagonal(f, axis1=1, axis2=2).T
    return reference_d_tensor(seqs, model.lags, model.beta, f)


def assert_d_matches_reference(d, want_d):
    assert d.shape == want_d.shape
    # FFT rounding is absolute: about 1e-16 of the largest entry
    np.testing.assert_allclose(d, want_d, rtol=0, atol=1e-13 * np.abs(want_d).max())


@pytest.mark.parametrize("beta", [None, np.array([[5.0, 1.5, 0.8],
                                                  [1.5, 4.0, 1.2],
                                                  [0.8, 1.2, 3.5]])],
                         ids=["normal", "off-normal"])
@pytest.mark.parametrize("lags", [LAGS, lag_preset("preset1"), tuple(range(40, 61))],
                         ids=["1-10", "preset1", "40-60"])
@pytest.mark.parametrize("name", "abcd")
def test_d_kernel_matches_per_shift_matmuls(name, lags, beta):
    # lags inside and beyond the weight supports (11 for model a, 142 for c)
    model = build_model([expand_to_ma(s) for s in benchmark_model(name)], lags, beta=beta)
    want_lam, want_d = reference_model_d(model)
    # lambda comes from np.correlate here and from matmul diagonals there
    np.testing.assert_allclose(model.lam, want_lam, rtol=0, atol=1e-15)
    assert_d_matches_reference(model.d, want_d)


def test_d_kernel_matches_per_shift_matmuls_on_plug_in_rows(monkeypatch):
    # the plug-in is normal-innovation: beta 3 on the diagonal, 1 off it, and no F_k
    x = simulate_sources(benchmark_model("c"), T=2000, seed=5)
    res = sobi_symmetric_jacobi(autocov_set(x, LAGS))
    calls = []  # the kernel's arguments, then the lambda and D that the table reads
    kernel, table = asymptotics._d_tensor, asymptotics._asv_table
    monkeypatch.setattr(asymptotics, "_d_tensor",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(asymptotics, "_asv_table",
                        lambda *args: calls.append(args) or table(*args))
    empirical_asv(x, res, LAGS)
    (rho, lags), (lam, d, _) = calls
    p = len(rho)
    want_lam, want_d = reference_d_tensor(rho, lags, np.eye(p) * 2.0 + 1.0,
                                          np.zeros((0, p, p)))
    np.testing.assert_array_equal(lam, want_lam)
    assert_d_matches_reference(d, want_d)


@pytest.mark.parametrize("lags", [tuple(range(1, 31)), (1, 60, 90)],
                         ids=["2max<L", "2max>=L"])
def test_d_kernel_period_clears_every_shift_it_reads(lags):
    # n = 61 gives L = 121.  Lags 1-30 read shifts up to 60, and L + 60 - 1 =
    # 180 is itself a fast length, so a period one short would wrap c(-120)
    # onto shift 60; lags 60 and 90 read shift L - 1 = 120 and every one up to L
    rho = np.random.default_rng(8).standard_normal((3, 61))
    rho[:, 0] = 1.0
    # the reference needs the zeros past rho written out up to twice the last lag
    padded = np.pad(rho, ((0, 0), (0, 2 * max(lags))))
    _, want_d = reference_d_tensor(padded, lags, np.eye(3) * 2.0 + 1.0, np.zeros((0, 3, 3)))
    assert_d_matches_reference(asymptotics._d_tensor(rho, lags), want_d)


def test_near_tied_components_keep_one_order_over_lag_orders():
    # model (b)'s second and third sources tie on lags 1-3 in exact arithmetic
    # (sum lambda_k^2 = 0.36 each); rounding can put either a few ulp ahead.
    # The tie keeps the listed order, and relisting the lags must not reorder
    # them, which would permute the table (entry (2, 1) moves 63%)
    exps = [expand_to_ma(s) for s in benchmark_model("b")]
    ref = build_model(exps, (1, 2, 3))
    assert ref.order == (0, 1, 2)
    model = build_model(exps, (3, 1, 2))
    assert model.order == ref.order
    np.testing.assert_allclose(asv(model, "symmetric").per_element,
                               asv(ref, "symmetric").per_element, rtol=1e-12)
    relisted = build_model([exps[i] for i in ref.order], (3, 1, 2))
    assert relisted.order == (0, 1, 2)
    np.testing.assert_array_equal(asv(relisted, "symmetric").per_element,
                                  asv(model, "symmetric").per_element)


def test_exact_ties_keep_listed_order():
    # the two delayed sources have bit-equal criteria on any lag order
    first = SourceSpec("psi", psi=(0.8, 0.0, 0.6))
    second = SourceSpec("psi", psi=(0.8, 0.0, 0.0, 0.6))
    strong = SourceSpec("ar", ar=(0.6,))
    for tied in ((first, second), (second, first)):
        exps = [expand_to_ma(s) for s in (strong, *tied)]
        for lags in ((1, 2, 3), (3, 1, 2)):
            model = build_model(exps, lags)
            assert model.order == (0, 1, 2)
            assert model.expansions[1].psi.size == exps[1].psi.size


@pytest.mark.parametrize("gap, stronger_leads", [(1e-14, False), (1e-11, True)])
def test_criteria_within_tolerance_keep_listed_order(gap, stronger_leads):
    # the sources differ only in psi_2, so their criteria, lambda_2^2, differ
    # by about 0.13 gap, against _IDENT_TOL times the AR source's 0.54
    weaker = SourceSpec("psi", psi=(0.8, 0.0, 0.6))
    stronger = SourceSpec("psi", psi=(0.8, 0.0, 0.6 * (1.0 + gap)))
    strong = SourceSpec("ar", ar=(0.6,))
    for listed in ((weaker, stronger), (stronger, weaker)):
        exps = [expand_to_ma(s) for s in (strong, *listed)]
        want = (0, 1, 2)
        if stronger_leads:
            want = (0, 1 + listed.index(stronger), 1 + listed.index(weaker))
        for lags in ((1, 2, 3), (3, 1, 2)):
            assert build_model(exps, lags).order == want


@pytest.mark.parametrize("lags", [LAGS, lag_preset("preset1")], ids=["1-10", "preset1"])
@pytest.mark.parametrize("name", "abcd")
def test_default_beta_is_normal_beta_without_its_zero_terms(name, lags):
    # the default skips the fourth-moment terms, which add exact zeros at normal beta
    exps = [expand_to_ma(s) for s in benchmark_model(name)]
    model = build_model(exps, lags)
    explicit = build_model(exps, lags, beta=np.eye(3) * 2 + 1)
    for field in ("d", "lam", "order", "beta"):
        np.testing.assert_array_equal(getattr(model, field), getattr(explicit, field))


def einsum_table(lam, d, method):
    """``_asv_table`` with its quadratic form written as the three-operand
    einsum over the (a, b, j, i) view of D that it replaced."""
    p = lam.shape[1]
    if method == "deflation":
        mu = lam.T @ lam
        mu_jj = np.diag(mu)
        earlier = np.arange(p)[None, :] < np.arange(p)[:, None]
        ref = np.where(earlier, mu.T, mu_jj[:, None])
        den = np.where(earlier, mu.T - mu_jj[None, :], mu_jj[:, None] - mu)
        w = lam.T[np.minimum.outer(np.arange(p), np.arange(p))]
    else:
        w = lam.T[:, None, :] - lam.T[None, :, :]
        den = (w**2).sum(axis=-1)
        ref = np.einsum("ja,jia->ji", lam.T, w)
    w = np.concatenate([-ref[..., None], w], axis=-1)
    num = np.einsum("jia,abji,jib->ji", w, d, w)
    np.fill_diagonal(den, 1.0)
    out = num / den**2
    np.fill_diagonal(out, 0.25 * np.diag(d[0, 0]))
    return out


def test_asv_table_matches_the_einsum_quadratic_form(monkeypatch):
    cases = [(model.lam, model.d) for model in
             (build_model([expand_to_ma(s) for s in benchmark_model(name)], lags)
              for name in "abcd" for lags in (LAGS, lag_preset("preset1")))]
    # one plug-in lambda and D, as empirical_asv hands them to the table
    x = simulate_sources(benchmark_model("c"), T=2000, seed=5)
    table = asymptotics._asv_table
    monkeypatch.setattr(asymptotics, "_asv_table",
                        lambda *args: cases.append(args[:2]) or table(*args))
    empirical_asv(x, sobi_symmetric_jacobi(autocov_set(x, LAGS)), LAGS)
    assert len(cases) == 9
    for lam, d in cases:
        for method in ("deflation", "symmetric"):
            np.testing.assert_allclose(table(lam, d, method).per_element,
                                       einsum_table(lam, d, method), rtol=1e-13)


def test_build_model_validation():
    exps = sorted_expansions("d")
    with pytest.raises(ValueError, match="duplicate"):
        build_model(exps, (1, 1))
    with pytest.raises(ValueError, match="positive"):
        build_model(exps, (0,))
    with pytest.raises(ValueError, match="symmetric"):
        build_model(exps, (1,), beta=np.array([[3.0, 1.0, 1.0],
                                               [0.0, 3.0, 1.0],
                                               [1.0, 1.0, 3.0]]))
    with pytest.raises(ValueError, match="at least 1"):
        build_model(exps, (1,), beta=np.full((3, 3), 0.5))
    with pytest.raises(ValueError, match="p x p"):
        build_model(exps, (1,), beta=np.eye(2) * 3.0)


# with no series to bound them, lags stay below 2**62, so that l + m fits an int64
@pytest.mark.parametrize("lags", [(1, 1), (0,), (2, -1), (1, 2**62), (1, 10**20)])
def test_lag_checks_are_autocov_sets(lags):
    # build_model and empirical_asv refuse what autocov_set refuses, in its words
    with pytest.raises(ValueError) as want:
        _check_lags(lags)
    x = simulate_sources(benchmark_model("d"), T=400, seed=2)
    res = sobi_symmetric_jacobi(autocov_set(x, (1, 2)))
    for call in (lambda: build_model(sorted_expansions("d"), lags),
                 lambda: empirical_asv(x, res, lags)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


def vec_s0_covariance(d):
    """diag(vec d) (K_pp - D_pp + I) from explicit selector matrices."""
    p = d.shape[0]
    n = p * p
    k_pp = np.zeros((n, n))
    d_pp = np.zeros((n, n))
    for i in range(p):
        for j in range(p):
            k_pp[i + j * p, j + i * p] = 1.0
        d_pp[i + i * p, i + i * p] = 1.0
    return np.diag(d.flatten(order="F")) @ (k_pp - d_pp + np.eye(n))


def test_d00_matches_monte_carlo_vec_s0_covariance():
    # empirical covariance of sqrt(T) vec(S_0) for bivariate white noise
    T, reps = 20000, 2000
    rng = np.random.default_rng(123)
    vecs = np.empty((reps, 4))
    for r in range(reps):
        x = rng.standard_normal((2, T))
        vecs[r] = autocov_set(x, ()).s0.flatten(order="F") * np.sqrt(T)
    emp = np.cov(vecs.T)
    v00 = vec_s0_covariance(white_model(2).d[0, 0])
    assert np.max(np.abs(emp - v00)) < 0.1 * np.max(np.abs(v00))


@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_global_criteria_match_independent_evaluation(monkeypatch, name):
    monkeypatch.setattr(signal_model, "_TAIL_TOL", 1e-14)
    model = build_model(sorted_expansions(name), LAGS)
    d = global_criterion(asv(model, "deflation"))
    s = global_criterion(asv(model, "symmetric"))
    ref_d, ref_s = FROZEN_GLOBAL[name]
    np.testing.assert_allclose(d, ref_d, rtol=1e-12)
    np.testing.assert_allclose(s, ref_s, rtol=1e-12)


def test_diagonal_entries_agree_between_methods():
    for name in ("a", "d"):
        model = build_model(sorted_expansions(name), LAGS)
        defl = asv(model, "deflation").per_element
        sym = asv(model, "symmetric").per_element
        np.testing.assert_array_equal(np.diag(defl), np.diag(sym))
        np.testing.assert_allclose(np.diag(defl), 0.25 * np.diag(model.d[0, 0]),
                                   atol=1e-14)


def test_one_lag_tables_agree_and_are_amuse_tables():
    # with one lag, AMUSE, deflation-based and symmetric SOBI are one estimator
    for name in ("a", "c", "d"):
        for k in (1, 2, 3):
            model = build_model(sorted_expansions(name), (k,))
            sym = asv(model, "symmetric").per_element
            np.testing.assert_allclose(asv(model, "deflation").per_element, sym, rtol=1e-14)
            np.testing.assert_array_equal(asv(model, "amuse").per_element, sym)
    with pytest.raises(ValueError, match="tau"):
        asv(build_model(sorted_expansions("c"), (1, 2)), "amuse")


# each fit at a tolerance tight enough for a central difference at 1e-5
ORACLE_FITS = {
    "deflation": lambda acs: sobi_deflation(acs, tol=1e-14, max_iter=20000),
    "symmetric-jacobi": lambda acs: sobi_symmetric_jacobi(acs, tol=1e-14),
    "symmetric-fixedpoint": lambda acs: sobi_symmetric_fixedpoint(acs, tol=1e-14,
                                                                  max_iter=20000),
    "amuse": amuse,
}


def test_asv_tables_are_the_delta_method_of_the_fits():
    # the limit law of each fit itself, from its Jacobian and model.d alone,
    # shares no formula with the tables.  Model (b) has no one-lag AMUSE
    # table (two of its lambda_1 are 0), and the fixed point stops short of
    # the maximum on its lag-1 start, a point the polar step leaves fixed
    cases = [(name, method) for name in "abcd" for method in ("deflation", "symmetric-jacobi")]
    cases += [(name, method) for name in "acd" for method in ("symmetric-fixedpoint", "amuse")]
    worst = {}
    for name, method in cases:
        lags = (1,) if method == "amuse" else LAGS
        model = build_model([expand_to_ma(s) for s in benchmark_model(name)], lags)
        exact = asv(model, method).per_element
        worst[name, method] = np.max(np.abs(delta_asv(model, ORACLE_FITS[method]) - exact) / exact)
    assert max(worst.values()) < 1e-7, worst


def test_single_component_table():
    exps = [expand_to_ma(SourceSpec("ar", ar=(0.6,)))]
    model = build_model(exps, LAGS)
    table = asv(model, "symmetric")
    assert table.per_element.shape == (1, 1)
    np.testing.assert_allclose(table.per_element[0, 0],
                               0.25 * model.d[0, 0, 0, 0], atol=1e-14)
    assert global_criterion(table) == 0.0


def test_sign_flip_of_weights_leaves_tables_unchanged():
    exps = sorted_expansions("a")
    flipped = [dataclasses.replace(e, psi=-e.psi) for e in exps]
    m1 = build_model(exps, LAGS)
    m2 = build_model(flipped, LAGS)
    np.testing.assert_allclose(asv(m1, "deflation").per_element,
                               asv(m2, "deflation").per_element, atol=1e-12)
    np.testing.assert_allclose(asv(m1, "symmetric").per_element,
                               asv(m2, "symmetric").per_element, atol=1e-12)


def closed_form_ar1_dlm(phis, l, m, i, j, k_range=500):
    """D_lm entry for AR(1) sources with normal innovations, written out
    directly from lambda_k = phi^|k| without any package machinery."""
    if i == j:
        phi = phis[i]
        total = 0.0
        for k in range(-k_range, k_range + 1):
            total += phi ** abs(k) * phi ** abs(k + m - l)
            total += phi ** abs(k) * phi ** abs(k + m + l)
        return total
    a, b = phis[i], phis[j]
    total = 0.0
    for k in range(-k_range, k_range + 1):
        total += 0.5 * a ** abs(k) * b ** abs(k + m - l)
        total += 0.5 * a ** abs(k) * b ** abs(k + m + l)
    return total


def test_deflation_entry_matches_symbolic_ar1(monkeypatch):
    phis = (0.6, 0.4, 0.2)
    exps = ar1_expansions(monkeypatch, phis, 1e-15)
    table = asv(build_model(exps, LAGS), "deflation").per_element

    lam = np.array([[phi**k for phi in phis] for k in LAGS])
    mu = lam.T @ lam
    # row j = 1, interferer i = 0 extracted earlier
    j, i = 1, 0
    num = sum(lam[a, i] * lam[b, i]
              * closed_form_ar1_dlm(phis, la, mb, j, i)
              for a, la in enumerate(LAGS) for b, mb in enumerate(LAGS))
    num -= 2 * mu[i, j] * sum(lam[a, i] * closed_form_ar1_dlm(phis, la, 0, j, i)
                              for a, la in enumerate(LAGS))
    num += mu[i, j] ** 2 * closed_form_ar1_dlm(phis, 0, 0, j, i)
    expected = num / (mu[i, j] - mu[i, i]) ** 2
    np.testing.assert_allclose(table[j, i], expected, rtol=1e-9)


def test_symmetric_entry_matches_symbolic_ar1(monkeypatch):
    phis = (0.6, 0.4, 0.2)
    exps = ar1_expansions(monkeypatch, phis, 1e-15)
    table = asv(build_model(exps, LAGS), "symmetric").per_element

    lam = np.array([[phi**k for phi in phis] for k in LAGS])
    j, i = 2, 1
    diff = lam[:, j] - lam[:, i]
    nu = float(lam[:, j] @ diff)
    num = sum(diff[a] * diff[b] * closed_form_ar1_dlm(phis, la, mb, j, i)
              for a, la in enumerate(LAGS) for b, mb in enumerate(LAGS))
    num -= 2 * nu * sum(diff[a] * closed_form_ar1_dlm(phis, la, 0, j, i)
                        for a, la in enumerate(LAGS))
    num += nu**2 * closed_form_ar1_dlm(phis, 0, 0, j, i)
    expected = num / float(diff @ diff) ** 2
    np.testing.assert_allclose(table[j, i], expected, rtol=1e-9)


def test_build_model_sorts_into_estimator_order():
    # the strongest MA component of model "a" is listed first but the
    # second and third are out of criterion order; any listing gives the
    # tables of the sorted one, and row r is listed component order[r]
    listed = [expand_to_ma(s) for s in benchmark_model("a")]
    ref = build_model(sorted_expansions("a"), LAGS)
    assert ref.order == (0, 1, 2)
    for exps, order in ((listed, (0, 2, 1)), (listed[::-1], (2, 0, 1))):
        model = build_model(exps, LAGS)
        assert model.order == order
        assert all(e is listed[i] for e, i in zip(model.expansions, (0, 2, 1)))
        for method in ("deflation", "symmetric"):
            np.testing.assert_array_equal(asv(model, method).per_element,
                                          asv(ref, method).per_element)


def test_build_model_permutes_beta_with_the_components():
    beta = np.array([[5.0, 1.5, 1.2],
                     [1.5, 4.0, 1.1],
                     [1.2, 1.1, 3.5]])
    exps = sorted_expansions("a")
    ref = build_model(exps, LAGS, beta=beta)
    rev = build_model(exps[::-1], LAGS, beta=beta[::-1, ::-1])
    assert rev.order == (2, 1, 0)
    np.testing.assert_array_equal(rev.beta, beta)
    for method in ("deflation", "symmetric"):
        np.testing.assert_array_equal(asv(rev, method).per_element, asv(ref, method).per_element)


def test_listed_order_of_model_c_needs_no_sorting_by_the_caller():
    exps = [expand_to_ma(s) for s in benchmark_model("c")]
    model = build_model(exps, range(1, 11))
    assert model.order != (0, 1, 2)
    got = global_criterion(asv(model, "deflation"))
    assert abs(got - FROZEN_GLOBAL["c"][0]) < 1e-8


def test_identical_components_rejected():
    exps = [expand_to_ma(SourceSpec("ar", ar=(0.5,))) for _ in range(2)]
    model = build_model(exps, LAGS)
    with pytest.raises(ValueError, match="identifiability failure"):
        asv(model, "deflation")
    with pytest.raises(ValueError, match="pairwise identifiability failure"):
        asv(model, "symmetric")


def test_all_white_component_rejected():
    model = white_model(1, lags=LAGS)
    with pytest.raises(ValueError, match="identifiability failure"):
        asv(model, "deflation")
    with pytest.raises(ValueError, match="identifiability failure"):
        asv(model, "symmetric")


def test_trailing_white_component_is_allowed():
    exps = [expand_to_ma(SourceSpec("ar", ar=(0.6,))),
            expand_to_ma(SourceSpec("psi", psi=(1.0,)))]
    model = build_model(exps, LAGS)
    for table in (asv(model, "deflation"), asv(model, "symmetric")):
        assert np.all(np.isfinite(table.per_element))


def test_transform_identity_gamma_is_noop():
    sigma = vec_s0_covariance(white_model(2).d[0, 0])
    np.testing.assert_allclose(
        transform_general_mixing(sigma, np.eye(2)), sigma, atol=1e-14)


def test_transform_matches_explicit_kronecker():
    rng = np.random.default_rng(42)
    gamma = rng.uniform(-1, 1, size=(2, 2)) + 2 * np.eye(2)
    sigma = vec_s0_covariance(white_model(2).d[0, 0])
    out = transform_general_mixing(sigma, gamma, target="unmixing")
    ref = np.kron(gamma.T, np.eye(2)) @ sigma @ np.kron(gamma, np.eye(2))
    np.testing.assert_allclose(out, ref, atol=1e-12)
    out_m = transform_general_mixing(sigma, gamma, target="mixing")
    omega = np.linalg.inv(gamma)
    ref_m = np.kron(np.eye(2), omega) @ sigma @ np.kron(np.eye(2), omega.T)
    np.testing.assert_allclose(out_m, ref_m, atol=1e-12)


def test_transform_validation():
    sigma = np.eye(4)
    with pytest.raises(ValueError, match="singular"):
        transform_general_mixing(sigma, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="target"):
        transform_general_mixing(sigma, np.eye(2), target="other")
    with pytest.raises(ValueError, match="p\\^2"):
        transform_general_mixing(np.eye(3), np.eye(2))


def test_empirical_asv_close_to_exact_for_ar1_model():
    z = simulate_sources(benchmark_model("d"), T=30000, seed=77)
    lags = LAGS
    acs = autocov_set(z, lags)
    res = sobi_symmetric_jacobi(acs)
    emp = empirical_asv(z, res, lags).per_element
    exact = asv(build_model(sorted_expansions("d"), lags), "symmetric").per_element
    off = ~np.eye(3, dtype=bool)
    assert np.max(np.abs(emp[off] - exact[off]) / exact[off]) < 0.3


def test_empirical_asv_duplicate_structure_rejected():
    rng = np.random.default_rng(5)
    row = rng.standard_normal(4000)
    x = np.vstack([row, row])
    res = sobi_symmetric_jacobi(
        autocov_set(np.vstack([row, rng.standard_normal(4000)]),
                    (1, 2, 3)))
    dummy = dataclasses.replace(res, gamma=np.eye(2))
    with pytest.raises(ValueError, match="identifiability failure"):
        empirical_asv(x, dummy, (1, 2, 3))


def test_empirical_asv_validation():
    x = np.random.default_rng(6).standard_normal((2, 100))
    res = sobi_symmetric_jacobi(autocov_set(x, (1,)))
    with pytest.raises(ValueError, match="positive"):
        empirical_asv(x, res, ())
    with pytest.raises(ValueError, match="horizon too small"):
        empirical_asv(x, res, (50,), kmax=10)
    with pytest.raises(ValueError, match="no ASV for method 'jade'"):
        empirical_asv(x, dataclasses.replace(res, method="jade"), (1,))
    # amuse is scored on its one lag only, with the symmetric formulas
    as_amuse = dataclasses.replace(res, method="amuse")
    with pytest.raises(ValueError, match="tau"):
        empirical_asv(x, as_amuse, (1, 2))
    np.testing.assert_array_equal(empirical_asv(x, as_amuse, (1,)).per_element,
                                  empirical_asv(x, res, (1,)).per_element)


@pytest.mark.parametrize("case", ["nan", "overflow", "3-d", "rows"])
def test_empirical_asv_refuses_what_autocov_set_refuses(case):
    # in autocov_set's words, with no numpy warning on the way
    x = simulate_sources(benchmark_model("c"), T=600, seed=2)
    res = sobi_symmetric_jacobi(autocov_set(x, LAGS))
    bad = x.copy()
    bad[1, 7] = np.nan
    data, message = {
        "nan": (bad, "series contains non-finite values"),
        "overflow": (x * 1e200, "series values too large: their autocovariances overflow"),
        "3-d": (x[None], "series must be a p x T matrix"),
        "rows": (x[:2], "the fit unmixes 3 rows, the series has 2"),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            empirical_asv(data, res, LAGS)
        if case != "rows":
            with pytest.raises(ValueError, match=f"^{message}$"):
                autocov_set(data, LAGS)


@pytest.mark.parametrize("scale", [1e-170, 1e-320])
def test_empirical_asv_refuses_a_series_whose_variance_underflows(scale):
    # the recovered sources' squares underflow, so a lag-0 autocovariance is
    # zero: one error that names it, and no numpy warning before it
    x = simulate_sources(benchmark_model("c"), T=600, seed=2)
    res = sobi_symmetric_jacobi(autocov_set(x, LAGS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^series values too small: "
                                             "a source's lag-0 autocovariance is zero$"):
            empirical_asv(x * scale, res, LAGS)


def test_d_tensor_size_is_bounded(monkeypatch):
    # (K + 1)^2 p^2 doubles: at p = 3, lags 1-10 take 8712 bytes
    exps = sorted_expansions("d")
    monkeypatch.setattr(asymptotics, "_D_MAX_BYTES", 8 * 11**2 * 9)
    build_model(exps, LAGS)
    with pytest.raises(ValueError, match="^11 lags need a 0 MiB D tensor, over the 0 MiB bound$"):
        build_model(exps, range(1, 12))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^5000 lags need a 1717 MiB D tensor, "
                                         "over the 256 MiB bound$"):
        build_model(exps, range(1, 5001))


@pytest.mark.parametrize("name", "abcd")
def test_lags_past_every_support_read_zero_at_no_cost(name):
    # lambda and every cross-product vanish past the weight supports (142 at
    # most), so how far a lag lies beyond them changes neither D nor its cost
    exps = [expand_to_ma(s) for s in benchmark_model(name)]
    near = build_model(exps, (1, 10**4))
    tracemalloc.start()
    try:
        far = build_model(exps, (1, 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    # D_lm, l < m = 10**4, sums cross-products at shifts m - l and m + l, past the supports
    assert not near.d[:2, 2].any()
    for model in (far, build_model(exps, (1, 2**62 - 1))):
        assert model.order == near.order
        np.testing.assert_array_equal(model.lam, near.lam)
        np.testing.assert_array_equal(model.d, near.d)


def test_asv_table_row_sums():
    model = build_model(sorted_expansions("d"), LAGS)
    table = asv(model, "symmetric")
    np.testing.assert_allclose(table.row_sums(),
                               table.per_element.sum(axis=1), atol=1e-14)


def reference_table(lam, lags, d, method):
    """ASV table written out entry by entry from lambda rows (lag x
    component) and an entry function d(l, m, i, j) = (D_lm)_ij."""
    p = lam.shape[1]
    mu = lam.T @ lam
    out = np.empty((p, p))
    for j in range(p):
        out[j, j] = 0.25 * d(0, 0, j, j)
        for i in range(p):
            if i == j:
                continue
            if method == "symmetric":
                w = lam[:, j] - lam[:, i]
                ref, den = float(lam[:, j] @ w), float(w @ w)
            elif i < j:
                w, ref, den = lam[:, i], mu[i, j], mu[i, j] - mu[i, i]
            else:
                w, ref, den = lam[:, j], mu[j, j], mu[j, j] - mu[j, i]
            num = sum(w[a] * w[b] * d(l, m, j, i)
                      for a, l in enumerate(lags) for b, m in enumerate(lags))
            num -= 2 * ref * sum(w[a] * d(l, 0, j, i) for a, l in enumerate(lags))
            num += ref**2 * d(0, 0, j, i)
            out[j, i] = num / den**2
    return out


def reference_empirical_asv(x, gamma, lags, method):
    """Plug-in table from per-lag dot products and element-wise D_lm sums."""
    p, T = x.shape
    kmax = 12 * max(lags)
    z = gamma @ (x - x.mean(axis=1, keepdims=True))
    rho = np.ones((p, kmax + 1))
    for i in range(p):
        c0 = float(z[i] @ z[i]) / T
        for k in range(1, kmax + 1):
            rho[i, k] = float(z[i, : T - k] @ z[i, k:]) / (T - k) / c0

    @functools.cache
    def c(i, j, s):
        # sum_k rho_i(k) rho_j(k + s) over |k|, |k + s| <= kmax
        k = np.arange(-kmax, kmax + 1)
        k = k[np.abs(k + s) <= kmax]
        return float(rho[i, np.abs(k)] @ rho[j, np.abs(k + s)])

    def d(l, m, i, j):
        if i == j:
            return c(i, i, m - l) + c(i, i, m + l)
        return 0.5 * (c(i, j, m - l) + c(i, j, m + l))

    return reference_table(rho[:, list(lags)].T, lags, d, method)


@pytest.mark.parametrize("lags", [tuple(range(1, 6)),
                                  tuple(range(1, 6)) + tuple(range(10, 41, 5))])
def test_empirical_asv_matches_direct_formulas(lags):
    z = simulate_sources(benchmark_model("d"), T=3000, seed=11)
    x = np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5], [-0.6, 0.1, 1.0]]) @ z
    res = sobi_symmetric_jacobi(autocov_set(x, lags))
    for method in ("deflation", "symmetric"):
        # the formulas follow the fit's method: deflation's, or the symmetric ones
        fit = dataclasses.replace(res, method="deflation") if method == "deflation" else res
        table = empirical_asv(x, fit, lags)
        assert table.method == method
        np.testing.assert_allclose(
            table.per_element,
            reference_empirical_asv(x, res.gamma, lags, method), rtol=1e-12)


def test_exact_tables_beyond_weight_support_match_closed_form_ar1(monkeypatch):
    # lags past the weight support give shifts m + l at which every
    # cross-product of the truncated autocovariance sequences is zero; the
    # deep truncation keeps c(10) of the phi = 0.2 component exact
    phis = (0.6, 0.4, 0.2)
    exps = ar1_expansions(monkeypatch, phis, 1e-30)
    lags = (1, 2, 3, 90, 100)
    model = build_model(exps, lags)
    assert max(lags) > max(e.psi.size for e in exps)
    d = functools.cache(functools.partial(closed_form_ar1_dlm, phis))
    at = (0, *lags).index  # model.d is indexed by position in (0,) + lags
    for l, m in ((0, 100), (3, 90), (90, 100), (100, 100)):
        expected = [[d(l, m, i, j) for j in range(3)] for i in range(3)]
        np.testing.assert_allclose(model.d[at(l), at(m)], expected,
                                   rtol=1e-9, atol=1e-15)
    lam = np.array([[phi**k for phi in phis] for k in lags])
    for method in ("deflation", "symmetric"):
        np.testing.assert_allclose(asv(model, method).per_element,
                                   reference_table(lam, lags, d, method),
                                   rtol=1e-9)
    # asv(model, method) takes a formula or a solver name
    for name in ("deflation", "symmetric", "symmetric-fixedpoint", "symmetric-jacobi"):
        method = name.split("-")[0]
        table = asv(model, name)
        assert table.method == method
        np.testing.assert_array_equal(table.per_element, asv(model, method).per_element)
    for name in ("amuse", "bogus"):
        with pytest.raises(ValueError, match="no ASV"):
            asv(model, name)
