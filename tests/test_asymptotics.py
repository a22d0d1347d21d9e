import dataclasses
import functools

import numpy as np
import pytest

from sobikit import asymptotics
from sobikit.asymptotics import (
    asv,
    asv_deflation,
    asv_symmetric,
    build_model,
    empirical_asv,
    global_criterion,
    transform_general_mixing,
)
from sobikit.autocovariance import autocov_set, sample_autocov
from sobikit.joint_diag import sobi_symmetric_jacobi
from sobikit.presets import benchmark_model
from sobikit.signal_model import SourceSpec, expand_to_ma, simulate_sources

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


def sorted_expansions(name, tol=1e-12):
    exps = [expand_to_ma(s, tol=tol) for s in benchmark_model(name)]

    def strength(e):
        return sum(float(np.dot(e.psi[:-k], e.psi[k:])) ** 2
                   for k in LAGS if k < e.psi.size)

    return sorted(exps, key=strength, reverse=True)


def white_model(p, lags=(1, 2)):
    exps = [expand_to_ma(SourceSpec("psi", psi=(1.0,))) for _ in range(p)]
    return build_model(exps, lags)


def test_ar1_lambdas_are_powers():
    # deep truncation: lambda at lag 10 of the phi = 0.2 component loses a
    # relative 0.04^(N-9) to the cut tail, so N must comfortably exceed 20
    exps = [expand_to_ma(SourceSpec("ar", ar=(phi,)), tol=1e-30)
            for phi in (0.6, 0.4, 0.2)]
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


def test_d_tensor_runs_once_per_model(monkeypatch):
    # the model carries lambda and D; tables and methods only read them
    calls = []
    kernel = asymptotics._d_tensor
    monkeypatch.setattr(asymptotics, "_d_tensor",
                        lambda *args: calls.append(args) or kernel(*args))
    model = build_model(sorted_expansions("c"), LAGS)
    assert len(calls) == 1
    asv_deflation(model)
    asv_symmetric(model)
    for method in ("deflation", "symmetric", "symmetric-fixedpoint", "symmetric-jacobi"):
        asv(model, method)
    assert len(calls) == 1
    x = simulate_sources(benchmark_model("c"), T=500, seed=1)
    empirical_asv(x, sobi_symmetric_jacobi(autocov_set(x, LAGS, centered=True)), LAGS)
    assert len(calls) == 2


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


def loop_vlm(d):
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


def test_vlm_matches_monte_carlo_vec_covariance():
    # empirical covariance of sqrt(T) vec(S_0) for bivariate white noise
    T, reps = 20000, 2000
    rng = np.random.default_rng(123)
    vecs = np.empty((reps, 4))
    for r in range(reps):
        x = rng.standard_normal((2, T))
        vecs[r] = sample_autocov(x, 0).flatten(order="F") * np.sqrt(T)
    emp = np.cov(vecs.T)
    v00 = loop_vlm(white_model(2).d[0, 0])
    assert np.max(np.abs(emp - v00)) < 0.1 * np.max(np.abs(v00))


@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_global_criteria_match_independent_evaluation(name):
    model = build_model(sorted_expansions(name, tol=1e-14), LAGS)
    d = global_criterion(asv_deflation(model))
    s = global_criterion(asv_symmetric(model))
    ref_d, ref_s = FROZEN_GLOBAL[name]
    np.testing.assert_allclose(d, ref_d, rtol=1e-12)
    np.testing.assert_allclose(s, ref_s, rtol=1e-12)


def test_diagonal_entries_agree_between_methods():
    for name in ("a", "d"):
        model = build_model(sorted_expansions(name), LAGS)
        defl = asv_deflation(model).per_element
        sym = asv_symmetric(model).per_element
        np.testing.assert_array_equal(np.diag(defl), np.diag(sym))
        np.testing.assert_allclose(np.diag(defl), 0.25 * np.diag(model.d[0, 0]),
                                   atol=1e-14)


def test_one_lag_tables_agree_and_are_amuse_tables():
    # with one lag, AMUSE, deflation-based and symmetric SOBI are one estimator
    for name in ("a", "c", "d"):
        for k in (1, 2, 3):
            model = build_model(sorted_expansions(name), (k,))
            sym = asv_symmetric(model).per_element
            np.testing.assert_allclose(asv_deflation(model).per_element, sym, rtol=1e-14)
            np.testing.assert_array_equal(asv(model, "amuse").per_element, sym)
    with pytest.raises(ValueError, match="tau"):
        asv(build_model(sorted_expansions("c"), (1, 2)), "amuse")


def test_single_component_table():
    exps = [expand_to_ma(SourceSpec("ar", ar=(0.6,)))]
    model = build_model(exps, LAGS)
    table = asv_symmetric(model)
    assert table.per_element.shape == (1, 1)
    np.testing.assert_allclose(table.per_element[0, 0],
                               0.25 * model.d[0, 0, 0, 0], atol=1e-14)
    assert global_criterion(table) == 0.0


def test_sign_flip_of_weights_leaves_tables_unchanged():
    exps = sorted_expansions("a")
    flipped = [dataclasses.replace(e, psi=-e.psi) for e in exps]
    m1 = build_model(exps, LAGS)
    m2 = build_model(flipped, LAGS)
    np.testing.assert_allclose(asv_deflation(m1).per_element,
                               asv_deflation(m2).per_element, atol=1e-12)
    np.testing.assert_allclose(asv_symmetric(m1).per_element,
                               asv_symmetric(m2).per_element, atol=1e-12)


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


def test_deflation_entry_matches_symbolic_ar1():
    phis = (0.6, 0.4, 0.2)
    exps = [expand_to_ma(SourceSpec("ar", ar=(phi,)), tol=1e-15)
            for phi in phis]
    table = asv_deflation(build_model(exps, LAGS)).per_element

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


def test_symmetric_entry_matches_symbolic_ar1():
    phis = (0.6, 0.4, 0.2)
    exps = [expand_to_ma(SourceSpec("ar", ar=(phi,)), tol=1e-15)
            for phi in phis]
    table = asv_symmetric(build_model(exps, LAGS)).per_element

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
        for fn in (asv_deflation, asv_symmetric):
            np.testing.assert_array_equal(fn(model).per_element,
                                          fn(ref).per_element)


def test_build_model_permutes_beta_with_the_components():
    beta = np.array([[5.0, 1.5, 1.2],
                     [1.5, 4.0, 1.1],
                     [1.2, 1.1, 3.5]])
    exps = sorted_expansions("a")
    ref = build_model(exps, LAGS, beta=beta)
    rev = build_model(exps[::-1], LAGS, beta=beta[::-1, ::-1])
    assert rev.order == (2, 1, 0)
    np.testing.assert_array_equal(rev.beta, beta)
    for fn in (asv_deflation, asv_symmetric):
        np.testing.assert_array_equal(fn(rev).per_element, fn(ref).per_element)


def test_listed_order_of_model_c_needs_no_sorting_by_the_caller():
    exps = [expand_to_ma(s) for s in benchmark_model("c")]
    model = build_model(exps, range(1, 11))
    assert model.order != (0, 1, 2)
    got = global_criterion(asv_deflation(model))
    assert abs(got - FROZEN_GLOBAL["c"][0]) < 1e-8


def test_identical_components_rejected():
    exps = [expand_to_ma(SourceSpec("ar", ar=(0.5,))) for _ in range(2)]
    model = build_model(exps, LAGS)
    with pytest.raises(ValueError, match="identifiability failure"):
        asv_deflation(model)
    with pytest.raises(ValueError, match="pairwise identifiability failure"):
        asv_symmetric(model)


def test_all_white_component_rejected():
    model = white_model(1, lags=LAGS)
    with pytest.raises(ValueError, match="identifiability failure"):
        asv_deflation(model)
    with pytest.raises(ValueError, match="identifiability failure"):
        asv_symmetric(model)


def test_trailing_white_component_is_allowed():
    exps = [expand_to_ma(SourceSpec("ar", ar=(0.6,))),
            expand_to_ma(SourceSpec("psi", psi=(1.0,)))]
    model = build_model(exps, LAGS)
    for table in (asv_deflation(model), asv_symmetric(model)):
        assert np.all(np.isfinite(table.per_element))


def test_transform_identity_gamma_is_noop():
    sigma = loop_vlm(white_model(2).d[0, 0])
    np.testing.assert_allclose(
        transform_general_mixing(sigma, np.eye(2)), sigma, atol=1e-14)


def test_transform_matches_explicit_kronecker():
    rng = np.random.default_rng(42)
    gamma = rng.uniform(-1, 1, size=(2, 2)) + 2 * np.eye(2)
    sigma = loop_vlm(white_model(2).d[0, 0])
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
    acs = autocov_set(z, lags, centered=True)
    res = sobi_symmetric_jacobi(acs)
    emp = empirical_asv(z, res, lags).per_element
    exact = asv_symmetric(build_model(sorted_expansions("d"), lags)).per_element
    off = ~np.eye(3, dtype=bool)
    assert np.max(np.abs(emp[off] - exact[off]) / exact[off]) < 0.3


def test_empirical_asv_duplicate_structure_rejected():
    rng = np.random.default_rng(5)
    row = rng.standard_normal(4000)
    x = np.vstack([row, row])
    res = sobi_symmetric_jacobi(
        autocov_set(np.vstack([row, rng.standard_normal(4000)]),
                    (1, 2, 3), centered=True))
    dummy = dataclasses.replace(res, gamma=np.eye(2))
    with pytest.raises(ValueError, match="identifiability failure"):
        empirical_asv(x, dummy, (1, 2, 3))


def test_empirical_asv_validation():
    x = np.random.default_rng(6).standard_normal((2, 100))
    res = sobi_symmetric_jacobi(autocov_set(x, (1,), centered=True))
    with pytest.raises(ValueError, match="positive"):
        empirical_asv(x, res, ())
    with pytest.raises(ValueError, match="horizon too small"):
        empirical_asv(x, res, (50,), kmax=10)
    with pytest.raises(ValueError, match="no ASV for method 'jade'"):
        empirical_asv(x, res, (1,), method="jade")
    # amuse is scored on its one lag only, with the symmetric formulas
    with pytest.raises(ValueError, match="tau"):
        empirical_asv(x, dataclasses.replace(res, method="amuse"), (1, 2))
    np.testing.assert_array_equal(empirical_asv(x, res, (1,), method="amuse").per_element,
                                  empirical_asv(x, res, (1,)).per_element)


def test_asv_table_row_sums():
    model = build_model(sorted_expansions("d"), LAGS)
    table = asv_symmetric(model)
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
    res = sobi_symmetric_jacobi(autocov_set(x, lags, centered=True))
    for method in ("deflation", "symmetric"):
        table = empirical_asv(x, res, lags, method=method)
        assert table.method == method
        np.testing.assert_allclose(
            table.per_element,
            reference_empirical_asv(x, res.gamma, lags, method), rtol=1e-12)


def test_exact_tables_beyond_weight_support_match_closed_form_ar1():
    # lags past the weight support give shifts m + l at which every
    # cross-product of the truncated autocovariance sequences is zero; the
    # deep truncation keeps c(10) of the phi = 0.2 component exact
    phis = (0.6, 0.4, 0.2)
    exps = [expand_to_ma(SourceSpec("ar", ar=(phi,)), tol=1e-30)
            for phi in phis]
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
    fns = {"deflation": asv_deflation, "symmetric": asv_symmetric}
    for method, fn in fns.items():
        np.testing.assert_allclose(fn(model).per_element,
                                   reference_table(lam, lags, d, method),
                                   rtol=1e-9)
    # asv(model, method) takes a formula or a solver name
    for name in ("deflation", "symmetric", "symmetric-fixedpoint", "symmetric-jacobi"):
        method = name.split("-")[0]
        table = asv(model, name)
        assert table.method == method
        np.testing.assert_array_equal(table.per_element, fns[method](model).per_element)
    for name in ("amuse", "bogus"):
        with pytest.raises(ValueError, match="no ASV"):
            asv(model, name)
