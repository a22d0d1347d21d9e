import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobikit.autocovariance import (
    AutocovSet,
    _products,
    autocorrelations,
    autocov_set,
    whitener,
)
from sobikit.presets import benchmark_model
from sobikit.signal_model import simulate_sources


def lag_matrix(x, k, centered=False):
    """S_k of x alone, from autocov_set: its S_0 at k = 0, else its one S_k."""
    acs = autocov_set(x, (k,) if k else (), centered=centered)
    return acs.sk[0] if k else acs.s0


def test_univariate_hand_example():
    # (1/(2(T-k))) * ((1*2 + 2*1) + (2*3 + 3*2)) with T = 3, k = 1
    s1 = lag_matrix(np.array([[1.0, 2.0, 3.0]]), 1)
    assert s1.shape == (1, 1)
    assert s1[0, 0] == 4.0


def test_zero_input_gives_zero_matrices():
    x = np.zeros((3, 20))
    for k in (0, 1, 5):
        np.testing.assert_array_equal(lag_matrix(x, k), np.zeros((3, 3)))


def test_lag0_is_gram_matrix_over_T():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 37))
    np.testing.assert_array_equal(lag_matrix(x, 0), (x @ x.T) / 37)


def test_white_noise_lag0_near_identity():
    T = 10**5
    x = np.random.default_rng(1).standard_normal((3, T))
    s0 = lag_matrix(x, 0)
    assert np.max(np.abs(s0 - np.eye(3))) < 3 / np.sqrt(T)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=30, deadline=None)
def test_output_exactly_symmetric(seed, k):
    x = np.random.default_rng(seed).standard_normal((3, 12))
    s = lag_matrix(x, k)
    np.testing.assert_array_equal(s, s.T)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_equivariance_under_linear_maps(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 60))
    a = rng.uniform(-2, 2, size=(3, 3))
    for k in (0, 2):
        lhs = lag_matrix(a @ x, k)
        rhs = a @ lag_matrix(x, k) @ a.T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_centering_matches_manual_demeaning():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 50)) + 5.0
    manual = x - x.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(
        lag_matrix(x, 3, centered=True), lag_matrix(manual, 3),
        atol=1e-14)


def test_autocov_set_counts_and_content():
    z = simulate_sources(benchmark_model("b"), T=2000, seed=4)
    acs = autocov_set(z, range(1, 11))
    assert acs.lags == tuple(range(1, 11))
    assert acs.s0.shape == (3, 3)
    assert acs.sk.shape == (10, 3, 3)  # the ten requested lags, in lag order
    np.testing.assert_array_equal(acs.s0, lag_matrix(z, 0))
    np.testing.assert_array_equal(acs.sk[2], lag_matrix(z, 3))


def test_autocov_set_empty_lags():
    x = np.random.default_rng(5).standard_normal((2, 30))
    acs = autocov_set(x, ())
    assert acs.lags == ()
    assert acs.sk.shape == (0, 2, 2)
    assert autocorrelations(acs).shape == (0, 2, 2)


def test_autocov_set_validation():
    x = np.random.default_rng(6).standard_normal((2, 30))
    with pytest.raises(ValueError, match="duplicate"):
        autocov_set(x, (1, 1))
    with pytest.raises(ValueError, match="positive"):
        autocov_set(x, (0,))
    with pytest.raises(ValueError, match="out of range"):
        autocov_set(x, (29,))
    with pytest.raises(ValueError, match="positive"):
        autocov_set(x, (-1,))
    with pytest.raises(ValueError, match="non-finite"):
        autocov_set(np.array([[1.0, np.nan, 0.0]]), (1,))
    with pytest.raises(ValueError, match="at least"):
        autocov_set(np.array([[1.0]]), ())
    with pytest.raises(ValueError, match="p x T"):
        autocov_set(np.ones((2, 3, 4)), (1,))


def test_whitener_inverts_covariance():
    s0 = np.array([[2.0, 1.0], [1.0, 2.0]])
    w = whitener(s0)
    np.testing.assert_allclose(w @ s0 @ w, np.eye(2), atol=1e-12)
    np.testing.assert_array_equal(w, w.T)


def test_whitener_identity_fixed_point():
    np.testing.assert_allclose(whitener(np.eye(3)), np.eye(3), atol=1e-14)


def test_whitener_rejects_non_positive_definite():
    with pytest.raises(ValueError, match="not positive definite"):
        whitener(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        whitener(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_autocorrelations_diagonal_when_prewhitened():
    s_k = np.diag([0.7, 0.2])
    acs = AutocovSet(s0=np.eye(2), sk=s_k[None], lags=(1,))
    np.testing.assert_allclose(autocorrelations(acs)[0], s_k, atol=1e-14)


def test_autocorrelations_eigenvalues_under_population_mixing():
    # S_0 = Omega Omega', S_k = Omega Lambda_k Omega' whitens to R_k with
    # the Lambda_k diagonal as its spectrum
    rng = np.random.default_rng(8)
    omega = rng.uniform(-1, 1, size=(3, 3)) + 2 * np.eye(3)
    lam = np.diag([0.8, 0.5, -0.3])
    acs = AutocovSet(s0=omega @ omega.T, sk=(omega @ lam @ omega.T)[None], lags=(1,))
    evals = np.linalg.eigvalsh(autocorrelations(acs)[0])
    np.testing.assert_allclose(np.sort(evals), np.sort(np.diag(lam)), atol=1e-10)


def test_batched_kernels_round_like_the_one_series_arithmetic():
    # the lag products of each series of a (B, p, T) stack, and the whitening
    # kernels over their (B, ...) stacks, must give each series the bits of
    # the one-series arithmetic written out with 2-D products
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 3, 3)) @ rng.standard_normal((5, 3, 400)).cumsum(axis=-1)
    x -= x.mean(axis=-1, keepdims=True)
    lags = (1, 4, 9)
    s = np.stack([_products(xb, (0,) + lags, centered=False) for xb in x])
    s0, S = s[:, 0], s[:, 1:]
    W = whitener(s0)
    R = autocorrelations(AutocovSet(s0, S, lags), W)
    np.testing.assert_array_equal(autocorrelations(AutocovSet(s0, S, lags)), R)
    T = x.shape[-1]
    for b, xb in enumerate(x):
        m = xb @ xb.T / T
        np.testing.assert_array_equal(s0[b], (m + m.T) / 2)
        for i, k in enumerate(lags):
            a = xb[:, : T - k] @ xb[:, k:].T
            m = (a + a.T) / (2 * (T - k))
            np.testing.assert_array_equal(S[b, i], (m + m.T) / 2)
        e, v = np.linalg.eigh((s0[b] + s0[b].T) / 2)
        m = (v * e**-0.5) @ v.T
        np.testing.assert_array_equal(W[b], (m + m.T) / 2)
        for i in range(len(lags)):
            r = W[b] @ S[b, i] @ W[b]
            np.testing.assert_array_equal(R[b, i], (r + r.T) / 2)


def test_centering_leaves_the_callers_series_alone():
    # the product code centres its series in place, so autocov_set hands it a copy
    x = np.random.default_rng(3).standard_normal((2, 50)) + 5.0
    before = x.copy()
    acs = autocov_set(x, (1, 2), centered=True)
    np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(acs.s0, autocov_set(x - x.mean(axis=1, keepdims=True), ()).s0)


def test_batched_whitening_rejects_a_block_with_one_singular_matrix():
    s0 = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
    with pytest.raises(ValueError, match="not positive definite"):
        whitener(s0)


@pytest.mark.parametrize("centered", [False, True])
def test_overflowing_products_raise_without_a_warning(centered):
    # finite values whose products leave the float range
    x = np.random.default_rng(0).standard_normal((2, 40)) * 1e200
    with pytest.raises(ValueError, match="overflow"):
        autocov_set(x, (1, 2), centered=centered)
    with pytest.raises(ValueError, match="overflow"):
        autocov_set(x, (), centered=centered)
    # large values whose products stay finite pass
    acs = autocov_set(x * 1e-50, (1, 2), centered=centered)
    assert np.all(np.isfinite(acs.s0)) and np.all(np.isfinite(acs.sk))
