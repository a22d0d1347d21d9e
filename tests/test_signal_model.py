import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobikit.signal_model import (
    MAExpansion,
    MixingModel,
    SourceSpec,
    expand_to_ma,
    mix,
    simulate_sources,
)


def test_ar1_psi_closed_form():
    # psi_k = 0.8 * 0.6^k: geometric impulse response times 1/sqrt(sum 0.36^k)
    exp = expand_to_ma(SourceSpec("ar", ar=(0.6,)))
    k = np.arange(exp.psi.size)
    np.testing.assert_allclose(exp.psi, 0.8 * 0.6**k, rtol=0, atol=1e-12)


@given(phi=st.floats(min_value=-0.95, max_value=0.95).filter(lambda v: abs(v) > 1e-3))
@settings(max_examples=40, deadline=None)
def test_ar1_psi_ratio_property(phi):
    psi = expand_to_ma(SourceSpec("ar", ar=(phi,))).psi
    ratios = psi[1:] / psi[:-1]
    assert np.max(np.abs(ratios - phi)) < 1e-12


def test_ma_kind_appends_leading_unit_weight():
    theta = (0.8, 3.8, 1.2, 1.4, 1.1, 0.5, 0.7, 0.3, 0.5, 1.8)
    exp = expand_to_ma(SourceSpec("ma", ma=theta))
    raw = np.r_[1.0, theta]
    np.testing.assert_allclose(exp.psi, raw / np.linalg.norm(raw), atol=1e-15)


def test_arma_without_ar_part_equals_ma():
    a = expand_to_ma(SourceSpec("arma", ma=(0.5, -0.2)))
    b = expand_to_ma(SourceSpec("ma", ma=(0.5, -0.2)))
    np.testing.assert_array_equal(a.psi, b.psi)


def test_psi_weights_are_unit_variance():
    for spec in (
        SourceSpec("arma", ar=(0.3, 0.3, -0.4), ma=(-0.6, 0.3, 1.1, 1.0, -1.1, -0.3)),
        SourceSpec("ar", ar=(0.0, 0.0, 0.6)),
        SourceSpec("psi", psi=(3.0, 1.0, -2.0)),
    ):
        psi = expand_to_ma(spec).psi
        assert abs(np.sum(psi**2) - 1.0) < 1e-12


def test_expansion_matches_long_run_sample_autocovariance():
    # population lag-k autocovariance of the expansion vs a long simulation
    spec = SourceSpec("arma", ar=(0.4,), ma=(0.5,))
    psi = expand_to_ma(spec).psi
    T = 10**5
    z = simulate_sources([spec], T, seed=11)[0]
    for k in (1, 2, 5):
        lam = float(np.dot(psi[:-k], psi[k:]))
        sample = float(np.dot(z[:-k], z[k:]) / (T - k))
        se = 3.0 / np.sqrt(T)
        assert abs(sample - lam) < 3 * se


def test_noncausal_ar_rejected():
    with pytest.raises(ValueError, match="not causal"):
        SourceSpec("ar", ar=(1.0,))
    with pytest.raises(ValueError, match="not causal"):
        SourceSpec("arma", ar=(0.5, 0.5), ma=(0.3,))


@pytest.mark.parametrize("ar", [(5e-324,), (0.5, 5e-324), (-1e-320, 1e-320, 0.3)])
def test_subnormal_ar_coefficients_are_causal(ar):
    # no RuntimeWarning (an error under this suite's filters) and no rejection
    assert SourceSpec("ar", ar=ar).ar == ar


def test_truncation_overflow():
    with pytest.raises(ValueError, match="truncation overflow"):
        expand_to_ma(SourceSpec("ar", ar=(0.999,)), max_len=10)


def test_slowly_mixing_ar_still_expands():
    psi = expand_to_ma(SourceSpec("ar", ar=(0.99,))).psi
    assert abs(np.sum(psi**2) - 1.0) < 1e-12
    assert psi.size > 1000


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown source kind"):
        SourceSpec("garch")
    with pytest.raises(ValueError):
        SourceSpec("psi", psi=())
    with pytest.raises(ValueError):
        SourceSpec("psi", psi=(0.0, 0.0))
    with pytest.raises(ValueError):
        SourceSpec("psi", psi=(np.inf, 1.0))
    for kind in ("ar", "ma", "arma"):
        for field in ("ar", "ma"):
            if kind in (field, "arma"):
                for bad in (np.nan, np.inf, -np.inf):
                    with pytest.raises(ValueError, match=f"{field} coefficients must be finite"):
                        SourceSpec(kind, **{field: (0.1, bad)})


def test_explicit_psi_alias():
    spec = SourceSpec("explicit-psi", psi=(1.0, 0.5))
    assert spec.kind == "psi"


def test_spec_dict_round_trip():
    spec = SourceSpec("arma", ar=(0.2,), ma=(0.4, -0.1))
    assert SourceSpec.from_dict({"kind": "arma", "ar": [0.2], "ma": [0.4, -0.1]}) == spec


def test_expansion_requires_normalized_weights():
    with pytest.raises(ValueError, match="not normalized"):
        MAExpansion(psi=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="not normalized"):
        MAExpansion(psi=np.array([1.0, np.nan]))


def test_white_noise_simulation_is_the_raw_draws():
    # a single white component passes the innovations straight through
    z = simulate_sources([SourceSpec("psi", psi=(1.0,))], T=4, seed=5)
    assert z.shape == (1, 4)
    np.testing.assert_array_equal(
        z, np.random.default_rng(5).standard_normal((1, 4)))


def test_simulation_is_seed_deterministic():
    specs = [SourceSpec("ar", ar=(0.6,)), SourceSpec("ma", ma=(0.7,))]
    a = simulate_sources(specs, 500, seed=3)
    b = simulate_sources(specs, 500, seed=3)
    c = simulate_sources(specs, 500, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ar1_triplet_sample_autocorrelations():
    specs = [SourceSpec("ar", ar=(phi,)) for phi in (0.6, 0.4, 0.2)]
    z = simulate_sources(specs, T=1000, seed=2)
    for i, phi in enumerate((0.6, 0.4, 0.2)):
        zi = z[i] - z[i].mean()
        rho = float(zi[:-1] @ zi[1:] / (zi @ zi))
        assert abs(rho - phi) < 0.1


def test_simulated_sources_have_unit_variance():
    specs = [
        SourceSpec("ar", ar=(0.6,)),
        SourceSpec("ma", ma=(0.8, 3.8, 1.2, 1.4, 1.1, 0.5, 0.7, 0.3, 0.5, 1.8)),
        SourceSpec("arma", ar=(0.2, 0.1, -0.4), ma=(1.2, 2.8, -1.0, -1.0, 0.1, 0.1)),
    ]
    z = simulate_sources(specs, T=200000, seed=9)
    v = z.var(axis=1)
    assert np.max(np.abs(v - 1.0)) < 0.05


def test_innovation_hook_shape_and_use():
    def uniform(rng, shape):
        return rng.uniform(-np.sqrt(3), np.sqrt(3), size=shape)

    z = simulate_sources([SourceSpec("ar", ar=(0.5,))], 50000, seed=1,
                         innovations=uniform)
    assert abs(z.var() - 1.0) < 0.05

    def bad(rng, shape):
        return np.zeros((1, 1))

    with pytest.raises(ValueError, match="wrong shape"):
        simulate_sources([SourceSpec("ar", ar=(0.5,))], 100, seed=1,
                         innovations=bad)


def test_simulate_argument_validation():
    spec = SourceSpec("ar", ar=(0.5,))
    with pytest.raises(ValueError):
        simulate_sources([spec], T=1, seed=0)
    with pytest.raises(ValueError):
        simulate_sources([spec], T=100, seed=0, burn_in=-1)
    with pytest.raises(ValueError):
        simulate_sources([], T=100, seed=0)


def test_mix_hand_example():
    model = MixingModel(omega=np.array([[1.0, 1.0], [0.0, 1.0]]),
                        mu=np.array([1.0, 1.0]))
    x = mix(np.array([[1.0], [2.0]]), model)
    np.testing.assert_array_equal(x, np.array([[4.0], [3.0]]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_mix_composition_property(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, 7))
    w1 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    w2 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    lhs = mix(z, MixingModel(omega=w1 @ w2))
    rhs = mix(mix(z, MixingModel(omega=w2)), MixingModel(omega=w1))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_mixing_model_validation():
    with pytest.raises(ValueError, match="square"):
        MixingModel(omega=np.ones((2, 3)))
    with pytest.raises(ValueError, match="singular|rank"):
        MixingModel(omega=np.ones((2, 2)))
    with pytest.raises(ValueError, match="length-p"):
        MixingModel(omega=np.eye(2), mu=np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mix(np.ones((3, 4)), MixingModel(omega=np.eye(2)))
