import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobikit.asymptotics import asv, build_model, global_criterion
from scipy.optimize import linear_sum_assignment

from sobikit.autocovariance import autocov_set
from sobikit.joint_diag import amuse, sobi_deflation
from sobikit.metrics import amari, efficiency_sweep, mdi
from sobikit.presets import benchmark_model
from sobikit.signal_model import expand_to_ma, simulate_sources


def brute_force_mdi(g):
    # minimize over all permutations with the analytic per-row scale
    p = g.shape[0]
    w = g**2 / (g**2).sum(axis=1, keepdims=True)
    best = max(sum(w[i, pi[i]] for i in range(p))
               for pi in itertools.permutations(range(p)))
    return np.sqrt((p - best) / (p - 1))


def assignment_mdi(g):
    # the Hungarian assignment that mdi solved before it enumerated permutations
    p = g.shape[0]
    w = g**2 / (g**2).sum(axis=1)[:, None]
    matched = float(w[linear_sum_assignment(w, maximize=True)].sum())
    return float(np.sqrt(max(p - matched, 0.0) / (p - 1)))


def random_c_matrix(p, rng):
    perm = rng.permutation(p)
    c = np.zeros((p, p))
    c[np.arange(p), perm] = rng.choice([-1.0, 1.0], p) * rng.uniform(0.2, 4.0, p)
    return c


def test_identity_scores_zero():
    assert mdi(np.eye(3)) == 0.0
    assert amari(np.eye(3)) == 0.0


def test_mdi_hand_example():
    g = np.array([[1.0, 0.1], [0.0, 1.0]])
    np.testing.assert_allclose(mdi(g), np.sqrt(0.01 / 1.01), atol=1e-12)


def test_amari_hand_example():
    assert amari(np.array([[1.0, 1.0], [0.0, 1.0]])) == 1.0


def test_single_component_is_zero():
    assert mdi(np.array([[3.7]])) == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_mdi_bounds_and_brute_force(seed, p):
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2, 2, size=(p, p)) + 3 * np.eye(p)
    val = mdi(g)
    assert 0.0 <= val <= 1.0
    np.testing.assert_allclose(val, brute_force_mdi(g), atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mdi_invariant_to_c_class(seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2, 2, size=(4, 4)) + 3 * np.eye(4)
    c = random_c_matrix(4, rng)
    assert abs(mdi(c @ g) - mdi(g)) < 1e-12


def test_mdi_zero_iff_c_class():
    rng = np.random.default_rng(7)
    c = random_c_matrix(4, rng)
    assert mdi(c) < 1e-15
    assert amari(c) < 1e-12
    g = c.copy()
    g[0, 1] += 0.5
    assert mdi(g) > 1e-3
    assert amari(g) > 1e-3


def test_amari_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = rng.uniform(-2, 2, size=(3, 3)) + 2 * np.eye(3)
        assert amari(g) >= 0.0


def test_amari_changes_under_row_rescaling():
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    rescaled = np.diag([5.0, 1.0]) @ g
    assert abs(amari(rescaled) - amari(g)) > 0.1
    # mdi, by contrast, ignores the rescaling
    assert abs(mdi(rescaled) - mdi(g)) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_mdi_stack_equals_the_assignment_value(p):
    # enumerated for p <= 5, Hungarian above; both bit-equal to the
    # linear_sum_assignment value, as a stack and one matrix at a time
    rng = np.random.default_rng(p)
    g = np.concatenate([rng.standard_normal((40, p, p)),
                        rng.standard_normal((10, p, p)) + 3 * np.eye(p),
                        np.ones((1, p, p))])  # every assignment ties
    expected = [assignment_mdi(x) for x in g]
    assert mdi(g).tolist() == expected
    assert [mdi(x) for x in g] == expected
    assert expected[-1] == 1.0


@pytest.mark.parametrize("p", [1, 3, 5, 6])
def test_mdi_stack_equals_each_matrix_alone(p):
    # p = 3 and 5 enumerate the assignments, p = 6 takes the Hungarian path
    rng = np.random.default_rng(10 + p)
    g = rng.standard_normal((25, p, p)) + 2 * np.eye(p)
    alone = [mdi(x) for x in g]
    stacked = mdi(g)
    assert all(type(v) is float for v in alone)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (25,)
    assert stacked.tolist() == alone


def test_validation_errors():
    with pytest.raises(ValueError, match="square"):
        mdi(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        mdi(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="rank deficient"):
        mdi(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        mdi(np.ones((4, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        mdi(np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="finite"):
        mdi(np.stack([np.eye(2), [[np.inf, 1.0], [1.0, 1.0]]]))
    with pytest.raises(ValueError, match="rank deficient"):
        mdi(np.stack([np.eye(2), [[0.0, 0.0], [1.0, 1.0]]]))
    with pytest.raises(ValueError):
        amari(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        amari(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        amari(np.ones((2, 3)))


def test_expected_limit_of_model_c_symmetric():
    exps = [expand_to_ma(s) for s in benchmark_model("c")]
    model = build_model(exps, range(1, 11))
    assert abs(global_criterion(asv(model, "symmetric")) - 9.4) < 0.05


def test_efficiency_sweep_follows_the_public_chain():
    # per-method options reach their kernel; 5 reps at jobs 2 are two blocks
    specs, lags, seed = benchmark_model("d"), (2, 1, 3), 9
    out = efficiency_sweep(specs, lags, [250, 150], ["deflation", "amuse"], 5, seed=seed,
                           jobs=2, options={"deflation": {"restarts": 2}, "amuse": {"tau": 3}})
    assert list(out) == [250, 150] and all(list(row) == ["deflation", "amuse"]
                                           for row in out.values())
    for T, row in out.items():
        for rep in range(5):
            acs = autocov_set(simulate_sources(specs, T, (seed, rep)), lags, centered=True)
            fits = {"deflation": sobi_deflation(acs, restarts=2, seed=(seed, rep, 1)),
                    "amuse": amuse(acs, 3)}
            for method, fit in fits.items():
                assert row[method][rep] == T * 2 * mdi(fit.gamma) ** 2


@pytest.mark.parametrize("change, message", [
    ({"reps": 0}, "reps must be at least 1"),
    ({"jobs": 0}, "jobs must be at least 1"),
    ({"t_values": [300, 1]}, "T must be at least 2"),
    ({"t_values": [300, 200, 300]}, "t_values: an entry is repeated"),
    ({"methods": ["amuse", "sobi"]}, "methods: 'sobi' is not one of amuse, deflation, "
                                     "symmetric-fixedpoint, symmetric-jacobi"),
    ({"methods": ["amuse", "amuse"]}, "methods: an entry is repeated"),
    ({"t_values": [300, 12], "lags": range(1, 12)}, "lag out of range"),
    ({"lags": []}, "nothing to diagonalize: the lag set is empty"),
    ({"t_values": []}, "t_values: the list is empty"),
    ({"options": {"deflation": {}}}, "options: 'deflation' names no method in methods"),
    ({"methods": ["symmetric-jacobi"], "options": {"symmetric-jacobi": {"max_sweeps": 3}}},
     "options: symmetric-jacobi takes no 'max_sweeps'"),
    ({"methods": []}, "methods: the list is empty"),
])
def test_efficiency_sweep_refuses_before_any_draw(monkeypatch, change, message):
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: drawn.append(a))
    call = dict(specs=benchmark_model("a"), lags=range(1, 4), t_values=[300],
                methods=["amuse"], reps=2) | change
    with pytest.raises(ValueError) as info:
        efficiency_sweep(**call)
    assert str(info.value) == message
    assert drawn == []
