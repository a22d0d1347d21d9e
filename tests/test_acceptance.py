"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each criterion is asserted exactly as specified, including the two pinned
reference values for the sparse-AR model ("b") that the implementation's own
exact evaluation and direct Monte Carlo both place elsewhere (global criteria
near 47.2 and 7.2 rather than 31.8 and 10.6).  Those assertions are expected
to fail; see the repository README for the numerical evidence.
"""

import itertools
import time

import numpy as np
import pytest

from sobikit import cli
from sobikit.asymptotics import asv, build_model, empirical_asv
from sobikit.autocovariance import AutocovSet, autocov_set
from sobikit.joint_diag import (
    amuse,
    sobi_deflation,
    sobi_symmetric_fixedpoint,
    sobi_symmetric_jacobi,
)
from sobikit.metrics import mdi
from sobikit.presets import benchmark_model
from sobikit.signal_model import SourceSpec, expand_to_ma, simulate_sources

LAGS = tuple(range(1, 11))

PINNED_GLOBALS = {
    ("a", "deflation"): 46.5, ("b", "deflation"): 31.8,
    ("c", "deflation"): 11.0, ("d", "deflation"): 61.6,
    ("a", "symmetric"): 24.1, ("b", "symmetric"): 10.6,
    ("c", "symmetric"): 9.4, ("d", "symmetric"): 75.1,
}


@pytest.fixture(scope="module")
def computed_globals(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("asv")
    values = {}
    start = time.perf_counter()
    for name in "abcd":
        out = out_dir / f"{name}.csv"
        assert cli.main(["asv", "--preset", name, "--lags", "1-10",
                         "--output", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            parts = line.split(",")
            if parts[1] == "global":
                values[(name, parts[0])] = float(parts[3])
    values["elapsed"] = time.perf_counter() - start
    return values


@pytest.mark.parametrize("name,method", sorted(PINNED_GLOBALS))
def test_criterion_01_global_criterion_values(computed_globals, name, method):
    assert computed_globals["elapsed"] < 10.0
    got = computed_globals[(name, method)]
    target = PINNED_GLOBALS[(name, method)]
    assert abs(got - target) <= 0.1, (
        f"model ({name}) {method}: computed {got:.3f}, pinned {target}")


def test_criterion_02_efficiency_trend(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["benchmark", "--preset", "b", "--lags", "1-10",
                     "--reps", "1000", "--T-values", "1000,4000,16000",
                     "--methods", "deflation,symmetric-jacobi",
                     "--seed", "0", "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    avg = {(int(r[0]), r[1]): float(r[3]) for r in rows}
    sym = [avg[(T, "symmetric-jacobi")] for T in (1000, 4000, 16000)]
    defl = [avg[(T, "deflation")] for T in (1000, 4000, 16000)]
    print(f"symmetric averages: {sym}")
    print(f"deflation averages: {defl}")
    assert sym[0] > sym[1] > sym[2], f"symmetric not decreasing: {sym}"
    assert 0.9 * 10.6 <= sym[2] <= 1.5 * 10.6, (
        f"symmetric at T=16000: {sym[2]:.2f} outside [0.9, 1.5] x 10.6")
    assert defl[0] > defl[1] > defl[2], f"deflation not decreasing: {defl}"
    assert 0.9 * 31.8 <= defl[2] <= 1.5 * 31.8, (
        f"deflation at T=16000: {defl[2]:.2f} outside [0.9, 1.5] x 31.8")


def test_criterion_03_exact_recovery():
    rng = np.random.default_rng(3)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    o = q * np.sign(np.diag(r))
    diags = np.array([[0.9, 0.6, 0.3, 0.1], [0.5, -0.4, 0.2, -0.1]])
    acs = AutocovSet(s0=np.eye(4), sk=np.stack([o @ np.diag(d) @ o.T for d in diags]),
                     lags=(1, 2))
    for res in (amuse(acs, 1), sobi_deflation(acs),
                sobi_symmetric_fixedpoint(acs), sobi_symmetric_jacobi(acs)):
        assert mdi(res.gamma @ o) < 1e-8, res.method


def test_criterion_04_estimating_residuals():
    for name, seed in itertools.product("abcd", (0, 1)):
        z = simulate_sources(benchmark_model(name), T=2000, seed=seed)
        acs = autocov_set(z, LAGS)
        for solver in (sobi_deflation, sobi_symmetric_fixedpoint,
                       sobi_symmetric_jacobi):
            res = solver(acs)
            assert res.converged, (name, seed, res.method)
            assert res.residual < 1e-8, (name, seed, res.method, res.residual)


def test_criterion_05_fixedpoint_jacobi_agreement():
    agree = 0
    for i, name in enumerate("abcd" * 25):
        z = simulate_sources(benchmark_model(name), T=1000, seed=1000 + i)
        acs = autocov_set(z, LAGS)
        fp = sobi_symmetric_fixedpoint(acs)
        jc = sobi_symmetric_jacobi(acs)
        if mdi(fp.gamma @ np.linalg.inv(jc.gamma)) < 1e-6:
            agree += 1
    assert agree >= 99, f"agreement in {agree}/100 datasets"


def test_criterion_06_white_noise_covariance_oracle():
    T, reps = 20000, 2000
    rng = np.random.default_rng(6)
    s11 = np.empty(reps)
    s12 = np.empty(reps)
    for r in range(reps):
        s0 = autocov_set(rng.standard_normal((2, T)), ()).s0
        s11[r] = s0[0, 0]
        s12[r] = s0[0, 1]
    var11 = T * s11.var()
    var12 = T * s12.var()
    assert abs(var11 - 2.0) < 0.2, var11
    assert abs(var12 - 1.0) < 0.1, var12


def test_criterion_07_unmixing_variance_oracle():
    specs = [SourceSpec("ar", ar=(0.6,)), SourceSpec("ar", ar=(0.4,))]
    exps = [expand_to_ma(s) for s in specs]
    exact = asv(build_model(exps, LAGS), "symmetric").per_element[1, 0]
    T, reps = 20000, 2000
    entries = np.empty(reps)
    for r in range(reps):
        z = simulate_sources(specs, T, seed=(7, r))
        res = sobi_symmetric_jacobi(autocov_set(z, LAGS))
        entries[r] = res.gamma[1, 0]
    var = T * entries.var()
    assert abs(var - exact) < 0.15 * exact, (var, exact)


def test_criterion_08_mdi_matches_enumeration():
    rng = np.random.default_rng(8)
    for i in range(1000):
        p = 2 + i % 4
        g = rng.uniform(-2.0, 2.0, size=(p, p)) + 3.0 * np.eye(p)
        w = g**2 / (g**2).sum(axis=1, keepdims=True)
        best = max(sum(w[r, pi[r]] for r in range(p))
                   for pi in itertools.permutations(range(p)))
        brute = np.sqrt((p - best) / (p - 1))
        assert abs(mdi(g) - brute) < 1e-12
        perm = rng.permutation(p)
        c = np.zeros((p, p))
        c[np.arange(p), perm] = rng.choice([-1.0, 1.0], p) * rng.uniform(
            0.2, 4.0, p)
        assert abs(mdi(c @ g) - mdi(g)) < 1e-12


def test_criterion_09_affine_equivariance():
    z = simulate_sources(benchmark_model("c"), T=2000, seed=9)
    acs = autocov_set(z, LAGS)
    base = {"deflation": sobi_deflation(acs),
            "symmetric": sobi_symmetric_jacobi(acs)}
    rng = np.random.default_rng(90)
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, size=(3, 3)) + 3.0 * np.eye(3)
        acs_a = autocov_set(a @ z, LAGS)
        for label, fit in (("deflation", sobi_deflation),
                           ("symmetric", sobi_symmetric_jacobi)):
            gain = fit(acs_a).gamma @ a @ np.linalg.inv(base[label].gamma)
            assert mdi(gain) < 1e-6, label


def test_criterion_10_empirical_asv_plugin():
    z = simulate_sources(benchmark_model("d"), T=10**5, seed=10)
    acs = autocov_set(z, LAGS)
    res = sobi_symmetric_jacobi(acs)
    emp = empirical_asv(z, res, LAGS).per_element
    exps = [expand_to_ma(s) for s in benchmark_model("d")]
    exact = asv(build_model(exps, LAGS), "symmetric").per_element
    off = ~np.eye(3, dtype=bool)
    rel = np.abs(emp[off] - exact[off]) / exact[off]
    assert np.max(rel) < 0.10, rel
