import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sobikit
from sobikit import asymptotics, cli, metrics
from sobikit.asymptotics import asv, global_criterion
from sobikit.autocovariance import AutocovSet, autocorrelations, autocov_set, whitener
from sobikit.cli import _parse_lags, _read_series, main
from sobikit.joint_diag import (
    _KERNELS,
    BlockFit,
    amuse,
    sobi_deflation,
    sobi_symmetric_fixedpoint,
    sobi_symmetric_jacobi,
)
from sobikit.metrics import mdi
from sobikit.presets import benchmark_model, lag_preset
from sobikit.signal_model import SourceSpec, _plan_sources, expand_to_ma, simulate_sources


def write_model(path, components, omega=None, mu=None):
    doc = {"components": components}
    if omega is not None:
        doc["omega"] = omega
    if mu is not None:
        doc["mu"] = mu
    path.write_text(json.dumps(doc))
    return str(path)


AR_TRIPLE = [{"kind": "ar", "ar": [0.6]}, {"kind": "ar", "ar": [0.4]},
             {"kind": "ar", "ar": [0.2]}]


def test_parse_lags_forms():
    assert _parse_lags("1-10") == tuple(range(1, 11))
    assert _parse_lags("1-10,12-20/2,25") == tuple(range(1, 11)) + tuple(
        range(12, 21, 2)) + (25,)
    assert _parse_lags("3") == (3,)
    assert _parse_lags("preset2") == lag_preset("preset2")
    with pytest.raises(ValueError, match="unknown lag preset 'preset9'"):
        lag_preset("preset9")


def test_simulate_deterministic_and_round_trip(tmp_path):
    model = write_model(tmp_path / "m.json", AR_TRIPLE)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--model", model, "--T", "400", "--seed", "9",
                 "--output", out1]) == 0
    assert main(["simulate", "--model", model, "--T", "400", "--seed", "9",
                 "--output", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    # parsed matrix identical bit-for-bit to the in-process simulation
    specs = [SourceSpec.from_dict(c) for c in AR_TRIPLE]
    z = simulate_sources(specs, 400, 9)
    np.testing.assert_array_equal(_read_series(out1), z)


def test_simulate_identity_mixing_is_noop(tmp_path):
    plain = write_model(tmp_path / "p.json", AR_TRIPLE)
    mixed = write_model(tmp_path / "i.json", AR_TRIPLE,
                        omega=np.eye(3).tolist(), mu=[0.0, 0.0, 0.0])
    out1, out2 = str(tmp_path / "plain.csv"), str(tmp_path / "mix.csv")
    assert main(["simulate", "--model", plain, "--T", "300", "--seed", "1",
                 "--output", out1]) == 0
    assert main(["simulate", "--model", mixed, "--T", "300", "--seed", "1",
                 "--mix", "--output", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_simulate_applies_mixing_and_location(tmp_path):
    omega = [[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [-0.4, 0.0, 1.0]]
    mu = [1.0, -2.0, 0.5]
    model = write_model(tmp_path / "m.json", AR_TRIPLE, omega=omega, mu=mu)
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--model", model, "--T", "250", "--seed", "2",
                 "--mix", "--output", out, "--header"]) == 0
    specs = [SourceSpec.from_dict(c) for c in AR_TRIPLE]
    z = simulate_sources(specs, 250, 2)
    expected = np.asarray(omega) @ z + np.asarray(mu)[:, None]
    np.testing.assert_array_equal(_read_series(out), expected)


def test_simulate_with_preset(tmp_path):
    out = str(tmp_path / "z.csv")
    assert main(["simulate", "--preset", "b", "--T", "200", "--seed", "3",
                 "--output", out]) == 0
    assert _read_series(out).shape == (3, 200)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    model = write_model(root / "m.json", AR_TRIPLE)
    path = str(root / "x.csv")
    main(["simulate", "--model", model, "--T", "8000", "--seed", "17",
          "--output", path])
    return path


def test_cli_import_leaves_scipy_signal_and_optimize_unloaded():
    # they are most of a cold start; only filtering and mdi at p > 5 import them
    code = ("import sys, sobikit.cli; "
            "print([m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(sobikit.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def test_read_series_rows_are_contiguous(dataset):
    # loadtxt reads rows = time points; its transpose would be strided
    x = _read_series(dataset)
    assert x.shape == (3, 8000) and x.flags.c_contiguous


def test_results_do_not_depend_on_the_memory_layout():
    # numpy sums a contiguous row pairwise and a strided one sequentially, so
    # every entry point must see the series on C-contiguous rows
    x = simulate_sources(benchmark_model("c"), 2000, 4)
    lags = (1, 2, 3, 5, 8)
    args = cli.build_parser().parse_args(["lagselect", "--data", "x.csv", "--lag-sets", "1;2"])

    def outputs(series):
        acs = autocov_set(series, lags, centered=True)
        fits = [cli._fit(acs, name, args) for name in _KERNELS]
        tables = [asymptotics.empirical_asv(series, fit, lags).per_element
                  for fit in fits if fit.method != "amuse"]  # amuse takes one lag
        return [acs.s0, acs.sk, *(f.gamma for f in fits), *tables]

    want = outputs(x)
    for view in (np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2],
                 np.flip(np.flip(x, axis=1).copy(), axis=1)):
        assert not view.flags.c_contiguous
        for got, expected in zip(outputs(view), want, strict=True):
            np.testing.assert_array_equal(got, expected)


def test_separate_report_fields(dataset, tmp_path, capsys):
    out = str(tmp_path / "sep")
    assert main(["separate", "--data", dataset, "--lags", "1-10",
                 "--method", "symmetric-jacobi", "--output", out]) == 0
    report = json.loads((tmp_path / "sep.json").read_text())
    for key in ("gamma", "method", "iterations", "converged", "residual",
                "objective", "warnings"):
        assert key in report
    assert report["converged"] is True
    assert report["residual"] < 1e-8
    sources = _read_series(out + ".csv")
    assert sources.shape == (3, 8000)
    assert "converged=True" in capsys.readouterr().out


def test_separate_diagonal_mixture_sanity(dataset, tmp_path):
    # separating once and rescaling the recovered sources plants an exactly
    # known diagonal mixture; the reported distance must be numerically zero
    first = str(tmp_path / "first")
    assert main(["separate", "--data", dataset, "--lags", "1-10",
                 "--method", "symmetric-jacobi", "--output", first]) == 0
    z = _read_series(first + ".csv")
    d = np.diag([2.0, 0.5, 1.5])
    np.savetxt(tmp_path / "scaled.csv", (d @ z).T, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "omega.csv", d, delimiter=",", fmt="%.17g")
    out = str(tmp_path / "second")
    assert main(["separate", "--data", str(tmp_path / "scaled.csv"),
                 "--lags", "1-10", "--method", "symmetric-jacobi",
                 "--omega", str(tmp_path / "omega.csv"),
                 "--output", out]) == 0
    report = json.loads((tmp_path / "second.json").read_text())
    assert report["mdi"] < 1e-6
    assert report["amari"] < 1e-4


def test_separate_solvers_agree(dataset, tmp_path):
    gammas = {}
    for method in ("symmetric-fixedpoint", "symmetric-jacobi"):
        out = str(tmp_path / method)
        assert main(["separate", "--data", dataset, "--lags", "1-10",
                     "--method", method, "--output", out]) == 0
        gammas[method] = np.array(
            json.loads((tmp_path / (method + ".json")).read_text())["gamma"])
    gain = gammas["symmetric-fixedpoint"] @ np.linalg.inv(
        gammas["symmetric-jacobi"])
    assert mdi(gain) < 1e-6


def test_separate_non_convergent_flagged(dataset, tmp_path):
    out = str(tmp_path / "short")
    assert main(["separate", "--data", dataset, "--lags", "1-10",
                 "--method", "symmetric-fixedpoint", "--max-iter", "1",
                 "--output", out]) == 0
    assert json.loads((tmp_path / "short.json").read_text())["converged"] is False


def test_separate_amuse_tau(dataset, tmp_path):
    out = str(tmp_path / "amuse")
    assert main(["separate", "--data", dataset, "--lags", "1-5",
                 "--method", "amuse", "--tau", "2", "--output", out]) == 0
    assert json.loads((tmp_path / "amuse.json").read_text())["method"] == "amuse"


def test_separate_amuse_reports_an_eigenvalue_tie(tmp_path):
    # three sources on disjoint stretches of time, the first two equal: the
    # uncentred S_0 and S_1 are diagonal, and R_1 has a tied pair of eigenvalues
    a, c = simulate_sources([SourceSpec("ar", ar=(0.5,)), SourceSpec("ar", ar=(-0.3,))],
                            400, 0)
    x = np.zeros((3, 3 * 420))
    for i, s in enumerate((a, a, c)):
        x[i, 420 * i + 10: 420 * i + 410] = s
    data = tmp_path / "tie.csv"
    np.savetxt(data, x.T, delimiter=",", fmt="%.17g")
    with pytest.warns(RuntimeWarning, match="eigenvalue tie"):
        code = main(["separate", "--data", str(data), "--lags", "1", "--method", "amuse",
                     "--no-center", "--output", str(tmp_path / "sep")])
    assert code == 0
    assert json.loads((tmp_path / "sep.json").read_text())["warnings"] == ["eigenvalue tie"]


def test_asv_single_lag_finite(tmp_path, capsys):
    out = str(tmp_path / "asv.csv")
    assert main(["asv", "--preset", "d", "--lags", "1", "--output", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = {ln.split(",")[0]: float(ln.split(",")[2]) for ln in lines}
    assert np.isfinite(values["deflation"]) and values["deflation"] > 0
    assert np.isfinite(values["symmetric"]) and values["symmetric"] > 0
    rows = [ln for ln in Path(out).read_text().splitlines()[1:] if ln]
    # p = 3 per-element entries plus one global line per method
    assert len(rows) == 2 * (9 + 1)


def test_asv_white_noise_errors(tmp_path, capsys):
    model = write_model(tmp_path / "w.json", [{"kind": "psi", "psi": [1.0]}])
    assert main(["asv", "--model", model, "--lags", "1-10"]) == 1
    assert "identifiability failure" in capsys.readouterr().err


def test_asv_requires_one_model_source(tmp_path, capsys):
    model = write_model(tmp_path / "m.json", AR_TRIPLE)
    assert main(["asv", "--lags", "1-10"]) == 1
    assert main(["asv", "--model", model, "--preset", "a",
                 "--lags", "1-10"]) == 1
    assert main(["asv", "--preset", "nope", "--lags", "1-10"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


MALFORMED_MODELS = {
    "no-components": {"comps": []},
    "no-kind": {"components": [{"ar": [0.5]}]},
    "list": [1, 2],
    "components-number": {"components": 5},
    "component-null": {"components": [None]},
    "ar-number": {"components": [{"kind": "ar", "ar": 5}]},
    "ar-nested": {"components": [{"kind": "ar", "ar": [[1]]}]},
    "psi-number": {"components": [{"kind": "psi", "psi": 3}]},
}


MODEL_COMMANDS = {"simulate": ["--T", "100"],
                  "asv": ["--lags", "1"],
                  "benchmark": ["--lags", "1", "--T-values", "300", "--reps", "1"]}


@pytest.mark.parametrize("command", MODEL_COMMANDS)
@pytest.mark.parametrize("doc", MALFORMED_MODELS)
def test_malformed_model_is_one_error_line(tmp_path, doc, command, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(MALFORMED_MODELS[doc]))
    argv = [command, "--model", str(model), *MODEL_COMMANDS[command],
            "--output", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: malformed model ")


NAN, INF = float("nan"), float("inf")
AR_HALF = {"kind": "ar", "ar": [0.5]}
UNUSABLE_COEFFICIENTS = {
    "ma-nan": ([{"kind": "ma", "ma": [NAN]}, AR_HALF], "ma coefficients must be finite"),
    "ar-inf": ([{"kind": "ar", "ar": [INF]}, AR_HALF], "ar coefficients must be finite"),
    "arma-ar-nan": ([{"kind": "arma", "ar": [NAN], "ma": [0.5]}, AR_HALF],
                    "ar coefficients must be finite"),
    "arma-ma-minus-inf": ([{"kind": "arma", "ar": [0.5], "ma": [-INF]}, AR_HALF],
                          "ma coefficients must be finite"),
    "ma-overflow": ([{"kind": "ma", "ma": [1e200]}, AR_HALF], "psi weights overflow"),
    "arma-overflow": ([{"kind": "arma", "ar": [0.9], "ma": [1e308, 1e308]}, AR_HALF],
                      "psi weights overflow"),
    "psi-underflow": ([{"kind": "psi", "psi": [1e-200]}, AR_HALF], "psi weights underflow"),
    "psi-subnormal": ([{"kind": "psi", "psi": [1e-160, 1e-161]}, AR_HALF],
                      "psi weights underflow"),
    "ma-with-ar": ([{"kind": "ma", "ar": [0.5], "ma": [0.3]}, AR_HALF],
                   "kind 'ma' takes no ar coefficients"),
    "ar-with-ma": ([{"kind": "ar", "ar": [0.5], "ma": [0.3]}, AR_HALF],
                   "kind 'ar' takes no ma coefficients"),
    "psi-with-ar": ([{"kind": "psi", "psi": [1.0], "ar": [0.5]}, AR_HALF],
                    "kind 'psi' takes no ar coefficients"),
}


@pytest.mark.parametrize("command", MODEL_COMMANDS)
@pytest.mark.parametrize("doc", UNUSABLE_COEFFICIENTS)
def test_unusable_coefficients_are_one_error_line(tmp_path, doc, command, capsys):
    components, message = UNUSABLE_COEFFICIENTS[doc]
    model = write_model(tmp_path / "m.json", components)  # NaN and Infinity literals
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--model", model, *MODEL_COMMANDS[command],
                     "--output", str(tmp_path / "out.csv")])
    assert code == 1 and caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=10)
# mostly well-formed components, so that the numerical layers are reached too
COEFFICIENTS = st.lists(st.floats(-1, 1) | st.floats() | st.integers(), max_size=3) | JSON
COMPONENT = st.fixed_dictionaries({"kind": st.sampled_from(["ar", "ma", "arma", "psi"])},
                                  optional={"ar": COEFFICIENTS, "ma": COEFFICIENTS,
                                            "psi": COEFFICIENTS}) | JSON


@given(doc=JSON | st.fixed_dictionaries({"components": st.lists(COMPONENT, max_size=3) | JSON},
                                        optional={"omega": JSON, "mu": JSON}))
@settings(max_examples=100, deadline=None)
def test_asv_model_fuzz_exits_cleanly(tmp_path_factory, doc):
    model = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
    model.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["asv", "--model", str(model), "--lags", "1"])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:")


def test_benchmark_single_replication(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    assert main(["benchmark", "--preset", "d", "--lags", "1-10",
                 "--reps", "1", "--T-values", "400",
                 "--methods", "symmetric-jacobi", "--output", out]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    t, method, reps, avg, expected = line.split(",")
    assert (t, method, reps) == ("400", "symmetric-jacobi", "1")
    assert float(avg) >= 0.0
    assert abs(float(expected) - 75.1) < 0.05


def test_benchmark_deterministic_and_jobs_invariant(tmp_path, capsys):
    args = ["benchmark", "--preset", "d", "--lags", "1-10", "--reps", "4",
            "--T-values", "300,600", "--methods", "deflation,symmetric-jacobi",
            "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    for jobs in ("2", "3"):
        assert main(args + ["--jobs", jobs]) == 0
        assert capsys.readouterr().out == first


SOLVER_OPTIONS_OUT_OF_RANGE = [("--max-iter", "0"), ("--restarts", "-2"), ("--tol", "0"),
                               ("--tol", "nan")]


@pytest.mark.parametrize("option", [("--reps", "0"), ("--jobs", "0"),
                                    ("--jobs", "-3"), *SOLVER_OPTIONS_OUT_OF_RANGE,
                                    ("--T-values", "300,300"),
                                    ("--methods", "deflation,deflation")])
def test_benchmark_rejects_nonpositive_counts(option, capsys):
    assert main(["benchmark", "--preset", "d", "--lags", "1-10",
                 "--reps", "1", "--T-values", "300",
                 "--methods", "symmetric-jacobi", *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("methods", ["symetric-jacobi"])
def test_benchmark_rejects_unknown_methods(methods, capsys):
    assert main(["benchmark", "--preset", "d", "--lags", "1-10",
                 "--reps", "1", "--T-values", "300", "--methods", methods]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_benchmark_amuse_on_many_lags_has_no_exact_asv(capsys):
    # AMUSE's ASV is the one-lag table; on ten lags it runs with no expected value
    assert main(["benchmark", "--preset", "d", "--lags", "1-10",
                 "--reps", "1", "--T-values", "300", "--methods", "amuse"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("300,amuse,1,")
    assert captured.out.strip().endswith(",nan")
    (warning,) = captured.err.splitlines()
    assert warning.startswith("warning: amuse: no exact ASV (") and warning.endswith(")")
    assert "tau" in warning


def test_every_method_has_a_kernel_and_a_one_lag_asv():
    # --methods is checked against the same table that --method takes as choices
    parser = cli.build_parser()
    for argv in (["separate", "--data", "x.csv", "--lags", "1", "--output", "o"],
                 ["lagselect", "--data", "x.csv", "--lag-sets", "1;2"]):
        for name in _KERNELS:
            assert parser.parse_args(argv + ["--method", name]).method == name
    args = parser.parse_args(["benchmark", "--preset", "d", "--lags", "1",
                              "--T-values", "300"])
    lags, reps = (3, 1, 2), range(4, 6)
    acs = [autocov_set(simulate_sources(benchmark_model("d"), 600, rep), lags) for rep in reps]
    R = np.stack([autocorrelations(a) for a in acs])
    model = asymptotics.build_model([expand_to_ma(s) for s in benchmark_model("d")], (1,))
    rngs = [np.random.default_rng((args.seed, rep, 1)) for rep in reps]
    fits = {name: _KERNELS[name](R, lags, rngs, **cli._kernel_options(args, name))
            for name in _KERNELS}
    for name, fit in fits.items():
        assert isinstance(fit, BlockFit) and fit.u.shape == (2, 3, 3)
        assert np.all(fit.converged)
        assert np.isfinite(global_criterion(asv(model, name)))
    # the smallest lag, 1, is the one amuse diagonalizes, though it is listed second
    for b, a in enumerate(acs):
        np.testing.assert_array_equal(fits["amuse"].u[b], amuse(a, 1).u)


@pytest.mark.parametrize("preset", ["c", "d"])
def test_benchmark_amuse_average_meets_its_exact_limit(preset):
    # seed fixed in advance at the CLI default; 1000 reps at T = 4000, and
    # the mean must lie within 4 standard errors of the one-lag limit
    specs = benchmark_model(preset)
    args = cli.build_parser().parse_args(["benchmark", "--preset", preset, "--lags", "1",
                                          "--T-values", "4000"])
    vals = metrics.efficiency_sweep(specs, (1,), [4000], ["amuse"], 1000, seed=args.seed)
    vals = np.asarray(vals[4000]["amuse"])
    exact = global_criterion(asv(asymptotics.build_model([expand_to_ma(s) for s in specs],
                                                         (1,)), "amuse"))
    assert abs(vals.mean() - exact) < 4 * vals.std(ddof=1) / np.sqrt(vals.size)


def test_benchmark_averages_follow_the_public_chain(capsys):
    # 300 reps take two rep blocks; each average must equal, bit for bit,
    # the mean over reps of the documented per-rep chain and seeds
    seed, T, reps = 11, 300, 300
    assert main(["benchmark", "--preset", "b", "--lags", "1-10",
                 "--reps", str(reps), "--T-values", str(T),
                 "--methods", "deflation,symmetric-jacobi,amuse",
                 "--seed", str(seed)]) == 0
    printed = {line.split(",")[1]: float(line.split(",")[3])
               for line in capsys.readouterr().out.strip().splitlines()}
    specs = benchmark_model("b")
    vals = {"deflation": [], "symmetric-jacobi": [], "amuse": []}
    for rep in range(reps):
        acs = autocov_set(simulate_sources(specs, T, (seed, rep)), range(1, 11),
                          centered=True)
        fits = {"deflation": sobi_deflation(acs, seed=(seed, rep, 1)),
                "symmetric-jacobi": sobi_symmetric_jacobi(acs),
                "amuse": amuse(acs, 1)}
        for method, res in fits.items():
            vals[method].append(T * 2 * mdi(res.gamma) ** 2)
    assert printed == {m: float(np.mean(v)) for m, v in vals.items()}


@pytest.mark.parametrize("option", SOLVER_OPTIONS_OUT_OF_RANGE)
def test_separate_rejects_solver_options_out_of_range(dataset, tmp_path, option, capsys):
    assert main(["separate", "--data", dataset, "--lags", "1-10",
                 "--output", str(tmp_path / "sep"), *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "sep.json").exists()


@pytest.mark.parametrize("option", SOLVER_OPTIONS_OUT_OF_RANGE)
def test_lagselect_rejects_solver_options_no_method_reads(dataset, option, capsys):
    # amuse takes none of the iteration controls, and a bad one is still refused
    assert main(["lagselect", "--data", dataset, "--lag-sets", "1;2",
                 "--method", "amuse", *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_separate_max_iter_reaches_jacobi(tmp_path, capsys):
    # the series of test_jacobi_reports_sweep_exhaustion, fit by the default method
    data = str(tmp_path / "c.csv")
    assert main(["simulate", "--preset", "c", "--T", "800", "--seed", "35",
                 "--output", data]) == 0
    assert main(["separate", "--data", data, "--lags", "1-10", "--max-iter", "1",
                 "--output", str(tmp_path / "sep")]) == 0
    assert capsys.readouterr().out.startswith("symmetric-jacobi: converged=False ")
    report = json.loads((tmp_path / "sep.json").read_text())
    assert (report["converged"], report["iterations"]) == (False, 1)


def test_benchmark_solver_flags_reach_every_method_that_takes_them(capsys):
    methods = ["deflation", "symmetric-jacobi"]
    assert main(["benchmark", "--preset", "d", "--lags", "1-10", "--reps", "3",
                 "--T-values", "300", "--methods", ",".join(methods),
                 "--tol", "1e-8", "--max-iter", "50"]) == 0
    printed = {line.split(",")[1]: float(line.split(",")[3])
               for line in capsys.readouterr().out.strip().splitlines()}
    vals = metrics.efficiency_sweep(benchmark_model("d"), range(1, 11), [300], methods, 3,
                                    options={m: {"tol": 1e-8, "max_iter": 50} for m in methods})
    assert printed == {m: float(np.mean(v)) for m, v in vals[300].items()}


@pytest.mark.parametrize("flag", ["--jacobi-tol=1e-12", "--max-sweeps=100"])
@pytest.mark.parametrize("command", ["separate", "lagselect", "benchmark"])
def test_removed_jacobi_flags_are_unknown(dataset, tmp_path, command, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(lag_argv(command, "1-10", dataset, tmp_path) + [flag])
    assert info.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


def lag_argv(command, lags, dataset, tmp_path):
    """The argv of a subcommand that parses ``lags`` as a lag list."""
    return {
        "asv": ["asv", "--preset", "b", "--lags", lags],
        "separate": ["separate", "--data", dataset, "--lags", lags,
                     "--output", str(tmp_path / "sep")],
        "lagselect": ["lagselect", "--data", dataset, "--lag-sets", f"1-3;{lags}"],
        "benchmark": ["benchmark", "--preset", "b", "--lags", lags, "--reps", "2",
                      "--T-values", "300"],
    }[command]


@pytest.mark.parametrize("command", ["asv", "separate", "lagselect", "benchmark"])
def test_empty_lag_list_rejected(dataset, tmp_path, command, capsys):
    assert main(lag_argv(command, ",", dataset, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: lag list ',' names no lag"]


@pytest.mark.parametrize("command", ["asv", "separate", "lagselect", "benchmark"])
@pytest.mark.parametrize("item, reason", [("3/2", "a stride needs a range, as in 1-9/2"),
                                          ("1/0", "a stride needs a range, as in 1-9/2"),
                                          ("1-9/0", "the stride must be at least 1"),
                                          ("2-8/-1", "the stride must be at least 1")])
def test_lag_stride_needs_a_range_and_a_positive_step(dataset, tmp_path, command, item,
                                                      reason, capsys):
    assert main(lag_argv(command, f"{item},5", dataset, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: lag item {item!r}: {reason}"]


@pytest.mark.parametrize("command", ["asv", "separate", "lagselect", "benchmark"])
@pytest.mark.parametrize("item, reason", [("a", "'a' is not an integer"),
                                          ("1-x", "'x' is not an integer"),
                                          ("1-3/x", "'x' is not an integer"),
                                          ("1-2-3", "'2-3' is not an integer")])
def test_unparsable_lag_item_is_named(dataset, tmp_path, command, item, reason, capsys):
    assert main(lag_argv(command, f"2,{item}", dataset, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: lag item {item!r}: {reason}"]


@pytest.mark.parametrize("option", ["--T-values", "--rows"])
def test_unparsable_integer_option_is_named(dataset, option, capsys):
    argv = {"--T-values": ["benchmark", "--preset", "b", "--lags", "1-3", "--reps", "2",
                           "--T-values", "300,a"],
            "--rows": ["lagselect", "--data", dataset, "--lag-sets", "1-3;1-5",
                       "--rows", "1,a"]}[option]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {option}: 'a' is not an integer"]


# at most five digits keep every range the text can name short enough to build
@given(st.text(st.sampled_from("0123456789-/, ab") | st.characters(), max_size=12)
       .filter(lambda s: sum(c.isdigit() for c in s) <= 5))
@settings(max_examples=300, deadline=None)
def test_parse_lags_gives_ints_or_a_value_error(spec):
    try:
        lags = _parse_lags(spec)
    except ValueError:
        return
    assert type(lags) is tuple and lags and all(type(k) is int for k in lags)


@pytest.mark.parametrize("content", ["", "x1,x2,x3\n"])
@pytest.mark.parametrize("command", ["separate", "lagselect"])
def test_empty_data_file_is_one_error_line(tmp_path, content, command, capsys):
    data = tmp_path / "empty.csv"
    data.write_text(content)
    argv = {"separate": ["separate", "--data", str(data), "--lags", "1-3",
                         "--output", str(tmp_path / "sep")],
            "lagselect": ["lagselect", "--data", str(data), "--lag-sets", "1;2"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {data} holds no data"]


@pytest.mark.parametrize("cuts", [(), (4, 11)])
def test_block_lag_matrices_match_the_public_chain(cuts):
    # reps 3..22 reduced as one range, or as three ranges of 4, 7 and 9 reps,
    # each rep drawn once for three T values; every stacked matrix must equal
    # the per-rep public chain at that T bit for bit, whatever the ranges
    specs = [SourceSpec("ar", ar=(0.6,)), SourceSpec("ma", ma=(0.5, -0.3)),
             SourceSpec("psi", psi=(1.0, 0.0, 0.4))]
    seed, t_values, lags, reps = 8, (300, 120, 500), (1, 2, 5, 9), range(3, 23)
    bounds = (0, *cuts, len(reps))
    parts = [metrics._block_lag_matrices(_plan_sources(specs), lags, t_values, reps[lo:hi], seed)
             for lo, hi in zip(bounds, bounds[1:])]
    assert all(sorted(part) == sorted(t_values) for part in parts)
    for T in t_values:
        block = AutocovSet(np.concatenate([part[T].s0 for part in parts]),
                           np.concatenate([part[T].sk for part in parts]), parts[0][T].lags)
        W = whitener(block.s0)
        R = autocorrelations(block, W)
        assert block.lags == lags and block.sk.shape == (len(reps), len(lags), 3, 3)
        for b, rep in enumerate(reps):
            acs = autocov_set(simulate_sources(specs, T, (seed, rep)), lags, centered=True)
            w = whitener(acs.s0)
            np.testing.assert_array_equal(block.s0[b], acs.s0)
            np.testing.assert_array_equal(block.sk[b], acs.sk)
            np.testing.assert_array_equal(W[b], w)
            np.testing.assert_array_equal(R[b], autocorrelations(acs, w))


@pytest.mark.parametrize("block_reps", [1, 2])
def test_benchmark_rows_do_not_depend_on_the_other_t_values(monkeypatch, capsys, block_reps):
    # each T reads a prefix of the one draw per rep, so a row is the same
    # whether its T runs alone, first or last, and whether the 5 reps are
    # solved as one range or as ranges of at most 1 or 2
    argv = ["benchmark", "--preset", "d", "--lags", "1-10", "--reps", "5", "--seed", "4",
            "--methods", "deflation,symmetric-jacobi"]
    rows = {}
    assert main(argv + ["--T-values", "300"]) == 0
    rows["one range"] = capsys.readouterr().out.strip().splitlines()
    monkeypatch.setattr(metrics, "_BLOCK_REPS", block_reps)
    for t_values in ("300,1000", "1000,300", "300", "1000"):
        assert main(argv + ["--T-values", t_values]) == 0
        rows[t_values] = capsys.readouterr().out.strip().splitlines()
    assert rows["300"] == rows["one range"]
    assert rows["300,1000"] == rows["300"] + rows["1000"]
    assert rows["1000,300"] == rows["1000"] + rows["300"]


def test_benchmark_fixedpoint_follows_the_public_chain(capsys):
    # 300 reps are solved as two blocks
    seed, T, reps = 6, 400, 300
    assert main(["benchmark", "--preset", "c", "--lags", "1-10",
                 "--reps", str(reps), "--T-values", str(T),
                 "--methods", "symmetric-fixedpoint", "--seed", str(seed)]) == 0
    printed = float(capsys.readouterr().out.split(",")[3])
    vals = [T * 2 * mdi(sobi_symmetric_fixedpoint(autocov_set(
                simulate_sources(benchmark_model("c"), T, (seed, rep)), range(1, 11),
                centered=True)).gamma) ** 2 for rep in range(reps)]
    assert printed == float(np.mean(vals))


@pytest.mark.parametrize("argv", [["--lags", "1-10", "--T-values", "5"],
                                  ["--lags", "1-10", "--T-values", "300,5", "--jobs", "2"],
                                  ["--lags", "1,1", "--T-values", "300"],
                                  ["--lags", "1-10", "--T-values", "1"]])
def test_benchmark_rejects_lags_the_series_cannot_carry(argv, capsys):
    assert main(["benchmark", "--preset", "b", "--reps", "3", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_lagselect_rejects_method_without_asv(dataset, capsys):
    assert main(["lagselect", "--data", dataset, "--lag-sets", "1-3;1-5",
                 "--method", "amuse"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_lagselect_ranks_one_lag_sets_for_amuse(dataset, capsys):
    assert main(["lagselect", "--data", dataset, "--lag-sets", "1;2;3",
                 "--method", "amuse"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert sorted(r[1] for r in rows) == ["1", "2", "3"]
    scores = [float(r[2]) for r in rows]
    assert all(np.isfinite(scores)) and scores == sorted(scores)
    # one lag: the symmetric solver fits the same matrix and scores the same
    assert main(["lagselect", "--data", dataset, "--lag-sets", "1;2;3"]) == 0
    jacobi = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    assert [r[1] for r in jacobi] == [r[1] for r in rows]
    np.testing.assert_allclose([float(r[2]) for r in jacobi], scores, rtol=1e-9)


def test_lagselect_identical_sets_tie(dataset, capsys):
    assert main(["lagselect", "--data", dataset,
                 "--lag-sets", "1-10;1-10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    sums = [float(ln.split(",")[2]) for ln in lines]
    assert sums[0] == sums[1]


def test_lagselect_needs_two_sets(dataset, capsys):
    assert main(["lagselect", "--data", dataset, "--lag-sets", "1-10"]) == 1
    assert "error:" in capsys.readouterr().err


def test_lagselect_row_subset_and_output(dataset, tmp_path, capsys):
    out = str(tmp_path / "rank.csv")
    assert main(["lagselect", "--data", dataset, "--lag-sets",
                 "1-5;1-10,12-20/2", "--rows", "1,2", "--output", out]) == 0
    capsys.readouterr()
    body = Path(out).read_text().splitlines()
    assert body[0] == "rank,lags,row_variance_sum"
    assert len(body) == 3


@pytest.mark.parametrize("rows", ["7", "0", "1,4", "1,1"])
def test_lagselect_rejects_rows_out_of_range(dataset, rows, capsys):
    assert main(["lagselect", "--data", dataset, "--lag-sets", "1-3;1-5",
                 "--rows", rows]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_lagselect_ranking_reproducible_across_seeds(tmp_path, capsys):
    model = write_model(tmp_path / "c.json", [
        {"kind": "arma", "ar": [0.3, 0.3, -0.4], "ma": [-0.6, 0.3, 1.1, 1.0, -1.1, -0.3]},
        {"kind": "arma", "ar": [0.2, 0.1, -0.4], "ma": [1.2, 2.8, -1.0, -1.0, 0.1, 0.1]},
        {"kind": "arma", "ar": [0.2, 0.2, 0.4], "ma": [-1.4, -1.9, -0.5, -0.3, -0.4, 0.4]},
    ])
    orders = []
    for seed in ("101", "202"):
        data = str(tmp_path / f"x{seed}.csv")
        assert main(["simulate", "--model", model, "--T", "100000",
                     "--seed", seed, "--output", data]) == 0
        assert main(["lagselect", "--data", data,
                     "--lag-sets", "1-10;1-20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        orders.append(tuple(ln.split(",")[1] for ln in lines))
    assert orders[0] == orders[1]


def test_missing_data_file_errors(capsys):
    assert main(["separate", "--data", "/nonexistent.csv", "--lags", "1-3",
                 "--output", "/tmp/x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_benchmark_warns_when_no_exact_asv(tmp_path, capsys):
    # two identical AR(0.5) components: neither method has a finite limit
    model = write_model(tmp_path / "twin.json", [{"kind": "ar", "ar": [0.5]}] * 2)
    assert main(["benchmark", "--model", model, "--lags", "1-3",
                 "--T-values", "500", "--reps", "3"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.strip().splitlines()]
    assert [row[:3] for row in rows] == [["500", "deflation", "3"],
                                         ["500", "symmetric-jacobi", "3"]]
    assert [row[4] for row in rows] == ["nan", "nan"]
    assert captured.err.splitlines() == [
        "warning: deflation: no exact ASV (identifiability failure)",
        "warning: symmetric-jacobi: no exact ASV (pairwise identifiability failure)",
    ]


def run_main(argv):
    """(exit code, stdout, stderr lines) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue().splitlines()


@pytest.mark.parametrize("command", ["asv", "benchmark", "lagselect"])
def test_unwritable_output_fails_before_any_work(dataset, tmp_path, command):
    # the benchmark would take seconds and print its rows before writing
    argv, failing = {
        "asv": (["asv", "--preset", "b", "--lags", "1-10"], ["--lags", "0"]),
        "benchmark": (["benchmark", "--preset", "b", "--lags", "1-10", "--T-values", "4000",
                       "--reps", "300"], ["--reps", "0"]),
        "lagselect": (["lagselect", "--data", dataset, "--lag-sets", "1-3;1-10"],
                      ["--lag-sets", "1-3"]),
    }[command]
    missing = str(tmp_path / "missing" / "x.csv")
    assert run_main(argv + ["--output", missing]) == (
        1, "", [f"error: [Errno 2] No such file or directory: {missing!r}"])
    # the check leaves neither a new file nor a changed one when a later step fails
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (new, old):
        assert run_main(argv + failing + ["--output", str(path)])[:2] == (1, "")
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_output_through_a_dangling_symlink_or_a_fifo_reaches_its_target(tmp_path):
    # the up-front check opens and creates nothing, so the one write goes where
    # the path leads: a link's missing target, or a reader that opens the FIFO late
    argv = ["asv", "--preset", "d", "--lags", "1-3", "--output"]
    plain = tmp_path / "plain.csv"
    code, stdout, err = run_main(argv + [str(plain)])
    assert (code, err) == (0, [])
    table = plain.read_text()
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    assert run_main(argv + [str(link)]) == (0, stdout, [])
    assert link.is_symlink() and target.read_text() == table

    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    env = dict(os.environ, PYTHONPATH=str(Path(sobikit.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "sobikit.cli", *argv, str(fifo)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        reader.start()  # no reader exists before the command starts
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # the command never opened the FIFO: release the reader
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert (proc.returncode, out, err) == (0, stdout, "")
    assert got == [table]


@pytest.mark.parametrize("method", ["symmetric-jacobi", "deflation"])
@pytest.mark.parametrize("kmax", [None, 150])
def test_lagselect_matches_the_per_set_chain(dataset, method, kmax):
    # every set fitted on its own autocov_set and scored on its own
    # recovered sources: the one union autocov_set changes no bit
    sets = "1-5;1-10;2,4,8;preset2"
    argv = ["lagselect", "--data", dataset, "--lag-sets", sets, "--method", method]
    argv += [] if kmax is None else ["--kmax", str(kmax)]
    code, out, err = run_main(argv)
    assert (code, err) == (0, [])
    args = cli.build_parser().parse_args(argv)
    x = _read_series(dataset)
    expected = []
    for spec in sets.split(";"):
        lags = _parse_lags(spec)
        acs = autocov_set(x, lags, centered=True)
        result = cli._fit(acs, method, args)
        table = asymptotics.empirical_asv(x, result, lags, kmax=kmax)
        expected.append((float(table.row_sums().sum()), " ".join(map(str, lags))))
    expected.sort()
    assert out.splitlines() == [f"{rank},{lags},{score:.17g}"
                                for rank, (score, lags) in enumerate(expected, start=1)]


@pytest.mark.parametrize("sets, message", [
    ("1-3;1,2,2", "duplicate lags"),
    ("1-3;0,1", "lags must be positive"),
    ("1-3;1,7999", "lag out of range"),
    ("1,1;0", "duplicate lags"),
])
def test_lagselect_checks_each_set_on_its_own(dataset, sets, message):
    # T = 8000, so lag 7999 is past T - 2; the first bad set is named
    code, out, err = run_main(["lagselect", "--data", dataset, "--lag-sets", sets])
    assert (code, out, err) == (1, "", [f"error: {message}"])


@pytest.mark.parametrize("argv", [
    ["asv", "--preset", "d", "--lags", "1-5000"],
    ["benchmark", "--preset", "d", "--lags", "1-5000", "--reps", "1", "--T-values", "100"],
])
def test_d_tensor_over_the_bound_is_one_error_line(argv):
    # 5001^2 * 9 doubles would be 1.7 GiB; the check comes before any of it
    tracemalloc.start()
    try:
        code, out, err = run_main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ["error: 5000 lags need a 1717 MiB D tensor, over the 256 MiB bound"]
    assert peak < 16 << 20


def test_lagselect_horizon_too_long_for_t_names_the_set(dataset):
    # lag 7998 of T = 8000 puts the default horizon at T - 2, where the plug-in
    # autocovariances rest on a handful of products
    code, out, err = run_main(["lagselect", "--data", dataset, "--lag-sets", "1-3;1,7998"])
    assert (code, out) == (1, "")
    assert err == ["error: negative plug-in ASV entry for lags 1 7998 at kmax = 7998, T = 8000: "
                   "autocovariances that far out rest on too few products; "
                   "try a smaller kmax (lagselect --kmax)"]
    assert run_main(["lagselect", "--data", dataset, "--lag-sets", "1-3;1,7998",
                     "--kmax", "7998"])[2] == err


@pytest.mark.parametrize("command", ["separate", "lagselect"])
def test_overflowing_data_is_one_error_line(tmp_path, command):
    # finite cells whose products leave the float range
    data = tmp_path / "big.csv"
    np.savetxt(data, np.random.default_rng(0).standard_normal((40, 2)) * 1e200, delimiter=",")
    argv = {"separate": ["--lags", "1", "--output", str(tmp_path / "sep")],
            "lagselect": ["--lag-sets", "1;2"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main([command, "--data", str(data), *argv])
    assert caught == []
    assert (code, out, err) == (1, "", ["error: series values too large: their "
                                        "autocovariances overflow"])


def test_lagselect_d_tensor_over_the_bound_is_one_error_line(dataset, monkeypatch):
    # the plug-in builds the same D: with room for 5 lags, a 6-lag set fails
    monkeypatch.setattr(asymptotics, "_D_MAX_BYTES", 8 * 6**2 * 9)
    assert run_main(["lagselect", "--data", dataset, "--lag-sets", "1-3;1-5"])[0] == 0
    code, out, err = run_main(["lagselect", "--data", dataset, "--lag-sets", "1-3;1-6"])
    assert (code, out, err) == (1, "", ["error: 6 lags need a 0 MiB D tensor, "
                                        "over the 0 MiB bound"])


def test_cached_parser_gives_what_a_fresh_one_gives(dataset, tmp_path):
    # subcommands and options alternate, so state left on the one parser by
    # a call would show in a later one
    argvs = [
        ["asv", "--preset", "d", "--lags", "1-3", "--method", "symmetric"],
        ["lagselect", "--data", dataset, "--lag-sets", "1-3;1-5", "--rows", "2"],
        ["asv", "--preset", "c", "--lags", "1-3"],
        ["lagselect", "--data", dataset, "--lag-sets", "1;2", "--method", "amuse"],
        ["separate", "--data", dataset, "--lags", "1-4", "--no-center",
         "--output", str(tmp_path / "s")],
        ["lagselect", "--data", dataset, "--lag-sets", "1-3;1-5"],
        ["benchmark", "--preset", "d", "--lags", "1-2", "--reps", "2", "--T-values", "200",
         "--methods", "amuse"],
        ["asv", "--preset", "d", "--lags", "1-3", "--method", "bogus"],
        ["asv", "--preset", "d", "--lags", "1-3"],
    ]
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    warm = [run_main(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_main(argv))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [0, 0, 0, 0, 0, 0, 0, 2, 0]
    for argv in argvs[:-2]:
        assert (vars(cli.build_parser().parse_args(argv))
                == vars(cli.build_parser.__wrapped__().parse_args(argv)))


BAD_CELLS = ["nan", "inf", "-inf", "NaN", "1e400", "abc", "", " ", "1e", "--1", "0x1",
             '"1"', "#", "x1"]


@st.composite
def data_csv(draw):
    """A numeric table of 0-8 time points and 1-3 series, with up to three
    defects: a bad cell, an extra cell or a missing one (a ragged row)."""
    cols = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.floats(-1e3, 1e3).map(repr), min_size=cols,
                                  max_size=cols), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "extra", "short"]))
        if kind == "short":
            row[-1:] = []
        elif kind == "extra":
            row.append(draw(st.sampled_from(["0.5", *BAD_CELLS])))
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("command", ["separate", "lagselect"])
@given(text=data_csv())
@settings(max_examples=150, deadline=None)
def test_data_csv_fuzz_exits_cleanly(tmp_path_factory, command, text):
    root = tmp_path_factory.getbasetemp()
    data = root / "fuzzed-data.csv"
    data.write_text(text)
    argv = {"separate": ["separate", "--data", str(data), "--lags", "1",
                         "--output", str(root / "fuzzed-sep")],
            "lagselect": ["lagselect", "--data", str(data), "--lag-sets", "1;2"]}[command]
    code, out, err = run_main(argv)
    if code == 0:
        assert err == []
    else:
        assert code == 1 and out == "" and len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("content, message", [
    ("", "{omega} holds no data"),
    ("1,0\n0,1\n", "{omega}: the mixing matrix must be 3 x 3, not 2 x 2"),
    ("1,0,0\n0,1,0\n", "{omega}: the mixing matrix must be 3 x 3, not 2 x 3"),
    ("0,0,0\n0,0,0\n0,0,0\n", "rank deficient"),
])
def test_separate_checks_omega_before_writing(dataset, tmp_path, content, message):
    omega = tmp_path / "omega.csv"
    omega.write_text(content)
    out = tmp_path / "sep"
    code, stdout, err = run_main(["separate", "--data", dataset, "--lags", "1-3",
                                  "--omega", str(omega), "--output", str(out)])
    assert (code, stdout, err) == (1, "", ["error: " + message.format(omega=omega)])
    assert list(tmp_path.iterdir()) == [omega]


def test_asv_names_the_formulas_that_fail():
    # on lags 1-3 model (b)'s deflation criteria tie, its symmetric profiles do not
    assert run_main(["asv", "--preset", "b", "--lags", "1-3"]) == (
        1, "", ["error: deflation: identifiability failure"])
    model = asymptotics.build_model([expand_to_ma(s) for s in benchmark_model("b")], (1, 2, 3))
    crit = global_criterion(asymptotics.asv(model, "symmetric"))
    assert run_main(["asv", "--preset", "b", "--lags", "1-3", "--method", "symmetric"]) == (
        0, f"symmetric,global,{crit:.17g}\n", [])
    # the value of the per-shift matmul D kernel, which the FFT one moved by 2 ulp
    assert crit == pytest.approx(8.5490072984751428, rel=1e-12, abs=0)


@pytest.mark.parametrize("position", [0, 5])
@pytest.mark.parametrize("command", ["separate", "lagselect"])
def test_bad_data_row_is_an_error_in_any_place(tmp_path, command, position):
    # a first row with a number in it is data, not a header
    rows = [f"{a},{b}" for a, b in np.random.default_rng(3).standard_normal((40, 2)).tolist()]
    rows[position] = "1.5,x"
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(rows) + "\n")
    argv = {"separate": ["separate", "--data", str(data), "--lags", "1-3",
                         "--output", str(tmp_path / "sep")],
            "lagselect": ["lagselect", "--data", str(data), "--lag-sets", "1;2"]}[command]
    code, out, err = run_main(argv)
    assert (code, out, len(err)) == (1, "", 1)
    assert err[0].startswith("error: could not convert string 'x'")
    assert list(tmp_path.iterdir()) == [data]
