"""Command-line interface: simulate, separate, asv, benchmark, lagselect."""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import asymptotics, autocovariance, joint_diag, metrics, presets, signal_model
from .autocovariance import autocov_set
from .signal_model import MixingModel, SourceSpec, expand_to_ma, mix, simulate_sources

# Each --method value: (fit of one AutocovSet by its public solver, solve of the
# whitened lag stacks R (B, K, p, p) of a block of reps by its block kernel), with
# the CLI options both take; start indexes the smallest lag.
_METHODS = {
    "amuse": (
        lambda acs, start, a: joint_diag.amuse(acs, acs.lags[start] if a.tau is None else a.tau),
        lambda R, start, a, reps: joint_diag._amuse_block(R, start)),
    "deflation": (
        lambda acs, start, a: joint_diag.sobi_deflation(
            acs, tol=a.tol, max_iter=a.max_iter, restarts=a.restarts, seed=a.seed),
        lambda R, start, a, reps: joint_diag.deflation_block(
            R, [np.random.default_rng((a.seed, rep, 1)) for rep in reps],
            tol=a.tol, max_iter=a.max_iter, restarts=a.restarts)),
    "symmetric-fixedpoint": (
        lambda acs, start, a: joint_diag.sobi_symmetric_fixedpoint(
            acs, tol=a.tol, max_iter=a.max_iter),
        lambda R, start, a, reps: joint_diag.fixedpoint_block(
            R, start, tol=a.tol, max_iter=a.max_iter)),
    "symmetric-jacobi": (
        lambda acs, start, a: joint_diag.sobi_symmetric_jacobi(
            acs, tol=a.jacobi_tol, max_sweeps=a.max_sweeps),
        lambda R, start, a, reps: joint_diag.jacobi_block(
            R, tol=a.jacobi_tol, max_sweeps=a.max_sweeps)),
}


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {text.strip()!r} is not an integer") from None


def _parse_lags(spec: str) -> tuple[int, ...]:
    """Lag list syntax: "1-10", "1-10,12-20/2,25", or a preset name."""
    spec = spec.strip()
    if spec.lower() in presets.LAG_PRESETS:
        return presets.lag_preset(spec)
    out: list[int] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        where = f"lag item {item!r}"
        span, slash, step = item.partition("/")
        if "-" in span.lstrip("-"):
            lo, hi = (_int(b, where) for b in span.split("-", 1))
            stride = _int(step, where) if slash else 1
            if stride < 1:
                raise ValueError(f"{where}: the stride must be at least 1")
            out.extend(range(lo, hi + 1, stride))
        elif slash:
            raise ValueError(f"{where}: a stride needs a range, as in 1-9/2")
        else:
            out.append(_int(span, where))
    if not out:
        raise ValueError(f"lag list {spec!r} names no lag")
    return tuple(out)


def _load_model(path: str | None, preset: str | None):
    if (path is None) == (preset is None):
        raise ValueError("provide exactly one of --model or --preset")
    if preset is not None:
        return list(presets.benchmark_model(preset)), None, None
    with open(path) as fh:
        doc = json.load(fh)
    try:
        specs = [SourceSpec.from_dict(c) for c in doc["components"]]
        omega, mu = (None if doc.get(k) is None else np.asarray(doc[k], dtype=float)
                     for k in ("omega", "mu"))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model {path}: {type(exc).__name__}: {exc}") from exc
    return specs, omega, mu


def _write_series(path: str, x: np.ndarray, header: bool):
    head = ",".join(f"x{i+1}" for i in range(x.shape[0])) if header else ""
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g", header=head, comments="")


def _read_series(path: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",")]
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} holds no data")
    return data.T


def _fit(x, lags, args):
    acs = autocov_set(x, lags, centered=not args.no_center)
    return _METHODS[args.method][0](acs, joint_diag._start(acs.lags), args)


def _exact_model(specs, lags):
    """ASV model of the specs, which ``build_model`` puts in estimator order."""
    exps = [expand_to_ma(s) for s in specs]
    return asymptotics.build_model(exps, lags)


def cmd_simulate(args) -> int:
    specs, omega, mu = _load_model(args.model, args.preset)
    z = simulate_sources(specs, args.T, args.seed, burn_in=args.burn_in)
    if args.mix:
        p = len(specs)
        model = MixingModel(omega if omega is not None else np.eye(p), mu)
        z = mix(z, model)
    _write_series(args.output, z, args.header)
    return 0


def cmd_separate(args) -> int:
    _check_solver_options(args)
    x = _read_series(args.data)
    lags = _parse_lags(args.lags)
    result = _fit(x, lags, args)
    z = result.gamma @ (x - x.mean(axis=1, keepdims=True)
                        if not args.no_center else x)
    _write_series(args.output + ".csv", z, args.header)
    report = {
        "gamma": result.gamma.tolist(),
        "method": result.method,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "residual": result.residual,
        "objective": result.objective,
        "warnings": list(result.warnings),
    }
    if args.omega:
        gain = result.gamma @ np.loadtxt(args.omega, delimiter=",", ndmin=2)
        report["mdi"] = metrics.mdi(gain)
        report["amari"] = metrics.amari(gain)
    with open(args.output + ".json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"{result.method}: converged={result.converged} "
          f"residual={result.residual:.3e}"
          + (f" mdi={report['mdi']:.6g}" if "mdi" in report else ""))
    return 0


def cmd_asv(args) -> int:
    specs, _, _ = _load_model(args.model, args.preset)
    lags = _parse_lags(args.lags)
    model = _exact_model(specs, lags)
    methods = ("deflation", "symmetric") if args.method == "both" else (args.method,)
    lines = []
    for method in methods:
        table = asymptotics.asv(model, method)
        lines += [f"{method},{j+1},{i+1},{v:.17g}"
                  for (j, i), v in np.ndenumerate(table.per_element)]
        crit = asymptotics.global_criterion(table)
        lines.append(f"{method},global,,{crit:.17g}")
        print(f"{method},global,{crit:.17g}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("method,row,col,value\n")
            fh.write("\n".join(lines) + "\n")
    return 0


# Upper bound on the reps one kernel call solves together: large enough
# that per-call overhead on p x p matrices stops dominating, small enough
# that the stacked lag matrices of a block stay small.
_BLOCK_REPS = 256
# Upper bound on the bytes of simulated series held at once, over all T
# values: the reps of a block are simulated and reduced to lag matrices a
# chunk at a time.
_CHUNK_BYTES = 1 << 20


def _rep_blocks(reps: int, jobs: int) -> list[range]:
    """Consecutive rep ranges of at most _BLOCK_REPS, at least one per job."""
    n = min(max(-(-reps // _BLOCK_REPS), jobs), reps)
    return [range(reps * k // n, reps * (k + 1) // n) for k in range(n)]


def _block_lag_matrices(plan, lags, t_values, reps, seed) -> dict[int, autocovariance.AutocovSet]:
    """Centered lag matrices of the reps' series, per T, batched over the reps.

    Rep r draws its innovations once, from ``default_rng((seed, r))``, for
    the longest T; a shorter T reads a prefix of that draw, which is the whole
    draw simulate_sources makes at that T.  Each chunk of reps is simulated
    at every T into reused buffers and reduced at once into its rows of the
    result.  Every matrix equals, bit for bit, what autocov_set gives on that
    rep's series alone, whatever the chunk size.
    """
    t_values = sorted(set(t_values))
    lags = autocovariance._check_lags(lags, t_values[0])
    p, B = len(plan.components), len(reps)
    out = {T: autocovariance.AutocovSet(np.empty((B, p, p)), np.empty((B, len(lags), p, p)), lags)
           for T in t_values}
    size = min(B, max(1, _CHUNK_BYTES // (8 * p * sum(t_values))))
    eps = np.empty(p * (plan.pre + t_values[-1]))
    series = [np.empty((size, p, T)) for T in t_values]
    for lo in range(0, B, size):
        rs = reps[lo: lo + size]
        zs = [z[: len(rs)] for z in series]
        for c, rep in enumerate(rs):
            np.random.default_rng((seed, rep)).standard_normal(out=eps)
            for z in zs:
                signal_model._filter_sources(
                    plan, eps[: p * (plan.pre + z.shape[-1])].reshape(p, -1), z[c])
        for z, acs in zip(zs, out.values()):
            autocovariance._check_finite(z)
            z -= z.mean(axis=-1, keepdims=True)
            acs.s0[lo: lo + len(rs)] = autocovariance._lag_product(z, 0)
            for a, k in enumerate(lags):
                acs.sk[lo: lo + len(rs), a] = autocovariance._lag_product(z, k)
    return out


def _mc_block(plan, lags, t_values, reps, methods, args) -> dict[int, dict[str, list[float]]]:
    """T (p-1) mdi^2 of every rep in ``reps``, per T and method.

    The whole block is whitened and solved at once, by each method's block
    kernel.  Every rep gets the result that the public chain
    simulate_sources -> autocov_set -> solver gives it alone.
    """
    out = {}
    p, start = len(plan.components), joint_diag._start(lags)
    for T, acs in _block_lag_matrices(plan, lags, t_values, reps, args.seed).items():
        W = autocovariance.whitener(acs.s0)
        R = autocovariance.autocorrelations(acs, W)
        out[T] = {}
        for method in methods:
            mdis = metrics._mdi_block(_METHODS[method][1](R, start, args, reps).u @ W)
            # squared as Python floats: C pow, which float ** 2 calls, and
            # numpy's square round differently in about 0.1% of values
            out[T][method] = [T * (p - 1) * m ** 2 for m in mdis.tolist()]
    return out


def cmd_benchmark(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    _check_solver_options(args)
    specs, _, _ = _load_model(args.model, args.preset)
    lags = _parse_lags(args.lags)
    t_values = [_int(t, "--T-values") for t in args.T_values.split(",")]
    if min(t_values) < 2:
        raise ValueError("T must be at least 2")
    methods = [m.strip() for m in args.methods.split(",")]
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"--methods: {method!r} is not one of {', '.join(_METHODS)}")

    expected = {}
    model = _exact_model(specs, lags)
    for method in methods:
        try:
            expected[method] = asymptotics.global_criterion(asymptotics.asv(model, method))
        except ValueError as exc:
            print(f"warning: {method}: no exact ASV ({exc})", file=sys.stderr)
            expected[method] = float("nan")

    plan = signal_model._plan_sources(specs, args.burn_in)
    tasks = [(plan, lags, t_values, reps, methods, args)
             for reps in _rep_blocks(args.reps, args.jobs)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            parts = list(ex.map(_mc_block, *zip(*tasks)))
    else:
        parts = [_mc_block(*task) for task in tasks]

    lines = ["T,method,reps,average,expected"]
    for T in t_values:
        for method in methods:
            avg = float(np.mean([v for part in parts for v in part[T][method]]))
            lines.append(f"{T},{method},{args.reps},{avg:.17g},{expected[method]:.17g}")
            print(lines[-1])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_lagselect(args) -> int:
    _check_solver_options(args)
    x = _read_series(args.data)
    lag_sets = [_parse_lags(s) for s in args.lag_sets.split(";")]
    if len(lag_sets) < 2:
        raise ValueError("need at least two candidate lag sets")
    p = x.shape[0]
    rows = [_int(r, "--rows") for r in args.rows.split(",")] if args.rows else range(1, p + 1)
    if any(not 1 <= r <= p for r in rows):
        raise ValueError(f"--rows must lie in 1..{p}")
    rows_sel = np.asarray(rows) - 1
    scored = []
    for lags in lag_sets:
        result = _fit(x, lags, args)
        table = asymptotics.empirical_asv(x, result, lags, kmax=args.kmax)
        score = float(table.row_sums()[rows_sel].sum())
        scored.append((score, lags))
    scored.sort(key=lambda t: t[0])
    lines = ["rank,lags,row_variance_sum"]
    for rank, (score, lags) in enumerate(scored, start=1):
        lagstr = " ".join(str(k) for k in lags)
        lines.append(f"{rank},{lagstr},{score:.17g}")
        print(lines[-1])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _add_solver_options(sp):
    """The iteration controls that separate, lagselect and benchmark share."""
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=1000)
    sp.add_argument("--restarts", type=int, default=5)
    sp.add_argument("--jacobi-tol", type=float, default=1e-12)
    sp.add_argument("--max-sweeps", type=int, default=100)


def _check_solver_options(args):
    if args.max_iter < 1:
        raise ValueError("--max-iter must be at least 1")
    if args.max_sweeps < 1:
        raise ValueError("--max-sweeps must be at least 1")
    if args.restarts < 0:
        raise ValueError("--restarts must be non-negative")
    if not args.tol > 0 or not args.jacobi_tol > 0:
        raise ValueError("--tol and --jacobi-tol must be positive")


def _add_fit_options(sp):
    sp.add_argument("--method", default="symmetric-jacobi", choices=_METHODS)
    sp.add_argument("--tau", type=int, default=None,
                    help="lag diagonalized by amuse (default: smallest)")
    _add_solver_options(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-center", action="store_true",
                    help="skip mean removal (data already centered)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sobikit",
        description="Blind source separation of stationary time series "
                    "via joint diagonalization of autocovariance matrices.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate sources or mixtures")
    sp.add_argument("--model", help="JSON model file")
    sp.add_argument("--preset", help="bundled benchmark model a..d")
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=2000)
    sp.add_argument("--mix", action="store_true",
                    help="apply the model's mixing matrix and location")
    sp.add_argument("--header", action="store_true")
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("separate", help="estimate the unmixing matrix")
    sp.add_argument("--data", required=True, help="CSV, rows = time points")
    sp.add_argument("--lags", required=True)
    sp.add_argument("--omega", help="CSV with the true mixing matrix")
    sp.add_argument("--header", action="store_true")
    sp.add_argument("--output", required=True, help="output path prefix")
    _add_fit_options(sp)
    sp.set_defaults(func=cmd_separate)

    sp = sub.add_parser("asv", help="asymptotic variances of a source model")
    sp.add_argument("--model", help="JSON model file")
    sp.add_argument("--preset", help="bundled benchmark model a..d")
    sp.add_argument("--lags", required=True)
    sp.add_argument("--method", default="both",
                    choices=("both", "deflation", "symmetric"))
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_asv)

    sp = sub.add_parser("benchmark", help="Monte Carlo efficiency sweep")
    sp.add_argument("--model", help="JSON model file")
    sp.add_argument("--preset", help="bundled benchmark model a..d")
    sp.add_argument("--lags", required=True)
    sp.add_argument("--methods", default="deflation,symmetric-jacobi")
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--T-values", dest="T_values", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=2000)
    sp.add_argument("--jobs", type=int, default=1)
    _add_solver_options(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("lagselect", help="rank candidate lag sets")
    sp.add_argument("--data", required=True)
    sp.add_argument("--lag-sets", required=True,
                    help="semicolon-separated lag lists or preset names")
    sp.add_argument("--rows", help="1-based source rows to score (default all)")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--output")
    _add_fit_options(sp)
    sp.set_defaults(func=cmd_lagselect)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
