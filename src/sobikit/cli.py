"""Command-line interface: simulate, separate, asv, benchmark, lagselect."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import asymptotics, autocovariance, joint_diag, metrics, presets, signal_model
from .autocovariance import autocov_set
from .signal_model import MixingModel, SourceSpec, expand_to_ma, mix, simulate_sources

_METHODS = ("amuse", "deflation", "symmetric-fixedpoint", "symmetric-jacobi")
# AMUSE has no implemented ASV, so the Monte Carlo sweep has nothing to set it against
_BENCHMARK_METHODS = tuple(m for m in _METHODS if m != "amuse")


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
        step = 1
        if "/" in item:
            item, step_s = item.split("/")
            step = int(step_s)
        if "-" in item.lstrip("-"):
            lo, hi = item.split("-")
            out.extend(range(int(lo), int(hi) + 1, step))
        else:
            out.append(int(item))
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
    specs = [SourceSpec.from_dict(c) for c in doc["components"]]
    omega = np.asarray(doc["omega"], dtype=float) if doc.get("omega") is not None else None
    mu = np.asarray(doc["mu"], dtype=float) if doc.get("mu") is not None else None
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
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return data.T


def _read_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _fit(acs, method, args):
    if method == "amuse":
        tau = args.tau if args.tau is not None else min(acs.lags)
        return joint_diag.amuse(acs, tau)
    if method == "deflation":
        return joint_diag.sobi_deflation(
            acs, tol=args.tol, max_iter=args.max_iter,
            restarts=args.restarts, seed=args.seed)
    if method == "symmetric-fixedpoint":
        return joint_diag.sobi_symmetric_fixedpoint(
            acs, tol=args.tol, max_iter=args.max_iter)
    if method == "symmetric-jacobi":
        return joint_diag.sobi_symmetric_jacobi(
            acs, tol=args.jacobi_tol, max_sweeps=args.max_sweeps)
    raise ValueError(f"unknown method {method!r}")


def _exact_model(specs, lags):
    """ASV model of the specs, which ``build_model`` puts in estimator order."""
    exps = [expand_to_ma(s, component_index=i) for i, s in enumerate(specs)]
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
    acs = autocov_set(x, lags, centered=not args.no_center)
    result = _fit(acs, args.method, args)
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
        omega = _read_matrix(args.omega)
        gain = result.gamma @ omega
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
        p = table.per_element.shape[0]
        for j in range(p):
            for i in range(p):
                lines.append(f"{method},{j+1},{i+1},{table.per_element[j,i]:.17g}")
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
# Upper bound on the bytes of simulated series held at once: the reps of a
# block are simulated and reduced to lag matrices this many at a time.
_CHUNK_BYTES = 1 << 20


def _rep_blocks(reps: int, jobs: int) -> list[range]:
    """Consecutive rep ranges of at most _BLOCK_REPS, at least one per job."""
    n = min(max(-(-reps // _BLOCK_REPS), jobs), reps)
    return [range(reps * k // n, reps * (k + 1) // n) for k in range(n)]


def _block_lag_matrices(plan, lags, T, reps, seed) -> tuple[np.ndarray, np.ndarray]:
    """Centered S_0 (B, p, p) and S_k (B, K, p, p) of the reps' series.

    Rep r is simulated from ``plan`` with the seed (seed, r).  The reps are
    simulated a chunk of at most _CHUNK_BYTES at a time into one buffer, and
    each chunk is reduced at once; every matrix equals, bit for bit, what
    autocov_set gives on that rep's series alone.
    """
    lags = autocovariance._check_lags(lags, T)
    p, B = len(plan.components), len(reps)
    s0, S = np.empty((B, p, p)), np.empty((B, len(lags), p, p))
    buf = np.empty((min(B, max(1, _CHUNK_BYTES // (8 * p * T))), p, T))
    for lo in range(0, B, len(buf)):
        z = buf[: min(len(buf), B - lo)]
        for c, rep in enumerate(reps[lo: lo + len(z)]):
            signal_model._draw_sources(plan, (seed, rep), z[c])
        autocovariance._check_finite(z)
        z -= z.mean(axis=-1, keepdims=True)
        s0[lo: lo + len(z)] = autocovariance._lag_product(z, 0)
        for i, k in enumerate(lags):
            S[lo: lo + len(z), i] = autocovariance._lag_product(z, k)
    return s0, S


def _mc_block(plan, lags, T, reps, methods, args) -> dict[str, list[float]]:
    """T (p-1) mdi^2 of every rep in ``reps`` for every method.

    The whole block is whitened and solved at once; deflation draws rep r's
    restarts from (args.seed, r, 1).  Every rep gets the result that the
    public chain simulate_sources -> autocov_set -> solver gives it alone.
    """
    s0, S = _block_lag_matrices(plan, lags, T, reps, args.seed)
    W = autocovariance._whiten(s0)
    R = autocovariance._whitened(W, S)
    p = s0.shape[-1]
    out = {}
    for method in methods:
        if method == "deflation":
            rngs = [np.random.default_rng((args.seed, rep, 1)) for rep in reps]
            us = joint_diag.deflation_block(R, rngs, tol=args.tol, max_iter=args.max_iter,
                                            restarts=args.restarts).u
        elif method == "symmetric-jacobi":
            us = joint_diag.jacobi_block(R, tol=args.jacobi_tol,
                                         max_sweeps=args.max_sweeps).u
        else:
            us = joint_diag.fixedpoint_block(R, lags.index(min(lags)), tol=args.tol,
                                             max_iter=args.max_iter).u
        out[method] = [T * (p - 1) * metrics.mdi(u @ w) ** 2 for u, w in zip(us, W)]
    return out


def cmd_benchmark(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    _check_solver_options(args)
    specs, _, _ = _load_model(args.model, args.preset)
    lags = _parse_lags(args.lags)
    t_values = [int(t) for t in args.T_values.split(",")]
    if min(t_values) < 2:
        raise ValueError("T must be at least 2")
    methods = [m.strip() for m in args.methods.split(",")]
    for method in methods:
        if method not in _BENCHMARK_METHODS:
            raise ValueError(f"--methods: {method!r} is not one of "
                             f"{', '.join(_BENCHMARK_METHODS)}")

    expected = {}
    model = _exact_model(specs, lags)
    for method in methods:
        try:
            expected[method] = asymptotics.global_criterion(asymptotics.asv(model, method))
        except ValueError as exc:
            print(f"warning: {method}: no exact ASV ({exc})", file=sys.stderr)
            expected[method] = float("nan")

    plan = signal_model._plan_sources(specs, args.burn_in)
    blocks = _rep_blocks(args.reps, args.jobs)
    tasks = [(plan, lags, T, reps, methods, args) for T in t_values for reps in blocks]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_mc_block, *zip(*tasks)))
    else:
        results = [_mc_block(*task) for task in tasks]

    rows = []
    for i, T in enumerate(t_values):
        parts = results[i * len(blocks):(i + 1) * len(blocks)]
        for method in methods:
            avg = float(np.mean([v for part in parts for v in part[method]]))
            rows.append((T, method, args.reps, avg, expected[method]))
            print(f"{T},{method},{args.reps},{avg:.17g},{expected[method]:.17g}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("T,method,reps,average,expected\n")
            for r in rows:
                fh.write(f"{r[0]},{r[1]},{r[2]},{r[3]:.17g},{r[4]:.17g}\n")
    return 0


def cmd_lagselect(args) -> int:
    _check_solver_options(args)
    x = _read_series(args.data)
    lag_sets = [_parse_lags(s) for s in args.lag_sets.split(";")]
    if len(lag_sets) < 2:
        raise ValueError("need at least two candidate lag sets")
    p = x.shape[0]
    rows = [int(r) for r in args.rows.split(",")] if args.rows else range(1, p + 1)
    if any(not 1 <= r <= p for r in rows):
        raise ValueError(f"--rows must lie in 1..{p}")
    rows_sel = np.asarray(rows) - 1
    scored = []
    for lags in lag_sets:
        acs = autocov_set(x, lags, centered=not args.no_center)
        result = _fit(acs, args.method, args)
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
