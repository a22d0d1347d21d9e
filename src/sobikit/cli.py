"""Command-line interface: simulate, separate, asv, benchmark, lagselect."""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import asymptotics, autocovariance, joint_diag, metrics, presets
from .autocovariance import autocov_set
from .signal_model import MixingModel, SourceSpec, expand_to_ma, mix, simulate_sources

def _kernel_options(args, method: str) -> dict:
    """The options of ``method``'s kernel that the parsed CLI options set; an
    option left unset keeps the kernel's default."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    return {name: given[name] for name in joint_diag._options(method) if name in given}


def _fit(acs, method: str, args) -> joint_diag.UnmixingResult:
    """The fit of one AutocovSet by ``method``; deflation draws from default_rng(args.seed)."""
    return joint_diag._unmix(acs, method, [np.random.default_rng(args.seed)],
                             **_kernel_options(args, method))


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


def _check_writable(args):
    """Stop before any work when an output file cannot be written (separate's
    --output is a prefix). Nothing is opened, so a symlink or FIFO is left as it is."""
    suffixes = (".csv", ".json") if args.command == "separate" else ("",)
    for path in [args.output + s for s in suffixes] if args.output else []:
        real = os.path.realpath(path)  # a dangling link is written at its target
        parent = os.path.dirname(real)
        code = (errno.EISDIR if os.path.isdir(real) else errno.ENOENT if not os.path.isdir(parent)
                else 0 if os.access(real if os.path.exists(real) else parent, os.W_OK)
                else errno.EACCES)
        if code:
            raise OSError(code, os.strerror(code), path)


def _write_series(path: str, x: np.ndarray, header: bool):
    head = ",".join(f"x{i+1}" for i in range(x.shape[0])) if header else ""
    np.savetxt(path, x.T, delimiter=",", fmt="%.17g", header=head, comments="")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_series(path: str) -> np.ndarray:
    """The CSV at ``path``, rows = time points, as a C-contiguous p x T array;
    a first row none of whose cells is a number is a header."""
    with open(path) as fh:
        first = fh.readline()
    skip = int(not any(_is_number(tok) for tok in first.strip().split(",")))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} holds no data")
    return np.ascontiguousarray(data.T)


def cmd_simulate(args) -> int:
    specs, omega, mu = _load_model(args.model, args.preset)
    z = simulate_sources(specs, args.T, args.seed)
    if args.mix:
        z = mix(z, MixingModel(omega if omega is not None else np.eye(len(specs)), mu))
    _write_series(args.output, z, args.header)
    return 0


def cmd_separate(args) -> int:
    _check_solver_options(args)
    x = _read_series(args.data)
    lags = _parse_lags(args.lags)
    if args.omega:
        omega = _read_series(args.omega).T
        p = x.shape[0]
        if omega.shape != (p, p):
            raise ValueError(f"{args.omega}: the mixing matrix must be {p} x {p}, "
                             f"not {omega.shape[0]} x {omega.shape[1]}")
    result = _fit(autocov_set(x, lags), args.method, args)
    z = result.gamma @ (x - x.mean(axis=1, keepdims=True))
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
        gain = result.gamma @ omega
        report["mdi"] = metrics.mdi(gain)
        report["amari"] = metrics.amari(gain)
    _write_series(args.output + ".csv", z, args.header)
    with open(args.output + ".json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"{result.method}: converged={result.converged} residual={result.residual:.3e}"
          + (f" mdi={report['mdi']:.6g}" if "mdi" in report else ""))
    return 0


def cmd_asv(args) -> int:
    specs, _, _ = _load_model(args.model, args.preset)
    lags = _parse_lags(args.lags)
    model = asymptotics.build_model([expand_to_ma(s) for s in specs], lags)
    methods = ("deflation", "symmetric") if args.method == "both" else (args.method,)
    lines = ["method,row,col,value"]
    for method in methods:
        try:
            table = asymptotics.asv(model, method)
        except ValueError as exc:
            raise ValueError(f"{method}: {exc}") from None
        crit = asymptotics.global_criterion(table)
        print(f"{method},global,{crit:.17g}")
        if args.output:
            lines += [f"{method},{j+1},{i+1},{v:.17g}"
                      for (j, i), v in np.ndenumerate(table.per_element)]
            lines.append(f"{method},global,,{crit:.17g}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_benchmark(args) -> int:
    _check_solver_options(args)
    specs, _, _ = _load_model(args.model, args.preset)
    lags = _parse_lags(args.lags)
    t_values = [_int(t, "--T-values") for t in args.T_values.split(",")]
    methods = [m.strip() for m in args.methods.split(",")]
    model = asymptotics.build_model([expand_to_ma(s) for s in specs], lags)
    # an unknown method is left to the sweep, which refuses it
    options = {m: _kernel_options(args, m) for m in methods if m in joint_diag._KERNELS}
    values = metrics.efficiency_sweep(specs, lags, t_values, methods, args.reps, args.seed,
                                      args.jobs, options)
    expected = {}
    for method in methods:
        try:
            expected[method] = asymptotics.global_criterion(asymptotics.asv(model, method))
        except ValueError as exc:
            print(f"warning: {method}: no exact ASV ({exc})", file=sys.stderr)
            expected[method] = float("nan")

    lines = ["T,method,reps,average,expected"]
    for T in t_values:
        for method in methods:
            avg = float(np.mean(values[T][method]))
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
    if len(set(rows)) < len(rows) or any(not 1 <= r <= p for r in rows):
        raise ValueError(f"--rows must be distinct and lie in 1..{p}")
    rows_sel = np.asarray(rows) - 1
    x = autocovariance._as_series(x)
    lag_sets = [autocovariance._check_lags(lags, x.shape[1]) for lags in lag_sets]
    # one autocov_set over the union of the sets' lags serves every fit:
    # each set's fit reads its own S_k from it
    acs = autocov_set(x, sorted(set().union(*lag_sets)))
    where = {k: a for a, k in enumerate(acs.lags)}
    scored = []
    for lags in lag_sets:
        result = _fit(autocovariance.AutocovSet(acs.s0, acs.sk[[where[k] for k in lags]], lags),
                      args.method, args)
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
    """The iteration controls that separate, lagselect and benchmark share; each
    feeds every chosen kernel that takes it, and unset keeps the kernel's default."""
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iter", type=int)
    sp.add_argument("--restarts", type=int)


def _check_solver_options(args):
    """Refuse a set iteration control out of range, whichever methods read it."""
    if args.max_iter is not None and args.max_iter < 1:
        raise ValueError("--max-iter must be at least 1")
    if args.restarts is not None and args.restarts < 0:
        raise ValueError("--restarts must be non-negative")
    if args.tol is not None and not args.tol > 0:
        raise ValueError("--tol must be positive")


def _add_fit_options(sp):
    sp.add_argument("--method", default="symmetric-jacobi", choices=joint_diag._KERNELS)
    _add_solver_options(sp)
    sp.add_argument("--seed", type=int, default=0)


# one parser per process: building it costs dozens of parses, and parse_args
# leaves it as it was
@functools.cache
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
    sp.add_argument("--tau", type=int, help="lag diagonalized by amuse (default: smallest)")
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
    sp.add_argument("--jobs", type=int, default=1)
    _add_solver_options(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("lagselect", help="rank candidate lag sets")
    sp.add_argument("--data", required=True)
    sp.add_argument("--lag-sets", required=True,
                    help="semicolon-separated lag lists or preset names")
    sp.add_argument("--rows", help="1-based source rows to score (default all)")
    sp.add_argument("--kmax", type=int, default=None,
                    help="plug-in horizon, capped at T - 2 (default: 12 times the "
                         "set's largest lag)")
    sp.add_argument("--output")
    _add_fit_options(sp)
    sp.set_defaults(func=cmd_lagselect)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_writable(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
