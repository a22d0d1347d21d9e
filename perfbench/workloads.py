"""Workload definitions: the argv (and data) each op sends to the program,
how its output is parsed, and how it is compared with the reference.

The program is driven only through its public entry point,
``sobikit.cli.main(argv)``, in process.  Inputs are a function of the
workload seed alone; data files are generated here with numpy/scipy, not
with the library under test, so a change to the library cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random
from pathlib import Path
import numpy as np
from scipy.signal import lfilter

# Relative tolerance of the correctness gate.  The recorded outputs repeat
# bit for bit on one machine; 1e-9 leaves room for the ~1e-12 rounding
# differences seen between machines and for reordered float sums, and is far
# below any change in an MC average, an ASV criterion or a lag-set score.
RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``full`` is the benchmark, ``tiny`` the smoke test."""

    mc_reps: int
    mc_window: int
    mc_pool: int
    asv_models: str
    asv_lags: tuple[str, ...]
    lag_T: int
    lag_sets: str
    lag_pool: int


SCALES = {
    "full": Scale(mc_reps=128, mc_window=6, mc_pool=64, asv_models="abcd",
                  asv_lags=("1-10", "preset3", "preset1"),
                  lag_T=20000, lag_sets="preset1;preset2;preset3;preset4",
                  lag_pool=64),
    "tiny": Scale(mc_reps=2, mc_window=1, mc_pool=4, asv_models="abcd", asv_lags=("1-10",),
                  lag_T=2000, lag_sets="1-5;preset2", lag_pool=4),
}

MC_ARGV = ["benchmark", "--preset", "b", "--lags", "1-10",
           "--T-values", "1000,4000,16000",
           "--methods", "deflation,symmetric-jacobi", "--jobs", "1"]
MC_CELLS = 3 * 2  # T values x methods: replications per rep

# Model (c) of the paper's efficiency comparison, ARMA(3, 6) components,
# copied here so that the lagselect input does not depend on the presets.
MODEL_C = (
    ((0.3, 0.3, -0.4), (-0.6, 0.3, 1.1, 1.0, -1.1, -0.3)),
    ((0.2, 0.1, -0.4), (1.2, 2.8, -1.0, -1.0, 0.1, 0.1)),
    ((0.2, 0.2, 0.4), (-1.4, -1.9, -0.5, -0.3, -0.4, 0.4)),
)


@dataclasses.dataclass(frozen=True)
class Op:
    """One invocation of the program: its argv, reference key and MC replications."""

    argv: tuple[str, ...]
    key: str
    replications: int = 1


# --------------------------------------------------------------- inputs

def lagselect_series(data_seed: int, T: int, burn_in: int = 2000) -> np.ndarray:
    """A mixed model-(c) series, 3 x T, from the data seed alone."""
    rng = np.random.default_rng([0x50B1, data_seed])
    eps = rng.standard_normal((len(MODEL_C), burn_in + T))
    z = np.stack([
        lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar)], eps[i])[burn_in:]
        for i, (ar, ma) in enumerate(MODEL_C)
    ])
    while True:
        omega = rng.standard_normal((len(MODEL_C), len(MODEL_C)))
        if np.linalg.cond(omega) < 20.0:
            return omega @ z


def lagselect_csv(work: Path, scale: str, data_seed: int) -> Path:
    """Write the lagselect input, rows = time points; replaced atomically."""
    path = work / f"lagselect_{scale}_{data_seed}.csv"
    tmp = path.with_suffix(".tmp")
    np.savetxt(tmp, lagselect_series(data_seed, SCALES[scale].lag_T).T,
               delimiter=",", fmt="%.17g")
    os.replace(tmp, path)
    return path


def mc_op(scale: str, program_seed: int) -> Op:
    reps = SCALES[scale].mc_reps
    argv = MC_ARGV + ["--reps", str(reps), "--seed", str(program_seed)]
    return Op(tuple(argv), str(program_seed), reps * MC_CELLS)


def asv_ops(scale: str) -> list[Op]:
    sc = SCALES[scale]
    return [Op(("asv", "--preset", m, "--lags", lags, "--method", "both"), f"{m}|{lags}")
            for m in sc.asv_models for lags in sc.asv_lags]


def lagselect_op(scale: str, csv: Path, data_seed: int) -> Op:
    argv = ("lagselect", "--data", str(csv), "--lag-sets", SCALES[scale].lag_sets,
            "--method", "symmetric-jacobi")
    return Op(argv, str(data_seed))


def mc_program_seeds(scale: str, seed: int) -> list[int]:
    """Program seeds of an mc_sweep run: the cold op's, then the unit's window."""
    sc = SCALES[scale]
    return [(seed + i) % sc.mc_pool for i in range(sc.mc_window + 1)]


def lag_data_seed(scale: str, seed: int) -> int:
    return seed % SCALES[scale].lag_pool


@dataclasses.dataclass
class Plan:
    """The ops of one run, all derived from the workload seed.

    ``first`` is the cold op, ``cycle`` the ops of one traced or untraced
    pass, and ``unit`` the ops that the untraced timed phase repeats, always
    whole, so that a faster program runs more units of the same inputs.
    """

    workload: str
    first: Op
    cycle: list[Op]
    unit: list[Op]


def make_plan(workload: str, scale: str, seed: int, work: Path) -> Plan:
    if workload == "mc_sweep":
        # the seed picks a window of the recorded pool of program seeds
        first, *window = (mc_op(scale, k) for k in mc_program_seeds(scale, seed))
        return Plan(workload, first, [first], window)
    if workload == "asv_tables":
        # exact ASVs do not depend on data: the seed only orders the cycle
        cycle = asv_ops(scale)
        random.Random(seed).shuffle(cycle)
        return Plan(workload, cycle[0], cycle, cycle)
    if workload == "lagselect":
        data_seed = lag_data_seed(scale, seed)
        op = lagselect_op(scale, lagselect_csv(work, scale, data_seed), data_seed)
        return Plan(workload, op, [op], [op])
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------- outputs

def parse_output(workload: str, text: str):
    """The parts of an op's stdout that the reference pins."""
    rows = [line.split(",") for line in text.strip().splitlines()]
    if workload == "mc_sweep":
        # T,method,reps,average,expected
        return [[int(r[0]), r[1], int(r[2]), float(r[3]), float(r[4])] for r in rows]
    if workload == "asv_tables":
        # method,global,criterion
        return {r[0]: float(r[2]) for r in rows if r[1] == "global"}
    # rank,lags,row_variance_sum
    return [[int(r[0]), r[1], float(r[2])] for r in rows]


def same(a, b, rtol: float = RTOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= rtol * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, rtol) for x, y in zip(a, b))
    return a == b


def invoke(cli, argv) -> tuple[int, str, str]:
    """Call ``cli.main(argv)`` in process; return (exit code, stdout, stderr).

    ``main`` is looked up on each call so that a traced run reaches it
    through the tracer's wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()
