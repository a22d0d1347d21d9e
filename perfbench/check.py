"""Determinism and second-seed check of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/check.py --seed 1 --seed2 40 [--seconds 5]

For every workload: two traced runs on ``--seed`` must report identical
counts (every ``*.calls``, ``*.iterations``, ``*.nonconverged`` and
``autocov_set.flop_computed``), and an untraced and a traced run on
``--seed2`` must finish with ``correct`` true and no failed op.  Exits 1 if
any of this does not hold.

``--seed2`` must select inputs that ``--seed`` does not: no program seed of
``mc_sweep`` and not the data seed of ``lagselect``.  ``asv_tables`` has no
seed-dependent input; its second seed only reorders the same invocations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads
from layers import COUNTER_UNITS
from run import HERE, ROOT, WORKLOADS


def bench(workload: str, seed: int, trace: int, seconds: float, scale: str) -> dict:
    """One benchmark run in its own process; returns its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {n: m["value"] for n, m in result["metrics"].items() if m["unit"] in COUNTER_UNITS.values()}


def problems(result: dict) -> list[str]:
    out = []
    if not result["correct"]:
        out.append("correct is false")
    if result["failed"]:
        out.append(f"{result['failed']} of {result['attempted']} ops failed")
    return out


def shared_inputs(scale: str, seed: int, seed2: int) -> list[str]:
    """The inputs that runs on ``seed`` and ``seed2`` would both use."""
    out = []
    mc = set(workloads.mc_program_seeds(scale, seed)) & set(
        workloads.mc_program_seeds(scale, seed2))
    if mc:
        out.append(f"mc_sweep program seeds {sorted(mc)}")
    if workloads.lag_data_seed(scale, seed) == workloads.lag_data_seed(scale, seed2):
        out.append(f"lagselect data seed {workloads.lag_data_seed(scale, seed)}")
    return out


def check_workload(workload, seed, seed2, seconds, scale) -> list[str]:
    found = []
    a = bench(workload, seed, 1, seconds, scale)
    b = bench(workload, seed, 1, seconds, scale)
    for tag, res in (("first traced run", a), ("second traced run", b)):
        found += [f"{workload} seed {seed} {tag}: {p}" for p in problems(res)]
    ca, cb = counts(a), counts(b)
    found += [f"{workload} seed {seed}: {n} is {ca[n]} then {cb.get(n)}"
              for n in ca if ca[n] != cb.get(n)]
    for trace in (0, 1):
        res = bench(workload, seed2, trace, seconds, scale)
        found += [f"{workload} seed {seed2} trace {trace}: {p}" for p in problems(res)]
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seed2", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args(argv)
    if args.seed == args.seed2:
        ap.error("--seed2 must differ from --seed")
    shared = shared_inputs("full", args.seed, args.seed2)
    if shared:
        ap.error(f"--seed2 {args.seed2} shares inputs with --seed {args.seed}: "
                 + "; ".join(shared))
    found = []
    for workload in WORKLOADS:
        issues = check_workload(workload, args.seed, args.seed2, args.seconds, "full")
        print(f"{workload}: {'FAILED' if issues else 'ok'}", flush=True)
        found += issues
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
