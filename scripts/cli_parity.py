"""Check that the command line behaves byte for byte as at a parent revision.

Usage, from the root of a checkout:

    python3 scripts/cli_parity.py --parent HEAD
    python3 scripts/cli_parity.py --parent HEAD \
        --args='--tol 1e-8 --max-iter 3' --parent-args='--tol 1e-8 --max-iter 3 ...'

The parent is ``git archive`` of the given revision (``bench_record.export``)
and the change is this checkout's working tree.  Each case is one argv of
``sobikit``, run once per side as ``python -m sobikit.cli`` in a subprocess
whose PYTHONPATH is that side's ``src`` and whose working directory is new
and empty.  The inputs the argvs read (the perfbench lagselect series at
data seed 7 and a mixing matrix) are written once, before any run, and both
sides read the same files.  Stdout, stderr, the exit code and every file a
run writes are compared.  The script names each case that differs and exits
1 if any does.

The cases: ``benchmark`` on the perfbench mc_sweep argv at each of
``--mc-seeds`` under ``--jobs`` 1, 2 and 3; the 12 asv_tables argvs;
``lagselect`` and ``separate --omega`` with each method; and a four-method
``benchmark``.  ``--args`` and ``--parent-args`` are appended to the argv
of every separate, lagselect and benchmark case on the change's side and on
the parent's side: they check a flag against the one it replaces.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("amuse", "deflation", "symmetric-fixedpoint", "symmetric-jacobi")
FIT_COMMANDS = ("separate", "lagselect", "benchmark")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("_parity_bench_record", ROOT / "scripts" / "bench_record.py")
workloads = _load("_parity_workloads", ROOT / "perfbench" / "workloads.py")


def write_inputs(inputs: Path) -> dict[str, str]:
    """Write the files the cases read; return their paths by role."""
    data = workloads.lagselect_csv(inputs, "full", 7)
    omega = inputs / "omega.csv"
    omega.write_text("1.0,0.5,0.2\n0.3,1.0,0.4\n0.1,0.2,1.0\n")
    return {"data": str(data), "omega": str(omega)}


def cases(inputs: dict[str, str], mc_seeds) -> dict[str, list[str]]:
    """Every case's name and argv."""
    out = {}
    for seed in mc_seeds:
        for jobs in (1, 2, 3):
            out[f"mc_sweep:{seed}:jobs{jobs}"] = [
                *workloads.mc_op("full", seed).argv, "--jobs", str(jobs)]
    for op in workloads.asv_ops("full"):
        out[f"asv:{op.key}"] = list(op.argv)
    for method in METHODS:
        lag_sets = "1;2;3" if method == "amuse" else workloads.SCALES["full"].lag_sets
        out[f"lagselect:{method}"] = ["lagselect", "--data", inputs["data"], "--lag-sets",
                                      lag_sets, "--method", method, "--output", "ranks.csv"]
        out[f"separate:{method}"] = ["separate", "--data", inputs["data"], "--lags", "1-10",
                                     "--method", method, "--omega", inputs["omega"],
                                     "--output", "fit"]
    out["benchmark:four-methods"] = ["benchmark", "--preset", "d", "--lags", "1-10",
                                     "--methods", ",".join(METHODS), "--reps", "40",
                                     "--T-values", "300,1000", "--jobs", "2",
                                     "--output", "bench.csv"]
    return out


def run(tree: Path, argv: list[str], cwd: Path) -> dict:
    """Exit code, stdout, stderr and written files of one CLI run of ``tree`` in ``cwd``."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "sobikit.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def compare(trees: dict[str, Path], named: dict[str, list[str]], work: Path,
            extra: dict[str, list[str]] | None = None) -> dict[str, list[str]]:
    """Run each case on both sides; return, per case that differs, what differs.
    ``extra`` maps a side to the arguments appended to its fitting commands."""
    diffs = {}
    for name, argv in named.items():
        outs = {}
        for side, tree in trees.items():
            added = (extra or {}).get(side, []) if argv[0] in FIT_COMMANDS else []
            outs[side] = run(tree, argv + added, work / side / name.replace("/", "_"))
        parent, change = outs.values()
        what = [key for key in parent if parent[key] != change[key]]
        if what:
            diffs[name] = what
        print(f"{name}: {'differs in ' + ', '.join(what) if what else 'same'}",
              file=sys.stderr, flush=True)
    return diffs


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--mc-seeds", default="5,41", help="program seeds of the mc_sweep cases")
    ap.add_argument("--args", default="", help="appended to the change's fitting commands")
    ap.add_argument("--parent-args", default="",
                    help="appended to the parent's fitting commands")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli_parity_") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        (tmp / "parent").mkdir()
        trees = {"parent": bench_record.export(args.parent, tmp / "parent"), "change": ROOT}
        named = cases(write_inputs(tmp / "inputs"),
                      [int(s) for s in args.mc_seeds.split(",")])
        diffs = compare(trees, named, tmp / "runs",
                        {"parent": shlex.split(args.parent_args),
                         "change": shlex.split(args.args)})
    for name, what in diffs.items():
        print(f"differs: {name}: {', '.join(what)}")
    print(f"{len(named) - len(diffs)} of {len(named)} cases the same")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
