"""Paired timing of a git revision against the working tree, in one process.

Usage, from the root of a checkout:

    python3 scripts/ab_inprocess.py --parent HEAD --workload asv_tables \
        --rounds 40 --out AB_asv_tables.json

The ``src/sobikit`` of the revision (unpacked with ``bench_record.export``)
and that of the working tree are imported side by side, as two packages
under different names, so both sides share one interpreter, one heap and
one host state.  Each round runs the workload's plan unit, the ops that
``perfbench/run.py`` repeats in its timed phase, once per side through
``workloads.invoke``, in ABBA order: parent first in even rounds, change
first in odd ones.  Every op's output is checked against
``perfbench/reference.json`` with ``workloads.same``.  Before the rounds,
each side runs the plan's first op once, untimed, as its cold start.

The JSON written holds the commits, the machine, each side's per-round
unit times, the per-round ratio change / parent with its median and
quartiles, the rounds the change won, and each side's correctness with
the argv of any op that failed.  The script exits 1 if any op was not
correct, after writing the record.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _load(name: str, path: Path):
    """Import the module or package at ``path`` under the name ``name``."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


bench_record = _load("_ab_bench_record", ROOT / "scripts" / "bench_record.py")
workloads = _load("_ab_workloads", ROOT / "perfbench" / "workloads.py")


def load_cli(side: str, tree: Path):
    """``cli`` of the tree's ``src/sobikit``, imported as package ``_ab_<side>``."""
    _load(f"_ab_{side}", tree / "src" / "sobikit")
    return importlib.import_module(f"_ab_{side}.cli")


def run_op(cli, op, reference: dict, workload: str) -> tuple[float, str]:
    """Latency of one op and its error, empty when its output matches the reference."""
    t0 = perf_counter()
    rc, out, err = workloads.invoke(cli, op.argv)
    dt = perf_counter() - t0
    if rc != 0:
        return dt, f"exit code {rc}: {err.strip()[:200]}"
    if op.key not in reference:
        return dt, f"no reference output for key {op.key!r}"
    try:
        got = workloads.parse_output(workload, out)
    except (ValueError, IndexError) as exc:
        return dt, f"unparsable output: {exc}"
    return dt, "" if workloads.same(got, reference[op.key]) else "output differs"


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3}


def compare(trees: dict[str, Path], workload: str, scale: str, seed: int, rounds: int) -> dict:
    """ABBA rounds of the plan unit on both trees; the record's timing part."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())[scale][workload]
    clis = {side: load_cli(side, trees[side]) for side in SIDES}
    failures = {side: [] for side in SIDES}
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_") as work:
        plan = workloads.make_plan(workload, scale, seed, Path(work))
        for side in SIDES:  # cold start, untimed
            _, error = run_op(clis[side], plan.first, reference, workload)
            if error:
                failures[side].append({"argv": list(plan.first.argv), "error": error})
        for r in range(rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                total = 0.0
                for op in plan.unit:
                    dt, error = run_op(clis[side], op, reference, workload)
                    total += dt
                    if error:
                        failures[side].append({"argv": list(op.argv), "error": error})
                times[side].append(total * 1e3)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {
        "workload": workload, "scale": scale, "seed": seed, "rounds": rounds,
        "unit_ops": len(plan.unit),
        "unit_ms": {side: {**quartiles(times[side]), "runs": times[side]} for side in SIDES},
        "ratio": {**quartiles(ratios), "runs": ratios},
        "change_won": sum(r < 1.0 for r in ratios),
        "correct": {side: not failures[side] for side in SIDES},
        "failures": failures,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", required=True, choices=("mc_sweep", "asv_tables", "lagselect"))
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0, help="perfbench workload seed")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_parent_") as tmp:
        trees = {"parent": bench_record.export(args.parent, Path(tmp)), "change": ROOT}
        doc = {
            "script": "scripts/ab_inprocess.py",
            "argv": sys.argv[1:] if argv is None else argv,
            "parent": {"commit": bench_record.git("rev-parse", args.parent).decode().strip(),
                       "source_lines": bench_record.source_lines(trees["parent"])},
            "change": {"commit": bench_record.git("rev-parse", "HEAD").decode().strip(),
                       "uncommitted_changes": bool(bench_record.git(
                           "status", "--porcelain", "--", "src").strip()),
                       "source_lines": bench_record.source_lines(ROOT)},
            "machine": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__},
            "threads_env": {v: os.environ.get(v) for v in bench_record.THREAD_VARS},
            **compare(trees, args.workload, "full", args.seed, args.rounds),
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{args.workload}: change / parent median {doc['ratio']['median']:.4f} "
          f"(q1 {doc['ratio']['q1']:.4f}, q3 {doc['ratio']['q3']:.4f}), "
          f"change won {doc['change_won']} of {args.rounds}", file=sys.stderr)
    for side in SIDES:
        for failure in doc["failures"][side][:5]:
            print(f"not correct: {side}: {' '.join(failure['argv'])}: {failure['error']}",
                  file=sys.stderr)
    return 0 if all(doc["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
