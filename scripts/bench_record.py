"""Record a parent-versus-change benchmark comparison as BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --parent HEAD~1 --out BENCH_6.json \
        --workload mc_sweep:53:10 --workload asv_tables:54:3 --workload lagselect:55:3

Each ``--workload name:seed:pairs`` runs ``perfbench/run.py`` untraced
``pairs`` times on each side, alternating which side runs first, then
traced ``--traced`` times on each side.  Both sides run from fresh
temporary directories, each with its own ``perfbench/``: the parent is
``git archive`` of the given revision, and the change is a copy of this
checkout's working-tree files (tracked, or untracked and not ignored), so
neither side inherits the other's build or benchmark leftovers.
Every run is a subprocess whose ``perfbench:`` header, metric lines and
``perfbench-detail:`` line are parsed, and the 1, 5 and 15 minute load
averages (``os.getloadavg``) are read just before and just after it.  The
file written holds the commits, each side's line count of
``src/sobikit/*.py``, the machine, every run's end-to-end metrics with each
side's median and quartiles, the load averages around each untraced run,
the number of pairs the change won, and each side's median per-layer
metrics; the first op of each process (cold start) is kept apart.
Each run's ``correct`` verdict (perfbench's last line) is kept and the
incorrect runs are counted per side; if any run was not correct, the
record is still written, then the script names each such run's argv on
stderr and exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "blas")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> Path:
    """Unpack the committed files of ``rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def export_worktree(dest: Path) -> Path:
    """Copy this checkout's working-tree files, tracked or untracked and not ignored, into ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def source_lines(tree: Path) -> int:
    """Lines of the tree's ``src/sobikit/*.py``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "sobikit").glob("*.py"))


def parse_run(text: str) -> dict:
    """The header fields, metrics, detail block and verdict of one perfbench run."""
    run, detail, result, metrics = None, None, None, {}
    for line in text.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
        elif line.startswith("perfbench: "):
            run = dict(kv.split("=", 1) for kv in line[len("perfbench: "):].split())
        elif line.startswith("perfbench-detail: "):
            detail = json.loads(line[len("perfbench-detail: "):])
        elif run is not None and line.startswith("  ") and " = " in line:
            name, value = line.strip().split(" = ")
            metrics[name] = float(value.split()[0])
    if run is None or detail is None or result is None or not metrics:
        raise ValueError("no perfbench result in the output")
    return {"attempted": int(run["attempted"]), "failed": int(run["failed"]),
            "correct": result["correct"] is True, "metrics": metrics, "detail": detail}


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    load_before = os.getloadavg()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr.strip()}")
    return {**parse_run(proc.stdout), "argv": cmd[1:],
            "loadavg": {"before": load_before, "after": os.getloadavg()}}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(workload: str, seed: int, pairs: int, traced: int, seconds: float,
            trees: dict[str, Path], declared: dict) -> tuple[dict, dict, list[str]]:
    """One workload's record, the environment block of each side, and the
    side and argv of each run that perfbench did not report correct."""
    runs = {side: [] for side in trees}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(trees[side], workload, seed, seconds, 0))
            print(f"{workload} pair {i + 1}/{pairs} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    traces = {side: [] for side in trees}
    for i in range(traced):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            traces[side].append(run_bench(trees[side], workload, seed, seconds, 1))
    out = {"seed": seed, "seconds": seconds, "pairs": pairs, "traced_runs": traced,
           "failed": {s: sum(r["failed"] for r in runs[s] + traces[s]) for s in trees},
           "attempted": {s: sum(r["attempted"] for r in runs[s] + traces[s]) for s in trees},
           "incorrect": {s: sum(not r["correct"] for r in runs[s] + traces[s]) for s in trees},
           "cold_first_op_s": {s: statistics.median(r["detail"]["cold_first_op_s"]
                                                    for r in runs[s]) for s in trees},
           "loadavg": {s: [r["loadavg"] for r in runs[s]] for s in trees},
           "end_to_end": {}, "per_layer": {}}
    for name, better in declared.items():
        vals = {s: [r["metrics"][name] for r in runs[s]] for s in trees}
        sign = 1 if better == "lower" else -1
        out["end_to_end"][name] = {
            "better": better,
            **{s: spread(vals[s]) for s in trees},
            "change_better_pairs": sum(sign * (c - p) < 0
                                       for p, c in zip(vals["parent"], vals["change"])),
        }
    for side in trees:
        names = traces[side][0]["metrics"] if traces[side] else {}
        out["per_layer"][side] = {n: statistics.median(r["metrics"][n] for r in traces[side])
                                  for n in names}
    incorrect = [f"{s}: {' '.join(r['argv'])}" for s in trees
                 for r in runs[s] + traces[s] if not r["correct"]]
    return out, {side: runs[side][0]["detail"]["env"] for side in trees}, incorrect


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--workload", action="append", required=True,
                    help="name:seed:pairs, repeatable")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--traced", type=int, default=2, help="traced runs per side")
    args = ap.parse_args(argv)
    args.workload = [(n, int(s), int(p)) for n, s, p in
                     (w.split(":") for w in args.workload)]
    if any(p < 1 for _, _, p in args.workload) or args.traced < 0 or args.seconds <= 0:
        ap.error("pairs must be at least 1, --traced non-negative, --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["better"] for m in bench["end_to_end"]}
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench").strip())
    doc = {
        "script": "scripts/bench_record.py",
        "argv": sys.argv[1:] if argv is None else argv,
        "parent": {"commit": git("rev-parse", args.parent).decode().strip()},
        "change": {"commit": git("rev-parse", "HEAD").decode().strip(),
                   "uncommitted_changes": dirty},
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workloads": {},
    }
    incorrect = []
    with tempfile.TemporaryDirectory(prefix="bench_") as tmp:
        trees = {"parent": export(args.parent, Path(tmp, "parent")),
                 "change": export_worktree(Path(tmp, "change"))}
        for side, tree in trees.items():
            doc[side]["source_lines"] = source_lines(tree)
        for name, seed, pairs in args.workload:
            doc["workloads"][name], envs, bad = compare(name, seed, pairs, args.traced,
                                                        args.seconds, trees, declared)
            incorrect += bad
    for side, env in envs.items():
        doc[side]["source_sha256"] = env["source_sha256"]
    doc["machine"] = {k: envs["change"][k] for k in MACHINE_KEYS}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for run in incorrect:
        print(f"not correct: {run}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
