"""sobikit benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Workloads are ``mc_sweep``, ``asv_tables`` and ``lagselect`` (see
perfbench/README.md).  The program is imported from ``src/`` of the checkout
and called in process through ``sobikit.cli.main(argv)``, one op at a time
(a closed loop with one client).  Every op's output is checked against
``perfbench/reference.json``.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A line before it, starting ``perfbench-detail:``, holds the
environment block, sample counts and any failures.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("mc_sweep", "asv_tables", "lagselect")
SETUP_REPEATS = 5      # setup_s is the median of this many fresh-process setups
MIN_TRACED_PASSES = 2  # counts must repeat between passes of one run
MAX_FAILURES_SHOWN = 5


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no reference)."""


@dataclasses.dataclass
class Setup:
    cli: object
    plan: object
    reference: dict
    seconds: float


def setup(workload: str, scale: str, seed: int) -> Setup:
    """Import sobikit from the checkout and generate the workload's inputs."""
    t0 = perf_counter()
    if not (SRC / "sobikit" / "__init__.py").is_file():
        raise SetupError(f"no sobikit sources under {SRC}")
    if not REFERENCE.is_file():
        raise SetupError(f"missing {REFERENCE}")
    sys.path.insert(0, str(SRC))
    import sobikit
    import sobikit.cli
    if Path(sobikit.__file__).resolve().parent != (SRC / "sobikit").resolve():
        raise SetupError(f"imported sobikit from {sobikit.__file__}, not {SRC}")
    import workloads
    reference = json.loads(REFERENCE.read_text())[scale][workload]
    WORK.mkdir(exist_ok=True)
    plan = workloads.make_plan(workload, scale, seed, WORK)
    return Setup(sobikit.cli, plan, reference, perf_counter() - t0)


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"setup in a fresh process failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# --------------------------------------------------------------- ops

@dataclasses.dataclass
class Outcome:
    argv: tuple
    latency_s: float
    replications: int
    traced: bool
    error: str = ""


class Runner:
    """Runs ops one after another and checks each against the reference."""

    def __init__(self, s: Setup):
        import workloads
        self.wl = workloads
        self.cli = s.cli
        self.workload = s.plan.workload
        self.reference = s.reference
        self.outcomes: list[Outcome] = []
        self.traced = False

    def run(self, op) -> float:
        t0 = perf_counter()
        try:
            rc, out, err = self.wl.invoke(self.cli, op.argv)
        except Exception as exc:  # any exception is a failed op, not a harness crash
            dt = perf_counter() - t0
            self.outcomes.append(Outcome(op.argv, dt, 0, self.traced,
                                         f"{type(exc).__name__}: {exc}"))
            return dt
        dt = perf_counter() - t0
        error = ""
        if rc != 0:
            error = f"exit code {rc}: {err.strip()[:200]}"
        elif op.key not in self.reference:
            error = f"no reference output for key {op.key!r}"
        else:
            try:
                got = self.wl.parse_output(self.workload, out)
            except (ValueError, IndexError) as exc:
                got, error = None, f"unparsable output: {exc}"
            if not error and not self.wl.same(got, self.reference[op.key]):
                error = "output differs from the reference"
        self.outcomes.append(Outcome(op.argv, dt, 0 if error else op.replications,
                                     self.traced, error))
        return dt

    def pass_(self, ops) -> float:
        return sum(self.run(op) for op in ops)

    def failures(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def timed_phase(runner: Runner, plan, seconds: float) -> dict:
    """Closed loop: whole units until the next one would overrun."""
    first = len(runner.outcomes)
    units = []
    t0 = perf_counter()
    while True:
        units.append(runner.pass_(plan.unit))
        if perf_counter() - t0 + statistics.mean(units) > seconds:
            break
    wall = perf_counter() - t0
    done = runner.outcomes[first:]
    lat_ms = [o.latency_s * 1e3 for o in done]
    by_argv: dict[tuple, list[float]] = {}
    for o in done:
        by_argv.setdefault(o.argv, []).append(o.latency_s * 1e3)
    n = len(lat_ms)
    return {
        "wall_s": wall,
        "ops": sum(o.replications for o in done),
        "latency_samples": n,
        "distinct_ops": len(by_argv),
        "samples_beyond_p90": n - math.ceil(0.9 * n),
        # Median over distinct invocations of each one's median latency.  The
        # pooled median of asv_tables' 12 equally weighted invocations falls in
        # the gap between the 6th and 7th and jumps from run to run; this one
        # does not, and it equals the pooled median when each invocation runs
        # once (mc_sweep's window) or all are the same (lagselect).
        "op_ms_p50": statistics.median(statistics.median(v) for v in by_argv.values()),
        "op_ms_p90": percentile(lat_ms, 0.9),
    }


def traced_phase(runner: Runner, plan, seconds: float):
    """Pairs of untraced and traced passes over the plan's cycle."""
    from layers import Tracer
    tracer = Tracer()
    untraced, traced, snaps = [], [], []

    def untraced_pass():
        untraced.append(runner.pass_(plan.cycle))

    def traced_pass():
        tracer.install()
        runner.traced = True
        try:
            traced.append(runner.pass_(plan.cycle))
        finally:
            runner.traced = False
            tracer.uninstall()
        snaps.append(tracer.snapshot())

    t0 = perf_counter()
    while len(traced) < MIN_TRACED_PASSES or (
            perf_counter() - t0 + statistics.mean(untraced) + statistics.mean(traced)
            <= seconds):
        # alternate the order so that drift in machine speed does not bias the ratio
        order = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (
            traced_pass, untraced_pass)
        for step in order:
            step()
    return tracer, untraced, traced, snaps


def layer_metrics(untraced, traced, snaps, cold_s, warm_same_op_s):
    from layers import COUNTER_UNITS, metric_names
    metrics, nondeterministic = {}, []
    for name, unit in metric_names():
        values = [snap[name] for snap in snaps]
        if unit in COUNTER_UNITS.values():
            if any(v != values[0] for v in values):
                nondeterministic.append(name)
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["cold.first_op_s"] = (cold_s, "s")
    metrics["cold.first_op_ratio"] = (cold_s / warm_same_op_s, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       "ratio")
    metrics["trace.op_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.self_sum_s"] = (statistics.median(
        sum(v for n, v in snap.items() if n.endswith("self_s")) for snap in snaps), "s")
    return metrics, nondeterministic


# --------------------------------------------------------------- environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    import numpy
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        cfg = {}
    threads = None
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"name": cfg.get("name", "unknown"), "version": cfg.get("version", "unknown"),
            "threads": threads}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of src/sobikit, which identifies the program where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sobikit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


# --------------------------------------------------------------- main

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the set-up time (used for setup_s)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        s = setup(args.workload, args.scale, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": s.seconds}))
            return 0
        setup_samples = [s.seconds]
        if not args.trace:
            setup_samples += [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    runner = Runner(s)
    plan = s.plan
    cold_s = runner.run(plan.first)   # first op of the process, kept out of warm figures
    detail = {"workload": args.workload, "scale": args.scale, "trace": args.trace,
              "cold_first_op_s": cold_s, "env": environment(args.seed)}
    nondeterministic = []
    if args.trace:
        tracer, untraced, traced, snaps = traced_phase(runner, plan, args.seconds)
        warm = [o.latency_s for o in runner.outcomes[1:]
                if o.argv == plan.first.argv and not o.traced]
        metrics, nondeterministic = layer_metrics(
            untraced, traced, snaps, cold_s, statistics.median(warm))
        detail.update(traced_passes=len(traced), unwrapped=tracer.missing,
                      nondeterministic_counts=nondeterministic)
    else:
        t = timed_phase(runner, plan, args.seconds)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (t["ops"] / t["wall_s"], "1/s"),
            "op_ms_p50": (t["op_ms_p50"], "ms"),
            "op_ms_p90": (t["op_ms_p90"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(setup_samples_s=setup_samples, timed_wall_s=t["wall_s"],
                      latency_samples=t["latency_samples"], distinct_ops=t["distinct_ops"],
                      samples_beyond_p90=t["samples_beyond_p90"])

    failures = runner.failures()
    attempted = len(runner.outcomes)
    detail["fail_ratio"] = len(failures) / attempted
    detail["failures"] = [{"argv": list(o.argv), "error": o.error}
                          for o in failures[:MAX_FAILURES_SHOWN]]
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} attempted={attempted} failed={len(failures)} "
          f"fail_ratio={detail['fail_ratio']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("perfbench-detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures and not nondeterministic,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
