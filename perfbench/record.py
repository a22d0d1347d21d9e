"""Record the reference outputs that every benchmark op is checked against.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs every op that any workload seed can send (the whole pool of program
seeds for ``mc_sweep``, every (model, lag set) of ``asv_tables``, the whole
pool of data seeds for ``lagselect``), at every scale, and writes them into
perfbench/reference.json.  Record once from a commit whose outputs are
trusted; a change that claims a speed-up must reproduce them.
"""

from __future__ import annotations

import json
import sys

import run


def record_scale(cli, wl, scale: str) -> dict:
    sc = wl.SCALES[scale]
    ops = {
        "mc_sweep": [wl.mc_op(scale, s) for s in range(sc.mc_pool)],
        "asv_tables": wl.asv_ops(scale),
        "lagselect": [wl.lagselect_op(scale, wl.lagselect_csv(run.WORK, scale, s), s)
                      for s in range(sc.lag_pool)],
    }
    out = {}
    for workload, wops in ops.items():
        out[workload] = {}
        for op in wops:
            rc, text, err = wl.invoke(cli, op.argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(op.argv)} failed: {err.strip()}")
            out[workload][op.key] = wl.parse_output(workload, text)
            print(f"{scale} {workload} {op.key}", file=sys.stderr, flush=True)
    return out


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    import sobikit.cli
    import workloads
    doc = {"recorded_with": run.environment(seed=None)}
    for scale in workloads.SCALES:
        doc[scale] = record_scale(sobikit.cli, workloads, scale)
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
