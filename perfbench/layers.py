"""Per-layer tracing by wrapping the public functions of sobikit from outside.

Each wrapped function is replaced in every ``sobikit`` module namespace that
binds it, because that is where its callers look it up (``sobikit.cli``
binds ``simulate_sources`` at import, ``sobikit.joint_diag`` binds
``whitener``, and the ``asv_*`` assemblers call the module global ``dlm``).
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.

A wrapped call's self time is its inclusive time minus the inclusive time of
the wrapped calls made inside it.  ``cli.main`` is the root: its self time
is the command time spent outside every other wrapped call.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

import numpy as np


def _flop_computed(args, kwargs, result) -> int:
    """sum over lag 0 and the analysis lags of 2 p^2 (T - k), as computed."""
    x = args[0] if args else kwargs["x"]
    lags = args[1] if len(args) > 1 else kwargs["lags"]
    p, T = np.atleast_2d(np.asarray(x)).shape
    return sum(2 * p * p * (T - k) for k in (0, *lags))


def _iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _nonconverged(args, kwargs, result) -> int:
    return int(not result.converged)


# (layer, function, {counter: extractor}); the order is the report order.
LAYER_FUNCTIONS = (
    ("signal_model", "simulate_sources", {}),
    ("signal_model", "expand_to_ma", {}),
    ("autocovariance", "autocov_set", {"flop_computed": _flop_computed}),
    ("autocovariance", "whitener", {}),
    ("autocovariance", "autocorrelations", {}),
    ("joint_diag", "sobi_deflation",
     {"iterations": _iterations, "nonconverged": _nonconverged}),
    ("joint_diag", "sobi_symmetric_jacobi",
     {"iterations": _iterations, "nonconverged": _nonconverged}),
    ("joint_diag", "estimating_residual", {}),
    ("metrics", "mdi", {}),
    ("asymptotics", "build_model", {}),
    ("asymptotics", "asv_deflation", {}),
    ("asymptotics", "asv_symmetric", {}),
    ("asymptotics", "dlm", {}),
    ("asymptotics", "empirical_asv", {}),
)

COUNTER_UNITS = {"calls": "count", "iterations": "count", "nonconverged": "count",
                 "flop_computed": "flop"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-function metric, in report order."""
    out = [("cli.self_s", "s")]
    for layer, fn, extra in LAYER_FUNCTIONS:
        base = f"{layer}.{fn}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        out += [(f"{base}.{c}", COUNTER_UNITS[c]) for c in extra]
    return out


@dataclasses.dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counters: dict = dataclasses.field(default_factory=dict)


class Tracer:
    """Installs timing wrappers on the sobikit functions named above."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child = [0.0]   # inclusive time of wrapped children, per open frame
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.stats = {"cli": Stat()}
        for layer, fn, _ in LAYER_FUNCTIONS:
            self.stats[f"{layer}.{fn}"] = Stat()

    def _wrap(self, name: str, fn, extract: dict):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = tracer._child.pop()
                tracer._child[-1] += dt
                st = tracer.stats[name]
                st.calls += 1
                st.self_s += dt - child
            for counter, get in extract.items():
                st.counters[counter] = st.counters.get(counter, 0) + get(args, kwargs, result)
            return result

        return wrapper

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sobikit" or n.startswith("sobikit."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        self.missing = []
        targets = [("cli", sys.modules["sobikit.cli"].main, {})]
        for layer, fn, extract in LAYER_FUNCTIONS:
            mod = sys.modules.get(f"sobikit.{layer}")
            original = getattr(mod, fn, None)
            if original is None:
                self.missing.append(f"{layer}.{fn}")
                continue
            targets.append((f"{layer}.{fn}", original, extract))
        modules = self._modules()
        for name, original, extract in targets:
            wrapper = self._wrap(name, original, extract)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def snapshot(self) -> dict[str, float]:
        """Metric name -> value for the calls recorded since ``install``."""
        out = {"cli.self_s": self.stats["cli"].self_s}
        for layer, fn, extract in LAYER_FUNCTIONS:
            base = f"{layer}.{fn}"
            st = self.stats[base]
            out[f"{base}.calls"] = st.calls
            out[f"{base}.self_s"] = st.self_s
            for counter in extract:
                out[f"{base}.{counter}"] = st.counters.get(counter, 0)
        return out
