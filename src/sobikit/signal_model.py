"""Source process specification and simulation.

Latent sources are weakly stationary linear processes with unit variance,
specified as AR, MA, ARMA, or by an explicit MA weight sequence.  Every kind
is reduced to a truncated MA(inf) representation ("psi weights"), which the
asymptotic variance machinery consumes directly and which fixes the exact
unit-variance scaling used by the simulator.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.signal import lfilter

__all__ = [
    "SourceSpec",
    "MAExpansion",
    "MixingModel",
    "expand_to_ma",
    "simulate_sources",
    "mix",
]

_KINDS = ("ma", "ar", "arma", "psi")


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """Specification of one latent source process.

    Parameters
    ----------
    kind : str
        One of ``"ma"``, ``"ar"``, ``"arma"``, ``"psi"``.
    ar : tuple of float
        AR coefficients (phi_1, ..., phi_p'): z_t = sum_i phi_i z_{t-i} + ...
    ma : tuple of float
        MA coefficients (theta_1, ..., theta_q'); a leading unit coefficient
        is implied, i.e. the MA polynomial is 1 + theta_1 B + ... + theta_q B^q.
    psi : tuple of float, optional
        Explicit MA weight sequence (psi_0, psi_1, ...) for ``kind="psi"``;
        no leading coefficient is implied.
    """

    kind: str
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    psi: tuple[float, ...] | None = None

    def __post_init__(self):
        kind = self.kind.lower().replace("explicit-psi", "psi")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(a) for a in self.ma))
        if self.psi is not None:
            object.__setattr__(self, "psi", tuple(float(a) for a in self.psi))
        self.validate()

    def validate(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        for name in ("ar", "ma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} coefficients must be finite")
        if self.kind == "psi":
            if self.psi is None or len(self.psi) == 0:
                raise ValueError("psi kind requires a non-empty psi sequence")
            arr = np.asarray(self.psi, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError("psi sequence must be finite")
            if not np.any(arr != 0.0):
                raise ValueError("psi sequence must not be all zero")
        if self.kind in ("ar", "arma") and len(self.ar) > 0:
            _check_causal(self.ar)

    @classmethod
    def from_dict(cls, d: dict) -> "SourceSpec":
        return cls(
            kind=d["kind"],
            ar=tuple(d.get("ar") or ()),
            ma=tuple(d.get("ma") or ()),
            psi=tuple(d["psi"]) if d.get("psi") is not None else None,
        )


@dataclasses.dataclass(frozen=True)
class MAExpansion:
    """Truncated MA(inf) weights (psi_0, ..., psi_N) of one source, normalized
    to unit variance: sum(psi**2) == 1 within 1e-12."""

    psi: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.psi**2))
        if not abs(total - 1.0) <= 1e-12:  # also fails on nan
            raise ValueError("psi weights are not normalized to unit variance")


@dataclasses.dataclass(frozen=True)
class MixingModel:
    """Mixing transformation x_t = mu + omega @ z_t."""

    omega: np.ndarray
    mu: np.ndarray | None = None

    def __post_init__(self):
        omega = np.atleast_2d(np.asarray(self.omega, dtype=float))
        if omega.shape[0] != omega.shape[1]:
            raise ValueError("omega must be square")
        p = omega.shape[0]
        sv = np.linalg.svd(omega, compute_uv=False)
        if sv[-1] <= 1e-13 * sv[0]:
            raise ValueError("omega is singular or numerically rank deficient")
        mu = np.zeros(p) if self.mu is None else np.asarray(self.mu, dtype=float)
        if mu.shape != (p,):
            raise ValueError("mu must be a length-p vector")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "mu", mu)


def _check_causal(ar: Sequence[float]):
    # roots of 1 - phi_1 z - ... - phi_p' z^p' must lie outside the unit
    # circle, so the reciprocal roots, those of z^p' - phi_1 z^(p'-1) - ...
    # - phi_p', inside it; that polynomial is monic, so a subnormal phi_p'
    # is never a divisor
    roots = np.roots(np.r_[1.0, -np.asarray(ar, dtype=float)])
    if roots.size and np.max(np.abs(roots)) * (1.0 + 1e-10) >= 1.0:
        raise ValueError("not causal")


def _squares(w: np.ndarray) -> tuple[np.ndarray, float]:
    """w**2 and its sum, raising ValueError where the sum leaves the float range."""
    with np.errstate(over="ignore"):
        sq = w**2
        total = sq.sum()
    if not np.isfinite(total):
        raise ValueError("psi weights overflow: the sum of their squares is not finite")
    if total < np.finfo(float).tiny:
        raise ValueError("psi weights underflow: the sum of their squares is below "
                         "the smallest normal float")
    return sq, total


def _expand_raw(spec: SourceSpec, tol: float, max_len: int) -> tuple[np.ndarray, float]:
    """Unnormalized psi weights, truncated to relative tail mass below tol,
    and the root of the sum of their squares."""
    if spec.kind == "psi":
        raw = np.asarray(spec.psi, dtype=float)
    elif spec.kind == "ma" or (spec.kind == "arma" and len(spec.ar) == 0):
        raw = np.r_[1.0, np.asarray(spec.ma, dtype=float)]
    elif spec.kind == "ar" and len(spec.ar) == 0:
        raw = np.array([1.0])
    else:
        raw = _expand_filter(spec, tol, max_len)
    if raw.size > max_len:
        raise ValueError("truncation overflow")
    return raw, np.sqrt(_squares(raw)[1])


def _expand_filter(spec: SourceSpec, tol: float, max_len: int) -> np.ndarray:
    """Impulse response of an AR or ARMA spec, truncated as ``_expand_raw`` says."""
    b = np.r_[1.0, np.asarray(spec.ma, dtype=float)]
    a = np.r_[1.0, -np.asarray(spec.ar, dtype=float)]
    n = max(256, b.size)
    while True:
        impulse = np.zeros(n)
        impulse[0] = 1.0
        psi = lfilter(b, a, impulse)
        sq, total = _squares(psi)
        # tail(N) = mass strictly beyond index N within the buffer, summed
        # from the small end so values far below eps*total stay resolvable;
        # the buffer is long enough once its last tenth holds so little mass
        # that anything beyond it cannot disturb a tol-level truncation
        tail = np.r_[np.cumsum(sq[::-1])[::-1][1:], 0.0]
        if tail[(9 * n) // 10] < 1e-4 * tol * total:
            hits = np.nonzero(tail < tol * total)[0]
            n_keep = hits[0] + 1
            if n_keep > max_len:
                raise ValueError("truncation overflow")
            return psi[:n_keep]
        if n >= max_len:
            raise ValueError("truncation overflow")
        n = min(2 * n, max_len)


def expand_to_ma(spec: SourceSpec, tol: float = 1e-12, max_len: int = 10**5) -> MAExpansion:
    """Compute the truncated, unit-variance MA(inf) weights of a source.

    For AR/MA/ARMA kinds the weights start from psi_0 = 1 before
    normalization and follow psi_j = theta_j + sum_i phi_i psi_{j-i}
    (theta_j = 0 beyond the MA order).  The sequence is truncated at the
    first N whose excluded tail mass is below ``tol`` relative to the total,
    then scaled to unit variance, sum(psi**2) = 1.

    Raises
    ------
    ValueError
        ``"not causal"`` for an AR polynomial with roots on or inside the
        unit circle; ``"truncation overflow"`` when no valid truncation
        point exists within ``max_len`` weights.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    raw, norm = _expand_raw(spec, tol, max_len)
    return MAExpansion(psi=raw / norm)


class _Component(NamedTuple):
    """How one source is made from its row of the innovation array."""

    start: int            # first innovation column the component reads
    discard: int          # warm-up samples dropped from the filter output
    b: np.ndarray         # lfilter numerator, or the normalised psi weights
    a: np.ndarray | None  # lfilter denominator; None for a finite convolution
    norm: float           # root of the sum of squared raw psi weights


class _SourcePlan(NamedTuple):
    pre: int  # innovation columns drawn before the first kept time point
    components: tuple[_Component, ...]


def _plan_sources(specs, burn_in=2000, tol=1e-12, max_len=10**5) -> _SourcePlan:
    """The part of ``simulate_sources`` that depends on neither T nor the seed."""
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    specs = list(specs)
    if not specs:
        raise ValueError("at least one source spec is required")
    parts = []  # (warm-up columns, then the _Component fields after ``start``)
    for s in specs:
        raw, norm = _expand_raw(s, tol, max_len)
        if s.kind in ("ar", "arma") and len(s.ar) > 0:
            b = np.r_[1.0, np.asarray(s.ma, dtype=float)]
            a = np.r_[1.0, -np.asarray(s.ar, dtype=float)]
            parts.append((burn_in, burn_in, b, a, norm))
        else:
            parts.append((raw.size - 1, 0, raw / norm, None, norm))
    pre = max(part[0] for part in parts)
    return _SourcePlan(pre, tuple(_Component(pre - warm, *rest) for warm, *rest in parts))


def _filter_sources(plan: _SourcePlan, eps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (p x T) with the sources that ``plan`` makes of the
    innovations ``eps`` (p x (plan.pre + T))."""
    for i, c in enumerate(plan.components):
        e = eps[i, c.start:]
        if c.a is None:
            out[i] = np.convolve(e, c.b, mode="valid")
        else:
            np.divide(lfilter(c.b, c.a, e)[c.discard:], c.norm, out=out[i])
    return out


def simulate_sources(
    specs: Sequence[SourceSpec],
    T: int,
    seed,
    burn_in: int = 2000,
    innovations: Callable[[np.random.Generator, tuple], np.ndarray] | None = None,
    tol: float = 1e-12,
    max_len: int = 10**5,
) -> np.ndarray:
    """Simulate a p x T matrix of mutually independent unit-variance sources.

    Each component is driven by its own row of a common innovation array, so
    innovations are aligned in time across components.  AR/ARMA kinds run
    their exact recursion and discard ``burn_in`` warm-up samples before
    rescaling by the variance of the full MA(inf) representation; MA and
    explicit-psi kinds are finite convolutions with the normalized weights
    and need only the weight-support warm-up.

    Parameters
    ----------
    innovations : callable, optional
        Hook drawing the innovation array: called as ``innovations(rng,
        shape)`` and expected to return standardized draws with finite
        fourth moments.  Defaults to standard normal.  Because all
        components consume columns of one common array, a hook returning
        cross-sectionally dependent columns exercises non-trivial
        fourth-moment structure.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    plan = _plan_sources(specs, burn_in, tol, max_len)
    shape = (len(plan.components), plan.pre + T)
    rng = np.random.default_rng(seed)
    if innovations is None:
        eps = rng.standard_normal(shape)
    else:
        eps = np.asarray(innovations(rng, shape), dtype=float)
        if eps.shape != shape:
            raise ValueError("innovation hook returned a wrong shape")
    return _filter_sources(plan, eps, np.empty((shape[0], T)))


def mix(z: np.ndarray, model: MixingModel) -> np.ndarray:
    """Apply x_t = mu + omega @ z_t column by column."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[0] != model.omega.shape[0]:
        raise ValueError("dimension mismatch between series and mixing model")
    return model.omega @ z + model.mu[:, None]
