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

__all__ = [
    "SourceSpec",
    "MAExpansion",
    "MixingModel",
    "expand_to_ma",
    "simulate_sources",
    "mix",
]

# each kind and the coefficient fields it takes
_FIELDS = {"ma": ("ma",), "ar": ("ar",), "arma": ("ar", "ma"), "psi": ("psi",)}
# an expansion keeps weights until the tail beyond holds below _TAIL_TOL of
# the total squared mass, and at most _MAX_LEN of them
_TAIL_TOL = 1e-12
_MAX_LEN = 10**5
# warm-up samples an AR/ARMA recursion runs before the kept ones
_BURN_IN = 2000


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """Specification of one latent source process.

    Parameters
    ----------
    kind : str
        One of ``"ma"``, ``"ar"``, ``"arma"``, ``"psi"``.
    ar : tuple of float
        AR coefficients (phi_1, ..., phi_p'): z_t = sum_i phi_i z_{t-i} + ...
        for the ``"ar"`` and ``"arma"`` kinds.
    ma : tuple of float
        MA coefficients (theta_1, ..., theta_q') for the ``"ma"`` and
        ``"arma"`` kinds; a leading unit coefficient is implied, i.e. the MA
        polynomial is 1 + theta_1 B + ... + theta_q B^q.
    psi : tuple of float, optional
        Explicit MA weight sequence (psi_0, psi_1, ...) for ``kind="psi"``;
        no leading coefficient is implied.  A kind given a field it does not
        take raises ``ValueError``.
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
        if self.kind not in _FIELDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        for name in ("ar", "ma", "psi"):
            if getattr(self, name) and name not in _FIELDS[self.kind]:
                raise ValueError(f"kind {self.kind!r} takes no {name} coefficients")
        for name in ("ar", "ma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} coefficients must be finite")
        if self.kind == "psi":
            if not self.psi:
                raise ValueError("psi kind requires a non-empty psi sequence")
            if not np.all(np.isfinite(self.psi)):
                raise ValueError("psi sequence must be finite")
            if not any(self.psi):
                raise ValueError("psi sequence must not be all zero")
        if self.ar:
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
        total = float((self.psi**2).sum())
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


def _expand_raw(spec: SourceSpec) -> tuple[np.ndarray, float]:
    """Unnormalized psi weights and the root of the sum of their squares,
    each weight squared and summed once.  An AR or ARMA spec's weights are
    its impulse response, truncated to relative tail mass below ``_TAIL_TOL``."""
    if not spec.ar:
        raw = np.asarray(spec.psi, dtype=float) if spec.psi else np.array((1.0, *spec.ma))
        if raw.size > _MAX_LEN:
            raise ValueError("truncation overflow")
        return raw, np.sqrt(_squares(raw)[1])
    from scipy.signal import lfilter  # imported on use: scipy.signal is slow to import
    b, a = _filter_coefs(spec)
    n = max(256, b.size)
    while True:
        impulse = np.zeros(n)
        impulse[0] = 1.0
        psi = lfilter(b, a, impulse)
        sq, total = _squares(psi)
        # rest[N] = mass from index N on within the buffer, summed from the
        # small end so values far below eps*total stay resolvable; the
        # buffer is long enough once its last tenth holds so little mass
        # that anything beyond it cannot disturb a _TAIL_TOL-level truncation
        rest = np.cumsum(sq[::-1])[::-1]
        if rest[(9 * n) // 10 + 1] < 1e-4 * _TAIL_TOL * total:
            n_keep = np.argmax(rest < _TAIL_TOL * total)  # rest[0] is about total
            if n_keep > _MAX_LEN:
                raise ValueError("truncation overflow")
            return psi[:n_keep], np.sqrt(sq[:n_keep].sum())
        if n >= _MAX_LEN:
            raise ValueError("truncation overflow")
        n = min(2 * n, _MAX_LEN)


def _filter_coefs(spec: SourceSpec) -> tuple[np.ndarray, np.ndarray]:
    return np.array((1.0, *spec.ma)), np.array((1.0, *(-a for a in spec.ar)))


def expand_to_ma(spec: SourceSpec) -> MAExpansion:
    """Compute the truncated, unit-variance MA(inf) weights of a source.

    For AR/MA/ARMA kinds the weights start from psi_0 = 1 before
    normalization and follow psi_j = theta_j + sum_i phi_i psi_{j-i}
    (theta_j = 0 beyond the MA order).  The sequence is truncated at the
    first N whose excluded tail mass is below ``_TAIL_TOL`` (1e-12) of the
    total, then scaled to unit variance, sum(psi**2) = 1.

    Raises
    ------
    ValueError
        ``"not causal"`` for an AR polynomial with roots on or inside the
        unit circle; ``"truncation overflow"`` when no valid truncation
        point exists within ``_MAX_LEN`` (10^5) weights.
    """
    raw, norm = _expand_raw(spec)
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


def _plan_sources(specs) -> _SourcePlan:
    """The part of ``simulate_sources`` that depends on neither T nor the seed."""
    specs = list(specs)
    if not specs:
        raise ValueError("at least one source spec is required")
    parts = []  # (warm-up columns, then the _Component fields after ``start``)
    for s in specs:
        raw, norm = _expand_raw(s)
        if s.ar:
            parts.append((_BURN_IN, _BURN_IN, *_filter_coefs(s), norm))
        else:
            parts.append((raw.size - 1, 0, raw / norm, None, norm))
    pre = max(part[0] for part in parts)
    return _SourcePlan(pre, tuple(_Component(pre - warm, *rest) for warm, *rest in parts))


def _filter_sources(plan: _SourcePlan, eps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (p x T) with the sources that ``plan`` makes of the
    innovations ``eps`` (p x (plan.pre + T))."""
    from scipy.signal import lfilter
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
    innovations: Callable[[np.random.Generator, tuple], np.ndarray] | None = None,
) -> np.ndarray:
    """Simulate a p x T matrix of mutually independent unit-variance sources.

    Each component is driven by its own row of a common innovation array, so
    innovations are aligned in time across components.  AR/ARMA kinds run
    their exact recursion through a fixed warm-up of ``_BURN_IN`` (2000)
    discarded samples, then rescale by the variance of the full MA(inf)
    representation; MA and explicit-psi kinds are finite convolutions with
    the normalized weights and need only the weight-support warm-up.

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
    plan = _plan_sources(specs)
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
