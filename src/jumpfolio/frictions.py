"""Margin payment functions, portfolio constraint sets and their convex conjugate.

A margin is one concave piecewise-linear function g with g(0) = 0,
``PiecewiseLinearConcave``, stored as its kink locations and the slopes
between them.  Both frictions of the model are such a g (Cvitanic and
Karatzas 1992): differential borrowing and lending rates put a kink at
pi = 1, short positions with a negative rebate a kink at pi = 0, and
holding both puts one at each.  Named constructors build the shipped
margins: ``frictionless()``, ``differential_rates(r, R)`` and
``short_rebate(r, rL)``.

The conjugate sup_{pi in K} [g(pi) - pi*zeta] of such a function is
attained at a kink or a constraint endpoint, so it is evaluated exactly;
unboundedness is decided by comparing zeta with the outermost slopes,
never by numeric search.  Infinite conjugate values are returned as
``math.inf``, which callers must treat as "outside the effective
domain", not as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ConstraintSet:
    """Closed interval [lower, upper] of admissible portfolio weights, 0 inside."""

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ConfigError("constraint interval must contain 0")

    def contains(self, pi):
        return self.lower <= pi <= self.upper


NO_SHORTING = ConstraintSet(0.0, math.inf)
NO_BORROWING = ConstraintSet(-math.inf, 1.0)


def _check_rates(r, name, rate, what, below):
    """r and the margin's rate, name, are finite, and that rate is not below r."""
    for field, value, label in (("r", r, "r"), (name, rate, f"{what} {name}")):
        if not math.isfinite(value):
            raise ConfigError(f"{label} = {value} must be finite", field=field)
    if rate < r:
        raise ConfigError(f"{what} {name} = {rate} is below {below} r = {r}", field=name)


@dataclass(frozen=True)
class PiecewiseLinearConcave:
    """Concave piecewise-linear cash-outflow term g(pi) with g(0) = 0:
    ``breakpoints`` are the kink locations, strictly increasing, and
    ``slopes`` the slopes between them, one more and nonincreasing."""

    breakpoints: tuple
    slopes: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        sl = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        if len(sl) != len(bp) + 1:
            raise ConfigError("need exactly one slope more than breakpoints")
        if not all(map(math.isfinite, bp + sl)):
            raise ConfigError("breakpoints and slopes must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        if any(s2 > s1 for s1, s2 in zip(sl, sl[1:])):
            raise ConfigError("slopes must be nonincreasing (concavity)")

    @classmethod
    def frictionless(cls) -> PiecewiseLinearConcave:
        """g identically zero."""
        return cls((), (0.0,))

    @classmethod
    def differential_rates(cls, r, R) -> PiecewiseLinearConcave:
        """Borrowing above the lending rate: g(pi) = -(R - r) * (pi - 1)^+."""
        _check_rates(r, "R", R, "borrowing rate", "the lending rate")
        return cls((1.0,), (0.0, -(R - r)))

    @classmethod
    def short_rebate(cls, r, rL) -> PiecewiseLinearConcave:
        """Short positions pay the stock-loan fee: g(pi) = (r - rL) * pi^-."""
        _check_rates(r, "rL", rL, "stock loan fee", "the rate")
        return cls((0.0,), (rL - r, 0.0))

    def g(self, pi):
        """Exact piecewise-linear evaluation, anchored at g(0) = 0, of a scalar
        (returns a float) or an array: the sum in piece order of
        s_k * (clip(pi) - clip(0)), clipped to piece k's span [b_{k-1}, b_k]."""
        edges = np.concatenate(([-np.inf], self.breakpoints, [np.inf]))
        lo, hi = edges[:-1], edges[1:]
        x = np.asarray(pi, dtype=float)[..., None]
        spans = np.minimum(np.maximum(x, lo), hi) - np.minimum(np.maximum(0.0, lo), hi)
        value = np.sum(spans * np.asarray(self.slopes), axis=-1)
        return float(value) if value.ndim == 0 else value


def conjugate_gk(model: PiecewiseLinearConcave, K: ConstraintSet, zeta: float) -> float:
    """sup over pi in K of g(pi) - pi*zeta; math.inf outside the effective domain."""
    lo, hi = effective_domain(model, K)
    if zeta < lo or zeta > hi:
        return math.inf
    candidates = [0.0]
    candidates += [b for b in model.breakpoints if K.contains(b)]
    if math.isfinite(K.lower):
        candidates.append(K.lower)
    if math.isfinite(K.upper):
        candidates.append(K.upper)
    return max(model.g(p) - p * zeta for p in candidates)


def effective_domain(model: PiecewiseLinearConcave, K: ConstraintSet):
    """Closed interval of zeta on which the conjugate is finite.

    For pi -> +inf the objective slope is slopes[-1] - zeta, so an upper
    unbounded K forces zeta >= slopes[-1]; symmetrically below.
    """
    lo = model.slopes[-1] if math.isinf(K.upper) else -math.inf
    hi = model.slopes[0] if math.isinf(K.lower) else math.inf
    return (lo, hi)
