"""Margin payment functions, portfolio constraint sets and their convex conjugate.

Every margin model is a concave piecewise-linear function with g(0) = 0,
stored as its kink locations and the slopes between them.  The conjugate
sup_{pi in K} [g(pi) - pi*zeta] of such a function is attained at a kink
or a constraint endpoint, so it is evaluated exactly; unboundedness is
decided by comparing zeta with the outermost slopes, never by numeric
search.  Infinite conjugate values are returned as ``math.inf``, which
callers must treat as "outside the effective domain", not as an error.
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
        if self.lower > self.upper:
            raise ConfigError("constraint interval is empty")

    def contains(self, pi):
        return self.lower <= pi <= self.upper


NO_SHORTING = ConstraintSet(0.0, math.inf)
NO_BORROWING = ConstraintSet(-math.inf, 1.0)


class MarginModel:
    """Concave piecewise-linear cash-outflow term g(pi) with g(0) = 0.

    Subclasses define ``breakpoints`` (sorted kink locations) and
    ``slopes`` (one more entry than breakpoints, nonincreasing).
    """

    breakpoints: tuple
    slopes: tuple

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

    def canonical_constraint(self) -> ConstraintSet:
        """Constraint set the model is usually paired with."""
        return ConstraintSet()


@dataclass(frozen=True)
class Frictionless(MarginModel):
    """g identically zero."""

    breakpoints: tuple = ()
    slopes: tuple = (0.0,)


@dataclass(frozen=True)
class DifferentialRates(MarginModel):
    """Borrowing above the lending rate: g(pi) = -(R - r) * (pi - 1)^+."""

    r: float
    R: float

    def __post_init__(self):
        if self.R < self.r:
            raise ConfigError("borrowing rate R must be >= lending rate r", field="R")

    @property
    def breakpoints(self):
        return (1.0,)

    @property
    def slopes(self):
        return (0.0, -(self.R - self.r))

    def canonical_constraint(self):
        return NO_SHORTING


@dataclass(frozen=True)
class ShortRebate(MarginModel):
    """Short positions pay the stock-loan fee: g(pi) = (r - rL) * pi^-."""

    r: float
    rL: float

    def __post_init__(self):
        if self.rL < self.r:
            raise ConfigError("stock loan fee rL must be >= rate r", field="rL")

    @property
    def breakpoints(self):
        return (0.0,)

    @property
    def slopes(self):
        return (self.rL - self.r, 0.0)

    def canonical_constraint(self):
        return NO_BORROWING


@dataclass(frozen=True)
class PiecewiseLinearConcave(MarginModel):
    """User-specified kinks and slopes; slopes must be nonincreasing."""

    breakpoints: tuple
    slopes: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        sl = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        if len(sl) != len(bp) + 1:
            raise ConfigError("need exactly one slope more than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        if any(s2 > s1 + 1e-15 for s1, s2 in zip(sl, sl[1:])):
            raise ConfigError("slopes must be nonincreasing (concavity)")


def conjugate_gk(model: MarginModel, K: ConstraintSet, zeta: float) -> float:
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


def effective_domain(model: MarginModel, K: ConstraintSet):
    """Closed interval of zeta on which the conjugate is finite.

    For pi -> +inf the objective slope is slopes[-1] - zeta, so an upper
    unbounded K forces zeta >= slopes[-1]; symmetrically below.
    """
    lo = model.slopes[-1] if math.isinf(K.upper) else -math.inf
    hi = model.slopes[0] if math.isinf(K.lower) else math.inf
    return (lo, hi)
