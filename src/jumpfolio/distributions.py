"""Jump-size (mark) distributions.

Each distribution knows how to sample, evaluate its moment generating
function on its analytic domain, and integrate arbitrary integrands
against itself (adaptive quadrature for the continuous families, exact
weighted sums for the discrete/tabulated ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .errors import ConfigError, DomainError, QuadratureError

QUAD_ABS_TOL = 1e-10


class JumpDistribution:
    """Base class for mark laws F(dy)."""

    def sample(self, n, rng):
        raise NotImplementedError

    def mgf_domain(self):
        """Open interval (lo, hi) on which E[exp(sY)] is finite."""
        raise NotImplementedError

    def mgf(self, s):
        """E[exp(sY)]; raises DomainError outside the analytic domain."""
        lo, hi = self.mgf_domain()
        if not (lo < s < hi) and s != 0.0:
            raise DomainError(
                f"mgf argument s={s} outside analytic domain ({lo}, {hi})"
            )
        return self._mgf(s)

    def _mgf(self, s):
        raise NotImplementedError

    def expect(self, integrand, tol=QUAD_ABS_TOL):
        """Integral of integrand(y) against F(dy)."""
        raise NotImplementedError

    def support(self):
        """Essential support endpoints (y_min, y_max), possibly infinite."""
        raise NotImplementedError

    @property
    def mean(self):
        return self.expect(lambda y: y)


def _quad(fn, a, b, tol=QUAD_ABS_TOL):
    result, err = integrate.quad(fn, a, b, epsabs=tol, limit=500)
    # accept roundoff-limited estimates as long as they are small relative
    # to the integral itself
    if err > max(tol, 1e-7 * abs(result)):
        raise QuadratureError(
            f"quadrature reached abs error {err:.3e} (target {tol:.0e})",
            estimate=result,
            achieved_tol=err,
        )
    return result


@dataclass(frozen=True)
class ExponentialPositive(JumpDistribution):
    """Y ~ Exponential(rate), all mass on y >= 0."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ConfigError("rate must be positive", field="rate")

    def sample(self, n, rng):
        return rng.exponential(scale=1.0 / self.rate, size=n)

    def mgf_domain(self):
        return (-np.inf, self.rate)

    def _mgf(self, s):
        return self.rate / (self.rate - s)

    def expect(self, integrand, tol=QUAD_ABS_TOL):
        # truncate where the density underflows; the tail is exactly 0 in floats
        a = self.rate
        y_cut = 746.0 / a
        return _quad(lambda y: integrand(y) * a * np.exp(-a * y), 0.0, y_cut, tol=tol)

    def support(self):
        return (0.0, np.inf)


@dataclass(frozen=True)
class ExponentialNegative(JumpDistribution):
    """-Y ~ Exponential(rate), all mass on y <= 0."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ConfigError("rate must be positive", field="rate")

    def sample(self, n, rng):
        return -rng.exponential(scale=1.0 / self.rate, size=n)

    def mgf_domain(self):
        return (-self.rate, np.inf)

    def _mgf(self, s):
        return self.rate / (self.rate + s)

    def expect(self, integrand, tol=QUAD_ABS_TOL):
        a = self.rate
        y_cut = -746.0 / a
        return _quad(lambda y: integrand(y) * a * np.exp(a * y), y_cut, 0.0, tol=tol)

    def support(self):
        return (-np.inf, 0.0)


@dataclass(frozen=True)
class TwoPoint(JumpDistribution):
    """Two-atom law: y_hi with probability p_hi, else y_lo."""

    y_lo: float
    y_hi: float
    p_hi: float

    def __post_init__(self):
        if not 0.0 <= self.p_hi <= 1.0:
            raise ConfigError("p_hi must lie in [0, 1]", field="p_hi")

    def sample(self, n, rng):
        hi = rng.random(n) < self.p_hi
        return np.where(hi, self.y_hi, self.y_lo)

    def mgf_domain(self):
        return (-np.inf, np.inf)

    def _mgf(self, s):
        return (1.0 - self.p_hi) * np.exp(s * self.y_lo) + self.p_hi * np.exp(
            s * self.y_hi
        )

    def expect(self, integrand, tol=QUAD_ABS_TOL):
        return (1.0 - self.p_hi) * integrand(self.y_lo) + self.p_hi * integrand(
            self.y_hi
        )

    def support(self):
        if self.p_hi == 1.0:
            return (self.y_hi, self.y_hi)
        if self.p_hi == 0.0:
            return (self.y_lo, self.y_lo)
        return (min(self.y_lo, self.y_hi), max(self.y_lo, self.y_hi))


@dataclass(frozen=True, eq=False)
class Tabulated(JumpDistribution):
    """Density samples on a user grid, integrated by the trapezoid rule.

    The grid is used as supplied -- no re-interpolation.  The trapezoid
    integral of the density over the grid must equal 1 to within 1e-9.
    Equality and hashing are by identity (the fields are arrays).
    """

    grid: np.ndarray
    density: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
            raise ConfigError("grid and density must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(grid) <= 0):
            raise ConfigError("grid must be strictly increasing", field="grid")
        if np.any(density < 0):
            raise ConfigError("density values must be nonnegative", field="density")
        total = np.trapezoid(density, grid)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"density integrates to {total!r}, not 1 (tolerance 1e-9)",
                field="density",
            )
        # piecewise-linear CDF at the grid nodes, for inverse-CDF sampling
        seg = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)

    def sample(self, n, rng):
        u = rng.random(n)
        idx = np.clip(np.searchsorted(self._cdf, u, side="right"), 1, len(self.grid) - 1)
        c0 = self._cdf[idx - 1]
        c1 = self._cdf[idx]
        w = np.where(c1 > c0, (u - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
        return self.grid[idx - 1] + w * (self.grid[idx] - self.grid[idx - 1])

    def mgf_domain(self):
        return (-np.inf, np.inf)

    def _mgf(self, s):
        return self.expect(lambda y: np.exp(s * y))

    def expect(self, integrand, tol=QUAD_ABS_TOL):
        values = np.array([integrand(y) for y in self.grid], dtype=float)
        return float(np.trapezoid(values * self.density, self.grid))

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))
