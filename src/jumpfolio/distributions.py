"""Jump-size (mark) distributions.

Each distribution samples itself and builds its quadrature rule once:
a composite Gauss-Legendre rule for the exponential families, the exact
atom sum for ``TwoPoint``, and the trapezoid sum for ``Tabulated``.  The
Gauss-Legendre rules come from stored tables, so no command imports
``numpy.polynomial`` or solves an eigenvalue problem for them.  The
one ``JumpDistribution.expect`` integrates against every rule, and the
MGF is ``expect`` of e^{sY} where a law has no closed form.

Integrands are numpy-vectorised: called with an array of marks they
return one value per mark, or a (k, marks) array for k integrals at once.
``expect`` meets its absolute tolerance, or raises ``QuadratureError``:
the rule's result is compared with its coarse rule, the last panel's
share bounds the truncated tail, and a non-finite integrand value at any
node is refused.  Below the rounding floor ``ROUNDING_FLOOR * int
|integrand|`` no tolerance is attainable, so that floor is the only
relaxation of ``tol``.  The two-point rule is exact; the tabulated rule
has no error estimate (its coarse rule is its fine one) until it
integrates the interpolated density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, QuadratureError

QUAD_ABS_TOL = 1e-10
ROUNDING_FLOOR = 32 * np.finfo(float).eps

GL_NODES = 16  # per panel in the checking rule; the reported rule has twice as many
DENSITY_EXPONENT = 700.0  # the rule ends where the density is e^-700, still a normal float


class JumpDistribution:
    """Base class for mark laws F(dy).  A law sets ``_rule = (nodes, coarse,
    fine)``, weights with density included: coarse weights the first nodes
    and fine the last, so an exact rule (coarse is fine) lists its nodes
    once.  The last ``_tail_nodes`` fine terms bound the truncated tail."""

    _tail_nodes = 0

    def sample(self, n, rng):
        raise NotImplementedError

    def mgf_domain(self):
        """Open interval (lo, hi) on which E[exp(sY)] is finite."""
        return (-np.inf, np.inf)

    def mgf(self, s):
        """E[exp(sY)]; raises DomainError outside the analytic domain."""
        lo, hi = self.mgf_domain()
        if not (lo < s < hi) and s != 0.0:
            raise DomainError(
                f"mgf argument s={s} outside analytic domain ({lo}, {hi})"
            )
        return self._mgf(s)

    def _mgf(self, s):
        return self.expect(lambda y: np.exp(s * y))

    def expect(self, integrand, tol=QUAD_ABS_TOL):
        """Integral of integrand(y) against F(dy), within tol plus the
        rounding floor, or QuadratureError (see the module docstring)."""
        nodes, coarse, fine = self._rule
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = np.asarray(integrand(nodes), dtype=float)
        values = np.broadcast_to(values, values.shape[:-1] + nodes.shape)
        if not np.all(np.isfinite(values)):
            raise QuadratureError("integrand is not finite at a quadrature node")
        terms = values[..., nodes.size - fine.size :] * fine
        result = terms.sum(axis=-1)
        error = np.abs(result - (values[..., : coarse.size] * coarse).sum(axis=-1))
        tail = np.abs(terms[..., fine.size - self._tail_nodes :].sum(axis=-1))
        bound = np.maximum(tol, ROUNDING_FLOOR * np.abs(terms).sum(axis=-1))
        achieved = np.maximum(error, tail)
        if np.any(achieved > bound) or not np.all(np.isfinite(result)):
            worst = np.argmax(achieved - bound)
            raise QuadratureError(
                f"quadrature reached abs error {np.ravel(achieved)[worst]:.3e} "
                f"(target {np.ravel(bound)[worst]:.0e})",
                estimate=result,
                achieved_tol=achieved,
            )
        return float(result) if result.ndim == 0 else result

    def support(self):
        """Essential support endpoints (y_min, y_max), possibly infinite."""
        raise NotImplementedError

    @property
    def mean(self):
        return self.expect(lambda y: y)

    @property
    def n_nodes(self):
        """The nodes of the law's rule: the cells expect holds per row."""
        return self._rule[0].size


# the positive halves of numpy's GL_NODES- and 2*GL_NODES-point
# Gauss-Legendre rules (``numpy.polynomial.legendre.leggauss``, whose
# nodes and weights are symmetric bit for bit), as nodes, then weights
_GL_HALVES = {
    16: (
        (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
        (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
         0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176),
    ),
    32: (
        (0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
         0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
         0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
         0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
        (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
         0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
         0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
         0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506),
    ),
}


def _leggauss(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], n in
    (GL_NODES, 2*GL_NODES): the stored halves mirrored, so that no
    eigenvalue problem is solved at run time."""
    x, w = map(np.array, _GL_HALVES[n])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _exponential_rule(rate, sign):
    """Composite Gauss-Legendre rule for the law of sign * Exponential(rate).

    Returns (nodes, coarse, fine): nodes holds the marks at the
    GL_NODES-point nodes of every panel followed by those at the
    2*GL_NODES-point ones; coarse and fine are the matching weights,
    density included.  The panels in |y| follow the integrands of this
    package, functions of a weight's factor 1 + pi*(e^y - 1):
    - ratio-4 geometric panels from 2^-26 up to 1, where the factor turns
      over at |y| ~ 1/|pi| for large weights;
    - width-4 panels (at most 64) up to 36/(rate - 2), since the factor
      turns over where pi*e^y ~ 1, a feature of unit width at any |y|, and
      integrands growing like e^(2|y|), as h' does, stay above e^-36 of
      their scale there;
    - doubling panels up to DENSITY_EXPONENT / rate.
    """
    y_max = DENSITY_EXPONENT / rate
    y_steady = min(36.0 / (rate - 2.0), 256.0) if rate > 2.0 else 256.0
    edges = [0.0, *4.0 ** np.arange(-13, 1), *np.arange(5.0, y_steady, 4.0)]
    while edges[-1] < y_max:
        edges.append(2.0 * edges[-1])
    edges = np.array([e for e in edges if e < y_max] + [y_max])
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = [], []
    for n in (GL_NODES, 2 * GL_NODES):
        x, w = _leggauss(n)
        y = (mid + half * x).ravel()
        nodes.append(sign * y)
        weights.append((half * w).ravel() * rate * np.exp(-rate * y))
    return np.concatenate(nodes), weights[0], weights[1]


@dataclass(frozen=True)
class _Exponential(JumpDistribution):
    """An exponential law on the side ``sign`` of zero, integrated by its
    composite Gauss-Legendre rule, built once per instance."""

    rate: float
    _rule: tuple = field(init=False, repr=False, compare=False)
    sign = 1.0
    _tail_nodes = 2 * GL_NODES

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ConfigError(f"rate = {self.rate} must be finite and positive", field="rate")
        object.__setattr__(self, "_rule", _exponential_rule(self.rate, self.sign))


@dataclass(frozen=True)
class ExponentialPositive(_Exponential):
    """Y ~ Exponential(rate), all mass on y >= 0."""

    def sample(self, n, rng):
        return rng.exponential(scale=1.0 / self.rate, size=n)

    def mgf_domain(self):
        return (-np.inf, self.rate)

    def _mgf(self, s):
        return self.rate / (self.rate - s)

    def support(self):
        return (0.0, np.inf)


@dataclass(frozen=True)
class ExponentialNegative(_Exponential):
    """-Y ~ Exponential(rate), all mass on y <= 0."""

    sign = -1.0

    def sample(self, n, rng):
        return -rng.exponential(scale=1.0 / self.rate, size=n)

    def mgf_domain(self):
        return (-self.rate, np.inf)

    def _mgf(self, s):
        return self.rate / (self.rate + s)

    def support(self):
        return (-np.inf, 0.0)


@dataclass(frozen=True)
class TwoPoint(JumpDistribution):
    """Two-atom law: y_hi with probability p_hi, else y_lo."""

    y_lo: float
    y_hi: float
    p_hi: float
    _rule: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("y_lo", self.y_lo), ("y_hi", self.y_hi)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} = {value} must be finite", field=name)
        if not 0.0 <= self.p_hi <= 1.0:
            raise ConfigError("p_hi must lie in [0, 1]", field="p_hi")
        weights = np.array([1.0 - self.p_hi, self.p_hi])  # an atom of weight 0 is no node
        nodes, weights = np.array([self.y_lo, self.y_hi])[weights > 0], weights[weights > 0]
        object.__setattr__(self, "_rule", (nodes, weights, weights))

    def sample(self, n, rng):
        hi = rng.random(n) < self.p_hi
        return np.where(hi, self.y_hi, self.y_lo)

    def support(self):
        if self.p_hi == 1.0:
            return (self.y_hi, self.y_hi)
        if self.p_hi == 0.0:
            return (self.y_lo, self.y_lo)
        return (min(self.y_lo, self.y_hi), max(self.y_lo, self.y_hi))


@dataclass(frozen=True, eq=False)
class Tabulated(JumpDistribution):
    """Density samples on a user grid, integrated by the trapezoid rule,
    which has no error estimate.

    The grid is used as supplied -- no re-interpolation.  The trapezoid
    integral of the density over the grid must equal 1 to within 1e-9.
    Equality and hashing are by identity (the fields are arrays).
    """

    grid: np.ndarray
    density: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _rule: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
            raise ConfigError("grid and density must be 1-d arrays of equal length >= 2")
        for name, values in (("grid", grid), ("density", density)):
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"{name} values must be finite", field=name)
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
        half = 0.5 * np.diff(grid)
        weights = density * (np.append(half, 0.0) + np.append(0.0, half))
        object.__setattr__(self, "_rule", (grid, weights, weights))

    def sample(self, n, rng):
        u = rng.random(n)
        idx = np.clip(np.searchsorted(self._cdf, u, side="right"), 1, len(self.grid) - 1)
        c0 = self._cdf[idx - 1]
        c1 = self._cdf[idx]
        w = np.where(c1 > c0, (u - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
        return self.grid[idx - 1] + w * (self.grid[idx] - self.grid[idx - 1])

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))
