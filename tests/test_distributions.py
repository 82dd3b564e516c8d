import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from jumpfolio import distributions
from jumpfolio.distributions import (
    GL_NODES,
    ExponentialNegative,
    ExponentialPositive,
    Tabulated,
    TwoPoint,
)
from jumpfolio.errors import ConfigError, DomainError, QuadratureError


class TestExponentialPositive:
    def test_mgf_closed_form(self):
        d = ExponentialPositive(10.0)
        assert d.mgf(1.0) == pytest.approx(10.0 / 9.0, abs=1e-15)
        assert d.mgf(-0.5) == pytest.approx(10.0 / 10.5, abs=1e-15)
        assert d.mgf(0.0) == 1.0

    def test_mgf_domain_error(self):
        d = ExponentialPositive(10.0)
        with pytest.raises(DomainError):
            d.mgf(10.0)
        with pytest.raises(DomainError):
            d.mgf(11.0)

    def test_expect_matches_mgf(self):
        d = ExponentialPositive(10.0)
        for s in (-2.0, -0.5, 0.5, 3.0, 9.0):
            quad = d.expect(lambda y: np.exp(s * y))
            assert quad == pytest.approx(d.mgf(s), abs=1e-9)

    def test_mean(self):
        assert ExponentialPositive(10.0).mean == pytest.approx(0.1, abs=1e-12)

    def test_sampling_moments(self):
        d = ExponentialPositive(10.0)
        rng = np.random.default_rng(0)
        ys = d.sample(200_000, rng)
        assert np.all(ys >= 0)
        assert ys.mean() == pytest.approx(0.1, abs=2e-3)
        assert ys.var() == pytest.approx(0.01, abs=5e-4)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            ExponentialPositive(0.0)


class TestExponentialNegative:
    def test_mgf_closed_form(self):
        d = ExponentialNegative(10.0)
        assert d.mgf(1.0) == pytest.approx(10.0 / 11.0, abs=1e-15)
        assert d.mgf(-0.5) == pytest.approx(10.0 / 9.5, abs=1e-15)

    def test_mgf_domain_error(self):
        with pytest.raises(DomainError):
            ExponentialNegative(10.0).mgf(-10.0)

    def test_mirror_of_positive(self):
        pos, neg = ExponentialPositive(10.0), ExponentialNegative(10.0)
        for s in (-3.0, 0.5, 2.0):
            assert neg.mgf(s) == pytest.approx(pos.mgf(-s), abs=1e-15)
        assert neg.mean == pytest.approx(-0.1, abs=1e-12)

    def test_support_sign(self):
        rng = np.random.default_rng(1)
        ys = ExponentialNegative(10.0).sample(1000, rng)
        assert np.all(ys <= 0)


class TestExponentialQuadrature:
    """The composite Gauss-Legendre rule meets tol or raises QuadratureError."""

    def test_slow_tail_raises(self):
        """E[e^{0.99 Y}] = 100 at rate 1: the density no longer controls the
        integrand inside the rule's range, so the last panel's share exceeds
        tol (the truncated quadrature used to return inf silently)."""
        with pytest.raises(QuadratureError):
            ExponentialPositive(1.0).expect(lambda y: np.exp(0.99 * y))

    @pytest.mark.parametrize("offset", [0.0, 1e7])
    def test_unresolved_oscillation_raises(self, offset):
        """The rule cannot resolve cos(200 y); a large offset in the integral
        buys no relative tolerance (only the rounding floor, 32 eps * 1e7)."""
        with pytest.raises(QuadratureError) as exc:
            ExponentialPositive(1.0).expect(lambda y: offset + np.cos(200.0 * y))
        assert exc.value.achieved_tol > 1e-10

    def test_non_finite_node_raises(self):
        with pytest.raises(QuadratureError, match="not finite"):
            ExponentialPositive(1.0).expect(lambda y: np.where(y > 3.0, np.inf, 1.0))

    @pytest.mark.parametrize("dist", [ExponentialPositive(10.0), ExponentialNegative(2.5)])
    def test_k_integrals_in_one_call(self, dist):
        """An integrand returning (k, nodes) gives the k integrals of its rows."""
        s = np.array([-2.0, 0.5, 1.5])[:, None]
        batch = dist.expect(lambda y: np.exp(s * y))
        assert batch.shape == (3,)
        for row, si in zip(batch, s[:, 0]):
            assert row == dist.expect(lambda y: np.exp(si * y))
            assert row == pytest.approx(dist.mgf(si), rel=1e-14)

    def test_constant_integrand(self):
        assert ExponentialNegative(10.0).expect(lambda y: 1.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("rate", [1.5, 10.0, 30.0])
    def test_matches_scipy_quad(self, rate):
        """Smooth integrands against scipy's adaptive quadrature (test oracle)."""
        from scipy import integrate

        for sign, cls in ((1.0, ExponentialPositive), (-1.0, ExponentialNegative)):
            d = cls(rate)
            for g in (np.sin, np.log1p, lambda y: y**3, lambda y: 1.0 / (1.0 + y * y)):
                if g is np.log1p and sign < 0:
                    continue
                ref, _ = integrate.quad(
                    lambda t: g(sign * t) * rate * np.exp(-rate * t), 0.0, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                assert d.expect(g) == pytest.approx(ref, rel=1e-12, abs=1e-13)


class TestTwoPoint:
    def test_exact_expectations(self):
        d = TwoPoint(y_lo=-0.2, y_hi=0.1, p_hi=0.75)
        assert d.expect(lambda y: y) == pytest.approx(0.25 * -0.2 + 0.75 * 0.1)
        assert d.mgf(2.0) == pytest.approx(
            0.25 * math.exp(-0.4) + 0.75 * math.exp(0.2)
        )
        assert d.support() == (-0.2, 0.1)

    def test_degenerate_support(self):
        assert TwoPoint(-0.2, 0.1, 1.0).support() == (0.1, 0.1)

    def test_sampling_frequency(self):
        d = TwoPoint(-0.2, 0.1, 0.3)
        rng = np.random.default_rng(2)
        ys = d.sample(100_000, rng)
        assert (ys == 0.1).mean() == pytest.approx(0.3, abs=5e-3)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            TwoPoint(-0.2, 0.1, 1.5)

    def test_atom_of_weight_zero_is_not_a_node(self):
        """The rule holds the support's atoms: with p_hi = 1, a factor
        1 + 5 (e^y - 1) negative at y_lo = -2 does not reach the integral."""
        d = TwoPoint(-2.0, 0.5, 1.0)
        assert d.expect(lambda y: np.log1p(5.0 * np.expm1(y))) == math.log1p(5.0 * math.expm1(0.5))


class TestTabulated:
    def _triangular(self):
        # triangular density on [-1, 1], peak at 0
        grid = np.linspace(-1.0, 1.0, 2001)
        density = 1.0 - np.abs(grid)
        return Tabulated(grid=grid, density=density)

    def test_normalisation_enforced(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ConfigError):
            Tabulated(grid=grid, density=np.full(11, 2.0))

    def test_moments(self):
        d = self._triangular()
        assert d.mean == pytest.approx(0.0, abs=1e-9)
        assert d.expect(lambda y: y * y) == pytest.approx(1.0 / 6.0, abs=1e-5)

    def test_inverse_cdf_sampling(self):
        d = self._triangular()
        rng = np.random.default_rng(3)
        ys = d.sample(200_000, rng)
        assert ys.mean() == pytest.approx(0.0, abs=3e-3)
        assert ys.var() == pytest.approx(1.0 / 6.0, abs=3e-3)

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            Tabulated(grid=np.array([0.0, 0.0, 1.0]), density=np.ones(3))


@pytest.mark.parametrize(
    "dist",
    [
        ExponentialPositive(10.0),
        TwoPoint(-0.2, 0.1, 0.75),
        Tabulated(grid=np.linspace(-1.0, 1.0, 201), density=1.0 - np.abs(np.linspace(-1.0, 1.0, 201))),
    ],
    ids=["exponential", "two_point", "tabulated"],
)
def test_every_law_gives_k_integrals(dist):
    """Every law takes one integrand call on an array of marks: a (k, marks)
    result gives k integrals of shape (k,), a scalar result one float."""
    s = np.array([-2.0, 0.5, 1.5])[:, None]
    batch = dist.expect(lambda y: np.exp(s * y))
    assert batch.shape == (3,)
    for row, si in zip(batch, s[:, 0]):
        assert row == pytest.approx(dist.expect(lambda y: np.exp(si * y)), rel=1e-15)
    assert isinstance(dist.expect(lambda y: 1.0), float)


LAWS = [
    ExponentialPositive(10.0),
    ExponentialNegative(2.5),
    TwoPoint(-0.2, 0.1, 0.75),
    Tabulated(grid=np.linspace(-1.0, 1.0, 201), density=1.0 - np.abs(np.linspace(-1.0, 1.0, 201))),
]
LAW_IDS = ["exponential_positive", "exponential_negative", "two_point", "tabulated"]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dist", LAWS, ids=LAW_IDS)
def test_every_law_refuses_a_non_finite_integrand(dist, value):
    """One expect for every law: a non-finite integrand value at one node
    raises QuadratureError, in a batch as in a single integral."""
    with pytest.raises(QuadratureError, match="not finite"):
        dist.expect(lambda y: np.where(y == y.max(), value, 1.0))
    with pytest.raises(QuadratureError, match="not finite"):
        dist.expect(lambda y: np.where(y == y.max(), np.array([[1.0], [value]]), y))


@pytest.mark.parametrize("dist", LAWS[2:], ids=LAW_IDS[2:])
def test_mgf_without_closed_form_is_expect(dist):
    """A law without a closed-form MGF takes it from its one expect, on
    the whole real line."""
    assert dist.mgf_domain() == (-np.inf, np.inf)
    for s in (-30.0, -2.0, 0.0, 0.5, 1.5, 30.0):
        assert dist.mgf(s) == dist.expect(lambda y: np.exp(s * y))


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=50.0),
    s=st.floats(min_value=-5.0, max_value=0.45),
)
def test_mgf_quadrature_consistency(rate, s):
    """Closed-form MGF equals integration of exp(sY) against the density."""
    d = ExponentialPositive(rate)
    s_abs = s * rate  # keep s safely inside (-inf, rate)
    quad = d.expect(lambda y: np.exp(s_abs * y))
    assert quad == pytest.approx(d.mgf(s_abs), rel=1e-8, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_sampling_deterministic_per_seed(seed):
    d = ExponentialPositive(10.0)
    a = d.sample(16, np.random.default_rng(seed))
    b = d.sample(16, np.random.default_rng(seed))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [GL_NODES, 2 * GL_NODES])
def test_stored_rules_are_leggauss(n):
    """The Gauss-Legendre nodes and weights are stored in the module, not
    computed at run time, and they are ``leggauss``'s output bit for bit."""
    for stored, fresh in zip(distributions._leggauss(n), leggauss(n)):
        assert stored.dtype == fresh.dtype and stored.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "rate, law", [(10.0, ExponentialPositive), (1.05, ExponentialNegative), (2.5, ExponentialPositive)]
)
def test_rule_from_cached_nodes_is_the_fresh_rule(rate, law, monkeypatch):
    """A law's rule, built from the nodes stored in the module (no
    ``leggauss`` call at run time), is bit for bit the one built from
    fresh ``leggauss`` calls."""
    stored = law(rate)._rule
    monkeypatch.setattr(distributions, "_leggauss", leggauss)
    fresh = distributions._exponential_rule(rate, law.sign)
    assert len(stored) == len(fresh) == 3
    for a, b in zip(stored, fresh):
        assert a.tobytes() == b.tobytes()
