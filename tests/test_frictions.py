import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpfolio.errors import ConfigError
from jumpfolio.frictions import (
    NO_BORROWING,
    NO_SHORTING,
    ConstraintSet,
    PiecewiseLinearConcave,
    conjugate_gk,
    effective_domain,
)


def _g_walk_from_zero(margin, pi):
    """g(pi) summed piece by piece from 0 out to pi."""
    bps = margin.breakpoints
    if pi >= 0.0:
        pts = [b for b in bps if 0.0 < b < pi] + [pi]
    else:
        pts = [b for b in reversed(bps) if pi < b < 0.0] + [pi]
    value, anchor = 0.0, 0.0
    for p in pts:
        piece = int(np.searchsorted(bps, 0.5 * (anchor + p), side="right"))
        value += margin.slopes[piece] * (p - anchor)
        anchor = p
    return value


class TestConstraintSet:
    def test_must_contain_zero(self):
        with pytest.raises(ConfigError):
            ConstraintSet(0.5, 2.0)

    def test_contains(self):
        K = ConstraintSet(-1.0, 2.0)
        assert K.contains(0.0) and K.contains(-1.0) and not K.contains(2.5)


class TestMarginEvaluation:
    def test_frictionless_zero(self):
        g = PiecewiseLinearConcave.frictionless()
        for pi in (-3.0, 0.0, 1.7):
            assert g.g(pi) == 0.0

    def test_differential_rates_values(self):
        g = PiecewiseLinearConcave.differential_rates(r=0.045, R=0.05)
        assert g.g(0.0) == 0.0
        assert g.g(1.0) == 0.0
        assert g.g(2.0) == pytest.approx(-0.005, abs=1e-15)
        assert g.g(0.5) == 0.0
        assert g.g(-1.0) == 0.0  # only excess borrowing is penalised

    def test_short_rebate_values(self):
        g = PiecewiseLinearConcave.short_rebate(r=0.03, rL=0.05)
        assert g.g(0.0) == 0.0
        assert g.g(1.0) == 0.0
        assert g.g(-1.0) == pytest.approx(-0.02, abs=1e-15)
        assert g.g(-2.5) == pytest.approx(-0.05, abs=1e-15)

    def test_invalid_rate_order(self):
        with pytest.raises(ConfigError):
            PiecewiseLinearConcave.differential_rates(r=0.05, R=0.04)
        with pytest.raises(ConfigError):
            PiecewiseLinearConcave.short_rebate(r=0.05, rL=0.04)
        for rate in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="must be finite"):
                PiecewiseLinearConcave.differential_rates(r=0.05, R=rate)
            with pytest.raises(ConfigError, match="must be finite"):
                PiecewiseLinearConcave.short_rebate(r=0.05, rL=rate)
            # a non-finite r made a nan slope; it is named as the regime names it
            with pytest.raises(ConfigError, match=f"^r: r = {rate} must be finite$"):
                PiecewiseLinearConcave.differential_rates(r=rate, R=0.05)
            with pytest.raises(ConfigError, match=f"^r: r = {rate} must be finite$"):
                PiecewiseLinearConcave.short_rebate(r=rate, rL=0.05)

    def test_piecewise_concavity_enforced(self):
        with pytest.raises(ConfigError):
            PiecewiseLinearConcave(breakpoints=(0.0,), slopes=(-0.1, 0.2))
        # no rise is forgiven: a slope up by 9e-16 is convex
        with pytest.raises(ConfigError, match="concavity"):
            PiecewiseLinearConcave(breakpoints=(0.0,), slopes=(0.0, 9e-16))
        # equal slopes (no kink) and the constructors at equal rates are concave
        assert PiecewiseLinearConcave((0.0,), (0.01, 0.01)).g(-2.0) == -0.02
        assert PiecewiseLinearConcave.differential_rates(0.05, 0.05).g(3.0) == 0.0
        assert PiecewiseLinearConcave.short_rebate(0.05, 0.05).g(-3.0) == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_breakpoint_rejected(self, value):
        """A NaN breakpoint passes every order comparison, and g was nan."""
        with pytest.raises(ConfigError, match="must be finite"):
            PiecewiseLinearConcave((value,), (0.0, -0.1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_rejected(self, value):
        with pytest.raises(ConfigError, match="must be finite"):
            PiecewiseLinearConcave((0.0,), (0.1, value))
        with pytest.raises(ConfigError, match="must be finite"):
            PiecewiseLinearConcave((), (value,))

    def test_piecewise_general_evaluation(self):
        g = PiecewiseLinearConcave(breakpoints=(-1.0, 1.0), slopes=(0.3, 0.1, -0.2))
        assert g.g(0.0) == 0.0
        assert g.g(1.0) == pytest.approx(0.1)
        assert g.g(2.0) == pytest.approx(0.1 - 0.2)
        assert g.g(-1.0) == pytest.approx(-0.1)
        assert g.g(-2.0) == pytest.approx(-0.1 - 0.3)

    @pytest.mark.parametrize(
        "margin",
        [
            PiecewiseLinearConcave.frictionless(),
            PiecewiseLinearConcave.differential_rates(r=0.045, R=0.05),
            PiecewiseLinearConcave.short_rebate(r=0.03, rL=0.05),
            PiecewiseLinearConcave(breakpoints=(-2.0, -0.5, 1.5), slopes=(0.5, 0.1, -0.2, -0.9)),
        ],
    )
    def test_array_matches_scalar(self, margin):
        grid = np.concatenate([np.linspace(-5.0, 5.0, 2001), [-2.0, -0.5, 0.0, 1.0, 1.5]])
        values = margin.g(grid)
        assert values.shape == grid.shape
        assert np.array_equal(values, [margin.g(float(p)) for p in grid])
        assert isinstance(margin.g(0.3), float)
        # the pieces are summed in another order than this walk from 0
        reference = [_g_walk_from_zero(margin, float(p)) for p in grid]
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-14)


class TestConjugate:
    def test_diffrates_against_dense_grid(self):
        margin = PiecewiseLinearConcave.differential_rates(r=0.045, R=0.05)
        K = NO_SHORTING
        grid = np.concatenate([np.linspace(0.0, 60.0, 60_001), [1.0]])
        for zeta in np.linspace(-0.005, 0.1, 57):
            exact = conjugate_gk(margin, K, zeta)
            dense = np.max(margin.g(grid) - grid * zeta)
            assert exact == pytest.approx(dense, abs=1e-9)

    def test_short_rebate_against_dense_grid(self):
        margin = PiecewiseLinearConcave.short_rebate(r=0.03, rL=0.05)
        K = NO_BORROWING
        grid = np.concatenate([np.linspace(-60.0, 1.0, 60_001), [0.0]])
        for zeta in np.linspace(-0.1, 0.02, 57):
            exact = conjugate_gk(margin, K, zeta)
            dense = np.max(margin.g(grid) - grid * zeta)
            assert exact == pytest.approx(dense, abs=1e-9)

    def test_short_rebate_branch_values(self):
        margin = PiecewiseLinearConcave.short_rebate(r=0.03, rL=0.05)
        # conj(zeta) = -zeta for zeta <= 0; 0 on [0, rL - r]; +inf beyond
        assert conjugate_gk(margin, NO_BORROWING, -0.01) == pytest.approx(0.01)
        assert conjugate_gk(margin, NO_BORROWING, 0.01) == 0.0
        assert conjugate_gk(margin, NO_BORROWING, 0.02) == 0.0
        assert conjugate_gk(margin, NO_BORROWING, 0.03) == math.inf

    def test_diffrates_branch_values(self):
        margin = PiecewiseLinearConcave.differential_rates(r=0.045, R=0.05)
        # conj(zeta) = 0 on [0, inf); -zeta... attained at pi=1 for -(R-r) <= zeta < 0
        assert conjugate_gk(margin, NO_SHORTING, 0.02) == 0.0
        assert conjugate_gk(margin, NO_SHORTING, -0.003) == pytest.approx(0.003)
        assert conjugate_gk(margin, NO_SHORTING, -0.01) == math.inf

    def test_effective_domains(self):
        d = effective_domain(PiecewiseLinearConcave.differential_rates(0.045, 0.05), NO_SHORTING)
        assert d[0] == pytest.approx(-0.005) and d[1] == math.inf
        s = effective_domain(PiecewiseLinearConcave.short_rebate(0.03, 0.05), NO_BORROWING)
        assert s[0] == -math.inf and s[1] == pytest.approx(0.02)

    def test_bounded_constraint_full_domain(self):
        K = ConstraintSet(-2.0, 2.0)
        d = effective_domain(PiecewiseLinearConcave.frictionless(), K)
        assert d == (-math.inf, math.inf)
        assert conjugate_gk(PiecewiseLinearConcave.frictionless(), K, 5.0) == pytest.approx(10.0)


@settings(max_examples=200, deadline=None)
@given(
    pi=st.floats(min_value=-10.0, max_value=10.0),
    zeta=st.floats(min_value=-0.5, max_value=0.5),
    spread=st.floats(min_value=0.0, max_value=0.1),
)
def test_fenchel_inequality_diffrates(pi, zeta, spread):
    """g(pi) - pi*zeta <= conj(zeta) for every pi in K."""
    margin = PiecewiseLinearConcave.differential_rates(r=0.03, R=0.03 + spread)
    K = NO_SHORTING
    pi = min(max(pi, K.lower), K.upper)
    conj = conjugate_gk(margin, K, zeta)
    assert margin.g(pi) - pi * zeta <= conj + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    pi=st.floats(min_value=-10.0, max_value=10.0),
    zeta=st.floats(min_value=-0.5, max_value=0.5),
    fee=st.floats(min_value=0.0, max_value=0.1),
)
def test_fenchel_inequality_short_rebate(pi, zeta, fee):
    margin = PiecewiseLinearConcave.short_rebate(r=0.03, rL=0.03 + fee)
    K = NO_BORROWING
    pi = min(max(pi, K.lower), K.upper)
    conj = conjugate_gk(margin, K, zeta)
    assert margin.g(pi) - pi * zeta <= conj + 1e-12
