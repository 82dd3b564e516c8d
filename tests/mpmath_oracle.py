"""h and h' by 30-digit mpmath quadrature, the oracle of the quadrature tests."""

from jumpfolio.distributions import ExponentialNegative


def mpmath_h(params, gamma, pi, derivative=False):
    """h(pi) or h'(pi) by mpmath quadrature at 30 digits, for an exponential
    law on the exponential transform; the breakpoints bracket the scales
    where 1 + pi f(y) turns over (|y| ~ 1/|pi| and pi e^y ~ 1)."""
    import mpmath as mp

    with mp.workdps(30):
        rate, sign = mp.mpf(params.dist.rate), -1 if isinstance(params.dist, ExponentialNegative) else 1
        pi, g = mp.mpf(pi), mp.mpf(gamma)

        def integrand(t):
            f = mp.expm1(sign * t)
            term = f**2 / (1 + pi * f) ** (2 - g) if derivative else f / (1 + pi * f) ** (1 - g)
            return term * rate * mp.exp(-rate * t)

        knots = sorted({0.0, 0.1 / abs(pi), 1.0 / abs(pi), 10.0 / abs(pi), 0.1, 1.0, 3.0, 8.0, 20.0, 80.0})
        integral = mp.quad(integrand, [k for k in knots if k <= 80.0] + [mp.inf])
        if derivative:
            return float(params.lam * (g - 1) * integral)
        return float(params.mu + params.lam * integral)
