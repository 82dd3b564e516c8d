"""Exception hierarchy for jumpfolio."""


class JumpfolioError(Exception):
    """Base class for all jumpfolio errors."""


class ConfigError(JumpfolioError):
    """Invalid configuration; carries a dotted field path when available."""

    def __init__(self, message, field=None):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)


class DomainError(JumpfolioError):
    """Argument outside the analytic domain (divergent integral)."""


class QuadratureError(JumpfolioError):
    """Quadrature failed to reach the requested tolerance, or met an
    integrand that is not finite."""

    def __init__(self, message, estimate=None, achieved_tol=None):
        self.estimate = estimate
        self.achieved_tol = achieved_tol
        super().__init__(message)


class ModelAssumptionError(JumpfolioError):
    """A standing model assumption (e.g. R > mu) is violated."""


class RangeError(JumpfolioError):
    """Root-finding target lies outside the attainable range."""


class BracketLimitError(RangeError):
    """The bracket reached its size limit before the feasible end, so the
    root, if any, lies beyond the limit rather than outside the range."""


class BankruptcyError(JumpfolioError):
    """A jump factor of a path level is nonpositive; for gross wealth,
    1 + pi*f <= 0."""

    def __init__(self, message, jump_time=None, mark=None):
        self.jump_time = jump_time
        self.mark = mark
        super().__init__(message)


class RuinError(JumpfolioError):
    """Consumption exhausted wealth before the horizon."""

    def __init__(self, message, ruin_time=None):
        self.ruin_time = ruin_time
        super().__init__(message)


class InfeasiblePolicyError(JumpfolioError):
    """No admissible portfolio satisfies the optimality conditions."""
