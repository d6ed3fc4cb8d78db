"""Exception types shared across the package."""


class FinslerError(Exception):
    """Base class for all errors raised by finslerkit."""


class OrderCapError(FinslerError, ValueError):
    """A partial of higher order than its jets were seeded to."""


class DomainError(FinslerError):
    """A chart point left the chart domain."""


class MetricError(FinslerError):
    """The metric is invalid at the evaluation site (e.g. g not positive definite)."""


class DegenerateFlagError(FinslerError):
    """Flag curvature requested for a flag whose pole and transverse edge are parallel."""


class DriftError(FinslerError):
    """A navigation drift field is too strong: F(-v) >= 1 somewhere."""


class ConvergenceError(FinslerError):
    """An iterative solve (root finding) failed to converge."""


class IntegrationError(FinslerError):
    """Geodesic integration rejected a step (speed drift beyond tolerance)."""
