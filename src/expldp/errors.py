"""Semantic exception hierarchy for the toolkit.

Extended-real conventions: +inf is a legitimate value for cumulants and
rate functions and never raises; NaN is always a bug and surfaces as
``NumericsError``.
"""


class ExpLdpError(Exception):
    """Base error for this package."""


class OutsideDomain(ExpLdpError):
    """Natural parameter lies outside the essential domain (or its listed
    boundary points) where the requested quantity is defined."""


class MeanOutsideDomain(ExpLdpError):
    """Mean point fails the interior mean-domain predicate."""


class QuadratureFailure(ExpLdpError):
    """Numerical integration did not reach the requested tolerance."""


class NoConvergence(ExpLdpError):
    """Newton iteration exhausted its budget (typically a near-boundary
    mean point)."""


class DegeneratePosterior(ExpLdpError):
    """Posterior normalizing integral underflowed even in log domain
    (prior support effectively off the essential domain)."""


class RateUnbounded(ExpLdpError):
    """A posterior probability is exactly zero at some sample size while the
    event still meets the support, so no finite decay rate exists."""


class RateFormMismatch(ExpLdpError):
    """Two forms of the same rate disagree beyond their tolerance (the
    direct posterior rate against its excess-of-divergence form)."""


class UnsupportedModel(ExpLdpError):
    """The MLE at the contraction rate's dual minimizer is elsewhere."""


class TooLarge(ExpLdpError):
    """Enumeration request exceeds the supported sample-size cap."""


class UnknownScenario(ExpLdpError):
    """Scenario name is not registered."""


class NumericsError(ExpLdpError):
    """A NaN appeared where extended reals were expected."""
