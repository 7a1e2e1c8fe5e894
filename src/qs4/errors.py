"""Exception taxonomy shared across the package.

Validation failures (bad arguments, malformed configs) and numerical-guard
aborts (aliasing, quadrature tail, diverging iteration) are kept distinct so
the CLI can map them to different exit codes.
"""


class QS4Error(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QS4Error):
    """A precondition on user-supplied arguments was violated."""


class NumericalGuardError(QS4Error):
    """A runtime numerical safeguard tripped; results would be unreliable."""


class NyquistGuardError(NumericalGuardError):
    """Spectral mass too close to the lattice edge for a multiplier operation."""


class TailTestError(NumericalGuardError):
    """The time window is too small: the integrand has not decayed at the ends."""


class SupportGuardError(NumericalGuardError):
    """Mass outside the safe region: in modulation_scan's bump, or dragged there by a resampling map."""


class DivergenceError(NumericalGuardError):
    """A plain step of the fixed-point ascent lowered the quotient."""
