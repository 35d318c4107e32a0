"""Exception types shared across the package."""


class BBCenterError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(BBCenterError, ValueError):
    """Operands disagree on variable count or vector length."""


class NotDivisible(BBCenterError, ValueError):
    """A series was divided by the independent variable but has a term without it."""


class ResonantEigenvalue(BBCenterError, ValueError):
    """The non-resonant solver met a positive integer eigenvalue; use classify()."""


class OrderTooSmall(BBCenterError, ValueError):
    """The truncation order does not cover every resonant order of the system.
    ``required`` is the smallest order that does."""

    def __init__(self, order, resonance, required):
        super().__init__(f"order {order} cannot expose the resonance at order "
                         f"{resonance}; need --order {required} or more")
        self.resonance = resonance
        self.required = required


class UncertifiableSpectrum(BBCenterError, ValueError):
    """Eigenvalues are not exactly representable over the Gaussian rationals."""


class NotNormalized(BBCenterError, ValueError):
    """The linear part is not in a supported normal form; conjugate it first
    (or use the numeric fallback, whose output is flagged as uncertified)."""


class InvalidChart(BBCenterError, ValueError):
    """The chart variable's eigenvalue is zero, so the chart division is illegal."""


class BlockedStep(BBCenterError):
    """A reduction step hit a resonant order whose linear-in-x coefficient does
    not vanish.  Carries the offending coefficients as the non-existence witness."""

    def __init__(self, message, px):
        super().__init__(message)
        self.px = tuple(px)


class ParseError(BBCenterError, ValueError):
    """A system document violates the input schema. ``location`` points at the spot."""

    def __init__(self, message, location=""):
        super().__init__(f"{message} (at {location})" if location else message)
        self.location = location


class IntegrationDiverged(BBCenterError, RuntimeError):
    """The trajectory left the configured divergence bound."""
