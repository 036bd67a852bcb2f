"""Exception hierarchy shared by all freemult modules."""


class FreemultError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FreemultError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class AtomicHasNoDensity(FreemultError):
    """A density was requested from a purely atomic measure."""


class NonIntegrable(FreemultError):
    """Adaptive quadrature failed to converge; the kernel is likely singular
    on the support of the measure."""


class BracketFailure(FreemultError):
    """A bracketed root solve could not locate a sign change."""


class FloatOverflow(FreemultError):
    """A result leaves the floating-point range."""


class EmptyVSet(FreemultError):
    """No blow-up region was found inside the search window."""


class DegenerateInput(FreemultError, ValueError):
    """Input carries no usable signal (e.g. an identically zero curve)."""


class HypothesisViolated(FreemultError):
    """Parameters violate the hypothesis required by the criterion."""


class WindowTooNarrow(FreemultError):
    """The search window clips structure of the function being analysed."""


class GridUnderflow(FreemultError):
    """A grid cannot represent the requested supports without losing mass."""


class IndexOutOfRange(FreemultError, IndexError):
    """An atom index beyond the available truncation was requested."""


class ParseError(FreemultError, ValueError):
    """Input text does not conform to the documented schema."""


class InvariantViolation(FreemultError, ValueError):
    """A validated object failed one of its construction invariants."""

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"invariant '{invariant}' violated: {message}")


class IoError(FreemultError, OSError):
    """A filesystem operation failed."""
