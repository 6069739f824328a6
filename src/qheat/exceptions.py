"""Exception types raised by the qheat package."""


class QheatError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(QheatError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class DegenerateSpectrumError(QheatError):
    """Two eigenvalues are closer than the degeneracy threshold.

    All results assume a non-degenerate spectrum; we refuse to guess how
    projectors should be merged.
    """


class InvalidStateError(QheatError):
    """A density matrix or measurement basis violates its invariants."""


class EnumerationTooLargeError(QheatError):
    """An exact enumeration would exceed the configured term cap."""


class IntervalCapError(QheatError):
    """A fixed-total-time run would draw more waiting times per trajectory than the cap."""


class MomentMismatchError(QheatError):
    """The two independent moment routes disagree beyond tolerance.

    This signals a bug in the package, not a user error.
    """


class UnreachableMeanError(QheatError):
    """A requested mean waiting time lies outside the support interval."""


class ConfigError(QheatError):
    """A user-supplied experiment configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
