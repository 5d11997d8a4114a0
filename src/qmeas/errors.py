"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation failures (configuration
problems included) and unusable output paths exit 2; size guards and the
other numerical failures exit 3; a failed --selftest check exits 1.
"""


class QmeasError(Exception):
    """Base class for package errors."""


class ValidationError(QmeasError, ValueError):
    """An input or result violates a stated invariant (Hermiticity, trace, PSD, ...)."""


class GuardError(QmeasError, ValueError):
    """A size/memory guard tripped (e.g. dense oracle asked for N > 12)."""


class ConvergenceError(QmeasError, RuntimeError):
    """An iterative solver failed to converge within its budget."""


class InfeasibleError(QmeasError, ValueError):
    """Requested constraints admit no state (maxent dual diverges)."""


class SelftestError(QmeasError):
    """A --selftest check did not hold."""
