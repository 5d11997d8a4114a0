"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation failures (configuration
problems included) and unusable output paths exit 2; size guards and the
other numerical failures exit 3; a failed --selftest check exits 1.

guard_bytes holds the one size policy: every array whose size grows as 2^N
or 4^N is refused, before it is allocated, once its caller's estimate passes
BYTES_BUDGET.
"""

# largest estimated allocation, in bytes, that any 2^N or 4^N guard lets through
BYTES_BUDGET = 1_000_000_000


class QmeasError(Exception):
    """Base class for package errors."""


class ValidationError(QmeasError, ValueError):
    """An input or result violates a stated invariant (Hermiticity, trace, PSD, ...)."""


class GuardError(QmeasError, ValueError):
    """A size/memory guard tripped (e.g. a 2^N array past BYTES_BUDGET)."""


class ConvergenceError(QmeasError, RuntimeError):
    """An iterative solver failed to converge within its budget."""


class InfeasibleError(QmeasError, ValueError):
    """Requested constraints admit no state (maxent dual diverges)."""


class SelftestError(QmeasError):
    """A --selftest check did not hold."""


def guard_bytes(nbytes: int, what: str, hint: str) -> None:
    """Raise GuardError if an estimated nbytes passes BYTES_BUDGET.

    nbytes may be an exact integer such as 16 * 2**N, past the float range.
    """
    if nbytes <= BYTES_BUDGET:
        return
    try:
        size = "%.1f GB" % (nbytes / 1e9)
    except OverflowError:
        size = "2^%d B" % (nbytes.bit_length() - 1)
    raise GuardError("%s would need ~%s, past the %.0f GB budget; %s"
                     % (what, size, BYTES_BUDGET / 1e9, hint))
