"""qmeas: ideal quantum measurement as a dynamical process, end to end.

Dense density-operator algebra (qstate), the Curie-Weiss measurement model
with closed-form truncation dynamics (curie_weiss), thermodynamic
registration and pointer states (equilibrium), run statistics with Born
frequencies and branch reductions (runs), decomposition-ambiguity geometry
(ambiguity), CHSH and joint-distribution feasibility (contextuality), and a
dense brute-force oracle cross-checking the analytic layer (oracle).
"""

__version__ = "1.0.0"

from .errors import (
    ConvergenceError,
    GuardError,
    InfeasibleError,
    QmeasError,
    ValidationError,
)

# the qstate names load numpy, so they are served on first access (PEP 562):
# `import qmeas` and `qmeas --version` stay on the standard library
_QSTATE_EXPORTS = (
    "DensityOperator",
    "Observable",
    "bloch_state",
    "bloch_vector",
    "maximally_mixed",
    "merge",
    "partial_trace",
    "pure_state",
    "qexpect",
    "tensor",
    "trace_distance",
    "vn_entropy",
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "GuardError",
    "InfeasibleError",
    "QmeasError",
    "ValidationError",
    *_QSTATE_EXPORTS,
]


def __getattr__(name: str):
    if name in _QSTATE_EXPORTS:
        from . import qstate

        return getattr(qstate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_QSTATE_EXPORTS))
