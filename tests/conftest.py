import numpy as np
import pytest
from hypothesis import settings

from qmeas.qstate import DensityOperator, Observable

# the same examples on every run; per-test @settings still set max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_density(dim, rng, rank=None):
    """Haar-ish random density operator, optionally rank-deficient."""
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_hermitian(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable(scale * (a + a.conj().T) / 2.0)
