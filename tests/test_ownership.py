"""Every frozen value holds its own read-only copy of its arrays: building
one from the caller's writeable arrays leaves them writeable and unshared."""
import numpy as np
import pytest

from qmeas import ambiguity, contextuality, curie_weiss, equilibrium, runs
from qmeas.qstate import DensityOperator, Observable, bloch_state


def _chord():
    v, d = np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    dec = ambiguity.chord_decomposition(v, d)
    return [(v, dec.v), (d, dec.direction)]


def _transverse():
    model = curie_weiss.build_model(8, 1.0, 0.1, 3)
    grid = np.linspace(0.0, 1.0, 5)
    return [(grid, curie_weiss.transverse_expectations(model, grid).times)]


def _model():
    c = np.full(4, 1.0)
    model = curie_weiss.CurieWeissModel(N=4, g=1.0, couplings=c, delta_g_rms=0.0,
                                        seed=None, r0=bloch_state((1.0, 0.0, 0.0)))
    return [(c, model.couplings)]


def _recurrence():
    cols = np.arange(1, 4), np.linspace(1.0, 3.0, 3), np.ones(3), np.ones(3)
    profile = curie_weiss.RecurrenceProfile(*cols)
    return list(zip(cols, (profile.nu, profile.time, profile.measured, profile.predicted)))


def _table():
    e, ma, mb = np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([0.1, 0.0]), np.array([0.0, 0.2])
    table = contextuality.CorrelatorTable(e, ma, mb)
    return [(e, table.correlators), (ma, table.marginals_a), (mb, table.marginals_b)]


def _pair():
    a, b = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    pair = contextuality.DirectionPair(a, b)
    return [(a, pair.a), (b, pair.b)]


def _tested():
    projs = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    obs = runs.TestedObservable((1.0, -1.0), projs)
    return list(zip(projs, obs.projectors))


def _pointer():
    projs = (np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    states = tuple(DensityOperator(diagonal=d) for d in ([0.5, 0.5, 0.0, 0.0],
                                                          [0.0, 0.0, 0.5, 0.5]))
    pointer = equilibrium.PointerModel(
        pointer_obs=Observable(diagonal=[3.0, 2.0, -2.0, -3.0]), outcomes=(2.5, -2.5),
        window=1.6, window_projectors=projs, pointer_states=states,
        sourced_states=states, log_partition_consts=(0.0, 0.0))
    return list(zip(projs, pointer.window_projectors))


def _states():
    d, m = np.array([0.25, 0.75]), np.eye(2, dtype=complex) / 2.0
    return [(d, DensityOperator(diagonal=d).diagonal), (m, DensityOperator(m).matrix)]


@pytest.mark.parametrize("build", [_chord, _transverse, _model, _recurrence, _table, _pair,
                                   _tested, _pointer, _states])
def test_values_copy_and_never_freeze_the_callers_arrays(build):
    for caller, field in build():
        assert caller.flags.writeable
        assert not field.flags.writeable
        assert not np.shares_memory(caller, field)
        assert field.dtype == caller.dtype and np.array_equal(field, caller)
