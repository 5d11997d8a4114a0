import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.errors import GuardError, ValidationError
from qmeas.qstate import (
    HERMITIAN_TOL,
    PSD_MIN_EIG,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    Observable,
    bloch_state,
    bloch_vector,
    diagonal_or_none,
    evolve_unitary,
    hermitian_eigvalsh,
    maximally_mixed,
    merge,
    partial_trace,
    pure_state,
    qexpect,
    tensor,
    TRACE_TOL,
    trace_distance,
    vn_entropy,
    weighted_magnetization_diag,
)

from conftest import random_density, random_hermitian


def singlet():
    return pure_state([0, 1, -1, 0] / np.sqrt(2), (2, 2))


class TestInvariantGate:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_trace_deficit_rejected(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_small_negative_eigenvalue_tolerated(self):
        # PSD floor is -1e-10; rounding-level dips must not raise
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        DensityOperator(m)

    def test_subsystem_dims_must_factor(self):
        with pytest.raises(ValidationError):
            maximally_mixed(4, (3, 2))

    @pytest.mark.parametrize("diag", [[1e308, 1e308], [1e308, 1e308, -1e308, -1e308]],
                             ids=["inf", "nan"])
    def test_overflowing_trace_rejected(self, diag):
        # the diagonal's sum leaves the float range; no floating-point flag
        # reaches the caller's errstate
        with np.errstate(all="raise"):
            for args, kwargs in (((), {"diagonal": diag}), ((np.diag(diag),), {})):
                with pytest.raises(ValidationError, match="trace .* is not finite"):
                    DensityOperator(*args, **kwargs)

    @pytest.mark.parametrize("cls", [Observable, DensityOperator])
    def test_overflowing_hermitian_deviation_rejected(self, cls):
        # M - M^dag overflows to inf for a +-1e308 off-diagonal pair; that is
        # a deviation past the tolerance, not a floating-point error
        m = np.array([[0.5, 1e308], [-1e308, 0.5]])
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match="not Hermitian"):
                cls(m)

    def test_hermitian_pair_at_the_float_limit_accepted(self):
        m = np.array([[0.5, 1e308], [1e308, 0.5]])
        with np.errstate(all="raise"):
            assert np.array_equal(Observable(m).matrix, m)


class TestQexpect:
    def test_unpolarized_sigma_z(self):
        assert qexpect(maximally_mixed(2), Observable(SIGMA_Z)) == pytest.approx(0.0, abs=1e-15)

    def test_up_eigenstate(self):
        assert qexpect(pure_state([1, 0]), Observable(SIGMA_Z)) == pytest.approx(1.0, abs=1e-15)

    def test_bloch_components(self):
        state = bloch_state((0.6, 0.0, 0.8))
        assert qexpect(state, Observable(SIGMA_X)) == pytest.approx(0.6, abs=1e-14)
        assert qexpect(state, Observable(SIGMA_Z)) == pytest.approx(0.8, abs=1e-14)


class TestEvolveUnitary:
    def test_zero_time_identity(self, rng):
        state = random_density(4, rng)
        out = evolve_unitary(state, random_hermitian(4, rng), 0.0)
        assert trace_distance(out, state) <= 1e-14

    def test_larmor_half_turn(self):
        omega = 2.0
        h = Observable(0.5 * omega * SIGMA_Z)
        out = evolve_unitary(bloch_state((1, 0, 0)), h, np.pi / omega)
        assert np.allclose(bloch_vector(out), [-1, 0, 0], atol=1e-12)

    def test_spectrum_preserved(self, rng):
        state = random_density(4, rng)
        out = evolve_unitary(state, random_hermitian(4, rng), 0.37)
        a = np.sort(np.linalg.eigvalsh(state.matrix))
        b = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_entropy_preserved(self, rng):
        state = random_density(6, rng)
        out = evolve_unitary(state, random_hermitian(6, rng), 1.3)
        assert abs(vn_entropy(out) - vn_entropy(state)) <= 1e-9


class TestPartialTrace:
    def test_product_keeps_first_factor(self, rng):
        r = random_density(2, rng)
        big = tensor(r, random_density(3, rng))
        assert trace_distance(partial_trace(big, [0]), r) <= 1e-14

    def test_singlet_marginals_unpolarized(self):
        s = singlet()
        for keep in ([0], [1]):
            assert trace_distance(partial_trace(s, keep), maximally_mixed(2)) <= 1e-14

    def test_contraction_identity(self, rng):
        d = random_density(4, rng)
        d = DensityOperator(d.matrix, (2, 2))
        x = random_hermitian(2, rng)
        lhs = qexpect(partial_trace(d, [0]), x)
        rhs = float(np.real(np.trace(d.matrix @ np.kron(x.matrix, np.eye(2)))))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_diagonal_storage_kept(self, rng):
        # a 2 x 3 x 2 diagonal state: each marginal is the diagonal summed over
        # the traced factors, equal to the dense partial trace
        q = rng.dirichlet(np.ones(12))
        diag = DensityOperator(diagonal=q, subsystem_dims=(2, 3, 2))
        dense = DensityOperator(np.diag(q), (2, 3, 2))
        for keep in ([0], [1], [0, 2], [1, 2], [0, 1, 2]):
            fast, slow = partial_trace(diag, keep), partial_trace(dense, keep)
            assert fast.diagonal is not None
            assert fast.subsystem_dims == slow.subsystem_dims
            assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-15


class TestTensorStorage:
    def test_diagonal_factors_give_diagonal_product(self, rng):
        a = DensityOperator(diagonal=rng.dirichlet(np.ones(2)))
        b = DensityOperator(diagonal=rng.dirichlet(np.ones(3)), subsystem_dims=(3,))
        prod = tensor(a, b)
        assert prod.diagonal is not None and prod.subsystem_dims == (2, 3)
        assert np.array_equal(prod.matrix, np.kron(a.matrix, b.matrix))
        obs = tensor(Observable(diagonal=[1.0, -1.0]), Observable(diagonal=[2.0, 0.5]))
        assert np.array_equal(obs.diagonal, [2.0, 0.5, -2.0, -0.5])

    def test_mixed_storage_stays_dense(self, rng):
        prod = tensor(DensityOperator(diagonal=[0.25, 0.75]), random_density(2, rng))
        assert prod.diagonal is None


class TestMerge:
    def test_equal_mixture_is_unpolarized(self):
        up, dn = pure_state([1, 0]), pure_state([0, 1])
        got = merge([(5, up), (5, dn)])
        assert trace_distance(got, maximally_mixed(2)) <= 1e-15

    def test_single_part(self, rng):
        state = random_density(3, rng)
        assert trace_distance(merge([(7, state)]), state) <= 1e-15

    def test_weighted_bloch_barycenter(self):
        got = merge([(1, bloch_state((1, 0, 0))), (3, bloch_state((-1, 0, 0)))])
        assert np.allclose(bloch_vector(got), [-0.5, 0, 0], atol=1e-14)

    def test_permutation_invariance(self, rng):
        parts = [(2, random_density(2, rng)), (3, random_density(2, rng)), (1, random_density(2, rng))]
        a = merge(parts)
        b = merge(parts[::-1])
        assert trace_distance(a, b) <= 1e-12

    def test_counts_must_be_positive(self, rng):
        with pytest.raises(ValidationError):
            merge([(0, random_density(2, rng))])


class TestEntropyAndDistance:
    def test_pure_zero(self):
        assert vn_entropy(pure_state([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_mixing(self):
        assert vn_entropy(maximally_mixed(2)) == pytest.approx(np.log(2), abs=1e-12)

    def test_two_level_value(self):
        state = DensityOperator(np.diag([0.9, 0.1]).astype(complex))
        expected = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        assert vn_entropy(state) == pytest.approx(expected, abs=1e-12)
        assert vn_entropy(state) == pytest.approx(0.325083, abs=1e-6)

    def test_trace_distance_orthogonal_pure(self):
        assert trace_distance(pure_state([1, 0]), pure_state([0, 1])) == pytest.approx(1.0, abs=1e-12)


def test_bloch_roundtrip_cardinal_points():
    for v in ([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, -1, 0]):
        assert np.allclose(bloch_vector(bloch_state(v)), v, atol=1e-14)


def test_bloch_vector_norm_guard():
    with pytest.raises(ValidationError):
        bloch_state((0.8, 0.8, 0.8))


class TestDiagonalPath:
    def test_diagonal_or_none(self):
        m = np.diag([0.5, 0.0, 0.5 + 1e-13j])
        d = diagonal_or_none(m)
        assert np.array_equal(d, [0.5, 0.0, 0.5 + 1e-13j])
        assert np.array_equal(diagonal_or_none(np.zeros((3, 3))), np.zeros(3))
        m[2, 0] = 1e-300
        assert diagonal_or_none(m) is None
        m[2, 0] = 1e-300j
        assert diagonal_or_none(m) is None

    def test_non_finite_entries_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValidationError, match="non-finite"):
                DensityOperator(np.diag([bad, 0.5, 0.5]))
            with pytest.raises(ValidationError, match="non-finite"):
                Observable(np.array([[0.0, bad], [bad, 0.0]]))


def _dense_verdict(m, state: bool):
    """The error the checks give when written on the full matrix, or None."""
    dev = float(np.abs(m - m.conj().T).max())
    what = "density matrix" if state else "observable"
    if dev > HERMITIAN_TOL:
        return f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e}"
    if not state:
        return None
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        return f"trace {tr} differs from 1 beyond {TRACE_TOL}"
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < PSD_MIN_EIG:
        return f"state is not positive semidefinite: min eigenvalue {min_eig:.3e}"
    return None


def _verdict(cls, *args, **kwargs):
    try:
        cls(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return None


_real_part = st.just(0.0) | st.floats(-0.05, 1.0) | st.floats(-1e-9, 1e-9)
_imag_part = st.sampled_from([0.0, 1e-14, -4e-13, 5e-13, 6e-13, -1e-12, 2e-11])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_real_part, _imag_part), min_size=1, max_size=8), st.booleans())
def test_property_diagonal_checks_match_dense(entries, normalize):
    re = np.array([e[0] for e in entries])
    if normalize and re.sum() > 0:
        re = re / re.sum()
    m = np.diag(re + 1j * np.array([e[1] for e in entries]))
    with np.errstate(all="raise"):
        assert _verdict(DensityOperator, m) == _dense_verdict(m, state=True)
        assert _verdict(Observable, m) == _dense_verdict(m, state=False)
        fast, dense = hermitian_eigvalsh(m), np.linalg.eigvalsh(m)
    # LAPACK rescales a matrix of tiny norm, which can move eigenvalues by an ulp
    np.testing.assert_allclose(fast, dense, rtol=4 * np.finfo(float).eps, atol=0.0)


def _agree(pair):
    fast, dense = pair
    return abs(fast - dense) <= max(4 * math.ulp(max(abs(fast), abs(dense))), 1e-14)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_real_part, _imag_part), min_size=1, max_size=8), st.booleans(),
       st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
       st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_property_diagonal_storage_matches_dense(entries, normalize, obs_values, weights):
    re = np.array([e[0] for e in entries])
    if normalize and re.sum() > 0:
        re = re / re.sum()
    d = re + 1j * np.array([e[1] for e in entries])
    n = d.size
    o = np.array(obs_values[:n])
    w = np.array(weights[:n])
    w = w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)
    with np.errstate(all="raise"):
        for cls in (DensityOperator, Observable):
            assert _verdict(cls, diagonal=d) == _verdict(cls, np.diag(d))
        if _verdict(DensityOperator, np.diag(d)) is not None:
            return
        a, b = DensityOperator(diagonal=d), DensityOperator(diagonal=w)
        obs = Observable(diagonal=o)
        # diagonal storage keeps the real part, which is what the dense
        # operators below are built from
        a_dense, b_dense = DensityOperator(a.matrix), DensityOperator(b.matrix)
        pairs = [(qexpect(a, obs), qexpect(a_dense, Observable(obs.matrix))),
                 (vn_entropy(a), vn_entropy(DensityOperator(np.diag(d)))),
                 (trace_distance(a, b), trace_distance(a_dense, b_dense))]
        spectra = hermitian_eigvalsh(a), hermitian_eigvalsh(a_dense.matrix)
    assert np.array_equal(np.diag(a.matrix), d.real)
    assert all(_agree(p) for p in pairs), pairs
    assert np.array_equal(*spectra)


class TestDiagonalStorage:
    def test_matrix_is_built_on_read_and_read_only(self):
        state = DensityOperator(diagonal=[0.25, 0.75], subsystem_dims=(2,))
        assert state.dim == 2 and state.subsystem_dims == (2,)
        m = state.matrix
        assert np.array_equal(m, np.diag([0.25, 0.75]).astype(complex))
        assert not m.flags.writeable and not state.diagonal.flags.writeable
        assert Observable(SIGMA_Z).diagonal is None

    def test_dense_read_is_guarded(self):
        # an 8192-entry diagonal would read as a 1.07 GB complex matrix
        obs = Observable(diagonal=np.zeros(2**13))
        assert obs.dim == 2**13
        with pytest.raises(GuardError, match="diagonal"):
            obs.matrix

    def test_exactly_one_storage(self):
        with pytest.raises(ValidationError, match="exactly one"):
            DensityOperator()
        with pytest.raises(ValidationError, match="exactly one"):
            Observable(SIGMA_Z, diagonal=[1.0, -1.0])
        with pytest.raises(ValidationError, match="vector"):
            DensityOperator(diagonal=np.eye(2) / 2)

    def test_operators_are_immutable(self):
        state = DensityOperator(diagonal=[0.5, 0.5])
        with pytest.raises(AttributeError):
            state.subsystem_dims = (1, 2)

    def test_diagonal_or_none_reads_storage(self):
        state = DensityOperator(diagonal=[0.5, 0.5])
        assert diagonal_or_none(state) is state.diagonal
        assert np.array_equal(diagonal_or_none(maximally_mixed(2)), [0.5, 0.5])
        assert diagonal_or_none(Observable(SIGMA_X)) is None

    def test_mixed_storage_falls_back_to_dense(self):
        diag = DensityOperator(diagonal=[0.8, 0.2])
        dense = bloch_state((0.0, 0.0, 0.6))
        assert qexpect(diag, Observable(SIGMA_Z)) == pytest.approx(0.6, abs=1e-15)
        assert trace_distance(diag, dense) == 0.0


def _weighted_magnetization_reference(c):
    # the shift-and-mask formula: one pass per spin over the basis indices
    a = np.arange(2**c.size)
    m = np.zeros(2**c.size)
    for n in range(c.size):
        m += c[n] * (1 - 2 * ((a >> n) & 1))
    return m


@pytest.mark.parametrize("N", range(1, 15))
def test_weighted_magnetization_matches_shift_and_mask(N):
    c = np.random.default_rng(N).normal(0.0, 1.0, N)
    assert np.array_equal(weighted_magnetization_diag(c), _weighted_magnetization_reference(c))


def test_weighted_magnetization_builds_no_temporary():
    N = 16
    c = np.random.default_rng(0).normal(1.0, 0.1, N)
    tracemalloc.start()
    try:
        weighted_magnetization_diag(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * 2**N
