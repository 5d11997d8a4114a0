import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeas import ambiguity as amb
from qmeas.errors import ValidationError
from qmeas.qstate import DensityOperator, Observable, bloch_state, bloch_vector
from conftest import random_density, random_hermitian


class TestChordDecomposition:
    def test_center_along_z(self):
        dec = amb.chord_decomposition([0, 0, 0], [0, 0, 1])
        assert np.allclose(dec.v1, [0, 0, 1], atol=1e-14)
        assert np.allclose(dec.v2, [0, 0, -1], atol=1e-14)
        assert dec.rho1 == pytest.approx(0.5, abs=1e-14)
        assert dec.rho2 == pytest.approx(0.5, abs=1e-14)

    def test_offset_point_transverse_chord(self):
        dec = amb.chord_decomposition([0, 0, 0.5], [1, 0, 0])
        s = np.sqrt(3) / 2
        assert np.allclose(dec.v1, [s, 0, 0.5], atol=1e-12)
        assert np.allclose(dec.v2, [-s, 0, 0.5], atol=1e-12)
        assert dec.rho1 == pytest.approx(0.5, abs=1e-12)

    def test_recomposition_identity(self, rng):
        for _ in range(20):
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0, 0.99) / max(np.linalg.norm(v), 1e-12)
            d = rng.normal(size=3)
            dec = amb.chord_decomposition(v, d)
            recon = dec.rho1 * dec.v1 + dec.rho2 * dec.v2
            assert np.max(np.abs(recon - v)) <= 1e-12
            assert np.linalg.norm(dec.v1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(dec.v2) == pytest.approx(1.0, abs=1e-12)

    def test_states_mix_back_to_input(self):
        v = [0.1, -0.2, 0.3]
        dec = amb.chord_decomposition(v, [1, 1, 1])
        s1, s2 = dec.states()
        mixed = dec.rho1 * s1.matrix + dec.rho2 * s2.matrix
        assert np.allclose(bloch_vector(DensityOperator(mixed)), v, atol=1e-12)

    def test_direction_normalization_is_irrelevant(self):
        a = amb.chord_decomposition([0.2, 0, 0], [0, 0, 3.7])
        b = amb.chord_decomposition([0.2, 0, 0], [0, 0, 1.0])
        assert np.allclose(a.v1, b.v1, atol=1e-14)
        assert a.rho1 == pytest.approx(b.rho1, abs=1e-14)

    def test_boundary_and_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            amb.chord_decomposition([0, 0, 1.0], [1, 0, 0])
        with pytest.raises(ValidationError):
            amb.chord_decomposition([0, 0, 1.0 + 1e-15], [0, 0, 1])
        with pytest.raises(ValidationError):
            amb.chord_decomposition([0, 0, 0.5], [0, 0, 0])
        with pytest.raises(ValidationError):
            amb.chord_decomposition([0, 0, 0.5, 0.0], [0, 0, 1])
        with pytest.raises(ValidationError, match="direction .* must be finite"):
            amb.chord_decomposition([0, 0, 0.5], [np.inf, 0, 0])
        with pytest.raises(ValidationError, match="v .* must be finite"):
            amb.chord_decomposition([np.nan, 0, 0], [0, 0, 1])


_component = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_component, min_size=3, max_size=3), st.lists(_component, min_size=3, max_size=3))
def test_property_chord_weights_recompose_under_raise(v, d):
    v, d = np.array(v), np.array(d)
    assume(np.linalg.norm(v) < 1.0 - 1e-12 and np.any(d != 0.0))
    with np.errstate(all="raise"):
        dec = amb.chord_decomposition(v, d)
    assert abs(dec.rho1 + dec.rho2 - 1.0) <= 1e-12
    assert 0.0 < dec.rho1 < 1.0 and 0.0 < dec.rho2 < 1.0
    assert np.max(np.abs(dec.rho1 * dec.v1 + dec.rho2 * dec.v2 - v)) <= 1e-12


class TestOverlapLaw:
    def test_orthogonal_axes_overlap_half(self):
        assert amb.pure_overlap([0, 0, 1], [1, 0, 0]) == pytest.approx(0.5, abs=1e-15)

    def test_same_and_antipodal(self):
        assert amb.pure_overlap([0, 1, 0], [0, 1, 0]) == pytest.approx(1.0, abs=1e-15)
        assert amb.pure_overlap([0, 1, 0], [0, -1, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_matches_state_fidelity(self, rng):
        for _ in range(10):
            v1 = rng.normal(size=3)
            v1 /= np.linalg.norm(v1)
            v2 = rng.normal(size=3)
            v2 /= np.linalg.norm(v2)
            direct = np.trace(bloch_state(v1).matrix @ bloch_state(v2).matrix).real
            assert amb.pure_overlap(v1, v2) == pytest.approx(direct, abs=1e-12)


class TestAmbiguityWitness:
    def test_center_two_axes(self):
        rep = amb.ambiguity_witness([0, 0, 0], [0, 0, 1], [1, 0, 0])
        assert rep.contradiction
        # four distinct pure components, all cross overlaps exactly 1/2
        assert np.allclose(rep.overlaps[:2, 2:], 0.5, atol=1e-12)
        assert np.allclose(np.diag(rep.overlaps), 1.0, atol=1e-14)
        assert rep.overlaps[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert rep.overlaps[2, 3] == pytest.approx(0.0, abs=1e-14)

    def test_off_center_two_axes(self):
        rep = amb.ambiguity_witness([0, 0, 0.5], [1, 0, 0], [0, 1, 0])
        assert rep.contradiction
        pts = [rep.first.v1, rep.first.v2, rep.second.v1, rep.second.v2]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.max(np.abs(pts[i] - pts[j])) > 1e-6

    def test_parallel_directions_rejected(self):
        with pytest.raises(ValidationError):
            amb.ambiguity_witness([0, 0, 0.5], [1, 0, 0], [2, 0, 0])
        with pytest.raises(ValidationError):
            amb.ambiguity_witness([0, 0, 0.5], [1, 0, 0], [-1, 0, 0])

    def test_tiny_direction_is_not_parallel(self):
        # the raw cross product (0, 1e-200, 0) has an underflowing norm
        with np.errstate(all="raise"):
            rep = amb.ambiguity_witness([0, 0, 0], [0, 0, 1e-200], [1, 0, 0])
        assert rep.contradiction
        assert np.array_equal(rep.first.direction, [0, 0, 1])
        assert np.allclose(rep.overlaps[:2, 2:], 0.5, atol=1e-12)
        with pytest.raises(ValidationError, match="parallel"):
            amb.ambiguity_witness([0, 0, 0], [0, 0, 1e-200], [0, 0, -3])

    def test_classical_axis_has_unique_extremes(self):
        # along the diagonal axis the only extreme split is the +-z pair;
        # a transverse chord exits the classical segment entirely
        dec_z = amb.chord_decomposition([0, 0, 0.2], [0, 0, 1])
        assert np.allclose(sorted(dec_z.v1[2:]), [1.0], atol=1e-14)
        assert np.allclose(dec_z.v1, [0, 0, 1], atol=1e-14)
        assert np.allclose(dec_z.v2, [0, 0, -1], atol=1e-14)
        assert dec_z.rho1 == pytest.approx(0.6, abs=1e-12)
        dec_x = amb.chord_decomposition([0, 0, 0.2], [1, 0, 0])
        assert abs(dec_x.v1[0]) > 0.9


class TestEmbedding:
    def test_qubit_input_is_whole(self):
        em = amb.embed_ambiguity_ndim(bloch_state((0, 0, 0.5)))
        assert em.weight == pytest.approx(1.0, abs=1e-12)
        assert em.residual == ()
        assert np.allclose(np.sort(np.diag(em.qubit.matrix).real), [0.25, 0.75],
                           atol=1e-12)

    def test_three_level_example(self):
        em = amb.embed_ambiguity_ndim(
            DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex)))
        assert em.weight == pytest.approx(0.8, abs=1e-12)
        assert np.allclose(np.diag(em.qubit.matrix).real, [0.625, 0.375], atol=1e-12)
        assert len(em.residual) == 1
        assert em.residual[0][0] == pytest.approx(0.2, abs=1e-12)

    def test_pure_state_rejected(self):
        with pytest.raises(ValidationError):
            amb.embed_ambiguity_ndim(bloch_state((0, 0, 1)))

    def test_reassembly_roundtrip(self, rng):
        for dim in (3, 5, 8):
            r0 = random_density(dim, rng)
            em = amb.embed_ambiguity_ndim(r0)
            back = amb.reassemble_embedding(em)
            assert np.max(np.abs(back - r0.matrix)) <= 1e-12

    def test_chord_applies_inside_embedding(self, rng):
        r0 = random_density(4, rng)
        em = amb.embed_ambiguity_ndim(r0)
        v = bloch_vector(em.qubit)
        dec = amb.chord_decomposition(v, [1, 0, 0])
        mixed = dec.rho1 * dec.states()[0].matrix + dec.rho2 * dec.states()[1].matrix
        assert np.max(np.abs(mixed - em.qubit.matrix)) <= 1e-12


class TestDispersionless:
    def test_eigenstate_is_certain(self):
        assert amb.is_dispersionless(bloch_state((0, 0, 1)),
                                     Observable(np.diag([1.0, -1.0]).astype(complex)))

    def test_transverse_state_is_not(self):
        assert not amb.is_dispersionless(bloch_state((1, 0, 0)),
                                         Observable(np.diag([1.0, -1.0]).astype(complex)))

    def test_mixture_inside_degenerate_sector(self):
        r0 = DensityOperator(np.diag([0.5, 0.5, 0.0]).astype(complex))
        obs = Observable(np.diag([2.0, 2.0, 7.0]).astype(complex))
        assert amb.is_dispersionless(r0, obs)

    def test_inconsistent_inputs_raise(self):
        # variance fits under a loose tol while a far eigenvalue still
        # carries weight: the confinement cross-check must catch it
        r0 = DensityOperator(np.diag([5e-5, 1.0 - 5e-5]).astype(complex))
        obs = Observable(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValidationError):
            amb.is_dispersionless(r0, obs, tol=1e-4)


class TestDispersionlessFamily:
    @pytest.mark.parametrize("n,k,expected", [
        (2, 1, 2), (2, 2, 1), (3, 2, 2), (4, 1, 10), (4, 4, 1)])
    def test_parameter_counts(self, rng, n, k, expected):
        fam = amb.dispersionless_family(random_density(n, rng, rank=k))
        assert fam.param_count == expected
        assert fam.rank == k
        assert len(fam.basis) == (n - k) ** 2 + 1

    def test_basis_elements_have_zero_variance(self, rng):
        r0 = random_density(4, rng, rank=2)
        fam = amb.dispersionless_family(r0)
        for obs in fam.basis:
            a = obs.matrix
            mean = np.trace(r0.matrix @ a).real
            var = np.trace(r0.matrix @ a @ a).real - mean**2
            assert abs(var) <= 1e-10
            assert amb.is_dispersionless(r0, obs)

    def test_generic_observable_has_dispersion(self, rng):
        r0 = random_density(4, rng, rank=2)
        obs = random_hermitian(4, rng)
        a = obs.matrix
        mean = np.trace(r0.matrix @ a).real
        var = np.trace(r0.matrix @ a @ a).real - mean**2
        assert var > 1e-3
        assert not amb.is_dispersionless(r0, obs)

    def test_near_threshold_rank_warns(self):
        r0 = DensityOperator(np.diag([1.0 - 5e-11, 5e-11]).astype(complex))
        with pytest.warns(UserWarning):
            amb.dispersionless_family(r0)

    @pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -1.0])
    def test_bad_rank_tol_rejected(self, rng, rank_tol):
        # a NaN threshold would call every eigenvalue null: rank 0
        with pytest.raises(ValidationError, match="rank_tol"):
            amb.dispersionless_family(random_density(3, rng, rank=3), rank_tol)
