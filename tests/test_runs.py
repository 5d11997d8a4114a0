import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeas import equilibrium as eq
from qmeas import runs
from qmeas.errors import ValidationError
from qmeas.qstate import (
    DensityOperator,
    Observable,
    bloch_state,
    bloch_vector,
    maximally_mixed,
    pure_state,
    qexpect,
    tensor,
    trace_distance,
    vn_entropy,
)

from conftest import random_density


def singlet():
    return pure_state([0, 1, -1, 0] / np.sqrt(2), (2, 2))


def sz_prime():
    """z measurement on the first qubit of a pair."""
    up = np.diag([1.0, 0.0]).astype(complex)
    dn = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return runs.TestedObservable((1.0, -1.0), (np.kron(up, eye), np.kron(dn, eye)))


class TestTestedObservable:
    def test_projector_family_gate(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            runs.TestedObservable((1.0, -1.0), (up, up))  # not orthogonal
        with pytest.raises(ValidationError):
            runs.TestedObservable((1.0,), (up,))  # no identity resolution
        with pytest.raises(ValidationError):
            runs.TestedObservable((1.0, 1.0), (up, np.eye(2) - up))  # repeated value

    def test_from_observable_groups_degeneracies(self):
        obs = Observable(np.diag([2.0, 2.0, -1.0]).astype(complex))
        tested = runs.TestedObservable.from_observable(obs)
        assert tested.eigenvalues == (-1.0, 2.0)
        ranks = [round(np.trace(p).real) for p in tested.projectors]
        assert ranks == [1, 2]

    def test_observable_roundtrip(self):
        tested = runs.sz_observable()
        assert np.allclose(tested.observable.matrix, np.diag([1.0, -1.0]), atol=1e-15)


class TestBornWeights:
    def test_transverse_is_even(self):
        w = runs.born_weights(bloch_state((1, 0, 0)), runs.sz_observable())
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)

    def test_eigensector_is_certain(self):
        w = runs.born_weights(bloch_state((0, 0, 1)), runs.sz_observable())
        assert np.allclose(w, [1.0, 0.0], atol=1e-15)

    def test_tilted_state(self):
        w = runs.born_weights(bloch_state((0, 0, 0.6)), runs.sz_observable())
        assert w[0] == pytest.approx(0.8, abs=1e-12)
        assert w[1] == pytest.approx(0.2, abs=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestLuders:
    def test_nondegenerate_prepares_pure_projector(self):
        br = runs.luders_branch(bloch_state((0.3, 0.2, 0.4)), runs.sz_observable(), 0)
        assert trace_distance(br.r, pure_state([1, 0])) <= 1e-12

    def test_singlet_partner_reduction(self):
        br = runs.luders_branch(singlet(), sz_prime(), 0)
        assert br.p == pytest.approx(0.5, abs=1e-12)
        expected = tensor(pure_state([1, 0]), pure_state([0, 1]))
        assert trace_distance(br.r, expected) <= 1e-12

    def test_sector_input_unchanged(self):
        r0 = bloch_state((0, 0, 1))
        br = runs.luders_branch(r0, runs.sz_observable(), 0)
        assert trace_distance(br.r, r0) <= 1e-14
        assert br.p == pytest.approx(1.0, abs=1e-14)

    def test_zero_weight_errors(self):
        with pytest.raises(ValidationError):
            runs.luders_branch(bloch_state((0, 0, 1)), runs.sz_observable(), 1)

    def test_repeatability(self):
        tested = runs.sz_observable()
        br = runs.luders_branch(bloch_state((0.5, 0.1, 0.2)), tested, 1)
        again = runs.born_weights(br.r, tested)
        assert np.allclose(again, [0.0, 1.0], atol=1e-12)


class TestVonNeumann:
    def test_matches_luders_when_nondegenerate(self):
        vn = runs.von_neumann_branch(runs.sz_observable(), 0)
        lu = runs.luders_branch(bloch_state((0.4, 0, 0.3)), runs.sz_observable(), 0)
        assert trace_distance(vn.r, lu.r) <= 1e-12
        assert vn.p is None

    def test_degenerate_sector_is_flat(self):
        tested = runs.TestedObservable.from_observable(
            Observable(np.diag([1.0, 1.0, -1.0]).astype(complex)))
        i = tested.eigenvalues.index(1.0)
        vn = runs.von_neumann_branch(tested, i)
        assert vn_entropy(vn.r) == pytest.approx(np.log(2), abs=1e-12)

    def test_differs_from_luders_inside_degenerate_sector(self, rng):
        tested = runs.TestedObservable.from_observable(
            Observable(np.diag([1.0, 1.0, -1.0]).astype(complex)))
        r0 = random_density(3, rng)
        i = tested.eigenvalues.index(1.0)
        lu = runs.luders_branch(r0, tested, i)
        vn = runs.von_neumann_branch(tested, i)
        assert trace_distance(lu.r, vn.r) > 1e-3


class TestUnreadReduction:
    def test_pinch_erases_transverse_components(self):
        out = runs.unread_reduction(bloch_state((0.5, 0.3, 0.4)), runs.sz_observable())
        assert np.allclose(bloch_vector(out), [0, 0, 0.4], atol=1e-14)

    def test_commuting_state_unchanged(self):
        r0 = bloch_state((0, 0, 0.7))
        out = runs.unread_reduction(r0, runs.sz_observable())
        assert trace_distance(out, r0) <= 1e-14

    def test_entropy_gain_ln2(self):
        r0 = bloch_state((1, 0, 0))
        out = runs.unread_reduction(r0, runs.sz_observable())
        assert vn_entropy(r0) == pytest.approx(0.0, abs=1e-12)
        assert vn_entropy(out) == pytest.approx(np.log(2), abs=1e-12)


class TestSampling:
    def test_certain_weights(self):
        split = runs.sample_runs([1.0, 0.0], 1000, seed=5)
        assert split.counts == (1000, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            runs.sample_runs([0.5, 0.5], 10, seed=-1)

    def test_seed_determinism(self):
        a = runs.sample_runs([0.5, 0.5], 10_000, seed=42)
        b = runs.sample_runs([0.5, 0.5], 10_000, seed=42)
        assert a.counts == b.counts

    def test_even_split_within_three_sigma(self):
        split = runs.sample_runs([0.5, 0.5], 100_000, seed=0)
        rep = runs.frequency_report(split)
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(split.counts[0] / split.total - 0.5) <= 3 * sigma
        assert not rep["any_flagged"]

    def test_frequency_convergence_rate(self):
        # z-scores across seeds should look standard normal (KS at alpha ~ 0.01)
        zs = []
        for seed in range(100):
            split = runs.sample_runs([0.8, 0.2], 10_000, seed=seed)
            zs.append(runs.frequency_report(split)["z"][0])
        zs = np.sort(zs)
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(zs / math.sqrt(2)))
        empirical = (np.arange(100) + 0.5) / 100
        assert np.max(np.abs(cdf - empirical)) <= 0.163
        assert np.mean(np.abs(zs) > 5) == 0.0

    def test_counts_validated(self):
        with pytest.raises(ValidationError):
            runs.EnsembleSplit(total=10, counts=(4, 5), seed=0, weights=(0.5, 0.5))


@pytest.fixture(scope="module")
def pointer():
    return eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)


class TestSubensembles:
    def test_factorization_recovered(self, pointer):
        tested = runs.sz_observable()
        r0 = bloch_state((1, 0, 0))
        joint = eq.final_joint_state(r0, tested, pointer)
        for i in (0, 1):
            br = runs.subensemble_state(joint, pointer, i)
            assert br.p == pytest.approx(0.5, abs=1e-12)
            expected = runs.luders_branch(r0, tested, i).r
            assert trace_distance(br.r, expected) <= 1e-8

    def test_single_outcome_identity(self, pointer):
        delta = tensor(pure_state([1, 0]), pointer.pointer_states[0])
        br = runs.subensemble_state(delta, pointer, 0)
        assert br.p == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(br.delta, delta) <= 1e-12

    def test_probability_equals_window_weight(self, pointer):
        tested = runs.sz_observable()
        r0 = bloch_state((0, 0, 0.6))
        joint = eq.final_joint_state(r0, tested, pointer)
        for i, expect_p in ((0, 0.8), (1, 0.2)):
            br = runs.subensemble_state(joint, pointer, i)
            proj = np.kron(np.eye(2), np.diag(pointer.window_projectors[i]))
            direct = float(np.trace(joint.matrix @ proj).real)
            assert br.p == pytest.approx(direct, abs=1e-12)
            assert br.p == pytest.approx(expect_p, abs=1e-12)

    def test_merge_back_reconstructs_joint(self, pointer):
        tested = runs.sz_observable()
        r0 = bloch_state((0, 0, 0.6))
        joint = eq.final_joint_state(r0, tested, pointer)
        branches = [runs.subensemble_state(joint, pointer, i) for i in (0, 1)]
        mixed = sum(b.p * b.delta.matrix for b in branches)
        assert np.max(np.abs(mixed - joint.matrix)) <= 1e-12

    @pytest.mark.parametrize("n_spins, reduced", [(10, True), (6, False)])
    def test_diagonal_path_matches_dense(self, n_spins, reduced):
        pointer = eq.build_curie_weiss_pointer(n_spins, 1.0, 0.5, reduced=reduced)
        joint = eq.final_joint_state(bloch_state((0.3, 0.2, 0.6)), runs.sz_observable(),
                                     pointer)
        assert joint.diagonal is not None
        dense = DensityOperator(joint.matrix, joint.subsystem_dims)
        for i in (0, 1):
            fast = runs.subensemble_state(joint, pointer, i)
            slow = runs.subensemble_state(dense, pointer, i)
            assert fast.delta.diagonal is not None and fast.r.diagonal is not None
            assert fast.p == pytest.approx(slow.p, abs=1e-15)
            assert np.max(np.abs(fast.r.matrix - slow.r.matrix)) <= 1e-15
            assert np.max(np.abs(fast.delta.matrix - slow.delta.matrix)) <= 1e-15

    @pytest.mark.parametrize("i", [-1, 2])
    def test_outcome_index_checked(self, pointer, i):
        joint = eq.final_joint_state(bloch_state((0, 0, 0.6)), runs.sz_observable(), pointer)
        with pytest.raises(ValidationError, match=f"outcome {i} outside 0..1"):
            runs.subensemble_state(joint, pointer, i)

    def test_leak_detection(self, pointer):
        # cat state across the two magnetization windows
        d0, d1 = pointer.window_projectors
        cat = np.zeros(d0.size, dtype=complex)
        cat[int(np.argmax(d0))] = 1 / np.sqrt(2)
        cat[int(np.argmax(d1))] = 1 / np.sqrt(2)
        pointer_part = np.outer(cat, cat.conj())
        leaky = DensityOperator(np.kron(np.eye(2) / 2, pointer_part), (2, d0.size))
        with pytest.raises(ValidationError, match="leaks across pointer windows"):
            runs.subensemble_state(leaky, pointer, 0)


class TestMergeAndBalance:
    def test_branch_merge_reproduces_pinch(self):
        tested = runs.sz_observable()
        r0 = bloch_state((0, 0, 0.6))
        weights = runs.born_weights(r0, tested)
        branches = [runs.luders_branch(r0, tested, i) for i in range(2)]
        merged = runs.merge_branches(branches, weights)
        assert trace_distance(merged, runs.unread_reduction(r0, tested)) <= 1e-12

    def test_info_balance_transverse(self):
        loss, gain = runs.info_balance(bloch_state((1, 0, 0)), runs.sz_observable())
        assert loss == pytest.approx(np.log(2), abs=1e-12)
        assert gain == pytest.approx(np.log(2), abs=1e-12)

    def test_info_balance_commuting(self):
        loss, gain = runs.info_balance(bloch_state((0, 0, 0.6)), runs.sz_observable())
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert gain == pytest.approx(vn_entropy(bloch_state((0, 0, 0.6))), abs=1e-12)

    def test_gain_is_full_entropy_for_nondegenerate(self, rng):
        r0 = random_density(2, rng)
        tested = runs.sz_observable()
        _, gain = runs.info_balance(r0, tested)
        s_after = vn_entropy(runs.unread_reduction(r0, tested))
        assert gain == pytest.approx(s_after, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-3])
def test_luders_branch_of_a_small_weight_is_a_state(eps):
    # the sectors are rotated, so pi r0 pi carries rounding on the scale of
    # r0 that is far above p ~ eps^2
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    tested = runs.TestedObservable((0.0, 1.0), (np.outer(q[:, 0], q[:, 0].conj()),
                                                q[:, 1:] @ q[:, 1:].conj().T))
    tail = q[:, 1] + 0.5 * q[:, 2]
    psi = q[:, 0] + eps * tail
    r0 = DensityOperator(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    branch = runs.luders_branch(r0, tested, 1)
    assert branch.p == pytest.approx(1.25 * eps**2 / (1.0 + 1.25 * eps**2), rel=1e-2)
    assert _is_state(branch.r)
    # r0's entries carry rounding of about 1e-16, which fixes the branch
    # state only to about 1e-16/p
    want = np.outer(tail, tail.conj()) / 1.25
    assert np.max(np.abs(branch.r.matrix - want)) <= 1e-15 / branch.p


# ------------------------------------------------------------ properties

_entry = st.floats(-1.0, 1.0)


@st.composite
def _state_and_tested(draw):
    """A density operator and a projective observable of dimension 2-4.

    The state is A A^dagger / tr; the projectors group the columns of the Q
    factor of a second matrix into 1..dim sectors.
    """
    dim = draw(st.integers(2, 4))
    a, b = (np.array(draw(st.lists(_entry, min_size=2 * dim * dim, max_size=2 * dim * dim)))
            .reshape(2, dim, dim) for _ in range(2))
    m = (a[0] + 1j * a[1]) @ (a[0] + 1j * a[1]).conj().T
    tr = float(np.trace(m).real)
    assume(tr > 1e-150)  # A A^dagger of a tinier A underflows while it is built
    q, _ = np.linalg.qr(b[0] + 1j * b[1])
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1)))
    groups = np.split(np.arange(dim), cuts)
    projs = tuple(q[:, g] @ q[:, g].conj().T for g in groups)
    tested = runs.TestedObservable(tuple(float(i) for i in range(len(groups))), projs)
    return DensityOperator(m / tr), tested


def _is_state(r):
    rho = np.asarray(r.matrix)
    return (abs(np.trace(rho) - 1.0) <= 1e-12
            and float(np.linalg.eigvalsh(rho)[0]) >= -1e-12)


@settings(max_examples=200, deadline=None)
@given(_state_and_tested())
def test_property_reductions_are_states_under_raise(case):
    r0, tested = case
    with np.errstate(all="raise"):
        unread = runs.unread_reduction(r0, tested)
        weights = runs.born_weights(r0, tested)
        branches = [runs.von_neumann_branch(tested, i).r for i in range(len(weights))]
        for i, p in enumerate(weights):
            if p > 1e-14:
                branches.append(runs.luders_branch(r0, tested, i).r)
        assert _is_state(unread)
        assert all(_is_state(r) for r in branches)
