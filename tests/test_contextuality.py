import itertools
import warnings

import numpy as np
import pytest

from qmeas import contextuality as ctx
from qmeas.errors import ValidationError
from qmeas.qstate import bloch_state, tensor

# outcome signs (sa0, sa1, sb0, sb1) of the 16 joint cells, index 0 -> +1
_SIGNS = np.array([1.0, -1.0])[np.array(list(itertools.product((0, 1), repeat=4)))]


def _moments(q):
    """Correlators and marginals of a distribution over the 16 cells."""
    sa, sb = _SIGNS[:, :2], _SIGNS[:, 2:]
    return np.einsum("k,ki,kj->ij", q, sa, sb), q @ sa, q @ sb


def _assert_reproduces(distribution, corr, ma, mb):
    q = distribution.ravel()
    assert q.min() >= -1e-12
    assert abs(q.sum() - 1.0) <= 1e-9
    for got, want in zip(_moments(q), (corr, ma, mb)):
        assert np.max(np.abs(got - want)) <= 1e-9


def random_axis(rng):
    a = rng.normal(size=3)
    return a / np.linalg.norm(a)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


class TestPairCorrelator:
    def test_singlet_parallel_axes(self, rng):
        s = ctx.singlet_state()
        for axis in ([0, 0, 1], [1, 0, 0], random_axis(rng)):
            e = ctx.pair_correlator(s, ctx.DirectionPair(axis, axis))
            assert e == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_orthogonal_axes(self):
        s = ctx.singlet_state()
        e = ctx.pair_correlator(s, ctx.DirectionPair([0, 0, 1], [1, 0, 0]))
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_singlet_quarter_angle(self):
        s = ctx.singlet_state()
        b = np.array([1, 0, 1]) / np.sqrt(2)
        e = ctx.pair_correlator(s, ctx.DirectionPair([0, 0, 1], b))
        assert e == pytest.approx(-np.sqrt(2) / 2, abs=1e-12)

    def test_singlet_is_minus_dot_product(self, rng):
        s = ctx.singlet_state()
        for _ in range(10):
            a, b = random_axis(rng), random_axis(rng)
            e = ctx.pair_correlator(s, ctx.DirectionPair(a, b))
            assert e == pytest.approx(-float(a @ b), abs=1e-12)

    def test_single_qubit_rejected(self):
        with pytest.raises(ValidationError):
            ctx.pair_correlator(bloch_state((0, 0, 1)),
                                ctx.DirectionPair([0, 0, 1], [0, 0, 1]))

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            ctx.DirectionPair([0, 0, 2], [0, 0, 1])
        with pytest.raises(ValidationError):
            ctx.spin_observable([1, 1, 0])


class TestChsh:
    def test_singlet_on_optimal_axes(self):
        c = ctx.chsh_value(ctx.singlet_state(), *ctx.optimal_chsh_axes())
        assert c == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_product_states_stay_classical(self, rng):
        for _ in range(25):
            v1, v2 = random_axis(rng), random_axis(rng)
            prod = tensor(bloch_state(v1), bloch_state(v2))
            axes = [random_axis(rng) for _ in range(4)]
            assert abs(ctx.chsh_value(prod, *axes)) <= 2.0 + 1e-12

    def test_equal_second_axes_collapse(self, rng):
        s = ctx.singlet_state()
        z, x, u, _ = ctx.optimal_chsh_axes()
        c = ctx.chsh_value(s, z, x, u, u)
        e_zu = ctx.pair_correlator(s, ctx.DirectionPair(z, u))
        assert c == pytest.approx(2.0 * e_zu, abs=1e-12)

    def test_tsirelson_bound_over_random_axes(self, rng):
        s = ctx.singlet_state()
        top = 0.0
        for _ in range(200):
            axes = [random_axis(rng) for _ in range(4)]
            top = max(top, abs(ctx.chsh_value(s, *axes)))
        assert top <= 2.0 * np.sqrt(2.0) + 1e-9

    def test_rotation_invariance(self, rng):
        s = ctx.singlet_state()
        rot = random_rotation(rng)
        z, x, u, v = ctx.optimal_chsh_axes()
        c0 = ctx.chsh_value(s, z, x, u, v)
        c1 = ctx.chsh_value(s, rot @ z, rot @ x, rot @ u, rot @ v)
        assert c1 == pytest.approx(c0, abs=1e-12)
        e0 = ctx.pair_correlator(s, ctx.DirectionPair(z, u))
        e1 = ctx.pair_correlator(s, ctx.DirectionPair(rot @ z, rot @ u))
        assert e1 == pytest.approx(e0, abs=1e-12)

    def test_variant_enumeration(self):
        table = ctx.CorrelatorTable(np.array([[0.5, 0.25], [-0.25, 0.125]]))
        variants = ctx.chsh_variants(table)
        assert len(variants) == 8
        for signs, value in variants:
            assert np.prod(signs) == -1
            assert value == pytest.approx(
                float(np.dot(signs, table.correlators.ravel())), abs=1e-15)


class TestFeasibility:
    def test_zero_table_is_feasible(self):
        res = ctx.joint_distribution_feasible(ctx.CorrelatorTable(np.zeros((2, 2))))
        assert res.feasible
        q = res.distribution.ravel()
        assert np.all(q >= -1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_singlet_table_is_infeasible(self):
        table = ctx.table_from_state(ctx.singlet_state())
        res = ctx.joint_distribution_feasible(table)
        assert not res.feasible
        assert res.witness.kind == "chsh"
        assert res.witness.value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert res.witness.bound == 2.0

    def test_local_model_tables_are_feasible(self, rng):
        # draw a distribution over the 16 deterministic assignments and
        # check the LP reproduces its moments
        import itertools
        signs = np.array([1.0, -1.0])
        grids = np.array(list(itertools.product((0, 1), repeat=4)))
        sa = signs[grids[:, :2]]
        sb = signs[grids[:, 2:]]
        for _ in range(10):
            q = rng.dirichlet(np.ones(16))
            corr = np.array([[np.dot(q, sa[:, i] * sb[:, j]) for j in range(2)]
                             for i in range(2)])
            ma = [np.dot(q, sa[:, i]) for i in range(2)]
            mb = [np.dot(q, sb[:, j]) for j in range(2)]
            table = ctx.CorrelatorTable(corr, np.array(ma), np.array(mb))
            res = ctx.joint_distribution_feasible(table)
            assert res.feasible
            p = res.distribution.ravel()
            back = np.array([[np.dot(p, sa[:, i] * sb[:, j]) for j in range(2)]
                             for i in range(2)])
            assert np.max(np.abs(back - corr)) <= 1e-8

    def test_fine_equivalence_on_random_tables(self, rng):
        # zero marginals: a joint distribution exists iff every CHSH variant
        # stays within [-2, 2]; the solver also cross-checks this internally
        for _ in range(1000):
            table = ctx.CorrelatorTable(rng.uniform(-1.0, 1.0, size=(2, 2)))
            worst = max(abs(v) for _, v in ctx.chsh_variants(table))
            res = ctx.joint_distribution_feasible(table)
            assert res.feasible == (worst <= 2.0 + 1e-9)
            if not res.feasible:
                assert res.witness.kind == "chsh"
                assert res.witness.value > 2.0

    def test_product_state_table_is_feasible(self, rng):
        prod = tensor(bloch_state((0, 0, 0.3)), bloch_state((0.5, 0, 0)))
        res = ctx.joint_distribution_feasible(ctx.table_from_state(prod))
        assert res.feasible

    def test_pair_negativity_witness(self):
        # all CHSH variants sit at 1, yet the (z, u) pair already forces a
        # negative cell: (1 - 1 - 1 - 1)/4 at outcomes (-, -)
        corr = np.zeros((2, 2))
        corr[0, 0] = -1.0
        table = ctx.CorrelatorTable(corr, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        worst = max(abs(v) for _, v in ctx.chsh_variants(table))
        assert worst <= 1.0 + 1e-12
        res = ctx.joint_distribution_feasible(table)
        assert not res.feasible
        assert res.witness.kind == "pair_negativity"
        assert res.witness.value == pytest.approx(-0.5, abs=1e-12)
        assert res.witness.detail["first_axis"] == 0
        assert res.witness.detail["second_axis"] == 0
        assert res.witness.detail["first_sign"] == -1
        assert res.witness.detail["second_sign"] == -1

    def test_pinned_table_is_feasible(self):
        # moments of a strictly positive joint; at HiGHS' default feasibility
        # tolerance (1e-7) the LP returned an entry of -1.1e-8 and the call
        # raised for want of a witness
        corr = np.array([[-0.451917657447296, 0.1253192321045533],
                         [-0.14012006189081957, 0.43709122600856243]])
        ma = np.array([-0.12530641049228353, -0.43710404991622376])
        mb = np.array([-0.422774384657617, -0.9999870116425157])
        res = ctx.joint_distribution_feasible(ctx.CorrelatorTable(corr, ma, mb))
        assert res.feasible
        _assert_reproduces(res.distribution, corr, ma, mb)

    def test_sparse_dirichlet_tables_are_feasible(self, rng):
        # small concentrations put most cells near zero and some marginals near +-1
        for alpha in (1.0, 0.1, 0.02):
            for _ in range(100):
                corr, ma, mb = _moments(rng.dirichlet(np.full(16, alpha)))
                corr, ma, mb = (np.clip(v, -1.0, 1.0) for v in (corr, ma, mb))
                res = ctx.joint_distribution_feasible(ctx.CorrelatorTable(corr, ma, mb))
                assert res.feasible
                _assert_reproduces(res.distribution, corr, ma, mb)

    def test_facets_decide_tables_with_marginals(self, rng):
        # the local polytope of two +/-1 observables per side has 24 facets:
        # the 8 CHSH variants and the 16 pair cells q(sa, sb) >= 0
        decided = 0
        for _ in range(500):
            table = ctx.CorrelatorTable(rng.uniform(-1.0, 1.0, size=(2, 2)),
                                        rng.uniform(-1.0, 1.0, size=2),
                                        rng.uniform(-1.0, 1.0, size=2))
            chsh = max(abs(v) for _, v in ctx.chsh_variants(table))
            cell = min(0.25 * (1.0 + sa * table.marginals_a[i] + sb * table.marginals_b[j]
                               + sa * sb * table.correlators[i, j])
                       for i in range(2) for j in range(2) for sa in (1, -1) for sb in (1, -1))
            margin = min(2.0 - chsh, cell)
            if abs(margin) < 1e-7:
                continue
            decided += 1
            res = ctx.joint_distribution_feasible(table)
            assert res.feasible == (margin > 0)
            if res.feasible:
                _assert_reproduces(res.distribution, table.correlators,
                                   table.marginals_a, table.marginals_b)
            elif chsh > 2.0:
                assert res.witness.kind == "chsh"
                assert res.witness.value == pytest.approx(chsh, abs=1e-12)
            else:
                assert res.witness.kind == "pair_negativity"
                assert res.witness.value == pytest.approx(cell, abs=1e-12)
        assert decided >= 495

    def test_construction_that_misses_the_table_raises(self, monkeypatch):
        # the facets admit the pinned table; a construction whose distribution
        # does not reproduce it must trip the cross-check, not be returned
        corr = np.array([[-0.451917657447296, 0.1253192321045533],
                         [-0.14012006189081957, 0.43709122600856243]])
        table = ctx.CorrelatorTable(corr, np.array([-0.12530641049228353, -0.43710404991622376]),
                                    np.array([-0.422774384657617, -0.9999870116425157]))
        monkeypatch.setattr(ctx, "_glued_distribution",
                            lambda table: np.full((2, 2, 2, 2), 1.0 / 16))
        with pytest.raises(ValidationError, match="cross-check"):
            ctx.joint_distribution_feasible(table)

    def test_deterministic_tables_return_their_vertex(self):
        for k, (sa0, sa1, sb0, sb1) in enumerate(_SIGNS):
            corr = np.array([[sa0 * sb0, sa0 * sb1], [sa1 * sb0, sa1 * sb1]])
            res = ctx.joint_distribution_feasible(
                ctx.CorrelatorTable(corr, np.array([sa0, sa1]), np.array([sb0, sb1])))
            assert res.feasible
            assert np.array_equal(res.distribution.ravel(), np.eye(16)[k])

    def test_chsh_saturating_table_is_feasible(self):
        corr = np.array([[0.5, 0.5], [0.5, -0.5]])
        table = ctx.CorrelatorTable(corr)
        assert max(abs(v) for _, v in ctx.chsh_variants(table)) == 2.0
        res = ctx.joint_distribution_feasible(table)
        assert res.feasible
        q = res.distribution.ravel()
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) <= 1e-12
        for got, want in zip(_moments(q), (corr, np.zeros(2), np.zeros(2))):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_tight_tolerance_feasible_without_warning(self):
        table = ctx.CorrelatorTable(np.full((2, 2), 0.3), np.array([0.1, 0.0]),
                                    np.array([0.0, -0.2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ctx.joint_distribution_feasible(table, tol=1e-12)
        assert res.feasible
        _assert_reproduces(res.distribution, table.correlators,
                           table.marginals_a, table.marginals_b)

    def test_non_finite_table_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            ctx.CorrelatorTable(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="finite"):
            ctx.CorrelatorTable(np.zeros((2, 2)), np.array([0.0, np.inf]))

    def test_table_bounds_enforced(self):
        with pytest.raises(ValidationError):
            ctx.CorrelatorTable(np.array([[1.5, 0], [0, 0]]))
        with pytest.raises(ValidationError):
            ctx.CorrelatorTable(np.zeros((2, 2)), np.array([2.0, 0.0]),
                                np.array([0.0, 0.0]))
        with pytest.raises(ValidationError):
            ctx.CorrelatorTable(np.zeros((3, 2)))
