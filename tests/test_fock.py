"""Truncated Fock layer: basis, ladder algebra, coherent states, symbols."""

import warnings

import numpy as np
import pytest

from blochlab.fock import (
    FockBasis,
    TruncationWarning,
    coherent_overlap,
    coherent_state,
    gamma_free_phases,
    segal_field,
    wick_symbol,
)
from blochlab.model import (
    ModelError,
    PhaseVector,
    chi_flow_vector,
    symplectic_form,
)
from conftest import random_phase_vector, zero_vector
from reference import coherent_tail_mass, dgamma, number_operator, segal_field_per_mode


@pytest.fixture(scope="module")
def small_basis():
    return FockBasis(D=2, n_max=6)


@pytest.fixture(scope="module")
def med_basis():
    return FockBasis(D=4, n_max=12)


class TestBasis:
    def test_dimension_counts(self):
        assert FockBasis(D=1, n_max=5).dim == 6
        assert FockBasis(D=2, n_max=3).dim == 10
        assert FockBasis(D=4, n_max=12).dim == 1820

    def test_graded_lex_order(self, small_basis):
        occ = small_basis.occupations
        # vacuum first, degrees nondecreasing, lex within a degree
        assert tuple(occ[0]) == (0, 0)
        totals = occ.sum(axis=1)
        assert np.all(np.diff(totals) >= 0)
        for n in range(7):
            block = occ[totals == n]
            as_tuples = [tuple(r) for r in block]
            assert as_tuples == sorted(as_tuples)

    def test_index_roundtrip(self, small_basis):
        for i, a in enumerate(small_basis.occupations):
            assert small_basis.index[tuple(a)] == i

    def test_rejects_bad_sizes(self):
        with pytest.raises(ModelError):
            FockBasis(D=0, n_max=3)
        with pytest.raises(ModelError):
            FockBasis(D=2, n_max=-1)


class TestLadder:
    def test_annihilator_matrix_elements(self, small_basis):
        b = small_basis
        a0 = b.annihilator(0)
        src = b.index[(2, 1)]
        dst = b.index[(1, 1)]
        assert a0[dst, src] == pytest.approx(np.sqrt(2.0))
        assert a0[:, b.index[(0, 3)]].count_nonzero() == 0

    def test_ccr_below_cutoff(self, small_basis):
        # [a_j, a*_k] = delta_jk away from the top photon layer
        b = small_basis
        keep = b.totals < b.n_max
        for j in range(b.D):
            for k in range(b.D):
                comm = (
                    b.annihilator(j) @ b.creator(k)
                    - b.creator(k) @ b.annihilator(j)
                ).toarray()
                block = comm[np.ix_(keep, keep)]
                expected = (1.0 if j == k else 0.0) * np.eye(int(keep.sum()))
                np.testing.assert_allclose(block, expected, atol=1e-14)

    def test_number_from_ladders(self, small_basis):
        b = small_basis
        n_op = sum(b.creator(j) @ b.annihilator(j) for j in range(b.D))
        np.testing.assert_allclose(
            n_op.toarray(), number_operator(b).toarray(), atol=1e-14
        )


class TestDGamma:
    def test_diagonal_values(self, small_basis):
        m = np.array([1.5, 0.25])
        dg = dgamma(small_basis, m).toarray()
        for i, a in enumerate(small_basis.occupations):
            assert dg[i, i] == pytest.approx(a @ m)
        assert np.count_nonzero(dg - np.diag(np.diag(dg))) == 0

    def test_free_phase_consistency(self, small_basis):
        # Gamma(chi_t) = exp(-i t dGamma(omega)) entrywise
        om = np.array([0.7, 1.3])
        t = 0.9
        ph = gamma_free_phases(small_basis, om, t)
        diag = np.diag(dgamma(small_basis, om).toarray()).real
        np.testing.assert_allclose(ph, np.exp(-1j * t * diag), atol=1e-14)


class TestSegalField:
    def test_selfadjoint(self, small_basis, rng):
        v = random_phase_vector(rng, 2)
        f = segal_field(small_basis, 0.3, v).toarray()
        np.testing.assert_allclose(f, f.conj().T, atol=1e-13)

    def test_linear_in_v(self, small_basis, rng):
        u = random_phase_vector(rng, 2)
        v = random_phase_vector(rng, 2)
        h = 0.5
        lhs = segal_field(small_basis, h, u + 2.0 * v).toarray()
        rhs = (
            segal_field(small_basis, h, u) + 2.0 * segal_field(small_basis, h, v)
        ).toarray()
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_sqrt_h_scaling(self, small_basis, rng):
        v = random_phase_vector(rng, 2)
        f1 = segal_field(small_basis, 0.1, v).toarray()
        f4 = segal_field(small_basis, 0.4, v).toarray()
        np.testing.assert_allclose(f4, 2.0 * f1, atol=1e-13)

    def test_commutator_gives_symplectic_form(self, small_basis, rng):
        # [Phi_{S,h}(U), Phi_{S,h}(V)] = -i h sigma(U, V) I below the cutoff
        b = small_basis
        h = 0.35
        u = random_phase_vector(rng, 2)
        v = random_phase_vector(rng, 2)
        fu = segal_field(b, h, u)
        fv = segal_field(b, h, v)
        comm = (fu @ fv - fv @ fu).toarray()
        keep = b.totals < b.n_max
        block = comm[np.ix_(keep, keep)]
        expected = -1j * h * symplectic_form(u, v) * np.eye(int(keep.sum()))
        np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_one_constructor_matches_per_mode_sum(self, octa_model, rng):
        # the per-mode terms have disjoint patterns, so the entries, and the
        # order of each row's entries in the products, are the same
        basis = FockBasis(octa_model.D, 2)
        v = random_phase_vector(rng, octa_model.D)
        v.q[5] = v.p[5] = 0.0
        got = segal_field(basis, 0.3, v)
        want = segal_field_per_mode(basis, 0.3, v)
        assert np.array_equal(got.toarray(), want.toarray())
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        empty = segal_field(basis, 0.3, zero_vector(octa_model.D))
        assert empty.shape == (basis.dim, basis.dim) and empty.nnz == 0

    def test_vacuum_expectation_and_variance(self, small_basis, rng):
        # <0|Phi|0> = 0 and <0|Phi^2|0> = h |V|^2 / 2
        h = 0.25
        v = random_phase_vector(rng, 2)
        f = segal_field(small_basis, h, v).toarray()
        vac = np.zeros(small_basis.dim)
        vac[0] = 1.0
        assert abs(vac @ f @ vac) < 1e-14
        assert (vac @ f @ f @ vac).real == pytest.approx(
            0.5 * h * v.norm() ** 2, rel=1e-12
        )


class TestCoherentState:
    def test_vacuum_is_zero_point(self, small_basis):
        c, tail = coherent_state(small_basis, 0.5, zero_vector(2))
        assert tail == pytest.approx(0.0, abs=1e-15)
        assert c[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(c[1:]), 0.0, atol=1e-15)

    def test_explicit_single_mode_coefficients(self):
        # D = 1: c_n = e^{-|z|^2/2} z^n / sqrt(n!) with z = (q + ip)/sqrt(2h)
        basis = FockBasis(D=1, n_max=25)
        h = 0.5
        q, p = 0.4, -0.3
        z = (q + 1j * p) / np.sqrt(2 * h)
        c, tail = coherent_state(basis, h, PhaseVector(np.array([q]), np.array([p])))
        assert tail < 1e-12
        from math import factorial

        def coefficient(n):
            return np.exp(-0.5 * abs(z) ** 2) * z**n / np.sqrt(float(factorial(n)))

        # the state comes divided by its truncated norm
        norm = np.sqrt(sum(abs(coefficient(n)) ** 2 for n in range(basis.n_max + 1)))
        for n in (0, 1, 2, 5, 9):
            assert c[n] == pytest.approx(coefficient(n) / norm, abs=1e-14)

    def test_eigenvector_of_annihilator(self, med_basis, rng):
        b = med_basis
        h = 0.8
        x = random_phase_vector(rng, 4, scale=0.3)
        z = (x.q + 1j * x.p) / np.sqrt(2 * h)
        c, tail = coherent_state(b, h, x)
        assert tail < 1e-12
        keep = b.totals < b.n_max
        for j in range(4):
            res = (b.annihilator(j) @ c - z[j] * c)[keep]
            assert np.max(np.abs(res)) < 1e-10

    def test_overlap_formula(self, med_basis, rng):
        h = 0.6
        x = random_phase_vector(rng, 4, scale=0.3)
        y = random_phase_vector(rng, 4, scale=0.3)
        cx, _ = coherent_state(med_basis, h, x)
        cy, _ = coherent_state(med_basis, h, y)
        assert np.vdot(cx, cy) == pytest.approx(coherent_overlap(h, x, y), abs=1e-10)

    def test_overlap_phase_is_symplectic(self, rng):
        # arg<C(X), C(Y)> = -sigma(X, Y) / 2h for the derived conventions
        h = 0.7
        x = random_phase_vector(rng, 3, scale=0.5)
        y = random_phase_vector(rng, 3, scale=0.5)
        ov = coherent_overlap(h, x, y)
        assert np.angle(ov) == pytest.approx(
            -symplectic_form(x, y) / (2 * h), abs=1e-12
        )

    def test_tail_warning(self):
        basis = FockBasis(D=1, n_max=3)
        with pytest.warns(TruncationWarning):
            coherent_state(basis, 0.1, PhaseVector(np.array([1.5]), np.array([0.0])))

    def test_tail_mass_prediction(self):
        basis = FockBasis(D=1, n_max=8)
        h = 0.2
        x = PhaseVector(np.array([0.9]), np.array([0.4]))
        with warnings.catch_warnings():
            # the tail is far above the warning threshold on purpose
            warnings.simplefilter("ignore", TruncationWarning)
            _, tail = coherent_state(basis, h, x)
        assert tail == pytest.approx(
            coherent_tail_mass(basis.n_max, h, x.norm()), rel=1e-10
        )

    def test_free_flow_covariance(self, med_basis, rng):
        # Gamma(chi_t) C(X) = C(chi_t X)
        from blochlab.model import Model, minimal_grid_config

        model = Model(minimal_grid_config())
        b = med_basis
        h, t = 0.5, 0.8
        x = random_phase_vector(rng, 4, scale=0.25)
        c, _ = coherent_state(b, h, x)
        evolved = gamma_free_phases(b, model.grid.slot_omegas, t) * c
        target, _ = coherent_state(b, h, chi_flow_vector(model.grid, t, x))
        assert np.max(np.abs(evolved - target)) < 1e-10


class TestWickSymbol:
    def test_segal_field_symbol(self, med_basis, rng):
        # the defining contract: symbol of Phi_{S,h}(V) at X is V . X
        h = 0.4
        v = random_phase_vector(rng, 4)
        x = random_phase_vector(rng, 4, scale=0.3)
        f = segal_field(med_basis, h, v)
        s = wick_symbol(med_basis, h, f, x)
        assert s.real == pytest.approx(v.dot(x), abs=1e-9)
        assert abs(s.imag) < 1e-9

    def test_number_symbol(self, med_basis, rng):
        # symbol of h * N at X is |X|^2 / 2
        h = 0.4
        x = random_phase_vector(rng, 4, scale=0.2)
        s = wick_symbol(med_basis, h, h * number_operator(med_basis), x)
        assert s.real == pytest.approx(0.5 * x.norm() ** 2, abs=1e-9)


class TestStructuralInvariants:
    def test_frozen_overlap_value(self):
        # D=1, h=1, X=(1,0), Y=0: overlap e^{-1/4} = 0.7788007830714049
        basis = FockBasis(D=1, n_max=20)
        x = PhaseVector(np.array([1.0]), np.array([0.0]))
        y = zero_vector(1)
        cx, _ = coherent_state(basis, 1.0, x)
        cy, _ = coherent_state(basis, 1.0, y)
        assert np.vdot(cx, cy) == pytest.approx(0.7788007830714049, abs=1e-12)

    def test_number_conservation_of_free_flow(self, small_basis):
        om = np.array([0.8, 1.7])
        ph = gamma_free_phases(small_basis, om, 1.3)
        n_diag = np.asarray(small_basis.totals, dtype=float)
        # diagonal operators commute exactly; check the phases only depend
        # on occupations through omega weighting, and vacuum is invariant
        assert ph[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(ph), 1.0, atol=1e-14)
        # Gamma* N Gamma = N entrywise for diagonal Gamma
        np.testing.assert_allclose(np.conj(ph) * n_diag * ph, n_diag, atol=1e-13)

    def test_poisson_photon_statistics(self):
        basis = FockBasis(D=1, n_max=30)
        h = 0.5
        x = PhaseVector(np.array([0.7]), np.array([-0.4]))
        c, tail = coherent_state(basis, h, x)
        assert tail < 1e-12
        mu = x.norm() ** 2 / (2 * h)
        from math import factorial

        for n in (0, 1, 2, 5, 8):
            prob = abs(c[n]) ** 2
            assert prob == pytest.approx(
                np.exp(-mu) * mu**n / factorial(n), rel=1e-9
            )

    def test_displacement_identity(self):
        # exp(-(i/h) Phi_{S,h}(F X)) vacuum = coherent(X), F(q,p) = (-p,q)
        from scipy.linalg import expm

        from blochlab.model import fmap

        basis = FockBasis(D=1, n_max=25)
        h = 0.6
        x = PhaseVector(np.array([0.5]), np.array([-0.3]))
        gen = segal_field(basis, h, fmap(x)).toarray()
        vac = np.zeros(basis.dim, dtype=complex)
        vac[0] = 1.0
        disp = expm((-1j / h) * gen) @ vac
        target, tail = coherent_state(basis, h, x)
        assert tail < 1e-12
        assert np.max(np.abs(disp - target)) < 1e-9

    def test_free_conjugation_covariance(self, rng):
        # symbol(Gamma(chi_t)* Phi Gamma(chi_t))(X) = symbol(Phi)(chi_t X)
        from blochlab.model import Model, minimal_grid_config

        model = Model(minimal_grid_config())
        basis = FockBasis(D=4, n_max=14)
        h, t = 0.5, 0.9
        v = random_phase_vector(rng, 4)
        x = random_phase_vector(rng, 4, scale=0.25)
        f = segal_field(basis, h, v)
        ph = gamma_free_phases(basis, model.grid.slot_omegas, t)
        conj_op = (np.conj(ph)[:, None] * f.toarray()) * ph[None, :]
        got = wick_symbol(basis, h, conj_op, x)
        want = v.dot(chi_flow_vector(model.grid, t, x))
        assert got.real == pytest.approx(want, abs=1e-9)
        assert abs(got.imag) < 1e-9
