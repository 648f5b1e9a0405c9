"""Symbol calculus: heat, quantizations, composition series, C^1 term."""

import numpy as np
import pytest

from blochlab.fock import FockBasis, wick_symbol
from blochlab.hierarchy import _duhamel_forcing
from blochlab.model import SIGMA, ModelError, PhaseVector, fmap, spin_operator
from blochlab.symbols import (
    PolySymbol,
    anti_wick_quantize,
    c1_affine,
    heat,
    mizrahi_compose,
    wick_quantize,
)
from conftest import random_phase_vector, zero_vector
from reference import h_int_symbol, number_operator


def sym_equal(f, g, atol=1e-12):
    keys = set(f.coeffs) | set(g.coeffs)
    for k in keys:
        fv = f.coeffs.get(k, 0.0)
        gv = g.coeffs.get(k, 0.0)
        if not np.allclose(fv, gv, atol=atol):
            return False
    return True


def random_symbol(rng, D, degree, matrix_dim=0):
    """Random polynomial with all exponent pairs up to the given degree."""
    from itertools import product

    coeffs = {}
    for al in product(range(degree + 1), repeat=D):
        for be in product(range(degree + 1), repeat=D):
            if sum(al) + sum(be) > degree:
                continue
            if matrix_dim:
                v = rng.standard_normal((matrix_dim, matrix_dim)) + 1j * (
                    rng.standard_normal((matrix_dim, matrix_dim))
                )
            else:
                v = complex(rng.standard_normal() + 1j * rng.standard_normal())
            coeffs[(al, be)] = v
    return PolySymbol(D, coeffs)


def q_squared(D=1):
    return PolySymbol.from_qp_monomial([2] + [0] * (D - 1), [0] * D)


class TestEval:
    def test_constant(self):
        f = PolySymbol.constant(3, 1.0 + 0.0j)
        x = PhaseVector(np.ones(3), -np.ones(3))
        assert f.eval(x) == pytest.approx(1.0)

    def test_zw_is_abs_square(self):
        f = PolySymbol(1, {((1,), (1,)): 1.0 + 0.0j})
        x = PhaseVector(np.array([3.0]), np.array([4.0]))
        assert f.eval(x) == pytest.approx(25.0)

    def test_linear_matches_dot(self, rng):
        v = random_phase_vector(rng, 3)
        x = random_phase_vector(rng, 3)
        assert PolySymbol.linear(v).eval(x) == pytest.approx(v.dot(x), abs=1e-12)

    def test_matrix_affine_reproduces_interaction_symbol(self, minimal_model, rng):
        model = minimal_model
        f = PolySymbol.constant(
            model.D,
            sum(model.beta[m] * model.spin_ops[0][m] for m in range(3)),
        )
        for lam in range(model.N):
            for m in range(3):
                f = f + PolySymbol.linear(
                    model.couplings[lam][m], 1.0
                ) * PolySymbol.constant(model.D, model.spin_ops[lam][m])
        for _ in range(3):
            x = random_phase_vector(rng, model.D)
            np.testing.assert_allclose(
                f.eval(x), h_int_symbol(model, x), atol=1e-12
            )

    def test_qp_monomial_roundtrip(self, rng):
        f = PolySymbol.from_qp_monomial([1, 2], [0, 1])
        x = random_phase_vector(rng, 2)
        expected = x.q[0] * x.q[1] ** 2 * x.p[1]
        assert f.eval(x) == pytest.approx(expected, abs=1e-12)


class TestLaplacian:
    def test_q_squared(self):
        lap = q_squared().laplacian()
        assert sym_equal(lap, PolySymbol.constant(1, 2.0 + 0.0j))

    def test_kills_linear(self, rng):
        f = PolySymbol.linear(random_phase_vector(rng, 2))
        assert f.laplacian().coeffs == {}

    def test_zw(self):
        f = PolySymbol(1, {((1,), (1,)): 1.0 + 0.0j})
        assert sym_equal(f.laplacian(), PolySymbol.constant(1, 4.0 + 0.0j))


class TestHeat:
    def test_q_squared_shifts(self):
        h = 0.3
        out = heat(q_squared(), h)
        expected = q_squared() + PolySymbol.constant(1, h + 0.0j)
        assert sym_equal(out, expected)

    def test_linear_fixed(self, rng):
        f = PolySymbol.linear(random_phase_vector(rng, 2))
        assert sym_equal(heat(f, 0.7), f)

    def test_roundtrip_exact(self, rng):
        f = random_symbol(rng, 2, 6)
        back = heat(heat(f, 0.4), -0.4)
        assert sym_equal(back, f, atol=1e-10)

    def test_linear_in_symbol(self, rng):
        f = random_symbol(rng, 1, 3)
        g = random_symbol(rng, 1, 3)
        assert sym_equal(heat(f + g, 0.2), heat(f, 0.2) + heat(g, 0.2), atol=1e-12)


class TestWickQuantize:
    def test_identity(self):
        basis = FockBasis(D=1, n_max=6)
        op = wick_quantize(PolySymbol.constant(1, 1.0 + 0.0j), basis, 0.5)
        np.testing.assert_allclose(op.toarray(), np.eye(basis.dim), atol=1e-14)

    def test_q2_plus_p2_is_2hN(self):
        basis = FockBasis(D=1, n_max=6)
        h = 0.4
        f = PolySymbol(1, {((1,), (1,)): 1.0 + 0.0j})  # z w = q^2 + p^2
        op = wick_quantize(f, basis, h)
        np.testing.assert_allclose(
            op.toarray(), 2 * h * number_operator(basis).toarray(), atol=1e-13
        )

    def test_segal_field_agreement(self, rng):
        from blochlab.fock import segal_field

        basis = FockBasis(D=2, n_max=8)
        h = 0.3
        v = random_phase_vector(rng, 2)
        op = wick_quantize(PolySymbol.linear(v), basis, h)
        np.testing.assert_allclose(
            op.toarray(), segal_field(basis, h, v).toarray(), atol=1e-12
        )

    def test_symbol_roundtrip(self, rng):
        basis = FockBasis(D=2, n_max=25)
        h = 0.3
        f = random_symbol(rng, 2, 3)
        op = wick_quantize(f, basis, h)
        for _ in range(20):
            x = random_phase_vector(rng, 2, scale=0.35)
            got = wick_symbol(basis, h, op, x)
            want = f.eval(x)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_degree_cap(self):
        basis = FockBasis(D=1, n_max=2)
        f = PolySymbol(1, {((3,), (0,)): 1.0 + 0.0j})
        with pytest.raises(ModelError):
            wick_quantize(f, basis, 0.5)


class TestAntiWick:
    def test_identity(self):
        basis = FockBasis(D=1, n_max=5)
        op = anti_wick_quantize(PolySymbol.constant(1, 1.0 + 0.0j), basis, 0.3)
        np.testing.assert_allclose(op.toarray(), np.eye(basis.dim), atol=1e-14)

    def test_q2_shift(self):
        basis = FockBasis(D=1, n_max=8)
        h = 0.25
        aw = anti_wick_quantize(q_squared(), basis, h)
        shifted = q_squared() + PolySymbol.constant(1, h + 0.0j)
        np.testing.assert_allclose(
            aw.toarray(), wick_quantize(shifted, basis, h).toarray(), atol=1e-13
        )

    def test_symbol_of_antiwick_q2(self, rng):
        basis = FockBasis(D=1, n_max=25)
        h = 0.3
        aw = anti_wick_quantize(q_squared(), basis, h)
        for _ in range(5):
            x = random_phase_vector(rng, 1, scale=0.4)
            got = wick_symbol(basis, h, aw, x)
            assert got.real == pytest.approx(x.q[0] ** 2 + h, abs=1e-8)


class TestMizrahi:
    def test_q_times_q(self):
        h = 0.3
        q = PolySymbol.from_qp_monomial([1], [0])
        out = mizrahi_compose(q, q, h)
        expected = q_squared() + PolySymbol.constant(1, h / 2 + 0.0j)
        assert sym_equal(out, expected)

    def test_unit_right_identity(self, rng):
        f = random_symbol(rng, 2, 3)
        one = PolySymbol.constant(2, 1.0 + 0.0j)
        assert sym_equal(mizrahi_compose(f, one, 0.4), f)
        assert sym_equal(mizrahi_compose(one, f, 0.4), f)

    def test_operator_identity(self, rng):
        # Op(C_h(F,G)) = Op(F)Op(G): exact on the sub-block whose row and
        # column totals stay clear of the cutoff by deg F + deg G.
        basis = FockBasis(D=2, n_max=10)
        h = 0.35
        f = random_symbol(rng, 2, 3)
        g = random_symbol(rng, 2, 3)
        lhs = wick_quantize(mizrahi_compose(f, g, h), basis, h).toarray()
        rhs = (wick_quantize(f, basis, h) @ wick_quantize(g, basis, h)).toarray()
        keep = basis.totals <= basis.n_max - (f.degree + g.degree)
        block = np.ix_(keep, keep)
        scale = max(1.0, np.abs(lhs[block]).max())
        np.testing.assert_allclose(lhs[block], rhs[block], atol=1e-9 * scale)

    def test_operator_identity_matrix_valued(self, rng):
        basis = FockBasis(D=1, n_max=10)
        h = 0.3
        f = random_symbol(rng, 1, 2, matrix_dim=2)
        g = random_symbol(rng, 1, 2, matrix_dim=2)
        lhs = wick_quantize(mizrahi_compose(f, g, h), basis, h).toarray()
        rhs = (wick_quantize(f, basis, h) @ wick_quantize(g, basis, h)).toarray()
        keep = np.repeat(basis.totals <= basis.n_max - 4, 2)
        block = np.ix_(keep, keep)
        scale = max(1.0, np.abs(lhs[block]).max())
        np.testing.assert_allclose(lhs[block], rhs[block], atol=1e-9 * scale)

    def test_associative(self, rng):
        h = 0.4
        f = random_symbol(rng, 1, 3)
        g = random_symbol(rng, 1, 3)
        k = random_symbol(rng, 1, 3)
        a = mizrahi_compose(mizrahi_compose(f, g, h), k, h)
        b = mizrahi_compose(f, mizrahi_compose(g, k, h), h)
        scale = max(abs(v) for v in a.coeffs.values())
        assert sym_equal(a, b, atol=1e-10 * scale)

    def test_annihilation_pull_through(self, rng):
        # [a_j, Op(G)] = sqrt(h/2) Op((dq_j + i dp_j) G)
        basis = FockBasis(D=2, n_max=8)
        h = 0.45
        g = random_symbol(rng, 2, 3)
        op = wick_quantize(g, basis, h)
        for j in range(2):
            a = basis.annihilator(j)
            lhs = (a @ op - op @ a).toarray()
            dg = g.dq(j) + g.dp(j).scale(1j)
            rhs = np.sqrt(h / 2.0) * wick_quantize(dg, basis, h).toarray()
            keep = basis.totals <= basis.n_max - g.degree
            block = np.ix_(keep, keep)
            np.testing.assert_allclose(lhs[block], rhs[block], atol=1e-10)


def directional(g, v, x):
    """dG(X)(V) of a polynomial symbol as a matrix (a scalar G as 1x1)."""
    return np.broadcast_to(g.directional(v).eval(x), g.value_shape() or (1, 1))


class TestC1Cross:
    def test_constant_g_vanishes(self, rng):
        s = spin_operator(1, 1, 3)
        zero = np.zeros((2, 2), dtype=complex)
        for side in ("left", "right"):
            np.testing.assert_allclose(c1_affine(s, zero, zero, side), 0.0, atol=1e-14)
        with pytest.raises(ModelError):
            c1_affine(s, zero, zero, "middle")

    def test_affine_affine_closed_form(self, rng):
        # scalar affine F, G: C1(F,G) = 1/2 (grad_q F - i grad_p F) .
        # (grad_q G + i grad_p G); matches the order-1 Mizrahi term / h
        bf = random_phase_vector(rng, 2)
        bg = random_phase_vector(rng, 2)
        g_sym = PolySymbol.linear(bg)
        x = random_phase_vector(rng, 2)
        db, dfb = directional(g_sym, bf, x), directional(g_sym, fmap(bf), x)
        got = c1_affine(np.eye(1), db, dfb, "left")
        want = 0.5 * np.vdot(bf.q + 1j * bf.p, bg.q + 1j * bg.p)
        assert complex(got[0, 0]) == pytest.approx(want, abs=1e-12)
        h = 0.37
        f_sym = PolySymbol.linear(bf)
        order1 = mizrahi_compose(f_sym, g_sym, h) - f_sym * g_sym
        assert complex(order1.eval(zero_vector(2))) == pytest.approx(
            h * want, abs=1e-12
        )

    def test_commutator_consistency(self, rng):
        # for affine F = (V . X) S the Mizrahi series ends at first order, so
        # the symbol of [Op(F), Op(G)] is [F, G] + h [C1(F, G) - C1(G, F)]
        # exactly.  S = 1 commutes with the matrix polynomial G, a Pauli S
        # does not; i [C1(F, G) - C1(G, F)] is the hierarchy's Duhamel
        # forcing, so this checks the forcing of every order_j too
        h = 0.3
        v = random_phase_vector(rng, 2)
        g = random_symbol(rng, 2, 3, matrix_dim=2)
        for s in (np.eye(2, dtype=complex), SIGMA[0], SIGMA[1]):
            f = PolySymbol.linear(v, s)
            comm_sym = (
                mizrahi_compose(f, g, h) - mizrahi_compose(g, f, h) - (f * g - g * f)
            )
            for _ in range(4):
                x = random_phase_vector(rng, 2, scale=0.6)
                db, dfb = directional(g, v, x), directional(g, fmap(v), x)
                left = c1_affine(s, db, dfb, side="left")
                right = c1_affine(s, db, dfb, side="right")
                want = comm_sym.eval(x)
                np.testing.assert_allclose(want, h * (left - right), atol=1e-10)
                np.testing.assert_allclose(
                    _duhamel_forcing(s, db, dfb), 1j * want / h, atol=1e-9
                )

    def test_matches_mizrahi_for_interaction_symbol(self, minimal_model, rng):
        # cross-check the affine reduction, stacked over the coupling terms,
        # against the full series for the spin-field interaction symbol of
        # the minimal model
        model = minimal_model
        h = 0.4
        f_sym = PolySymbol(model.D, {})
        bs, ss = [], []
        for lam in range(model.N):
            for m in range(3):
                bs.append(model.couplings[lam][m])
                ss.append(model.spin_ops[lam][m])
                f_sym = f_sym + PolySymbol.linear(bs[-1], ss[-1])
        g = random_symbol(rng, model.D, 2, matrix_dim=2)
        order1 = (mizrahi_compose(f_sym, g, h) - f_sym * g).scale(1.0 / h)
        x = random_phase_vector(rng, model.D, scale=0.5)
        db = np.stack([directional(g, b, x) for b in bs])
        dfb = np.stack([directional(g, fmap(b), x) for b in bs])
        got = c1_affine(np.stack(ss), db, dfb, "left").sum(axis=0)
        np.testing.assert_allclose(order1.eval(x), got, atol=1e-10)
