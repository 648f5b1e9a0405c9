"""Model layer: grid geometry, couplings, helicity, rho, spin algebra."""

import numpy as np
import pytest

from blochlab.harness import ExperimentPlan, default_plan_dict
from blochlab.model import (
    Model,
    ModelConfig,
    ModelError,
    apply_helicity,
    build_grid,
    chi_flow_vector,
    coupling_B,
    coupling_B_gradient,
    flow_pairing,
    fmap,
    minimal_grid_config,
    polarization_project,
    rho_discrete,
    spin_operator,
    symplectic_form,
)
from conftest import random_phase_vector, zero_vector
from reference import dh_int, h_int_symbol

TWO_PI_32 = (2.0 * np.pi) ** (-1.5)


class TestGrid:
    def test_minimal_grid_counts(self, minimal_model):
        g = minimal_model.grid
        assert g.n_kpoints == 1
        assert g.D == 4
        assert g.omegas[0] == pytest.approx(1.0)

    def test_octahedral_counts(self, octa_model):
        g = octa_model.grid
        assert g.n_kpoints == 12
        assert g.D == 48

    def test_frames_z_axis(self, minimal_model):
        g = minimal_model.grid
        np.testing.assert_allclose(g.frames[0, 0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(g.frames[0, 1], [0.0, 1.0, 0.0], atol=1e-15)

    def test_frame_invariants(self, octa_model):
        g = octa_model.grid
        khat = g.kpoints / g.omegas[:, None]
        for i in range(g.n_kpoints):
            e1, e2 = g.frames[i]
            assert abs(e1 @ khat[i]) < 1e-14
            assert abs(e2 @ khat[i]) < 1e-14
            np.testing.assert_allclose(np.cross(khat[i], e1), e2, atol=1e-14)

    def test_rejects_zero_kpoint(self):
        cfg = minimal_grid_config()
        cfg.grid_kpoints = np.array([[0.0, 0.0, 0.0]])
        with pytest.raises(ModelError):
            build_grid(cfg)

    def test_rejects_coincident_spins(self):
        with pytest.raises(ModelError):
            ModelConfig(N=2, positions=[[0, 0, 0], [0, 0, 0]], beta=(0, 0, 1))

    @staticmethod
    def _plan(model):
        """The default plan with the model section model."""
        return ExperimentPlan.from_dict(dict(default_plan_dict(), model=model))

    def test_config_file_refuses_unknown_cutoff_family(self):
        d = {
            "spins": {"positions": [[0.0, 0.0, 0.0]]},
            "field": {"beta": [0.0, 0.0, 1.0]},
            "cutoff": {"family": "lorentzian", "lambda": 1.0},
        }
        with pytest.raises(ModelError, match="cutoff family 'lorentzian'"):
            self._plan(d)
        d["cutoff"]["family"] = "gaussian"
        assert self._plan(d).model.config.cutoff_lambda == 1.0

    @pytest.mark.parametrize(
        "section, key, value, reason",
        [
            ("spins", "positions", [[0, 0, 0], [1, 0]], "'spins.positions' must be"),
            ("field", "beta", [0, 0, True], "'field.beta' must be an array"),
            ("field", "beta", 1.0, "'field.beta' must be an array"),
            # a two-entry field used to load and then fail to broadcast
            ("field", "beta", [0, 1], "beta must have 3 entries"),
        ],
    )
    def test_config_file_refuses_malformed_arrays(self, section, key, value, reason):
        d = {"spins": {"positions": [[0, 0, 0]]}, "field": {"beta": [0, 0, 1]}}
        d[section][key] = value
        with pytest.raises(ModelError, match=reason):
            self._plan(d)


class TestCouplings:
    def test_parallel_cross_product_vanishes(self, minimal_model):
        # k = e_z, m = 3: khat x e_3 = 0
        b = coupling_B(minimal_model.grid, minimal_model.config, 3, [0.0, 0.0, 0.0])
        assert b.norm() == 0.0

    def test_minimal_direct_evaluation(self, minimal_model):
        # x = 0, m = 1: c = khat x e_1 = e_2 = eps2, theta = 0.  All weight
        # sits in the q-part of the eps2 sin slot with a minus sign.
        chi1 = float(minimal_model.config.cutoff_fn(1.0))
        b = coupling_B(minimal_model.grid, minimal_model.config, 1, [0.0, 0.0, 0.0])
        expected_q = np.zeros(4)
        expected_q[3] = -chi1 * TWO_PI_32  # slot (i=0, sin, eps2)
        np.testing.assert_allclose(b.q, expected_q, atol=1e-15)
        np.testing.assert_allclose(b.p, np.zeros(4), atol=1e-15)

    def test_helicity_produces_E(self, octa_model):
        # E_{mx} = J B_{mx} is a pure p-vector built on the doubly rotated
        # transverse vector c' = khat x (khat x e_m):
        #   p[cos slot a] = sqrt(w) A c'_a cos(k.x)
        #   p[sin slot a] = sqrt(w) A c'_a sin(k.x)
        g, cfg = octa_model.grid, octa_model.config
        x = np.array([0.3, -0.1, 0.7])
        for m in (1, 2, 3):
            b = coupling_B(g, cfg, m, x)
            e = apply_helicity(g, b)
            p = np.zeros(g.D)
            em = np.eye(3)[m - 1]
            for i in range(g.n_kpoints):
                k = g.kpoints[i]
                om = g.omegas[i]
                amp = float(cfg.cutoff_fn(om)) * np.sqrt(om) * TWO_PI_32
                c = np.cross(k / om, np.cross(k / om, em))
                th = k @ x
                sw = np.sqrt(g.weights[i])
                for a in range(2):
                    ca = c @ g.frames[i, a]
                    p[4 * i + a] = sw * amp * ca * np.cos(th)
                    p[4 * i + 2 + a] = sw * amp * ca * np.sin(th)
            np.testing.assert_allclose(e.q, np.zeros(g.D), atol=1e-14)
            np.testing.assert_allclose(e.p, p, atol=1e-14)

    def test_gradient_matches_finite_difference(self, octa_model):
        g, cfg = octa_model.grid, octa_model.config
        x = np.array([0.2, 0.5, -0.3])
        eps = 1e-6
        for m in (1, 2):
            grads = coupling_B_gradient(g, cfg, m, x)
            for l in range(3):
                dx = np.zeros(3)
                dx[l] = eps
                bp = coupling_B(g, cfg, m, x + dx)
                bm = coupling_B(g, cfg, m, x - dx)
                np.testing.assert_allclose(
                    grads[l].q, (bp.q - bm.q) / (2 * eps), atol=1e-9
                )
                np.testing.assert_allclose(
                    grads[l].p, (bp.p - bm.p) / (2 * eps), atol=1e-9
                )


class TestHelicity:
    def test_J_squared_is_minus_identity(self, octa_model, rng):
        g = octa_model.grid
        v = random_phase_vector(rng, g.D)
        jjv = apply_helicity(g, apply_helicity(g, v))
        np.testing.assert_allclose(jjv.q, -v.q, atol=1e-14)
        np.testing.assert_allclose(jjv.p, -v.p, atol=1e-14)

    def test_J_orthogonal(self, octa_model, rng):
        g = octa_model.grid
        v = random_phase_vector(rng, g.D)
        assert apply_helicity(g, v).norm() == pytest.approx(v.norm(), rel=1e-14)

    def test_zero_maps_to_zero(self, minimal_model):
        g = minimal_model.grid
        z = zero_vector(g.D)
        assert apply_helicity(g, z).norm() == 0.0


class TestPolarization:
    def test_projectors_sum_to_identity(self, octa_model, rng):
        g = octa_model.grid
        x = random_phase_vector(rng, g.D)
        plus = polarization_project(g, +1, x)
        minus = polarization_project(g, -1, x)
        np.testing.assert_allclose(plus.q + minus.q, x.q, atol=1e-14)
        np.testing.assert_allclose(plus.p + minus.p, x.p, atol=1e-14)

    def test_idempotent(self, octa_model, rng):
        g = octa_model.grid
        x = random_phase_vector(rng, g.D)
        for s in (+1, -1):
            p1 = polarization_project(g, s, x)
            p2 = polarization_project(g, s, p1)
            np.testing.assert_allclose(p2.q, p1.q, atol=1e-12)
            np.testing.assert_allclose(p2.p, p1.p, atol=1e-12)

    def test_orthogonal_projection(self, octa_model, rng):
        g = octa_model.grid
        x = random_phase_vector(rng, g.D)
        y = random_phase_vector(rng, g.D)
        plus_x = polarization_project(g, +1, x)
        minus_y = polarization_project(g, -1, y)
        assert abs(plus_x.dot(minus_y)) < 1e-12

    def test_polarized_vector_annihilated(self, minimal_model, rng):
        # A vector with J X = F X satisfies Pi_- X = 0.
        g = minimal_model.grid
        x = random_phase_vector(rng, g.D)
        xp = polarization_project(g, +1, x)
        jxp = apply_helicity(g, xp)
        fxp = fmap(xp)
        np.testing.assert_allclose(jxp.q, fxp.q, atol=1e-13)
        np.testing.assert_allclose(jxp.p, fxp.p, atol=1e-13)
        res = polarization_project(g, -1, xp)
        assert res.norm() < 1e-13


class TestRho:
    def test_gradient_zero_at_origin(self, octa_model):
        _, grad = rho_discrete(octa_model.grid, octa_model.config, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_value_at_origin(self, octa_model):
        g, cfg = octa_model.grid, octa_model.config
        val, _ = rho_discrete(g, cfg, [0.0, 0.0, 0.0])
        expected = (2 * np.pi) ** (-3) * np.sum(
            g.weights * np.abs(cfg.cutoff_fn(g.omegas)) ** 2
        )
        assert val == pytest.approx(expected, rel=1e-14)

    def test_minimal_closed_form(self, minimal_model):
        g, cfg = minimal_model.grid, minimal_model.config
        chi1 = float(cfg.cutoff_fn(1.0))
        for x3 in (0.0, 0.4, 1.3):
            val, _ = rho_discrete(g, cfg, [0.0, 0.0, x3])
            assert val == pytest.approx(
                (2 * np.pi) ** (-3) * chi1**2 * np.cos(x3), rel=1e-13
            )


class TestCommutationSeed:
    @pytest.mark.parametrize("model_name", ["minimal_model", "octa_model"])
    def test_sigma_EB_equals_grad_rho(self, model_name, rng, request):
        model = request.getfixturevalue(model_name)
        g, cfg = model.grid, model.config
        for _ in range(4):
            x = rng.uniform(-1, 1, 3)
            y = rng.uniform(-1, 1, 3)
            _, grad = rho_discrete(g, cfg, x - y)
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    e = apply_helicity(g, coupling_B(g, cfg, m, x))
                    b = coupling_B(g, cfg, n, y)
                    lhs = symplectic_form(e, b)
                    rhs = grad @ np.cross(np.eye(3)[m - 1], np.eye(3)[n - 1])
                    assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sigma_BB_vanishes(self, octa_model, rng):
        g, cfg = octa_model.grid, octa_model.config
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                bm = coupling_B(g, cfg, m, x)
                bn = coupling_B(g, cfg, n, y)
                assert abs(symplectic_form(bm, bn)) < 1e-12

    def test_transversality_of_divergence(self, octa_model):
        # sum_m d B_{m x} / d x_m = 0 identically.
        g, cfg = octa_model.grid, octa_model.config
        x = np.array([0.4, -0.2, 0.9])
        div_q = np.zeros(g.D)
        div_p = np.zeros(g.D)
        for m in (1, 2, 3):
            grads = coupling_B_gradient(g, cfg, m, x)
            div_q += grads[m - 1].q
            div_p += grads[m - 1].p
        np.testing.assert_allclose(div_q, 0.0, atol=1e-14)
        np.testing.assert_allclose(div_p, 0.0, atol=1e-14)


class TestSpinOperators:
    def test_sigma3_single_spin(self):
        np.testing.assert_allclose(spin_operator(1, 1, 3), np.diag([1.0, -1.0]))

    def test_different_sites_commute(self):
        for m in (1, 2, 3):
            for j in (1, 2, 3):
                a = spin_operator(2, 1, m)
                b = spin_operator(2, 2, j)
                np.testing.assert_allclose(a @ b - b @ a, 0.0, atol=1e-15)

    def test_involutive(self):
        for lam in (1, 2):
            for m in (1, 2, 3):
                s = spin_operator(2, lam, m)
                np.testing.assert_allclose(s @ s, np.eye(4), atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ModelError):
            spin_operator(2, 3, 1)
        with pytest.raises(ModelError):
            spin_operator(2, 1, 4)


class TestHIntSymbol:
    def test_zero_field_part(self, octa_model):
        h0 = h_int_symbol(octa_model, zero_vector(octa_model.D))
        expected = sum(
            octa_model.beta[m] * octa_model.spin_ops[lam][m]
            for lam in range(octa_model.N)
            for m in range(3)
        )
        np.testing.assert_allclose(h0, expected, atol=1e-15)

    def test_hermitian(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D)
        h = h_int_symbol(octa_model, x)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-13)

    def test_single_spin_eigenvalues(self):
        cfg = minimal_grid_config(N=1, beta=(0.0, 0.0, 0.7))
        model = Model(cfg)
        h = h_int_symbol(model, zero_vector(model.D))
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(h)), [-0.7, 0.7])

    def test_exactly_affine(self, octa_model, rng):
        x1 = random_phase_vector(rng, octa_model.D)
        x2 = random_phase_vector(rng, octa_model.D, scale=2.0)
        v = random_phase_vector(rng, octa_model.D)
        d1 = h_int_symbol(octa_model, x1 + v) - h_int_symbol(octa_model, x1)
        d2 = h_int_symbol(octa_model, x2 + v) - h_int_symbol(octa_model, x2)
        np.testing.assert_allclose(d1, d2, atol=1e-12)
        np.testing.assert_allclose(d1, dh_int(octa_model, v), atol=1e-12)


class TestFlow:
    def test_identity_at_zero(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D)
        y = chi_flow_vector(octa_model.grid, 0.0, x)
        np.testing.assert_allclose(y.q, x.q)
        np.testing.assert_allclose(y.p, x.p)

    def test_orthogonal_and_symplectic(self, octa_model, rng):
        g = octa_model.grid
        x = random_phase_vector(rng, g.D)
        y = random_phase_vector(rng, g.D)
        for t in (0.3, -1.2, 4.0):
            xt = chi_flow_vector(g, t, x)
            yt = chi_flow_vector(g, t, y)
            assert xt.norm() == pytest.approx(x.norm(), rel=1e-13)
            assert symplectic_form(xt, yt) == pytest.approx(
                symplectic_form(x, y), rel=1e-12, abs=1e-12
            )

    def test_group_law(self, octa_model, rng):
        g = octa_model.grid
        x = random_phase_vector(rng, g.D)
        a = chi_flow_vector(g, 0.7, chi_flow_vector(g, 0.4, x))
        b = chi_flow_vector(g, 1.1, x)
        np.testing.assert_allclose(a.q, b.q, atol=1e-13)
        np.testing.assert_allclose(a.p, b.p, atol=1e-13)


class TestFlowPairing:
    """The grouped cosine/sine pairing against the free flow and a dot."""

    def _vectors(self, rng, D, n):
        return [random_phase_vector(rng, D) for _ in range(n)]

    def _reference(self, grid, left, right, u):
        return np.array(
            [[l.dot(chi_flow_vector(grid, u, r)) for r in right] for l in left]
        )

    def test_groups(self, octa_model):
        g = octa_model.grid
        uniq, group_of = g.frequency_groups
        assert len(uniq) == 2
        np.testing.assert_array_equal(uniq[group_of], g.slot_omegas)

    def test_scalar_times(self, octa_model, rng):
        g = octa_model.grid
        left, right = self._vectors(rng, g.D, 3), self._vectors(rng, g.D, 2)
        pairing = flow_pairing(g, left, right)
        assert np.max(np.abs(pairing.beta)) > 0.1  # sine terms present
        for u in (0.0, 0.37, -1.2, 4.0):
            got = pairing(u)
            assert got.shape == (3, 2)
            ref = self._reference(g, left, right, u)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    def test_array_times(self, octa_model, rng):
        g = octa_model.grid
        left, right = self._vectors(rng, g.D, 2), self._vectors(rng, g.D, 3)
        times = np.linspace(-2.0, 3.0, 7)
        got = flow_pairing(g, left, right)(times)
        assert got.shape == (7, 2, 3)
        for u, row in zip(times, got):
            ref = self._reference(g, left, right, u)
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-13)
