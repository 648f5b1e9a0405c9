"""Semiclassical hierarchy: flow, propagator, order-0/1 coefficients and
the dual-path equivalences."""

import copy

import numpy as np
import pytest
from scipy.linalg import expm

import blochlab.hierarchy as hierarchy
from blochlab.hierarchy import (
    _EPS3,
    HierarchyError,
    MaxwellCheckReport,
    PHOTON_RATE_SIGN,
    _contract_field,
    _cross_mat,
    _maxwell_sweep,
    _order_high,
    _polar_project,
    _propagator_sweep,
    _rotation_tangent,
    _site_spins,
    _spin1_on_grid,
    _trap_weights,
    bloch_spin0,
    compute_hierarchy,
    maxwell_cross_check,
    observable_form,
    order0,
    order_j,
    photon_rate_expansion,
    propagator_G,
    shared_sweeps,
    spin_correction1,
    tangent_derivatives,
)
from blochlab.model import (
    Model,
    PhaseVector,
    chi_flow_vector,
    fmap,
    minimal_grid_config,
    polarization_project,
    symplectic_form,
)
from blochlab.oracle import ObservableSpec
from blochlab.stepper import _rk4
from conftest import random_phase_vector, zero_vector


@pytest.fixture(scope="module")
def free_model():
    """Zero coupling and zero beta."""
    cfg = minimal_grid_config(N=1, positions=[[0.0, 0.0, 0.0]], beta=(0, 0, 0))
    cfg.cutoff_fn = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return Model(cfg)


def _norm(a):
    return np.linalg.norm(a)


class TestFlow:
    def test_identity_at_zero(self, minimal_model, rng):
        x = random_phase_vector(rng, minimal_model.D)
        y = chi_flow_vector(minimal_model.grid, 0.0, x)
        np.testing.assert_allclose(y.q, x.q)
        np.testing.assert_allclose(y.p, x.p)

    def test_single_pair_quarter_turn(self, minimal_model):
        # omega = 1 on the minimal grid; (q, p) = (1, 0) -> (0, -1)
        q = np.zeros(4)
        q[0] = 1.0
        y = chi_flow_vector(minimal_model.grid, np.pi / 2, PhaseVector(q, np.zeros(4)))
        np.testing.assert_allclose(y.q, 0.0, atol=1e-15)
        expected_p = np.zeros(4)
        expected_p[0] = -1.0
        np.testing.assert_allclose(y.p, expected_p, atol=1e-15)

    def test_orthogonal_and_symplectic(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D)
        y = random_phase_vector(rng, octa_model.D)
        t = 0.83
        xt = chi_flow_vector(octa_model.grid, t, x)
        yt = chi_flow_vector(octa_model.grid, t, y)
        assert abs(xt.norm() - x.norm()) <= 1e-12 * x.norm()
        assert abs(
            symplectic_form(xt, yt) - symplectic_form(x, y)
        ) <= 1e-12 * max(1.0, abs(symplectic_form(x, y)))

    def test_group_law_and_inverse(self, minimal_model, rng):
        grid = minimal_model.grid
        x = random_phase_vector(rng, minimal_model.D)
        both = chi_flow_vector(grid, 1.5, x)
        seq = chi_flow_vector(grid, 1.1, chi_flow_vector(grid, 0.4, x))
        np.testing.assert_allclose(seq.q, both.q, atol=1e-12)
        np.testing.assert_allclose(seq.p, both.p, atol=1e-12)
        back = chi_flow_vector(grid, -0.4, chi_flow_vector(grid, 0.4, x))
        np.testing.assert_allclose(back.q, x.q, atol=1e-12)


class TestPropagator:
    def test_constant_generator_closed_form(self, minimal_model):
        # X = 0, beta = (0, 0, b): G(t, 0, 0) = exp(i t b sigma_3)
        t, b = 0.7, 1.0
        g = propagator_G(minimal_model, t, zero_vector(minimal_model.D)).matrix
        expected = expm(1j * t * b * minimal_model.spin_ops[0][2])
        assert _norm(g - expected) <= 1e-9

    def test_identity_at_equal_times(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        g = propagator_G(minimal_model, 0.0, x).matrix
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)

    def test_group_law(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        s, t = 0.3, 0.9
        gs = propagator_G(minimal_model, s, x, tol=1e-10).matrix
        gt = propagator_G(minimal_model, t, x, tol=1e-10).matrix
        xs = chi_flow_vector(minimal_model.grid, s, x)
        rel = propagator_G(minimal_model, t - s, xs, tol=1e-10).matrix
        assert _norm(gs.conj().T @ gt - rel) <= 1e-8

    def test_unitary(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        state = propagator_G(octa_model, 1.2, x, tol=1e-9)
        assert state.unitarity_defect <= 1e-9

    def test_rejects_bad_tol(self, minimal_model):
        with pytest.raises(HierarchyError):
            propagator_G(minimal_model, 1.0, zero_vector(minimal_model.D), tol=0.0)


class TestOrder0:
    def test_pure_field_is_scalar(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        obs = ObservableSpec(kind="field_B", m=2, x=np.array([0.1, 0.0, 0.3]))
        t = 0.8
        a0 = order0(minimal_model, obs, t, x)
        f, _ = observable_form(minimal_model, obs)
        val = f.dot(chi_flow_vector(minimal_model.grid, t, x))
        np.testing.assert_allclose(a0, val * np.eye(2), atol=1e-12)

    def test_time_zero(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        obs = ObservableSpec(kind="spin", m=3, lam=1)
        np.testing.assert_allclose(
            order0(minimal_model, obs, 0.0, x),
            minimal_model.spin_ops[0][2],
            atol=1e-14,
        )

    def test_frozen_precession(self, minimal_model):
        # spin observable, X = 0, beta = e_3, t = pi/4: S_1 -> -sigma_2
        obs = ObservableSpec(kind="spin", m=1, lam=1)
        a0 = order0(minimal_model, obs, np.pi / 4, zero_vector(minimal_model.D))
        assert _norm(a0 + minimal_model.spin_ops[0][1]) <= 1e-9

    def test_hermitian(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        obs = ObservableSpec(kind="spin", m=2, lam=2)
        a0 = order0(octa_model, obs, 1.1, x)
        assert _norm(a0 - a0.conj().T) <= 1e-9

    def test_rejects_number_rate(self, minimal_model):
        with pytest.raises(HierarchyError):
            observable_form(minimal_model, ObservableSpec(kind="number_rate"))


class TestBlochSpin0:
    def test_constant_without_field(self, free_model):
        x = zero_vector(free_model.D)
        trip = bloch_spin0(free_model, 1.4, x)[0]
        for m in range(3):
            np.testing.assert_allclose(
                trip.matrices[m], free_model.spin_ops[0][m], atol=1e-10
            )

    def test_agrees_with_conjugation(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        for t in (0.4, 1.1, 2.0):
            g = propagator_G(minimal_model, t, x, tol=1e-10).matrix
            trip = bloch_spin0(minimal_model, t, x, tol=1e-10)[0]
            for m in range(3):
                ref = g @ minimal_model.spin_ops[0][m] @ g.conj().T
                assert _norm(trip.matrices[m] - ref) <= 1e-6

    def test_casimir(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        for trip in bloch_spin0(octa_model, 1.3, x, tol=1e-10):
            total = sum(trip.matrices[m] @ trip.matrices[m] for m in range(3))
            np.testing.assert_allclose(total, 3.0 * np.eye(4), atol=1e-8)


class TestOrderJ:
    def test_time_zero_vanishes(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        for j in (1, 2, 3):
            a = order_j(
                minimal_model, ObservableSpec(kind="spin", m=1, lam=1), j, 0.0, x
            )
            np.testing.assert_allclose(a, 0.0, atol=1e-15)

    def test_zero_coupling_vanishes(self, free_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        obs = ObservableSpec(kind="spin", m=2, lam=1)
        a1 = order_j(free_model, obs, 1, 0.9, x)
        np.testing.assert_allclose(a1, 0.0, atol=1e-12)

    def test_rejects_low_order(self, minimal_model, rng):
        x = random_phase_vector(rng, 4)
        with pytest.raises(HierarchyError):
            order_j(minimal_model, ObservableSpec(kind="spin", m=1, lam=1), 0, 1.0, x)

    def test_hermitian(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        for obs in (
            ObservableSpec(kind="spin", m=3, lam=1),
            ObservableSpec(kind="field_E", m=1, x=np.array([0.0, 0.0, 0.0])),
        ):
            a1 = order_j(minimal_model, obs, 1, 0.9, x)
            assert _norm(a1 - a1.conj().T) <= 1e-10 * max(1.0, _norm(a1))

    @pytest.mark.parametrize(
        "obs",
        [
            ObservableSpec(kind="spin", m=1, lam=1),
            ObservableSpec(kind="field_B", m=2, x=np.array([0.0, 0.0, 0.0])),
        ],
        ids=["spin", "field_B"],
    )
    def test_high_order_path_at_order_one(self, minimal_model, rng, obs):
        # the j >= 2 recursion (finite-difference tangents of order 0)
        # against the analytic order-1 path; 1e-6 is its quadrature floor
        x = random_phase_vector(rng, 4, scale=0.4)
        want = order_j(minimal_model, obs, 1, 0.5, x)
        got = _order_high(minimal_model, obs, 1, 0.5, x, 1e-7)
        assert _norm(got - want) <= 1e-6 * _norm(want)

    def test_field_order1_reduction(self, minimal_model, rng):
        # for a pure field observable the forcing is X-independent, so the
        # coefficient is an integral of transported order-0 spins; check
        # against a direct quadrature at a fine fixed grid
        x = random_phase_vector(rng, 4, scale=0.4)
        t = 0.7
        obs = ObservableSpec(kind="field_B", m=1, x=np.array([0.2, -0.1, 0.0]))
        a1 = order_j(minimal_model, obs, 1, t, x, tol=1e-9)
        f, _ = observable_form(minimal_model, obs)
        from blochlab.model import fmap

        # reference path: step the rotation ODE once along a fine grid and
        # accumulate the transported-spin quadrature incrementally
        n = 4096
        dt = t / n
        beta = minimal_model.beta
        coup = minimal_model.couplings[0]
        sig = np.array(minimal_model.spin_ops[0])

        def omega_mat(u):
            y = chi_flow_vector(minimal_model.grid, u, x)
            b = np.array([beta[m] + coup[m].dot(y) for m in range(3)])
            return 2.0 * np.array(
                [
                    [0.0, -b[2], b[1]],
                    [b[2], 0.0, -b[0]],
                    [-b[1], b[0], 0.0],
                ]
            )

        r = np.eye(3)
        acc = np.zeros((2, 2), dtype=complex)
        for i in range(n + 1):
            u = i * dt
            w = dt * (0.5 if i in (0, n) else 1.0)
            mats = np.einsum("mk,kab->mab", r, sig)
            for m in range(3):
                fb = fmap(coup[m])
                c = f.dot(chi_flow_vector(minimal_model.grid, t - u, fb))
                acc -= w * c * mats[m]
            if i < n:
                k1 = omega_mat(u) @ r
                k2 = omega_mat(u + 0.5 * dt) @ (r + 0.5 * dt * k1)
                k3 = omega_mat(u + 0.5 * dt) @ (r + 0.5 * dt * k2)
                k4 = omega_mat(u + dt) @ (r + dt * k3)
                r = r + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert _norm(a1 - acc) <= 1e-6


class TestTangent:
    def test_zero_direction(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        zero = zero_vector(4)
        _, d = _rotation_tangent(minimal_model, 0, 1.0, x, zero, 1e-8)
        ds = _site_spins(d, minimal_model.spin_ops[0])
        np.testing.assert_allclose(ds, 0.0, atol=1e-12)
        assert tangent_derivatives(minimal_model, 1, zero, 1.0, x).residual == 0.0

    def test_zero_coupling_insensitive(self, free_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        v = random_phase_vector(rng, 4)
        v = v * (1.0 / v.norm())
        _, d = _rotation_tangent(free_model, 0, 1.0, x, v, 1e-8)
        ds = _site_spins(d, free_model.spin_ops[0])
        np.testing.assert_allclose(ds, 0.0, atol=1e-10)

    def test_finite_difference_agreement(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        v = random_phase_vector(rng, 4)
        v = v * (1.0 / v.norm())
        st = tangent_derivatives(minimal_model, 1, v, 1.0, x, tol=1e-9)
        assert st.residual <= 1e-6
        _, d = _rotation_tangent(minimal_model, 0, 1.0, x, v, 1e-9)
        assert _norm(d) > 1e-4  # the check is not vacuous

    @pytest.mark.parametrize("lam", [0, 3])
    def test_site_index_out_of_range(self, octa_model, rng, lam):
        # sites are 1-based: lam = 0 must not wrap around to the last site
        x = random_phase_vector(rng, octa_model.D, scale=0.1)
        with pytest.raises(HierarchyError, match="site index"):
            tangent_derivatives(octa_model, lam, x, 0.5, x)


class TestDualPaths:
    def test_spin_correction_matches_recursion(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        for t in (0.8, 2.0):
            s1 = spin_correction1(minimal_model, t, x, tol=1e-6)[0]
            for m in (1, 2, 3):
                a1 = order_j(
                    minimal_model,
                    ObservableSpec(kind="spin", m=m, lam=1),
                    1,
                    t,
                    x,
                    tol=1e-8,
                )
                dev = _norm(a1 - s1.matrices[m - 1]) / max(_norm(a1), 1e-12)
                assert dev <= 1e-6

    def test_spin_correction_two_sites(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.2)
        t = 0.7
        s1 = spin_correction1(octa_model, t, x, tol=1e-6)
        for lam in (1, 2):
            a1 = order_j(
                octa_model,
                ObservableSpec(kind="spin", m=3, lam=lam),
                1,
                t,
                x,
                tol=1e-8,
            )
            dev = _norm(a1 - s1[lam - 1].matrices[2]) / max(_norm(a1), 1e-12)
            assert dev <= 1e-6

    def test_zero_coupling_correction_vanishes(self, free_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        s1 = spin_correction1(free_model, 1.0, x)[0]
        np.testing.assert_allclose(s1.matrices, 0.0, atol=1e-12)

    def test_maxwell_cross_check(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        rep = maxwell_cross_check(minimal_model, 0.9, x, tol=1e-6)
        assert isinstance(rep, MaxwellCheckReport)
        assert rep.max_rel_dev <= 1e-6
        assert rep.div_b_residual <= 1e-10
        assert rep.div_e_residual <= 1e-10

    def test_maxwell_zero_sources(self, free_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        rep = maxwell_cross_check(free_model, 0.9, x, tol=1e-8)
        assert rep.max_rel_dev <= 1e-8


def _site_fields(model, x, u):
    """beta_m + B_{m x_lam} . chi_u X in (lam, m) order, through the free flow
    itself."""
    y = chi_flow_vector(model.grid, u, x)
    return model.site_beta + np.array([b.dot(y) for b in model.coupling_list])


def _propagator_reference(model, t, x, n):
    """_propagator_sweep as one RK4 call per substep on the right-hand side
    G i H(u), with the site fields evaluated step by step."""
    sd = model.spin_dim
    out = np.empty((n + 1, sd, sd), dtype=complex)
    g = np.eye(sd, dtype=complex)
    out[0] = g
    sub = max(1, int(np.ceil(abs(t / n) / 0.01)))
    dt = t / n / sub

    def rhs(u, g):
        return 1j * (g @ model.spin_matrix(_site_fields(model, x, u)))

    for i in range(n):
        for k in range(sub):
            u = (i * sub + k) * dt
            g = _rk4(rhs, g, dt, u, u + 0.5 * dt, u + dt)
        g = _polar_project(g)
        out[i + 1] = g
    return out


def _maxwell_reference(model, t, x, n):
    """_maxwell_sweep with the site fields evaluated step by step."""
    D, sd, N = model.D, model.spin_dim, model.N
    om = model.grid.slot_omegas
    fbs = [fmap(model.couplings[lam][m]) for lam in range(N) for m in range(3)]
    fq = np.stack([v.q for v in fbs])
    fp = np.stack([v.p for v in fbs])
    r_path = np.empty((n + 1, N, 3, 3))
    z_path = np.zeros((n + 1, 2, D, sd, sd), dtype=complex)
    rr = np.stack([np.eye(3) for _ in range(N)]).astype(complex)
    zz = np.zeros((2, D, sd, sd), dtype=complex)
    r_path[0] = np.eye(3)
    sub = max(1, int(np.ceil(abs(t / n) / 0.01)))
    dt = t / n / sub

    def rhs(u, rr, zz):
        fields = _site_fields(model, x, u).reshape(N, 3)
        drr = np.stack([2.0 * _cross_mat(fields[lam]) @ rr[lam] for lam in range(N)])
        s_mats = np.stack(
            [
                np.einsum("k,kab->ab", rr[lam, m], np.array(model.spin_ops[lam]))
                for lam in range(N)
                for m in range(3)
            ]
        )
        dz = np.stack([om[:, None, None] * zz[1], -om[:, None, None] * zz[0]])
        dz[0] -= np.einsum("aj,acd->jcd", fq, s_mats)
        dz[1] -= np.einsum("aj,acd->jcd", fp, s_mats)
        return drr, dz

    for i in range(n):
        for k in range(sub):
            u = (i * sub + k) * dt
            k1r, k1z = rhs(u, rr, zz)
            k2r, k2z = rhs(u + 0.5 * dt, rr + 0.5 * dt * k1r, zz + 0.5 * dt * k1z)
            k3r, k3z = rhs(u + 0.5 * dt, rr + 0.5 * dt * k2r, zz + 0.5 * dt * k2z)
            k4r, k4z = rhs(u + dt, rr + dt * k3r, zz + dt * k3z)
            rr = rr + (dt / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
            zz = zz + (dt / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        r_path[i + 1] = np.real(rr)
        z_path[i + 1] = zz
    return r_path, z_path


def _spin1_reference(model, lam, t, x, n):
    """_spin1_on_grid with K(w) rebuilt at every node: O(n^2) in the grid."""
    sd = model.spin_dim
    r_all, z_path = _maxwell_reference(model, t, x, n)
    r_path = r_all[:, lam]
    dt = t / n
    w = _trap_weights(n, dt)
    sig = np.array(model.spin_ops[lam])
    bsl = model.couplings[lam]
    # pbb[c, m, s] = B_c . chi_{s dt} B_m, slot by slot
    om = model.grid.slot_omegas
    ang = np.outer(dt * np.arange(n + 1), om)
    pbb = np.array(
        [
            [
                np.cos(ang) @ (bc.q * bm.q + bc.p * bm.p)
                + np.sin(ang) @ (bc.q * bm.p - bc.p * bm.q)
                for bm in bsl
            ]
            for bc in bsl
        ]
    )
    out = np.zeros((3, sd, sd), dtype=complex)
    for iw in range(n + 1):
        rw = r_path[iw]
        b1 = np.stack([_contract_field(bsl[a], z_path[iw]) for a in range(3)])
        s0 = np.einsum("bk,kcd->bcd", rw, sig)
        frc = np.einsum("nab,acd,bde->nce", _EPS3, b1, s0) + np.einsum(
            "nab,bcd,ade->nce", _EPS3, s0, b1
        )
        if iw > 0:
            wu = _trap_weights(iw, dt)
            g3 = pbb[:, :, iw - np.arange(iw + 1)]  # [c, m, u]
            cmat = np.einsum("nca,cmu->umna", _EPS3, g3)
            trans = np.einsum("np,uqp->unq", rw, r_path[: iw + 1])
            m1 = np.einsum("umnp,upq->umnq", cmat, trans)
            kappa = -2.0 * np.einsum(
                "u,umnp,mpk,ukq->nq", wu, m1, _EPS3, r_path[: iw + 1]
            )
            frc = frc + np.einsum("nq,qcd->ncd", kappa, sig)
        out += w[iw] * np.einsum("np,pcd->ncd", r_path[n] @ rw.T, frc)
    return out


class TestGridKernels:
    """The O(n) prefix-integral kernel and the tabulated sweep against their
    step-by-step references, on two sites and two frequency groups."""

    @pytest.mark.parametrize("t", [0.37, 1.9])
    def test_maxwell_sweep_matches_stepwise(self, octa_model, rng, t):
        assert len(np.unique(octa_model.grid.slot_omegas)) == 2
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        r, z = _maxwell_sweep(octa_model, t, x, 16)
        r_ref, z_ref = _maxwell_reference(octa_model, t, x, 16)
        assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))

    @pytest.mark.parametrize("t", [0.37, 1.9])
    def test_spin1_matches_quadratic_reference(self, octa_model, rng, t):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        for lam in range(octa_model.N):
            got = _spin1_on_grid(octa_model, lam, t, x, 16)
            ref = _spin1_reference(octa_model, lam, t, x, 16)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t, n", [(0.37, 16), (0.37, 64), (1.9, 16), (1.9, 64)])
    def test_sweeps_match_stepwise_sine_terms(self, octa_model, rng, t, n):
        # the transfer-map sweeps against one RK4 call per substep, with
        # generic couplings, so the pairings carry sine coefficients
        model = copy.copy(octa_model)
        model.couplings = [
            [random_phase_vector(rng, model.D, scale=0.3) for _ in range(3)]
            for _ in range(model.N)
        ]
        x = random_phase_vector(rng, model.D, scale=0.5)
        g = _propagator_sweep(model, t, x, n)
        g_ref = _propagator_reference(model, t, x, n)
        assert np.max(np.abs(g - g_ref)) <= 1e-13
        r, z = _maxwell_sweep(model, t, x, n)
        r_ref, z_ref = _maxwell_reference(model, t, x, n)
        assert np.max(np.abs(r - r_ref)) <= 1e-13
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))

    def test_spin1_sine_terms(self, octa_model, rng):
        # same-site pairings of the built couplings are pure cosine sums;
        # generic coupling vectors also carry the sine coefficients
        model = copy.copy(octa_model)
        model.couplings = [
            [random_phase_vector(rng, model.D, scale=0.05) for _ in range(3)]
            for _ in range(model.N)
        ]
        x = random_phase_vector(rng, model.D, scale=0.5)
        for lam in range(model.N):
            got = _spin1_on_grid(model, lam, 1.9, x, 16)
            ref = _spin1_reference(model, lam, 1.9, x, 16)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_time_zero(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        sd = octa_model.spin_dim
        g = _propagator_sweep(octa_model, 0.0, x, 32)
        np.testing.assert_array_equal(g, np.broadcast_to(np.eye(sd), (33, sd, sd)))
        r, z = _maxwell_sweep(octa_model, 0.0, x, 32)
        np.testing.assert_array_equal(r, np.broadcast_to(np.eye(3), (33, 2, 3, 3)))
        np.testing.assert_array_equal(z, 0.0)
        for trip in spin_correction1(octa_model, 0.0, x):
            np.testing.assert_array_equal(trip.matrices, 0.0)

    def test_no_panels(self, octa_model, rng):
        # n = 0 at t > 0: the sweeps hold their initial rows only
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        sd = octa_model.spin_dim
        g = _propagator_sweep(octa_model, 0.7, x, 0)
        np.testing.assert_array_equal(g, np.eye(sd)[None])
        r, z = _maxwell_sweep(octa_model, 0.7, x, 0)
        np.testing.assert_array_equal(r, np.broadcast_to(np.eye(3), (1, 2, 3, 3)))
        assert z.shape == (1, 2, octa_model.D, sd, sd)
        np.testing.assert_array_equal(z, 0.0)


class TestSharedSweeps:
    """A shared_sweeps scope integrates each grid sweep (kind, n) of its
    (t, X) once and serves the stored arrays to every consumer, on two
    sites, two frequency groups and cross-site sine terms."""

    T = 0.7

    @pytest.fixture()
    def calls(self, monkeypatch):
        # (kind, n) of every integrated sweep: each takes its RK4 transfer
        # maps in one call on (n, sub, ...) stage generators, (sd, sd) for
        # the propagator sweep and (N, 3, 3) for the Maxwell sweep
        seen = []
        real = hierarchy.rk4_transfer

        def counting(a0, ah, a1, dt):
            seen.append(("propagator" if a0.ndim == 4 else "maxwell", len(a0)))
            return real(a0, ah, a1, dt)

        monkeypatch.setattr(hierarchy, "rk4_transfer", counting)
        return seen

    @staticmethod
    def _consumers(model, t, x):
        spin = ObservableSpec(kind="spin", m=1, lam=2)
        field = ObservableSpec(kind="field_B", m=2, x=np.array([0.3, -0.1, 0.2]))
        mx = maxwell_cross_check(model, t, x, tol=1e-5)
        return [
            order_j(model, spin, 1, t, x, tol=1e-6),
            order_j(model, field, 1, t, x, tol=1e-6),
            np.stack([s.matrices for s in spin_correction1(model, t, x, tol=1e-5)]),
            np.array([mx.max_rel_dev, mx.div_b_residual, mx.div_e_residual]),
        ]

    def test_bitwise_equal_and_each_sweep_once(self, octa_model, rng, calls):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        outside = self._consumers(octa_model, self.T, x)
        assert len(calls) > len(set(calls))  # without a scope, sweeps repeat
        calls.clear()
        with shared_sweeps(octa_model, self.T, x):
            inside = self._consumers(octa_model, self.T, x)
            assert len(calls) == len(set(calls))
            kinds = {kind for kind, _ in calls}
            assert kinds == {"propagator", "maxwell"}
            # a second round is served entirely from the table
            n_calls = len(calls)
            again = self._consumers(octa_model, self.T, x)
            assert len(calls) == n_calls
        for a, b, c in zip(outside, inside, again):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_other_point_bypasses(self, octa_model, rng, calls):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        twin = PhaseVector(x.q.copy(), x.p.copy())
        other = copy.copy(octa_model)
        with shared_sweeps(octa_model, self.T, x):
            for _ in range(2):
                _propagator_sweep(octa_model, self.T, x, 16)
                _propagator_sweep(octa_model, 0.5, x, 16)
                _propagator_sweep(octa_model, self.T, twin, 16)
                _propagator_sweep(other, self.T, x, 16)
                _maxwell_sweep(octa_model, self.T, x, 16)
                _maxwell_sweep(octa_model, 0.5, x, 16)
        assert calls.count(("propagator", 16)) == 1 + 2 * 3
        assert calls.count(("maxwell", 16)) == 1 + 2

    def test_stored_arrays_read_only(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        with shared_sweeps(octa_model, self.T, x):
            g = _propagator_sweep(octa_model, self.T, x, 16)
            r, z = _maxwell_sweep(octa_model, self.T, x, 16)
            for a in (g, r, z, r[:, 1]):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    def test_table_dropped_on_exit(self, octa_model, rng, calls):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        with shared_sweeps(octa_model, self.T, x):
            inner = _propagator_sweep(octa_model, self.T, x, 16)
            assert _propagator_sweep(octa_model, self.T, x, 16) is inner
        assert hierarchy._SWEEPS.get() is None
        after = _propagator_sweep(octa_model, self.T, x, 16)
        assert after is not inner and len(calls) == 2
        np.testing.assert_array_equal(after, inner)
        with pytest.raises(RuntimeError):
            with shared_sweeps(octa_model, self.T, x):
                raise RuntimeError
        assert hierarchy._SWEEPS.get() is None


class TestPhotonExpansion:
    def test_origin_vanishes(self, minimal_model):
        zero = zero_vector(minimal_model.D)
        n0 = photon_rate_expansion(minimal_model, 0.9, zero, 0)[0]
        np.testing.assert_allclose(n0, 0.0, atol=1e-12)

    def test_hermitian_orders(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        orders = photon_rate_expansion(minimal_model, 0.8, x, 1)
        for a in orders:
            assert _norm(a - a.conj().T) <= 1e-8 * max(1.0, _norm(a))

    def test_polarized_leading_term(self, minimal_model, rng):
        # on each circular-polarization branch the leading coefficient is
        # a signed pairing of the transported electric couplings with the
        # order-0 spins; the sign flips with the branch
        x = random_phase_vector(rng, 4, scale=0.4)
        t = 0.9
        for branch, eps in ((+1, -1.0), (-1, +1.0)):
            xp = polarization_project(minimal_model.grid, branch, x)
            n0 = photon_rate_expansion(minimal_model, t, xp, 0)[0]
            trip = bloch_spin0(minimal_model, t, xp, tol=1e-10)[0]
            y = chi_flow_vector(minimal_model.grid, t, xp)
            alt = sum(
                eps * minimal_model.couplings_E[0][m].dot(y) * trip.matrices[m]
                for m in range(3)
            )
            assert _norm(n0 - alt) <= 1e-9 * max(1.0, _norm(n0))

    def test_rejects_unsupported_order(self, minimal_model, rng):
        x = random_phase_vector(rng, 4)
        with pytest.raises(HierarchyError):
            photon_rate_expansion(minimal_model, 0.5, x, 2)
        assert PHOTON_RATE_SIGN == -1.0


class TestComputeHierarchy:
    def test_returns_hermitian_orders(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        orders = compute_hierarchy(
            minimal_model,
            ObservableSpec(kind="spin", m=1, lam=1),
            0.8,
            x,
            M=1,
            tol=1e-7,
        )
        assert len(orders) == 2
        for a in orders:
            assert _norm(a - a.conj().T) <= 1e-8
