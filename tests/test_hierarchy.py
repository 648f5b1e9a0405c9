"""Semiclassical hierarchy: flow, propagator, order-0/1 coefficients and
the dual-path equivalences."""

import copy
import functools

import numpy as np
import pytest
from scipy.linalg import expm

import blochlab.hierarchy as hierarchy
from blochlab.harness import ExperimentPlan, default_plan_dict
from blochlab.hierarchy import (
    _EPS3,
    HierarchyError,
    MaxwellCheckReport,
    PHOTON_RATE_SIGN,
    _chain_steps,
    _cross_mat,
    _maxwell_nodes,
    _order1_grids,
    _polar_project,
    _propagator_chain,
    _propagator_sweep,
    _refine,
    _rotation_endpoint,
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
    ModelConfig,
    PhaseVector,
    chi_flow_vector,
    coupling_B_gradient,
    flow_pairing,
    fmap,
    minimal_grid_config,
    polarization_project,
    symplectic_form,
)
from blochlab.oracle import ObservableSpec
from blochlab.stepper import _rk4
from conftest import random_phase_vector, zero_vector
from reference import (
    endpoint_modes,
    maxwell_modes,
    order1_nodes,
    propagator_adaptive,
    rotation_adaptive,
    spin1_products,
)


@pytest.fixture(scope="module")
def skew_model():
    """Two spins on a grid of three non-axis directions, where the
    divergence terms d_m B_m of the couplings do not vanish."""
    cfg = ModelConfig(
        N=2,
        positions=[[0.0, 0.0, 0.0], [1.0, 0.3, -0.2]],
        beta=(0.2, 0.0, 0.7),
        grid_radial_nodes=2,
        grid_kmax=3.0,
        grid_directions=[[1.0, 0.4, -0.3], [-0.2, 1.0, 0.5], [0.3, -0.6, 1.0]],
    )
    return Model(cfg)


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
        gs = propagator_G(minimal_model, s, x).matrix
        gt = propagator_G(minimal_model, t, x).matrix
        xs = chi_flow_vector(minimal_model.grid, s, x)
        rel = propagator_G(minimal_model, t - s, xs).matrix
        assert _norm(gs.conj().T @ gt - rel) <= 1e-8

    def test_unitary(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        state = propagator_G(octa_model, 1.2, x)
        assert state.unitarity_defect <= 1e-9

    def test_defect_is_read_before_projection(self, octa_model, rng):
        # the defect is the integrator's, read before the polar projection
        # that makes the matrix unitary to rounding
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        state = propagator_G(octa_model, 1.2, x)
        steps = _chain_steps(1.2, 32)
        raw = _propagator_chain(octa_model, 1.2 / steps, x, steps)[-1]
        assert state.unitarity_defect == _norm(raw.conj().T @ raw - np.eye(4))
        np.testing.assert_array_equal(state.matrix, _polar_project(raw))
        assert 1e-15 < state.unitarity_defect <= 1e-12


class TestChainGrid:
    @pytest.mark.parametrize(
        "t, steps", [(0.5, 512), (1.0, 1024), (1.5, 2048), (2.0, 2048)]
    )
    def test_desk_times(self, t, steps):
        # one chain for every power-of-two grid up to it, substep <= _SUBSTEP
        for n in (32, 64, 128, 256, 512):
            assert _chain_steps(t, n) == steps
        assert _chain_steps(t, 4096) == 4096
        assert t / steps <= hierarchy._SUBSTEP

    @pytest.mark.parametrize("n", [1, 3, 48])
    def test_any_panel_count(self, n):
        steps = _chain_steps(0.7, n)
        assert steps % n == 0 and 0.7 / steps <= hierarchy._SUBSTEP
        # the least power of two per panel: half of it would break the cap
        assert steps == n or 0.7 / (steps // 2) > hierarchy._SUBSTEP


class TestRefine:
    """The stop rule: one Richardson level, stopped on the difference of
    successive Richardson values, which bounds the value returned."""

    @staticmethod
    def _trapezoid_exp(seen):
        # trapezoid rule for int_0^1 exp(u) du = e - 1 on n panels
        def compute(n):
            seen.append(n)
            f = np.exp(np.linspace(0.0, 1.0, n + 1))
            return np.array([(0.5 * (f[0] + f[-1]) + f[1:-1].sum()) / n])

        return compute

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11, 1e-12])
    def test_returned_error_within_tol(self, tol):
        seen = []
        got = _refine(self._trapezoid_exp(seen), tol)
        scale = max(1.0, abs(got[0]))
        assert abs(got[0] - (np.e - 1.0)) <= tol * scale
        assert seen == [32 * 2**k for k in range(len(seen))]

    def test_loose_tol_stops_after_three_grids(self):
        # the first stop test compares R_128 with R_64
        seen = []
        _refine(self._trapezoid_exp(seen), 1e-6)
        assert seen == [32, 64, 128]

    def test_zero_tol_raises_at_nmax(self):
        seen = []
        with pytest.raises(HierarchyError, match="did not converge below tol=0"):
            _refine(self._trapezoid_exp(seen), 0.0, nmax=512, label="probe")
        assert seen == [32, 64, 128, 256, 512]

    @pytest.mark.parametrize("t, cap", [(-32.0, 512), (32.5, 1024), (128.0, 2048)])
    def test_cap_is_a_panel_density(self, t, cap):
        # nmax panels up to |t| = 32, doubled with each doubling of |t|
        seen = []
        with pytest.raises(HierarchyError):
            _refine(self._trapezoid_exp(seen), 0.0, nmax=512, t=t)
        assert seen[-1] == cap

    def test_order_j_converges_at_long_times(self, minimal_model):
        # the desk's order-1 quadrature at t = 128 needs more than the 4096
        # panels that suffice up to t = 64
        x = PhaseVector(np.array([0.3, 0.0, 0.0, 0.0]), np.array([0.0, 0.2, 0.1, 0.25]))
        spin = ObservableSpec(kind="spin", m=1, lam=1)
        assert np.isfinite(order_j(minimal_model, spin, 1, 128.0, x, tol=1e-7)).all()

    def test_nan_never_stops(self):
        with pytest.raises(HierarchyError):
            _refine(lambda n: np.array([np.nan]), 1.0, nmax=256)

    def test_order_j_resolves_the_observable_once(self, octa_model, rng, monkeypatch):
        # the affine form, and a field axis's pairing of F_A with the F B_a,
        # are built once per order_j call, not once per refinement grid
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        forms, lefts, grids = [], [], []
        real_form = hierarchy.observable_form
        real_pairing = hierarchy.flow_pairing
        real_spins = hierarchy._conjugated_couplings

        def form(model, obs):
            forms.append(obs.kind)
            return real_form(model, obs)

        def pairing(grid, left, right):
            lefts.append(left)
            return real_pairing(grid, left, right)

        def spins(model, t, x, n):
            grids.append(n)
            return real_spins(model, t, x, n)

        monkeypatch.setattr(hierarchy, "observable_form", form)
        monkeypatch.setattr(hierarchy, "flow_pairing", pairing)
        monkeypatch.setattr(hierarchy, "_conjugated_couplings", spins)
        field = ObservableSpec(kind="field_B", m=2, x=np.array([0.3, -0.1, 0.2]))
        order_j(octa_model, field, 1, 0.7, x, tol=1e-9)
        assert forms == ["field_B"]
        # the other pairings are the chain's site fields, left the couplings
        assert sum(len(left) == 1 for left in lefts) == 1
        assert len(grids) >= 3  # the refinement read several grids


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
            g = propagator_G(minimal_model, t, x).matrix
            trip = bloch_spin0(minimal_model, t, x)[0]
            for m in range(3):
                ref = g @ minimal_model.spin_ops[0][m] @ g.conj().T
                assert _norm(trip.matrices[m] - ref) <= 1e-6

    def test_casimir(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        for trip in bloch_spin0(octa_model, 1.3, x):
            total = sum(trip.matrices[m] @ trip.matrices[m] for m in range(3))
            np.testing.assert_allclose(total, 3.0 * np.eye(4), atol=1e-8)


class TestOrderJ:
    def test_time_zero_vanishes(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        a = order_j(minimal_model, ObservableSpec(kind="spin", m=1, lam=1), 1, 0.0, x)
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

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_refuses_order_two(self, minimal_model, rng, t):
        # no order-2 value is checked, so none is reported, not even the
        # t = 0 zero
        x = random_phase_vector(rng, 4)
        with pytest.raises(HierarchyError, match="ROADMAP.md item 3"):
            order_j(minimal_model, ObservableSpec(kind="spin", m=1, lam=1), 2, t, x)

    def test_hermitian(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        for obs in (
            ObservableSpec(kind="spin", m=3, lam=1),
            ObservableSpec(kind="field_E", m=1, x=np.array([0.0, 0.0, 0.0])),
        ):
            a1 = order_j(minimal_model, obs, 1, 0.9, x)
            assert _norm(a1 - a1.conj().T) <= 1e-10 * max(1.0, _norm(a1))

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
        d = _rotation_tangent(minimal_model, 0, 1.0, x, [zero])[0]
        ds = _site_spins(d, minimal_model.spin_ops[0])
        np.testing.assert_allclose(ds, 0.0, atol=1e-12)
        assert tangent_derivatives(minimal_model, 1, zero, 1.0, x).residual == 0.0

    def test_zero_coupling_insensitive(self, free_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        v = random_phase_vector(rng, 4)
        v = v * (1.0 / v.norm())
        d = _rotation_tangent(free_model, 0, 1.0, x, [v])[0]
        ds = _site_spins(d, free_model.spin_ops[0])
        np.testing.assert_allclose(ds, 0.0, atol=1e-10)

    def test_finite_difference_agreement(self, minimal_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        v = random_phase_vector(rng, 4)
        v = v * (1.0 / v.norm())
        st = tangent_derivatives(minimal_model, 1, v, 1.0, x)
        assert st.residual <= 1e-6
        d = _rotation_tangent(minimal_model, 0, 1.0, x, [v])[0]
        assert _norm(d) > 1e-4  # the check is not vacuous

    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
    def test_probe_endpoint_is_the_chain_rotation(self, octa_model, rng, t):
        # the central difference reads the same RK4 rotation endpoint that
        # bloch_spin0 reads from the Maxwell chain and the tangent
        # differentiates, bitwise
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        for lam, trip in enumerate(bloch_spin0(octa_model, t, x)):
            got = _rotation_endpoint(octa_model, lam, t, x)
            np.testing.assert_array_equal(got, trip.rotation)

    def test_probe_integrates_no_mode_sums(self, octa_model, rng, monkeypatch):
        # only the unshifted point's Maxwell chain is integrated, for the
        # tangent's own R; the shifted points take the site's RK4 maps alone
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        v = random_phase_vector(rng, octa_model.D)
        points = []
        real = hierarchy._maxwell_chain

        def recording(model, t, z, steps):
            points.append(z)
            return real(model, t, z, steps)

        monkeypatch.setattr(hierarchy, "_maxwell_chain", recording)
        st = tangent_derivatives(octa_model, 2, v, 1.0, x)
        assert st.residual <= 1e-6
        assert len(points) == 1 and points[0] is x

    @pytest.mark.parametrize("lam", [0, 3])
    def test_site_index_out_of_range(self, octa_model, rng, lam):
        # sites are 1-based: lam = 0 must not wrap around to the last site
        x = random_phase_vector(rng, octa_model.D, scale=0.1)
        with pytest.raises(HierarchyError, match="site index"):
            tangent_derivatives(octa_model, lam, x, 0.5, x)


class TestSweepFloor:
    """The sweeps' RK4 floor at the _SUBSTEP cap: G, every site rotation R
    and its tangents along the six photon-rate directions against adaptive
    RK4 at tol 1e-13, relative to the largest reference entry."""

    @pytest.fixture(params=["desk", "octa"])
    def point(self, request, octa_model, rng):
        if request.param == "desk":
            plan = ExperimentPlan.from_dict(default_plan_dict())
            return plan.model, plan.x_samples[0][1]
        return octa_model, random_phase_vector(rng, octa_model.D, scale=0.5)

    @staticmethod
    def _rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_adaptive_reference(self, point, t):
        model, x = point
        g = propagator_adaptive(model, t, x, 1e-13)
        assert self._rel(propagator_G(model, t, x).matrix, g) <= 1e-11
        for lam, trip in enumerate(bloch_spin0(model, t, x)):
            bs = model.couplings[lam]
            ws = [chi_flow_vector(model.grid, -t, fmap(b)) for b in bs]
            vs = [v for w in ws for v in (w, fmap(w))]
            r, d = rotation_adaptive(model, lam, t, x, vs, 1e-13)
            assert self._rel(trip.rotation, r) <= 1e-11
            assert self._rel(_rotation_tangent(model, lam, t, x, vs), d) <= 1e-11


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

    @pytest.mark.parametrize("name", ["minimal_model", "octa_model", "skew_model"])
    def test_maxwell_cross_check(self, request, rng, name):
        # on the z and octahedral grids every d_m B_m vanishes, so only the
        # skew grid gives the divergence residuals something to cancel
        model = request.getfixturevalue(name)
        if name == "skew_model":
            grads = [
                coupling_B_gradient(model.grid, model.config, m, pt)[m - 1]
                for pt in model.config.positions
                for m in (1, 2, 3)
            ]
            assert max(np.max(np.abs(g.q)) for g in grads) > 0.01
        x = random_phase_vector(rng, model.D, scale=0.4)
        rep = maxwell_cross_check(model, 0.9, x, tol=1e-6)
        assert isinstance(rep, MaxwellCheckReport)
        assert rep.max_rel_dev <= 1e-6
        assert rep.div_b_residual <= 1e-10
        assert rep.div_e_residual <= 1e-10

    def test_maxwell_zero_sources(self, free_model, rng):
        x = random_phase_vector(rng, 4, scale=0.4)
        rep = maxwell_cross_check(free_model, 0.9, x, tol=1e-8)
        assert rep.max_rel_dev <= 1e-8


def _site_fields(model, x):
    """u -> beta_m + B_{m x_lam} . chi_u X in (lam, m) order, through the free
    flow itself, memoized per stage time: RK4 reads each middle stage twice
    and each step's end again as the next step's start."""

    @functools.lru_cache(maxsize=None)
    def fields(u):
        y = chi_flow_vector(model.grid, u, x)
        return model.site_beta + np.array([b.dot(y) for b in model.coupling_list])

    return fields


def _propagator_reference(model, t, x, n):
    """_propagator_sweep as one RK4 call per substep on the right-hand side
    G i H(u), with the site fields evaluated step by step."""
    sd = model.spin_dim
    out = np.empty((n + 1, sd, sd), dtype=complex)
    g = np.eye(sd, dtype=complex)
    out[0] = g
    sub = _chain_steps(t, n) // n
    dt = t / n / sub
    fields = _site_fields(model, x)

    def rhs(u, g):
        return 1j * (g @ model.spin_matrix(fields(u)))

    for i in range(n):
        for k in range(sub):
            # stage times from the step index, so that a step's end is the
            # next step's start to the bit and the memo serves it
            j = i * sub + k
            g = _rk4(rhs, g, dt, j * dt, (j + 0.5) * dt, (j + 1) * dt)
        g = _polar_project(g)
        out[i + 1] = g
    return out


def _maxwell_reference(model, t, x, n):
    """The Maxwell chain's rotations and mode amplitudes Z at the nodes of n
    panels (reference.maxwell_modes), with the site fields evaluated step
    by step."""
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
    sub = _chain_steps(t, n) // n
    dt = t / n / sub
    site_fields = _site_fields(model, x)

    def rhs(u, rr, zz):
        fields = site_fields(u).reshape(N, 3)
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
            j = i * sub + k
            k1r, k1z = rhs(j * dt, rr, zz)
            k2r, k2z = rhs((j + 0.5) * dt, rr + 0.5 * dt * k1r, zz + 0.5 * dt * k1z)
            k3r, k3z = rhs((j + 0.5) * dt, rr + 0.5 * dt * k2r, zz + 0.5 * dt * k2z)
            k4r, k4z = rhs((j + 1) * dt, rr + dt * k3r, zz + dt * k3z)
            rr = rr + (dt / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
            zz = zz + (dt / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        r_path[i + 1] = np.real(rr)
        z_path[i + 1] = zz
    return r_path, z_path


def _spin1_reference(model, lam, t, sweep):
    """_spin1_on_grid with K(w) rebuilt at every node: O(n^2) in the grid.
    sweep is the (R, Z) of _maxwell_reference on n panels, stepped once per
    (t, X) for every site."""
    sd = model.spin_dim
    r_all, z_path = sweep
    n = len(r_all) - 1
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
        zq, zp = z_path[iw]
        b1 = np.stack(
            [np.tensordot(b.q, zq, 1) + np.tensordot(b.p, zp, 1) for b in bsl]
        )
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


_MAXWELL_REFERENCES = {}
# the finest grid that a TestGridKernels test reads from the shared stepping
_REFERENCE_PANELS = 64


def _shared_maxwell_reference(model, t, x, n):
    """_maxwell_reference at the nodes of n panels, read from one stepping
    on _REFERENCE_PANELS panels per (model, couplings, t, X), kept for the
    module.  Where both grids read one chain, node i of n panels is bitwise
    node i (_REFERENCE_PANELS / n) of the stepping: the substeps
    t / n / sub are the same number.  Tests that draw the same couplings
    and X from the seeded rng, at any such n, read the same stepping.  The
    stored model keeps its config's id from being reused while the entry
    lives."""
    assert _REFERENCE_PANELS % n == 0
    assert _chain_steps(t, n) == _chain_steps(t, _REFERENCE_PANELS)
    couplings = b"".join(v.q.tobytes() + v.p.tobytes() for v in model.coupling_list)
    key = (id(model.config), couplings, t, x.q.tobytes(), x.p.tobytes())
    if key not in _MAXWELL_REFERENCES:
        sweep = _maxwell_reference(model, t, x, _REFERENCE_PANELS)
        _MAXWELL_REFERENCES[key] = (model, sweep)
    r_path, z_path = _MAXWELL_REFERENCES[key][1]
    return r_path[:: _REFERENCE_PANELS // n], z_path[:: _REFERENCE_PANELS // n]


class TestGridKernels:
    """The O(n) prefix-integral kernel and the tabulated sweep against their
    step-by-step references, on two sites and two frequency groups."""

    @pytest.mark.parametrize("t", [0.37, 1.9])
    def test_maxwell_sweep_matches_stepwise(self, octa_model, rng, t):
        assert len(np.unique(octa_model.grid.slot_omegas)) == 2
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        r, z = maxwell_modes(octa_model, t, x, 16)
        r_ref, z_ref = _shared_maxwell_reference(octa_model, t, x, 16)
        assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))
        # Z(t) on _N0 panels: the same chain as 16 panels at these t
        assert _chain_steps(t, 32) == _chain_steps(t, 16)
        z_end = endpoint_modes(octa_model, t, x)
        assert np.max(np.abs(z_end - z_ref[-1])) <= 1e-13 * np.max(np.abs(z_ref[-1]))

    @pytest.mark.parametrize("t", [0.37, 1.9])
    def test_spin1_matches_quadratic_reference(self, octa_model, rng, t):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        sweep = _shared_maxwell_reference(octa_model, t, x, 16)
        for lam in range(octa_model.N):
            got = _spin1_on_grid(octa_model, lam, t, x, 16)
            ref = _spin1_reference(octa_model, lam, t, sweep)
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
        r, z = maxwell_modes(model, t, x, n)
        r_ref, z_ref = _shared_maxwell_reference(model, t, x, n)
        assert np.max(np.abs(r - r_ref)) <= 1e-13
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))

    def test_spin1_sine_terms(self, octa_model, rng):
        # same-site pairings of the built couplings are pure cosine sums;
        # generic coupling vectors also carry the sine coefficients.  These
        # are the couplings and X of test_sweeps_match_stepwise_sine_terms,
        # so the two read one stepping
        model = copy.copy(octa_model)
        model.couplings = [
            [random_phase_vector(rng, model.D, scale=0.3) for _ in range(3)]
            for _ in range(model.N)
        ]
        x = random_phase_vector(rng, model.D, scale=0.5)
        sweep = _shared_maxwell_reference(model, 1.9, x, 16)
        for lam in range(model.N):
            got = _spin1_on_grid(model, lam, 1.9, x, 16)
            ref = _spin1_reference(model, lam, 1.9, sweep)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_time_zero(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        sd = octa_model.spin_dim
        g = _propagator_sweep(octa_model, 0.0, x, 32)
        np.testing.assert_array_equal(g, np.broadcast_to(np.eye(sd), (33, sd, sd)))
        r, z = maxwell_modes(octa_model, 0.0, x, 32)
        np.testing.assert_array_equal(r, np.broadcast_to(np.eye(3), (33, 2, 3, 3)))
        np.testing.assert_array_equal(z, 0.0)
        np.testing.assert_array_equal(endpoint_modes(octa_model, 0.0, x), 0.0)
        for trip in spin_correction1(octa_model, 0.0, x):
            np.testing.assert_array_equal(trip.matrices, 0.0)


class TestOrder1Contraction:
    """The order-1 quadrature, contracted once per (t, X, n) into a linear
    map of K = T_n S_A T_n*, against the per-node Duhamel forcing of
    tests/reference.py, on two sites and two frequency groups."""

    @pytest.mark.parametrize("t, n", [(0.37, 16), (0.37, 64), (1.9, 16), (1.9, 64)])
    def test_matches_per_node_forcing(self, octa_model, rng, t, n):
        # generic coupling vectors, so the pairings carry sine coefficients
        model = copy.copy(octa_model)
        model.couplings = [
            [random_phase_vector(rng, model.D, scale=0.3) for _ in range(3)]
            for _ in range(model.N)
        ]
        bs = model.coupling_list
        assert np.any(flow_pairing(model.grid, bs, bs).beta != 0.0)
        assert np.any(flow_pairing(model.grid, bs, [fmap(b) for b in bs]).beta != 0.0)
        x = random_phase_vector(rng, model.D, scale=0.5)
        axes = [
            ObservableSpec(kind="spin", m=m, lam=lam) for lam in (1, 2) for m in (1, 2, 3)
        ]
        axes.append(ObservableSpec(kind="field_B", m=2, x=np.array([0.3, -0.1, 0.2])))
        with shared_sweeps(model, x, [t]):
            for obs in axes:
                got = _order1_grids(model, obs, t, x)(n)
                ref = order1_nodes(model, obs, t, x, n)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSpin1Coefficients:
    """The first-order Bloch correction in real coefficients on the Maxwell
    chain against the full-Z, complex-product form of tests/reference.py,
    on two sites and two frequency groups."""

    @pytest.mark.parametrize("t, n", [(0.37, 16), (0.37, 256), (1.9, 16), (1.9, 256)])
    def test_matches_complex_products(self, octa_model, rng, t, n):
        # generic coupling vectors, so the pairings carry sine coefficients
        model = copy.copy(octa_model)
        model.couplings = [
            [random_phase_vector(rng, model.D, scale=0.3) for _ in range(3)]
            for _ in range(model.N)
        ]
        bsl = model.couplings[1]
        assert np.any(flow_pairing(model.grid, bsl, bsl).beta != 0.0)
        x = random_phase_vector(rng, model.D, scale=0.5)
        with shared_sweeps(model, x, [t]):
            for lam in range(model.N):
                got = _spin1_on_grid(model, lam, t, x, n)
                ref = spin1_products(model, lam, t, x, n)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_maxwell_check_reads_one_node_grid(self, octa_model, rng, monkeypatch):
        # Z(t) is the chain's endpoint, read once on _N0 panels, not refined
        seen = []
        real = hierarchy._maxwell_nodes

        def counting(model, t, x, n):
            seen.append(n)
            return real(model, t, x, n)

        monkeypatch.setattr(hierarchy, "_maxwell_nodes", counting)
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        maxwell_cross_check(octa_model, 1.0, x, tol=1e-6)
        assert seen == [32]


class TestSharedSweeps:
    """A sweep table of (model, X) integrates each chain (kind, dt) once for
    every t that reads it, serves shorter chains on the same substep as its
    prefix, and serves the stored arrays, and the node reads taken from
    them, to every consumer, on two sites, two frequency groups and
    cross-site sine terms."""

    T = 0.7

    @pytest.fixture()
    def calls(self, monkeypatch):
        # (kind, steps) of every integrated chain: each takes its RK4
        # transfer maps in one call on (steps, ...) stage generators, the
        # real (2 sd, 2 sd) form for the propagator chain, (N, 3, 3) for the
        # Maxwell chain and (3, 3) for the tangent probe's site maps
        seen = []
        real = hierarchy.rk4_transfer

        def counting(a0, ah, a1, dt):
            if a0.shape[-1] != 3:
                kind = "propagator"
            else:
                kind = "maxwell" if a0.ndim == 4 else "tangent"
            seen.append((kind, len(a0)))
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
        # without a joined table, each public call integrates its own chains
        assert len(calls) > len(set(calls))
        calls.clear()
        with shared_sweeps(octa_model, x, [self.T]):
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

    def test_public_call_integrates_each_chain_once(self, octa_model, rng, calls):
        # outside any table a public call joins one of its own: every grid
        # of its refinement reads one chain of each kind it needs
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        spin = ObservableSpec(kind="spin", m=1, lam=2)
        order_j(octa_model, spin, 1, self.T, x, tol=1e-9)
        spin_correction1(octa_model, self.T, x, tol=1e-8)
        steps = _chain_steps(self.T, 32)
        assert calls == [("propagator", steps), ("maxwell", steps)]

    def test_other_point_bypasses(self, octa_model, rng, calls):
        # another t of the same (model, X) joins the table; a copy of X or of
        # the model is matched by identity, so it bypasses it
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        twin = PhaseVector(x.q.copy(), x.p.copy())
        other = copy.copy(octa_model)
        with shared_sweeps(octa_model, x, [self.T]):
            for _ in range(2):
                _propagator_sweep(octa_model, self.T, x, 16)
                _propagator_sweep(octa_model, 0.5, x, 16)
                _propagator_sweep(octa_model, self.T, twin, 16)
                _propagator_sweep(other, self.T, x, 16)
                _maxwell_nodes(octa_model, self.T, x, 16)
                _maxwell_nodes(octa_model, 0.5, x, 16)
        kinds = [kind for kind, _ in calls]
        assert kinds.count("propagator") == 2 + 2 * 2
        assert kinds.count("maxwell") == 2
        steps = {_chain_steps(self.T, 16), _chain_steps(0.5, 16)}
        assert {n for _, n in calls} == steps

    @pytest.mark.parametrize("ts", [(0.5, 1.0, 2.0), (16.0, 32.0)])
    def test_prefix_equals_chain_alone(self, octa_model, rng, calls, ts):
        # every t here reads a chain on the substep 2^-10, so the longest
        # chain is integrated once, and each shorter one read as its prefix
        # is bitwise the chain integrated to that t alone
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        grid = [(t / _chain_steps(t, 32), _chain_steps(t, 32)) for t in ts]
        assert {dt for dt, _ in grid} == {2.0**-10}
        with shared_sweeps(octa_model, x, ts):
            shared = [
                (
                    _propagator_chain(octa_model, dt, x, n),
                    hierarchy._maxwell_chain(octa_model, dt, x, n),
                )
                for dt, n in grid
            ]
        longest = grid[-1][1]
        assert calls == [("propagator", longest), ("maxwell", longest)]
        for (dt, n), (g, (r, sums)) in zip(grid[:-1], shared):
            assert len(g) == len(r) == len(sums) == n + 1
            np.testing.assert_array_equal(g, _propagator_chain(octa_model, dt, x, n))
            r_alone, sums_alone = hierarchy._maxwell_chain(octa_model, dt, x, n)
            np.testing.assert_array_equal(r, r_alone)
            np.testing.assert_array_equal(sums, sums_alone)

    def test_longer_read_extends_the_chain(self, octa_model, rng, calls):
        # a refinement past the stored chain integrates it again to the
        # length asked; the prefix already served stays bitwise the same
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        with shared_sweeps(octa_model, x, [0.5]):
            short = _propagator_sweep(octa_model, 0.5, x, 32)
            long = _propagator_sweep(octa_model, 1.0, x, 64)
            again = _propagator_sweep(octa_model, 0.5, x, 64)
        assert calls == [("propagator", 512), ("propagator", 1024)]
        np.testing.assert_array_equal(long[:33], short)
        np.testing.assert_array_equal(again[::2], short)

    def test_refinement_integrates_each_chain_once(self, octa_model, rng, calls):
        # every grid of a refinement from n = 32 to 1024 at t = 1 reads its
        # nodes from one chain of 1024 substeps per kind
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        spin = ObservableSpec(kind="spin", m=1, lam=2)
        seen = []

        def both(n):
            seen.append(n)
            a1 = _order1_grids(octa_model, spin, 1.0, x)(n)
            return np.concatenate([a1[None], _spin1_on_grid(octa_model, 1, 1.0, x, n)])

        with shared_sweeps(octa_model, x, [1.0]):
            with pytest.raises(HierarchyError):
                _refine(both, 0.0, nmax=1024)
        assert seen == [32, 64, 128, 256, 512, 1024]
        assert sorted(calls) == [("maxwell", 1024), ("propagator", 1024)]

    @pytest.mark.parametrize("n", [16, 512])
    def test_reads_nest_bitwise(self, octa_model, rng, n):
        # node i of n panels is node 2i of 2n panels: the same chain state,
        # with the same per-node projection and mode read
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        assert _chain_steps(self.T, 2 * n) == _chain_steps(self.T, n)
        with shared_sweeps(octa_model, x, [self.T]):
            g, g2 = (_propagator_sweep(octa_model, self.T, x, k) for k in (n, 2 * n))
            (r, z), (r2, z2) = (
                maxwell_modes(octa_model, self.T, x, k) for k in (n, 2 * n)
            )
        np.testing.assert_array_equal(g, g2[::2])
        np.testing.assert_array_equal(r, r2[::2])
        np.testing.assert_array_equal(z, z2[::2])

    def test_stored_arrays_read_only(self, octa_model, rng):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        with shared_sweeps(octa_model, x, [self.T]):
            g = _propagator_sweep(octa_model, self.T, x, 16)
            r, rows = _maxwell_nodes(octa_model, self.T, x, 16)
            steps = _chain_steps(self.T, 16)
            chain = _propagator_chain(octa_model, self.T / steps, x, steps)
            for a in (g, r, rows, r[:, 1], chain):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    def test_table_dropped_on_exit(self, octa_model, rng, calls):
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        with shared_sweeps(octa_model, x, [self.T]):
            inner = _propagator_sweep(octa_model, self.T, x, 16)
            assert _propagator_sweep(octa_model, self.T, x, 16) is inner
        assert hierarchy._SWEEPS.get() is None
        after = _propagator_sweep(octa_model, self.T, x, 16)
        assert after is not inner and len(calls) == 2
        np.testing.assert_array_equal(after, inner)
        with pytest.raises(RuntimeError):
            with shared_sweeps(octa_model, x, [self.T]):
                raise RuntimeError
        assert hierarchy._SWEEPS.get() is None

    def test_last_t_drops_its_chains(self, octa_model, rng, calls):
        # a chain stays while a t sample that reads it has still to end its
        # join, and goes with the last of them: t = 0.5 and 1 share the
        # substep 2^-10, t = 1.5 has its own
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        table = hierarchy.SweepTable(octa_model, x, [0.5, 1.5, 1.0])
        for t in (0.5, 1.5, 1.0):
            with table.joined(t):
                propagator_G(octa_model, t, x)
        assert calls == [("propagator", 1024), ("propagator", 2048)]
        with table.joined():
            propagator_G(octa_model, 1.0, x)
            propagator_G(octa_model, 1.5, x)
        assert calls[2:] == [("propagator", 1024), ("propagator", 2048)]

    def test_pool_threads_share_a_table(self, octa_model, rng, calls):
        # pool threads inherit no context: each job joins the table itself,
        # and the first job to read a chain builds it, once, under its lock
        from concurrent.futures import ThreadPoolExecutor

        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        ts = [0.5, 1.0, 2.0, 0.5, 1.0, 2.0]
        table = hierarchy.SweepTable(octa_model, x, ts)

        def job(t):
            with table.joined():
                return propagator_G(octa_model, t, x).matrix

        with ThreadPoolExecutor(max_workers=3) as pool:
            got = list(pool.map(job, ts))
        assert calls == [("propagator", 2048)]
        for t, g in zip(ts, got):
            np.testing.assert_array_equal(g, propagator_G(octa_model, t, x).matrix)


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
            trip = bloch_spin0(minimal_model, t, xp)[0]
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
        spin = ObservableSpec(kind="spin", m=1, lam=1)
        (orders,) = compute_hierarchy(minimal_model, [spin], 0.8, x, M=1, tol=1e-7)
        assert len(orders) == 2
        for a in orders:
            assert _norm(a - a.conj().T) <= 1e-8

    def test_one_scope_keeps_order_and_values(self, octa_model, rng):
        # every observable at (t, X) built in one scope, in the order given,
        # bitwise equal to a build of that observable alone
        x = random_phase_vector(rng, octa_model.D, scale=0.5)
        observables = [
            ObservableSpec(kind="number_rate"),
            ObservableSpec(kind="field_B", m=2, x=np.array([0.3, -0.1, 0.2])),
            ObservableSpec(kind="spin", m=3, lam=2),
        ]
        together = compute_hierarchy(octa_model, observables, 0.7, x, M=1)
        assert len(together) == len(observables)
        for obs, orders in zip(observables, together):
            (alone,) = compute_hierarchy(octa_model, [obs], 0.7, x, M=1)
            assert len(orders) == len(alone) == 2
            for a, b in zip(orders, alone):
                np.testing.assert_array_equal(a, b)
