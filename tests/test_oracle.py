"""Exact propagation: Hamiltonian assembly, stepper, evolved symbols, rates."""

import numpy as np
import pytest
import scipy.sparse as sp

from blochlab.fock import FockBasis, segal_field
from blochlab.model import (
    Model,
    ModelConfig,
    PhaseVector,
    apply_helicity,
    chi_flow_vector,
    coupling_B,
    coupling_B_gradient,
    fmap,
    minimal_grid_config,
)
from blochlab.oracle import (
    Hamiltonian,
    ObservableSpec,
    OracleError,
    apply_observable,
    coherent_frame,
    evolve_interaction_picture,
    evolved_frame,
    evolved_wick_symbol,
    frame_symbol,
    number_expectation,
)
from blochlab.model import ModelError
from conftest import random_phase_vector


@pytest.fixture(scope="module")
def small_setup(minimal_model):
    basis = FockBasis(D=4, n_max=14)
    h = 0.3
    return minimal_model, basis, Hamiltonian(minimal_model, basis, h), h


@pytest.fixture(scope="module")
def free_setup():
    """Zero coupling and zero beta: pure free field."""
    cfg = minimal_grid_config(N=1, positions=[[0.0, 0.0, 0.0]], beta=(0, 0, 0))
    cfg.cutoff_fn = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    model = Model(cfg)
    basis = FockBasis(D=4, n_max=10)
    h = 0.4
    return model, basis, Hamiltonian(model, basis, h), h


class TestObservableSpec:
    def test_parse_field(self):
        obs = ObservableSpec.from_dict(
            {"kind": "field_B", "axis": 2, "point": [0, 0, 0]}
        )
        assert obs.m == 2 and obs.kind == "field_B"

    def test_rejects_incomplete(self):
        with pytest.raises(ModelError):
            ObservableSpec(kind="field_E", m=1)
        with pytest.raises(ModelError):
            ObservableSpec(kind="nonsense")


class TestHamiltonian:
    def test_free_limit_is_diagonal(self, free_setup):
        model, basis, ham, h = free_setup
        full = ham.full_operator().toarray()
        expected = np.kron(np.diag(ham.hph_diag), np.eye(2))
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_hermitian(self, small_setup):
        _, _, ham, _ = small_setup
        full = ham.full_operator()
        defect = abs(full - full.conj().T).max()
        assert defect <= 1e-12 * abs(full).max()

    def test_coupling_lowers_ground_energy(self, minimal_model):
        # variational: vacuum (x) spin-down is an eigenstate of the
        # uncoupled H; turning on the field coupling lowers the minimum
        import scipy.sparse.linalg as spla

        basis = FockBasis(D=4, n_max=10)
        h = 0.3
        coupled = Hamiltonian(minimal_model, basis, h).full_operator()
        cfg = minimal_grid_config(N=1, positions=[[0.0, 0.0, 0.0]], beta=(0, 0, 1))
        cfg.cutoff_fn = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        free = Hamiltonian(Model(cfg), basis, h).full_operator()
        e_coupled = spla.eigsh(coupled, k=1, which="SA")[0][0]
        e_free = spla.eigsh(free, k=1, which="SA")[0][0]
        assert e_coupled < e_free - 1e-8


@pytest.fixture(scope="module")
def octa_setup(octa_model):
    """Two spins and two frequency groups: D = 48, s = 4, dim 1,225."""
    basis = FockBasis(D=octa_model.D, n_max=2)
    return octa_model, basis, Hamiltonian(octa_model, basis, 0.3)


def _unit_columns(rng, rows, n):
    psi = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return psi / np.linalg.norm(psi, axis=0)


class TestTensorOperators:
    T_SAMPLES = (0.0, 0.37, 1.9)

    def test_apply_matches_operator(self, octa_setup, rng):
        _, basis, ham = octa_setup
        assert basis.dim == 1225 and ham.spin_dim == 4
        assert len(ham.ops.groups) == 2
        psi = _unit_columns(rng, basis.dim * 4, 3).reshape(basis.dim, 4, 3)
        for t in self.T_SAMPLES:
            got = ham._interaction_apply(t, psi)
            want = ham.interaction_operator(t) @ psi.reshape(basis.dim * 4, 3)
            assert np.max(np.abs(got.reshape(-1, 3) - want)) <= 1e-13

    def test_operator_matches_rotated_couplings(self, octa_setup):
        # H_int^free(t) = sum (beta_m + Phi_{S,h}(chi_{-t} B)) (x) sigma,
        # assembled from segal_field without the frequency groups
        model, basis, ham = octa_setup
        eye = sp.identity(basis.dim, format="csr")
        for t in self.T_SAMPLES:
            want = sp.csr_matrix((basis.dim * 4, basis.dim * 4), dtype=complex)
            for lam in range(model.N):
                for m in range(3):
                    b = chi_flow_vector(model.grid, -t, model.couplings[lam][m])
                    field = model.beta[m] * eye + segal_field(basis, ham.h, b)
                    want = want + sp.kron(field, model.spin_ops[lam][m])
            assert abs(ham.interaction_operator(t) - want).max() <= 1e-13

    def test_operators_shared_across_h(self, octa_model, octa_setup):
        _, basis, ham = octa_setup
        other = Hamiltonian(octa_model, basis, 0.05)
        assert other.ops is ham.ops
        assert other.root == np.sqrt(0.05 / 2.0) and ham.root == np.sqrt(0.3 / 2.0)


class TestObservableApplication:
    """Each observable against its materialized operator on Fock x C^s."""

    def _check(self, ham, basis, obs, op, rng):
        s = ham.spin_dim
        psi = _unit_columns(rng, basis.dim * s, s).reshape(basis.dim, s, s)
        got = apply_observable(ham, obs, psi).reshape(-1, s)
        want = op @ psi.reshape(-1, s)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_spin(self, octa_setup, rng):
        model, basis, ham = octa_setup
        eye = sp.identity(basis.dim, format="csr")
        for lam in (1, 2):
            for m in (1, 2, 3):
                op = sp.kron(eye, model.spin_ops[lam - 1][m - 1], format="csr")
                obs = ObservableSpec(kind="spin", m=m, lam=lam)
                self._check(ham, basis, obs, op, rng)

    def test_fields(self, octa_setup, rng):
        model, basis, ham = octa_setup
        point = np.array([0.2, -0.1, 0.3])
        b = coupling_B(model.grid, model.config, 2, point)
        for kind, v in (
            ("field_B", b),
            ("field_E", apply_helicity(model.grid, b)),
            ("field_E_pol", fmap(b)),
        ):
            op = sp.kron(segal_field(basis, ham.h, v), sp.identity(4), format="csr")
            obs = ObservableSpec(kind=kind, m=2, x=point)
            self._check(ham, basis, obs, op, rng)

    def test_number_rate(self, octa_setup, rng):
        # (i/h)[H, N (x) I] = - sum Phi_{S,h}(F B_{m x_lam}) (x) sigma_m^[lam]
        model, basis, ham = octa_setup
        op = sp.csr_matrix((basis.dim * 4, basis.dim * 4), dtype=complex)
        for lam in range(model.N):
            for m in range(3):
                f = segal_field(basis, ham.h, fmap(model.couplings[lam][m]))
                op = op - sp.kron(f, model.spin_ops[lam][m], format="csr")
        self._check(ham, basis, ObservableSpec(kind="number_rate"), op, rng)


class TestEvolution:
    def test_free_evolution_is_exact_phase(self, free_setup, rng):
        model, basis, ham, h = free_setup
        psi0 = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal(
            (basis.dim, 2)
        )
        psi0 /= np.linalg.norm(psi0)
        t = 1.3
        psi_t, log = evolve_interaction_picture(ham, psi0, t)
        expected = ham.free_phases(t)[:, None] * psi0
        np.testing.assert_allclose(psi_t, expected, atol=1e-9)

    def test_norm_preserved(self, small_setup, rng):
        _, basis, ham, _ = small_setup
        psi0 = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal(
            (basis.dim, 2)
        )
        psi0 /= np.linalg.norm(psi0)
        psi_t, log = evolve_interaction_picture(ham, psi0, 2.0, tol=1e-9)
        assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-7
        assert log.unitarity_defect < 1e-7

    def test_energy_conserved(self, small_setup, rng):
        _, basis, ham, _ = small_setup
        psi0 = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal(
            (basis.dim, 2)
        )
        psi0 /= np.linalg.norm(psi0)
        e0 = ham.energy(psi0)
        psi_t, _ = evolve_interaction_picture(ham, psi0, 1.7, tol=1e-10)
        assert ham.energy(psi_t) == pytest.approx(e0, abs=1e-7)

    def test_group_property(self, small_setup, rng):
        _, basis, ham, _ = small_setup
        psi0 = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal(
            (basis.dim, 2)
        )
        psi0 /= np.linalg.norm(psi0)
        one, _ = evolve_interaction_picture(ham, psi0, 1.1, tol=1e-10)
        a, _ = evolve_interaction_picture(ham, psi0, 0.6, tol=1e-10)
        b, _ = evolve_interaction_picture(ham, a, 0.5, tol=1e-10)
        np.testing.assert_allclose(one, b, atol=1e-8)

    def test_backward_inverts(self, small_setup, rng):
        _, basis, ham, _ = small_setup
        psi0 = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal(
            (basis.dim, 2)
        )
        psi0 /= np.linalg.norm(psi0)
        fwd, _ = evolve_interaction_picture(ham, psi0, 0.9, tol=1e-10)
        back, _ = evolve_interaction_picture(ham, fwd, -0.9, tol=1e-10)
        np.testing.assert_allclose(back, psi0, atol=1e-8)


class TestEvolvedSymbol:
    def test_t0_spin(self, small_setup, rng):
        model, _, ham, _ = small_setup
        x = random_phase_vector(rng, 4, scale=0.2)
        got = evolved_wick_symbol(
            ham, ObservableSpec(kind="spin", m=3, lam=1), 0.0, x
        )
        np.testing.assert_allclose(got, model.spin_ops[0][2], atol=1e-10)

    def test_t0_number(self, small_setup, rng):
        _, _, ham, h = small_setup
        x = random_phase_vector(rng, 4, scale=0.2)
        frame = coherent_frame(ham, x)
        got = number_expectation(ham, frame)
        np.testing.assert_allclose(
            got, x.norm() ** 2 / (2 * h) * np.eye(2), atol=1e-8
        )

    def test_t0_field_symbol_is_linear(self, small_setup, rng):
        model, _, ham, _ = small_setup
        x = random_phase_vector(rng, 4, scale=0.2)
        obs = ObservableSpec(kind="field_B", m=1, x=np.zeros(3))
        got = evolved_wick_symbol(ham, obs, 0.0, x)
        want = model.couplings[0][0].dot(x) * np.eye(2)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_free_covariance(self, free_setup, rng):
        # zero coupling in H but a genuine field observable: the symbol of
        # the evolved field at X is V . chi_t X
        model, basis, ham, h = free_setup
        from blochlab.fock import segal_field

        x = random_phase_vector(rng, 4, scale=0.15)
        v = random_phase_vector(rng, 4)
        t = 0.8
        frame_t, _ = evolved_frame(ham, t, x)
        f = segal_field(basis, h, v)
        applied = (f @ frame_t.reshape(basis.dim, -1)).reshape(frame_t.shape)
        got = frame_symbol(frame_t, applied)
        want = v.dot(chi_flow_vector(model.grid, t, x)) * np.eye(2)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_hermitian_output(self, small_setup, rng):
        _, _, ham, _ = small_setup
        x = random_phase_vector(rng, 4, scale=0.2)
        got = evolved_wick_symbol(
            ham, ObservableSpec(kind="field_E", m=2, x=np.array([0.1, 0, 0])), 0.7, x
        )
        np.testing.assert_allclose(got, got.conj().T, atol=1e-9)

    def test_tail_refusal(self, minimal_model):
        basis = FockBasis(D=4, n_max=4)
        ham = Hamiltonian(minimal_model, basis, 0.05)
        big = PhaseVector(np.full(4, 0.8), np.zeros(4))
        with pytest.raises(OracleError):
            coherent_frame(ham, big)


NUMBER_RATE = ObservableSpec(kind="number_rate")


class TestPhotonRate:
    def test_zero_coupling_vanishes(self, free_setup, rng):
        _, _, ham, _ = free_setup
        x = random_phase_vector(rng, 4, scale=0.15)
        got = evolved_wick_symbol(ham, NUMBER_RATE, 0.5, x)
        np.testing.assert_allclose(got, 0.0, atol=1e-10)

    def test_origin_t0_vanishes(self, small_setup):
        _, _, ham, _ = small_setup
        got = evolved_wick_symbol(ham, NUMBER_RATE, 0.0, PhaseVector.zero(4))
        np.testing.assert_allclose(got, 0.0, atol=1e-10)

    def test_matches_number_derivative(self, small_setup, rng):
        # central difference of <N (x) I> along the evolution vs the exact
        # commutator observable
        _, _, ham, _ = small_setup
        x = random_phase_vector(rng, 4, scale=0.2)
        t, dt = 0.6, 1e-3
        plus, _ = evolved_frame(ham, t + dt, x, tol=1e-11)
        minus, _ = evolved_frame(ham, t - dt, x, tol=1e-11)
        fd = (number_expectation(ham, plus) - number_expectation(ham, minus)) / (
            2 * dt
        )
        rate = evolved_wick_symbol(ham, NUMBER_RATE, t, x, tol=1e-11)
        np.testing.assert_allclose(fd, rate, atol=5e-6)


class TestOperatorFieldEquations:
    def test_maxwell_structure(self, small_setup, rng):
        # d/dt <B_m(x)> + (curl <E>)_m = 0 along the evolution, with the
        # spatial curl taken analytically through the coupling gradients
        model, basis, ham, h = small_setup
        from blochlab.fock import segal_field

        x_pt = np.array([0.2, -0.1, 0.3])
        x = random_phase_vector(rng, 4, scale=0.2)
        t, dt = 0.5, 1e-3

        def b_symbol(tt, m):
            frame_t, _ = evolved_frame(ham, tt, x, tol=1e-11)
            obs = ObservableSpec(kind="field_B", m=m, x=x_pt)
            return frame_symbol(frame_t, apply_observable(ham, obs, frame_t))

        frame_t, _ = evolved_frame(ham, t, x, tol=1e-11)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k], eps[i, k, j] = 1.0, -1.0
        for m in (1, 2, 3):
            fd = (b_symbol(t + dt, m) - b_symbol(t - dt, m)) / (2 * dt)
            curl = np.zeros((2, 2), dtype=complex)
            for j in range(3):
                for l in range(3):
                    if eps[m - 1, j, l] == 0.0:
                        continue
                    # d/dx_j of the E_l coupling at x_pt
                    grad = coupling_B_gradient(model.grid, model.config, l + 1, x_pt)
                    de = apply_helicity(model.grid, grad[j])
                    f = segal_field(basis, h, de)
                    applied = (f @ frame_t.reshape(basis.dim, -1)).reshape(
                        frame_t.shape
                    )
                    curl += eps[m - 1, j, l] * frame_symbol(frame_t, applied)
            np.testing.assert_allclose(fd + curl, 0.0, atol=5e-6)

    def test_bloch_structure(self, small_setup, rng):
        # d/dt <sigma_j> = 2 sum_{m,l} eps_{jml} <(beta_m + Phi(B_m)) sigma_l>
        model, basis, ham, h = small_setup
        from blochlab.fock import segal_field

        x = random_phase_vector(rng, 4, scale=0.2)
        t, dt = 0.4, 1e-3

        def spin_symbol(tt, j):
            frame_t, _ = evolved_frame(ham, tt, x, tol=1e-11)
            obs = ObservableSpec(kind="spin", m=j, lam=1)
            return frame_symbol(frame_t, apply_observable(ham, obs, frame_t))

        frame_t, _ = evolved_frame(ham, t, x, tol=1e-11)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k], eps[i, k, j] = 1.0, -1.0
        for j in (1, 2, 3):
            fd = (spin_symbol(t + dt, j) - spin_symbol(t - dt, j)) / (2 * dt)
            rhs = np.zeros((2, 2), dtype=complex)
            for m in range(3):
                for l in range(3):
                    if eps[j - 1, m, l] == 0.0:
                        continue
                    f = segal_field(basis, h, model.couplings[0][m])
                    sig_l = model.spin_ops[0][l]
                    state = np.einsum("ab,fbn->fan", sig_l, frame_t)
                    field_part = (f @ state.reshape(basis.dim, -1)).reshape(
                        frame_t.shape
                    )
                    term = model.beta[m] * state + field_part
                    rhs += 2.0 * eps[j - 1, m, l] * frame_symbol(frame_t, term)
            np.testing.assert_allclose(fd, rhs, atol=5e-6)
