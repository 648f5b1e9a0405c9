"""Exact propagation: Hamiltonian assembly, stepper, evolved symbols, rates."""

import copy
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

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
    TensorOperators,
    _interaction_apply,
    _roots,
    _stacked_generator,
    apply_observable,
    coherent_frame,
    coupled_modes,
    drive_weight,
    evolved_frames,
    frame_symbol,
    leakage_estimate,
)
from blochlab.model import ModelError
from conftest import random_phase_vector, zero_vector
from reference import (
    coherent_spin_frame,
    evolve_one,
    evolved_one,
    evolved_wick_symbol,
    full_operator,
    interaction_apply_per_group,
    interaction_operator,
    number_expectation,
    number_rate_per_group,
    segal_field_coo,
    stacked_generator_block_diag,
    tensor_operators_kron,
)


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
        full = full_operator(ham).toarray()
        expected = np.kron(np.diag(ham.hph_diag), np.eye(2))
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_hermitian(self, small_setup):
        _, _, ham, _ = small_setup
        full = full_operator(ham)
        defect = abs(full - full.conj().T).max()
        assert defect <= 1e-12 * abs(full).max()

    def test_coupling_lowers_ground_energy(self, minimal_model):
        # variational: vacuum (x) spin-down is an eigenstate of the
        # uncoupled H; turning on the field coupling lowers the minimum
        import scipy.sparse.linalg as spla

        basis = FockBasis(D=4, n_max=10)
        h = 0.3
        coupled = full_operator(Hamiltonian(minimal_model, basis, h))
        cfg = minimal_grid_config(N=1, positions=[[0.0, 0.0, 0.0]], beta=(0, 0, 1))
        cfg.cutoff_fn = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        free = full_operator(Hamiltonian(Model(cfg), basis, h))
        e_coupled = spla.eigsh(coupled, k=1, which="SA")[0][0]
        e_free = spla.eigsh(free, k=1, which="SA")[0][0]
        assert e_coupled < e_free - 1e-8


@pytest.fixture(scope="module")
def octa_setup(octa_model):
    """Two spins and two frequency groups: D = 48, of which 12 couple, s = 4,
    dim 91 (1,225 on every mode)."""
    modes = coupled_modes(octa_model)
    basis = FockBasis(D=modes.shape[1], n_max=2)
    return octa_model, basis, Hamiltonian(octa_model, basis, 0.3, modes)


def _unit_columns(rng, rows, n):
    psi = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return psi / np.linalg.norm(psi, axis=0)


class TestTensorOperators:
    T_SAMPLES = (0.0, 0.37, 1.9)

    def test_apply_matches_operator(self, octa_setup, rng):
        model, basis, ham = octa_setup
        assert basis.dim == 91 and ham.spin_dim == 4
        assert len(ham.ops.groups) == 2
        psi = _unit_columns(rng, basis.dim * 4, 3).reshape(basis.dim, 4, 3)
        for x in (zero_vector(model.D), random_phase_vector(rng, model.D, scale=0.3)):
            gen = ham.generator(x)
            for t in self.T_SAMPLES:
                got = _interaction_apply(ham.ops, _roots([ham]), t, psi[None], gen)[0]
                want = interaction_operator(ham, t, x) @ psi.reshape(basis.dim * 4, 3)
                assert np.max(np.abs(got.reshape(-1, 3) - want)) <= 1e-13

    def test_operator_matches_rotated_couplings(self, octa_setup, rng):
        # H_int^free(t) + drive(t) = sum (beta_m + (chi_{-t} B) . X
        # + Phi_{S,h}(U^T chi_{-t} B)) (x) sigma, assembled from segal_field
        # without the frequency groups
        model, basis, ham = octa_setup
        eye = sp.identity(basis.dim, format="csr")
        for x in (zero_vector(model.D), random_phase_vector(rng, model.D, scale=0.3)):
            for t in self.T_SAMPLES:
                want = sp.csr_matrix((basis.dim * 4, basis.dim * 4), dtype=complex)
                for lam in range(model.N):
                    for m in range(3):
                        b = chi_flow_vector(model.grid, -t, model.couplings[lam][m])
                        shift = model.beta[m] + b.dot(x)
                        field = shift * eye + segal_field(basis, ham.h, ham.project(b))
                        want = want + sp.kron(field, model.spin_ops[lam][m])
                assert abs(interaction_operator(ham, t, x) - want).max() <= 1e-13

    def test_stacked_generator_matches_per_group_products(self, octa_setup, rng):
        # one product with [h0; L_1; L_1^H; L_2; L_2^H] sums every row as the
        # product with its own block does, so the right-hand side, the
        # energy's interaction part and number_rate are bitwise unchanged
        model, basis, ham = octa_setup
        psi = _unit_columns(rng, basis.dim * 4, 4).reshape(basis.dim, 4, 4)
        for x in (zero_vector(model.D), random_phase_vector(rng, model.D, scale=0.3)):
            gen = ham.generator(x)
            assert gen.shape == (5 * basis.dim * 4, basis.dim * 4)
            for t in self.T_SAMPLES:
                got = _interaction_apply(ham.ops, _roots([ham]), t, psi[None], gen)[0]
                assert np.array_equal(got, interaction_apply_per_group(ham, t, psi, x))
            got = apply_observable(ham, NUMBER_RATE, psi, x)
            assert np.array_equal(got, number_rate_per_group(ham, psi, x))

    def test_generator_writes_only_the_drive(self, octa_setup, rng):
        # every X shares the pattern built once per (model, basis): its
        # generator differs from it only at the drive entries, the 12 spin
        # entries that one spin flip reaches, per photon state in each of
        # the 2G coupling blocks
        model, basis, ham = octa_setup
        pattern = ham.ops.pattern
        assert len(ham.ops.drive) == 2 * len(ham.ops.groups) * basis.dim * 12
        assert not pattern.data[ham.ops.drive].any()
        gen = ham.generator(random_phase_vector(rng, model.D, scale=0.3))
        assert np.array_equal(gen.indices, pattern.indices)
        assert np.array_equal(gen.indptr, pattern.indptr)
        changed = np.flatnonzero(gen.data != pattern.data)
        assert np.array_equal(changed, ham.ops.drive)

    def test_operators_shared_across_h(self, octa_model, octa_setup):
        _, basis, ham = octa_setup
        other = Hamiltonian(octa_model, basis, 0.05, ham.ops.modes)
        assert other.ops is ham.ops
        assert other.root == np.sqrt(0.05 / 2.0) and ham.root == np.sqrt(0.3 / 2.0)


def _random_coupling_model(rng):
    """Two spins on one k-point with random pure-q couplings on every slot,
    cos and sin alike, some exactly zero, several modes per term; both
    sites' sigma_3 share one coupling, so K's sum cancels exactly in the
    entries where the two spins' sigma_3 differ in sign."""
    cfg = minimal_grid_config(N=2, positions=[[0.0, 0.0, 0.0], [0.4, -0.3, 0.2]])
    model = Model(cfg)
    for row in model.couplings:
        for m in range(3):
            q = rng.standard_normal(model.D) * (rng.random(model.D) < 0.7)
            row[m] = PhaseVector(q, np.zeros(model.D))
    model.couplings[1][2] = model.couplings[0][2]
    return model


def _assert_same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


class TestOperatorLayouts:
    """The layouts laid out once per basis against the per-call sparse
    assemblies of tests/reference.py: the same arrays, entry for entry."""

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    def test_tensor_operators_on_the_desk(self, minimal_model, cutoff):
        for modes in (coupled_modes(minimal_model), np.eye(minimal_model.D)):
            basis = FockBasis(modes.shape[1], cutoff)
            ops = TensorOperators(minimal_model, basis, modes)
            pattern, drive = tensor_operators_kron(minimal_model, basis, modes)
            _assert_same_csr(ops.pattern, pattern)
            assert np.array_equal(ops.drive, drive)

    def test_tensor_operators_on_octa_and_random_couplings(self, octa_setup, rng):
        model, basis, ham = octa_setup
        pattern, drive = tensor_operators_kron(model, basis, ham.ops.modes)
        _assert_same_csr(ham.ops.pattern, pattern)
        assert np.array_equal(ham.ops.drive, drive)
        model = _random_coupling_model(rng)
        for cutoff in (1, 2, 3):
            basis = FockBasis(model.D, cutoff)
            ops = TensorOperators(model, basis, np.eye(model.D))
            pattern, drive = tensor_operators_kron(model, basis, np.eye(model.D))
            _assert_same_csr(ops.pattern, pattern)
            assert np.array_equal(ops.drive, drive)
        # the cancelled entries are dropped, not kept as zeros
        assert np.count_nonzero(pattern.data) == pattern.nnz - len(drive)

    def test_segal_field_with_zero_entries(self, octa_setup, rng):
        _, basis, _ = octa_setup
        for _ in range(6):
            v = random_phase_vector(rng, basis.D)
            v.q[rng.random(basis.D) < 0.4] = 0.0
            v.p[rng.random(basis.D) < 0.4] = 0.0
            _assert_same_csr(segal_field(basis, 0.3, v), segal_field_coo(basis, 0.3, v))
        empty = segal_field(basis, 0.3, zero_vector(basis.D))
        assert empty.shape == (basis.dim, basis.dim) and empty.nnz == 0

    @pytest.mark.parametrize("frames", [1, 2, 3, 4])
    def test_stacked_generator(self, octa_setup, rng, frames):
        model, basis, ham = octa_setup
        ladder = (0.4, 0.2, 0.1, 0.05)
        hams = [Hamiltonian(model, basis, h, ham.ops.modes) for h in ladder]
        x = random_phase_vector(rng, model.D, scale=0.3)
        got = _stacked_generator(hams[:frames], x)
        want = stacked_generator_block_diag(hams[:frames], x)
        assert got.shape == want.shape
        _assert_same_csr(got, want)

    def test_layouts_shared_across_threads(self, octa_model, rng):
        # frame jobs on two pool workers share a basis: first uses racing
        # on many threads fill each layout once and build the same matrices
        modes = coupled_modes(octa_model)
        basis = FockBasis(modes.shape[1], 2)
        hams = [Hamiltonian(octa_model, basis, h, modes) for h in (0.4, 0.2, 0.1)]
        x = random_phase_vector(rng, octa_model.D, scale=0.3)
        v = random_phase_vector(rng, basis.D)

        def build():
            return _stacked_generator(hams, x), segal_field(basis, 0.3, v)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(build) for _ in range(32)]
                built = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert list(hams[0].ops.layouts) == [3] and len(basis._field_layouts) == 1
        want_gen = stacked_generator_block_diag(hams, x)
        want_field = segal_field_coo(basis, 0.3, v)
        for gen, field in built:
            _assert_same_csr(gen, want_gen)
            _assert_same_csr(field, want_field)


class TestObservableApplication:
    """Each observable against its materialized operator on Fock x C^s.

    Displaced by W(Y), a field Phi_h(V) becomes Phi_h(V) + V . Y, so every
    reference is assembled at Y = 0 and at a random Y from segal_field, with
    the field on the coupled modes, Phi_h(U^T V).
    """

    def _check(self, ham, basis, obs, op_at, rng):
        s, d = ham.spin_dim, ham.model.D
        psi = _unit_columns(rng, basis.dim * s, s).reshape(basis.dim, s, s)
        for y in (zero_vector(d), random_phase_vector(rng, d, scale=0.3)):
            got = apply_observable(ham, obs, psi, y).reshape(-1, s)
            want = op_at(y) @ psi.reshape(-1, s)
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_spin(self, octa_setup, rng):
        model, basis, ham = octa_setup
        eye = sp.identity(basis.dim, format="csr")
        for lam in (1, 2):
            for m in (1, 2, 3):
                op = sp.kron(eye, model.spin_ops[lam - 1][m - 1], format="csr")
                obs = ObservableSpec(kind="spin", m=m, lam=lam)
                self._check(ham, basis, obs, lambda y: op, rng)

    def test_fields(self, octa_setup, rng):
        model, basis, ham = octa_setup
        eye = sp.identity(basis.dim, format="csr")
        point = np.array([0.2, -0.1, 0.3])
        b = coupling_B(model.grid, model.config, 2, point)
        for kind, v in (
            ("field_B", b),
            ("field_E", apply_helicity(model.grid, b)),
            ("field_E_pol", fmap(b)),
        ):

            def op_at(y):
                field = segal_field(basis, ham.h, ham.project(v)) + v.dot(y) * eye
                return sp.kron(field, sp.identity(4), format="csr")

            obs = ObservableSpec(kind=kind, m=2, x=point)
            self._check(ham, basis, obs, op_at, rng)

    def test_number_rate(self, octa_setup, rng):
        # (i/h)[H, N (x) I] = - sum Phi_{S,h}(F B_{m x_lam}) (x) sigma_m^[lam]
        model, basis, ham = octa_setup
        eye = sp.identity(basis.dim, format="csr")

        def op_at(y):
            op = sp.csr_matrix((basis.dim * 4, basis.dim * 4), dtype=complex)
            for lam in range(model.N):
                for m in range(3):
                    fb = fmap(model.couplings[lam][m])
                    f = segal_field(basis, ham.h, ham.project(fb)) + fb.dot(y) * eye
                    op = op - sp.kron(f, model.spin_ops[lam][m], format="csr")
            return op

        self._check(ham, basis, ObservableSpec(kind="number_rate"), op_at, rng)


def _random_states(rng, dim):
    psi0 = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    return psi0 / np.linalg.norm(psi0)


def _undisplaced_frame(ham, t, x, tol):
    """The coherent frame propagated as it stands, in the frame X = 0."""
    zero = zero_vector(ham.model.D)
    frame = coherent_spin_frame(ham, x)
    frame_t, _ = evolve_one(ham, frame, t, zero, tol)
    return frame_t


class TestEvolution:
    def test_free_evolution_is_exact_phase(self, free_setup, rng):
        model, basis, ham, h = free_setup
        psi0 = _random_states(rng, basis.dim)
        t = 1.3
        psi_t, log = evolve_one(ham, psi0, t, zero_vector(model.D))
        expected = ham.free_phases(t)[:, None] * psi0
        np.testing.assert_allclose(psi_t, expected, atol=1e-9)

    def test_norm_preserved(self, small_setup, rng):
        model, basis, ham, _ = small_setup
        psi0 = _random_states(rng, basis.dim)
        x = random_phase_vector(rng, 4, scale=0.2)
        psi_t, log = evolve_one(ham, psi0, 2.0, x, tol=1e-9)
        assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-7
        assert log.unitarity_defect < 1e-7

    def test_energy_conserved(self, small_setup, rng):
        # <W(Y) psi, H W(Y) psi> is conserved with the frame point moving
        # along the free flow, Y = chi_t X.  Displaced, the truncated
        # identity holds while the top photon layer stays empty, so the
        # displaced case starts from at most 3 photons.
        model, basis, ham, _ = small_setup
        psi0 = _random_states(rng, basis.dim)
        few = np.where((basis.totals <= 3)[:, None], psi0, 0.0)
        few /= np.linalg.norm(few)
        cases = ((psi0, zero_vector(4)), (few, random_phase_vector(rng, 4, scale=0.2)))
        for psi0, x in cases:
            e0 = ham.energy(psi0[:, :, None], x)[0]
            psi_t, _ = evolve_one(ham, psi0, 1.7, x, tol=1e-10)
            y = chi_flow_vector(model.grid, 1.7, x)
            assert ham.energy(psi_t[:, :, None], y)[0] == pytest.approx(e0, abs=1e-7)

    def test_group_property(self, small_setup, rng):
        # W(X) psi0 evolved for 0.6 is W(chi_0.6 X) a: its frame point moves
        model, basis, ham, _ = small_setup
        psi0 = _random_states(rng, basis.dim)
        for x in (zero_vector(model.D), random_phase_vector(rng, 4, scale=0.2)):
            one, _ = evolve_one(ham, psi0, 1.1, x, tol=1e-10)
            a, _ = evolve_one(ham, psi0, 0.6, x, tol=1e-10)
            y = chi_flow_vector(model.grid, 0.6, x)
            b, _ = evolve_one(ham, a, 0.5, y, tol=1e-10)
            np.testing.assert_allclose(one, b, atol=1e-8)

    def test_backward_inverts(self, small_setup, rng):
        model, basis, ham, _ = small_setup
        psi0 = _random_states(rng, basis.dim)
        for x in (zero_vector(model.D), random_phase_vector(rng, 4, scale=0.2)):
            fwd, _ = evolve_one(ham, psi0, 0.9, x, tol=1e-10)
            y = chi_flow_vector(model.grid, 0.9, x)
            back, _ = evolve_one(ham, fwd, -0.9, y, tol=1e-10)
            np.testing.assert_allclose(back, psi0, atol=1e-8)


    @pytest.mark.parametrize("t", [0.3, 1.9, 2.0])
    def test_ends_without_a_round_off_step(self, desk_setup, t):
        # remaining -= dt used to leave 6.9e-18 (t = 0.3), 2.5e-15 (1.9) or
        # 2.9e-15 (2.0) of the span, and the stepper took one more step of
        # that length: 11 wasted evaluations, reported as the min_step
        model, x, _ = desk_setup
        ham = Hamiltonian(model, FockBasis(model.D, 4), 0.1)
        _, _, log = evolved_one(ham, t, x, 1e-9)
        assert min(log.step_sizes) >= 1e-9 * t
        assert sum(log.step_sizes) == pytest.approx(t, rel=1e-12, abs=0.0)


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
        frame = coherent_spin_frame(ham, x)
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
        frame_t = _undisplaced_frame(ham, t, x, tol=1e-9)
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


NUMBER_RATE = ObservableSpec(kind="number_rate")


class TestPhotonRate:
    def test_zero_coupling_vanishes(self, free_setup, rng):
        _, _, ham, _ = free_setup
        x = random_phase_vector(rng, 4, scale=0.15)
        got = evolved_wick_symbol(ham, NUMBER_RATE, 0.5, x)
        np.testing.assert_allclose(got, 0.0, atol=1e-10)

    def test_origin_t0_vanishes(self, small_setup):
        _, _, ham, _ = small_setup
        got = evolved_wick_symbol(ham, NUMBER_RATE, 0.0, zero_vector(4))
        np.testing.assert_allclose(got, 0.0, atol=1e-10)

    def test_matches_number_derivative(self, small_setup, rng):
        # central difference of <N (x) I> along the undisplaced evolution vs
        # the exact commutator observable read in the displaced frame
        _, _, ham, _ = small_setup
        x = random_phase_vector(rng, 4, scale=0.2)
        t, dt = 0.6, 1e-3
        plus = _undisplaced_frame(ham, t + dt, x, tol=1e-11)
        minus = _undisplaced_frame(ham, t - dt, x, tol=1e-11)
        fd = (number_expectation(ham, plus) - number_expectation(ham, minus)) / (
            2 * dt
        )
        rate = evolved_wick_symbol(ham, NUMBER_RATE, t, x, tol=1e-11)
        np.testing.assert_allclose(fd, rate, atol=5e-6)


class TestOperatorFieldEquations:
    """Time derivatives of symbols read in the displaced frame against
    right-hand sides applied to the undisplaced evolved frame."""

    def test_maxwell_structure(self, small_setup, rng):
        # d/dt <B_m(x)> + (curl <E>)_m = 0 along the evolution, with the
        # spatial curl taken analytically through the coupling gradients
        model, basis, ham, h = small_setup
        from blochlab.fock import segal_field

        x_pt = np.array([0.2, -0.1, 0.3])
        x = random_phase_vector(rng, 4, scale=0.2)
        t, dt = 0.5, 1e-3

        def b_symbol(tt, m):
            obs = ObservableSpec(kind="field_B", m=m, x=x_pt)
            return evolved_wick_symbol(ham, obs, tt, x, tol=1e-11)

        frame_t = _undisplaced_frame(ham, t, x, tol=1e-11)
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
            obs = ObservableSpec(kind="spin", m=j, lam=1)
            return evolved_wick_symbol(ham, obs, tt, x, tol=1e-11)

        frame_t = _undisplaced_frame(ham, t, x, tol=1e-11)
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


AGREEMENT_OBSERVABLES = (
    ObservableSpec(kind="spin", m=1, lam=1),
    ObservableSpec(kind="field_B", m=2, x=np.zeros(3)),
    ObservableSpec(kind="field_E", m=1, x=np.array([0.1, 0.0, 0.2])),
    NUMBER_RATE,
)


@pytest.fixture(scope="module")
def desk_setup():
    """The shipped desk plan's model and X sample, and an 18-photon basis."""
    from blochlab.harness import ExperimentPlan, default_plan_dict

    plan = ExperimentPlan.from_dict(default_plan_dict())
    return plan.model, plan.x_samples[0][1], FockBasis(plan.model.D, 18)


def _max_disagreement(displaced, undisplaced, t, x, observables, tol):
    """Largest entry gap between the symbols of the displaced oracle and
    of the coherent frame propagated as it stands, and the displaced
    frame's leakage."""
    xi, y, log = evolved_one(displaced, t, x, tol)
    frame_t = _undisplaced_frame(undisplaced, t, x, tol)
    zero = zero_vector(undisplaced.model.D)
    gap = 0.0
    for obs in observables:
        got = frame_symbol(xi, apply_observable(displaced, obs, xi, y))
        want = frame_symbol(frame_t, apply_observable(undisplaced, obs, frame_t, zero))
        gap = max(gap, float(np.max(np.abs(got - want))))
    return gap, log.leakage


class TestDisplacedFrame:
    """The displaced oracle against the propagation of Psi_X itself, which
    is the X = 0 case of the same code on a basis that holds Psi_X."""

    @pytest.mark.parametrize("h", [0.4, 0.05])
    def test_desk_agrees_with_undisplaced(self, desk_setup, h):
        # 4 fluctuation photons (dimension 70) against 18 photons (7,315)
        model, x, big = desk_setup
        small = Hamiltonian(model, FockBasis(model.D, 4), h)
        gap, leakage = _max_disagreement(
            small, Hamiltonian(model, big, h), 1.0, x, AGREEMENT_OBSERVABLES, 1e-11
        )
        assert leakage <= 1e-10
        assert gap <= 1e-10

    def test_two_groups_agree_with_undisplaced(self, octa_model, octa_setup, rng):
        # N = 2 and two frequency groups: the displaced frame on the 12
        # coupled modes against Psi_X on the full 2-photon basis, at an |X|
        # small enough for Psi_X to fit it
        _, basis, reduced = octa_setup
        v = rng.standard_normal(2 * octa_model.D)
        v *= 0.005 / np.linalg.norm(v)
        x = PhaseVector(v[: octa_model.D], v[octa_model.D :])
        displaced = Hamiltonian(octa_model, basis, 0.1, reduced.ops.modes)
        full = Hamiltonian(octa_model, FockBasis(octa_model.D, 2), 0.1)
        observables = AGREEMENT_OBSERVABLES + (ObservableSpec(kind="spin", m=3, lam=2),)
        gap, _ = _max_disagreement(displaced, full, 0.2, x, observables, 1e-11)
        assert gap <= 1e-10

    @pytest.mark.parametrize("h", [0.4, 0.1])
    def test_energy_identity_at_t0(self, desk_setup, h):
        # <vac (x) e_j, W(X)* H W(X) vac (x) e_j> = <Psi_X (x) e_j, H ...>
        model, x, big = desk_setup
        small = Hamiltonian(model, FockBasis(model.D, 4), h)
        vacuum = coherent_frame(small)
        undisplaced = Hamiltonian(model, big, h)
        frame = coherent_spin_frame(undisplaced, x)
        want = undisplaced.energy(frame, zero_vector(model.D))
        got = small.energy(vacuum, x)
        assert got.shape == (model.spin_dim,)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestLeakageEstimate:
    """The estimate that sizes each frame's start cutoff against the
    leakage the propagation measures."""

    @pytest.mark.parametrize("t", [1.0, 2.0])
    @pytest.mark.parametrize("spins", [1, 2])
    def test_bounds_the_measured_leakage(self, desk_setup, rng, spins, t):
        # measured: the estimate sits 3x (desk, t = 1, cutoff 2) to 58x
        # (two spins, t = 2) above the leakage
        if spins == 1:
            model, x, _ = desk_setup
        else:
            model = Model(minimal_grid_config(N=2))
            x = random_phase_vector(rng, model.D, scale=0.3)
        for cutoff in (2, 3, 4):
            basis = FockBasis(model.D, cutoff)
            hams = [Hamiltonian(model, basis, h) for h in (0.4, 0.05)]
            _, _, log = evolved_frames(hams, t, x, 1e-9)
            for ham, frame_log in zip(hams, log.frames):
                assert frame_log.leakage > 0.0
                estimate = leakage_estimate(drive_weight(model), ham.h, t, cutoff)
                assert frame_log.leakage <= estimate

    def test_vanishes_without_coupling_or_time(self, desk_setup):
        model, _, _ = desk_setup
        cfg = dataclasses.replace(
            model.config, cutoff_fn=lambda r: np.zeros_like(np.asarray(r, dtype=float))
        )
        assert drive_weight(Model(cfg)) == 0.0
        assert leakage_estimate(0.0, 0.4, 1.0, 1) == 0.0
        weight = drive_weight(model)
        assert leakage_estimate(weight, 0.4, 0.0, 1) == 0.0
        assert leakage_estimate(weight, 0.4, 1.0, 1) > 0.0


class TestFrameGroup:
    """Every h of one (t, X) integrated as one frame group, with joint step
    control, against each frame integrated alone."""

    @pytest.mark.parametrize("cutoff", [2, 4])
    def test_desk_group_matches_groups_of_one(self, desk_setup, cutoff):
        # alone, every desk h takes the same steps, so the group reproduces
        # each frame and its log bitwise
        model, x, _ = desk_setup
        basis = FockBasis(model.D, cutoff)
        hams = [Hamiltonian(model, basis, h) for h in (0.4, 0.2, 0.1, 0.05)]
        xi, _, log = evolved_frames(hams, 1.0, x, 1e-9)
        assert xi.shape == (4, basis.dim, 2, 2) and log.n_accepted == 40
        for ham, frame, frame_log in zip(hams, xi, log.frames):
            alone, _, alone_log = evolved_one(ham, 1.0, x, 1e-9)
            assert np.array_equal(frame, alone)
            assert frame_log == alone_log

    def test_frames_with_their_own_steps_keep_their_bounds(self, rng):
        # a flat coupling cutoff of 3 makes the h-dependent K_g terms
        # compete with the drive, so alone h = 1, 0.1 and 0.001 take 160,
        # 80 and 41 steps.  Joint control holds every frame's local error
        # to tol.  Each run is within the sum of its step errors of the
        # exact flow, which preserves the norm, so a frame and its run alone
        # differ by at most (n_group + n_alone) tol (measured: 3.2e-11,
        # against 2.0e-7 at h = 0.001).
        cfg = ModelConfig(
            N=2,
            positions=[[0.0, 0.0, 0.0], [1.0, 0.3, -0.2]],
            beta=(0.2, 0.0, 0.7),
            grid_radial_nodes=2,
            grid_kmax=3.0,
            grid_directions="octahedral",
        )
        cfg.cutoff_fn = lambda r: np.full_like(np.asarray(r, dtype=float), 3.0)
        model = Model(cfg)
        basis = FockBasis(model.D, 1)
        x = random_phase_vector(rng, model.D, scale=0.05)
        hams = [Hamiltonian(model, basis, h) for h in (1.0, 0.1, 1e-3)]
        tol = 1e-9
        xi, _, log = evolved_frames(hams, 1.0, x, tol)
        steps_alone = set()
        for ham, frame, frame_log in zip(hams, xi, log.frames):
            assert max(frame_log.local_errors) <= tol
            alone, _, alone_log = evolved_one(ham, 1.0, x, tol)
            steps_alone.add(alone_log.n_accepted)
            bound = (log.n_accepted + alone_log.n_accepted) * tol
            assert np.max(np.abs(frame - alone)) <= bound
        assert len(steps_alone) == 3

    def test_one_model_and_basis_per_group(self, desk_setup):
        # the frames share the phases of one set of frequency groups and the
        # free phases of one basis
        model, x, _ = desk_setup
        basis = FockBasis(model.D, 2)
        other = Model(dataclasses.replace(model.config, beta=(0.0, 0.3, 1.0)))
        hams = [Hamiltonian(m, basis, 0.1) for m in (model, other)]
        with pytest.raises(OracleError, match="one model and one basis"):
            evolved_frames(hams, 1.0, x)


def _one_spin_octahedral():
    """One spin at the origin on the octahedral grid with one radial node:
    D = 24 modes in one frequency group, of which 3 couple."""
    cfg = ModelConfig(
        N=1,
        positions=[[0.0, 0.0, 0.0]],
        beta=(0.2, 0.0, 1.0),
        grid_directions="octahedral",
    )
    return Model(cfg)


class TestCoupledModes:
    """The oracle on the coupled modes against the full basis, which is the
    same code on the identity isometry."""

    def test_desk_keeps_its_sin_slots(self, desk_setup):
        # at the origin the cos slots' couplings A sin(k . x) vanish exactly
        model, _, _ = desk_setup
        assert np.array_equal(coupled_modes(model), np.eye(4)[:, 2:])

    @pytest.mark.parametrize("which", ["one-spin", "octa"])
    def test_isometry_spans_the_couplings(self, octa_model, which):
        model = octa_model if which == "octa" else _one_spin_octahedral()
        modes = coupled_modes(model)
        # 3N coupled modes in each frequency group
        groups = len(model.grid.frequency_groups[0])
        assert modes.shape == (model.D, 3 * model.N * groups)
        assert np.max(np.abs(modes.T @ modes - np.eye(modes.shape[1]))) <= 1e-14
        # every column lies in one frequency group
        _, group_of = model.grid.frequency_groups
        for col in modes.T:
            assert len(np.unique(group_of[col != 0])) == 1
        for b in model.coupling_list:
            assert np.max(np.abs(b.q - modes @ (modes.T @ b.q))) <= 1e-14 * b.norm()

    def test_uncoupled_model_keeps_one_mode(self, desk_setup):
        model, _, _ = desk_setup
        cfg = dataclasses.replace(
            model.config, cutoff_fn=lambda r: np.zeros_like(np.asarray(r, dtype=float))
        )
        assert np.array_equal(coupled_modes(Model(cfg)), np.eye(4)[:, :1])

    def test_refuses_a_coupling_with_a_p_part(self, octa_model, rng):
        model = copy.copy(octa_model)
        model.couplings = [
            [random_phase_vector(rng, model.D, scale=0.3) for _ in range(3)]
            for _ in range(model.N)
        ]
        with pytest.raises(ModelError, match="nonzero p part"):
            coupled_modes(model)

    def test_one_set_of_modes_per_basis(self, desk_setup):
        model, _, _ = desk_setup
        basis = FockBasis(2, 1)
        Hamiltonian(model, basis, 0.1, coupled_modes(model))
        with pytest.raises(OracleError, match="one set of modes"):
            Hamiltonian(model, basis, 0.1, np.eye(4)[:, :2])

    @pytest.mark.parametrize("which", ["one-spin", "octa"])
    def test_reduced_matches_full_basis(self, octa_model, rng, which):
        # one spin: 325 states against 10; octa_model: 1,225 against 91.
        # Measured: every symbol within 1.5e-14 relative, equal steps.
        model = octa_model if which == "octa" else _one_spin_octahedral()
        v = rng.standard_normal(2 * model.D)
        v *= 0.5 / np.linalg.norm(v)
        x = PhaseVector(v[: model.D], v[model.D :])
        modes = coupled_modes(model)
        point = np.array([0.2, -0.1, 0.3])
        observables = [
            ObservableSpec(kind="spin", m=m, lam=lam)
            for lam in range(1, model.N + 1)
            for m in (1, 2, 3)
        ]
        observables += [
            ObservableSpec(kind=kind, m=2, x=point)
            for kind in ("field_B", "field_E", "field_E_pol")
        ]
        observables.append(NUMBER_RATE)
        runs = []
        for basis, isometry in (
            (FockBasis(model.D, 2), None),
            (FockBasis(modes.shape[1], 2), modes),
        ):
            hams = [Hamiltonian(model, basis, h, isometry) for h in (0.2, 0.1)]
            xi, y, log = evolved_frames(hams, 1.0, x, 1e-9)
            symbols = [
                [
                    frame_symbol(f, apply_observable(ham, obs, f, y))
                    for obs in observables
                ]
                for ham, f in zip(hams, xi)
            ]
            energies = [ham.energy(f, y) for ham, f in zip(hams, xi)]
            runs.append((log, symbols, energies))
        (full, full_symbols, full_energies), (log, symbols, energies) = runs
        assert (log.n_accepted, log.n_rejected) == (full.n_accepted, full.n_rejected)
        for frame_log, full_log in zip(log.frames, full.frames):
            assert frame_log.leakage == pytest.approx(full_log.leakage, rel=1e-12)
        for got, want in zip(energies, full_energies):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for frame, full_frame in zip(symbols, full_symbols):
            for got, want in zip(frame, full_frame):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
