"""Reference implementations that the tests compare the package against.

Each is a direct, unoptimized form of an object that the package computes
another way and never needs itself: the Segal field summed mode by mode,
or built per call in one COO constructor, instead of written into a
layout kept on the basis, the
oracle's tensor operators assembled from Kronecker products instead of by
index arithmetic and folded by a sparse sum of their patterns, a frame
group's folded operator built by block_diag instead of written into a
layout kept per frame count, the generator applied as its stacked blocks,
one product whose row blocks are then combined with their phases, instead
of folded into one operator, the materialized Hamiltonian, the
coherent frame Psi_X (x) e_j propagated as it stands instead of in the
displaced frame, the affine interaction symbol as a matrix, the number
operator and its second-quantized relatives as diagonal matrices, and the
hierarchy's order-0 propagator, rotations and rotation tangents integrated
adaptively to a tolerance instead of read from the fixed-substep sweeps,
the order-1 Duhamel quadrature with its forcing built node by node
instead of contracted once per grid, and the first-order Bloch correction
summed from the full mode amplitudes Z and complex matrix products at
every node instead of in real coefficients on the Maxwell chain.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from blochlab.fock import FockBasis, coherent_state
from blochlab.hierarchy import (
    _EPS3,
    _LAST,
    _NEXT,
    _cross_mat,
    _duhamel_forcing,
    _lag_convolution,
    _maxwell_nodes,
    _polar_project,
    _propagator_sweep,
    _radiated,
    _radiated_endpoint,
    _site_spins,
    _trap_weights,
    observable_form,
)
from blochlab.model import (
    Model,
    ModelError,
    PhaseVector,
    flow_pairing,
    fmap,
    stack_vectors,
)
from blochlab.oracle import (
    DEFAULT_TAIL_TOL,
    DEFAULT_TOL,
    Hamiltonian,
    ObservableSpec,
    OracleError,
    apply_observable,
    evolve_interaction_picture,
    evolved_frames,
    frame_symbol,
)
from blochlab.stepper import integrate_adaptive
from conftest import zero_vector

# -- Fock space --------------------------------------------------------


def dgamma(basis: FockBasis, multiplier: np.ndarray) -> sp.dia_matrix:
    """Second quantization dGamma(M) of a diagonal one-mode multiplier."""
    m = np.asarray(multiplier, dtype=float)
    if m.shape != (basis.D,):
        raise ModelError("multiplier must have one entry per mode")
    return sp.diags(basis.occupations @ m).astype(complex)


def segal_field_per_mode(basis: FockBasis, h: float, v: PhaseVector) -> sp.csr_matrix:
    """Phi_{S,h}(V) as a sum of one sparse term per coupled mode."""
    out = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    sq = np.sqrt(h / 2.0)
    for j in range(basis.D):
        cj = v.q[j] - 1j * v.p[j]
        if cj == 0:
            continue
        aj = basis.annihilator(j)
        out = out + sq * (cj * aj + np.conj(cj) * aj.conj().T)
    return out.tocsr()


def segal_field_coo(basis: FockBasis, h: float, v: PhaseVector) -> sp.csr_matrix:
    """Phi_{S,h}(V) built per call as one COO constructor over the cached
    annihilators, mode by mode."""
    sq = np.sqrt(h / 2.0)
    c = v.q - 1j * v.p
    rows, cols, vals = [], [], []
    for j in np.nonzero(c)[0]:
        a = basis.annihilator(j).tocoo()
        rows += [a.row, a.col]
        cols += [a.col, a.row]
        vals += [sq * (c[j] * a.data), sq * (np.conj(c[j]) * a.data.conj())]
    if not vals:
        return sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )


def number_operator(basis: FockBasis) -> sp.dia_matrix:
    return dgamma(basis, np.ones(basis.D))


def coherent_tail_mass(basis_n_max: int, h: float, x_norm: float) -> float:
    """Tail mass of a coherent state beyond n_max photons, exact.

    The photon number is Poisson with mean mu = |X|^2 / (2h); the tail is
    the upper Poisson tail P(K > n_max) = gammainc-style sum, evaluated via
    the regularized lower incomplete gamma function.
    """
    from scipy.special import gammainc

    mu = x_norm**2 / (2.0 * h)
    if mu == 0.0:
        return 0.0
    # P(K <= n) = Gamma(n+1, mu)/n! = 1 - gammainc(n+1, mu)
    return float(gammainc(basis_n_max + 1, mu))


# -- model -------------------------------------------------------------


def h_int_symbol(model: Model, x: PhaseVector) -> np.ndarray:
    """H_int(X) = sum_{lam,m} (beta_m + B_{m x_lam} . X) sigma_m^[lam]."""
    return model.spin_matrix(model.site_beta) + dh_int(model, x)


def dh_int(model: Model, v: PhaseVector) -> np.ndarray:
    """Constant differential of the affine symbol: beta dropped."""
    if v.dim != model.D:
        raise ModelError("dimension mismatch")
    bq, bp = stack_vectors(model.coupling_list)
    return model.spin_matrix(bq @ v.q + bp @ v.p)


# -- oracle ------------------------------------------------------------


def _stacked_kron(model: Model, basis: FockBasis, modes: np.ndarray):
    """The generator's blocks [h0; K_1 + I (x) E; K_1^H + I (x) E; ...]
    stacked in one CSR matrix assembled from Kronecker products, and the
    data positions of its drive: each drive entry marked NaN in I (x) E,
    the blocks summed and stacked by scipy.sparse, and the marks then
    located and zeroed."""
    values, group_of = model.grid.frequency_groups
    mode_group = group_of[np.argmax(np.abs(modes), axis=0)]
    eye = sp.identity(basis.dim, dtype=complex, format="csr")
    spin_const = model.spin_matrix(model.site_beta)
    blocks = [sp.kron(eye, sp.csr_matrix(spin_const), format="csr")]
    marks = np.where(np.any(model.sigmas != 0, axis=0), np.nan, 0.0)
    marks = sp.kron(eye, sp.csr_matrix(marks), format="csr")
    coeffs = np.array([b.q - 1j * b.p for b in model.coupling_list]) @ modes
    for g in range(len(values)):
        members = np.nonzero(mode_group == g)[0]
        terms = []
        for coeff, sigma in zip(coeffs, model.sigmas):
            idx = [j for j in members if coeff[j] != 0]
            if not idx:
                continue
            a_sum = sum(coeff[j] * basis.annihilator(j) for j in idx)
            terms.append(sp.kron(a_sum, sigma, format="csr"))
        if terms:
            k = sum(terms).tocsr()
            blocks += [k + marks, k.conj().T.tocsr() + marks]
    pattern = sp.vstack(blocks, format="csr")
    drive = np.flatnonzero(np.isnan(pattern.data))
    pattern.data[drive] = 0.0
    return pattern, drive


def tensor_operators_kron(model: Model, basis: FockBasis, modes: np.ndarray):
    """TensorOperators' folded layout (indptr, indices, values, drive) from
    the Kronecker-product stack: the union of the blocks' positions by a
    sparse sum of their patterns, each block's values read at the union's
    positions from its dense form."""
    stack, drive = _stacked_kron(model, basis, modes)
    n = basis.dim * model.spin_dim
    marked = stack.copy()
    marked.data[drive] = np.nan
    blocks = [marked[b : b + n] for b in range(0, stack.shape[0], n)]
    ones = [
        sp.csr_matrix((np.ones(b.nnz), b.indices, b.indptr), b.shape)
        for b in blocks
    ]
    union = sum(ones).tocsr()
    union.sort_indices()
    rows, cols = union.nonzero()  # in CSR order
    values = np.array([block.toarray()[rows, cols] for block in blocks])
    folded_drive = np.flatnonzero(np.isnan(values[1])) if len(blocks) > 1 else []
    values[np.isnan(values)] = 0.0
    return union.indptr, union.indices, values, np.asarray(folded_drive, dtype=int)


def stacked_generator(ham: Hamiltonian, x: PhaseVector) -> sp.csr_matrix:
    """[h0; L_1; L_1^H; ...; L_G; L_G^H] stacked in one CSR matrix, with
    L_g = K_g + I (x) K_g[a -> z] per frequency group of ham.ops.groups:
    the Kronecker-product stack with the drive written at its marks."""
    stack, drive = _stacked_kron(ham.model, ham.basis, ham.ops.modes)
    modes, spin_pattern = ham.ops.modes, ham.ops.spin_pattern
    z = (x.q @ modes + 1j * (x.p @ modes)) / np.sqrt(2.0 * ham.h)
    drive = drive.reshape(-1, ham.basis.dim, np.count_nonzero(spin_pattern))
    for g, (_, coeff) in enumerate(ham.ops.groups):
        k_z = ham.model.spin_matrix(coeff @ z)
        stack.data[drive[2 * g]] = k_z[spin_pattern]
        stack.data[drive[2 * g + 1]] = k_z.conj().T[spin_pattern]
    return stack


def displaced_groups(ham: Hamiltonian, x: PhaseVector) -> tuple:
    """The row blocks of stacked_generator(ham, x), each a CSR matrix of
    its own: h0, and per frequency group (w_g, L_g, L_g^H)."""
    gen = stacked_generator(ham, x)
    n = ham.ops.block_rows
    blocks = [gen[b * n : (b + 1) * n] for b in range(1 + 2 * len(ham.ops.groups))]
    return blocks[0], [
        (w, blocks[2 * g + 1], blocks[2 * g + 2])
        for g, (w, _) in enumerate(ham.ops.groups)
    ]


def interaction_apply_stacked(
    ham: Hamiltonian, t: float, psi: np.ndarray, x: PhaseVector
) -> np.ndarray:
    """(H_int^free(t) + drive(t)) psi for psi of shape (dim, s, n) as one
    product with the stacked blocks, whose row blocks are then combined
    with the phases of time t and sqrt(h/2)."""
    flat = psi.reshape(-1, psi.shape[2])
    blocks = (stacked_generator(ham, x) @ flat).reshape(-1, *flat.shape)
    out = blocks[0]
    for g, (w, _) in enumerate(ham.ops.groups):
        ph = ham.root * np.exp(-1j * w * t)
        out = out + ph * blocks[2 * g + 1] + np.conj(ph) * blocks[2 * g + 2]
    return out.reshape(psi.shape)


def number_rate_stacked(
    ham: Hamiltonian, psi: np.ndarray, y: PhaseVector
) -> np.ndarray:
    """i sqrt(h/2) sum_g (L_g - L_g^H) psi from one product with the
    stacked blocks."""
    dim, s, n = psi.shape
    flat = psi.reshape(dim * s, n)
    blocks = (stacked_generator(ham, y) @ flat).reshape(-1, *flat.shape)
    out = sum(blocks[1::2]) - sum(blocks[2::2])
    return (1j * ham.root * out).reshape(dim, s, n)


def folded_block_diag(hams: list, x: PhaseVector, coeffs: np.ndarray) -> sp.csr_matrix:
    """A frame group's folded operator at coefficients coeffs: each frame's
    own folded CSR matrix, sum_b coeffs[b] block_b, by block_diag."""
    ops = hams[0].ops
    shape = (ops.block_rows, ops.block_rows)
    layout = (ops.indices, ops.indptr)
    frames = [
        sp.csr_matrix((coeffs @ ham.generator_values(x), *layout), shape)
        for ham in hams
    ]
    return sp.block_diag(frames, format="csr")


def interaction_operator(
    ham: Hamiltonian, t: float, x: PhaseVector
) -> sp.csr_matrix:
    """Materialized sparse H_int^free(t) + drive(t) of frame point X."""
    out, groups = displaced_groups(ham, x)
    for w, k, k_adj in groups:
        ph = ham.root * np.exp(-1j * w * t)
        out = out + ph * k + np.conj(ph) * k_adj
    return out.tocsr()


def full_operator(ham: Hamiltonian) -> sp.csr_matrix:
    """H(h) = H_ph (x) I + h H_int as one sparse matrix."""
    free = sp.kron(
        sp.diags(ham.hph_diag).astype(complex),
        sp.identity(ham.spin_dim, format="csr"),
        format="csr",
    )
    interaction = interaction_operator(ham, 0.0, zero_vector(ham.model.D))
    return (free + ham.h * interaction).tocsr()


def evolve_one(ham: Hamiltonian, psi0, t, x, tol=DEFAULT_TOL):
    """evolve_interaction_picture on a group of one frame, the states psi0
    of shape (dim, s) or (dim, s, n): the evolved states in psi0's shape and
    the frame's own PropagationLog."""
    psi0 = np.asarray(psi0)
    states = psi0[None] if psi0.ndim == 3 else psi0[None, :, :, None]
    psi_t, log = evolve_interaction_picture([ham], states, t, x, tol)
    return psi_t[0].reshape(psi0.shape), log.frames[0]


def evolved_one(ham: Hamiltonian, t, x, tol=DEFAULT_TOL):
    """evolved_frames on a group of one: (xi, Y, the frame's log)."""
    xi, y, log = evolved_frames([ham], t, x, tol)
    return xi[0], y, log.frames[0]


def coherent_spin_frame(
    ham: Hamiltonian, x: PhaseVector, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """The 2^N states Psi_X (x) e_j stacked as (dim, s, s).

    Refuses when the coherent tail mass exceeds tail_tol (the cutoff can
    not represent the requested (X, h) pair faithfully).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c, tail = coherent_state(ham.basis, ham.h, x)
    if tail > tail_tol:
        raise OracleError(
            f"coherent tail mass {tail:.3e} exceeds {tail_tol:.1e}; "
            "increase n_max or h"
        )
    s = ham.spin_dim
    frame = np.zeros((ham.basis.dim, s, s), dtype=complex)
    for j in range(s):
        frame[:, j, j] = c
    return frame


def evolved_wick_symbol(
    ham: Hamiltonian,
    obs: ObservableSpec,
    t: float,
    x: PhaseVector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Exact Wick symbol of the Heisenberg-evolved observable at X.

    Entries <U(t) Psi_i, A U(t) Psi_j> over the coherent spin frame; the
    conjugated operator is never materialized.
    """
    xi, y, _ = evolved_one(ham, t, x, tol)
    return frame_symbol(xi, apply_observable(ham, obs, xi, y))


def number_expectation(ham: Hamiltonian, frame_t: np.ndarray) -> np.ndarray:
    """Matrix of <state_i, (N (x) I) state_j> for an undisplaced state frame."""
    n_diag = np.asarray(ham.basis.totals, dtype=float)
    return frame_symbol(frame_t, n_diag[:, None, None] * frame_t)


# -- hierarchy ---------------------------------------------------------

# first step of the adaptive integrations
_DT0 = 1e-2


def propagator_adaptive(
    model: Model, t: float, x: PhaseVector, tol: float
) -> np.ndarray:
    """G(t, 0, X) of dG/dt = i G H_int(chi_t X), G(0, 0) = I, by adaptive
    RK4, polar-projected whenever its unitarity defect exceeds tol / 10."""
    eye = np.eye(model.spin_dim, dtype=complex)
    pairing = flow_pairing(model.grid, model.coupling_list, [x])

    def rhs(u, g):
        return 1j * (g @ model.spin_matrix(model.site_beta + pairing(u)[:, 0]))

    def post(g):
        if np.linalg.norm(g.conj().T @ g - eye) > tol / 10.0:
            return _polar_project(g)
        return g

    g, _ = integrate_adaptive(rhs, eye, 0.0, t, tol, _DT0, postprocess=post)
    return g


def rotation_adaptive(
    model: Model, lam: int, t: float, x: PhaseVector, vs, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """R(t) of dR/du = 2 C(b(u)) R, b_m(u) = beta_m + B_{m x_lam} . chi_u X,
    and its tangents dR along each V of vs, shape (len(vs), 3, 3), from one
    joint adaptive integration of the linearized site-Bloch system."""
    pairing = flow_pairing(model.grid, model.couplings[lam], [x, *vs])

    def rhs(u, y):
        b = pairing(u)  # (3, 1 + K): B_m . chi_u X, then B_m . chi_u V
        om = 2.0 * _cross_mat(model.beta + b[:, 0])
        r = y[0]
        return np.concatenate([[om @ r], om @ y[1:] + 2.0 * _cross_mat(b[:, 1:].T) @ r])

    y0 = np.zeros((1 + len(vs), 3, 3))
    y0[0] = np.eye(3)
    y, _ = integrate_adaptive(rhs, y0, 0.0, t, tol, _DT0)
    return np.real(y[0]), np.real(y[1:])


def order1_nodes(model: Model, obs: ObservableSpec, t: float, x: PhaseVector, n: int):
    """A^[1](t, X) on n trapezoid panels with the Duhamel forcing
    _duhamel_forcing(Sig, [N_B, K], [N_FB, K]) evaluated at every node and
    coupling, then summed: the per-node form of the order-1 quadrature."""
    f_a, s_a = observable_form(model, obs)
    sd = model.spin_dim
    bs = model.coupling_list
    fbs = [fmap(b) for b in bs]
    T = _propagator_sweep(model, t, x, n)
    dt = t / n
    w = _trap_weights(n, dt)
    # conjugated coupling spins Sig[i, a] = T_i sigma_a T_i*
    Sig = T[:, None] @ model.sigmas @ T.conj().swapaxes(1, 2)[:, None]

    if s_a is None:
        r = t - dt * np.arange(n + 1)
        ctab = flow_pairing(model.grid, [f_a], fbs)(r)[:, 0]  # (n+1, A)
        return -((w[:, None] * ctab).ravel() @ Sig.reshape(-1, sd * sd)).reshape(sd, sd)

    # N_P(u) = i int_u^t P_{a'a}(w - u) Sig_{a'}(w) dw for P = B.B and B.FB
    K = T[n] @ s_a @ T[n].conj().T
    pair_b = flow_pairing(model.grid, bs, bs)
    pair_f = flow_pairing(model.grid, bs, fbs)
    rows = _lag_convolution(pair_b.omegas, dt, Sig, suffix=True)
    rows = rows.transpose(2, 4, 5, 0, 1, 3).reshape((n + 1) * sd * sd, -1)
    coef = np.concatenate(
        [np.concatenate([p.alpha, p.beta]) for p in (pair_b, pair_f)], axis=2
    )  # (2G, A, 2A)
    both = rows @ coef.reshape(rows.shape[1], -1)  # ((n+1) sd^2, 2A)
    nb, nf = 1j * both.reshape(n + 1, sd, sd, 2, -1).transpose(3, 0, 4, 1, 2)
    term = _duhamel_forcing(Sig, nb @ K - K @ nb, nf @ K - K @ nf)
    return (w @ term.sum(axis=1).reshape(n + 1, -1)).reshape(sd, sd)


def _unit_mode_vectors(D: int) -> list[PhaseVector]:
    """The 2D unit vectors of phase space, q part first."""
    eye, zero = np.eye(D), np.zeros(D)
    return [PhaseVector(e, zero) for e in eye] + [PhaseVector(zero, e) for e in eye]


def maxwell_modes(model: Model, t: float, x: PhaseVector, n: int):
    """The rotations and the full mode amplitudes Z at the nodes of n
    panels, (R (n+1, N, 3, 3), Z (n+1, 2, D, sd, sd)): the Maxwell chain's
    node reads projected along the 2D unit mode vectors, q part first."""
    D, sd = model.D, model.spin_dim
    r, rows = _maxwell_nodes(model, t, x, n)
    c = _radiated(model, rows, _unit_mode_vectors(D))  # [v, (l, k), i]
    c = c.reshape(2 * D, -1, n + 1)
    z = model.spin_matrix(c.swapaxes(1, 2))  # (2D, n+1, sd, sd)
    return r, z.reshape(2, D, n + 1, sd, sd).transpose(2, 0, 1, 3, 4)


def endpoint_modes(model: Model, t: float, x: PhaseVector) -> np.ndarray:
    """Z(t), shape (2, D, sd, sd): _radiated_endpoint, the chain endpoint
    that serves _N0 panels, read along the 2D unit mode vectors."""
    D, sd = model.D, model.spin_dim
    z = _radiated_endpoint(model, t, x, _unit_mode_vectors(D))
    return z.reshape(2, D, sd, sd)


def spin1_products(model: Model, lam: int, t: float, x: PhaseVector, n: int):
    """S^{[lam, 1]}(t, X) on n trapezoid panels from the full mode
    amplitudes Z of maxwell_modes: the radiated coupling b1 = B^lam . Z and
    the symmetrized eps_{nab} {b1_a, S^0_b} as complex matrix products at
    every node, then transported node by node."""
    r_all, z_path = maxwell_modes(model, t, x, n)
    r_path = r_all[:, lam]  # (n+1, 3, 3)
    D, sd = model.D, model.spin_dim
    dt = t / n
    w = _trap_weights(n, dt)
    sig = model.spin_ops[lam]
    bsl = model.couplings[lam]

    # {B^1_{n+1}, S^0_{n+2}} - {B^1_{n+2}, S^0_{n+1}}
    bqp = np.hstack(stack_vectors(bsl))  # (3, 2D)
    b1 = (bqp @ z_path.reshape(n + 1, 2 * D, -1)).reshape(n + 1, 3, sd, sd)
    s0 = _site_spins(r_path, sig)
    b1_1, b1_2, s0_1, s0_2 = b1[:, _NEXT], b1[:, _LAST], s0[:, _NEXT], s0[:, _LAST]
    cpl = b1_1 @ s0_2 + s0_2 @ b1_1 - b1_2 @ s0_1 - s0_1 @ b1_2

    # kappa(w) from the prefix flow-kernel convolution of R_u^T E_m R_u
    pairing = flow_pairing(model.grid, bsl, bsl)
    y = r_path.swapaxes(1, 2)[:, None] @ _EPS3 @ r_path[:, None]
    lag = _lag_convolution(pairing.omegas, dt, y, suffix=False)
    coef = np.stack([pairing.alpha, pairing.beta])
    conv = coef.reshape(-1, 1, 3, 3) @ lag.reshape(-1, n + 1, 3, 9)
    conv = conv.sum(axis=0).reshape(n + 1, 3, 3, 3)
    p = r_path[:, None] @ conv
    kappa = -2.0 * (p[:, _NEXT, _LAST] - p[:, _LAST, _NEXT])

    frc = cpl.reshape(n + 1, 3, -1) + kappa @ sig.reshape(3, -1)
    trans = w[:, None, None] * (r_path[n] @ r_path.swapaxes(1, 2))
    return (trans.swapaxes(0, 1).reshape(3, -1) @ frc.reshape(-1, sd * sd)).reshape(
        3, sd, sd
    )
