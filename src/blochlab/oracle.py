"""Exact quantum dynamics on the truncated photon-spin space.

H(h) = H_ph (x) I + h H_int with H_ph = h dGamma(M_omega) and
H_int = sum_{lam,m} (beta_m + Phi_{S,h}(B_{m x_lam})) (x) sigma_m^[lam].

Displaced frame (Hepp's method).  The coherent state Psi_X is W(X) applied
to the vacuum, where the Weyl operator W(X) shifts a_j -> a_j + z_j with
z = (q + i p)/sqrt(2h).  H_ph is quadratic and the coupling linear in a, a*,
so conjugating by W is exact, and the evolved coherent frame is

    e^{-i(t/h)H} (Psi_X (x) e_j) = W(chi_t X) xi_j(t),

where the fluctuation state xi carries O(h |c|^2 t^2) photons instead of the
|X|^2/2h of Psi_X: the photon cutoff no longer grows as h shrinks.  xi is
propagated in the interaction picture, xi(t) = (Gamma(chi_t) (x) I) phi(t),
with phi(0) = vac (x) e_j and i phi' = [H_int^free(s) + drive(s)] phi.  Since
the free flow acts per mode as z -> e^{-i omega s} z, the annihilator
coefficients of the rotated couplings are the initial ones times
e^{-i omega s}, so per distinct frequency w_g the couplings add up to one
tensor operator K_g = sum_{lam,m} sum_{j in g} c_{lam m, j} a_j (x)
sigma_m^[lam] with c = b_q - i b_p, and

    H_int^free(s) + drive(s) = H0 + sqrt(h/2) sum_g (e^{-i w_g s} L_g + h.c.)

with H0 = I (x) sum beta_m sigma_m^[lam] and L_g = W(X)* K_g W(X) = K_g +
I (x) K_g[a -> z].  The drive sqrt(h/2) sum_g (e^{-i w_g s} K_g[a -> z] + h.c.)
= sum_{lam,m} (B_{m x lam} . chi_s X) sigma_m^[lam] is one s x s spin
matrix per group and does not depend on h; at X = 0 it vanishes and the
propagation is that of the undisplaced state.  H0, K_g and K_g^H do not
depend on h or X: the blocks [H0; L_1; L_1^H; ...; L_G; L_G^H] are stacked
in one CSR matrix.  Its pattern (indptr, indices) and constant values are
laid out once per (model, basis), by index arithmetic on the annihilators'
entries, and shared by the Hamiltonians of every h; per frame point X a
call writes only the drive entries into a copy of the values.  One
generator application is a single sparse product whose row blocks are then
combined with the phases of time s; each row is summed as by a product
with its own block.  The propagation, the energy and the number_rate
observable all apply the generator this way.

The frames of every h at one (t, X) differ only in sqrt(h/2) and the drive
entries, so they are propagated together as one frame group: states carry
a leading frame axis, shape (F, dim, s, n), and the group's generators are
stacked block-diagonally, so one sparse product applies every h.  The
stack's layout, and where each of its entries takes its value from the
frames' values, is laid out once per frame count and kept with the
operators, so a group's generator too is a write of values.  The
stepper is the package's step-doubling RK4 (blochlab.stepper, local
Richardson error control, first step 0.1) with joint step control, so each
frame meets its own local error bound and keeps its own log.  The generator
is bounded uniformly in h, so steps do not shrink as h does; on the desk
plan every h takes the same steps alone, and the group reproduces each
frame bitwise.

Observables are read in the same frame: with Y = chi_t X,
<W(Y) xi_i, A W(Y) xi_j> = <xi_i, W(Y)* A W(Y) xi_j>, where W(Y)* A W(Y) is
sigma for a spin, Phi_h(F_A) + (F_A . Y) for a field, and the number_rate
generator with K_g -> L_g.  The photon-number rate is the number_rate
observable read from the same evolved frame as every other observable.

Coupled modes: the basis holds only the modes that couple.  Within one
frequency group a real orthogonal change of modes commutes with the free
flow, and the coupling vectors are pure q-vectors, so the span of group
g's couplings is real, of rank r_g <= 3N.  In the displaced frame xi starts
in the vacuum, and K_g, its adjoint and the drive involve only the modes
of that span: the orthogonal modes stay in the vacuum, and xi is a state
of the D_r = sum_g r_g coupled modes times their vacuum.  The photon
number counts the coupled modes alone, so the truncation, the top photon
layer and the leakage are those of the full basis.  coupled_modes gives
the isometry U, shape (D, D_r), of those modes, and the Fock side reads
every phase-space vector through U^T: X in the drive, Y in the energy's
shift Phi_h(omega Y), and F_A in a field observable's Phi_h(F_A); the part
of them orthogonal to the span pairs the vacuum with itself and drops out.
The classical terms keep the full vectors: F_A . Y in a field observable
and (1/2) sum_j omega_j (q_j^2 + p_j^2) in the energy.  The full basis is
the identity isometry, the default of a Hamiltonian, and the reference of
the tests.

Cutoff sizing, per frame: the basis cutoff bounds the photon number of xi,
not of Psi_X, and it is predicted before any propagation.  The drive is a
spin matrix and creates no photon; to leading order the one-photon
amplitude of mode j is at most sqrt(h/2) t ||M_j||, with M_j =
sum_{lam,m} c_{lam m, j} sigma_m^[lam], so xi holds at most lam = (h/2)
t^2 sum_j ||M_j||^2 photons, and leakage_estimate takes lam^c / c! as the
population of photon layer c.  The estimate grows like t^2, the measured
leakage more slowly (on the desk model the estimate is 3x above it at
t = 1 and cutoff 2, 1e4x at t = 4 and cutoff 5), so at long t it picks a
larger cutoff than needed: that costs time, never a wrong cell, since the
measured leakage stays the gate.  evolve_interaction_picture measures each
frame's leakage, the largest population of the top photon layer over the
initial state and every accepted step, and the caller keeps a frame only
if it stays within DEFAULT_TAIL_TOL.  Every run goes to t, so a breaching
frame's leakage is that of the whole run; the caller moves such frames on
together to a larger cutoff.

A frame (the 2^N states xi_j of one h) is an array of shape (fock_dim,
spin_dim, n_states); a group stacks its frames on a leading axis and
evolves them in one integration.  The operators act on a frame's Fock-major
view of shape (fock_dim * spin_dim, n_states).

scipy.sparse is imported only where a CSR matrix is built (TensorOperators
for its pattern, _stacked_generator for each generator, and fock's
segal_field), so a hierarchy-only run such as the crosscheck never loads
it.  Each CSR layout is kept where frame jobs on two pool workers share
it, on the basis or its operators, and is filled either under the
harness's build lock or idempotently, by dict.setdefault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from blochlab.fock import FockBasis, gamma_free_phases, segal_field
from blochlab.model import (
    Model,
    ModelError,
    PhaseVector,
    apply_helicity,
    chi_flow_vector,
    coupling_B,
    fmap,
    stack_vectors,
)
from blochlab.stepper import GroupLog, integrate_adaptive

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-10


class OracleError(ModelError):
    """Raised for propagation failures and truncation-threshold breaches."""


@dataclass(frozen=True)
class ObservableSpec:
    """Observable selector: field kinds carry (axis, point), spin kinds
    carry (axis, spin index), number_rate stands alone."""

    kind: str
    m: int | None = None
    x: np.ndarray | None = None
    lam: int | None = None

    KINDS = ("field_B", "field_E", "field_E_pol", "spin", "number_rate")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ModelError(f"unknown observable kind {self.kind!r}")
        # plain ints only: a JSON true would pass as index 1, and a 1.0 load
        # and then fail as an array index mid-sweep
        if any(type(v) not in (int, type(None)) for v in (self.m, self.lam)):
            raise ModelError(f"indices must be ints, got m={self.m}, lam={self.lam}")
        if self.kind.startswith("field"):
            if self.m not in (1, 2, 3) or self.x is None:
                raise ModelError("field observables need axis m and point x")
            object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
            if self.x.shape != (3,) or not np.isfinite(self.x).all():
                raise ModelError(
                    f"field point must have 3 entries, all finite, got {self.x}"
                )
        elif self.kind == "spin":
            if self.m not in (1, 2, 3) or self.lam is None or self.lam < 1:
                raise ModelError(
                    "spin observables need axis m and a 1-based site index lam"
                )

    def label(self) -> str:
        if self.kind.startswith("field"):
            pt = ",".join(f"{v:g}" for v in self.x)
            return f"{self.kind}[m={self.m},x=({pt})]"
        if self.kind == "spin":
            return f"spin[m={self.m},lam={self.lam}]"
        return "number_rate"


def field_coupling(model: Model, obs: ObservableSpec) -> PhaseVector:
    """Linear-form vector F_A of a field observable at its evaluation point."""
    b = coupling_B(model.grid, model.config, obs.m, obs.x)
    if obs.kind == "field_B":
        return b
    if obs.kind == "field_E":
        return apply_helicity(model.grid, b)
    return fmap(b)  # field_E_pol


def coupled_modes(model: Model) -> np.ndarray:
    """The isometry U, shape (D, D_r), onto the coupled modes (see "Coupled
    modes" above): per frequency group, an orthonormal basis of the span of
    the group's coupling vectors, r_g <= 3N columns supported on the group.

    Where the group's coupled slots are independent, as the desk's two sin
    slots are, the columns are their unit vectors, so the operators are
    those of the full basis with the vacuum slots left out; otherwise they
    are the right singular vectors of the group's couplings.  A model with
    no coupling keeps its first mode, uncoupled, since a basis needs one.
    """
    if any(b.p.any() for b in model.coupling_list):
        raise ModelError("coupled modes need pure q couplings, got a nonzero p part")
    coeffs = stack_vectors(model.coupling_list)[0]
    values, group_of = model.grid.frequency_groups
    columns = []
    for g in range(len(values)):
        slots = np.flatnonzero((group_of == g) & coeffs.any(axis=0))
        if not slots.size:
            continue
        _, sv, vt = np.linalg.svd(coeffs[:, slots], full_matrices=False)
        # numpy's matrix_rank tolerance
        floor = sv[0] * max(len(coeffs), slots.size) * np.finfo(float).eps
        rank = int(np.sum(sv > floor))
        u = np.zeros((model.D, rank))
        u[slots] = np.eye(rank) if rank == slots.size else vt[:rank].T
        columns.append(u)
    return np.hstack(columns) if columns else np.eye(model.D, 1)


class TensorOperators:
    """The h-independent generator of one (model, basis) pair, on the modes
    whose isometry U is modes (the basis's D columns of it).

    On the Fock-major space, with c = (b_q - i b_p) U per coupling vector:
    h0 = I (x) sum beta_m sigma_m^[lam], and per frequency group g
    K_g = sum_{lam,m} sum_{j in g} c_{lam m, j} a_j (x) sigma_m^[lam] with
    the group's coefficients c_{lam m, j} (zero off the group), from which
    Hamiltonian.generator_values builds the drive.  Groups whose couplings
    all vanish are dropped.  omegas holds the frequency of each mode, and
    block_rows the rows of one block, basis.dim * spin_dim.  pattern is the
    generator's stacked CSR matrix [h0; K_1 + I (x) E; K_1^H + I (x) E;
    ...] with E the s x s spin_pattern, where some spin matrix of the model
    is nonzero: K_g is off-diagonal in photon number and the drive is
    diagonal, so no entry is a sum.  Its values are the constant entries,
    zero at the data positions drive, which run over the drive blocks in
    order, each in (photon, row, column) order.

    The stack is assembled from the annihilators' (row, col, sqrt(n))
    entries by index arithmetic, each row's entries in column order.  K_g
    sums its (lam, m) terms in that order, and an entry that a sum leaves
    an exact zero is dropped, as a sum of sparse matrices does, so the
    values are bitwise those of the Kronecker-product assembly.
    """

    def __init__(self, model: Model, basis: FockBasis, modes: np.ndarray):
        import scipy.sparse as sp

        self.modes = modes
        values, group_of = model.grid.frequency_groups
        # each column lies in one group: its largest entry names it
        mode_group = group_of[np.argmax(np.abs(modes), axis=0)]
        self.omegas = values[mode_group]
        s = model.spin_dim
        self.block_rows = n = basis.dim * s
        self.spin_pattern = np.any(model.sigmas != 0, axis=0)
        photons = np.arange(basis.dim)[:, None] * s
        parts = []  # (rows, cols, values, drive flags), rows over the stack

        def add(block, rows, cols, values, drive=False):
            parts.append((block * n + rows, cols, values, np.full(len(rows), drive)))

        spin_const = model.spin_matrix(model.site_beta)
        r, c = np.nonzero(spin_const)
        h0 = np.ones(len(r), complex) * spin_const[r, c]  # as I (x) spin_const
        add(0, *_photon_diagonal(photons, r, c, h0))
        r, c = np.nonzero(self.spin_pattern)
        marks = _photon_diagonal(photons, r, c, np.zeros(len(r), complex))
        # one row of c per sigma_m^[lam] of model.sigmas, in (lam, m) order
        coeffs = np.array([b.q - 1j * b.p for b in model.coupling_list]) @ modes
        self.groups = []  # (omega, coeff) per coupled frequency group
        block = 0
        for g, w in enumerate(values):
            members = np.nonzero(mode_group == g)[0]
            k = _coupling_entries(basis, members, coeffs, model.sigmas)
            if k is None:
                continue
            group_coeff = np.zeros_like(coeffs)
            group_coeff[:, members] = coeffs[:, members]
            self.groups.append((float(w), group_coeff))
            k_rows, k_cols, k_values = k
            for rows, cols, k_block in (
                (k_rows, k_cols, k_values),
                (k_cols, k_rows, k_values.conj()),
            ):
                block += 1
                # adding the drive marks, which touch no entry of K_g, adds
                # an exact zero to each entry and drops those left zero
                k_block = k_block + 0j
                keep = k_block != 0
                add(block, rows[keep], cols[keep], k_block[keep])
                add(block, *marks, drive=True)
        rows, cols, data, is_drive = (np.concatenate(part) for part in zip(*parts))
        n_rows = (block + 1) * n
        order = np.argsort(rows * n + cols)
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        self.pattern = sp.csr_matrix(
            (data[order], cols[order].astype(np.int32), indptr), (n_rows, n)
        )
        self.drive = np.flatnonzero(is_drive[order])
        # _stacked_layout's per frame count, filled on first use
        self.layouts = {}


def _photon_diagonal(photons, r, c, values):
    """Rows, columns and values of I (x) S, for the nonzero entries (r, c)
    of a spin matrix S with values, in (photon, row, column) order."""
    return (
        (photons + r).ravel(),
        (photons + c).ravel(),
        np.tile(values, len(photons)),
    )


def _coupling_entries(basis: FockBasis, members, coeffs, sigmas):
    """K = sum_{lam,m} (sum_{j in members} c_{lam m, j} a_j) (x)
    sigma_m^[lam] as (rows, cols, values) on the Fock-major space, or None
    when no coefficient on members is nonzero.

    The sums run as the sparse sums of the Kronecker assembly: the terms
    in (lam, m) order, each mode sum and each sum of terms adding an exact
    zero to the entries that only one side holds, and dropping the results
    that are exactly zero."""
    s = sigmas.shape[1]
    ladders = [basis.lowering(j) for j in members]
    if not ladders:
        return None
    fock_rows, fock_cols, sqrt_n = (np.concatenate(part) for part in zip(*ladders))
    mode = np.repeat(members, [len(a) for _, _, a in ladders])
    held = None  # which (Fock entry, spin row, spin column) the sum holds
    for coeff, sigma in zip(coeffs, sigmas):
        on = coeff[mode] != 0
        if not on.any():
            continue
        a_sum = coeff[mode] * sqrt_n
        if np.count_nonzero(coeff[members]) > 1:
            a_sum = a_sum + 0j
        term = a_sum[:, None, None] * sigma
        has = on[:, None, None] & (sigma != 0)
        if held is None:
            held, value = has, term
            continue
        both = held & has
        value = np.where(both, value + term, np.where(held, value, term) + 0j)
        held = (held | has) & (value != 0)
    if held is None:
        return None
    e, r, c = np.nonzero(held)
    return fock_rows[e] * s + r, fock_cols[e] * s + c, value[e, r, c]


def drive_weight(model: Model) -> float:
    """sum_j ||M_j||^2 with M_j = sum_{lam,m} c_{lam m, j} sigma_m^[lam]: the
    factor of leakage_estimate's lam that depends on the model alone."""
    coeffs = np.array([b.q - 1j * b.p for b in model.coupling_list])
    mode_ops = np.einsum("aj,ars->jrs", coeffs, model.sigmas)
    norms = np.linalg.svd(mode_ops, compute_uv=False)[:, 0]
    return float(norms @ norms)


def leakage_estimate(weight: float, h: float, t: float, cutoff: int) -> float:
    """lam^cutoff / cutoff!, the leading-order population of photon layer
    cutoff in the fluctuation state at (h, t), with lam = (h/2) t^2 weight
    and weight = drive_weight(model) (see "Cutoff sizing" above).  It does
    not depend on X: the drive creates no photon."""
    lam = 0.5 * h * t**2 * weight
    # as a product, which overflows to inf where lam**cutoff would raise
    return math.prod(lam / k for k in range(1, cutoff + 1))


def _shared_operators(
    model: Model, basis: FockBasis, modes: np.ndarray
) -> TensorOperators:
    """The TensorOperators of (model, basis), built on first use and kept
    on the basis, so the Hamiltonians of every h share one copy."""
    ops = basis.operator_cache.get(model)
    if ops is None:
        ops = basis.operator_cache[model] = TensorOperators(model, basis, modes)
    elif not np.array_equal(ops.modes, modes):
        raise OracleError("a basis carries one set of modes per model")
    return ops


class Hamiltonian:
    """Truncated Hamiltonian at one h on the shared tensor operators.

    The basis's modes are the columns of the isometry modes, shape (D,
    basis.D), from coupled_modes; by default the identity, every grid mode.
    """

    def __init__(
        self, model: Model, basis: FockBasis, h: float, modes: np.ndarray | None = None
    ):
        if h <= 0:
            raise OracleError("h must be positive")
        if modes is None:
            modes = np.eye(model.D)
        if modes.shape != (model.D, basis.D):
            raise OracleError("basis mode count does not match the modes")
        self.model = model
        self.basis = basis
        self.h = float(h)
        self.spin_dim = model.spin_dim
        self.ops = _shared_operators(model, basis, modes)
        # exact diagonal free part (photon only), in units of energy
        self.hph_diag = h * (basis.occupations @ self.ops.omegas)
        # Phi_{S,h}(chi_{-t} B) (x) sigma summed = sqrt(h/2) sum_g
        # [e^{-i w_g t} K_g + h.c.]
        self.root = np.sqrt(self.h / 2.0)

    def project(self, v: PhaseVector) -> PhaseVector:
        """U^T V: the coordinates of a grid vector on the basis's modes."""
        modes = self.ops.modes
        return PhaseVector(v.q @ modes, v.p @ modes)

    # -- generator application -----------------------------------------

    def generator_values(self, x: PhaseVector) -> np.ndarray:
        """The values of generator(x) in the order of the shared pattern:
        its constant values, with the drive written at ops.drive.

        K_g[a -> z] = sum_{lam,m} (c_{lam m} . z) sigma_m^[lam] is the
        group's s x s drive matrix over sqrt(h/2); at X = 0 it vanishes.
        """
        ops = self.ops
        z = (x.q @ ops.modes + 1j * (x.p @ ops.modes)) / np.sqrt(2.0 * self.h)
        # the drive positions per block and photon state
        per_state = np.count_nonzero(ops.spin_pattern)
        drive = ops.drive.reshape(-1, self.basis.dim, per_state)
        data = ops.pattern.data.copy()
        for g, (_, coeff) in enumerate(ops.groups):
            k_z = self.model.spin_matrix(coeff @ z)
            data[drive[2 * g]] = k_z[ops.spin_pattern]
            data[drive[2 * g + 1]] = k_z.conj().T[ops.spin_pattern]
        return data

    def generator(self, x: PhaseVector) -> sp.csr_matrix:
        """[h0; L_1; L_1^H; ...; L_G; L_G^H] stacked in one CSR matrix, with
        L_g = W(X)* K_g W(X) = K_g + I (x) K_g[a -> z] per frequency group
        of ops.groups; at X = 0 the L_g are the K_g.  This is the shared
        pattern with generator_values(x) written into it."""
        return _stacked_generator([self], x)

    def energy(self, psi: np.ndarray, y: PhaseVector) -> np.ndarray:
        """<W(Y) psi_j, H W(Y) psi_j> for each state j of psi, shape (dim, s, n).

        W(Y)* H W(Y) = H + Phi_h(omega Y) (x) I + (1/2) sum_j omega_j
        (q_j^2 + p_j^2) + h drive_Y(0), where Phi_h(omega Y) =
        h sum_j omega_j (conj(z_j) a_j + z_j a_j*); at Y = 0 this is <psi, H psi>.
        The shift acts on the basis's modes, the classical term on all.
        """
        dim, s, n = psi.shape
        om = self.model.grid.slot_omegas
        shift = segal_field(
            self.basis, self.h, self.project(PhaseVector(om * y.q, om * y.p))
        )
        interaction = _interaction_apply(
            self.ops, _roots([self]), 0.0, psi[None], self.generator(y)
        )
        hpsi = (
            self.hph_diag[:, None, None] * psi
            + (shift @ psi.reshape(dim, s * n)).reshape(psi.shape)
            + self.h * interaction[0]
        )
        classical = 0.5 * float(om @ (y.q**2 + y.p**2))
        return np.einsum("fsn,fsn->n", psi.conj(), hpsi).real + classical * np.sum(
            np.abs(psi) ** 2, axis=(0, 1)
        )

    def free_phases(self, t: float) -> np.ndarray:
        return gamma_free_phases(self.basis, self.ops.omegas, t)


def _stacked_layout(ops: TensorOperators, frames: int) -> tuple:
    """(indptr, indices, take) of _stacked_generator for a group of frames
    on ops, laid out once per frame count and kept on ops.

    Block b of frame f holds the pattern's block b with its columns moved
    on by f * ops.block_rows, and the rows run block by block: block b of
    every frame, then block b + 1.  take picks, from the frames' values
    concatenated, each stacked entry's value."""
    layout = ops.layouts.get(frames)
    if layout is not None:
        return layout
    indptr, indices = ops.pattern.indptr, ops.pattern.indices
    n, nnz = ops.block_rows, len(indices)
    starts = indptr[::n]  # the first entry of each block, then nnz
    take = np.concatenate(
        [
            (np.arange(frames)[:, None] * nnz + np.arange(a, b)).ravel()
            for a, b in zip(starts[:-1], starts[1:])
        ]
    )
    lengths = np.diff(indptr).reshape(-1, 1, n)
    lengths = np.broadcast_to(lengths, (len(lengths), frames, n)).ravel()
    stacked_indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=stacked_indptr[1:])
    stacked_indices = (indices[take % nnz] + take // nnz * n).astype(np.int32)
    # filled idempotently: frame jobs on two threads may share ops
    return ops.layouts.setdefault(frames, (stacked_indptr, stacked_indices, take))


def _stacked_generator(hams: list, x: PhaseVector) -> sp.csr_matrix:
    """The generators of hams at X stacked block-diagonally, one frame each,
    with the rows taken block by block: block b of every frame, then block
    b + 1.  Each row keeps its entries, so it sums as in its own generator.
    For one frame this is its generator."""
    import scipy.sparse as sp

    ops = hams[0].ops
    indptr, indices, take = _stacked_layout(ops, len(hams))
    data = np.concatenate([ham.generator_values(x) for ham in hams])[take]
    rows, cols = ops.pattern.shape
    return sp.csr_matrix((data, indices, indptr), (len(hams) * rows, len(hams) * cols))


def _roots(hams: list) -> np.ndarray:
    """sqrt(h/2) of each frame, shaped to scale the blocks of a group."""
    return np.array([ham.root for ham in hams])[:, None, None]


def _generator_blocks(gen: sp.csr_matrix, psi: np.ndarray) -> np.ndarray:
    """The blocks of gen = _stacked_generator(hams, X) applied to frames psi
    of shape (F, dim, s, n) in one product: shape (1 + 2G, F, dim * s, n),
    in each generator's block order."""
    f, dim, s, n = psi.shape
    return (gen @ psi.reshape(-1, n)).reshape(-1, f, dim * s, n)


def _interaction_apply(
    ops: TensorOperators, roots: np.ndarray, t: float, psi: np.ndarray, gen
) -> np.ndarray:
    """(H_int^free(t) + drive(t)) psi for frames psi of shape (F, dim, s, n),
    frame f under hams[f], with gen = _stacked_generator(hams, X), roots =
    _roots(hams) and ops the hams' shared operators; each row is summed as
    by a product with its own Hamiltonian's block."""
    blocks = _generator_blocks(gen, psi)
    out = blocks[0]
    # scaled in place: the blocks are a fresh array
    for g, (w, _) in enumerate(ops.groups):
        ph = roots * np.exp(-1j * w * t)
        term = blocks[2 * g + 1]
        term *= ph
        out += term
        term = blocks[2 * g + 2]
        term *= np.conj(ph)
        out += term
    return out.reshape(psi.shape)


def evolve_interaction_picture(
    hams: list,
    psi0: np.ndarray,
    t: float,
    x: PhaseVector,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, GroupLog]:
    """xi(t) with e^{-i (t/h) H(h)} W(X) psi0 = W(chi_t X) xi(t) for a frame
    group: psi0 has shape (F, dim, s, n), frame f evolves under hams[f],
    and all hams share one basis.  At X = 0 this is e^{-i (t/h) H(h)} psi0.

    Integrates the interaction-picture ODE i phi' = [H_int^free(s) +
    drive(s)] phi of every frame in one adaptive RK4 loop, with joint step
    control that keeps each frame's local error <= tol per step, then
    applies the exact free phase.  Each frame's log holds its leakage, the
    largest top-photon-layer population of any of its states over psi0 and
    every accepted step, and its unitarity defect.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    basis, spin_dim = hams[0].basis, hams[0].spin_dim
    if psi0.ndim != 4 or psi0.shape[:3] != (len(hams), basis.dim, spin_dim):
        raise OracleError("state shape does not match the Hamiltonians")
    if any(ham.ops is not hams[0].ops for ham in hams):
        raise OracleError("a frame group needs one model and one basis")
    gen, roots = _stacked_generator(hams, x), _roots(hams)
    top = basis.totals == basis.n_max

    def rhs(s, phi):
        return -1j * _interaction_apply(hams[0].ops, roots, s, phi, gen)

    def top_population(phi):
        return np.max(np.sum(np.abs(phi[:, top]) ** 2, axis=(1, 2)), axis=1)

    def norms(phi):
        return np.sqrt(np.sum(np.abs(phi) ** 2, axis=(1, 2)))

    leakage = top_population(psi0)

    def monitor(phi):
        nonlocal leakage
        leakage = np.maximum(leakage, top_population(phi))
        return phi

    phi, log = integrate_adaptive(rhs, psi0, 0.0, t, tol, dt0=0.1, postprocess=monitor)
    psi_t = hams[0].free_phases(t)[:, None, None] * phi
    defects = np.max(np.abs(norms(psi_t) - norms(psi0)), axis=1)
    for frame_log, defect, leak in zip(log.frames, defects, leakage):
        frame_log.unitarity_defect = float(defect)
        frame_log.leakage = float(leak)
    return psi_t, log


# -- observables ------------------------------------------------------


def apply_observable(
    ham: Hamiltonian, obs: ObservableSpec, psi: np.ndarray, y: PhaseVector
) -> np.ndarray:
    """W(Y)* A W(Y) psi for psi of shape (dim, s, n), without materializing
    A; at Y = 0 this is A psi."""
    model = ham.model
    dim, s, n = psi.shape
    if obs.kind == "spin":
        # I (x) sigma: sigma acts on the spin axis of every Fock row
        return model.spin_ops[obs.lam - 1][obs.m - 1] @ psi
    if obs.kind.startswith("field"):
        v = field_coupling(model, obs)
        f = segal_field(ham.basis, ham.h, ham.project(v))
        out = (f @ psi.reshape(dim, s * n)).reshape(dim, s, n)
        out += v.dot(y) * psi
        return out
    # number_rate generator: (i/h)[H, N (x) I] = - sum_{lam,m}
    # Phi_{S,h}(F B_{m x_lam}) (x) sigma_m^[lam].  F B has coefficients
    # -i c, so this is i sqrt(h/2) sum_g (K_g - K_g^H), conjugated by W(Y).
    blocks = _generator_blocks(ham.generator(y), psi[None])[:, 0]
    out = np.zeros((dim * s, n), dtype=complex)
    for g in range(len(ham.ops.groups)):
        out += blocks[2 * g + 1]
        out -= blocks[2 * g + 2]
    return (1j * ham.root * out).reshape(dim, s, n)


def coherent_frame(ham: Hamiltonian) -> np.ndarray:
    """The 2^N states vac (x) e_j stacked as (dim, s, s): the coherent frame
    Psi_X (x) e_j in the frame displaced by W(X), where it starts."""
    frame = np.zeros((ham.basis.dim, ham.spin_dim, ham.spin_dim), dtype=complex)
    frame[0] = np.eye(ham.spin_dim)
    return frame


def frame_symbol(frame_t: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Matrix <state_i, A state_j> from a frame and A applied to it."""
    return np.einsum("fsi,fsj->ij", frame_t.conj(), applied)


def evolved_frames(
    hams: list,
    t: float,
    x: PhaseVector,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, PhaseVector, GroupLog]:
    """The forward-evolved coherent frames of hams in the displaced frame:
    (xi, Y, log) with e^{-i(t/h)H}(Psi_X (x) e_j) = W(Y) xi[f, ..., j] at
    h = hams[f].h and Y = chi_t X."""
    vacuum = np.stack([coherent_frame(ham) for ham in hams])
    xi, log = evolve_interaction_picture(hams, vacuum, t, x, tol)
    return xi, chi_flow_vector(hams[0].model.grid, t, x), log
