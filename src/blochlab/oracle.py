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
depend on h or X, and the generator is folded into one operator: the
blocks [H0; L_1; L_1^H; ...; L_G; L_G^H] share one square CSR pattern, the
union of their positions, and a value table V holds one row per block.
The pattern and the constant values are laid out once per (model, basis),
by index arithmetic on the annihilators' entries, and shared by the
Hamiltonians of every h; per frame point X a frame's table is the constant
one with its drive written in and the L_g rows scaled by sqrt(h/2).  A
combination sum_b c_b block_b of the blocks is then one product c @ V,
written into the operator's values, and one sparse product applies it to
every state: the propagation takes c(s) = -i [1, e^{-i w_1 s},
e^{+i w_1 s}, ...], the energy [1, 1, ...] and the number_rate observable
i [0, 1, -1, ...].  The blocks of a row are summed inside the row, so the
results differ from a product per block by rounding only.

The frames of every h at one (t, X) differ only in sqrt(h/2) and the drive
entries, so they are propagated together as one frame group: states carry
a leading frame axis, shape (F, dim, s, n), the group's operator is the
frames' folded operators on the diagonal of one block-diagonal CSR matrix,
laid out once per frame count and kept with the operators, and V stacks
the frames' tables, shape (F, 1 + 2G, nnz).  The values are rewritten only
when the time s changes: 4 of the stepper's 11 evaluations per attempted
step repeat the previous time.  Each frame's values are one product of
their own length, so they, and the frame's rows of the sparse product, do
not depend on the other frames.  The stepper is the package's
step-doubling RK4 (blochlab.stepper, local Richardson error control, first
step 0.1) with joint step control, so each frame meets its own local error
bound and keeps its own log.  The generator is bounded uniformly in h, so
steps do not shrink as h does; on the desk plan every h takes the same
steps alone, and the group reproduces each frame bitwise.

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

scipy.sparse is imported only where a CSR matrix is built or applied
(FoldedGenerator, and fock's field_operator), so a hierarchy-only run
such as the crosscheck never loads it.  Each CSR layout is kept where
frame jobs on two pool workers share it, on the basis or its operators,
and is filled either under the harness's build lock or idempotently, by
dict.setdefault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from blochlab.fock import FockBasis, field_operator, gamma_free_phases
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
    block_rows the rows of one block, basis.dim * spin_dim.

    The generator's blocks [h0; K_1 + I (x) E; K_1^H + I (x) E; ...], with
    E the s x s spin_pattern where some spin matrix of the model is
    nonzero, are folded onto one square CSR pattern (indptr, indices), the
    union of their positions.  values holds the constant entries, one row
    per block, shape (1 + 2G, nnz), zero where a block has no entry and at
    the positions drive, the entries of I (x) E in (photon, row, column)
    order, where every coupling block takes its drive.  K_g is off-diagonal
    in photon number and the drive diagonal, so no entry of a block is a
    sum.  exponents holds each block's rate of its time phase, [0, -i w_1,
    +i w_1, ...].

    The blocks are assembled from the annihilators' (row, col, sqrt(n))
    entries by index arithmetic.  K_g sums its (lam, m) terms in that
    order, and an entry that a sum leaves an exact zero is dropped, as a
    sum of sparse matrices does, so the values are bitwise those of the
    Kronecker-product assembly.
    """

    def __init__(self, model: Model, basis: FockBasis, modes: np.ndarray):
        self.modes = modes
        values, group_of = model.grid.frequency_groups
        # each column lies in one group: its largest entry names it
        mode_group = group_of[np.argmax(np.abs(modes), axis=0)]
        self.omegas = values[mode_group]
        s = model.spin_dim
        self.block_rows = n = basis.dim * s
        self.spin_pattern = np.any(model.sigmas != 0, axis=0)
        photons = np.arange(basis.dim)[:, None] * s
        parts = []  # (block, key, value) per entry, key = row * n + col

        def add(block, rows, cols, values):
            parts.append((np.full(len(rows), block), rows * n + cols, values))

        spin_const = model.spin_matrix(model.site_beta)
        r, c = np.nonzero(spin_const)
        h0 = np.ones(len(r), complex) * spin_const[r, c]  # as I (x) spin_const
        add(0, *_photon_diagonal(photons, r, c, h0))
        # one row of c per sigma_m^[lam] of model.sigmas, in (lam, m) order
        coeffs = np.array([b.q - 1j * b.p for b in model.coupling_list]) @ modes
        self.groups = []  # (omega, coeff) per coupled frequency group
        for g, w in enumerate(values):
            members = np.nonzero(mode_group == g)[0]
            k = _coupling_entries(basis, members, coeffs, model.sigmas)
            if k is None:
                continue
            group_coeff = np.zeros_like(coeffs)
            group_coeff[:, members] = coeffs[:, members]
            self.groups.append((float(w), group_coeff))
            k_rows, k_cols, k_values = k
            keep = k_values != 0
            block = 2 * len(self.groups) - 1
            for b, rows, cols, k_block in (
                (block, k_rows, k_cols, k_values),
                (block + 1, k_cols, k_rows, k_values.conj()),
            ):
                # adding the drive, which touches no entry of K_g, adds an
                # exact zero to each entry and drops those left zero
                add(b, rows[keep], cols[keep], k_block[keep] + 0j)
        blocks, keys, data = (np.concatenate(part) for part in zip(*parts))
        # the drive sits in the coupling blocks: without one there is none
        r, c = np.nonzero(self.spin_pattern & bool(self.groups))
        drive = ((photons + r) * n + photons + c).ravel()
        union = np.union1d(keys, drive)
        self.values = np.zeros((1 + 2 * len(self.groups), len(union)), complex)
        self.values[blocks, np.searchsorted(union, keys)] = data
        self.drive = np.searchsorted(union, drive)
        self.indices = (union % n).astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(union // n, minlength=n), out=self.indptr[1:])
        rates = [r * w for w, _ in self.groups for r in (-1j, 1j)]
        self.exponents = np.array([0j, *rates])
        # _block_diagonal's per frame count, filled on first use
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

    def field(self, q: np.ndarray, p: np.ndarray) -> sp.csr_matrix:
        """Phi_h(U^T V) of the grid vector V = (q, p): its Segal field on
        the basis's modes."""
        modes = self.ops.modes
        return field_operator(self.basis, self.h, q @ modes - 1j * (p @ modes))

    # -- generator application -----------------------------------------

    def generator_values(self, x: PhaseVector) -> np.ndarray:
        """This frame's value table at X on the folded pattern, shape
        (1 + 2G, nnz): the rows of [h0; L_1; L_1^H; ...] with L_g = W(X)* K_g
        W(X) = K_g + I (x) K_g[a -> z], the L_g rows times sqrt(h/2).

        K_g[a -> z] = sum_{lam,m} (c_{lam m} . z) sigma_m^[lam] is the
        group's s x s drive matrix over sqrt(h/2), written at ops.drive in
        both of the group's rows; at X = 0 it vanishes.
        """
        ops = self.ops
        z = (x.q @ ops.modes + 1j * (x.p @ ops.modes)) / np.sqrt(2.0 * self.h)
        # the drive positions per photon state
        drive = ops.drive.reshape(self.basis.dim, -1)
        values = ops.values.copy()
        for g, (_, coeff) in enumerate(ops.groups):
            k_z = self.model.spin_matrix(coeff @ z)
            values[2 * g + 1, drive] = k_z[ops.spin_pattern]
            values[2 * g + 2, drive] = k_z.conj().T[ops.spin_pattern]
        values[1:] *= self.root
        return values

    def energy(self, psi: np.ndarray, y: PhaseVector) -> np.ndarray:
        """<W(Y) psi_j, H W(Y) psi_j> for each state j of psi, shape (dim, s, n).

        W(Y)* H W(Y) = H + Phi_h(omega Y) (x) I + (1/2) sum_j omega_j
        (q_j^2 + p_j^2) + h drive_Y(0), where Phi_h(omega Y) =
        h sum_j omega_j (conj(z_j) a_j + z_j a_j*); at Y = 0 this is <psi, H psi>.
        The shift acts on the basis's modes, the classical term on all.  The
        interaction is the folded generator at Y with the coefficients
        [1, 1, ...] of time 0.
        """
        dim, s, n = psi.shape
        om = self.model.grid.slot_omegas
        shift = self.field(om * y.q, om * y.p)
        interaction = FoldedGenerator([self], y)
        interaction.write(np.ones(len(self.ops.exponents)))
        hpsi = (
            self.hph_diag[:, None, None] * psi
            + (shift @ psi.reshape(dim, s * n)).reshape(psi.shape)
            + self.h * interaction.apply(psi[None])[0]
        )
        classical = 0.5 * float(om @ (y.q**2 + y.p**2))
        return np.einsum("fsn,fsn->n", psi.conj(), hpsi).real + classical * np.sum(
            np.abs(psi) ** 2, axis=(0, 1)
        )

    def free_phases(self, t: float) -> np.ndarray:
        return gamma_free_phases(self.basis, self.ops.omegas, t)


def _block_diagonal(ops: TensorOperators, frames: int) -> tuple:
    """(indptr, indices) of frames copies of the folded pattern of ops on
    the diagonal, frame f's rows and columns moved on by f *
    ops.block_rows, laid out once per frame count and kept on ops."""
    layout = ops.layouts.get(frames)
    if layout is not None:
        return layout
    nnz, n = len(ops.indices), ops.block_rows
    shift = np.arange(frames)[:, None]
    indptr = np.append((ops.indptr[:-1] + shift * nnz).ravel(), frames * nnz)
    indices = (ops.indices + shift * n).ravel()
    layout = indptr.astype(np.int32), indices.astype(np.int32)
    # filled idempotently: frame jobs on two threads may share ops
    return ops.layouts.setdefault(frames, layout)


class FoldedGenerator:
    """The folded generators of a frame group at X: frame f under hams[f],
    all on one model and basis.

    values stacks the frames' value tables, shape (F, 1 + 2G, nnz), and
    (indptr, indices, data) is the group's block-diagonal CSR operator,
    whose values write sets to sum_b c_b block_b for coefficients c, one
    per block, by one product per frame.

    apply calls scipy's CSR kernel itself, the one that a scipy sparse
    matrix's @ ends in: at the desk's size @ takes three times as long as
    the product in its Python type dispatch, and a CSR matrix costs as much
    again to construct."""

    def __init__(self, hams: list, x: PhaseVector):
        from scipy.sparse._sparsetools import csr_matvecs

        ops = hams[0].ops
        self._product = csr_matvecs
        self.exponents = ops.exponents
        self.values = np.stack([ham.generator_values(x) for ham in hams])
        self.indptr, self.indices = _block_diagonal(ops, len(hams))
        self.data = np.zeros((len(hams), len(ops.indices)), complex)
        self.time = None  # the s whose right-hand side data holds

    def write(self, coeffs: np.ndarray) -> None:
        """Set the operator to sum_b coeffs[b] block_b of every frame."""
        np.matmul(coeffs, self.values, out=self.data)
        self.time = None

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """The operator applied to states psi of shape (F, dim, s, n)."""
        psi = np.ascontiguousarray(psi, dtype=complex)
        n = len(self.indptr) - 1
        # the kernel reads and writes n rows of psi.shape[-1] unchecked
        if psi.size != n * psi.shape[-1]:
            raise OracleError("state shape does not match the operator")
        out = np.zeros(psi.shape, complex)
        data, x, y = self.data.ravel(), psi.ravel(), out.ravel()
        self._product(n, n, psi.shape[-1], self.indptr, self.indices, data, x, y)
        return out

    def rhs(self, s: float, phi: np.ndarray) -> np.ndarray:
        """-i (H_int^free(s) + drive(s)) phi: the coefficients c(s) = -i [1,
        e^{-i w_1 s}, e^{+i w_1 s}, ...], written only when s changes."""
        if s != self.time:
            self.write(-1j * np.exp(self.exponents * s))
            self.time = s
        return self.apply(phi)


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
    rhs = FoldedGenerator(hams, x).rhs
    top = basis.totals == basis.n_max

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
        f = ham.field(v.q, v.p)
        out = (f @ psi.reshape(dim, s * n)).reshape(dim, s, n)
        out += v.dot(y) * psi
        return out
    # number_rate generator: (i/h)[H, N (x) I] = - sum_{lam,m}
    # Phi_{S,h}(F B_{m x_lam}) (x) sigma_m^[lam].  F B has coefficients
    # -i c, so this is i sqrt(h/2) sum_g (K_g - K_g^H), conjugated by W(Y).
    rate = FoldedGenerator([ham], y)
    coeffs = np.zeros(len(ham.ops.exponents), complex)
    coeffs[1::2], coeffs[2::2] = 1j, -1j
    rate.write(coeffs)
    return rate.apply(psi[None])[0]


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
