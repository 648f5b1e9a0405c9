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
depend on h or X: they are assembled once per (model, basis) as CSR matrices
and shared by the Hamiltonians of every h.  One generator application is
1 + 2G CSR matvecs for G frequency groups.  The stepper is the package's
step-doubling RK4 (blochlab.stepper, local Richardson error control, first
step 0.1); the generator is bounded uniformly in h, so steps do not shrink
as h does.

Observables are read in the same frame: with Y = chi_t X,
<W(Y) xi_i, A W(Y) xi_j> = <xi_i, W(Y)* A W(Y) xi_j>, where W(Y)* A W(Y) is
sigma for a spin, Phi_h(F_A) + (F_A . Y) for a field, and the number_rate
generator with K_g -> L_g.  The photon-number rate is the number_rate
observable read from the same evolved frame as every other observable.

Cutoff sizing: the basis cutoff bounds the photon number of xi, not of
Psi_X.  evolve_interaction_picture records the leakage, the largest
population of the top photon layer over the initial state and every
accepted step; the caller picks a cutoff whose leakage stays within
DEFAULT_TAIL_TOL.

States are arrays of shape (fock_dim, spin_dim, n_states) so a whole frame
(the 2^N states xi_j) evolves in one integration; the operators act on its
Fock-major view of shape (fock_dim * spin_dim, n_states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from blochlab.fock import FockBasis, gamma_free_phases, segal_field
from blochlab.model import (
    Model,
    ModelError,
    PhaseVector,
    apply_helicity,
    chi_flow_vector,
    coupling_B,
    fmap,
)
from blochlab.stepper import PropagationLog, integrate_adaptive

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
        if self.kind.startswith("field"):
            if self.m not in (1, 2, 3) or self.x is None:
                raise ModelError("field observables need axis m and point x")
            object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
            if self.x.shape != (3,):
                raise ModelError(
                    f"field point must have 3 entries, got shape {self.x.shape}"
                )
        elif self.kind == "spin":
            if self.m not in (1, 2, 3) or self.lam is None or self.lam < 1:
                raise ModelError(
                    "spin observables need axis m and a 1-based site index lam"
                )

    @staticmethod
    def from_dict(d: dict) -> "ObservableSpec":
        return ObservableSpec(
            kind=d["kind"],
            m=d.get("axis"),
            x=np.asarray(d["point"], dtype=float) if "point" in d else None,
            lam=d.get("spin"),
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


class TensorOperators:
    """The h-independent generator of one (model, basis) pair.

    On the Fock-major space, with c = b_q - i b_p per coupling vector:
    h0 = I (x) sum beta_m sigma_m^[lam], and per frequency group g
    K_g = sum_{lam,m} sum_{j in g} c_{lam m, j} a_j (x) sigma_m^[lam],
    with K_g^H kept as a CSR matrix of its own, and the group's
    coefficients c_{lam m, j} (zero off the group), from which
    Hamiltonian.displaced_groups builds the drive.  Groups whose couplings
    all vanish are dropped.
    """

    def __init__(self, model: Model, basis: FockBasis):
        self.eye = sp.identity(basis.dim, dtype=complex, format="csr")
        spin_const = model.spin_matrix(model.site_beta)
        self.h0 = sp.kron(self.eye, sp.csr_matrix(spin_const), format="csr")
        # one row of c per sigma_m^[lam] of model.sigmas, in (lam, m) order
        coeffs = np.array([b.q - 1j * b.p for b in model.coupling_list])
        self.groups = []  # (omega, k, k_adj, coeff) per coupled frequency group
        values, group_of = model.grid.frequency_groups
        for g, w in enumerate(values):
            members = np.nonzero(group_of == g)[0]
            terms = []
            for coeff, sigma in zip(coeffs, model.sigmas):
                idx = [j for j in members if coeff[j] != 0]
                if not idx:
                    continue
                a_sum = sum(coeff[j] * basis.annihilator(j) for j in idx)
                terms.append(sp.kron(a_sum, sigma, format="csr"))
            if terms:
                k = sum(terms).tocsr()
                group_coeff = np.zeros_like(coeffs)
                group_coeff[:, members] = coeffs[:, members]
                self.groups.append((float(w), k, k.conj().T.tocsr(), group_coeff))


def _shared_operators(model: Model, basis: FockBasis) -> TensorOperators:
    """The TensorOperators of (model, basis), built on first use and kept
    on the basis, so the Hamiltonians of every h share one copy."""
    ops = basis.operator_cache.get(model)
    if ops is None:
        ops = basis.operator_cache[model] = TensorOperators(model, basis)
    return ops


class Hamiltonian:
    """Truncated Hamiltonian at one h on the shared tensor operators."""

    def __init__(self, model: Model, basis: FockBasis, h: float):
        if h <= 0:
            raise OracleError("h must be positive")
        if basis.D != model.D:
            raise OracleError("basis mode count does not match the grid")
        self.model = model
        self.basis = basis
        self.h = float(h)
        self.spin_dim = model.spin_dim
        self.slot_omegas = model.grid.slot_omegas
        # exact diagonal free part (photon only), in units of energy
        self.hph_diag = h * (basis.occupations @ self.slot_omegas)
        # Phi_{S,h}(chi_{-t} B) (x) sigma summed = sqrt(h/2) sum_g
        # [e^{-i w_g t} K_g + h.c.]
        self.root = np.sqrt(self.h / 2.0)
        self.ops = _shared_operators(model, basis)

    # -- generator application -----------------------------------------

    def displaced_groups(self, x: PhaseVector) -> list:
        """Per frequency group (w_g, L_g, L_g^H) with L_g = W(X)* K_g W(X)
        = K_g + I (x) K_g[a -> z]; at X = 0 the values of K_g, K_g^H.

        K_g[a -> z] = sum_{lam,m} (c_{lam m} . z) sigma_m^[lam] is the
        group's s x s drive matrix over sqrt(h/2).
        """
        z = (x.q + 1j * x.p) / np.sqrt(2.0 * self.h)
        out = []
        for w, k, k_adj, coeff in self.ops.groups:
            k_z = self.model.spin_matrix(coeff @ z)
            shift = sp.kron(self.ops.eye, sp.csr_matrix(k_z), format="csr")
            out.append((w, (k + shift).tocsr(), (k_adj + shift.conj().T).tocsr()))
        return out

    def _interaction_apply(self, t: float, psi: np.ndarray, groups: list) -> np.ndarray:
        """(H_int^free(t) + drive(t)) psi for psi of shape (dim, s, n), with
        groups = displaced_groups(X)."""
        flat = psi.reshape(-1, psi.shape[2])
        out = self.ops.h0 @ flat
        # scaled in place: each state-sized temporary is a fresh allocation
        for w, k, k_adj in groups:
            ph = self.root * np.exp(-1j * w * t)
            term = k @ flat
            term *= ph
            out += term
            term = k_adj @ flat
            term *= np.conj(ph)
            out += term
        return out.reshape(psi.shape)

    def energy(self, psi: np.ndarray, y: PhaseVector) -> np.ndarray:
        """<W(Y) psi_j, H W(Y) psi_j> for each state j of psi, shape (dim, s, n).

        W(Y)* H W(Y) = H + Phi_h(omega Y) (x) I + (1/2) sum_j omega_j
        (q_j^2 + p_j^2) + h drive_Y(0), where Phi_h(omega Y) =
        h sum_j omega_j (conj(z_j) a_j + z_j a_j*); at Y = 0 this is <psi, H psi>.
        """
        dim, s, n = psi.shape
        om = self.slot_omegas
        shift = segal_field(self.basis, self.h, PhaseVector(om * y.q, om * y.p))
        hpsi = (
            self.hph_diag[:, None, None] * psi
            + (shift @ psi.reshape(dim, s * n)).reshape(psi.shape)
            + self.h * self._interaction_apply(0.0, psi, self.displaced_groups(y))
        )
        classical = 0.5 * float(om @ (y.q**2 + y.p**2))
        return np.einsum("fsn,fsn->n", psi.conj(), hpsi).real + classical * np.sum(
            np.abs(psi) ** 2, axis=(0, 1)
        )

    def free_phases(self, t: float) -> np.ndarray:
        return gamma_free_phases(self.basis, self.slot_omegas, t)


def evolve_interaction_picture(
    ham: Hamiltonian,
    psi0: np.ndarray,
    t: float,
    x: PhaseVector,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, PropagationLog]:
    """xi(t) with e^{-i (t/h) H(h)} W(X) psi0 = W(chi_t X) xi(t), for states
    of shape (dim, s, n); at X = 0 this is e^{-i (t/h) H(h)} psi0.

    Integrates the interaction-picture ODE i phi' = [H_int^free(s) +
    drive(s)] phi with an adaptive RK4 (step-doubling local error <= tol per
    step), then applies the exact free phase.  The log's leakage is the
    largest top-photon-layer population of any state, over psi0 and every
    accepted step.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    squeeze = psi0.ndim == 2
    if squeeze:
        psi0 = psi0[:, :, None]
    if psi0.shape[0] != ham.basis.dim or psi0.shape[1] != ham.spin_dim:
        raise OracleError("state shape does not match the Hamiltonian")
    norms0 = np.sqrt(np.sum(np.abs(psi0) ** 2, axis=(0, 1)))
    groups = ham.displaced_groups(x)
    top = ham.basis.totals == ham.basis.n_max

    def rhs(s, phi):
        return -1j * ham._interaction_apply(s, phi, groups)

    def top_population(phi):
        return float(np.max(np.sum(np.abs(phi[top]) ** 2, axis=(0, 1))))

    leakage = top_population(psi0)

    def monitor(phi):
        nonlocal leakage
        leakage = max(leakage, top_population(phi))
        return phi

    phi, log = integrate_adaptive(rhs, psi0, 0.0, t, tol, dt0=0.1, postprocess=monitor)
    psi_t = ham.free_phases(t)[:, None, None] * phi
    norms = np.sqrt(np.sum(np.abs(psi_t) ** 2, axis=(0, 1)))
    log.unitarity_defect = float(np.max(np.abs(norms - norms0)))
    log.leakage = leakage
    return (psi_t[:, :, 0] if squeeze else psi_t), log


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
        f = segal_field(ham.basis, ham.h, v)
        out = (f @ psi.reshape(dim, s * n)).reshape(dim, s, n)
        out += v.dot(y) * psi
        return out
    # number_rate generator: (i/h)[H, N (x) I] = - sum_{lam,m}
    # Phi_{S,h}(F B_{m x_lam}) (x) sigma_m^[lam].  F B has coefficients
    # -i c, so this is i sqrt(h/2) sum_g (K_g - K_g^H), conjugated by W(Y).
    flat = psi.reshape(dim * s, n)
    out = np.zeros((dim * s, n), dtype=complex)
    for _, k, k_adj in ham.displaced_groups(y):
        out += k @ flat
        out -= k_adj @ flat
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


def evolved_frame(
    ham: Hamiltonian,
    t: float,
    x: PhaseVector,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, PhaseVector, PropagationLog]:
    """The forward-evolved coherent frame in the displaced frame: (xi, Y,
    log) with e^{-i(t/h)H}(Psi_X (x) e_j) = W(Y) xi_j and Y = chi_t X."""
    vacuum = coherent_frame(ham)
    xi, log = evolve_interaction_picture(ham, vacuum, t, x, tol)
    return xi, chi_flow_vector(ham.model.grid, t, x), log
