"""Truncated bosonic Fock space over the discretized mode space.

The symmetric Fock space over C^D is truncated at total photon number
n_max.  Basis states are occupation tuples alpha with |alpha| <= n_max in
graded lexicographic order (by total degree, then ascending lex), so the
vacuum is index 0 and dim = binom(D + n_max, D).

Complex mode coordinates are z_j = (q_j + i p_j) / sqrt(2 h); the free flow
acts as z -> e^{-i omega t} z, matching the phase-space rotation used in
the model layer.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from blochlab.model import ModelError, PhaseVector


class TruncationWarning(UserWarning):
    """Emitted when a coherent state loses visible mass to the cutoff."""


def _compositions(n: int, d: int):
    # All occupation tuples of total n over d slots, ascending lex order.
    if d == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, d - 1):
            yield (k,) + rest


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation basis of the n_max-truncated Fock space over C^D."""

    D: int
    n_max: int

    def __post_init__(self):
        if self.D < 1 or self.n_max < 0:
            raise ModelError("need D >= 1 modes and n_max >= 0")
        occ = np.empty((comb(self.D + self.n_max, self.D), self.D), dtype=np.int64)
        row = 0
        for n in range(self.n_max + 1):
            for alpha in _compositions(n, self.D):
                occ[row] = alpha
                row += 1
        index = {tuple(a): i for i, a in enumerate(occ.tolist())}
        # parent links: alpha -> alpha - e_j at the first occupied slot j,
        # used for the stable coherent-coefficient recurrence
        parent = np.zeros(row, dtype=np.int64)
        pslot = np.zeros(row, dtype=np.int64)
        for i in range(1, row):
            a = occ[i]
            j = int(np.argmax(a > 0))
            b = a.copy()
            b[j] -= 1
            parent[i] = index[tuple(b.tolist())]
            pslot[i] = j
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "parent_slot", pslot)
        object.__setattr__(self, "totals", occ.sum(axis=1))
        object.__setattr__(self, "_ladder_cache", {})
        # operators that other layers assemble on this basis for one model;
        # weak keys let them go with the model
        object.__setattr__(self, "operator_cache", weakref.WeakKeyDictionary())

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def annihilator(self, j: int) -> sp.csr_matrix:
        """Sparse a_j: a_j |alpha> = sqrt(alpha_j) |alpha - e_j>."""
        if not 0 <= j < self.D:
            raise ModelError("mode index out of range")
        cached = self._ladder_cache.get(j)
        if cached is not None:
            return cached
        occ = self.occupations
        cols = np.nonzero(occ[:, j] > 0)[0]
        data = np.sqrt(occ[cols, j].astype(float))
        rows = self.parent[cols].copy()
        # parent links follow the first occupied slot only; recompute for j
        fix = self.parent_slot[cols] != j
        if np.any(fix):
            for t in np.nonzero(fix)[0]:
                a = occ[cols[t]].copy()
                a[j] -= 1
                rows[t] = self.index[tuple(a.tolist())]
        mat = sp.csr_matrix(
            (data, (rows, cols)), shape=(self.dim, self.dim), dtype=complex
        )
        self._ladder_cache[j] = mat
        return mat

    def creator(self, j: int) -> sp.csr_matrix:
        """Truncated a*_j (the top photon layer is annihilated)."""
        return self.annihilator(j).conj().T.tocsr()


def gamma_free_phases(basis: FockBasis, slot_omegas: np.ndarray, t: float) -> np.ndarray:
    """Diagonal of Gamma(chi_t): exp(-i t sum_j omega_j alpha_j).

    Exact free propagator e^{-i t dGamma(omega)}; with H_ph = h dGamma(omega)
    this is the full phase of e^{-i t H_ph / h}, independent of h.
    """
    om = np.asarray(slot_omegas, dtype=float)
    if om.shape != (basis.D,):
        raise ModelError("need one frequency per mode")
    return np.exp(-1j * t * (basis.occupations @ om))


def segal_field(basis: FockBasis, h: float, v: PhaseVector) -> sp.csr_matrix:
    """Semiclassical Segal field Phi_{S,h}(V) = sqrt(h) Phi_S(V).

    Phi_S(V) = sum_j (v_q - i v_p)_j / sqrt(2) a_j
             + (v_q + i v_p)_j / sqrt(2) a*_j,
    the unique self-adjoint combination whose Wick symbol is h^{-1/2} V.X.
    """
    if h <= 0:
        raise ModelError("h must be positive")
    if v.dim != basis.D:
        raise ModelError("dimension mismatch")
    out = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    sq = np.sqrt(h / 2.0)
    for j in range(basis.D):
        cj = v.q[j] - 1j * v.p[j]
        if cj == 0:
            continue
        aj = basis.annihilator(j)
        out = out + sq * (cj * aj + np.conj(cj) * aj.conj().T)
    return out.tocsr()


def coherent_state(
    basis: FockBasis,
    h: float,
    x: PhaseVector,
    normalize: bool = True,
    tail_tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Truncated coherent state at phase point X, with its lost tail mass.

    Amplitudes z_j = (q_j + i p_j)/sqrt(2h); coefficients
    e^{-|z|^2/2} z^alpha / sqrt(alpha!) computed by the parent recurrence
    c_alpha = c_{alpha - e_j} z_j / sqrt(alpha_j).  Returns (vector,
    tail_mass) where tail_mass = 1 - |truncated|^2; warns above tail_tol.
    """
    if h <= 0:
        raise ModelError("h must be positive")
    if x.dim != basis.D:
        raise ModelError("dimension mismatch")
    z = (x.q + 1j * x.p) / np.sqrt(2.0 * h)
    c = np.empty(basis.dim, dtype=complex)
    c[0] = 1.0
    pj = basis.parent_slot
    for i in range(1, basis.dim):
        j = pj[i]
        c[i] = c[basis.parent[i]] * z[j] / np.sqrt(basis.occupations[i, j])
    c *= np.exp(-0.5 * float((z.conj() @ z).real))
    mass = float(np.vdot(c, c).real)
    tail = 1.0 - mass
    if tail > tail_tol:
        warnings.warn(
            f"coherent state tail mass {tail:.3e} exceeds {tail_tol:.1e}; "
            "increase n_max or reduce |X|^2 / h",
            TruncationWarning,
            stacklevel=2,
        )
    if normalize:
        c /= np.sqrt(mass)
    return c, tail


def coherent_overlap(h: float, x: PhaseVector, y: PhaseVector) -> complex:
    """Exact untruncated overlap <C(X), C(Y)>."""
    z = (x.q + 1j * x.p) / np.sqrt(2.0 * h)
    w = (y.q + 1j * y.p) / np.sqrt(2.0 * h)
    return complex(
        np.exp(-0.5 * (np.vdot(z, z).real + np.vdot(w, w).real) + np.vdot(z, w))
    )


def wick_symbol(basis: FockBasis, h: float, op, x: PhaseVector) -> complex:
    """Wick (coherent-state lower) symbol <C(X), A C(X)> of an operator on
    the Fock space, with the normalized truncated coherent state."""
    c, _ = coherent_state(basis, h, x)
    return complex(np.vdot(c, op @ c))
