"""Truncated bosonic Fock space over the discretized mode space.

The symmetric Fock space over C^D is truncated at total photon number
n_max.  Basis states are occupation tuples alpha with |alpha| <= n_max in
graded lexicographic order (by total degree, then ascending lex), so the
vacuum is index 0 and dim = binom(D + n_max, D).

Complex mode coordinates are z_j = (q_j + i p_j) / sqrt(2 h); the free flow
acts as z -> e^{-i omega t} z, matching the phase-space rotation used in
the model layer.

The CSR routines of the package live here: csr_pattern lays out a
pattern from the keys row * n + col of its entries, and csr_product
applies a CSR operator with scipy's kernel, looked up once per process.
The oracle's folded generator and the Segal fields both go through them.
scipy.sparse is imported only on first use, by csr_product or where a
CSR matrix is built (annihilator, field_operator), so importing this
module loads no sparse stack.  A field's layout (indptr, indices, and
where each entry takes its value from) is kept on the basis, so a call
writes only values, and apply_field builds no matrix.
"""

from __future__ import annotations

import functools
import warnings
import weakref
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from blochlab.model import ModelError, PhaseVector

if TYPE_CHECKING:
    import scipy.sparse as sp


# coherent_state warns when the cutoff loses more than this mass
COHERENT_TAIL_TOL = 1e-10


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
        object.__setattr__(self, "_lowering_cache", {})
        object.__setattr__(self, "_ladder_cache", {})
        # the Segal fields' CSR layouts, keyed by the modes that a field touches
        object.__setattr__(self, "_field_layouts", {})
        # operators that other layers assemble on this basis for one model;
        # weak keys let them go with the model
        object.__setattr__(self, "operator_cache", weakref.WeakKeyDictionary())

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def lowering(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of a_j as (rows, cols, values): one per state alpha
        with alpha_j > 0, in state order, at (alpha - e_j, alpha) with
        value sqrt(alpha_j) as a complex number."""
        if not 0 <= j < self.D:
            raise ModelError("mode index out of range")
        cached = self._lowering_cache.get(j)
        if cached is not None:
            return cached
        occ = self.occupations
        cols = np.nonzero(occ[:, j] > 0)[0]
        data = np.sqrt(occ[cols, j].astype(float)).astype(complex)
        rows = self.parent[cols].copy()
        # parent links follow the first occupied slot only; recompute for j
        for t in np.nonzero(self.parent_slot[cols] != j)[0]:
            a = occ[cols[t]].copy()
            a[j] -= 1
            rows[t] = self.index[tuple(a.tolist())]
        # filled idempotently: frame jobs on two threads may share a basis
        return self._lowering_cache.setdefault(j, (rows, cols, data))

    def annihilator(self, j: int) -> sp.csr_matrix:
        """Sparse a_j: a_j |alpha> = sqrt(alpha_j) |alpha - e_j>."""
        cached = self._ladder_cache.get(j)
        if cached is not None:
            return cached
        import scipy.sparse as sp

        rows, cols, data = self.lowering(j)
        mat = sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))
        return self._ladder_cache.setdefault(j, mat)

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


def csr_pattern(keys: np.ndarray, n: int) -> tuple:
    """(indptr, indices, union) of the n x n CSR pattern holding the entries
    keyed row * n + col: union is the sorted distinct keys, so the pattern's
    entry np.searchsorted(union, key) holds the entry keyed key."""
    union = np.unique(keys)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(union // n, minlength=n), out=indptr[1:])
    return indptr, (union % n).astype(np.int32), union


@functools.cache
def _csr_kernel():
    from scipy.sparse._sparsetools import csr_matvecs

    return csr_matvecs


def csr_product(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """The n x n CSR matrix (data, indices, indptr) times psi, whose last
    axis holds the columns and whose other axes flatten to the n rows.

    It calls scipy's CSR kernel, the one that a CSR matrix's @ ends in: at
    the desk's size @ takes three times as long as the product in its Python
    type dispatch, and a CSR matrix costs as much again to construct."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    n, k = len(indptr) - 1, psi.shape[-1]
    # the kernel reads and writes n rows of k entries unchecked
    if psi.size != n * k:
        raise ModelError("state shape does not match the operator")
    out = np.zeros(psi.shape, complex)
    _csr_kernel()(n, n, k, indptr, indices, data.ravel(), psi.ravel(), out.ravel())
    return out


def _field_layout(basis: FockBasis, modes: tuple) -> tuple:
    """The CSR layout of a Segal field on modes: (indptr, indices, slot,
    values), where entry k reads the coefficient slot[k] of
    [c, conj(c)] and times it by values[k], sqrt(alpha_j) for an a_j
    entry and its conjugate for an a*_j entry."""
    keys, slot = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    values = [np.empty(0, dtype=complex)]
    for j in modes:
        r, c, a = basis.lowering(j)
        keys += [r * basis.dim + c, c * basis.dim + r]
        slot += [np.full(len(a), j), np.full(len(a), basis.D + j)]
        values += [a, a.conj()]
    keys, slot, values = map(np.concatenate, (keys, slot, values))
    indptr, indices, union = csr_pattern(keys, basis.dim)
    # the terms of distinct modes, and a_j and a*_j, have disjoint patterns,
    # so each key is one entry of the pattern
    at = np.searchsorted(union, keys)
    slot_at, values_at = np.empty_like(slot), np.empty_like(values)
    slot_at[at], values_at[at] = slot, values
    return indptr, indices, slot_at, values_at


def segal_field(basis: FockBasis, h: float, v: PhaseVector) -> sp.csr_matrix:
    """Semiclassical Segal field Phi_{S,h}(V) = sqrt(h) Phi_S(V).

    Phi_S(V) = sum_j (v_q - i v_p)_j / sqrt(2) a_j
             + (v_q + i v_p)_j / sqrt(2) a*_j,
    the unique self-adjoint combination whose Wick symbol is h^{-1/2} V.X.
    """
    if v.dim != basis.D:
        raise ModelError("dimension mismatch")
    return field_operator(basis, h, v.q - 1j * v.p)


def _field_csr(basis: FockBasis, h: float, c: np.ndarray) -> tuple:
    """(indptr, indices, data) of Phi_{S,h}(V) from the annihilator
    coefficients c = v_q - i v_p of V, one per mode of the basis.

    The CSR layout of the field depends only on the modes with c_j != 0:
    it is laid out once per basis and set of modes, and a call writes only
    the values, c_j sqrt(alpha_j) and conj(c_j) sqrt(alpha_j), each times
    sqrt(h/2).
    """
    if h <= 0:
        raise ModelError("h must be positive")
    modes = tuple(np.flatnonzero(c).tolist())
    layout = basis._field_layouts.get(modes)
    if layout is None:
        # filled idempotently: frame jobs on two threads may share a basis
        layout = basis._field_layouts.setdefault(modes, _field_layout(basis, modes))
    indptr, indices, slot, values = layout
    data = np.sqrt(h / 2.0) * (np.concatenate([c, c.conj()])[slot] * values)
    return indptr, indices, data


def field_operator(basis: FockBasis, h: float, c: np.ndarray) -> sp.csr_matrix:
    """Phi_{S,h}(V) as a CSR matrix, from the annihilator coefficients
    c = v_q - i v_p of V (_field_csr)."""
    import scipy.sparse as sp

    indptr, indices, data = _field_csr(basis, h, c)
    return sp.csr_matrix((data, indices, indptr), shape=(basis.dim, basis.dim))


def apply_field(
    basis: FockBasis, h: float, c: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Phi_{S,h}(V) psi for psi of shape (dim, k), V given by its annihilator
    coefficients c = v_q - i v_p (_field_csr): the product that
    field_operator(basis, h, c) @ psi computes, with no matrix built."""
    return csr_product(*_field_csr(basis, h, c), psi)


def coherent_state(
    basis: FockBasis, h: float, x: PhaseVector
) -> tuple[np.ndarray, float]:
    """Normalized truncated coherent state at phase point X, with its lost
    tail mass.

    Amplitudes z_j = (q_j + i p_j)/sqrt(2h); coefficients
    e^{-|z|^2/2} z^alpha / sqrt(alpha!) computed by the parent recurrence
    c_alpha = c_{alpha - e_j} z_j / sqrt(alpha_j), then divided by their
    truncated norm.  Returns (vector, tail_mass) where tail_mass = 1 -
    |truncated|^2; warns above COHERENT_TAIL_TOL.
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
    if tail > COHERENT_TAIL_TOL:
        warnings.warn(
            f"coherent state tail mass {tail:.3e} exceeds {COHERENT_TAIL_TOL:.1e}; "
            "increase n_max or reduce |X|^2 / h",
            TruncationWarning,
            stacklevel=2,
        )
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
