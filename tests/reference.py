"""Reference implementations that the tests compare the package against.

Each is a direct, unoptimized form of an object that the package computes
another way and never needs itself: the materialized Hamiltonian instead of
the generator applied group by group, the coherent frame Psi_X (x) e_j
propagated as it stands instead of in the displaced frame, the affine
interaction symbol as a matrix, and the number operator and its
second-quantized relatives as diagonal matrices.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from blochlab.fock import FockBasis, coherent_state
from blochlab.model import Model, ModelError, PhaseVector, stack_vectors
from blochlab.oracle import (
    DEFAULT_TAIL_TOL,
    DEFAULT_TOL,
    Hamiltonian,
    ObservableSpec,
    OracleError,
    apply_observable,
    evolved_frame,
    frame_symbol,
)
from conftest import zero_vector

# -- Fock space --------------------------------------------------------


def dgamma(basis: FockBasis, multiplier: np.ndarray) -> sp.dia_matrix:
    """Second quantization dGamma(M) of a diagonal one-mode multiplier."""
    m = np.asarray(multiplier, dtype=float)
    if m.shape != (basis.D,):
        raise ModelError("multiplier must have one entry per mode")
    return sp.diags(basis.occupations @ m).astype(complex)


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


def interaction_operator(
    ham: Hamiltonian, t: float, x: PhaseVector
) -> sp.csr_matrix:
    """Materialized sparse H_int^free(t) + drive(t) of frame point X."""
    out = ham.ops.h0.copy()
    for w, k, k_adj in ham.displaced_groups(x):
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


def coherent_spin_frame(
    ham: Hamiltonian, x: PhaseVector, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """The 2^N states Psi_X (x) e_j stacked as (dim, s, s).

    Refuses when the coherent tail mass exceeds tail_tol (the cutoff can
    not represent the requested (X, h) pair faithfully).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c, tail = coherent_state(ham.basis, ham.h, x, tail_tol=tail_tol)
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
    xi, y, _ = evolved_frame(ham, t, x, tol)
    return frame_symbol(xi, apply_observable(ham, obs, xi, y))


def number_expectation(ham: Hamiltonian, frame_t: np.ndarray) -> np.ndarray:
    """Matrix of <state_i, (N (x) I) state_j> for an undisplaced state frame."""
    n_diag = np.asarray(ham.basis.totals, dtype=float)
    return frame_symbol(frame_t, n_diag[:, None, None] * frame_t)
