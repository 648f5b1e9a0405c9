"""Polynomial symbol calculus on the discretized phase space.

Symbols are stored in the holomorphic pairing: with z = q + ip and
w = z-bar = q - ip (componentwise over the D modes),

    F(q, p) = sum_{alpha, beta} a_{alpha beta} z^alpha w^beta,

where a_{alpha beta} is a complex scalar or a spin matrix.  In these
coordinates d/dq - i d/dp = 2 d/dz and d/dq + i d/dp = 2 d/dw, so normal
ordering, the heat operator and the composition series are plain
multi-index bookkeeping.  Matrix-valued coefficients share the scalar code
path; products keep operator order.

c1_affine is the one implementation of the first-order composition term
C^1, the h-term of the Mizrahi series, when one factor is an affine matrix
symbol.  It works on arrays of directional derivatives rather than on
PolySymbols, so the hierarchy applies it on whole quadrature grids: the
Duhamel forcing of every order is i (C1(F, G) - C1(G, F)), and the
photon-rate correction reads C1(E^0, S^0) from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from blochlab.fock import FockBasis
from blochlab.model import ModelError, PhaseVector

def _is_matrix(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim == 2


def _mul(a, b):
    # respects operator order for matrix payloads
    if _is_matrix(a) and _is_matrix(b):
        return a @ b
    return a * b


def _norm(v) -> float:
    if _is_matrix(v):
        return float(np.linalg.norm(v, 2))
    return abs(v)


@dataclass(frozen=True, eq=False)
class PolySymbol:
    """Finite holomorphic-pairing polynomial, scalar or matrix valued."""

    D: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for (al, be), v in self.coeffs.items():
            al, be = tuple(al), tuple(be)
            if len(al) != self.D or len(be) != self.D:
                raise ModelError("multi-index length must equal D")
            if any(x < 0 for x in al + be):
                raise ModelError("negative exponent")
            if _norm(v) != 0.0:
                clean[(al, be)] = v
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(D: int, value) -> "PolySymbol":
        zero = (0,) * D
        return PolySymbol(D, {(zero, zero): value})

    @staticmethod
    def linear(v: PhaseVector, value=1.0 + 0.0j) -> "PolySymbol":
        """The affine-part symbol (V . X) * value.

        V.X = v_q.q + v_p.p = sum_j z_j (v_q - i v_p)_j / 2
                            + w_j (v_q + i v_p)_j / 2.
        """
        D = v.dim
        coeffs = {}
        for j in range(D):
            cz = 0.5 * (v.q[j] - 1j * v.p[j])
            cw = 0.5 * (v.q[j] + 1j * v.p[j])
            al = tuple(1 if k == j else 0 for k in range(D))
            ze = (0,) * D
            if cz != 0:
                coeffs[(al, ze)] = _madd(coeffs.get((al, ze)), cz * value)
            if cw != 0:
                coeffs[(ze, al)] = _madd(coeffs.get((ze, al)), cw * value)
        return PolySymbol(D, coeffs)

    @staticmethod
    def from_qp_monomial(q_exp: Sequence[int], p_exp: Sequence[int], value=1.0 + 0.0j):
        """Convert a raw monomial q^a p^b to the holomorphic pairing.

        q_j = (z_j + w_j)/2 and p_j = -i (z_j - w_j)/2, expanded binomially.
        """
        D = len(q_exp)
        if len(p_exp) != D:
            raise ModelError("exponent lists must have equal length")
        out = PolySymbol.constant(D, value)
        for j in range(D):
            zj = _unit_key(D, j)
            qj = PolySymbol(D, {(zj, (0,) * D): 0.5, ((0,) * D, zj): 0.5})
            pj = PolySymbol(D, {(zj, (0,) * D): -0.5j, ((0,) * D, zj): 0.5j})
            for _ in range(q_exp[j]):
                out = out * qj
            for _ in range(p_exp[j]):
                out = out * pj
        return out

    # -- basic algebra --------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(al) + sum(be) for al, be in self.coeffs)

    def value_shape(self):
        for v in self.coeffs.values():
            if _is_matrix(v):
                return v.shape
        return ()

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        if other.D != self.D:
            raise ModelError("dimension mismatch")
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = _madd(coeffs.get(k), v)
        return PolySymbol(self.D, coeffs)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self + other.scale(-1.0)

    def scale(self, s) -> "PolySymbol":
        return PolySymbol(self.D, {k: v * s for k, v in self.coeffs.items()})

    def __mul__(self, other: "PolySymbol") -> "PolySymbol":
        """Pointwise product; matrix payloads compose in argument order."""
        if other.D != self.D:
            raise ModelError("dimension mismatch")
        coeffs = {}
        for (a1, b1), v1 in self.coeffs.items():
            for (a2, b2), v2 in other.coeffs.items():
                k = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                coeffs[k] = _madd(coeffs.get(k), _mul(v1, v2))
        return PolySymbol(self.D, coeffs)

    def eval(self, x: PhaseVector):
        if x.dim != self.D:
            raise ModelError("dimension mismatch")
        z = x.q + 1j * x.p
        w = x.q - 1j * x.p
        shape = self.value_shape()
        acc = np.zeros(shape, dtype=complex) if shape else 0.0 + 0.0j
        for (al, be), v in self.coeffs.items():
            mono = np.prod(z**np.array(al)) * np.prod(w**np.array(be))
            acc = acc + mono * v
        return acc

    # -- derivatives ----------------------------------------------------

    def dz(self, j: int) -> "PolySymbol":
        out = {}
        for (al, be), v in self.coeffs.items():
            if al[j] == 0:
                continue
            al2 = list(al)
            al2[j] -= 1
            k = (tuple(al2), be)
            out[k] = _madd(out.get(k), al[j] * v)
        return PolySymbol(self.D, out)

    def dw(self, j: int) -> "PolySymbol":
        out = {}
        for (al, be), v in self.coeffs.items():
            if be[j] == 0:
                continue
            be2 = list(be)
            be2[j] -= 1
            k = (al, tuple(be2))
            out[k] = _madd(out.get(k), be[j] * v)
        return PolySymbol(self.D, out)

    def dq(self, j: int) -> "PolySymbol":
        return self.dz(j) + self.dw(j)

    def dp(self, j: int) -> "PolySymbol":
        return self.dz(j).scale(1j) + self.dw(j).scale(-1j)

    def directional(self, v: PhaseVector) -> "PolySymbol":
        """Directional derivative sum_j v_q[j] dq_j + v_p[j] dp_j."""
        out = PolySymbol(self.D, {})
        for j in range(self.D):
            if v.q[j] != 0:
                out = out + self.dq(j).scale(v.q[j])
            if v.p[j] != 0:
                out = out + self.dp(j).scale(v.p[j])
        return out

    def laplacian(self) -> "PolySymbol":
        """Delta = sum_j (dq_j^2 + dp_j^2) = 4 sum_j dz_j dw_j."""
        out = {}
        for (al, be), v in self.coeffs.items():
            for j in range(self.D):
                if al[j] == 0 or be[j] == 0:
                    continue
                al2, be2 = list(al), list(be)
                al2[j] -= 1
                be2[j] -= 1
                k = (tuple(al2), tuple(be2))
                out[k] = _madd(out.get(k), 4.0 * al[j] * be[j] * v)
        return PolySymbol(self.D, out)


def _madd(acc, v):
    return v if acc is None else acc + v


def _unit_key(D: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(D))


def heat(f: PolySymbol, h: float) -> PolySymbol:
    """e^{(h/2) Delta} F as the finite series; heat(., -h) is exact inverse."""
    out = f
    term = f
    m = 0
    while term.coeffs:
        m += 1
        term = term.laplacian().scale(h / (2.0 * m))
        if not term.coeffs:
            break
        out = out + term
    return out


def wick_quantize(f: PolySymbol, basis: FockBasis, h: float):
    """Normal-ordered quantization whose Wick symbol is F.

    Op = sum a_{alpha beta} (2h)^{(|alpha|+|beta|)/2} a*^beta a^alpha
    (creation operators on the left).  Matrix-valued coefficients produce a
    tensor-space operator (Fock index major).
    """
    if h <= 0:
        raise ModelError("h must be positive")
    if f.D != basis.D:
        raise ModelError("dimension mismatch")
    if f.degree > basis.n_max:
        raise ModelError("symbol degree exceeds photon cutoff")
    shape = f.value_shape()
    sdim = shape[0] if shape else 1
    n = basis.dim * sdim
    out = sp.csr_matrix((n, n), dtype=complex)
    eye = sp.identity(basis.dim, dtype=complex, format="csr")
    for (al, be), v in f.coeffs.items():
        mono = eye
        for j in range(basis.D):
            for _ in range(al[j]):
                mono = basis.annihilator(j) @ mono
        for j in range(basis.D):
            for _ in range(be[j]):
                mono = basis.creator(j) @ mono
        mono = (2.0 * h) ** (0.5 * (sum(al) + sum(be))) * mono
        if sdim == 1:
            out = out + (v if not _is_matrix(v) else complex(v)) * mono
        else:
            vm = v if _is_matrix(v) else v * np.eye(sdim)
            out = out + sp.kron(mono, sp.csr_matrix(vm), format="csr")
    return out.tocsr()


def anti_wick_quantize(f: PolySymbol, basis: FockBasis, h: float):
    """Anti-Wick quantization, defined through the heat operator."""
    return wick_quantize(heat(f, h), basis, h)


def mizrahi_compose(f: PolySymbol, g: PolySymbol, h: float) -> PolySymbol:
    """Symbol of Op(F) Op(G): C_h(F, G) = sum_gamma (2h)^{|gamma|}/gamma!
    dz^gamma F . dw^gamma G (finite series on polynomials)."""
    if f.D != g.D:
        raise ModelError("dimension mismatch")
    D = f.D
    out = PolySymbol(D, {})
    order = min(f.degree, g.degree)
    for gamma in _multi_indices_up_to(D, order):
        k = sum(gamma)
        fac = (2.0 * h) ** k
        for gj in gamma:
            fac /= factorial(gj)
        df, dg = f, g
        for j in range(D):
            for _ in range(gamma[j]):
                df = df.dz(j)
                dg = dg.dw(j)
        if not df.coeffs or not dg.coeffs:
            continue
        out = out + (df * dg).scale(fac)
    return out


def _multi_indices_up_to(D: int, order: int) -> Iterable[tuple]:
    from itertools import product

    for gamma in product(range(order + 1), repeat=D):
        if sum(gamma) <= order:
            yield gamma


def c1_affine(s, db, dfb, side: str):
    """First-order composition term C^1 against an affine matrix symbol.

    F(X) = const + (B . X) S has the constant gradient (dq - i dp)F =
    (B_q - i B_p) S, so the j-sum of the h-term of the Mizrahi series
    reduces to two real directional derivatives of the other factor G:

        C1(F, G)(X) = 1/2 S [dG(X)(B) + i dG(X)(F B)]      (side "left")
        C1(G, F)(X) = 1/2 [dG(X)(B) - i dG(X)(F B)] S      (side "right")

    with F the complex-structure map (q,p) -> (-p,q).  ``db`` and ``dfb``
    are dG(X)(B) and dG(X)(F B); S, db and dfb broadcast over leading axes,
    so a stack of affine terms gives a stack of terms.
    """
    if side == "left":
        return 0.5 * (s @ (db + 1j * dfb))
    if side == "right":
        return 0.5 * ((db - 1j * dfb) @ s)
    raise ModelError("side must be 'left' or 'right'")
