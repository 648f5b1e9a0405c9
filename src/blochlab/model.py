"""Discretized physical model: mode grid, couplings, spin operators.

The continuum transverse one-photon space is replaced by a finite quadrature
grid.  The real mode basis is indexed by (k-point, parity, polarization):
slot(i, c, a) = 4*i + 2*c + a with c in {0: cos, 1: sin} and a in {0, 1}
labelling the transverse frame (eps1, eps2) at k_i.  A phase-space point
X = (q, p) lives in R^{2D} with D = 4 * n_kpoints.

The discrete model is taken as ground truth: the smeared delta rho and the
field couplings are built from the *same* quadrature sum, which makes the
commutation-seed identity

    sigma(E_mx, B_ny) = grad rho(x - y) . (e_m x e_n)

exact at the discrete level (not quadrature-limited).

One layout serves every layer: Model.sigmas stacks the spin matrices
sigma_m^[lam] in (lam, m) order, Model.coupling_list flattens the coupling
vectors B_{m x_lam} in the same order, and the interaction symbol is their
contraction.  The free-transported pairing L . chi_u R that the hierarchy
integrates is flow_pairing: per distinct mode frequency (the single
grouping ModeGrid.frequency_groups, which the oracle's tensor operators
share) one cosine and one sine coefficient, evaluated at a time or on a
grid of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

TWO_PI_POW = (2.0 * np.pi) ** (-1.5)

# Pauli matrices
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class ModelError(ValueError):
    """Raised for invalid model configuration or mismatched dimensions."""


@dataclass(frozen=True)
class PhaseVector:
    """A point X = (q, p) of the discretized phase space R^{2D}."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise ModelError("q and p must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ModelError("non-finite phase-space entries")

    @property
    def dim(self) -> int:
        return self.q.size

    def dot(self, other: "PhaseVector") -> float:
        """Real scalar product on R^{2D}."""
        return float(self.q @ other.q + self.p @ other.p)

    def norm(self) -> float:
        return float(np.sqrt(self.q @ self.q + self.p @ self.p))

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        return PhaseVector(self.q + other.q, self.p + other.p)

    def __sub__(self, other: "PhaseVector") -> "PhaseVector":
        return PhaseVector(self.q - other.q, self.p - other.p)

    def __mul__(self, s: float) -> "PhaseVector":
        return PhaseVector(self.q * s, self.p * s)

    __rmul__ = __mul__


def symplectic_form(x: PhaseVector, y: PhaseVector) -> float:
    """sigma(X, Y) = x_p . y_q - x_q . y_p.

    This is the convention under which the coherent-state overlap phase is
    exp(i sigma(X, Y) / 2h) and the commutation seed below holds with a
    plus sign.
    """
    return float(x.p @ y.q - x.q @ y.p)


def fmap(x: PhaseVector) -> PhaseVector:
    """The complex-structure map F(q, p) = (-p, q)."""
    return PhaseVector(-x.p, x.q)


@dataclass(frozen=True)
class ModeGrid:
    """Finite quadrature discretization of the transverse photon field."""

    kpoints: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,)
    frames: np.ndarray  # (n, 2, 3): (eps1, eps2) per k-point
    omegas: np.ndarray  # (n,) = |k|

    def __post_init__(self):
        k = np.asarray(self.kpoints, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        fr = np.asarray(self.frames, dtype=float)
        om = np.asarray(self.omegas, dtype=float)
        object.__setattr__(self, "kpoints", k)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "frames", fr)
        object.__setattr__(self, "omegas", om)
        if np.any(om <= 0.0):
            raise ModelError("zero k-point in grid")
        if np.any(w <= 0.0):
            raise ModelError("non-positive quadrature weight")
        khat = k / om[:, None]
        eps1, eps2 = fr[:, 0, :], fr[:, 1, :]
        for u, v in ((eps1, eps2), (eps2, eps1)):
            if np.max(np.abs(np.einsum("ij,ij->i", u, khat))) > 1e-14:
                raise ModelError("frame vector not transverse to k")
        if np.max(np.abs(np.einsum("ij,ij->i", eps1, eps2))) > 1e-14:
            raise ModelError("frame not orthogonal")
        if np.max(np.abs(np.linalg.norm(eps1, axis=1) - 1.0)) > 1e-14:
            raise ModelError("eps1 not normalized")
        if np.max(np.abs(np.cross(khat, eps1) - eps2)) > 1e-14:
            raise ModelError("eps2 != khat x eps1")

    @property
    def n_kpoints(self) -> int:
        return self.kpoints.shape[0]

    @property
    def D(self) -> int:
        """Real dimension of the one-photon space (4 slots per k-point)."""
        return 4 * self.n_kpoints

    @property
    def slot_omegas(self) -> np.ndarray:
        """Frequency per mode slot (each omega repeated 4 times)."""
        return np.repeat(self.omegas, 4)

    @cached_property
    def frequency_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct slot frequencies w_g and the group index of each slot."""
        return np.unique(self.slot_omegas, return_inverse=True)


def _frame_for(khat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Pick the coordinate axis least aligned with khat as the seed so that
    # k = e_z yields eps1 = e_x, eps2 = e_y exactly.
    axes = np.eye(3)
    seed = axes[int(np.argmin(np.abs(khat)))]
    eps1 = seed - (seed @ khat) * khat
    n1 = np.linalg.norm(eps1)
    if n1 < 1e-12:
        raise ModelError("degenerate frame seed")
    eps1 /= n1
    eps2 = np.cross(khat, eps1)
    return eps1, eps2


DIRECTION_SETS = {
    "z": np.array([[0.0, 0.0, 1.0]]),
    "octahedral": np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    ),
}


def gaussian_cutoff(lam: float) -> Callable[[np.ndarray], np.ndarray]:
    def chi(r):
        return np.exp(-np.asarray(r) ** 2 / (2.0 * lam**2))

    return chi


@dataclass
class ModelConfig:
    """Model parameters: spins, external field, cutoff and grid."""

    N: int
    positions: np.ndarray  # (N, 3)
    beta: np.ndarray  # (3,)
    cutoff_lambda: float = 1.0
    cutoff_fn: Callable[[np.ndarray], np.ndarray] | None = None
    grid_radial_nodes: int = 1
    grid_kmax: float | None = None
    grid_directions: str | Sequence = "z"
    grid_kpoints: np.ndarray | None = None  # explicit grid override
    grid_weights: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.beta = np.asarray(self.beta, dtype=float)
        if self.N < 1:
            raise ModelError("need at least one spin")
        if self.positions.shape != (self.N, 3):
            raise ModelError("positions must have shape (N, 3)")
        if self.beta.shape != (3,):
            raise ModelError(f"beta must have 3 entries, got shape {self.beta.shape}")
        for i in range(self.N):
            for j in range(i + 1, self.N):
                if np.allclose(self.positions[i], self.positions[j]):
                    raise ModelError("spin positions must be pairwise distinct")
        if self.cutoff_fn is None:
            self.cutoff_fn = gaussian_cutoff(self.cutoff_lambda)


def build_grid(config: ModelConfig) -> ModeGrid:
    """Build the quadrature mode grid from a configuration.

    Either an explicit (kpoints, weights) pair is given, or radial
    Gauss-Legendre nodes on (0, kmax] are combined with a finite direction
    set carrying equal angular weights (solid-angle measure 4 pi split
    evenly, times the radial k^2 volume factor).
    """
    if config.grid_kpoints is not None:
        kpts = np.atleast_2d(config.grid_kpoints)
        if config.grid_weights is None:
            w = np.ones(len(kpts))
        else:
            w = np.asarray(config.grid_weights, dtype=float)
    else:
        if config.grid_radial_nodes < 1:
            raise ModelError("need at least one radial node")
        if config.grid_kmax is None:
            # Gaussian cutoff tail below 1e-12: chi(r)^2 = exp(-r^2/lam^2)
            config_kmax = config.cutoff_lambda * np.sqrt(-np.log(1e-12))
        else:
            config_kmax = float(config.grid_kmax)
        nodes, wts = np.polynomial.legendre.leggauss(config.grid_radial_nodes)
        r = 0.5 * config_kmax * (nodes + 1.0)
        wr = 0.5 * config_kmax * wts
        dirs = config.grid_directions
        if isinstance(dirs, str):
            if dirs not in DIRECTION_SETS:
                raise ModelError(f"unknown direction set {dirs!r}")
            dirs = DIRECTION_SETS[dirs]
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms < 1e-14):
            raise ModelError("zero direction vector")
        dirs = dirs / norms[:, None]
        wang = 4.0 * np.pi / len(dirs)
        kpts = np.array([ri * d for ri in r for d in dirs])
        w = np.array([wri * ri**2 * wang for ri, wri in zip(r, wr) for _ in dirs])
    omegas = np.linalg.norm(kpts, axis=1)
    if np.any(omegas < 1e-14):
        raise ModelError("zero k-point")
    frames = np.empty((len(kpts), 2, 3))
    for i, k in enumerate(kpts):
        frames[i, 0], frames[i, 1] = _frame_for(k / omegas[i])
    return ModeGrid(kpoints=kpts, weights=w, frames=frames, omegas=omegas)


def minimal_grid_config(
    N: int = 1,
    positions=None,
    beta=(0.0, 0.0, 1.0),
) -> ModelConfig:
    """Single k-point grid k = (0, 0, 1), weight 1: the smallest model."""
    if positions is None:
        positions = [[0.5 * i, 0.0, 0.0] for i in range(N)]
    return ModelConfig(
        N=N,
        positions=positions,
        beta=np.asarray(beta, dtype=float),
        grid_kpoints=np.array([[0.0, 0.0, 1.0]]),
        grid_weights=np.array([1.0]),
    )


def _coupling_kernel(grid: ModeGrid, config: ModelConfig, m: int, x):
    """Per k-point amplitudes sqrt(w) A (khat x e_m) . eps_a, shape (n, 2),
    and phases k . x, shape (n, 1), of the magnetic coupling for axis m at x."""
    if m not in (1, 2, 3):
        raise ModelError("axis index m must be 1, 2 or 3")
    om = grid.omegas
    amp = config.cutoff_fn(om) * np.sqrt(om) * TWO_PI_POW
    c = np.cross(grid.kpoints / om[:, None], np.eye(3)[m - 1])
    ca = np.einsum("ij,iaj->ia", c, grid.frames)
    theta = grid.kpoints @ np.asarray(x, dtype=float)
    return (np.sqrt(grid.weights) * amp)[:, None] * ca, theta[:, None]


def coupling_B(grid: ModeGrid, config: ModelConfig, m: int, x) -> PhaseVector:
    """Projection of the magnetic coupling for axis m at point x onto the grid.

    Each grid point stands for the antipodal pair {+k, -k} of the continuum,
    carried by a real mode basis u_{cos,a} = (eps_a, eps_a)/sqrt2 and
    u_{sin,a} = (-i eps_a, +i eps_a)/sqrt2 over the pair.  Expanding the
    continuum coupling i A e^{-+i k.x} (+-khat x e_m) (value at +-k, with
    A = chi(|k|) |k|^{1/2} (2 pi)^{-3/2}) in this basis gives purely real
    coordinates: the coupling is a pure q-vector with

        q[cos slot a] =  sqrt(w) A c_a sin(k.x),
        q[sin slot a] = -sqrt(w) A c_a cos(k.x),   c = khat x e_m.

    With this encoding the symplectic seed identity against grad rho is
    exact on any grid; no antipodal symmetry of the k-set is needed.
    """
    amp, theta = _coupling_kernel(grid, config, m, x)
    q = np.stack([amp * np.sin(theta), -amp * np.cos(theta)], 1)
    return PhaseVector(q.reshape(-1), np.zeros(grid.D))


def coupling_B_gradient(
    grid: ModeGrid, config: ModelConfig, m: int, x
) -> list[PhaseVector]:
    """Spatial gradient [d B_{m x} / d x_l for l = 1..3], exact."""
    amp, theta = _coupling_kernel(grid, config, m, x)
    q = np.stack([amp * np.cos(theta), amp * np.sin(theta)], 1)
    return [
        PhaseVector((q * k[:, None, None]).reshape(-1), np.zeros(grid.D))
        for k in grid.kpoints.T
    ]


# Helicity sign table: +1 when parity index equals frame index.
_HELICITY_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def apply_helicity(grid: ModeGrid, v: PhaseVector) -> PhaseVector:
    """Helicity J (the action of khat x . over each antipodal pair).

    In the real pair basis, khat x u_{c,a} = +-i u_{1-c,1-a} with sign +1
    when c == a, so in complex slot coordinates z_{c,a} -> sign * i *
    z_{1-c,1-a}; with z = q + ip this reads q' = -sign p_flip,
    p' = sign q_flip.  J is complex-linear, J^2 = -identity, and J maps the
    magnetic couplings to the electric ones.
    """
    if v.dim != grid.D:
        raise ModelError("dimension mismatch")
    q = v.q.reshape(-1, 2, 2)  # (kpoint, parity, frame)
    p = v.p.reshape(-1, 2, 2)
    qf = q[:, ::-1, ::-1]
    pf = p[:, ::-1, ::-1]
    return PhaseVector(
        (-_HELICITY_SIGN * pf).reshape(-1), (_HELICITY_SIGN * qf).reshape(-1)
    )


def polarization_project(grid: ModeGrid, sign: int, x: PhaseVector) -> PhaseVector:
    """Circular polarization projectors Pi_+- = (X -+ J F X) / 2."""
    if sign not in (+1, -1):
        raise ModelError("sign must be +1 or -1")
    jfx = apply_helicity(grid, fmap(x))
    if sign > 0:
        return PhaseVector(0.5 * (x.q - jfx.q), 0.5 * (x.p - jfx.p))
    return PhaseVector(0.5 * (x.q + jfx.q), 0.5 * (x.p + jfx.p))


def rho_discrete(
    grid: ModeGrid, config: ModelConfig, x
) -> tuple[float, np.ndarray]:
    """Quadrature smeared delta rho(x) and its gradient.

    rho(x) = (2 pi)^-3 sum_i w_i |chi(|k_i|)|^2 cos(k_i . x); this is the
    exact rho of the discrete model.
    """
    x = np.asarray(x, dtype=float)
    chi2 = np.abs(config.cutoff_fn(grid.omegas)) ** 2
    phases = grid.kpoints @ x
    pref = (2.0 * np.pi) ** (-3)
    val = pref * float(np.sum(grid.weights * chi2 * np.cos(phases)))
    grad = -pref * (grid.weights * chi2 * np.sin(phases)) @ grid.kpoints
    return val, grad


def spin_operator(N: int, lam: int, m: int) -> np.ndarray:
    """Pauli matrix sigma_m acting on spin lam of an N-spin register."""
    if not 1 <= lam <= N:
        raise ModelError("spin index out of range")
    if not 1 <= m <= 3:
        raise ModelError("Pauli index out of range")
    op = np.eye(1, dtype=complex)
    for pos in range(1, N + 1):
        op = np.kron(op, SIGMA[m - 1] if pos == lam else np.eye(2))
    return op


def chi_flow_vector(grid: ModeGrid, t: float, x: PhaseVector) -> PhaseVector:
    """Free flow chi_t: per-mode rotation at frequency omega = |k|."""
    if x.dim != grid.D:
        raise ModelError("dimension mismatch")
    om = grid.slot_omegas
    c, s = np.cos(om * t), np.sin(om * t)
    return PhaseVector(c * x.q + s * x.p, -s * x.q + c * x.p)


def stack_vectors(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The q and p parts of a sequence of phase vectors as rows, (n, D) each."""
    return np.stack([v.q for v in vectors]), np.stack([v.p for v in vectors])


@dataclass(frozen=True)
class FlowPairing:
    """The free-flow pairing of two vector families, split over the distinct
    mode frequencies w_g:

        left[i] . chi_u right[j] = sum_g alpha[g, i, j] cos(w_g u)
                                       + beta[g, i, j] sin(w_g u).
    """

    omegas: np.ndarray  # (G,)
    alpha: np.ndarray  # (G, n_left, n_right)
    beta: np.ndarray

    @cached_property
    def _rows(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta]).reshape(2 * len(self.omegas), -1)

    def __call__(self, u) -> np.ndarray:
        """The pairing at time u, shape (n_left, n_right), or at an array of
        times, shape u.shape + (n_left, n_right)."""
        ang = np.multiply.outer(u, self.omegas)
        trig = np.concatenate([np.cos(ang), np.sin(ang)], -1)
        return (trig @ self._rows).reshape(trig.shape[:-1] + self.alpha.shape[1:])


def flow_pairing(grid: ModeGrid, left, right) -> FlowPairing:
    """FlowPairing of the phase vectors left[i] and right[j] on the grid.

    Per slot, L . chi_u R = cos(w u) (L_q R_q + L_p R_p) + sin(w u) (L_q R_p
    - L_p R_q); the slots of one frequency group are summed once here."""
    uniq, group_of = grid.frequency_groups
    member = (group_of[None, :] == np.arange(len(uniq))[:, None]).astype(float)
    lq, lp = stack_vectors(left)
    rq, rp = stack_vectors(right)
    lq, lp = lq[:, None, :], lp[:, None, :]

    def grouped(slot_terms):  # (n_left, n_right, D) -> (G, n_left, n_right)
        return np.moveaxis(slot_terms @ member.T, 2, 0)

    return FlowPairing(uniq, grouped(lq * rq + lp * rp), grouped(lq * rp - lp * rq))


class Model:
    """Bundle of grid, couplings and spin operators for one configuration."""

    def __init__(self, config: ModelConfig, grid: ModeGrid | None = None):
        self.config = config
        self.grid = grid if grid is not None else build_grid(config)
        self.N = config.N
        self.beta = config.beta
        self.spin_dim = 2**config.N
        # couplings[lam-1][m-1], 0-based storage for 1-based physics indices
        self.couplings = [
            [coupling_B(self.grid, config, m, config.positions[lam]) for m in (1, 2, 3)]
            for lam in range(config.N)
        ]
        self.couplings_E = [
            [apply_helicity(self.grid, b) for b in row] for row in self.couplings
        ]
        # sigma_m^[lam] stacked in (lam, m) order; spin_ops[lam-1][m-1] views it
        self.sigmas = np.array(
            [
                spin_operator(config.N, lam, m)
                for lam in range(1, config.N + 1)
                for m in (1, 2, 3)
            ]
        )
        self.spin_ops = self.sigmas.reshape(config.N, 3, self.spin_dim, self.spin_dim)
        # beta_m per (lam, m), the order of sigmas
        self.site_beta = np.tile(self.beta, config.N)

    @property
    def D(self) -> int:
        return self.grid.D

    @property
    def couplings(self) -> list[list[PhaseVector]]:
        return self._couplings

    @couplings.setter
    def couplings(self, rows) -> None:
        # the coupling tables below are built from the couplings: new
        # couplings drop them, on this model only
        self._couplings = rows
        for name in _COUPLING_TABLES:
            self.__dict__.pop(name, None)

    @property
    def coupling_list(self) -> list[PhaseVector]:
        """B_{m x_lam} in (lam, m) order, the order of sigmas."""
        return [b for row in self.couplings for b in row]

    # Model-constant tables of the hierarchy, each built on first use by the
    # call it stands for and kept, so no call rebuilds them and a plan that
    # never reads them never builds them.

    @cached_property
    def coupling_fmaps(self) -> list[PhaseVector]:
        """F B_{m x_lam} in (lam, m) order."""
        return [fmap(b) for b in self.coupling_list]

    @cached_property
    def radiated_weights(self) -> np.ndarray:
        """The mode amplitudes of the radiated field against the combined
        sources of blochlab.hierarchy._radiated, shape (2, 2, N, 3, D):
        [[-(F B)_q, (F B)_p], [-(F B)_p, -(F B)_q]] as [output part (q, p),
        input part (Re, Im), site, axis, mode]."""
        fq, fp = stack_vectors(self.coupling_fmaps)  # (A, D) each
        weights = np.stack([np.vstack([-fq, fp]), np.vstack([-fp, -fq])])
        return weights.reshape(2, 2, self.N, 3, self.D)

    @cached_property
    def coupling_pairings(self) -> tuple[FlowPairing, FlowPairing]:
        """flow_pairing of the couplings with the couplings and with their F
        images: B_a . chi_s B_b and B_a . chi_s F B_b."""
        bs = self.coupling_list
        return (
            flow_pairing(self.grid, bs, bs),
            flow_pairing(self.grid, bs, self.coupling_fmaps),
        )

    @cached_property
    def site_pairings(self) -> list[FlowPairing]:
        """Per site lam, flow_pairing of its couplings with themselves."""
        return [flow_pairing(self.grid, row, row) for row in self.couplings]

    @cached_property
    def site_field_vectors(self) -> list[list[PhaseVector]]:
        """Per site position, the vectors whose pairing with the radiated
        field gives B^[1] and the terms of its divergences: B_m, d_m B_m and
        J d_m B_m, m = 1..3 each, in that order."""
        grid, config = self.grid, self.config
        out = []
        for pt in config.positions:
            grads = [coupling_B_gradient(grid, config, m, pt)[m - 1] for m in (1, 2, 3)]
            vecs = [coupling_B(grid, config, m, pt) for m in (1, 2, 3)] + grads
            out.append(vecs + [apply_helicity(grid, g) for g in grads])
        return out

    def spin_matrix(self, coefs) -> np.ndarray:
        """sum_a coefs[..., a] sigma_a over the (lam, m) stack."""
        coefs = np.asarray(coefs)
        flat = coefs @ self.sigmas.reshape(len(self.sigmas), -1)
        return flat.reshape(coefs.shape[:-1] + self.sigmas.shape[1:])


# the cached tables of Model that its couplings determine
_COUPLING_TABLES = (
    "coupling_fmaps",
    "radiated_weights",
    "coupling_pairings",
    "site_pairings",
)


def grid_debug_dump(model: Model) -> dict:
    """JSON-serializable dump of grid and couplings for debugging."""
    g = model.grid
    return {
        "version": 1,
        "slot_order": "slot(i, parity, frame) = 4*i + 2*parity + frame",
        "hs_normalization": "unnormalized trace pairing <A,B> = Tr(A B*)",
        "kpoints": g.kpoints.tolist(),
        "weights": g.weights.tolist(),
        "frames": g.frames.tolist(),
        "omegas": g.omegas.tolist(),
        "couplings_B": [
            [{"q": c.q.tolist(), "p": c.p.tolist()} for c in row]
            for row in model.couplings
        ],
        "couplings_E": [
            [{"q": c.q.tolist(), "p": c.p.tolist()} for c in row]
            for row in model.couplings_E
        ],
    }
