"""Semiclassical hierarchy of an evolved observable's Wick symbol.

For affine observables A(X) = (F_A . X) I + S_A the evolved symbol expands
in powers of h.  Order 0 is classical transport of the field part plus
conjugation of the spin part by the propagator G(t, 0, X); higher orders
follow a Duhamel recursion whose forcing pairs the constant gradient of
the interaction symbol with directional derivatives of the previous order.

Two independent computational paths exist for the first-order objects:
the recursion (order_j) and the sourced Maxwell / corrected Bloch systems
(maxwell_cross_check, spin_correction1).  Their agreement is the main
internal consistency check of the module.

Every coupling pairing of the module, the site fields beta + B_a . chi_u X
that drive the precession as well as the kernels B_a . chi_s B_b of the
double integrals, is one blochlab.model.flow_pairing: a finite cosine/sine
sum over the distinct mode frequencies, built once per call and evaluated
at a time or on a grid of times.

Each shared formula has one implementation.  The C^1 composition term is
blochlab.symbols.c1_affine: the Duhamel forcing of every order is
i (C1(sigma, A) - C1(A, sigma)) of it (_duhamel_forcing), and the
photon-rate term C1(E^0, S^0) takes it the two rotation tangents.  The
cross-product matrix of the precession (_cross_mat) and the contraction
of a site rotation with the site's spin operators (_site_spins) are
batched over leading axes, so the adaptive right-hand sides and the grid
sweeps share them.

Both first-order paths are trapezoid quadratures on uniform grids of n
nodes, refined by doubling.  Their pairing kernels separate in the two
time arguments, so both reduce to one flow-kernel convolution
(_lag_convolution): suffix integrals for the inner layer of the order-1
recursion, prefix integrals for the tangent contraction of the Bloch
correction, each O(n) per grid.  The fixed-substep RK4 sweeps that
feed them (_propagator_sweep, _maxwell_sweep) integrate linear systems:
they evaluate their generators on the half-step stage grid and take every
substep as an RK4 transfer map (blochlab.stepper.rk4_transfer), so a sweep
multiplies small matrices instead of calling a right-hand side.  The
Maxwell sweep's mode amplitudes are one recurrence per frequency group,
summed for all substeps at once.  The substep is capped at 0.01 whatever
the tolerance, so the sweeps carry an RK4 error floor of their own that
grid doubling does not control.  Measured on the desk model against the
adaptive paths at tol 1e-14: at t = 1 (substep 0.0078) the rotation is off
by 9.1e-10 and the propagator by 3.1e-11, at t = 4 the rotation by 9.0e-9.
The crosscheck deviations this leaves on the desk plan (up to 2.9e-9 at
t <= 2) stay under the 1e-6 gate; choosing the substep from the tolerance
is ROADMAP.md item 2.  The adaptive integrations (propagator_G,
the order-0 rotations and their tangents) evaluate the pairing inside the
right-hand side and run blochlab.stepper.integrate_adaptive with a first
step of 1e-2.

Every first-order object at a point (t, X) reads the same grid sweeps, so
a shared_sweeps(model, t, X) scope integrates each sweep (kind, n) once
and hands the stored, read-only arrays to every later consumer at that
(t, X): the spin and field order_j calls of all axes, spin_correction1 of
every site and first_order_modes.  A sweep for another model, t or X (the
inner points of _order_high) integrates as usual.  The table lives in a
context variable, so each pool thread has its own, and it is dropped when
the scope exits; compute_hierarchy and each t job of run_crosscheck open
one.
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from blochlab.model import (
    Model,
    ModelError,
    PhaseVector,
    apply_helicity,
    chi_flow_vector,
    coupling_B,
    coupling_B_gradient,
    flow_pairing,
    fmap,
    stack_vectors,
)
from blochlab.oracle import ObservableSpec, field_coupling
from blochlab.stepper import PropagationLog, integrate_adaptive, rk4_transfer
from blochlab.symbols import c1_affine


class HierarchyError(ModelError):
    """Grid-refinement failures and invalid arguments."""


# first step of the hierarchy's adaptive integrations
_DT0 = 1e-2

# resolved empirically against the exact photon-rate oracle; see the
# commutator (i/h)[H, N (x) I] = - sum Phi_{S,h}(F B) (x) sigma
PHOTON_RATE_SIGN = -1.0

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS3[_i, _j, _k], _EPS3[_i, _k, _j] = 1.0, -1.0
# C_ij = -eps_ijk x_k as the linear map x_k -> (i, j)
_CROSS_MAP = -_EPS3.reshape(9, 3).T


def _cross_mat(x: np.ndarray) -> np.ndarray:
    """C(x) with C(x) v = x cross v, batched over the leading axes of x."""
    return (x @ _CROSS_MAP).reshape(x.shape[:-1] + (3, 3))


def _site_spins(r: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Spin matrices sum_k r[..., m, k] ops[k] of a site rotation (or of its
    tangent) against the site's spin operators, batched over leading axes."""
    return np.einsum("...mk,kab->...mab", r, ops)


# ---------------------------------------------------------------------------
# propagator


@dataclass
class PropagatorState:
    """Unitary spin propagator G(t, 0, X) with its integration log."""

    matrix: np.ndarray
    log: PropagationLog

    @property
    def unitarity_defect(self) -> float:
        g = self.matrix
        return float(np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])))


def _polar_project(g: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def propagator_G(
    model: Model, t: float, x: PhaseVector, tol: float = 1e-8
) -> PropagatorState:
    """Solve dG/dt = i G H_int(chi_t X), G(0, 0) = I."""
    if tol <= 0:
        raise HierarchyError("tol must be positive")
    eye = np.eye(model.spin_dim, dtype=complex)
    pairing = flow_pairing(model.grid, model.coupling_list, [x])

    def rhs(u, g):
        return 1j * (g @ model.spin_matrix(model.site_beta + pairing(u)[:, 0]))

    def post(g):
        if np.linalg.norm(g.conj().T @ g - eye) > tol / 10.0:
            return _polar_project(g)
        return g

    g, log = integrate_adaptive(rhs, eye, 0.0, t, tol, _DT0, postprocess=post)
    return PropagatorState(matrix=g, log=log)


def _panel_stages(t: float, n: int):
    """Substeps per panel (substep <= 0.01), the substep and the half-step
    stage times of n panels over [0, t]."""
    panel = t / n
    sub = max(1, int(np.ceil(abs(panel) / 0.01)))
    dt = panel / sub
    return sub, dt, 0.5 * dt * np.arange(2 * n * sub + 1)


def _panel_split(table, n, sub):
    """Start, middle and end stages of every substep from a half-step stage
    table, each of shape (n, sub, ...): stage j of substep k in panel i is
    2 (i sub + k) + {0, 1, 2}."""
    shape = (n, sub) + table.shape[1:]
    return tuple(table[j : j + 2 * n * sub : 2].reshape(shape) for j in range(3))


# (model, t, X, {(kind, n): sweep}) of the innermost shared_sweeps scope
_SWEEPS = contextvars.ContextVar("blochlab_hierarchy_sweeps", default=None)


@contextmanager
def shared_sweeps(model: Model, t: float, x: PhaseVector):
    """Integrate each grid sweep of (model, t, X) at most once per n inside
    the block.  Model and X are matched by identity."""
    token = _SWEEPS.set((model, t, x, {}))
    try:
        yield
    finally:
        _SWEEPS.reset(token)


def _shared(sweep):
    """Serve sweep(model, t, x, n) from the open scope's table, integrating
    on a miss; a call for another model, t or X bypasses the table.  The
    returned arrays are read-only, since later consumers read them too."""

    @functools.wraps(sweep)
    def lookup(model, t, x, n):
        scope = _SWEEPS.get()
        hit = scope and scope[0] is model and scope[1] == t and scope[2] is x
        table = scope[3] if hit else {}
        key = (sweep.__name__, n)
        if key not in table:
            out = sweep(model, t, x, n)
            for a in out if isinstance(out, tuple) else (out,):
                a.setflags(write=False)
            table[key] = out
        return table[key]

    return lookup


@_shared
def _propagator_sweep(model: Model, t: float, x: PhaseVector, n: int) -> np.ndarray:
    """G(u_i, 0, X) on the uniform grid u_i = i t / n, shape (n+1, sd, sd).

    Fixed-substep RK4 between nodes (substep <= 0.01) with polar projection
    at each node.  The substep does not follow the tolerance, so the sweep
    has an error floor of its own: 3.1e-11 in G at t = 1 on the desk model
    (see the module docstring; ROADMAP.md item 2 owns the fix).
    """
    sd = model.spin_dim
    out = np.empty((n + 1, sd, sd), dtype=complex)
    g = np.eye(sd, dtype=complex)
    out[:] = g
    if t == 0.0 or n == 0:
        return out
    sub, dt, stage = _panel_stages(t, n)

    # H_int(chi_u X) on the half-step grid, assembled in one vectorized pass
    pairing = flow_pairing(model.grid, model.coupling_list, [x])
    h_stage = model.spin_matrix(model.site_beta + pairing(stage)[:, :, 0])
    # dG/du = G (i H) steps as G -> G psi, psi the transposed transfer map
    # of the transposed generator; then the substep product of each panel
    phi, _ = rk4_transfer(*_panel_split(1j * h_stage.swapaxes(1, 2), n, sub), dt)
    psi = phi.swapaxes(-1, -2)
    panel = psi[:, 0]
    for k in range(1, sub):
        panel = panel @ psi[:, k]
    for i in range(n):
        g = _polar_project(g @ panel[i])
        out[i + 1] = g
    return out


# ---------------------------------------------------------------------------
# observables in affine form


def observable_form(model: Model, obs: ObservableSpec):
    """(F_A, S_A) with A(X) = (F_A . X) I + S_A; either part may be None."""
    if obs.kind == "spin":
        return None, model.spin_ops[obs.lam - 1][obs.m - 1]
    if obs.kind.startswith("field"):
        return field_coupling(model, obs), None
    raise HierarchyError(
        "number_rate is not affine in this sense; use photon_rate_expansion"
    )


def order0(
    model: Model, obs: ObservableSpec, t: float, x: PhaseVector, tol: float = 1e-8
) -> np.ndarray:
    """A^[0](t, X) = (F_A . chi_t X) I + G(t,0,X) S_A G(t,0,X)*."""
    f_a, s_a = observable_form(model, obs)
    sd = model.spin_dim
    out = np.zeros((sd, sd), dtype=complex)
    if f_a is not None:
        out += f_a.dot(chi_flow_vector(model.grid, t, x)) * np.eye(sd)
    if s_a is not None:
        g = propagator_G(model, t, x, tol).matrix
        out += g @ s_a @ g.conj().T
    return out


# ---------------------------------------------------------------------------
# quadrature helpers


def _trap_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _refine(compute, tol, n0=32, nmax=4096, label="quadrature"):
    """Double the grid until the trapezoid result settles, then extrapolate."""
    prev = compute(n0)
    n = n0
    while n < nmax:
        n *= 2
        cur = compute(n)
        scale = max(1.0, float(np.max(np.abs(cur))))
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol * scale:
            return cur + (cur - prev) / 3.0
        prev = cur
    raise HierarchyError(f"{label} did not converge below tol={tol}")


# ---------------------------------------------------------------------------
# order j >= 1 via the Duhamel recursion


def _duhamel_forcing(sig, db, dfb):
    """The Duhamel forcing i (C1(sigma, A) - C1(A, sigma)) of coupling spins
    sigma against the previous order A, given dA(B) and dA(F B) along the
    coupling B of each sigma; broadcasts over leading axes."""
    return 1j * (c1_affine(sig, db, dfb, "left") - c1_affine(sig, db, dfb, "right"))


def _lag_convolution(omegas, dt, f, suffix):
    """Cosine and sine parts of the flow-kernel convolution on the uniform
    grid u_i = i dt, for every node u and distinct mode frequency g:

        suffix:  int_u^t cos/sin(g (w - u)) f(w) dw
        prefix:  int_0^u cos/sin(g (u - w)) f(w) dw

    by trapezoid quadrature, with f of shape (n+1, ...).  A pairing kernel
    sum_g alpha cos(g s) + beta sin(g s) separates in (w, u), so both come
    from the running integrals of cos(g w) f(w) and sin(g w) f(w): O(n) work.
    Returns shape (2, G, n+1, ...), cosine part first."""
    phase = np.multiply.outer(omegas, dt * np.arange(len(f)))
    cs = np.stack([np.cos(phase), np.sin(phase)])
    c, s = cs = cs.reshape(cs.shape + (1,) * (f.ndim - 1))
    inc = cs * f
    inc = 0.5 * dt * (inc[:, :, :-1] + inc[:, :, 1:])
    # running integrals of cos(g w) f(w) and sin(g w) f(w) over the suffix
    # or prefix of each node, then rotated into the two parts in place, so
    # that a grid of n = 4096 nodes holds few arrays of this size at once
    out = np.zeros(inc.shape[:2] + f.shape, dtype=inc.dtype)
    if suffix:
        np.cumsum(inc[:, :, ::-1], axis=2, out=out[:, :, -2::-1])
    else:
        np.cumsum(inc, axis=2, out=out[:, :, 1:])
    del inc
    rc, rs = out
    rc_start = rc.copy()
    rc *= c
    rc += s * rs
    rs *= c
    rs -= s * rc_start
    if not suffix:
        np.negative(rs, out=rs)
    return out


def _order1_on_grid(model, obs, t, x, n):
    f_a, s_a = observable_form(model, obs)
    bs = model.coupling_list
    fbs = [fmap(b) for b in bs]
    T = _propagator_sweep(model, t, x, n)
    dt = t / n
    w = _trap_weights(n, dt)
    # conjugated coupling spins Sig[i, a] = T_i sigma_a T_i*
    Sig = np.einsum("iab,qbc,idc->iqad", T, model.sigmas, T.conj())

    if s_a is None:
        # pure field: Phi^[0](s) = - sum_a (F_A . chi_s F B_a) sigma_a,
        # X-independent, so only the conjugated spins enter.
        r = t - dt * np.arange(n + 1)
        ctab = flow_pairing(model.grid, [f_a], fbs)(r)[:, 0]  # (n+1, A)
        return -np.einsum("i,ia,iacd->cd", w, ctab, Sig)

    # spin observable.  The inner Duhamel layer needs, for every u and both
    # pairings P of B with B and with F B,
    #   N_P(u) = i int_u^t P_{a'a}(w - u) Sig_{a'}(w) dw,
    # a suffix flow-kernel convolution: the stacked [cos; sin] parts against
    # the stacked [alpha; beta] of both pairings, one product for the pair.
    sd = model.spin_dim
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
    return np.einsum("i,icd->cd", w, term.sum(axis=1))


def order_j(
    model: Model,
    obs: ObservableSpec,
    j: int,
    t: float,
    x: PhaseVector,
    tol: float = 1e-7,
) -> np.ndarray:
    """j-th hierarchy coefficient A^[j](t, X) of an affine observable."""
    if j < 1:
        raise HierarchyError("order_j handles j >= 1; use order0")
    sd = model.spin_dim
    if t == 0.0:
        return np.zeros((sd, sd), dtype=complex)
    if j == 1:
        return _refine(
            lambda n: _order1_on_grid(model, obs, t, x, n),
            tol,
            label="order-1 Duhamel quadrature",
        )
    return _order_high(model, obs, j, t, x, tol)


def _central_difference(f, x: PhaseVector, v: PhaseVector):
    """(f(X + s V) - f(X - s V)) / 2s with s = 1e-5 / |V|, for V != 0."""
    step = 1e-5 / v.norm()
    return (f(x + step * v) - f(x - step * v)) / (2.0 * step)


def _directional_prev(model, obs, jm1, s, y, vs, tol):
    """Central-difference directional derivatives of A^[j-1](s, .) at y
    along each V of vs, stacked."""

    def prev(z):
        if jm1 == 0:
            return order0(model, obs, s, z, tol)
        return order_j(model, obs, jm1, s, z, tol)

    zero = np.zeros((model.spin_dim, model.spin_dim), dtype=complex)
    return np.stack([_central_difference(prev, y, v) if v.norm() else zero for v in vs])


def _order_high(model, obs, j, t, x, tol):
    """Orders j >= 2: the same Duhamel integral with finite-difference
    tangents of the previous order.  Accurate to the FD floor (~1e-8)."""
    bs = model.coupling_list
    fbs = [fmap(b) for b in bs]

    def on_grid(n):
        T = _propagator_sweep(model, t, x, n)
        dt = t / n
        w = _trap_weights(n, dt)
        acc = np.zeros((model.spin_dim, model.spin_dim), dtype=complex)
        for i in range(n + 1):
            u = i * dt
            y = chi_flow_vector(model.grid, u, x)
            db, dfb = (
                _directional_prev(model, obs, j - 1, t - u, y, vs, tol * 0.1)
                for vs in (bs, fbs)
            )
            phi = _duhamel_forcing(model.sigmas, db, dfb).sum(axis=0)
            acc += w[i] * (T[i] @ phi @ T[i].conj().T)
        return acc

    return _refine(on_grid, max(tol, 1e-6), n0=16, nmax=256, label="order-j quadrature")


# ---------------------------------------------------------------------------
# order-0 Bloch spins and tangents


@dataclass
class SpinTriple:
    """S_m^{[lam, j]}(t, X) for m = 1..3 as spin-register matrices."""

    lam: int
    rotation: np.ndarray | None  # SO(3) path endpoint, order 0 only
    matrices: np.ndarray  # (3, sd, sd)


def _rotation_endpoint(model, lam, t, x, tol) -> np.ndarray:
    """R(t) of dR/du = 2 C(b(u)) R, with the site field b_m(u) = beta_m +
    B_{m x_lam} . chi_u X."""
    pairing = flow_pairing(model.grid, model.couplings[lam], [x])

    def rhs(u, r):
        return 2.0 * _cross_mat(model.beta + pairing(u)[:, 0]) @ r

    r, _ = integrate_adaptive(rhs, np.eye(3), 0.0, t, tol, _DT0)
    return np.real(r)


def bloch_spin0(
    model: Model, t: float, x: PhaseVector, tol: float = 1e-8
) -> list[SpinTriple]:
    """Integrate dS/dt = 2 (beta + B^[0](x_lam, t, X)) x S, S(0) = sigma."""
    if tol <= 0:
        raise HierarchyError("tol must be positive")
    out = []
    for lam in range(model.N):
        r = _rotation_endpoint(model, lam, t, x, tol)
        mats = _site_spins(r, model.spin_ops[lam])
        out.append(SpinTriple(lam=lam + 1, rotation=r, matrices=mats))
    return out


@dataclass
class TangentBundleState:
    """The finite-difference check of the order-0 tangent along V: the
    relative residual of the tangent system against central differences."""

    residual: float


def _rotation_tangent(model, lam, t, x, v, tol):
    """Joint (R, dR) integration of the linearized site-Bloch system."""
    pairing = flow_pairing(model.grid, model.couplings[lam], [x, v])

    def rhs(u, y):
        r, d = y[0], y[1]
        b = pairing(u)  # (3, 2): B_m . chi_u X, B_m . chi_u V
        om = 2.0 * _cross_mat(model.beta + b[:, 0])
        return np.stack([om @ r, om @ d + 2.0 * _cross_mat(b[:, 1]) @ r])

    y0 = np.stack([np.eye(3), np.zeros((3, 3))])
    y, _ = integrate_adaptive(rhs, y0, 0.0, t, tol, _DT0)
    return np.real(y[0]), np.real(y[1])


def tangent_derivatives(
    model: Model,
    lam: int,
    v: PhaseVector,
    t: float,
    x: PhaseVector,
    tol: float = 1e-8,
) -> TangentBundleState:
    """Check the tangent system of the site-lam rotation along V against a
    central difference of the rotation endpoint.  The residual is returned,
    not enforced: run_crosscheck's tangent-fd-residual hygiene entry gates
    it."""
    if not 1 <= lam <= model.N:
        raise HierarchyError(f"site index lam={lam} outside 1..{model.N}")
    if v.norm() == 0.0:
        return TangentBundleState(residual=0.0)
    _, d = _rotation_tangent(model, lam - 1, t, x, v, tol)
    fd = _central_difference(
        lambda z: _rotation_endpoint(model, lam - 1, t, z, tol), x, v
    )
    return TangentBundleState(
        residual=float(np.linalg.norm(fd - d) / max(np.linalg.norm(d), 1.0))
    )


# ---------------------------------------------------------------------------
# sourced Maxwell cross-check


@_shared
def _maxwell_sweep(model: Model, t: float, x: PhaseVector, n: int):
    """Jointly integrate per-site rotations R^mu and the matrix-valued
    first-order mode amplitudes Z on a uniform grid.

    dZ_q = omega Z_p, dZ_p = -omega Z_q, sourced by - sum_a (F B_a) S_a^0(u).
    The site fields beta + B . chi_u X are evaluated once on the half-step
    stage grid of the fixed-substep RK4 (substep <= 0.01), and the RK4 steps
    of the joint linear system are taken as transfer maps.
    Returns (R_path (n+1, N, 3, 3), Z_path (n+1, 2, D, sd, sd))."""
    D, sd, N = model.D, model.spin_dim, model.N
    bs = model.coupling_list
    # source weights [F B_a]_q and [F B_a]_p, shape (2, D, A)
    fq, fp = np.stack(stack_vectors([fmap(b) for b in bs])).transpose(0, 2, 1)

    r_path = np.empty((n + 1, N, 3, 3))
    r_path[:] = np.eye(3)
    z_path = np.zeros((n + 1, 2, D, sd, sd), dtype=complex)
    if t == 0.0 or n == 0:
        return r_path, z_path
    sub, dt, stage = _panel_stages(t, n)
    steps = n * sub

    # 2 C(b^lam(u)) on the half-step grid, with b_m = beta_m + B_{m x_lam} . chi_u X
    fields = model.site_beta + flow_pairing(model.grid, bs, [x])(stage)[:, :, 0]
    gen = 2.0 * _cross_mat(fields.reshape(-1, N, 3))
    phi, maps = rk4_transfer(*_panel_split(gen, n, sub), dt)

    # R: one 3x3 product per site and substep
    phi = phi.reshape(steps, N, 3, 3)
    r = np.empty((steps + 1, N, 3, 3))
    r[0] = np.eye(3)
    for k in range(steps):
        np.matmul(phi[k], r[k], out=r[k + 1])
    r_path[1:] = r[sub::sub]

    # Z, per frequency group on W = Z_q + i Z_p: W' = (x / dt) W - src(R),
    # x = -i w_g dt, src = (F B)_{q + i p} S(R) linear in R.  One RK4 step is
    # W -> mu(x) W - dt/6 sum_i c_i(x) src(y_i) over the stage states y_i of
    # R, with mu = 1 + x + x^2/2 + x^3/6 + x^4/24 and
    # c = (1 + x + x^2/2 + x^3/4, 2 + x + x^2/2, 2 + x, 1).  The stages are
    # combined, and the recurrence summed, in rotation space; the spin
    # matrices and mode weights enter only at the nodes.
    y1 = r[:steps]
    y2, y3, y4 = (m.reshape(steps, N, 3, 3) @ y1 for m in maps)
    uniq, group_of = model.grid.frequency_groups
    xg = (-1j * dt * uniq)[:, None, None, None, None]
    comb = y1 / 4 * xg + (y1 + y2) / 2
    comb = (comb * xg + (y1 + y2 + y3)) * xg + (y1 + 2 * (y2 + y3) + y4)
    mu = 1 + xg * (1 + xg * (1 / 2 + xg * (1 / 6 + xg / 24)))
    # a_{k+1} = mu a_k + comb_k by recursive doubling: the partial sums only
    # ever carry powers of mu, |mu| <= 1, so no weight grows
    span, power = 1, mu
    while span < steps:
        comb[:, span:] += power * comb[:, :-span]
        span, power = 2 * span, power * power
    acc = dt / 6 * comb[:, sub - 1 :: sub]  # (G, n, N, 3, 3)
    # Z_q = -(F B)_q S(Re acc) + (F B)_p S(Im acc),
    # Z_p = -(F B)_p S(Re acc) - (F B)_q S(Im acc), one real product per group
    sig = model.sigmas.reshape(N, 3, sd * sd)
    weights = np.stack([np.hstack([-fq, fp]), np.hstack([-fp, -fq])])  # (2, D, 2A)
    for g in range(len(uniq)):
        parts = np.stack([acc[g].real @ sig, acc[g].imag @ sig])  # (2, n, N, 3, sd^2)
        rows = parts.reshape(2, n, 3 * N, -1).transpose(0, 2, 1, 3).reshape(6 * N, -1)
        modes = group_of == g
        zg = (weights[:, modes].reshape(-1, 6 * N) @ rows.view(float)).view(complex)
        z_path[1:, :, modes] = zg.reshape(2, -1, n, sd, sd).transpose(2, 0, 1, 3, 4)
    return r_path, z_path


def _contract_field(vec: PhaseVector, z: np.ndarray) -> np.ndarray:
    """(vec . Z) for matrix-valued mode amplitudes Z of shape (2, D, sd, sd)."""
    return np.einsum("j,jcd->cd", vec.q, z[0]) + np.einsum("j,jcd->cd", vec.p, z[1])


@dataclass
class MaxwellCheckReport:
    """Dual-path comparison of the first-order radiated field."""

    max_rel_dev: float
    div_b_residual: float
    div_e_residual: float


def first_order_modes(
    model: Model, t: float, x: PhaseVector, tol: float = 1e-7
) -> np.ndarray:
    """Matrix-valued mode amplitudes Z(t) of the sourced Maxwell system."""

    def endpoint(n):
        _, z = _maxwell_sweep(model, t, x, n)
        return z[-1]

    return _refine(endpoint, tol, n0=32, label="sourced Maxwell integration")


def maxwell_cross_check(
    model: Model, t: float, x: PhaseVector, tol: float = 1e-6
) -> MaxwellCheckReport:
    """Compare B^[1] from the sourced mode system against the recursion at
    every spin site, with the analytic divergence of the reconstructed
    first-order fields."""
    z = first_order_modes(model, t, x, tol=min(tol, 1e-7))
    max_dev = div_b = div_e = 0.0
    for pt in (np.asarray(p, dtype=float) for p in model.config.positions):
        acc_b = np.zeros((model.spin_dim,) * 2, dtype=complex)
        acc_e = np.zeros_like(acc_b)
        for m in (1, 2, 3):
            lhs = _contract_field(coupling_B(model.grid, model.config, m, pt), z)
            obs = ObservableSpec(kind="field_B", m=m, x=pt)
            rhs = order_j(model, obs, 1, t, x, tol=min(tol * 0.1, 1e-7))
            scale = np.maximum(np.linalg.norm(rhs), 1e-12)
            # an infinite coefficient gives inf / inf: a NaN, and a failed check
            with np.errstate(invalid="ignore"):
                dev = np.linalg.norm(lhs - rhs) / scale
            max_dev = np.maximum(max_dev, dev)
            grads = coupling_B_gradient(model.grid, model.config, m, pt)
            acc_b += _contract_field(grads[m - 1], z)
            acc_e += _contract_field(apply_helicity(model.grid, grads[m - 1]), z)
        div_b = np.maximum(div_b, np.linalg.norm(acc_b))
        div_e = np.maximum(div_e, np.linalg.norm(acc_e))
    # np.maximum keeps a NaN, so a non-finite comparison fails its check
    return MaxwellCheckReport(
        max_rel_dev=float(max_dev),
        div_b_residual=float(div_b),
        div_e_residual=float(div_e),
    )


# ---------------------------------------------------------------------------
# first-order Bloch correction


def _spin1_on_grid(model, lam, t, x, n):
    """S^{[lam, 1]}(t, X) by variation of constants around the order-0
    rotation, with the radiated-field coupling and the tangent contraction
    K built from dB^[0] pairings along the coupling directions.

    The contraction at node w is a prefix flow-kernel convolution over
    u <= w,

        kappa(w) = -2 eps[n,c,a] R_w[a,r] sum_u pbb[c,m,w-u] Y_u[m,r,q],
        Y_u[m,r,q] = R_u[p,r] eps[m,p,k] R_u[k,q],

    whose kernel pbb[c,m,s] = B_c . chi_s B_m is a finite cosine/sine sum
    over the distinct mode frequencies (_lag_convolution)."""
    r_all, z_path = _maxwell_sweep(model, t, x, n)
    r_path = r_all[:, lam]  # (n+1, 3, 3)
    dt = t / n
    w = _trap_weights(n, dt)
    sig = model.spin_ops[lam]
    bsl = model.couplings[lam]

    # radiated-field coupling, symmetrized: eps_{nab} {B^1_a, S^0_b}
    bq, bp = stack_vectors(bsl)
    b1 = np.einsum("aj,ijcd->iacd", bq, z_path[:, 0]) + np.einsum(
        "aj,ijcd->iacd", bp, z_path[:, 1]
    )
    s0 = _site_spins(r_path, sig)
    cpl = np.einsum("nab,iacd,ibde->ince", _EPS3, b1, s0) + np.einsum(
        "nab,ibcd,iade->ince", _EPS3, s0, b1
    )

    # K(w): same-site contraction of coupling pairings with the rotation
    # transport; pbb[c,m,w-u] = sum_g alpha cos(g(w-u)) + beta sin(g(w-u))
    pairing = flow_pairing(model.grid, bsl, bsl)
    y = np.einsum("upr,mpk,ukq->umrq", r_path, _EPS3, r_path)
    lag = _lag_convolution(pairing.omegas, dt, y, suffix=False)  # (2, G, n+1, ...)
    coef = np.stack([pairing.alpha, pairing.beta])  # (2, G, 3, 3)
    conv = np.einsum("kgcm,kgwmrq->wcrq", coef, lag)
    kappa = -2.0 * np.einsum("nca,war,wcrq->wnq", _EPS3, r_path, conv)

    # out = sum_w w_w (R_t R_w^T) (cpl(w) + kappa(w) . sigma)
    trans = w[:, None, None] * (r_path[n] @ r_path.transpose(0, 2, 1))
    return np.einsum("wnp,wpcd->ncd", trans, cpl) + np.einsum(
        "nq,qcd->ncd", np.einsum("wnp,wpq->nq", trans, kappa), sig
    )


def spin_correction1(
    model: Model, t: float, x: PhaseVector, tol: float = 1e-6
) -> list[SpinTriple]:
    """First-order spin correction S^{[lam, 1]}(t, X), one triple per site."""
    if tol <= 0:
        raise HierarchyError("tol must be positive")
    out = []
    for lam in range(model.N):
        if t == 0.0:
            mats = np.zeros((3, model.spin_dim, model.spin_dim), dtype=complex)
        else:
            mats = _refine(
                lambda n: _spin1_on_grid(model, lam, t, x, n),
                tol * 0.1,
                label="spin-correction quadrature",
            )
        out.append(SpinTriple(lam=lam + 1, rotation=None, matrices=mats))
    return out


# ---------------------------------------------------------------------------
# photon-rate expansion


def photon_rate_expansion(
    model: Model, t: float, x: PhaseVector, M: int, tol: float = 1e-7
) -> list[np.ndarray]:
    """Coefficients N^[0..M](t, X) of the photon-rate symbol.

    N^[0] = sign * sum_a (F B_a . chi_t X) S_a^{[0]}(t, X); the first
    correction collects the three order-one cross terms of the composition
    of the polarized-field and spin expansions."""
    if M < 0:
        raise HierarchyError("expansion order must be nonnegative")
    if M > 1:
        raise HierarchyError("photon-rate expansion is provided to order 1")
    sd = model.spin_dim
    y = chi_flow_vector(model.grid, t, x)
    spins0 = bloch_spin0(model, t, x, tol=min(tol, 1e-9))
    n0 = np.zeros((sd, sd), dtype=complex)
    for lam in range(model.N):
        for m in range(3):
            e0 = fmap(model.couplings[lam][m]).dot(y)
            n0 += PHOTON_RATE_SIGN * e0 * spins0[lam].matrices[m]
    orders = [n0]
    if M == 0:
        return orders

    n1 = np.zeros((sd, sd), dtype=complex)
    eye = np.eye(sd)
    spins1 = spin_correction1(model, t, x, tol=max(tol, 1e-7))
    for lam in range(model.N):
        pos = model.config.positions[lam]
        for m in range(3):
            fb = fmap(model.couplings[lam][m])
            e0 = fb.dot(y)
            # C^0(E^1, S^0): first-order polarized field times order-0 spin
            obs = ObservableSpec(kind="field_E_pol", m=m + 1, x=pos)
            e1 = PHOTON_RATE_SIGN * order_j(model, obs, 1, t, x, tol=tol)
            n1 += e1 @ spins0[lam].matrices[m]
            # C^0(E^0, S^1)
            n1 += PHOTON_RATE_SIGN * e0 * spins1[lam].matrices[m]
            # C^1(E^0, S^0): the polarized field is affine in X with
            # gradient along the transported coupling.  Only dS is read, so
            # the tangent skips tangent_derivatives' finite-difference probe;
            # run_crosscheck's tangent-fd-residual hygiene check runs it
            wvec = chi_flow_vector(model.grid, -t, fb)
            tangents = [
                _rotation_tangent(model, lam, t, x, v, min(tol, 1e-8))[1]
                for v in (wvec, fmap(wvec))
            ]
            db, dfb = _site_spins(np.stack(tangents), model.spin_ops[lam])[:, m]
            n1 += c1_affine(PHOTON_RATE_SIGN * eye, db, dfb, "left")
    orders.append(n1)
    return orders


# ---------------------------------------------------------------------------
# one observable's expansion


def compute_hierarchy(
    model: Model,
    obs: ObservableSpec,
    t: float,
    x: PhaseVector,
    M: int,
    tol: float = 1e-7,
) -> list[np.ndarray]:
    """Coefficients A^[0..M](t, X) of the evolved-symbol expansion for one
    observable."""
    with shared_sweeps(model, t, x):
        if obs.kind == "number_rate":
            return photon_rate_expansion(model, t, x, M, tol=tol)
        orders = [order0(model, obs, t, x, tol=min(tol, 1e-9))]
        for j in range(1, M + 1):
            orders.append(order_j(model, obs, j, t, x, tol=tol))
        return orders
