"""Semiclassical hierarchy of an evolved observable's Wick symbol.

For affine observables A(X) = (F_A . X) I + S_A the evolved symbol expands
in powers of h.  Order 0 is classical transport of the field part plus
conjugation of the spin part by the propagator G(t, 0, X); order 1
follows a Duhamel recursion whose forcing pairs the constant gradient of
the interaction symbol with directional derivatives of order 0.  Orders
j >= 2 are refused (order_j) until they come with checks of their own
(ROADMAP.md item 3).

Two independent computational paths exist for the first-order objects:
the recursion (order_j) and the sourced Maxwell / corrected Bloch systems
(maxwell_cross_check, spin_correction1).  Their agreement is the main
internal consistency check of the module.  Every coefficient the sweep
reports, the photon rate's included, comes from the recursion;
spin_correction1 is only the dual path of run_crosscheck.

Every coupling pairing of the module, the site fields beta + B_a . chi_u X
that drive the precession as well as the kernels B_a . chi_s B_b of the
double integrals, is one blochlab.model.flow_pairing: a finite cosine/sine
sum over the distinct mode frequencies, built once per call and evaluated
at a time or on a grid of times.

Each shared formula has one implementation.  The C^1 composition term is
blochlab.symbols.c1_affine: the Duhamel forcing of every order is
i (C1(sigma, A) - C1(A, sigma)) of it (_duhamel_forcing), and the
photon-rate term C1(E^0, S^0) takes it the two rotation tangents.  Order
1 sums that forcing without evaluating it node by node: it is linear in
K = T_n S_A T_n*, so _order1_contraction folds the weighted node sum into
one linear map of K, and the tests hold it to 1e-13 of the per-node
_duhamel_forcing sum (tests/reference.py), on two sites with sine terms
in every pairing.  The cross-product matrix of the precession
(_cross_mat) and the contraction of a site rotation with the site's spin
operators (_site_spins) are batched over leading axes, so the chains,
their node reads and the rotation tangents share them.

Both first-order paths are trapezoid quadratures on uniform grids of n
nodes, refined by doubling.  Their pairing kernels separate in the two
time arguments, so both reduce to one flow-kernel convolution
(_lag_convolution): suffix integrals for the inner layer of the order-1
recursion, prefix integrals for the tangent contraction of the Bloch
correction, each O(n) per grid.  The recursion's forcing
i/2 (Sig [P, K] - [Q, K] Sig), with Sig the conjugated coupling spins and
P, Q the suffix integrals against them, is linear in K, so its node sum
is i/2 (U K - C1.K - C2.K + K V) with C1 = sum w Sig (x) P and
C2 = sum w Q (x) Sig: two GEMMs over the (n+1) A node rows, once per
(t, X, n).  A spin axis then costs one sd^2-vector product against that
map, and a field axis one product of its pairing table with the stored
Sig.  The Bloch correction's node work is real arithmetic on the Maxwell
chain: its radiated coupling B^lam . Z is a real combination beta1 of the
spin operators S_{l,k} of all sites (_radiated, below); its symmetrized
coupling eps {B^lam . Z, S^0} is real coefficients
against one fixed anticommutator table {S_{l,k}, sigma^lam_k'}.  The
transport R_t R_w^T is contracted with those coefficients and with the
tangent contraction over the nodes first, so a call ends in one
(3, 9N + 3) by (9N + 3, sd^2) complex product.

The classical objects they read come from two RK4 chains per (t, X), the
module's only classical integrator.  _propagator_chain holds G and
_maxwell_chain holds the site rotations R and the rotation-space partial
sums of the first-order mode recurrence, at every substep of one fixed
grid of steps = max(2^ceil(log2(|t| / _SUBSTEP)), n) substeps
(_chain_steps).  The grid doubles with n, so every refinement grid of
n <= steps panels reads its nodes as every (steps/n)-th chain state, and
the difference of two grids measures quadrature error alone.  _refine
extrapolates each grid with the one before it (one Richardson level) and
stops once two successive extrapolations agree to tol, so the stop test
measures the value it returns: on the desk model at t = 0.5 .. 2 every
quadrature stops at n = 128, where a stop on the raw trapezoid
difference took 64 to 1024 panels.  Each chain
evaluates its generator on the half-step stage grid once, takes every
substep as an RK4 transfer map (blochlab.stepper.rk4_transfer) and
chains the maps by recursive doubling (_prefix_products), so no Python
loop runs over substeps.  The reads are cheap: _propagator_sweep
polar-projects the nodes it takes in one batched SVD, and _maxwell_nodes
takes the rotations and the (Re, Im) of the node sums as strided reads.

Every read of the radiated field vec . Z goes through one projection of
those node sums, _radiated: real coefficients of vec . Z against the spin
operators S_{l,k} of all sites, from one real table per frequency group,
so no mode amplitude Z is built.  The Bloch correction reads B^lam . Z at
every node; maxwell_cross_check reads B_m and the divergence terms at
every site, at the endpoint of the chain that serves _N0 panels.

Order 0 reads the chains' endpoints at _refine's first grid (_N0 panels):
propagator_G is the projected propagator endpoint, with the unprojected
endpoint's unitarity defect (2.5e-14 on the desk model at t = 2), and
bloch_spin0 the Maxwell chain's rotations.  The rotation tangents of the
photon-rate C^1 term differentiate the chain's RK4 maps
(_rotation_tangent), so they are the derivative of that rotation
endpoint.  G and R still solve different equations, so the order-0 dual
check stays independent.  The substep is capped at _SUBSTEP whatever the
tolerance, so the chains carry an RK4 error floor of their own that grid
doubling does not control: a tol under that floor bounds the quadrature,
not the coefficient.  The substep stays fixed, since a coarser one chosen
from a loose tolerance would move the desk cells by about 1e-9, the size
of the floor at a substep of 0.01 (below).  Measured against adaptive RK4
at tol 1e-13 (tests/reference.py), as the largest entry error relative to
the largest reference entry, for the desk plan's model and X and for two
spins on an octahedral grid (the tests' octa_model, X with normal
components of scale 0.5), with dR along the six photon-rate directions of
each site, on chains of 512, 1024 and 2048 substeps:

    model  t      R        G        dR
    desk   0.5    1.0e-13  6.4e-15  1.3e-13
    desk   1      2.4e-13  1.5e-14  1.9e-13
    desk   2      4.2e-13  4.7e-14  3.3e-13
    octa   0.5    1.9e-14  2.1e-14  1.5e-13
    octa   1      6.9e-14  5.9e-14  2.0e-13
    octa   2      1.5e-13  1.4e-13  2.3e-13

The floor falls like the fourth power of the substep: at a cap of 0.01
the desk rotation is off by 9.1e-10 at t = 1, at 0.01/4 by 8.1e-12, and
at 0.01/16 by 5.6e-14.  Choosing the substep from the tolerance is
ROADMAP.md item 2.

Every order-0 and first-order object at a point (t, X) reads the same two
chains, so a shared_sweeps(model, t, X) scope integrates each chain once
and keeps every node read taken from it, the conjugated coupling spins
and the order-1 contraction among them, and hands the stored, read-only
arrays to every later consumer at that (t, X): order0, bloch_spin0, the
spin and field order_j calls of all axes, spin_correction1 of every site,
maxwell_cross_check (from _maxwell_nodes), and the rotation tangents.  A
refinement past steps panels reads a chain of n substeps of its own.  A
chain for another model, t or X integrates as usual; the tangent probe's
shifted points take no chain, only their site's rotation endpoint
(_rotation_endpoint), the product of its RK4 maps.  The table lives in a
context variable, so each pool thread has its own, and it is dropped when
the scope exits.  Two callers
open a scope: compute_hierarchy, once per (t, X) for every observable of
a plan, and each t job of run_crosscheck.
No function below opens one, photon_rate_expansion included: a nested
scope starts an empty table, so it would integrate the chains again.
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
from blochlab.stepper import rk4_transfer
from blochlab.symbols import c1_affine


class HierarchyError(ModelError):
    """Grid-refinement failures and invalid arguments."""


# largest RK4 substep of the chains; the floor it leaves is measured in the
# module docstring
_SUBSTEP = 0.01 / 8

# panels of the order-0 reads and the rotation tangents: _refine's first grid
_N0 = 32

# resolved empirically against the exact photon-rate oracle; see the
# commutator (i/h)[H, N (x) I] = - sum Phi_{S,h}(F B) (x) sigma
PHOTON_RATE_SIGN = -1.0

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS3[_i, _j, _k], _EPS3[_i, _k, _j] = 1.0, -1.0
# C_ij = -eps_ijk x_k as the linear map x_k -> (i, j)
_CROSS_MAP = -_EPS3.reshape(9, 3).T
# the cyclic successors n+1 and n+2 of each axis n: eps_{n, a, b} is +1 at
# (a, b) = (_NEXT[n], _LAST[n]) and -1 at the swapped pair
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _cross_mat(x: np.ndarray) -> np.ndarray:
    """C(x) with C(x) v = x cross v, batched over the leading axes of x."""
    return (x @ _CROSS_MAP).reshape(x.shape[:-1] + (3, 3))


def _site_spins(r: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Spin matrices sum_k r[..., m, k] ops[k] of a site rotation (or of its
    tangent) against the site's spin operators, batched over leading axes."""
    flat = r @ ops.reshape(len(ops), -1)
    return flat.reshape(r.shape[:-1] + ops.shape[1:])


# ---------------------------------------------------------------------------
# propagator


@dataclass
class PropagatorState:
    """Spin propagator G(t, 0, X), polar-projected onto the unitaries, and
    the unitarity defect |G* G - I| of the chain endpoint it was projected
    from: the integrator's own defect, not the projection's."""

    matrix: np.ndarray
    unitarity_defect: float


def _polar_project(g: np.ndarray) -> np.ndarray:
    """Unitary polar factor, batched over leading axes."""
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def propagator_G(model: Model, t: float, x: PhaseVector) -> PropagatorState:
    """G(t, 0, X) of dG/dt = i G H_int(chi_t X), G(0, 0) = I: the projected
    endpoint of the propagator chain that serves _N0 panels."""
    raw = _propagator_chain(model, t, x, _chain_steps(t, _N0))[-1]
    defect = np.linalg.norm(raw.conj().T @ raw - np.eye(model.spin_dim))
    return PropagatorState(matrix=_polar_project(raw), unitarity_defect=float(defect))


def _chain_steps(t: float, n: int) -> int:
    """Substeps of the chain that serves n panels over [0, t]: n times the
    least power of two that keeps the substep <= _SUBSTEP.  For a power of
    two n this is max(2^ceil(log2(|t| / _SUBSTEP)), n), one chain for every
    n up to it."""
    cap = max(1, int(np.ceil(abs(t) / _SUBSTEP)))
    sub = -(-cap // n)  # ceil(cap / n)
    return n << (sub - 1).bit_length()


def _chain_stages(t: float, steps: int):
    """The substep and the half-step stage times of a chain over [0, t]."""
    dt = t / steps
    return dt, 0.5 * dt * np.arange(2 * steps + 1)


def _stage_split(table):
    """Start, middle and end stages of every substep from a half-step stage
    table, each of shape (steps, ...)."""
    return table[:-1:2], table[1::2], table[2::2]


def _site_fields(model: Model, x: PhaseVector, stage: np.ndarray) -> np.ndarray:
    """beta_m + B_{m x_lam} . chi_u X at the stage times, in (lam, m) order."""
    pairing = flow_pairing(model.grid, model.coupling_list, [x])
    return model.site_beta + pairing(stage)[:, :, 0]


def _prefix_products(phi: np.ndarray) -> np.ndarray:
    """The ordered products phi_{k-1} ... phi_0 for k = 0 .. len(phi), by
    recursive doubling: log2(len(phi)) batched products, no loop over the
    factors."""
    out = np.empty((len(phi) + 1,) + phi.shape[1:], dtype=phi.dtype)
    out[0] = np.eye(phi.shape[-1])
    out[1:] = phi
    span = 1
    while span < len(phi):
        out[span + 1 :] = out[span + 1 :] @ out[1:-span]
        span *= 2
    return out


# (model, t, X, {(name, size): arrays}) of the innermost shared_sweeps scope
_SWEEPS = contextvars.ContextVar("blochlab_hierarchy_sweeps", default=None)


@contextmanager
def shared_sweeps(model: Model, t: float, x: PhaseVector):
    """Integrate each chain of (model, t, X) at most once inside the block,
    and keep every node read taken from it.  Model and X are matched by
    identity."""
    token = _SWEEPS.set((model, t, x, {}))
    try:
        yield
    finally:
        _SWEEPS.reset(token)


def _shared(build):
    """Serve build(model, t, x, size) from the open scope's table, building
    on a miss; a call for another model, t or X bypasses the table.  The
    returned arrays are read-only, since later consumers read them too."""

    @functools.wraps(build)
    def lookup(model, t, x, size):
        scope = _SWEEPS.get()
        hit = scope and scope[0] is model and scope[1] == t and scope[2] is x
        table = scope[3] if hit else {}
        key = (build.__name__, size)
        if key not in table:
            out = build(model, t, x, size)
            for a in out if isinstance(out, tuple) else (out,):
                a.setflags(write=False)
            table[key] = out
        return table[key]

    return lookup


@_shared
def _propagator_chain(model: Model, t: float, x: PhaseVector, steps: int) -> np.ndarray:
    """G(u_k, 0, X) at every substep u_k = k t / steps, unprojected, shape
    (steps+1, sd, sd).

    RK4 transfer maps of G^T' = (i H)^T G^T on the half-step stage grid,
    in the real form [[Re, -Im], [Im, Re]] of the complex matrices, where
    numpy's batched products are several times faster, and chained by
    _prefix_products."""
    sd = model.spin_dim
    dt, stage = _chain_stages(t, steps)
    ht = model.spin_matrix(_site_fields(model, x, stage)).swapaxes(1, 2)
    # the generator i H^T = -Im H^T + i Re H^T in real form
    neg = -ht.imag
    gen = np.block([[neg, -ht.real], [ht.real, neg]])
    phi, _ = rk4_transfer(*_stage_split(gen), dt)
    y = _prefix_products(phi)
    gt = np.empty((steps + 1, sd, sd), dtype=complex)
    gt.real, gt.imag = y[:, :sd, :sd], y[:, sd:, :sd]
    return gt.swapaxes(1, 2)


@_shared
def _propagator_sweep(model: Model, t: float, x: PhaseVector, n: int) -> np.ndarray:
    """G(u_i, 0, X) on the uniform grid u_i = i t / n, shape (n+1, sd, sd):
    every (steps/n)-th state of the propagator chain, polar-projected in one
    batched SVD."""
    steps = _chain_steps(t, n)
    return _polar_project(_propagator_chain(model, t, x, steps)[:: steps // n])


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


def order0(model: Model, obs: ObservableSpec, t: float, x: PhaseVector) -> np.ndarray:
    """A^[0](t, X) = (F_A . chi_t X) I + G(t,0,X) S_A G(t,0,X)*."""
    f_a, s_a = observable_form(model, obs)
    sd = model.spin_dim
    out = np.zeros((sd, sd), dtype=complex)
    if f_a is not None:
        out += f_a.dot(chi_flow_vector(model.grid, t, x)) * np.eye(sd)
    if s_a is not None:
        g = propagator_G(model, t, x).matrix
        out += g @ s_a @ g.conj().T
    return out


# ---------------------------------------------------------------------------
# quadrature helpers


def _trap_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _refine(compute, tol, nmax=4096, label="quadrature"):
    """The trapezoid quadrature compute(n), extrapolated and refined by
    doubling n from _N0 panels until the extrapolation settles.

    Each grid n past the first gives one Richardson value
    R_n = T_n + (T_n - T_{n/2}) / 3 of the trapezoid values T.  The
    refinement returns R_n at the first n with
    max|R_n - R_{n/2}| <= tol * max(1, max|R_n|): the stop test measures
    the value it returns, so the earliest stop is n = 4 _N0, after three
    grids.  Only one Richardson level is taken: a second (Romberg) level
    was measured to stall between n = 64 and 256 on the desk model.  A
    difference that never settles, a NaN included, raises at nmax."""
    n = _N0
    prev = compute(n)
    rich_prev = None
    while n < nmax:
        n *= 2
        cur = compute(n)
        rich = cur + (cur - prev) / 3.0
        if rich_prev is not None:
            scale = max(1.0, float(np.max(np.abs(rich))))
            if float(np.max(np.abs(rich - rich_prev))) <= tol * scale:
                return rich
        prev, rich_prev = cur, rich
    raise HierarchyError(f"{label} did not converge below tol={tol}")


# ---------------------------------------------------------------------------
# order 1 via the Duhamel recursion


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


@_shared
def _conjugated_couplings(model: Model, t: float, x: PhaseVector, n: int) -> np.ndarray:
    """The conjugated coupling spins Sig[i, a] = T_i sigma_a T_i* at the
    nodes of the propagator read on n panels, shape (n+1, A, sd, sd)."""
    T = _propagator_sweep(model, t, x, n)
    return T[:, None] @ model.sigmas @ T.conj().swapaxes(1, 2)[:, None]


@_shared
def _order1_contraction(model: Model, t: float, x: PhaseVector, n: int) -> np.ndarray:
    """The order-1 spin quadrature on n panels as a linear map of
    K = T_n S_A T_n*: A^[1] = (K.ravel() @ L).reshape(sd, sd), L of shape
    (sd^2, sd^2).

    The inner Duhamel layer needs, for every node u and both pairings P of
    B with B and with F B,

        N_P(u) = i int_u^t P_{a'a}(w - u) Sig_{a'}(w) dw,

    a suffix flow-kernel convolution: the stacked [cos; sin] parts against
    the stacked [alpha; beta] of both pairings, one product for the pair.
    The forcing _duhamel_forcing(Sig, [N_B, K], [N_FB, K]) is
    i/2 (Sig [P, K] - [Q, K] Sig) with P, Q = N_B +- i N_FB, linear in K,
    so its weighted node sum is

        A^[1] = i/2 (U K - C1.K - C2.K + K V),
        C1[p,q,r,s] = sum_{i,a} w_i Sig[p,q] P[r,s],
        C2[p,q,r,s] = sum_{i,a} w_i Q[p,q] Sig[r,s],

    (C.K)[p,s] = sum_{q,r} C[p,q,r,s] K[q,r], U = sum_q C1[:,q,q,:] and
    V = sum_q C2[:,q,q,:]: two GEMMs over the (n+1) A node rows, and no
    observable enters until K."""
    sd = model.spin_dim
    bs = model.coupling_list
    fbs = [fmap(b) for b in bs]
    dt = t / n
    sig = _conjugated_couplings(model, t, x, n)
    pair_b = flow_pairing(model.grid, bs, bs)
    pair_f = flow_pairing(model.grid, bs, fbs)
    rows = _lag_convolution(pair_b.omegas, dt, sig, suffix=True)
    rows = rows.transpose(2, 4, 5, 0, 1, 3).reshape((n + 1) * sd * sd, -1)
    coef = np.concatenate(
        [np.concatenate([p.alpha, p.beta]) for p in (pair_b, pair_f)], axis=2
    )  # (2G, A, 2A)
    both = rows @ coef.reshape(rows.shape[1], -1)  # ((n+1) sd^2, 2A)
    nb, nf = 1j * both.reshape(n + 1, sd, sd, 2, -1).transpose(3, 0, 4, 1, 2)
    # node rows (i, a), each weighted by w_i on the Sig side
    p = (nb + 1j * nf).reshape(-1, sd * sd)
    q = (nb - 1j * nf).reshape(-1, sd * sd)
    ws = np.repeat(_trap_weights(n, dt), len(bs))[:, None] * sig.reshape(-1, sd * sd)
    c1 = (ws.T @ p).reshape((sd,) * 4)
    c2 = (q.T @ ws).reshape((sd,) * 4)
    eye = np.eye(sd)
    u = np.einsum("pqqs->ps", c1)
    v = np.einsum("pqqs->ps", c2)
    # L[p,q,r,s] with A^[1][p,s] = sum_{q,r} L[p,q,r,s] K[q,r]
    lin = 0.5j * (
        np.einsum("pq,rs->pqrs", u, eye) - c1 - c2 + np.einsum("pq,rs->pqrs", eye, v)
    )
    return lin.transpose(1, 2, 0, 3).reshape(sd * sd, sd * sd)


def _order1_grids(model, obs, t, x):
    """n -> A^[1](t, X) by trapezoid quadrature on n panels, from the node
    reads that every observable at (t, X, n) shares.  The observable's
    affine form, and a field axis's pairing of F_A with the F B_a, do not
    depend on n: they are resolved here, once for every grid of a
    refinement."""
    f_a, s_a = observable_form(model, obs)
    sd = model.spin_dim
    if s_a is None:
        # pure field: Phi^[0](s) = - sum_a (F_A . chi_s F B_a) sigma_a,
        # X-independent, so only the conjugated spins enter.
        fbs = [fmap(b) for b in model.coupling_list]
        pairing = flow_pairing(model.grid, [f_a], fbs)

        def field(n):
            dt = t / n
            ctab = pairing(t - dt * np.arange(n + 1))[:, 0]  # (n+1, A)
            sig = _conjugated_couplings(model, t, x, n).reshape(-1, sd * sd)
            w = _trap_weights(n, dt)[:, None]
            return -((w * ctab).ravel() @ sig).reshape(sd, sd)

        return field

    def spin(n):
        g = _propagator_sweep(model, t, x, n)[n]
        k = g @ s_a @ g.conj().T
        return (k.ravel() @ _order1_contraction(model, t, x, n)).reshape(sd, sd)

    return spin


def order_j(
    model: Model,
    obs: ObservableSpec,
    j: int,
    t: float,
    x: PhaseVector,
    tol: float = 1e-7,
) -> np.ndarray:
    """j-th hierarchy coefficient A^[j](t, X) of an affine observable, for
    j = 1 only: order 0 is order0, and no order past 1 has its values
    checked yet (ROADMAP.md item 3 brings order 2 with its checks)."""
    if j != 1:
        raise HierarchyError(f"order_j handles j = 1 only, got {j} (ROADMAP.md item 3)")
    if t == 0.0:
        return np.zeros((model.spin_dim,) * 2, dtype=complex)
    return _refine(
        _order1_grids(model, obs, t, x), tol, label="order-1 Duhamel quadrature"
    )


# ---------------------------------------------------------------------------
# order-0 Bloch spins and tangents


@dataclass
class SpinTriple:
    """S_m^{[lam, j]}(t, X) for m = 1..3 as spin-register matrices."""

    lam: int
    rotation: np.ndarray | None  # SO(3) path endpoint, order 0 only
    matrices: np.ndarray  # (3, sd, sd)


def bloch_spin0(model: Model, t: float, x: PhaseVector) -> list[SpinTriple]:
    """S^{[lam, 0]}(t, X) = R^lam(t) . sigma^[lam] with dR/du = 2 C(b(u)) R,
    b_m(u) = beta_m + B_{m x_lam} . chi_u X: the endpoint of the Maxwell
    chain that serves _N0 panels."""
    rots = _maxwell_chain(model, t, x, _chain_steps(t, _N0))[0][-1]
    return [
        SpinTriple(lam=lam + 1, rotation=r, matrices=_site_spins(r, ops))
        for lam, (r, ops) in enumerate(zip(rots, model.spin_ops))
    ]


@dataclass
class TangentBundleState:
    """The finite-difference check of the order-0 tangent along V: the
    relative residual of the tangent system against central differences."""

    residual: float


def _site_maps(model, lam, t, x):
    """Site lam's part of the Maxwell chain that serves _N0 panels: the
    substep dt, the stage times, the stage generators (a0, ah, a1) of
    R' = 2 C(b^lam) R and their RK4 transfer maps (phi, (m2, m3, m4))."""
    dt, stage = _chain_stages(t, _chain_steps(t, _N0))
    fields = _site_fields(model, x, stage).reshape(-1, model.N, 3)[:, lam]
    gens = _stage_split(2.0 * _cross_mat(fields))
    return dt, stage, gens, rk4_transfer(*gens, dt)


def _rotation_tangent(model, lam, t, x, vs) -> np.ndarray:
    """Tangents dR^lam(t)[V] of the site rotation along each V of vs, shape
    (len(vs), 3, 3): the derivative along V of the endpoint of the Maxwell
    chain that serves _N0 panels.

    The linearized system (R, dR)' = [[2C(b), 0], [2C(B . chi_u V), 2C(b)]]
    (R, dR), b = beta + B^lam . chi_u X, is block-triangular, and so is its
    RK4 transfer map [[phi, 0], [psi_V, phi]]: phi is the chain's own map
    and psi_V its derivative along the off-diagonal block.  The product
    rule on rk4_transfer's stages makes psi_V linear in the stage values
    E = 2 C(B . chi_u V),

        psi = dt/6 (l0 E0 + l2 Eh m2 + l3 Eh m3 + E1 m4),

    with direction-free l0, l2, l3 and the chain's stage maps m2, m3, m4,
    so every V costs four products per substep.  Then
    dR_{k+1} = phi_k dR_k + psi_k R_k over the chain's R, summed by pairwise
    reduction."""
    dt, stage, (a0, ah, a1), (phi, (m2, m3, m4)) = _site_maps(model, lam, t, x)
    r = _maxwell_chain(model, t, x, _chain_steps(t, _N0))[0][:, lam]
    eye = np.eye(3)
    ah2 = ah @ ah
    l0 = eye + dt * ah + dt**2 / 2 * ah2 + dt**3 / 4 * (a1 @ ah2)
    l2 = 2 * eye + dt * ah + dt**2 / 2 * (a1 @ ah)
    l3 = 2 * eye + dt * a1
    # B_m . chi_u V at the start, middle and end of every substep, (steps, V, 3)
    pairing = flow_pairing(model.grid, model.couplings[lam], vs)
    p0, ph, p1 = _stage_split(pairing(stage).swapaxes(1, 2))
    eh = 2.0 * _cross_mat(ph)
    psi = l0[:, None] @ (2.0 * _cross_mat(p0))
    psi += l2[:, None] @ (eh @ m2[:, None])
    psi += l3[:, None] @ (eh @ m3[:, None])
    psi += 2.0 * _cross_mat(p1) @ m4[:, None]
    # steps is _N0 times a power of two, so every level pairs up evenly:
    # two steps (phi, q) then (phi', q') make one, (phi' phi, phi' q + q')
    q = dt / 6 * psi @ r[:-1, None]
    while len(phi) > 1:
        q = phi[1::2, None] @ q[::2] + q[1::2]
        phi = phi[1::2] @ phi[::2]
    return q[0]


def _rotation_endpoint(model, lam, t, x) -> np.ndarray:
    """The site-lam rotation endpoint R^lam(t) that _rotation_tangent
    differentiates: the product of the site's RK4 maps, reduced pairwise as
    there, with no mode sums and no other site."""
    phi = _site_maps(model, lam, t, x)[3][0]
    while len(phi) > 1:
        phi = phi[1::2] @ phi[::2]
    return phi[0]


def _central_difference(f, x: PhaseVector, v: PhaseVector):
    """(f(X + s V) - f(X - s V)) / 2s with s = 1e-5 / |V|, for V != 0."""
    step = 1e-5 / v.norm()
    return (f(x + step * v) - f(x - step * v)) / (2.0 * step)


def tangent_derivatives(
    model: Model, lam: int, v: PhaseVector, t: float, x: PhaseVector
) -> TangentBundleState:
    """Check the tangent system of the site-lam rotation along V against a
    central difference of the RK4 rotation endpoint it differentiates
    (_rotation_endpoint).  The residual is returned, not enforced:
    run_crosscheck's tangent-fd-residual hygiene entry gates it."""
    if not 1 <= lam <= model.N:
        raise HierarchyError(f"site index lam={lam} outside 1..{model.N}")
    if v.norm() == 0.0:
        return TangentBundleState(residual=0.0)
    d = _rotation_tangent(model, lam - 1, t, x, [v])[0]
    fd = _central_difference(lambda z: _rotation_endpoint(model, lam - 1, t, z), x, v)
    return TangentBundleState(
        residual=float(np.linalg.norm(fd - d) / max(np.linalg.norm(d), 1.0))
    )


# ---------------------------------------------------------------------------
# sourced Maxwell cross-check


@_shared
def _maxwell_chain(model: Model, t: float, x: PhaseVector, steps: int):
    """Per-site rotations R^lam and the rotation-space partial sums of the
    first-order mode recurrence at every substep u_k = k t / steps.

    R' = 2 C(b^lam(u)) R, b_m = beta_m + B_{m x_lam} . chi_u X, is stepped by
    RK4 transfer maps on the half-step stage grid and chained by
    _prefix_products.  The mode amplitudes Z of dZ_q = omega Z_p,
    dZ_p = -omega Z_q, sourced by - sum_a (F B_a) S_a^0(u), are, per
    frequency group on W = Z_q + i Z_p, W' = (x / dt) W - src(R) with
    x = -i w_g dt and src = (F B)_{q + i p} S(R) linear in R.  One RK4 step
    is W -> mu(x) W - dt/6 sum_i c_i(x) src(y_i) over the stage states y_i
    of R, with mu = 1 + x + x^2/2 + x^3/6 + x^4/24 and
    c = (1 + x + x^2/2 + x^3/4, 2 + x + x^2/2, 2 + x, 1).  The stages are
    combined, and the recurrence summed, in rotation space; the mode
    weights and the read's vectors enter only at the nodes a read takes
    (_radiated).  Returns (R (steps+1, N, 3, 3),
    sums (G, steps+1, N, 3, 3)), sums[:, k] the combined source of W(u_k)."""
    N = model.N
    dt, stage = _chain_stages(t, steps)
    gen = 2.0 * _cross_mat(_site_fields(model, x, stage).reshape(-1, N, 3))
    phi, maps = rk4_transfer(*_stage_split(gen), dt)
    r = _prefix_products(phi)

    y1 = r[:-1]
    y2, y3, y4 = (m @ y1 for m in maps)
    uniq, _ = model.grid.frequency_groups
    xg = (-1j * dt * uniq)[:, None, None, None, None]
    comb = y1 / 4 * xg + (y1 + y2) / 2
    comb = (comb * xg + (y1 + y2 + y3)) * xg + (y1 + 2 * (y2 + y3) + y4)
    sums = np.zeros((len(uniq), steps + 1, N, 3, 3), dtype=complex)
    sums[:, 1:] = dt / 6 * comb
    mu = 1 + xg * (1 + xg * (1 / 2 + xg * (1 / 6 + xg / 24)))
    # a_{k+1} = mu a_k + comb_k by recursive doubling: the partial sums only
    # ever carry powers of mu, |mu| <= 1, so no weight grows
    span, power = 1, mu
    while span <= steps:
        sums[:, span:] += power * sums[:, :-span]
        span, power = 2 * span, power * power
    return r, sums


@_shared
def _maxwell_nodes(model: Model, t: float, x: PhaseVector, n: int):
    """Every (steps/n)-th state of the Maxwell chain, the nodes u_i = i t / n:
    (R (n+1, N, 3, 3), rows (G, n+1, 2, N, 3, 3)), rows the (Re, Im) of the
    combined sources, real part first."""
    steps = _chain_steps(t, n)
    r, sums = _maxwell_chain(model, t, x, steps)
    nodes = sums[:, :: steps // n]
    return r[:: steps // n], np.stack([nodes.real, nodes.imag], axis=2)


def _radiated(model: Model, rows: np.ndarray, vecs) -> np.ndarray:
    """Real coefficients c[v, l, k, i] of the radiated field vecs[v] . Z
    against the spin operators S_{l,k} of every site, at each node i of
    rows, a node slice of _maxwell_nodes: vecs[v] . Z(u_i) = sum_{l,k}
    c[v, l, k, i] S_{l,k}.  No mode amplitude Z is built.

    Per frequency group, W = Z_q + i Z_p has the combined source C of the
    node's rows, and

        Z_q = -(F B)_q S(Re C) + (F B)_p S(Im C),
        Z_p = -(F B)_p S(Re C) - (F B)_q S(Im C),

    S(C)_a = sum_k C_ak sigma^lam_k, as weights[s, r, l, m, j]: output part
    s, input part r, mode j.  Contracted with vecs over the modes of each
    group g, they make one real table P[l, v, (g, r, m)] against the rows."""
    N, nodes = model.N, rows.shape[1]
    fq, fp = stack_vectors([fmap(b) for b in model.coupling_list])  # (A, D) each
    weights = np.stack([np.vstack([-fq, fp]), np.vstack([-fp, -fq])])
    weights = weights.reshape(2, 2, N, 3, model.D)
    _, group_of = model.grid.frequency_groups
    vqp = np.stack(stack_vectors(vecs), axis=1)  # (V, 2, D)
    ptab = np.empty((N, len(vecs), len(rows), 2, 3))
    for g in range(len(rows)):
        modes = group_of == g
        ptab[:, :, g] = np.einsum(
            "vsj,srlmj->lvrm", vqp[..., modes], weights[..., modes]
        )
    # node index last, so the product runs along it
    src = rows.transpose(3, 0, 2, 4, 5, 1).reshape(N, -1, 3 * nodes)
    c = (ptab.reshape(N, len(vecs), -1) @ src).reshape(N, len(vecs), 3, nodes)
    return c.swapaxes(0, 1)


def _radiated_endpoint(model: Model, t: float, x: PhaseVector, vecs) -> np.ndarray:
    """The spin matrices vecs[v] . Z(t), shape (V, sd, sd), at the endpoint
    of the Maxwell chain that serves _N0 panels.  Z(t) is a chain state,
    not a quadrature, so no refinement runs: a finer grid on the same chain
    would read the same state again."""
    rows = _maxwell_nodes(model, t, x, _N0)[1][:, -1:]
    return model.spin_matrix(_radiated(model, rows, vecs).reshape(len(vecs), -1))


@dataclass
class MaxwellCheckReport:
    """Dual-path comparison of the first-order radiated field."""

    max_rel_dev: float
    div_b_residual: float
    div_e_residual: float


def maxwell_cross_check(
    model: Model, t: float, x: PhaseVector, tol: float = 1e-6
) -> MaxwellCheckReport:
    """Compare B^[1] from the sourced mode system against the recursion at
    every spin site, with the analytic divergence of the reconstructed
    first-order fields.

    What it does not check: every B_m and d_m B_m is a pure q-vector, so
    the B^[1] comparison reads only the q half of Z; and sum_m d_m B_m
    vanishes as a phase vector, so the residuals div_b and div_e cancel
    for any linear read of Z, right or wrong.  The p half Z_p is held only
    by the step-by-step Z tests, test_maxwell_sweep_matches_stepwise and
    test_sweeps_match_stepwise_sine_terms."""
    grid, config = model.grid, model.config
    vecs = []
    for pt in config.positions:
        grads = [coupling_B_gradient(grid, config, m, pt)[m - 1] for m in (1, 2, 3)]
        vecs += [coupling_B(grid, config, m, pt) for m in (1, 2, 3)] + grads
        vecs += [apply_helicity(grid, g) for g in grads]
    # [site, (B_m, d_m B_m, J d_m B_m), m] . Z, each term of the divergences
    # of B^[1] and E^[1] read on its own
    sd = model.spin_dim
    fields = _radiated_endpoint(model, t, x, vecs).reshape(model.N, 3, 3, sd, sd)
    max_dev = div_b = div_e = 0.0
    for pt, (lhs, d_b, d_e) in zip(config.positions, fields):
        for m in (1, 2, 3):
            obs = ObservableSpec(kind="field_B", m=m, x=pt)
            rhs = order_j(model, obs, 1, t, x, tol=min(tol * 0.1, 1e-7))
            scale = np.maximum(np.linalg.norm(rhs), 1e-12)
            # an infinite coefficient gives inf / inf: a NaN, and a failed check
            with np.errstate(invalid="ignore"):
                dev = np.linalg.norm(lhs[m - 1] - rhs) / scale
            max_dev = np.maximum(max_dev, dev)
        div_b = np.maximum(div_b, np.linalg.norm(d_b.sum(axis=0)))
        div_e = np.maximum(div_e, np.linalg.norm(d_e.sum(axis=0)))
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
    rotation: the trapezoid sum over nodes w of R_t R_w^T (cpl(w) +
    kappa(w) . sigma^lam), in real coefficients on the Maxwell chain's
    node reads, with one complex product at the end.

    The radiated-field coupling b1_a = B^lam_a . Z is a real combination
    beta1[a, l, k, w] of the spin operators S_{l,k} of all sites, read from
    the chain's node sums by _radiated, so no mode amplitude Z is built.  With
    s0_b = sum_k' R_w[b, k'] sigma^lam_k', the symmetrized coupling
    eps_{nab} {b1_a, s0_b} = {b1_{n+1}, s0_{n+2}} - {b1_{n+2}, s0_{n+1}} is
    sum C[w, n, l, k, k'] {S_{l,k}, sigma^lam_k'} with real C: one fixed
    anticommutator table of 9N matrices.

    The tangent contraction at node w is a prefix flow-kernel convolution
    over u <= w,

        kappa(w) = -2 eps[n,c,a] R_w[a,r] sum_u pbb[c,m,w-u] Y_u[m,r,q],
        Y_u[m] = R_u^T E_m R_u,  (E_m)_pk = eps[m,p,k],

    whose kernel pbb[c,m,s] = B_c . chi_s B_m is a finite cosine/sine sum
    over the distinct mode frequencies (_lag_convolution).  Every
    contraction with eps is a difference over the cyclic index pairs.  The
    transport w_w R_t R_w^T is contracted with C and kappa over the nodes
    first, so the only complex product is the (3, 9N + 3) real result
    against the anticommutator table stacked on sigma^lam."""
    r_all, rows = _maxwell_nodes(model, t, x, n)
    r_path = r_all[:, lam]  # (n+1, 3, 3)
    N, sd = model.N, model.spin_dim
    dt = t / n
    w = _trap_weights(n, dt)
    sig = model.spin_ops[lam]
    bsl = model.couplings[lam]

    beta1 = _radiated(model, rows, bsl)  # [a, l, k, w]
    # C[n, l, k, k', w] = beta1[n+1, l, k, w] R_w[n+2, k'] - (n+1 <-> n+2)
    rt = r_path.transpose(1, 2, 0)  # [b, k', w]
    cpl = (
        beta1[_NEXT, :, :, None] * rt[_LAST, None, None]
        - beta1[_LAST, :, :, None] * rt[_NEXT, None, None]
    ).reshape(3, 9 * N, n + 1)

    # K(w): same-site contraction of coupling pairings with the rotation
    # transport; pbb[c,m,w-u] = sum_g alpha cos(g(w-u)) + beta sin(g(w-u))
    pairing = flow_pairing(model.grid, bsl, bsl)
    # Y_u[m, r, q] = R_u[m+1, r] R_u[m+2, q] - R_u[m+2, r] R_u[m+1, q]
    nxt, lst = r_path[:, _NEXT], r_path[:, _LAST]  # [u, m, r]
    y = nxt[..., None] * lst[:, :, None] - lst[..., None] * nxt[:, :, None]
    lag = _lag_convolution(pairing.omegas, dt, y, suffix=False)  # (2, G, n+1, ...)
    coef = np.stack([pairing.alpha, pairing.beta])  # (2, G, 3, 3)
    conv = coef.reshape(-1, 1, 3, 3) @ lag.reshape(-1, n + 1, 3, 9)
    conv = conv.sum(axis=0).reshape(n + 1, 3, 3, 3)  # [w, c, r, q]
    p = r_path[:, None] @ conv  # [w, c, a, q] = R_w[a, r] conv[w, c, r, q]
    kappa = -2.0 * (p[:, _NEXT, _LAST] - p[:, _LAST, _NEXT])  # (n+1, 3, 3)

    # transport first: sum_w w_w R_t R_w^T [C | kappa](w) in real
    # coefficients, then one complex product with the stacked table
    # [{S_{l,k}, sigma^lam_k'}; sigma^lam]
    wrt = w * rt  # [b, c, w] = w_w R_w[b, c]
    real = np.hstack(
        [
            (wrt @ cpl.swapaxes(1, 2)).sum(axis=0),
            wrt.transpose(1, 2, 0).reshape(3, -1) @ kappa.reshape(-1, 3),
        ]
    )  # (3, 9N + 3)
    ops = model.spin_ops[:, :, None]
    anti = ops @ sig + sig @ ops  # (N, 3, 3, sd, sd)
    table = np.concatenate([anti.reshape(9 * N, -1), sig.reshape(3, -1)])
    return ((r_path[n] @ real) @ table).reshape(3, sd, sd)


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
    of the polarized-field and spin expansions.  Every term reads the
    recursion's maps at (t, X): S^[1] of each site and axis is order_j of
    that spin, the spin observables' order-1 contraction, and E^[1] the
    field order_j.  It opens no scope of its own, so inside
    compute_hierarchy it shares the chains and node reads of the other
    observables at (t, X)."""
    if M not in (0, 1):
        raise HierarchyError(f"photon-rate expansion order must be 0 or 1, asked {M}")
    sd = model.spin_dim
    y = chi_flow_vector(model.grid, t, x)
    spins0 = bloch_spin0(model, t, x)
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
    for lam in range(model.N):
        pos = model.config.positions[lam]
        # C^1(E^0, S^0) below: the polarized field is affine in X with
        # gradient along the transported coupling W = chi_{-t} F B, so it
        # reads the site tangents along W and F W of each axis.  Only dS is
        # read, so this skips tangent_derivatives' finite-difference probe;
        # run_crosscheck's tangent-fd-residual hygiene check runs it
        ws = [chi_flow_vector(model.grid, -t, fmap(b)) for b in model.couplings[lam]]
        tangents = _rotation_tangent(
            model, lam, t, x, [v for w in ws for v in (w, fmap(w))]
        )
        dspins = _site_spins(tangents, model.spin_ops[lam])  # (6, 3, sd, sd)
        for m in range(3):
            fb = fmap(model.couplings[lam][m])
            e0 = fb.dot(y)
            # C^0(E^1, S^0): first-order polarized field times order-0 spin
            obs = ObservableSpec(kind="field_E_pol", m=m + 1, x=pos)
            e1 = PHOTON_RATE_SIGN * order_j(model, obs, 1, t, x, tol=tol)
            n1 += e1 @ spins0[lam].matrices[m]
            # C^0(E^0, S^1)
            spin = ObservableSpec(kind="spin", m=m + 1, lam=lam + 1)
            n1 += PHOTON_RATE_SIGN * e0 * order_j(model, spin, 1, t, x, tol=tol)
            # C^1(E^0, S^0)
            db, dfb = dspins[2 * m : 2 * m + 2, m]
            n1 += c1_affine(PHOTON_RATE_SIGN * eye, db, dfb, "left")
    orders.append(n1)
    return orders


# ---------------------------------------------------------------------------
# every observable's expansion at one (t, X)


def compute_hierarchy(
    model: Model,
    observables,
    t: float,
    x: PhaseVector,
    M: int,
    tol: float = 1e-7,
) -> list[list[np.ndarray]]:
    """Coefficients A^[0..M](t, X) of the evolved-symbol expansion of each
    observable, in the order given, all read from one shared_sweeps scope."""

    def expansion(obs):
        if obs.kind == "number_rate":
            return photon_rate_expansion(model, t, x, M, tol=tol)
        return [order0(model, obs, t, x)] + [
            order_j(model, obs, j, t, x, tol=tol) for j in range(1, M + 1)
        ]

    with shared_sweeps(model, t, x):
        return [expansion(obs) for obs in observables]
