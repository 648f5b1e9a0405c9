"""End-to-end acceptance battery.

Seven gating checks, each printing one pass/fail line on the terminal:
calculus identities, the coherent-state closed forms, structural grid
identities, dual-path equivalence, the measured h-order of the expansion
for spin and field observables, the photon-rate law with its pinned sign,
and numerical hygiene plus determinism.
"""

import time

import numpy as np
import pytest

from blochlab.fock import FockBasis, coherent_overlap, coherent_state, segal_field
from blochlab.harness import (
    ExperimentPlan,
    default_plan_dict,
    run_calculus_selftest,
    run_convergence,
    run_crosscheck,
)
from blochlab.hierarchy import PHOTON_RATE_SIGN, bloch_spin0
from blochlab.model import (
    Model,
    ModelConfig,
    PhaseVector,
    chi_flow_vector,
    coupling_B_gradient,
    fmap,
    polarization_project,
    rho_discrete,
    symplectic_form,
)

def _announce(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_plan():
    # number_rate rides along: criterion 6 reads its fits from the same frames
    d = default_plan_dict()
    d["observables"] = d["observables"] + [{"kind": "number_rate"}]
    return ExperimentPlan.from_dict(d)


@pytest.fixture(scope="module")
def desk_report(desk_plan):
    t0 = time.time()
    report = run_convergence(desk_plan)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def structured_model():
    # two spins on an anisotropic two-shell grid: nothing degenerate
    return Model(
        ModelConfig(
            N=2,
            positions=[[0.0, 0.0, 0.0], [1.0, 0.3, -0.2]],
            beta=[0.2, 0.0, 0.7],
            grid_radial_nodes=2,
            grid_kmax=3.0,
            grid_directions="octahedral",
        )
    )


def test_criterion_1_calculus_identities(capsys):
    t0 = time.time()
    report = run_calculus_selftest()
    elapsed = time.time() - t0
    res = {e.name: e.residual for e in report.entries}
    ok = (
        report.passed
        and res["heat-roundtrip"] <= 1e-12
        and res["wick-ordering-2hN"] <= 1e-12
        and res["symbol-quantize-roundtrip"] <= 1e-6
        and res["mizrahi-identity"] <= 1e-6
        and elapsed < 120.0
    )
    worst = max(res.values())
    _announce(
        capsys,
        "criterion 1 (calculus identities)",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_coherent_state_formulas(capsys):
    rng = np.random.default_rng(20260826)
    basis = FockBasis(2, 25)
    worst_overlap = 0.0
    for h in (0.5, 0.7, 1.0):
        v = rng.standard_normal(4)
        v *= min(1.0, 0.8 / np.linalg.norm(v))
        x = PhaseVector(v[:2].copy(), v[2:].copy())
        y = PhaseVector(-x.p.copy(), 0.5 * x.q.copy())
        cx, _ = coherent_state(basis, h, x)
        cy, _ = coherent_state(basis, h, y)
        worst_overlap = max(
            worst_overlap, abs(np.vdot(cx, cy) - coherent_overlap(h, x, y))
        )

    from scipy.linalg import expm

    small = FockBasis(1, 25)
    h = 0.6
    xd = PhaseVector(np.array([0.5]), np.array([-0.3]))
    gen = segal_field(small, h, fmap(xd)).toarray()
    vac = np.zeros(small.dim, dtype=complex)
    vac[0] = 1.0
    disp_res = float(
        np.max(np.abs(expm((-1j / h) * gen) @ vac - coherent_state(small, h, xd)[0]))
    )
    ok = worst_overlap <= 1e-10 and disp_res <= 1e-9
    _announce(
        capsys,
        "criterion 2 (coherent-state formulas)",
        ok,
        f"overlap dev {worst_overlap:.2e}, displacement dev {disp_res:.2e}",
    )


def test_criterion_3_structural_identities(capsys, structured_model):
    model = structured_model
    grid, cfg = model.grid, model.config
    eye3 = np.eye(3)

    # commutator seed: sigma(E_mx, B_ny) = grad rho(x - y) . (e_m x e_n)
    seed_dev = 0.0
    pts = [cfg.positions[0], cfg.positions[1], np.array([0.4, -0.1, 0.9])]
    for lam in range(model.N):
        for mu in range(model.N):
            _, grad = rho_discrete(grid, cfg, cfg.positions[lam] - cfg.positions[mu])
            for m in range(3):
                for n in range(3):
                    lhs = symplectic_form(
                        model.couplings_E[lam][m], model.couplings[mu][n]
                    )
                    rhs = float(grad @ np.cross(eye3[m], eye3[n]))
                    seed_dev = max(seed_dev, abs(lhs - rhs))

    # transversality: analytic divergence of B and E coupling fields
    div_dev = 0.0
    for pt in pts:
        for field in ("plain", "helicity"):
            div = None
            for m in (1, 2, 3):
                g = coupling_B_gradient(grid, cfg, m, pt)[m - 1]
                if field == "helicity":
                    from blochlab.model import apply_helicity

                    g = apply_helicity(grid, g)
                div = g if div is None else div + g
            div_dev = max(div_dev, div.norm())

    # circular projector algebra on random transverse vectors
    rng = np.random.default_rng(7)
    proj_dev = 0.0
    for _ in range(5):
        v = rng.standard_normal(2 * grid.D)
        x = PhaseVector(v[: grid.D].copy(), v[grid.D :].copy())
        xp = polarization_project(grid, +1, x)
        xm = polarization_project(grid, -1, x)
        proj_dev = max(
            proj_dev,
            (polarization_project(grid, +1, xp) - xp).norm(),
            (polarization_project(grid, -1, xm) - xm).norm(),
            polarization_project(grid, -1, xp).norm(),
            ((xp + xm) - x).norm(),
        )

    ok = seed_dev <= 1e-10 and div_dev <= 1e-10 and proj_dev <= 1e-12
    _announce(
        capsys,
        "criterion 3 (structural identities)",
        ok,
        f"seed {seed_dev:.2e}, divergence {div_dev:.2e}, projectors {proj_dev:.2e}",
    )


def test_criterion_4_dual_path_equivalence(capsys):
    plan = ExperimentPlan.from_dict(
        dict(default_plan_dict(), t=[0.0, 0.5, 1.0, 1.5, 2.0])
    )
    t0 = time.time()
    report = run_crosscheck(plan)
    elapsed = time.time() - t0
    worst = max(e["deviation"] for e in report.entries)
    ok = report.passed and worst <= 1e-6 and elapsed < 180.0
    _announce(
        capsys,
        "criterion 4 (dual-path equivalence)",
        ok,
        f"worst deviation {worst:.2e} over t in [0, 2], {elapsed:.1f}s",
    )


def test_criterion_5_expansion_order(capsys, desk_report):
    report, elapsed = desk_report
    fits = {(f["observable"], f["M"]): f["slope"] for f in report.fits}
    spin0 = fits[("spin[m=1,lam=1]", 0)]
    spin1 = fits[("spin[m=1,lam=1]", 1)]
    field0 = fits[("field_B[m=2,x=(0,0,0)]", 0)]
    field1 = fits[("field_B[m=2,x=(0,0,0)]", 1)]
    ok = (
        report.passed
        and 0.8 <= spin0 <= 1.2
        and 0.8 <= field0 <= 1.2
        and spin1 >= 1.7
        and field1 >= 1.7
        and elapsed < 600.0
    )
    _announce(
        capsys,
        "criterion 5 (expansion order at desk scale)",
        ok,
        f"slopes spin {spin0:.2f}/{spin1:.2f}, field {field0:.2f}/{field1:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_photon_rate_law(capsys, desk_plan, desk_report):
    report, _ = desk_report
    slopes = {(f["observable"], f["M"]): f["slope"] for f in report.fits}
    leading = slopes[("number_rate", 0)]

    # circular polarization: the leading term reduces to a single signed
    # E-field/spin pairing on each branch, sign tied to the recorded one
    model = desk_plan.model
    x = desk_plan.x_samples[0][1]
    t = 1.0
    pol_dev = 0.0
    from blochlab.hierarchy import photon_rate_expansion

    for branch in (+1, -1):
        xb = polarization_project(model.grid, branch, x)
        n0 = photon_rate_expansion(model, t, xb, 0, tol=1e-8)[0]
        eps = PHOTON_RATE_SIGN * branch
        triples = bloch_spin0(model, t, xb, tol=1e-10)
        want = np.zeros_like(n0)
        moved = chi_flow_vector(model.grid, t, xb)
        for tr in triples:
            for m in range(3):
                want = (
                    want
                    + eps
                    * model.couplings_E[tr.lam - 1][m].dot(moved)
                    * tr.matrices[m]
                )
        pol_dev = max(pol_dev, float(np.max(np.abs(n0 - want))))

    ok = (
        report.passed
        and leading >= 0.8
        and PHOTON_RATE_SIGN == -1.0
        and pol_dev <= 1e-8
    )
    _announce(
        capsys,
        "criterion 6 (photon-rate law)",
        ok,
        f"leading slope {leading:.2f}, sign {PHOTON_RATE_SIGN:+.0f}, "
        f"polarized-branch dev {pol_dev:.2e}",
    )


def test_criterion_7_numerical_hygiene(capsys, desk_report):
    report, _ = desk_report
    unitarity = max(c.hygiene.get("unitarity_defect", 0.0) for c in report.cells)
    drift = max(c.hygiene.get("energy_drift", 0.0) for c in report.cells)

    # tangent system against a finite-difference probe (returns its residual)
    from blochlab.hierarchy import tangent_derivatives
    from blochlab.model import minimal_grid_config

    model = Model(minimal_grid_config())
    v = PhaseVector(np.ones(4) * 0.5, np.zeros(4))
    x = PhaseVector(np.array([0.2, 0.0, 0.1, 0.0]), np.array([0.0, 0.3, 0.0, 0.0]))
    tb = tangent_derivatives(model, 1, v, 1.3, x, tol=1e-8)

    # determinism: rebuilt plan, fresh sweep, bitwise-equal report payloads
    d = default_plan_dict()
    d["n_max"] = 18
    d["observables"] = [{"kind": "spin", "axis": 1, "spin": 1}]
    run_a = run_convergence(ExperimentPlan.from_dict(d)).to_dict()
    run_b = run_convergence(ExperimentPlan.from_dict(d)).to_dict()

    ok = (
        unitarity <= 1e-6
        and drift <= 1e-6
        and tb.residual <= 1e-6
        and run_a == run_b
    )
    _announce(
        capsys,
        "criterion 7 (numerical hygiene)",
        ok,
        f"unitarity {unitarity:.2e}, energy drift {drift:.2e}, "
        f"tangent FD {tb.residual:.2e}, deterministic {run_a == run_b}",
    )
