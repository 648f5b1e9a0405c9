"""Where do the photons go?  The rate of change of the photon number is,
to leading order, a pairing of the transported polarized electric coupling
with the precessing spins; circularly polarized field data picks out a
single sign.

Run as: python3 demos/photon_budget.py   (a few seconds)
"""

import dataclasses

from blochlab import ExperimentPlan, ObservableSpec, default_plan_dict, run_convergence
from blochlab.hierarchy import PHOTON_RATE_SIGN, photon_rate_expansion
from blochlab.model import polarization_project

plan_dict = default_plan_dict()
plan = ExperimentPlan.from_dict(plan_dict)
model = plan.model
x_id, x = plan.x_samples[0]

print(f"recorded rate sign: {PHOTON_RATE_SIGN:+.0f}")

# split the sample into its circular-polarization parts
xp = polarization_project(model.grid, +1, x)
xm = polarization_project(model.grid, -1, x)
print(f"|X| = {x.norm():.3f}, |Pi+ X| = {xp.norm():.3f}, |Pi- X| = {xm.norm():.3f}")

# the leading coefficient on each branch is a traceless 2x2 spin matrix;
# we show the rate seen by a spin-up probe (its (1,1) entry)
for name, xb in (("Pi+", xp), ("Pi-", xm)):
    n0 = photon_rate_expansion(model, 1.0, xb, 0)[0]
    print(f"  {name} branch leading rate, spin-up probe: {n0[0, 0].real:+.5f}")

print("\ncomparing against the exact truncated-Fock rate over the h ladder ...")
rate = (ObservableSpec(kind="number_rate"),)
report = run_convergence(dataclasses.replace(plan, observables=rate))
for fit in report.fits:
    print(
        f"  {fit['observable']}[M={fit['M']}] slope {fit['slope']:5.2f} "
        f"(expected >= {fit['expected'] - 0.2:.1f})  {fit['status']}"
    )
print("verdict:", "PASS" if report.passed else "FAIL")
