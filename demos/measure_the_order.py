"""Measure the semiclassical order of the expansion numerically.

The evolved Wick symbol of an observable should differ from the M-term
partial sum by O(h^{M+1}).  No constants are known a priori, so we halve h
along a ladder, compare against the exact truncated-Fock evolution, and
read the order off a log-log fit.

Run as: python3 demos/measure_the_order.py   (a few seconds)
"""

from blochlab import ExperimentPlan, default_plan_dict, run_convergence

plan_dict = default_plan_dict()
plan = ExperimentPlan.from_dict(plan_dict)

print("h ladder:", list(plan.h_list))
print("observables:", [o.label() for o in plan.observables])
print("running the sweep (exact propagation at each h) ...\n")

report = run_convergence(plan)

print(f"{'observable':32s} {'M':>2s} {'slope':>7s} {'R^2':>8s}")
for fit in report.fits:
    print(
        f"{fit['observable']:32s} {fit['M']:2d} "
        f"{fit['slope']:7.3f} {fit['r2']:8.5f}"
    )

print("\nraw (h, error) pairs for the audit trail:")
for cell in report.cells:
    print(f"  {cell.observable:32s} h={cell.h:<5g} error={cell.error:.3e}")

print("\nsweep verdict:", "PASS" if report.passed else "FAIL")
