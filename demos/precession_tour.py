"""A walking tour of the order-0 picture: spin precession in the external
field plus the free-transported magnetic coupling, and the field the spins
radiate back at first order.

Run as: python3 demos/precession_tour.py
"""

import numpy as np

from blochlab import Model, PhaseVector, minimal_grid_config
from blochlab.hierarchy import bloch_spin0, maxwell_cross_check, order0, order_j
from blochlab.oracle import ObservableSpec

model = Model(minimal_grid_config(beta=(0.0, 0.0, 1.0)))
print("grid slots:", model.D, "  spin dimension:", model.spin_dim)

# a mildly excited field state: a quarter-unit kick on the first q slot
x = PhaseVector(np.array([0.25, 0.0, 0.1, 0.0]), np.array([0.0, 0.2, 0.0, 0.0]))

# With beta along e3 the classical picture is precession about the z axis
# at rate 2, slowly dressed by the mode field.  The order-0 coefficients
# are 2x2 matrices (one spin); their traces vanish, so we print the
# coefficient against each Pauli axis.
print("\norder-0 spin components, site 1 (rows: t; cols: sigma_1..sigma_3)")
for t in (0.0, np.pi / 8, np.pi / 4, np.pi / 2):
    triple = bloch_spin0(model, t, x)[0]
    # triple.rotation is the SO(3) matrix; row m gives sigma_m(t) in the
    # fixed Pauli basis
    print(f"  t={t:5.3f}  " + "  ".join(f"{v:+.3f}" for v in triple.rotation[0]))

# the same numbers through the Duhamel path
t = np.pi / 4
direct = order0(model, ObservableSpec(kind="spin", m=1, lam=1), t, x)
triple = bloch_spin0(model, t, x)[0]
dev = np.max(np.abs(direct - triple.matrices[0]))
print(f"\nDuhamel vs precession path at t=pi/4: max deviation {dev:.2e}")

# first-order radiated field: the spins source the modes, and the mode
# amplitudes reconstruct a divergence-free B^[1] at any point
report = maxwell_cross_check(model, 1.0, x, tol=1e-7)
print(f"\nsourced-field cross-check at t=1:")
print(f"  max relative deviation vs recursion: {report.max_rel_dev:.2e}")
print(f"  analytic divergence (B, E): {report.div_b_residual:.2e}, "
      f"{report.div_e_residual:.2e}")

# the radiated field B^[1] at the spin itself, one 2x2 matrix per axis
spot = np.zeros(3)
b1 = [order_j(model, ObservableSpec(kind="field_B", m=m, x=spot), 1, 1.0, x)
      for m in (1, 2, 3)]
print("  radiated field at the spin, |B^[1]_m|:",
      ", ".join(f"{np.linalg.norm(b):.2e}" for b in b1))
