"""Contrast decay of a random gas from the dilute to the blockaded regime.

Sweeps the blockade number N_R (mean atoms per plateau volume) at fixed
potential and prints the half-contrast time from the one-dimensional
quadrature, together with the dilute sqrt-law and dense hard-core
asymptotes. A small Monte Carlo run over random atom positions verifies
one point of the curve the slow way.

Run:  python3 demos/gas_density_sweep.py
"""

import math

import numpy as np

from rydramsey import (
    DimensionlessPoint,
    Regime,
    asymptotic_contrast,
    contrast_gas,
    monte_carlo_gas,
    tau_half,
)

theta = math.pi / 2

print(f"{'N_R':>8} {'V0*tau(echo)':>14} {'V0*tau(no echo)':>16}")
for n_r in np.geomspace(1e-3, 1e3, 7):
    taus = []
    for beta in (0, 1):
        pt = DimensionlessPoint(n_r=n_r, v0t=1.0, theta=theta, beta=beta)
        spec, _ = pt.to_physical()
        taus.append(spec.potential.v0 * tau_half(spec))
    print(f"{n_r:8.0e} {taus[0]:14.5g} {taus[1]:16.5g}")
print("slopes: tau ~ N_R^-2 dilute (interactions rarely reach a partner),")
print("        tau ~ N_R^-1/2 dense (plateau phase shared by N_R neighbors)\n")

# asymptotes anchor the two ends of the curve
pt = DimensionlessPoint(n_r=1e-2, v0t=9.0, theta=theta, beta=0)
spec, t = pt.to_physical()
print(f"N_R = 0.01, V0 t = 9: exact contrast "
      f"{abs(contrast_gas(spec, t)):.6f}, sqrt-law "
      f"{asymptotic_contrast(pt, Regime.LOW).value:.6f}")
# dense side: invert the naive hard-core law (B = 1) for its half-time
t_hard = 2.0 * math.acos(1.0 - math.log(2.0) / 100.0)
print(f"N_R = 100: exact V0*tau = 0.26584, naive hard core gives "
      f"{t_hard:.5f} (fitting B tightens this, see the fig3 pipeline)")

# brute force one point: average exp over random positions in a box
pt = DimensionlessPoint(n_r=0.1, v0t=4.0, theta=theta, beta=0)
spec, t = pt.to_physical()
mc = monte_carlo_gas(spec, [t], n_samples=24, n_atoms=256, seed=3)
exact = contrast_gas(spec, t)
pull = abs(mc.mean[0] - exact) / mc.stderr[0]
print(f"\nMonte Carlo check at N_R = 0.1, V0 t = 4: "
      f"sampled {mc.mean[0].real:.5f}, quadrature {exact.real:.5f} "
      f"({pull:.2f} standard errors apart, {mc.n_atoms} atoms/box)")
