"""Anatomy of a single interacting pair in a Ramsey sequence.

Walks the smallest nontrivial system: two atoms at distance r, tipped by
theta, accumulating the pair phase X = V(r) t. Prints the per-pair
coherence factor with and without the echo pulse, then cross-checks the
closed form against the dense master-equation solver with spontaneous
emission switched on.

Run:  python3 demos/pair_coherence_anatomy.py
"""

import math

import numpy as np

from rydramsey import (
    DressingParams,
    PotentialKind,
    RamseyProtocol,
    derive_potential,
    evaluate_V,
    f_kernel,
    sigma_plus_couplings,
)
from rydramsey.oracle import ramsey_sigma_plus

pot = derive_potential(DressingParams(rabi=1000.0, detuning=5000.0, c6=-1.0e4),
                       PotentialKind.SOFT_CORE)
print(f"soft-core potential: V0 = {pot.v0:.3g} rad/us, r_c = {pot.r_c:.3g} um, "
      f"eps = {pot.epsilon:.2g}")

r = 0.8 * pot.r_c
v = evaluate_V(pot, r)
print(f"pair at r = {r:.2f} um sits on the plateau shoulder: V = {v:.4f} rad/us\n")

theta = math.pi / 2
print("pair coherence factor f(X) over one plateau period")
print(f"{'V t':>6} {'|f|':>8} {'arg f echo':>12} {'arg f no echo':>14}")
for x in np.linspace(0.0, 2.0 * math.pi, 9):
    fe = f_kernel(x, 0.0, theta, 0)
    fn = f_kernel(x, 0.0, theta, 1)
    print(f"{x:6.2f} {abs(fe):8.4f} {np.angle(fe):12.4f} {np.angle(fn):14.4f}")
print("both sequences lose the same magnitude (the entangling cos(X/2));")
print("the echo only cancels the running mean-field phase X/2\n")

# now with emission: gamma * t = 0.3 at the latest time below
gamma = 0.1
couplings = np.array([[0.0, v], [v, 0.0]])
times = np.linspace(0.0, 3.0, 7)
for echo in (True, False):
    proto = RamseyProtocol(theta=theta, echo=echo, gamma=gamma, gamma_d=0.0)
    closed = sigma_plus_couplings(couplings, proto, times)
    oracle = ramsey_sigma_plus(couplings, proto, times)
    worst = np.max(np.abs(closed - oracle))
    tag = "echo   " if echo else "no echo"
    print(f"{tag}: closed form vs master equation, max deviation {worst:.2e}")
