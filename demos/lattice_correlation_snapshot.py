"""Connected spin correlations around the center of a unit-filled lattice.

Builds the 15 x 15 square lattice with the plateau radius spanning two
lattice sites, evolves to V0 t = pi, and renders the connected x-x
correlation map around the center atom as character art. Correlations
build up inside the plateau radius and die off sharply beyond it.

Run:  python3 demos/lattice_correlation_snapshot.py
"""

import math

import numpy as np

from rydramsey import (
    DressingParams,
    LatticeSpec,
    PotentialKind,
    RamseyProtocol,
    correlation_map,
    d4_deviation,
    derive_potential,
    lattice_contrast,
)

pot = derive_potential(DressingParams(rabi=1000.0, detuning=5000.0, c6=-1.0e4),
                       PotentialKind.SOFT_CORE)
spec = LatticeSpec(side=15, spacing=pot.r_c / 2.0, potential=pot)
proto = RamseyProtocol(math.pi / 2, echo=True, gamma=0.0, gamma_d=0.0)

t = math.pi / pot.v0
values = correlation_map(spec, proto, t)  # (15, 15), NaN at the center
print("15 x 15 lattice, spacing r_c/2, V0 t = pi")
print(f"contrast has collapsed to {abs(lattice_contrast(spec, proto, t)):.1e} "
      f"while G peaks; four-fold symmetry residual {d4_deviation(values):.1e}\n")

# character-art |G|: one glyph per site, log-binned
glyphs = " .:-=+*#@"
g = np.abs(values)
scale = np.nanmax(g)
for ix in range(15):
    row = []
    for iy in range(15):
        if np.isnan(g[ix, iy]):
            row.append("O")  # reference atom
            continue
        if g[ix, iy] <= 0.0:
            row.append(glyphs[0])
            continue
        level = 8.0 + 2.0 * math.log10(g[ix, iy] / scale)  # 4 decades
        row.append(glyphs[max(0, min(8, int(level)))])
    print(" ".join(row))

print(f"\npeak |G| = {scale:.4f} at the plateau-radius ring "
      f"(bound 0.25); beyond 2.5 r_c the map is numerically empty")
