"""Contrast and connected-correlation maps on a unit-filled square lattice.

A finite L x L array with open boundaries, one atom per site. Each
call builds the coupling matrix once. Contrast hands that matrix to
:func:`rydramsey.ising_core.sigma_plus_couplings` unchanged (so it is
bit-for-bit the configuration result, a tested invariant) on a float
time or a whole time grid, evaluating the kernel once per distinct
coupling value at each time; correlation maps evaluate the closed-form
connected correlator against the central site for every other
site in one pass, and carry the lattice geometry along for export.
Correlations follow the spin-1/2 normalization S = sigma/2, so
|G| <= 1/4 always.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ising_core import (
    AtomConfiguration,
    RamseyProtocol,
    _connected_sxsx_couplings,
    sigma_plus_couplings,
)
from .potential import InteractionPotential

__all__ = [
    "LatticeSpec",
    "CorrelationMap",
    "lattice_positions",
    "lattice_contrast",
    "correlation_map",
    "d4_deviation",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Unit-filled square lattice: L x L sites at spacing a (um), open
    boundaries, plus the potential and pulse protocol acting on it."""

    side: int
    spacing: float
    potential: InteractionPotential
    protocol: RamseyProtocol

    def __post_init__(self):
        if (
            not isinstance(self.side, (int, np.integer))
            or isinstance(self.side, bool)
            or self.side < 1
        ):
            raise ParameterError(f"side must be an integer >= 1, got {self.side!r}")
        if not self.spacing > 0:
            raise ParameterError(f"spacing must be positive, got {self.spacing!r}")

    @property
    def n_sites(self) -> int:
        return self.side * self.side

    def site_index(self, ix: int, iy: int) -> int:
        """Flat index of the site at column ix, row iy (both 0-based)."""
        if not (0 <= ix < self.side and 0 <= iy < self.side):
            raise ParameterError(
                f"site ({ix}, {iy}) outside a {self.side}x{self.side} lattice"
            )
        return ix * self.side + iy

    @property
    def center_site(self) -> int:
        """Flat index of the central site (exact center for odd L)."""
        mid = (self.side - 1) // 2
        return self.site_index(mid, mid)

    def configuration(self) -> AtomConfiguration:
        return AtomConfiguration(positions=lattice_positions(self.side, self.spacing))


def lattice_positions(side: int, spacing: float) -> np.ndarray:
    """(L^2, 3) positions of a unit-filled L x L lattice in the z = 0 plane.

    Site (ix, iy) sits at flat index ix * L + iy.
    """
    ix, iy = np.divmod(np.arange(side * side), side)
    pos = np.zeros((side * side, 3))
    pos[:, 0] = ix * spacing
    pos[:, 1] = iy * spacing
    return pos


def lattice_contrast(spec: LatticeSpec, t) -> complex | np.ndarray:
    """Per-spin coherence of the lattice at time t, a float or a 1-D array;
    the total coherence is L^2 times it.

    Builds the coupling matrix of the L^2 configuration once and hands
    it to sigma_plus_couplings, which evaluates the kernel once per
    distinct coupling value at each time; returns a complex for a float
    t and a complex array for an array. L = 1 gives the bare single-atom
    signal sin(theta) D e^{-gamma_d t}.
    """
    couplings = spec.configuration().coupling_matrix(spec.potential)
    return sigma_plus_couplings(couplings, spec.protocol, t)


@dataclass(frozen=True)
class CorrelationMap:
    """Connected correlations G(center, j) on the lattice at one time.

    values is an (L, L) array indexed [ix, iy]; the reference site holds
    NaN (G(i, i) is not defined by the map). G is symmetric in its two
    sites and bounded by 1/4 in the S = sigma/2 convention.
    """

    side: int
    spacing: float
    center: int
    time: float
    values: np.ndarray

    @property
    def center_xy(self) -> tuple:
        return divmod(self.center, self.side)

    def to_csv(self) -> str:
        """CSV text with columns site_x, site_y, G (reference site skipped)."""
        buf = io.StringIO()
        buf.write("site_x,site_y,G\n")
        cx, cy = self.center_xy
        for ix in range(self.side):
            for iy in range(self.side):
                if ix == cx and iy == cy:
                    continue
                buf.write(f"{ix:d},{iy:d},{self.values[ix, iy]:.17g}\n")
        return buf.getvalue()

    def to_json_block(self) -> dict:
        """Dense-grid dict (NaN encoded as None) for embedding in reports."""
        grid = [
            [None if np.isnan(v) else float(v) for v in row]
            for row in self.values
        ]
        return {
            "side": self.side,
            "spacing_um": self.spacing,
            "center_site": self.center,
            "time_us": self.time,
            "grid": grid,
        }


def correlation_map(spec: LatticeSpec, t: float) -> CorrelationMap:
    """Map of G(center, j) = <S^x S^x> - <S^x><S^x> over all sites j, with
    the reference site at :attr:`LatticeSpec.center_site`.

    Closed-form evaluation of every site in one pass over the coupling
    matrix, at every gamma and gamma_d (an echo follows the commuted
    model sequence). At t = 0 every entry vanishes.

    Raises
    ------
    ParameterError
        t not a single time, or t outside the time rule of
        :func:`~rydramsey.ising_core.sigma_plus_couplings`.
    """
    center = spec.center_site
    v = spec.configuration().coupling_matrix(spec.potential)
    js = np.delete(np.arange(spec.n_sites), center)
    values = np.full(spec.n_sites, np.nan)  # flat index ix * L + iy
    values[js] = _connected_sxsx_couplings(v, spec.protocol, center, js, t)
    values = values.reshape(spec.side, spec.side)
    return CorrelationMap(
        side=spec.side, spacing=spec.spacing, center=center, time=t, values=values
    )


def d4_deviation(cmap: CorrelationMap) -> float:
    """Maximum |G - G_transformed| over the point group of the square.

    Meaningful when the reference site is the exact center of an odd-L
    lattice, where the geometry (and hence the map) is invariant under
    the 8 rotations/reflections fixing the center. Returns the largest
    absolute mismatch across all transforms and sites; NaN centers are
    ignored.
    """
    cx, cy = cmap.center_xy
    mid = (cmap.side - 1) // 2
    if cmap.side % 2 == 0 or (cx, cy) != (mid, mid):
        raise ParameterError(
            "D4 symmetry check requires the exact center of an odd lattice"
        )
    v = cmap.values
    worst = 0.0
    for k in range(4):
        for flip in (False, True):
            w = np.rot90(v, k)
            if flip:
                w = w.T
            d = np.abs(v - w)
            worst = max(worst, float(np.nanmax(d)) if np.isfinite(d).any() else 0.0)
    return worst
