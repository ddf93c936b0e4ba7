"""Contrast and connected-correlation maps on a unit-filled square lattice.

A finite L x L array with open boundaries, one atom per site. A spec
builds its coupling matrix once, on first use, and both observables take
it unchanged, so each is bit-for-bit the configuration result (a tested
invariant). Both take a float time or a 1-D array of times: contrast
through :func:`rydramsey.ising_core.sigma_plus_couplings`, one kernel
evaluation per distinct coupling value at each time (one kernel call per
block of rows and chunk of times), and correlation maps through one
:func:`rydramsey.ising_core.connected_sxsx` call against the central site.
Correlations follow the spin-1/2 normalization S = sigma/2, so
|G| <= 1/4 always.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParameterError
from .ising_core import AtomConfiguration, RamseyProtocol, connected_sxsx, sigma_plus_couplings
from .potential import InteractionPotential

__all__ = [
    "MAX_SIDE",
    "LatticeSpec",
    "lattice_positions",
    "lattice_contrast",
    "correlation_map",
    "d4_deviation",
]

# Coupling and distance arrays are dense (L^2, L^2), so memory grows as
# L^4: at L = 50 each float64 one is 50 MB, and fig4 peaks near 135 MB RSS.
MAX_SIDE = 50


@dataclass(frozen=True)
class LatticeSpec:
    """Unit-filled square lattice: L x L sites at spacing a (um), open
    boundaries, plus the potential acting on it."""

    side: int
    spacing: float
    potential: InteractionPotential

    def __post_init__(self):
        if (
            not isinstance(self.side, (int, np.integer))
            or isinstance(self.side, bool)
            or self.side < 1
        ):
            raise ParameterError(f"side must be an integer >= 1, got {self.side!r}")
        if self.side > MAX_SIDE:
            raise CapacityError(
                f"dense (L^2, L^2) lattice arrays are capped at L = {MAX_SIDE}, "
                f"got L = {self.side if self.side < 10**9 else '>= 1e9'}"
            )
        if not self.spacing > 0:
            raise ParameterError(f"spacing must be positive, got {self.spacing!r}")

    @property
    def n_sites(self) -> int:
        return self.side * self.side

    @property
    def center_site(self) -> int:
        """Flat index ix * L + iy of the central site (exact center for odd L)."""
        mid = (self.side - 1) // 2
        return mid * self.side + mid

    def configuration(self) -> AtomConfiguration:
        return AtomConfiguration(positions=lattice_positions(self.side, self.spacing))

    @cached_property
    def couplings(self) -> np.ndarray:
        """(L^2, L^2) read-only coupling matrix in rad/us, built on first use."""
        v = self.configuration().coupling_matrix(self.potential)
        v.flags.writeable = False
        return v


def lattice_positions(side: int, spacing: float) -> np.ndarray:
    """(L^2, 3) positions of a unit-filled L x L lattice in the z = 0 plane.

    Site (ix, iy) sits at flat index ix * L + iy. ParameterError if the
    farthest coordinate overflows float64.
    """
    ix, iy = np.divmod(np.arange(side * side), side)
    pos = np.zeros((side * side, 3))
    with np.errstate(over="ignore"):
        pos[:, 0] = ix * spacing
        pos[:, 1] = iy * spacing
    if not np.isfinite(pos[-1, 0]):
        raise ParameterError(f"lattice positions overflow float64 at spacing {spacing:.3g} um")
    return pos


def lattice_contrast(spec: LatticeSpec, proto: RamseyProtocol, t) -> complex | np.ndarray:
    """Per-spin coherence of the lattice under ``proto`` at time t, a
    float or a 1-D array; the total coherence is L^2 times it.

    Hands :attr:`LatticeSpec.couplings` to sigma_plus_couplings, which
    evaluates the kernel once per distinct coupling value at each time,
    all times of a block of rows in one call;
    returns a complex for a float t and a complex array for an array.
    L = 1 gives the bare single-atom signal sin(theta) D e^{-gamma_d t}.
    """
    return sigma_plus_couplings(spec.couplings, proto, t)


def correlation_map(spec: LatticeSpec, proto: RamseyProtocol, t) -> np.ndarray:
    """Map of G(center, j) = <S^x S^x> - <S^x><S^x> under ``proto`` over
    all sites j, with the reference site at :attr:`LatticeSpec.center_site`.

    Returns an (L, L) float array indexed [ix, iy] for a float t, and a
    (times, L, L) array of such maps for a 1-D array of times, each equal
    to its one-time map bit for bit. The reference site holds NaN (G(i, i)
    is not defined by the map). G is symmetric in its two sites and
    bounded by 1/4 in the S = sigma/2 convention.
    One :func:`~rydramsey.ising_core.connected_sxsx` call on
    :attr:`LatticeSpec.couplings` evaluates every site at every time, at
    every gamma and gamma_d (an echo follows the commuted model
    sequence). At t = 0 every entry vanishes.

    Raises
    ------
    ParameterError
        t outside the time rule of
        :func:`~rydramsey.ising_core.sigma_plus_couplings`.
    """
    center = spec.center_site
    js = np.delete(np.arange(spec.n_sites), center)
    g = connected_sxsx(spec.couplings, proto, center, js, t)
    values = np.insert(g, center, np.nan, axis=-1)  # flat index ix * L + iy
    return values.reshape(*g.shape[:-1], spec.side, spec.side)


def d4_deviation(values: np.ndarray) -> float:
    """Maximum |G - G_transformed| over the point group of the square.

    ``values`` is a :func:`correlation_map` array. It must be square
    with an odd side, else ParameterError: its reference site is then
    the exact center, and the geometry (hence the map) is invariant
    under the 8 rotations/reflections fixing it. Returns the largest
    absolute mismatch across all transforms and sites; NaN entries are
    ignored.
    """
    rows, cols = values.shape if values.ndim == 2 else (0, 0)
    if rows != cols or rows % 2 == 0:
        raise ParameterError(
            f"D4 symmetry check needs a square map with an odd side, got shape {values.shape}"
        )
    worst = 0.0
    for k in range(4):
        for flip in (False, True):
            w = np.rot90(values, k)
            if flip:
                w = w.T
            d = np.abs(values - w)
            worst = max(worst, float(np.nanmax(d)) if np.isfinite(d).any() else 0.0)
    return worst
