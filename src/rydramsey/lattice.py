"""Contrast and connected-correlation maps on a unit-filled square lattice.

A finite L x L array with open boundaries, one atom per site. Both
observables take a float time or a 1-D array of times. The coupling of
two sites depends only on their displacement (|dx|, |dy|), so both read
one (L, L) table of couplings. The contrast factors each site's product
over the table into two one-axis products, O(L^3) work per time. It is
not bit-for-bit the configuration result: it groups a site's N - 1
multiplies differently from
:func:`rydramsey.ising_core.sigma_plus_couplings`, and on the same
couplings the two stay within 5 N eps E mean_k |P_k| (E the envelope,
P_k site k's product; a tested bound). A correlation map runs the body
of :func:`rydramsey.ising_core.connected_sxsx` against the central site
on blocks of rows gathered from the table by displacement, so each map
is bit-for-bit that correlator on the table spread to (L^2, L^2) (a
tested invariant) without that matrix. Where positions and their
differences are exact (spacing 0.5 um, say), the spread table is the
positions' coupling matrix bit for bit; elsewhere the differences of
rounded positions move the latter's entries by a few ulp. Correlations
follow the spin-1/2 normalization S = sigma/2, so |G| <= 1/4 always.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParameterError
from .ising_core import (
    _BLOCK_ENTRIES,
    RamseyProtocol,
    _checked_times,
    _connected,
    _envelope,
    _half_angle_kernel,
)
from .potential import InteractionPotential, _q_of_r, _v_of_q

__all__ = [
    "MAX_SIDE",
    "LatticeSpec",
    "lattice_positions",
    "lattice_contrast",
    "correlation_map",
    "d4_deviation",
]

# A correlation map pairs the center with each of the L^2 sites over all
# L^2 sites, O(L^4) work per map and time: at L = 50 fig4 takes about 0.7 s,
# nearly all in its maps. Memory is O(L^2): the table and blocks of rows.
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
                f"lattice maps take O(L^4) work per time and are capped at L = {MAX_SIDE}, "
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

    @cached_property
    def coupling_table(self) -> np.ndarray:
        """(L, L) read-only table in rad/us, built on first use: entry
        [dx, dy] couples two sites dx rows and dy columns apart, 0 at [0, 0].

        Site 0's distances by the operations of
        :class:`~rydramsey.ising_core.AtomConfiguration`, then V by
        :func:`~rydramsey.potential.evaluate_V`'s rule, so the table is row
        0 of that configuration's coupling matrix on
        :func:`lattice_positions`, reshaped to (L, L), bit for bit.
        Overflowing positions or distances, or coincident sites, raise
        that configuration's ParameterErrors.
        """
        x = _axis_positions(self.side, self.spacing)
        with np.errstate(over="ignore"):
            r = np.square(x)[:, None] + np.square(x)
        if not np.isfinite(r[-1, -1]):
            raise ParameterError("pair distances overflow float64 (a span past ~1e154 um)")
        if np.count_nonzero(r == 0.0) > 1:
            raise ParameterError("two atoms coincide")
        np.sqrt(r, out=r)
        r[0, 0] = 1.0  # placeholder: the bare V diverges at r = 0
        v = _v_of_q(self.potential, _q_of_r(self.potential, r, out=r))
        v[0, 0] = 0.0
        v.flags.writeable = False
        return v


def _axis_positions(side: int, spacing: float) -> np.ndarray:
    """Coordinates i * spacing, i = 0 .. L - 1, of the lattice's rows (and
    columns); ParameterError if the farthest overflows float64."""
    with np.errstate(over="ignore"):
        x = np.arange(side) * spacing
    if not np.isfinite(x[-1]):
        raise ParameterError(f"lattice positions overflow float64 at spacing {spacing:.3g} um")
    return x


def lattice_positions(side: int, spacing: float) -> np.ndarray:
    """(L^2, 3) positions of a unit-filled L x L lattice in the z = 0 plane.

    Site (ix, iy) sits at flat index ix * L + iy. ParameterError if the
    farthest coordinate overflows float64.
    """
    x = _axis_positions(side, spacing)
    ix, iy = np.divmod(np.arange(side * side), side)
    pos = np.zeros((side * side, 3))
    pos[:, 0] = x[ix]
    pos[:, 1] = x[iy]
    return pos


def lattice_contrast(spec: LatticeSpec, proto: RamseyProtocol, t) -> complex | np.ndarray:
    """Per-spin coherence of the lattice under ``proto`` at time t, a
    float or a 1-D array; the total coherence is L^2 times it.

    The closed form of :func:`~rydramsey.ising_core.sigma_plus_couplings`
    on :attr:`LatticeSpec.coupling_table`, without the (L^2, L^2) matrix.
    Times are checked by that function's rule and taken in chunks of
    about _BLOCK_ENTRIES // L^2. For each chunk the kernel is evaluated
    once on X = t V over the table, at t = 1 with one g = gamma t per
    time, so every factor F[dx, dy] = f(V[dx, dy] t, gamma t) has its
    f_kernel bits. Site (ix, iy)'s product then factors as
    P[ix, iy] = prod_jx Q[|ix - jx|, iy] with
    Q[dx, iy] = prod_jy F[dx, |iy - jy|]: each axis is L in-place
    multiplies of (times, L, L) arrays, read from a copy of F (then Q)
    mirrored to 2L - 1 displacements. The self pair has F[0, 0] = 1, an
    exact zero factor zeroes exactly the sites with a partner at its
    displacement, and every |F| <= 1, so no partial product underflows
    before its site's product does. Each time's values are independent
    of the other times, so an array call equals its one-time calls bit
    for bit. The grouping differs from the configuration result's N - 1
    multiplies in order, which costs rounding only (bound in the module
    docstring). Returns a complex for a float t and a complex array for
    an array. L = 1 gives the bare single-atom signal
    sin(theta) D e^{-gamma_d t}.
    """
    table = spec.coupling_table
    times = _checked_times(proto, t, table)
    flat = times.reshape(-1)
    side, th, beta = spec.side, proto.theta, proto.beta
    mirror = np.abs(np.arange(1 - side, side))  # displacement |k| at k + L - 1
    span = max(1, _BLOCK_ENTRIES // spec.n_sites)
    sums = np.empty(flat.size, dtype=complex)
    for a in range(0, flat.size, span):
        ts = flat[a : a + span, None]
        x = ts * table.reshape(1, -1)  # X = V t, a row per time
        f, z = np.empty((2, *x.shape), dtype=complex)
        _half_angle_kernel(x, 1.0, th, beta, f, *np.empty((3, *x.shape)), proto.gamma * ts, z)
        f = f.reshape(-1, side, side)[:, :, mirror]  # F[t, dx, |k|]
        q = f[:, :, side - 1 :].copy()  # jy = 0
        for jy in range(1, side):
            q *= f[:, :, side - 1 - jy : 2 * side - 1 - jy]
        q = q[:, mirror]  # Q[t, |k|, iy]
        p = q[:, side - 1 :].copy()  # jx = 0
        for jx in range(1, side):
            p *= q[:, side - 1 - jx : 2 * side - 1 - jx]
        sums[a : a + span] = p.reshape(p.shape[0], -1).sum(axis=1)
    out = _envelope(proto, flat) * sums / spec.n_sites
    return complex(out[0]) if times.ndim == 0 else out


def correlation_map(spec: LatticeSpec, proto: RamseyProtocol, t) -> np.ndarray:
    """Map of G(center, j) = <S^x S^x> - <S^x><S^x> under ``proto`` over
    all sites j, with the reference site at :attr:`LatticeSpec.center_site`.

    Returns an (L, L) float array indexed [ix, iy] for a float t, and a
    (times, L, L) array of such maps for a 1-D array of times, each equal
    to its one-time map bit for bit. The reference site holds NaN (G(i, i)
    is not defined by the map). G is symmetric in its two sites and
    bounded by 1/4 in the S = sigma/2 convention.
    One pass of :func:`~rydramsey.ising_core.connected_sxsx`'s body, on
    rows gathered from :attr:`LatticeSpec.coupling_table` a block at a
    time, evaluates every site at every time, at every gamma and gamma_d (an
    echo follows the commuted model sequence). At t = 0 every entry vanishes.

    Raises
    ------
    ParameterError
        t outside the time rule of
        :func:`~rydramsey.ising_core.sigma_plus_couplings`.
    """
    times = _checked_times(proto, t, spec.coupling_table)
    d = np.abs(np.subtract.outer(np.arange(spec.side), np.arange(spec.side)))

    def rows(idx):  # [k, j] = table[|kx - jx|, |ky - jy|] for the sites k in idx
        kx, ky = np.divmod(idx, spec.side)
        return spec.coupling_table[d[kx][:, :, None], d[ky][:, None, :]].reshape(len(idx), -1)

    center = spec.center_site
    js = np.delete(np.arange(spec.n_sites), center)
    g = _connected(rows, proto, center, js, times).reshape(times.shape + js.shape)
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
