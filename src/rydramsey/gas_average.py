"""Disorder-averaged Ramsey coherence of a uniform frozen gas.

For uncorrelated uniform positions the configuration average of the
per-spin coherence collapses to a single radial integral,

    sigma_plus(t) = sin(theta) D(gamma, t) e^{-gamma_d t} exp(-I(t)),
    I(t) = rho * integral 4 pi r^2 [1 - f(V(r) t, gamma t)] dr,

with the pair kernel f of :mod:`rydramsey.ising_core`. This module
evaluates I three independent ways (numerical integration of the
soft-core potential by a spectral midpoint rule with a small-T Taylor
branch; closed forms, for the soft-core potential at gamma = 0 through
Bessel functions and for the bare one at every gamma through erf and
Dawson's function; and Monte Carlo sampling of explicit
configurations), exposes the low/high-density asymptotics with their
exact amplitudes, and locates the half-contrast time tau_1/2. One
routes function, :func:`_exponent_routes`, takes every route at a 1-D
array of times, for the checked evaluator :func:`_exponent_integral_many`
(a float call evaluates a one-element array) and for the rounds of the
tau_1/2 tables alike: a time's value does not depend on the other times
of the call.

The sin(theta) prefactor follows the same convention as the
configuration-resolved functions, so the gas coherence at t = 0 is
sin(theta) and the rho -> 0 limit is the bare single-atom signal. The
pure-dephasing rate gamma_d never enters I; it is a global envelope.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BiasWarning,
    CapacityError,
    CrossingNotFoundError,
    NumericalError,
    ParameterError,
    SingularityError,
    UnsupportedRegimeError,
    ValidityWarning,
)
from .ising_core import (
    _BLOCK_ENTRIES as _MC_PAIRS,
    RamseyProtocol,
    _envelope,
    _half_angle_kernel,
    _row_products,
)
from .potential import (
    DressingParams,
    InteractionPotential,
    PotentialKind,
    _n_r,
    _v_of_q,
    blockade_number,
    derive_potential,
)

__all__ = [
    "GasSpec",
    "DimensionlessPoint",
    "MCResult",
    "exponent_integral",
    "contrast_gas",
    "contrast_gas_finite_n",
    "monte_carlo_gas",
    "low_density_amplitude",
    "low_density_contrast",
    "high_density_contrast",
    "fit_hardcore_amplitude",
    "tau_half",
]

_REL_TOL = 1e-8
_ABS_TOL = 1e-12

# |T| = |V0 t| up to which the soft-core exponent is summed as a Taylor
# series in T, where 1 - f loses digits to cancellation.
_T_TAYLOR = 0.1

# h = |y|/2 from which K(y) takes its Bessel functions from Hankel's
# asymptotic series, summed to _HANKEL_TERMS terms, instead of :func:`_j01`.
_H_HANKEL = 100.0
_HANKEL_TERMS = 12

# h below which :func:`_j01` sums the power series of J0 and J1 instead of
# running Miller's backward recurrence.
_H_SERIES = 4.0

# x from which :func:`_dawson` sums the asymptotic series instead of the
# power series.
_X_DAWSON = 8.0

# _tau_grid builds the probe grid this many points at a time. The scan stops
# a few dozen points past the floor (median 23, at most 55 on the default
# sweeps), so most scans build one block.
_GRID_BLOCK = 32

# Margin in ln(ratio) that tau_half's skip rule keeps above the error of a
# computed contrast ratio at both ends of a skip. The largest such error is
# the midpoint rule's, whose estimate is held below 1e-8 |I|, so the margin
# covers |I| up to 5 000; at the probes above 1/2 of the default sweeps and
# the tests' window gases |I| stayed below 70 (23 on the midpoint rule). The
# closed forms and the Taylor branch are near rounding level. A margin of
# 1e-6 or 1e-3 skips the same points of the default sweeps, within 0.03
# probes per tau_1/2.
_SKIP_MARGIN = 1e-4

# Nodes of the soft-core midpoint rule evaluated at once, a multiple of 3:
# each array of a chunk stays in cache (48 kB or less), and a longer rule
# (|V0 t| above about 2e3), float or array, is summed in pieces of this size.
_NODE_CHUNK = 3 * 2**10

# Most nodes of one soft-core midpoint rule, at |V0 t| of about 1.8e8 (a rule
# of 2.5e8 nodes took 12 s on a shared 2-vCPU host). A longer rule is a
# CapacityError, raised before any node is built.
_NODE_CAP = 2**28

# Iteration cap of tau_half's Brent polish, scipy's brentq default.
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class GasSpec:
    """Uniform gas: density (um^-3), potential, pulse protocol."""

    density: float
    potential: InteractionPotential
    protocol: RamseyProtocol

    def __post_init__(self):
        if not 0 < self.density < math.inf:
            raise ParameterError(f"density must be positive and finite, got {self.density!r}")

    @classmethod
    def from_blockade_number(
        cls, n_r: float, potential: InteractionPotential, protocol: RamseyProtocol
    ) -> "GasSpec":
        """The gas with blockade number n_r: the inverse of :attr:`n_r`,
        so it needs a soft-core potential (a bare one has r_c = 0)."""
        if potential.kind is not PotentialKind.SOFT_CORE:
            raise UnsupportedRegimeError(
                "a blockade number fixes the density only for a soft-core potential"
            )
        n_r = float(n_r)  # 3 n_r then overflows to inf without a numpy warning
        return cls(3.0 * n_r / (4.0 * math.pi * potential.r_c**3), potential, protocol)

    @property
    def n_r(self) -> float:
        """Blockade number 4 pi rho r_c^3 / 3 (zero for a bare potential)."""
        return blockade_number(self.density, self.potential)


@dataclass(frozen=True)
class DimensionlessPoint:
    """The dimensionless coordinates the gas dynamics depends on.

    For a soft-core potential the disorder-averaged coherence is a
    function of (N_R, V0 t, theta, beta, gamma/V0, gamma_d/V0) only; two
    physical parameter sets mapping to the same point give the same
    contrast. ``to_physical`` realizes a point in a canonical gauge
    (r_c = 1 um, V0 = 1 rad/us, epsilon = 0.1); the gas it returns has
    this point's N_R and V0 t to ~1e-12.
    """

    n_r: float
    v0t: float
    theta: float
    beta: int
    gamma_over_v0: float = 0.0
    gamma_d_over_v0: float = 0.0

    def __post_init__(self):
        if self.beta not in (0, 1):
            raise ParameterError(f"beta must be 0 or 1, got {self.beta!r}")
        if not 0 < self.n_r < math.inf:
            raise ParameterError(f"n_r must be positive and finite, got {self.n_r!r}")
        if not -math.inf < self.v0t < math.inf:
            raise ParameterError(f"v0t must be finite, got {self.v0t!r}")

    def to_physical(self) -> tuple:
        """Realize this point as (GasSpec, t) in the canonical gauge."""
        eps = 0.1
        v0 = 1.0
        r_c = 1.0
        two_delta = v0 / eps**4
        dress = DressingParams(
            rabi=eps * two_delta, detuning=two_delta / 2.0, c6=-two_delta * r_c**6
        )
        pot = derive_potential(dress, PotentialKind.SOFT_CORE)
        proto = RamseyProtocol(
            theta=self.theta,
            echo=(self.beta == 0),
            gamma=self.gamma_over_v0 * v0,
            gamma_d=self.gamma_d_over_v0 * v0,
        )
        return GasSpec.from_blockade_number(self.n_r, pot, proto), self.v0t / v0


def _taylor_order(t_abs: float) -> int:
    """Order N at which the soft-core Taylor series in T = V0 t is cut.

    a_m <= 1/(m+1)! bounds |c_n| by 1.5^n / n! for both beta, and
    J_n <= pi/2, so for x = 1.5 |T| <= 1 the terms past N sum to at most
    pi x^(N+1) / (N+1)!. N is the smallest order, at least 2, that puts
    this bound below 2^-53 T^2 / 8: rounding level against Re I, which is
    of order T^2 / 8 even where the linear term vanishes.
    """
    x = 1.5 * t_abs
    tol = 2.0**-53 * t_abs * t_abs / 8.0
    n, tail = 2, math.pi * x**3 / 6.0
    while tail > tol:
        n += 1
        tail *= x / (n + 1)
    return n


_TAYLOR_MAX = _taylor_order(_T_TAYLOR)
_ORDERS = np.arange(1.0, _TAYLOR_MAX + 1.0)
# J_n = integral_0^inf (1 + u^2)^-n du, n = 1.._TAYLOR_MAX
_J_N = np.array([
    math.pi / 2 * math.comb(2 * n - 2, n - 1) / 4 ** (n - 1) for n in range(1, _TAYLOR_MAX + 1)
])
_I_POW = np.array([1j**k for k in range(_TAYLOR_MAX + 1)])
_HALF_I_EXP = np.array([0.5j**k / math.factorial(k) for k in range(_TAYLOR_MAX + 1)])
_INV_FACT = [1.0 / math.factorial(k) for k in range(_TAYLOR_MAX + 1)]


def _taylor_moments(g: float, n: int) -> list:
    """a_m = (1/m!) integral_0^1 s^m e^{-g s} ds, m = 0..n-1, for g >= 0
    and 2 <= n <= _TAYLOR_MAX.

    Every a_m is positive, with a_m = e^{-g}/(m+1)! + g a_{m+1}: a sum of
    positive terms, so the downward recurrence keeps the relative error of
    its start. For g <= n it starts from the series
    a_{n-1} = e^{-g} sum_k g^k/(n+k)!, whose term ratio g/(n+k+1) is
    below 1, and it is exact at g = 0 (a_m = 1/(m+1)!) and at subnormal g.
    For g > n, a_0 = -expm1(-g)/g and the upward recurrence
    a_m = (a_{m-1} - e^{-g}/m!)/g, which cancels little: e^{-g}/m! is the
    first term of a_{m-1} = e^{-g} sum_k g^k/(m+k)!, and for g > m the
    terms after it add more than it.
    """
    e = math.exp(-g)
    a = [0.0] * n
    if g <= n:
        term = total = _INV_FACT[n]
        k = n
        while term > 2**-54 * total:
            k += 1
            term *= g / k
            total += term
        a[n - 1] = e * total
        for m in range(n - 2, -1, -1):
            a[m] = e * _INV_FACT[m + 1] + g * a[m + 1]
    else:
        a[0] = -math.expm1(-g) / g
        for m in range(1, n):
            a[m] = (a[m - 1] - e * _INV_FACT[m]) / g
    return a


def _kernel_taylor(g: float, theta: float, beta: int, n_max: int) -> np.ndarray:
    """Taylor coefficients c_n = f^(n)(0)/n!, n = 1..n_max >= 2, of the pair
    kernel in X.

    Expanding the identities of :func:`_soft_core_h` in the moments
    a_m = (1/m!) integral_0^1 s^m e^{-g s} ds of :func:`_taylor_moments`:
    beta = 1: c_n = sin^2(theta/2) i^n a_{n-1};
    beta = 0: c_n = (i/2)^n/n! - i cos^2(theta/2)
              sum_{m<n} a_m (-i)^m (i/2)^(n-1-m) / (n-1-m)!.
    At beta = 0, c_1 = (i/2)(2 cos^2(theta/2) b - cos theta) with
    b = 1 - a_0 = -expm1(-g) - g a_1, accurate to its own size as g -> 0;
    at theta = pi/2, c_1 is that small (~ i g / 4).
    """
    a = np.array(_taylor_moments(g, n_max))
    if beta == 1:
        return math.sin(theta / 2.0) ** 2 * _I_POW[1 : n_max + 1] * a
    q = math.cos(theta / 2.0) ** 2
    conv = np.convolve(np.conj(_I_POW[:n_max]) * a, _HALF_I_EXP[:n_max])[:n_max]
    c = _HALF_I_EXP[1 : n_max + 1] - 1j * q * conv
    c[0] = 0.5j * (2.0 * q * (-math.expm1(-g) - g * a[1]) - math.cos(theta))
    return c


def _soft_core_h(x, g, theta: float, beta: int):
    """h(X) = (1 - f(X, g)) / X elementwise, from the exact identities

    beta = 1: 1 - f = sin^2(theta/2) X (1 - e^{iw}) / w,  w = X + i g;
    beta = 0: 1 - f = (1 - e^{iX/2}) + cos^2(theta/2) X e^{iX/2} (1 - e^{-iw}) / w,
              w = X - i g.
    h is entire in X; at g = 0 the formula needs X != 0. ``x`` is a float
    array and ``g`` a float or a float array of its shape.

    Each node takes its phase from one float tangent, and no complex
    exponential is built. With j = expm1(-g), e^{-g} = 1 + j, and
    u = tan(X/2), e^{iX} = (1 + iu)/(1 - iu) gives

        e^{iX-g} - 1 = (j + iu(2 + j)) / (1 - iu),

    and with v = tan(X/4), 1 - cos(X/2) = 2v^2/(1 + v^2) and
    sin(X/2) = 2v/(1 + v^2),

        e^{iX/2} (e^{-iX-g} - 1) = j cos(X/2) - i (2 + j) sin(X/2).

    Nothing cancels in these numerators: -1 <= j <= 0 for g >= 0, so
    2 + j lies in [1, 2], and cos(X/2) = 1 - 2v^2/(1 + v^2) is exact to
    an ulp of 1, as the complex form's e^{iX/2} is. At beta = 1 the
    denominator (1 - iu)(X + ig) = (X + ug) + i(g - uX) may cancel, but
    only to the rounding of its modulus, so numpy's complex quotient
    (which does not overflow at large g) keeps h within a few ulp of
    |h|. The parts are written into the real and imaginary halves of the
    output in place.
    """
    out = np.empty(x.shape, dtype=complex)
    re, im = out.real, out.imag
    if beta == 1:
        s2 = math.sin(theta / 2.0) ** 2
        np.multiply(np.expm1(-g), -s2, out=re)
        u = np.multiply(x, 0.5)
        np.tan(u, out=u)
        w = np.empty_like(out)
        np.subtract(re, 2.0 * s2, out=w.real)
        np.multiply(u, w.real, out=im)  # -s2 (j + iu(2 + j))
        np.multiply(u, g, out=w.real)
        w.real += x
        np.multiply(u, x, out=w.imag)
        np.subtract(g, w.imag, out=w.imag)  # (1 - iu)(X + ig)
        out /= w
        return out
    c2 = math.cos(theta / 2.0) ** 2
    np.multiply(np.expm1(-g), -c2, out=im)
    v = np.multiply(x, 0.25)
    np.tan(v, out=v)
    omc = np.square(v)
    np.add(omc, 1.0, out=re)
    np.divide(2.0, re, out=re)
    omc *= re  # 1 - cos(X/2)
    v *= re  # sin(X/2)
    np.subtract(1.0, omc, out=re)
    re *= im
    np.subtract(2.0 * c2, im, out=im)
    im *= v  # -c2 e^{iX/2} (e^{-iX-g} - 1) = re + i im
    w = np.empty_like(out)
    w.real = x
    np.negative(g, out=w.imag)
    out /= w
    omc /= x
    re += omc
    v /= x
    im -= v  # minus (e^{iX/2} - 1) / X
    return out


# The nodes of the one-piece midpoint rules, 3M <= _NODE_CHUNK (at most 24 kB
# each, 1.5 MB in all). They depend on M alone, and the default sweeps share
# few of them: their midpoint rules all have |V0 t| below 32, so M runs from
# 25 to 48. The pieces of longer rules are built through __wrapped__ and
# not kept: one rule at |V0 t| = 1e6 has 489.
@functools.lru_cache(maxsize=64)
def _midpoint_cos2(m: int, first: int) -> np.ndarray:
    """cos^2 phi_k at the nodes phi_k = (k + 1/2) pi / (6M) of the midpoint
    rule of :func:`_soft_core_i_over_nr`, first <= k < min(first +
    _NODE_CHUNK, 3M), read-only."""
    phi = (np.arange(first, min(first + _NODE_CHUNK, 3 * m)) + 0.5) * (math.pi / (6 * m))
    cos2 = np.cos(phi) ** 2
    cos2.flags.writeable = False
    return cos2


def _midpoint_order(t_abs: float, g: float = 0.0) -> int:
    """M of the midpoint rule of :func:`_soft_core_i_over_nr` at |T| = t_abs
    and g = gamma t. CapacityError where its 3M nodes pass _NODE_CAP, in
    float arithmetic before M is taken as an int (an infinite |T| too)."""
    order = t_abs / 2.0 + 3.0 * t_abs ** (1.0 / 3.0) + 24.0
    if 3.0 * order > _NODE_CAP:
        raise CapacityError(
            f"the soft-core midpoint rule at |V0 t| = T = {t_abs:.6g}, g = {g:.6g} "
            f"would take {3.0 * order:.3g} nodes, past the cap of {_NODE_CAP}"
        )
    return int(order)


def _midpoint_sums(t_abs: np.ndarray, g: np.ndarray, m: list, theta: float, beta: int) -> tuple:
    """(fine, coarse) at each time of two float arrays, with M from the list
    ``m``: the sums of h over the 3M nodes of the midpoint rule of
    :func:`_soft_core_i_over_nr` and over every third node from node 1
    (the M-point rule), as two complex arrays.

    Each rule is cut into pieces of at most _NODE_CHUNK nodes from its
    first node, so each piece starts at a multiple of 3. Walking the times
    in array order, consecutive times of equal M share their pieces: the
    piece of each first node is one run of rows. The runs are packed into
    batches of at most _NODE_CHUNK nodes, a run cut between rows where the
    batch fills, so the node arrays of a call stay that small at every
    |T|. One ``_soft_core_h`` call evaluates a batch, each run laid out as
    its (rows, size) block of x = |T| cos^2 phi (nodes of
    :func:`_midpoint_cos2`) and of g by broadcasting. Each block is summed
    along its rows, which takes the pairwise sums of one piece alone, and
    each time adds its pieces in order of their first node, so a time's
    sums do not depend on the other times of the call. On the default
    sweeps one batch holds a fig2 curve's 20 or so consecutive times, or
    the rules of a whole round of a tau_1/2 table.
    """
    fine = np.zeros(t_abs.size, dtype=complex)
    coarse = np.zeros(t_abs.size, dtype=complex)
    ends = [k for k in range(1, len(m)) if m[k] != m[k - 1]] + [len(m)]  # of the runs of one M
    batches, nodes = [[]], 0
    for row, end in zip([0, *ends], ends):
        for first in range(0, 3 * m[row], _NODE_CHUNK):
            size, r = min(_NODE_CHUNK, 3 * m[row] - first), row
            while r < end:
                rows = min(end - r, (_NODE_CHUNK - nodes) // size)
                if not rows:  # the batch is full
                    batches.append([])
                    nodes = 0
                    continue
                batches[-1].append((r, rows, first, size, nodes, nodes + rows * size))
                r += rows
                nodes += rows * size
    for batch in batches:
        x, g_nodes = np.empty(batch[-1][-1]), np.empty(batch[-1][-1])
        for r, rows, first, size, start, stop in batch:
            out = x[start:stop].reshape(rows, size)
            cos2 = _midpoint_cos2 if 3 * m[r] <= _NODE_CHUNK else _midpoint_cos2.__wrapped__
            np.multiply(t_abs[r : r + rows, None], cos2(m[r], first), out=out)
            g_nodes[start:stop].reshape(rows, size)[...] = g[r : r + rows, None]
        vals = _soft_core_h(x, g_nodes, theta, beta)
        blocks = [vals[start:stop].reshape(rows, size) for _, rows, _, size, start, stop in batch]
        # a batch holds each row of one range once: a piece of _NODE_CHUNK
        # nodes fills a batch alone, and only a rule's last piece is shorter
        span = slice(batch[0][0], batch[-1][0] + batch[-1][1])
        fine[span] += np.concatenate([block.sum(axis=-1) for block in blocks])
        coarse[span] += np.concatenate([block[:, 1::3].sum(axis=-1) for block in blocks])
    return fine, coarse


def _soft_core_taylor(T: float, g: float, theta: float, beta: int) -> complex:
    """I / N_R for the soft-core potential at one T = V0 t with
    |T| <= _T_TAYLOR: the series -sum_n c_n T^n J_n of
    :func:`_soft_core_i_over_nr`, to the order :func:`_taylor_order` picks."""
    t_abs = abs(T)
    n = _taylor_order(t_abs)
    total = complex(-np.dot(_kernel_taylor(g, theta, beta, n), t_abs ** _ORDERS[:n] * _J_N[:n]))
    return total if T >= 0 else total.conjugate()


def _soft_core_i_over_nr(T: np.ndarray, g: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """I / N_R for the soft-core potential at each T = V0 t and g = gamma t
    of two float arrays of one size, T != 0.

    u = (r/r_c)^3 turns the radial integral into
    integral_0^inf [1 - f(T/(1+u^2), g)] du, and u = tan(phi) into
    integral_0^(pi/2) T h(T cos^2 phi) dphi. That integrand is entire,
    pi-periodic and even, so the M-point midpoint rule converges
    spectrally; M = |T|/2 + 3|T|^(1/3) + 24 covers the ~|T|/4 harmonics
    of e^{i T cos^2 phi}. The 3M-point rule contains its nodes: its value
    is returned, and the difference of the two is the error estimate.

    At |T| <= _T_TAYLOR, where h loses digits to cancellation, the series
    -sum_n c_n T^n J_n (J_n = integral_0^inf (1+u^2)^-n du) is summed
    instead, a time at a time (:func:`_soft_core_taylor`). Negative T uses
    f(-X) = conj f(X).

    The other times, short rules and long alike, go in array order through
    :func:`_midpoint_sums`, which sums each rule in pieces of at most
    _NODE_CHUNK nodes. Each piece takes the nodes, operations and pairwise
    sum it would take alone, so many times in one call equal one-time
    calls bit for bit. Raises CapacityError at the first time (in array
    order) whose rule has more than _NODE_CAP nodes, before any node is
    built, and NumericalError at the first time whose two rules disagree.
    """
    out = np.empty(T.size, dtype=complex)
    taylor = np.abs(T) <= _T_TAYLOR
    if taylor.any():
        pairs = zip(T[taylor].tolist(), g[taylor].tolist())
        out[taylor] = [_soft_core_taylor(t, g_k, theta, beta) for t, g_k in pairs]
        if taylor.all():
            return out
        T, g = T[~taylor], g[~taylor]
    t_abs = np.abs(T)
    m = [_midpoint_order(t, g_k) for t, g_k in zip(t_abs.tolist(), g.tolist())]
    fine, coarse = _midpoint_sums(t_abs, g, m, theta, beta)
    m = np.array(m)
    total = fine * (t_abs * math.pi / (6 * m))
    err = np.abs(total - coarse * (t_abs * math.pi / (2 * m)))
    bad = np.flatnonzero(err > np.maximum(_REL_TOL * np.abs(total), _ABS_TOL))
    if bad.size:
        k = bad[0]
        raise NumericalError(
            "soft-core exponent midpoint rule did not converge",
            diagnostics={
                "error_estimate": float(err[k]),
                "value": complex(total[k]),
                "nodes": 3 * int(m[k]),
                "T": float(T[k]),
                "g": float(g[k]),
            },
        )
    out[~taylor] = np.where(T >= 0, total, total.conj())
    return out


def _hankel_coefficients(nu: int) -> list:
    """c_k, k < _HANKEL_TERMS, of Hankel's expansion
    H^(1)_nu(h) e^{-ih} ~ h^(-1/2) sum_k c_k h^-k, that is
    c_k = sqrt(2/pi) e^{-i(nu pi/2 + pi/4)} i^k prod_{j<=k} (4 nu^2 - (2j-1)^2) / (8j).
    """
    c = [math.sqrt(2.0 / math.pi) * cmath.exp(-0.25j * math.pi * (2 * nu + 1))]
    for k in range(1, _HANKEL_TERMS):
        c.append(c[-1] * 1j * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    return c


# highest order first, for Horner's rule in _hankel_series
_HANKEL_C0 = _hankel_coefficients(0)[::-1]
_HANKEL_C1 = _hankel_coefficients(1)[::-1]


def _hankel_series(coefficients: list, h: float) -> complex:
    """a_nu = H^(1)_nu(h) e^{-ih} = h^(-1/2) sum_k c_k h^-k."""
    s = 0j
    for c in coefficients:
        s = s / h + c
    return s / math.sqrt(h)


def _j01(h: float) -> tuple:
    """(J_0(h), J_1(h)) for 0 <= h < _H_HANKEL.

    Below _H_SERIES, the power series J_0 = sum_k (-h^2/4)^k / k!^2 and
    J_1 = (h/2) sum_k (-h^2/4)^k / (k! (k+1)!), summed together; their
    largest term is below 5, so cancellation costs under a digit.
    Above, Miller's backward recurrence J_{k-1} = (2k/h) J_k - J_{k+1},
    two orders per step, from J_{n+1} = 0, J_n = 1 at an even
    n ~ h + sqrt(40 (h + 10)), where J_n(h) is negligible, normalized by
    J_0 + 2 sum_k J_2k = 1 (Numerical Recipes, Bessel functions of
    integer order). Both agree with the true values to ~1e-14 relative to
    |J_1 + i J_0|, the modulus :func:`_k_bessel` needs.
    """
    if h < _H_SERIES:
        q = -0.25 * h * h
        term = j0 = j1 = 1.0
        k = 0
        while abs(term) > 1e-17:
            k += 1
            term *= q / (k * k)
            j0 += term
            j1 += term / (k + 1)
        return j0, 0.5 * h * j1
    r = 2.0 / h
    even, odd, total = 1.0, 0.0, 0.0  # J_k, J_{k+1}, sum_{j>=1} J_{k+2j}, unnormalized
    for k in range(2 * int(0.5 * (h + math.sqrt(40.0 * (h + 10.0)))), 0, -2):
        total += even
        odd = k * r * even - odd
        even = (k - 1) * r * odd - even
    norm = 2.0 * total + even
    return even / norm, odd / norm


def _k_bessel(y: float) -> complex:
    """K(y) = integral_0^inf [1 - e^{i y/(1+u^2)}] du in closed form.

    K(y) = -pi h [e^{ih} J_1(h) + i e^{ih} J_0(h)], h = |y|/2, for y >= 0
    and K(-y) = conj(K(y)); K(y) ~ sqrt(pi y / 2) (1 - i) for large y,
    which is where the low-density amplitudes come from. Below
    h = _H_HANKEL the Bessel functions come from :func:`_j01`. Above it,
    e^{ih} J_nu(h) = [a_nu e^{2ih} + conj(a_nu)] / 2 with
    a_nu = H^(1)_nu(h) e^{-ih} from :func:`_hankel_series`: exp reduces
    the exact argument 2h, which keeps the phase accurate to y = 1e300, and
    12 terms of the series are at rounding level for h >= 100.
    """
    h = abs(y) / 2.0
    if h < _H_HANKEL:
        j0, j1 = _j01(h)
        val = -math.pi * h * cmath.exp(1j * h) * complex(j1, j0)
        return val if y >= 0 else val.conjugate()
    a0 = _hankel_series(_HANKEL_C0, h)
    a1 = _hankel_series(_HANKEL_C1, h)
    e2 = cmath.exp(2j * h)
    val = -0.5 * math.pi * h * (a1 * e2 + a1.conjugate() + 1j * (a0 * e2 + a0.conjugate()))
    return val if y >= 0 else val.conjugate()


def _soft_core_i_over_nr_closed(T: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """Unitary (gamma = 0) soft-core exponent I / N_R via the Bessel closed
    form, at each T = V0 t of a float array.

    The kernel splits into populations times phase factors,
    f = pu e^{iX} + pd (no echo) and f = pu e^{iX/2} + pd e^{-iX/2}
    (echo), so I/N_R reduces to combinations of K above, from the scalar
    :func:`_k_bessel` a time at a time.
    """
    pu = np.sin(theta / 2.0) ** 2
    pd = np.cos(theta / 2.0) ** 2
    if beta == 1:
        return pu * np.array([_k_bessel(y) for y in T.tolist()])
    k = np.array([_k_bessel(y) for y in (T / 2.0).tolist()])  # K(-y) = conj(K(y))
    return pu * k + pd * k.conj()


def _dawson(x: float) -> float:
    """Dawson's function D(x) = e^{-x^2} integral_0^x e^{t^2} dt, x >= 0.

    Below _X_DAWSON, the series e^{-x^2} sum_n x^{2n+1} / (n! (2n+1)), whose
    terms are all positive; above, the asymptotic series
    (1/2x) sum_n (2n-1)!! / (2x^2)^n, whose terms fall below rounding
    level long before they start to grow (n ~ x^2).
    """
    x2 = x * x
    if x < _X_DAWSON:
        power = total = x  # x^{2n+1} / n!
        n = 0
        while power > 2**-54 * total * (2 * n + 1):
            n += 1
            power *= x2 / n
            total += power / (2 * n + 1)
        return math.exp(-x2) * total
    r = 0.5 / x2
    term = total = 1.0
    n = 0
    while term > 2**-54 * total:
        n += 1
        term *= (2 * n - 1) * r
        total += term
    return 0.5 * total / x


def _bare_i_tilde(s: float, g: float, theta: float, beta: int) -> complex:
    """integral_0^inf [1 - f(s/u^2, g)] du for the bare 1/r^6 potential.

    Y = 1/u^2 and the kernel identities of :func:`_soft_core_h` reduce it
    to error-function integrals. For s = +1, with D Dawson's function and
    x = sqrt(g/2):
    beta = 1: sin^2(theta/2) (pi/2) e^{-i pi/4} erf(sqrt g)/sqrt g;
    beta = 0: (sqrt(pi)/2)(1 - i) + cos^2(theta/2) (pi/4)(1 + i)
              [e^{-g/2} erf(x)/x + (2i/sqrt(pi)) D(x)/x].
    s = -1 is the complex conjugate (f(-X) = conj f(X)). At g = 0,
    where erf(x)/x -> 2/sqrt(pi) and D(x)/x -> 1, the Fresnel integral
    integral_0^inf (1 - e^{i a/u^2}) du = sqrt(pi |a|/2) (1 - i sign a)
    gives sin^2(theta/2) sqrt(pi/2) (1 - i s) (beta = 1) and
    (sqrt(pi)/2)(1 + i s cos theta) (beta = 0) exactly. Every term is
    bounded, so the form holds from subnormal g (x = sqrt(g) sqrt(1/2)
    does not underflow) to g = 1e300.
    """
    if g == 0.0:
        pu = np.sin(theta / 2.0) ** 2
        if beta == 1:
            return complex(pu * math.sqrt(math.pi / 2.0) * (1.0 - 1j * s))
        return complex(0.5 * math.sqrt(math.pi) * (1.0 + 1j * s * np.cos(theta)))
    if beta == 1:
        root = math.sqrt(g)
        pu = math.sin(theta / 2.0) ** 2
        val = pu * math.pi / math.sqrt(8.0) * (math.erf(root) / root) * (1.0 - 1j)
    else:
        x = math.sqrt(g) * math.sqrt(0.5)
        ratio = complex(math.exp(-0.5 * g) * math.erf(x), 2.0 / math.sqrt(math.pi) * _dawson(x)) / x
        pd = math.cos(theta / 2.0) ** 2
        val = 0.5 * math.sqrt(math.pi) * (1.0 - 1j) + pd * 0.25 * math.pi * (1.0 + 1j) * ratio
    return val if s > 0 else val.conjugate()


def _exponent_integral_many(pot, proto, density, times: np.ndarray) -> np.ndarray:
    """:func:`exponent_integral` of the gas of ``pot``, ``proto`` and
    ``density`` (one float) at each time of a 1-D float array: the times
    are checked, then :func:`_exponent_routes` evaluates every t > 0."""
    out = np.zeros(times.size, dtype=complex)  # t = 0 gives 0 exactly
    ok = (times >= 0.0) & (times < math.inf)  # nan fails too
    if not ok.all():
        bad = float(times[~ok][0])
        raise ParameterError(f"exponent integral is defined for finite t >= 0, got {bad!r}")
    gamma = proto.gamma
    with np.errstate(over="ignore"):  # as Python floats do; inf is refused next
        g = gamma * times
    if (g == math.inf).any():
        t = float(times[g == math.inf][0])
        raise ParameterError(f"g = gamma*t overflows float64 at gamma = {gamma!r}, t = {t!r}")
    # the soft-core closed form takes T = V0 t where g = 0: at gamma = 0
    # (a time whose g underflows at gamma > 0 is below 1/2, so its T is finite)
    v0 = abs(pot.v0)
    closed = pot.kind is PotentialKind.SOFT_CORE and gamma == 0.0
    if closed and v0 * float(times.max(initial=0.0)) == math.inf:
        t = next(x for x in times.tolist() if v0 * x == math.inf)
        raise ParameterError(f"V0 t overflows float64 at V0 = {pot.v0!r} rad/us, t = {t!r}")
    live = times > 0.0
    out[live] = _exponent_routes(pot, proto, density, times[live], g[live])
    return out


def _exponent_routes(pot, proto, density, times: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I at each time t > 0 of a float array, with g = gamma t, unchecked;
    ``density`` is one float or one value per time. Soft core: N_R times
    the Bessel closed form where g = 0 and the midpoint rule (or its Taylor
    branch) where g > 0. Bare: the erf/Dawson closed form at every g."""
    th, beta = proto.theta, proto.beta
    if pot.kind is PotentialKind.SOFT_CORE:
        k = np.empty(times.size, dtype=complex)
        closed = g == 0.0
        if closed.any():
            k[closed] = _soft_core_i_over_nr_closed(pot.v0 * times[closed], th, beta)
        if not closed.all():
            quad = ~closed
            k[quad] = _soft_core_i_over_nr(pot.v0 * times[quad], g[quad], th, beta)
        return _n_r(density, pot) * k
    pref = 4.0 * math.pi * density * np.sqrt(abs(pot.c6) * times) / 3.0
    s = math.copysign(1.0, pot.c6)
    if proto.gamma == 0.0:
        return pref * _bare_i_tilde(s, 0.0, th, beta)
    return pref * np.array([_bare_i_tilde(s, g_k, th, beta) for g_k in g.tolist()])


def exponent_integral(spec: GasSpec, t: float) -> complex:
    """Disorder-average exponent I(t) = rho * int 4 pi r^2 [1 - f(V(r) t)] dr.

    The formula follows from the inputs: for a soft-core potential, the
    unitary Bessel closed form (:func:`_soft_core_i_over_nr_closed`) at
    gamma t = 0 and the spectral midpoint rule in u = tan(phi), with a
    Taylor series in V0 t at |V0 t| <= 0.1 (:func:`_soft_core_i_over_nr`),
    at gamma t > 0; for a bare potential, the erf/Dawson closed form
    (:func:`_bare_i_tilde`) at every gamma. At gamma = 0 the two
    soft-core formulas agree to ~1e-12 relative; the test suite compares
    them rather than collapsing one into the other.

    ``t`` is one float, evaluated as a one-element array by
    :func:`_exponent_integral_many`; an overflow gives inf silently, as
    float arithmetic does.

    Parameters
    ----------
    spec : GasSpec
    t : float
        us, finite and >= 0.

    Returns
    -------
    complex
        Re I >= 0 at gamma = 0; the contrast is sin(theta) D e^{-I}.
    """
    with np.errstate(over="ignore"):
        times = np.array([float(t)])
        return complex(_exponent_integral_many(spec.potential, spec.protocol, spec.density, times)[0])


def contrast_gas(spec: GasSpec, t) -> complex | np.ndarray:
    """Thermodynamic-limit per-spin coherence of the gas at one time or many.

    sin(theta) D(gamma, t) e^{-gamma_d t} exp(-I(t)); rho -> 0 recovers
    the non-interacting signal, t = 0 gives sin(theta). ``t`` is a float
    (us, returns a complex) or a 1-D array of times (returns a complex
    array shaped like t). A float is evaluated as a one-element array and
    overflows to inf silently, as :func:`exponent_integral` does.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError("t must be a float or a 1-D array of times")
    flat = times.reshape(-1)
    # over=None leaves an array's error state as the caller set it
    with np.errstate(over="ignore" if times.ndim == 0 else None):
        i = _exponent_integral_many(spec.potential, spec.protocol, spec.density, flat)
        out = _envelope(spec.protocol, flat) * np.exp(-i)
    return complex(out[0]) if times.ndim == 0 else out


def contrast_gas_finite_n(spec: GasSpec, t: float, n: int) -> complex:
    """Finite-atom-number coherence sin(theta) D e^{-gamma_d t} [1 - I/N]^{N-1}.

    Converges to :func:`contrast_gas` as N -> infinity (deviation ~ c/N).
    The derivation treats I/N as a small parameter; |I/N| >= 1 is
    outside its validity and raises a ValidityWarning while still
    returning the literal formula value.

    Below that, the power is e^{(N-1) L} with L = log(1 + z), z = -I/N =
    x + iy, taken as 1/2 log1p(x(2 + x) + y^2) + i atan2(y, 1 + x): a
    complex power's rounding grows like N eps, and a complex log1p loses
    the same digits to log |1 + z|.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError("finite-N contrast needs an integer N >= 2")
    if np.ndim(t) != 0:
        raise ParameterError("finite-N contrast takes one time t, not an array")
    z = -exponent_integral(spec, t) / n
    if abs(z) >= 1.0:
        warnings.warn(
            f"|I/N| = {abs(z):.3g} >= 1: finite-N formula outside "
            "its validity domain",
            ValidityWarning,
            stacklevel=2,
        )
        return _envelope(spec.protocol, t) * (1.0 + z) ** (n - 1)
    x, y = z.real, z.imag
    log = complex(0.5 * math.log1p(x * (2.0 + x) + y * y), math.atan2(y, 1.0 + x))
    return _envelope(spec.protocol, t) * cmath.exp((n - 1) * log)


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo disorder average: mean, standard error, raw samples.

    stderr combines real and imaginary scatter,
    sqrt((var Re + var Im)/n_samples), so |mean - truth| <~ 3 stderr is
    the acceptance comparison. samples has shape (n_samples, n_times).
    """

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray
    n_atoms: int
    box_length: float
    seed: int


def _checked_int(value, minimum: int, message: str) -> int:
    """value, checked: an integer (Python's or numpy's, not a bool) of at
    least minimum, as numpy's SeedSequence and array shapes take it; else
    ParameterError(message)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ParameterError(message)
    return value


def monte_carlo_gas(
    spec: GasSpec,
    times,
    n_samples: int,
    n_atoms: int,
    seed: int,
) -> MCResult:
    """Average sigma_plus over explicit uniform configurations.

    Atoms are placed uniformly in a periodic cube of side (N/rho)^(1/3)
    with minimum-image pair distances; each sample is the exact
    per-configuration coherence at every requested time, computed with the
    envelope, the V(r) of evaluate_V and the pair kernel of
    sigma_plus_couplings. V_jk = V_kj, so each unordered pair is evaluated
    once: a block of rows [lo, hi) meets only the columns [lo, N) (one
    coupling pass per block, reused at every time), and each pair factor
    multiplies both atoms' row products (a product down the columns for
    the atoms [lo, N), then :func:`~rydramsey.ising_core._row_products`
    along the rows for the atoms [lo, hi)), so an exact zero factor
    removes both atoms. The block's pairs with col <= row, counted in the
    rows above or self-pairs, get V = 0, whose factor f(0, g) is exactly 1.

    A block is min(N, max(1, 2^16 // N)) rows high, so its coupling and
    kernel arrays stay in cache instead of streaming from memory. The
    positions are drawn in box units, u in [0, 1)^3, so the minimum image
    of a difference d is d - rint(d). The squared distance is scaled once
    per block, to q = (r/r_c)^2 (soft core) or r^2 (bare), from which
    V = v0 / (1 + q^3) or c6 / q^3, with no square root. Four float
    buffers and one complex buffer of a block's size (two at gamma > 0)
    are allocated once per call: the float ones hold d, its rounding and
    q while the couplings are built, then V and the scratch of the pair
    kernel (:func:`~rydramsey.ising_core._half_angle_kernel`), which
    writes the pair factors into the complex one (with the other as its
    scratch), so no block-sized array is allocated per time. Two
    coincident atoms of a bare gas raise SingularityError.
    n_samples and n_atoms are integers of at least 2 (else ParameterError).
    Sampling is deterministic under the seed, a non-negative integer
    (else ParameterError): sample s draws from
    SeedSequence(seed).spawn(n)[s], and its positions are that stream's
    first random((N, 3)) times the box side.

    A BiasWarning is raised when the box side is below 20 interaction
    range scales (r_c for soft-core, (|C6| t_max)^(1/6) for bare), where
    the minimum-image truncation visibly biases the tail of I.
    """
    _checked_int(n_samples, 2, "need at least 2 samples for a standard error")
    _checked_int(n_atoms, 2, "need at least 2 atoms")
    _checked_int(seed, 0, "seed must be a non-negative integer")
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ParameterError("times must be a float or a 1-D array of times")
    times = np.atleast_1d(times)
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ParameterError("times must be finite and non-negative")
    proto = spec.protocol
    pot = spec.potential
    box = (n_atoms / spec.density) ** (1.0 / 3.0)
    if pot.kind is PotentialKind.SOFT_CORE:
        if pot.r_c == 0.0:  # as evaluate_V: only a hand-built instance has it
            raise ParameterError("soft-core potential needs r_c > 0")
        range_scale = pot.r_c
    else:
        range_scale = (abs(pot.c6) * times.max(initial=0.0)) ** (1.0 / 6.0)
    if range_scale > 0 and box < 20.0 * range_scale:
        warnings.warn(
            f"box side {box:.3g} um is below 20 interaction ranges "
            f"({20 * range_scale:.3g} um); minimum-image truncation may "
            "bias the average",
            BiasWarning,
            stacklevel=2,
        )

    streams = np.random.SeedSequence(seed).spawn(n_samples)
    samples = np.empty((n_samples, times.size), dtype=complex)
    envelope = _envelope(proto, times)
    # (T, N) products of each atom's factors
    rows = np.empty((times.size, n_atoms), dtype=complex)
    # a small gas is one block; the cap keeps the mask and buffers <= N^2
    height = min(n_atoms, max(1, _MC_PAIRS // n_atoms))
    # pairs of a diagonal block already counted, or self-pairs: col <= row
    lower = np.tril(np.ones((height, height), dtype=bool))
    # q = (r/r_c)^2 (soft core) or r^2 (bare) from r^2 in box units
    q_scale = (box / pot.r_c) ** 2 if pot.kind is PotentialKind.SOFT_CORE else box * box
    # flat buffers for one block: an axis difference, its rounding and q,
    # then the kernel's scratch; V; the pair factors and, at gamma > 0,
    # the kernel's complex scratch
    buffers = np.empty((4, height * n_atoms))
    factors = np.empty((2 if proto.gamma > 0 else 1, height * n_atoms), dtype=complex)

    for s_idx, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        unit = np.ascontiguousarray(rng.random((n_atoms, 3)).T)  # box units
        rows[:] = 1.0
        for lo in range(0, n_atoms, height):
            hi = min(lo + height, n_atoms)
            shape = (hi - lo, n_atoms - lo)
            size = shape[0] * shape[1]
            d, rd, q, v = (b[:size].reshape(shape) for b in buffers)
            f, *z = (b[:size].reshape(shape) for b in factors)
            # rows lo:hi against columns lo:N; each unordered pair once
            for axis, x in enumerate(unit):
                np.subtract(x[lo:hi, None], x[None, lo:], out=d)
                d -= np.rint(d, out=rd)
                if axis == 0:
                    np.square(d, out=q)
                else:
                    q += np.square(d, out=d)
            q *= q_scale
            np.fill_diagonal(q, 1.0)  # placeholder; self-pairs are masked
            if pot.kind is PotentialKind.BARE_VDW and not q.all():
                raise SingularityError("bare 1/r^6 potential diverges at r = 0")
            _v_of_q(pot, q, out=v)
            # f(0, g) = 1 exactly, so V = 0 drops the counted pairs at every time
            np.copyto(v[:, : hi - lo], 0.0, where=lower[: hi - lo, : hi - lo])
            for it, t in enumerate(times):
                _half_angle_kernel(v, t, proto.theta, proto.beta, f, d, rd, q, proto.gamma, *z)
                rows[it, lo:] *= f.prod(axis=0)
                rows[it, lo:hi] *= _row_products(f)
        samples[s_idx] = envelope * rows.mean(axis=1)

    mean = samples.mean(axis=0)
    stderr = np.sqrt(
        (samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1))
        / n_samples
    )
    return MCResult(
        times=times,
        mean=mean,
        stderr=stderr,
        samples=samples,
        n_atoms=n_atoms,
        box_length=box,
        seed=seed,
    )


def low_density_amplitude(beta: int) -> float:
    """A in C = exp(-A N_R sqrt(V0 t)): sqrt(pi)/2^(1 + beta/2).

    sqrt(pi)/2 with echo (beta = 0), sqrt(pi)/2^(3/2) without (beta = 1).
    """
    if beta not in (0, 1):
        raise ParameterError(f"beta must be 0 or 1, got {beta!r}")
    return math.sqrt(math.pi) / 2 ** (1 + beta / 2)


def _law_v0t(n_r: float, v0t, beta: int) -> np.ndarray:
    """``v0t`` as an array, after the input checks the two laws share."""
    if beta not in (0, 1):
        raise ParameterError(f"beta must be 0 or 1, got {beta!r}")
    if not 0 < n_r < math.inf:
        raise ParameterError("n_r must be positive and finite")
    v0t = np.asarray(v0t, dtype=float)
    if not np.all((v0t >= 0) & (v0t < np.inf)):
        raise ParameterError("asymptotic laws need V0 t >= 0 and finite")
    return v0t


def _hardcore_profile(v0t, beta: int):
    """1 - cos^(beta+1)(V0 t / 2): the plateau law's exponent per unit b N_R."""
    return 1.0 - np.cos(v0t / 2.0) ** (beta + 1)


def low_density_contrast(n_r: float, v0t, beta: int):
    """Dilute-gas square-root law exp(-A N_R sqrt(V0 t)), A = low_density_amplitude(beta).

    The law holds at theta = pi/2 and gamma = 0, for N_R << 1. ``v0t`` is
    a float (returns a float) or an array (returns an array of its shape).
    """
    v0t = _law_v0t(n_r, v0t, beta)
    out = np.exp(-low_density_amplitude(beta) * n_r * np.sqrt(v0t))
    return float(out) if out.ndim == 0 else out


def high_density_contrast(n_r: float, v0t, beta: int, b: float = 1.0):
    """Blockaded-gas plateau law exp(-b N_R (1 - cos^(beta+1)(V0 t / 2))).

    The law holds at theta = pi/2 and gamma = 0, for N_R >> 1. b = 1 is
    the bare hard-core value; :func:`fit_hardcore_amplitude` gives a
    fitted one. ``v0t`` is a float (returns a float) or an array (returns
    an array of its shape).
    """
    v0t = _law_v0t(n_r, v0t, beta)
    if not math.isfinite(b):
        raise ParameterError(f"b must be finite, got {b!r}")
    out = np.exp(-b * n_r * _hardcore_profile(v0t, beta))
    return float(out) if out.ndim == 0 else out


def fit_hardcore_amplitude(spec: GasSpec, times) -> float:
    """Least-squares b of :func:`high_density_contrast` against the exact exponent.

    Fits Re I(t) = b * N_R (1 - cos^(beta+1)(V0 t / 2)) through the
    origin over the provided times, with the predictor the plateau law
    itself uses. theta = pi/2, gamma = 0 only, same as the law.
    """
    proto = spec.protocol
    if abs(proto.theta - math.pi / 2.0) > 1e-12 or proto.gamma != 0.0:
        raise UnsupportedRegimeError(
            "hard-core amplitude fit is defined for theta = pi/2, gamma = 0"
        )
    if spec.potential.kind is not PotentialKind.SOFT_CORE:
        raise UnsupportedRegimeError("hard-core fit needs a soft-core potential")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or not np.all((times > 0) & (times < np.inf)):
        raise ParameterError("need a 1-D array of at least two finite positive times to fit B")
    v0 = spec.potential.v0
    x = spec.n_r * _hardcore_profile(v0 * times, proto.beta)
    y = _exponent_integral_many(spec.potential, proto, spec.density, times).real
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ParameterError("fit times give identically zero predictor")
    return float(np.dot(x, y) / denom)


def _tau_bounds(spec: GasSpec) -> tuple:
    """Constants (b, c, d, rate) of the bounds behind :func:`tau_half`'s
    floor and skip rule.

    Each pair factor obeys, for t_b >= t_a >= 0 and Delta = t_b - t_a,
    |f(t_b) - f(t_a)| <= min(2, kappa |V| Delta) and
    |Re f(t_b) - Re f(t_a)| <= kappa^2 V^2 Delta t_b, with kappa = 1
    without echo and 1/2 with (proved in :func:`tau_half`); at t_a = 0,
    where f = 1, the first is |1 - f| <= min(2, kappa |V| t). Integrated
    over the gas, with a = kappa |V0| Delta: soft core,
    N_R min(pi a / 2, 2 sqrt(2 a)), that is b Delta and c sqrt(Delta) with
    b = (pi/2) N_R kappa |V0| and c = 2 N_R sqrt(2 kappa |V0|), and
    d Delta t_b with d = (pi/4) N_R kappa^2 V0^2 (from
    integral_0^inf u^2 / (1 + u^6)^2 du = pi/12); bare, c sqrt(Delta) with
    c = (8 pi / 3) rho sqrt(2 kappa |C6|), and b = d = 0 (the integral of
    V^2 diverges at r = 0). The envelope decays at rate = gamma/2 + gamma_d.

    The arithmetic runs in Python floats, which overflow to inf silently
    where numpy scalars (a CLI grid's N_R) would warn.

    Raises ParameterError when the gas has no decay channel (rate = 0 and
    c = 0).
    """
    proto = spec.protocol
    pot = spec.potential
    kappa = 1.0 if proto.beta == 1 else 0.5
    if pot.kind is PotentialKind.SOFT_CORE:
        v0 = abs(pot.v0)
        n_r = float(spec.n_r)
        b = 0.5 * math.pi * n_r * kappa * v0
        c = 2.0 * n_r * math.sqrt(2.0 * kappa * v0)
        d = 0.25 * math.pi * n_r * (kappa * v0) * (kappa * v0)
    else:
        b = d = 0.0
        c = 8.0 * math.pi / 3.0 * float(spec.density) * math.sqrt(2.0 * kappa * abs(pot.c6))
    rate = proto.gamma / 2.0 + proto.gamma_d
    if rate == 0.0 and c == 0.0:
        raise ParameterError(
            "no decay channel at all (no interactions, no dissipation); "
            "the contrast never reaches half"
        )
    return b, c, d, rate


def _tau_reach(b: float, c: float, d: float, rate: float, budget: float, t: float) -> float:
    """Largest Delta with
    rate Delta + min(b Delta, c sqrt(Delta), d Delta (t + Delta)) <= budget,
    for budget > 0; a zero b or d drops its term.

    Each term grows strictly with Delta, so it is the largest of the
    single-term solutions: s^2 with s = 2 budget / (c + sqrt(c^2 +
    4 rate budget)), budget / (rate + b), and the positive root
    2 budget / (p + sqrt(p^2 + 4 d budget)), p = rate + d t. An
    overflowing b, c or d gives 0 for its term.
    """
    s = 2.0 * budget / (c + math.sqrt(c * c + 4.0 * rate * budget))
    reach = max(s * s, budget / (rate + b)) if b > 0 else s * s
    if d > 0.0:
        p = rate + d * t
        reach = max(reach, 2.0 * budget / (p + math.sqrt(p * p + 4.0 * d * budget)))
    return reach


def _tau_window(bounds: tuple) -> tuple:
    """Scan window (lo, hi) of :func:`tau_half`, us, from the constants
    (b, c, d, rate) of a gas's :func:`_tau_bounds`.

    lo is a proven floor. With those constants,
    Re I(t) <= min(b t, c sqrt(t)), so |contrast| / sin(theta) >=
    exp(-rate t - Re I) >= 1/2 up to t_lb = :func:`_tau_reach` at budget
    ln 2, and no crossing lies below t_lb; the bound grows strictly with
    t, so lo = 0.99 t_lb keeps the first probe strictly above 1/2. The
    floor leaves out the d t^2 term, which would raise it at dense gases:
    every probe point is a multiple of lo, so a higher lo would move every
    tau_1/2 returned.

    hi is the ceiling where the scan gives up. With dissipation
    (rate > 0) it is proven: Re I >= 0, so |contrast| / sin(theta) <=
    e^{-rate t} and the crossing lies at or below ln 2 / rate;
    hi = 100 ln 2 / rate, capped at the largest float64. Without, hi is
    the largest float64.

    Raises ParameterError when t_lb is 0 or inf in float64 (a gas so
    dense that tau_half lies below the smallest float, or so dilute that
    the floor lies beyond the largest one).
    """
    b, c, _, rate = bounds
    ln2 = math.log(2.0)
    big = sys.float_info.max
    hi = 1e2 * ln2 / rate if rate > 1e2 * ln2 / big else big
    t_lb = _tau_reach(b, c, 0.0, rate, ln2, 0.0)
    if not 0.0 < t_lb < math.inf:
        raise ParameterError(
            "the time scales of this gas underflow (or overflow) float64, "
            "so tau_half is not representable"
        )
    return 0.99 * t_lb, hi


def _brent_walk(a: float, b: float, xtol: float, rtol: float, level: float = 0.0):
    """Brent's method for a root of y - level in [a, b] as a walk: a
    generator that yields each probe x, takes y(x) back and returns the root.

    A line-by-line port of scipy's C routine (``Zeros/brentq.c``) with
    maxiter 100, so every iterate, and so the root, is bit-identical to
    ``scipy.optimize.brentq(lambda x: y(x) - level, a, b, xtol=xtol,
    rtol=rtol)``. The arithmetic runs on Python floats, which, like C
    doubles, overflow to inf silently where numpy scalars would warn. Where
    C divides by zero its step is inf or nan, which fails the short-step
    test, so a zero denominator here takes the bisection step.

    Raises ValueError when y - level is nan at a probe (as scipy's wrapper
    does) or has the same sign at a and b, and RuntimeError when 100
    iterations do not converge.
    """

    def checked(x: float, y) -> float:
        y = float(y) - level
        if math.isnan(y):
            raise ValueError(
                f"The function value at x={x:.6g} is NaN; solver cannot converge."
            )
        return y

    xpre, xcur = float(a), float(b)
    xtol, rtol = float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = checked(xpre, (yield xpre))
    fcur = checked(xcur, (yield xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        # C's x / 0 is inf or nan, which fails the short-step test; a zero
        # denominator leaves stry = nan, so the step bisects here too. Only
        # the last one can vanish: |fcur| < |fpre| gives fcur != fpre and
        # xcur != xpre, and |sbis| >= delta > 0 gives xblk != xcur.
        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        # min(b, a) is C's MIN(a, b) = a < b ? a : b, ties and nan included
        if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur, (yield xcur))
    raise RuntimeError(
        f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur:f}"
    )


def _tau_grid(lo: float, hi: float):
    """tau_half's probe times lo 10^(k/25), k = 0, 1, 2, ..., below hi.

    Yields the points in blocks of _GRID_BLOCK indices, each bit-identical
    to the same point of the whole grid. Built in log space: hi / lo and
    lo * 10^(k/25) can overflow, and the strict bound keeps 10^exponent
    finite when hi is the largest float.
    """
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    n = int(25 * (log_hi - log_lo)) + 1
    for k in range(0, n, _GRID_BLOCK):
        exponents = log_lo + np.arange(k, min(k + _GRID_BLOCK, n)) / 25
        yield from 10.0 ** exponents[exponents < log_hi]


def tau_half(spec: GasSpec) -> float:
    """Smallest t with |contrast(t)| = |contrast(0)| / 2, us.

    Walks the grid lo 10^(k/25), k = 0, 1, 2, ..., up from the proven
    floor lo of :func:`_tau_window`, below which no crossing exists, until
    the half level is bracketed: the first grid step from a ratio
    |contrast| / sin(theta) above 1/2 to one at or below it. It then
    polishes the bracket to relative accuracy well below 1e-6 with
    :func:`_brent_walk`, an in-house port of scipy's Brent iteration with
    the same iterates. The probe points come from the floor alone; the
    window's ceiling only decides where the scan gives up. Grid walk and
    polish are one generator, :func:`_tau_walk`, which yields each probe
    time and takes its ratio back. tau_half is the table of one walk
    (:func:`_tau_half_table`), the driver that also runs the walks of
    fig3's and scan's tables, every N_R in one array call per round.

    Skip rule. A probe at t_a with ratio r_a > 1/2 proves the ratio above
    1/2 up to t_a + Delta*, the largest Delta with
    rate Delta + min(b Delta, c sqrt(Delta), d Delta (t_a + Delta))
    <= ln(2 r_a) - m, where b, c and d are :func:`_tau_bounds`' constants
    (bare: c sqrt(Delta) alone) and m = _SKIP_MARGIN, as
    :func:`_tau_reach` solves it. The walk skips every grid point up to
    t_a + Delta* and probes the next one. A skipped point's computed
    ratio would have been above 1/2 too, so the bracketing step, Brent's
    iterates and the returned float are bit for bit those of a walk that
    probes every grid point; only the number of probes changes.

    The step bound. The kernel's split form
    (:func:`~rydramsey.ising_core.f_kernel`) is the average of
    e^{i Phi(t)} over a spectator that starts in one of two populations,
    with weights sin^2(theta/2) and cos^2(theta/2), and leaves the
    emitting one at a time tau drawn once from gamma e^{-gamma tau}
    (never, at gamma = 0):
    no echo, Phi = V min(tau, t) in the sin^2 branch and 0 in the other,
    which integrates to q e^{iVt - gamma t} + 1 - q with
    q = sin^2(theta/2) V/(V + i gamma);
    echo, Phi = -V min(tau, t)/2 + V (t - min(tau, t))/2 in the cos^2
    branch and V t/2 in the other, which integrates to
    (1 - q) e^{iVt/2} + q e^{-iVt/2 - gamma t} with
    q = cos^2(theta/2) V/(V - i gamma).
    The law of the histories does not depend on t (the echo pulse at t/2
    is already folded into the readout frame of this form), and along
    every history Phi(0) = 0 and |dPhi/dt| <= kappa |V|, kappa = 1
    without echo and 1/2 with. So for t_b >= t_a, Delta = t_b - t_a, at
    every gamma >= 0 and either sign of V:
    |f(t_b) - f(t_a)| <= E|e^{i Phi(t_b)} - e^{i Phi(t_a)}|
    <= min(2, kappa |V| Delta), and, since |sin x| <= |x| and
    |Phi| <= kappa |V| t_b on [t_a, t_b],
    |Re f(t_b) - Re f(t_a)| <= E|cos Phi(t_b) - cos Phi(t_a)|
    <= kappa |V| Delta kappa |V| t_b. Without echo the derivative is also
    explicit: df/dt = i sin^2(theta/2) V e^{(iV - gamma) t}. Integrated
    over the gas as in :func:`_tau_bounds`, |Re I(t_b) - Re I(t_a)| <=
    min(b Delta, c sqrt(Delta), d Delta t_b) (soft core) or c sqrt(Delta)
    (bare), and ln ratio = -rate t - Re I, so
    |ln r(t_b) - ln r(t_a)| <= rate Delta + that =: B'(Delta). Hence
    r(t) >= r_a e^{-B'(t - t_a)} >= e^{m}/2 for t - t_a <= Delta*. The
    margin m (1e-4) stands above the error of a computed ratio, in ln, at
    both ends: the midpoint rule's, whose estimate is held below
    1e-8 |I|, is the largest; the rounding of Delta* and of t_a + Delta*
    is near 1e-15 of B'.

    It returns a crossing inside the first grid step that brackets 1/2,
    which is not always the smallest one: |contrast| need not fall
    monotonically, and one grid step can span a cluster of crossings. A
    dilute unitary echo gas crosses 1/2 three times within about 0.2 %
    (at N_R = 10^-1.8 ~ 0.0158, at V0 t = 2433.58, 2436.21 and 2439.14;
    this grid returns the first), and at N_R = 0.01 the scan returns
    V0 t = 6121.119 where the first crossing is 6115.56.

    Raises
    ------
    CrossingNotFoundError
        No crossing below the ceiling: with emission or dephasing this
        cannot happen, and without them it means no crossing below the
        largest float64 time. Diagnostics carry the ceiling and the
        contrast ratio at the last grid point.
    """
    return _tau_half_table([spec])[0]


def _tau_walk(spec: GasSpec):
    """The search of :func:`tau_half` as one walk: a generator that yields
    each probe time t (a float, us), grid and polish, takes the ratio
    |contrast_gas(spec, t)| / |sin theta| back, and returns tau_1/2 or
    raises what tau_half raises.

    It computes the constants of :func:`_tau_bounds` and the window once,
    walks the grid under the skip rule to the first bracketing step
    (t_prev, t), and polishes that step with :func:`_brent_walk`, the half
    level subtracted inside. Nothing but the ratios sent back decides its
    path, so any driver that answers with the same floats gets the same
    probes and the same end.
    """
    if np.sin(spec.protocol.theta) == 0.0:
        raise ParameterError("initial contrast vanishes; tau_half undefined")
    bounds = _tau_bounds(spec)
    lo, hi = _tau_window(bounds)
    b, c, d, rate = bounds
    t_prev = r_prev = math.nan
    t_safe = -math.inf
    for t in _tau_grid(lo, hi):
        t = float(t)
        if t <= t_safe:
            t_prev = t  # proven above 1/2, like r_prev
            continue
        r = yield t
        if r_prev > 0.5 >= r:
            return (yield from _brent_walk(t_prev, t, 1e-12 * t, 1e-10, level=0.5))
        t_prev, r_prev = t, r
        if r > 0.5 and (budget := math.log(2.0 * r) - _SKIP_MARGIN) > 0.0:
            t_safe = t + _tau_reach(b, c, d, rate, budget, t)
    if t_prev <= t_safe:
        r_prev = yield t_prev
    raise CrossingNotFoundError(
        "contrast did not reach half below the search ceiling",
        diagnostics={"max_time": float(hi), "ratio_at_max": float(r_prev)},
    )


def _tau_half_table(specs) -> list:
    """``[tau_half(spec) for spec in specs]`` for gases of one potential and
    one protocol, bit for bit and error for error, with the walks of
    :func:`_tau_walk` advanced in lockstep. An error that the iterable
    ``specs`` raises at item k is walk k's error. The first gas sets the
    family: a later gas of another potential or protocol gets a
    ParameterError as its walk error, since each round evaluates every
    walk with the family's potential and protocol.

    Each round answers the pending probe of every live walk with one
    :func:`_exponent_routes` call, at one density per walk, and the
    contrast sin(theta) D e^{-gamma_d t} exp(-I): a time's value does not
    depend on the other times of the call, so each element equals the
    one-time contrast_gas call bit for bit. Each ratio is Python's abs of
    the complex contrast over |sin theta| (np.abs can differ in the last
    bit). A round whose array evaluation raises, or meets a floating-point
    overflow, invalid operation or division by zero, answers its probes
    with one-time contrast_gas calls instead, which check the times, so
    each walk meets the error or warning of a lone probe. A walk that
    fails (its gas, its window, a probe or its polish) records its error
    and the walks after it stop; once the walks before it have ended, that
    error is raised, as a loop over tau_half raises it.
    """
    taus = []
    walks = {}  # index -> [spec, walk, pending probe time], in index order
    errors = {}

    def advance(k: int, ratio) -> None:
        entry = walks[k]
        try:
            entry[2] = entry[1].send(ratio)
            return
        except StopIteration as stop:
            taus[k] = stop.value
        except Exception as exc:
            errors[k] = exc
        del walks[k]

    specs = iter(specs)
    family = None
    while not errors:
        k = len(taus)
        try:
            spec = next(specs)
        except StopIteration:
            break
        except Exception as exc:
            errors[k] = exc
            break
        if family is None:
            family = spec.potential, spec.protocol
        elif (spec.potential, spec.protocol) != family:
            errors[k] = ParameterError(
                "a tau_1/2 table takes gases of one potential and one protocol, "
                f"but gas {k} differs from gas 0"
            )
            break
        taus.append(math.nan)
        walks[k] = [spec, _tau_walk(spec), None]
        advance(k, None)
    if walks:
        pot, proto = family
        c0 = float(abs(np.sin(proto.theta)))
    while walks:
        pending = list(walks.items())
        density = np.array([w[0].density for _, w in pending])
        times = np.array([w[2] for _, w in pending])
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                i = _exponent_routes(pot, proto, density, times, proto.gamma * times)
                contrast = _envelope(proto, times) * np.exp(-i)
            ratios = [abs(c) / c0 for c in contrast.tolist()]
        except Exception:
            ratios = None
        for j, (k, (spec, _, t)) in enumerate(pending):
            if errors and k > min(errors):
                break  # this walk and the later ones stop here
            try:
                ratio = abs(contrast_gas(spec, t)) / c0 if ratios is None else ratios[j]
            except Exception as exc:
                errors[k] = exc
                del walks[k]
                continue
            advance(k, ratio)
        if errors:
            first = min(errors)
            for k in [k for k in walks if k > first]:
                del walks[k]
    if errors:
        raise errors[min(errors)]
    return taus
