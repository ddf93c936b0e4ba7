"""Exact per-configuration Ramsey dynamics of the dressed Ising model.

The model: after a global tipping pulse of area theta, N frozen atoms
evolve under H = sum_{j<k} (V_jk/4) sigma^z_j sigma^z_k
+ sum_k b_k sigma^z_k with b_k = sum_{j != k} V_jk / 4, plus spontaneous
emission from the dressed level (jump sigma^-, rate gamma) and optional
pure dephasing at rate gamma_d. An echo protocol applies a mid-sequence
pi pulse; its effect on the coherence is captured by the beta switch of
the pair kernel (beta = 0 echo, beta = 1 no echo) together with dropping
the single-particle fields.

Everything here is a pure function of immutable inputs. Reported
coherences use the convention sigma_plus = <sigma^x> + i <sigma^y> per
spin (twice the sigma^+ operator expectation), so the per-spin contrast
starts at sin(theta). For echo protocols the readout frame is rotated to
undo the pi pulse's transverse flip, which keeps C(0) = sin(theta), as
the oracle reports too; its ``evolve_master`` reaches the raw lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .potential import InteractionPotential, _q_of_r, _v_of_q

__all__ = [
    "COHERENCE_DECAY_EXPONENT",
    "RamseyProtocol",
    "AtomConfiguration",
    "f_kernel",
    "coherence_decay",
    "sigma_plus_couplings",
    "connected_sxsx",
]

# Exponent kappa in the global emission prefactor exp(-kappa * gamma * t).
# Calibrated against the dense master-equation solver (oracle module): a
# single emitting spin's coherence decays at exactly gamma/2, and the
# many-body closed form reproduces the solver only with kappa = 1/2. Kept
# as a named constant so the convention stays auditable.
COHERENCE_DECAY_EXPONENT = 0.5


def coherence_decay(gamma: float, t):
    """Global emission prefactor D(gamma, t) = exp(-gamma t / 2), at a
    float t (float out) or an array of times (array out).

    See :data:`COHERENCE_DECAY_EXPONENT` for how the exponent was pinned.
    """
    return np.exp(-COHERENCE_DECAY_EXPONENT * gamma * t)


def _envelope(proto: RamseyProtocol, t):
    """Single-atom envelope sin(theta) D(gamma, t) e^{-gamma_d t} of every
    coherence, at a float t (float out) or a 1-D array of times (array out)."""
    return math.sin(proto.theta) * coherence_decay(proto.gamma, t) * np.exp(-proto.gamma_d * t)


def f_kernel(x, g: float, theta: float, beta: int):
    """Per-pair coherence factor f(X) of the exact Ising-plus-emission solution.

    f(X) = exp((i beta X - g)/2) * [cos(z) + ((g - i X cos theta)/2) sinc(z)]
    with z = (X + i (2 beta - 1) g) / 2.

    X = V*t is the accumulated pair phase, g = gamma*t the accumulated
    emission, theta the tipping angle, and beta the echo switch (0 = echo,
    1 = no echo). For beta = 0 the internal argument is z = (X - i g)/2; for
    beta = 1 the sign of the imaginary part must be flipped, z = (X + i g)/2,
    for the kernel to solve the master equation (the variant with the
    unflipped argument fails against the brute-force solver at the 1e-1
    level and retains an unphysical persistent phase as g -> infinity).
    Both echo settings are validated against the dense master-equation module.

    Split into a decaying and a surviving exponential, with c2, s2 =
    cos^2, sin^2 of theta/2, f = 1 + q (e^{iX - g} - 1), q = s2 X/(X + i g)
    (no echo) and f = e^{iX/2} + q (e^{-iX/2 - g} - e^{iX/2}),
    q = c2 X/(X - i g) (echo). :func:`_half_angle_kernel` evaluates it from
    one tangent per pair, u = tan(X/2) (no echo) or tan(X/4) (echo), and
    builds no complex exponential: e^{iX} or e^{iX/2} is
    [(1 - u^2) + 2iu] / (1 + u^2). A tangent costs one libm call where a
    cosine and a sine cost two, and numpy vectorizes float64 tan on CPUs
    where it runs float64 sin and cos as scalar loops. x passes through
    the kernel in chunks of :data:`_KERNEL_CHUNK` elements.

    - g = 0: q = s2 or c2, so f = [(1 + cos(theta) u^2) + 2i s2 u] / (1 + u^2)
      (no echo) and f = [(1 - u^2) - 2i cos(theta) u] / (1 + u^2) (echo,
      readout frame), within about 2 ulp of the cosine/sine form. X = 0
      gives f = 1 exactly, and u^2 does not overflow at any finite X.
    - g > 0: W = 1/(-1 + i X/g) (no echo) or 1/(-1 - i X/g) (echo) gives
      q = s2 (1 + W) or c2 (1 + W), so f = (1 + D) + W D with
      D = s2 (e^{iX - g} - 1), Re(1 + D) = (c2 + e^{-g} s2)
      - 2 e^{-g} s2 u^2/(1 + u^2), Im D = 2 e^{-g} s2 u/(1 + u^2) (no
      echo), and f = (e^{iX/2} + D) + W D with D = c2 (e^{-iX/2 - g}
      - e^{iX/2}) = c2 [j cos(X/2) - i (2 + j) sin(X/2)], j = expm1(-g),
      Im(e^{iX/2} + D) = (s2 - c2 e^{-g}) sin(X/2) (echo). W D is one
      complex division by -1 +- i X/g, 0 where X/g overflows; numpy's
      division by X +- i g would overflow at subnormal X and g.
      |W| <= 1 and |D| <= 2, so where |f| << 1 (no echo near theta = pi,
      echo near theta = 0, X >> g) the one O(1) cancellation is 1 + D, or
      cos(X/2) + Re D, whose terms share one float cos(X/2). At small g
      the first term is f's g = 0 value up to O(g) and |W D| <= |D| g/|X|.
      At X = 0, W = -1 and f = 1 exactly.

    Parameters
    ----------
    x : float or ndarray
        Dimensionless pair phase(s) X = V*t, any sign.
    g : float
        Dimensionless emission g = gamma*t, finite and >= 0; f(0, g) = 1
        exactly at every such g, subnormal ones included.
    theta : float
        Tipping angle, rad.
    beta : int
        0 (echo) or 1 (no echo).

    Returns
    -------
    complex or ndarray
        Total function of finite inputs; |f| <= 1 (up to rounding) at
        every g >= 0, since f averages a phase e^{i phi} over the
        emission histories.
    """
    if beta not in (0, 1):
        raise ParameterError(f"beta must be 0 or 1, got {beta!r}")
    if not 0.0 <= g < math.inf:
        raise ParameterError(f"g = gamma*t must be finite and non-negative, got {g!r}")
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat_x.size, _KERNEL_CHUNK)
    work = np.empty((3, size))
    z = np.empty(size if g > 0.0 else 0, dtype=complex)
    for lo in range(0, flat_x.size, _KERNEL_CHUNK):
        chunk = slice(lo, min(lo + _KERNEL_CHUNK, flat_x.size))
        n = chunk.stop - lo
        _half_angle_kernel(flat_x[chunk], 1.0, theta, beta, flat_out[chunk], *work[:, :n], g, z[:n])
    return out if out.ndim else complex(out)


# Elements of x per pass of f_kernel: one (3, chunk) float workspace of
# 192 kB (and at g > 0 a complex one of 128 kB) serves every chunk.
_KERNEL_CHUNK = 8192


def _half_angle_kernel(
    v, t: float, theta: float, beta: int, out, u, s, w, gamma=0.0, z=None
) -> None:
    """f(X, g) at X = v t and g = gamma t by the tangent forms of
    :func:`f_kernel`, written into buffers the caller owns.

    v (float) is only read; out is complex, u, s and w are float scratch,
    and z is complex scratch read only at g > 0 (the default gamma = 0 is
    the unitary kernel), all of v's shape. v (t/4) and v (t/2) are
    (v t)/4 and (v t)/2 bit for bit away from underflow and overflow, and
    X/g is v/gamma. u, s and w should be contiguous: numpy's tan and its
    arithmetic run faster there than on the strided parts of out.

    gamma is a float, or, at t = 1, a (rows, 1) column of one g per row of
    a 2-D v. Each row then gets f_kernel(v[row], g[row]) bit for bit: its
    constants expm1(-g) and e^{-g} come from math once per distinct g and
    enter as columns gathered to the rows, and each run of rows with g = 0
    takes the unitary formulas.
    """
    if np.ndim(gamma):
        pos = gamma[:, 0] > 0.0
        cuts = [0, *(np.flatnonzero(pos[1:] != pos[:-1]) + 1).tolist(), pos.size]
        if len(cuts) > 2 or not pos[0]:
            for a, b in zip(cuts, cuts[1:]):
                r = slice(a, b)
                g_r = gamma[r] if pos[a] else 0.0
                _half_angle_kernel(v[r], t, theta, beta, out[r], u[r], s[r], w[r], g_r, z[r])
            return
    np.multiply(v, t * (0.25 if beta == 0 else 0.5), out=u)
    np.tan(u, out=u)
    np.multiply(u, u, out=s)
    np.add(s, 1.0, out=w)
    c2, s2 = math.cos(0.5 * theta) ** 2, math.sin(0.5 * theta) ** 2
    g = gamma * t
    if beta == 0:
        np.subtract(1.0, s, out=s)
    if np.ndim(g) or g > 0.0:
        if np.ndim(g):
            distinct, row = np.unique(g[:, 0], return_inverse=True)
            j = np.array([math.expm1(-x) for x in distinct.tolist()])[row, None]
            decay = np.array([math.exp(-x) for x in distinct.tolist()])[row, None]
        else:
            j, decay = math.expm1(-g), math.exp(-g)
        z.real = -1.0
        with np.errstate(over="ignore"):  # X/g = +-inf gives W D = 0
            np.divide(v, gamma if beta == 1 else -gamma, out=z.imag)  # z = -1 +- i X/g
        if beta == 0:
            u /= w  # sin(X/2) / 2
            s /= w  # cos(X/2)
            np.multiply(s, c2 * j, out=out.real)
            np.multiply(u, -2.0 * c2 * (2.0 + j), out=out.imag)  # D
            np.divide(out, z, out=z)  # W D
            out.real += s
            np.multiply(u, 2.0 * (s2 - c2 * decay), out=out.imag)  # e^{iX/2} + D
        else:
            np.divide(2.0 * s2 * decay, w, out=w)
            np.multiply(u, w, out=out.imag)  # Im D
            s *= w
            np.subtract(c2 + s2 * decay, s, out=s)  # Re(1 + D)
            np.subtract(s, 1.0, out=out.real)  # D
            np.divide(out, z, out=z)  # W D
            out.real = s
        out += z
        return
    if beta == 0:
        u *= -2.0 * math.cos(theta)
    else:
        s *= math.cos(theta)
        s += 1.0
        u *= 2.0 * s2
    np.divide(s, w, out=out.real)
    np.divide(u, w, out=out.imag)


@dataclass(frozen=True)
class RamseyProtocol:
    """Pulse-sequence parameters of a Ramsey (or Ramsey-echo) run.

    Attributes
    ----------
    theta : float
        Tipping angle of the first pulse, rad, in [0, pi].
    echo : bool
        Whether a mid-sequence pi pulse is applied.
    gamma : float
        Spontaneous-emission rate from the upper (dressed) level, rad/us,
        finite and >= 0.
    gamma_d : float
        Pure dephasing rate, rad/us, finite and >= 0; enters only as a
        global factor exp(-gamma_d * t) on coherences.
    """

    theta: float
    echo: bool
    gamma: float = 0.0
    gamma_d: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ParameterError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not (0.0 <= self.gamma < np.inf and 0.0 <= self.gamma_d < np.inf):
            raise ParameterError("decay rates must be finite and non-negative")

    @property
    def beta(self) -> int:
        """Echo switch of the pair kernel: 0 with echo, 1 without."""
        return 0 if self.echo else 1


@dataclass(frozen=True)
class AtomConfiguration:
    """Explicit 3D positions of a frozen atomic sample, um.

    The positions are stored as a read-only copy, and their pair
    distances are computed once, at construction, where coincident atoms
    and distances whose squares overflow float64 are rejected. Couplings
    are materialized on demand from an
    :class:`~rydramsey.potential.InteractionPotential`; the matrix is
    symmetric with zero diagonal.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.array(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ParameterError(f"positions must have shape (N, 3), got {pos.shape}")
        if pos.shape[0] == 0:
            raise ParameterError("configuration must contain at least one atom")
        if not np.all(np.isfinite(pos)):
            raise ParameterError("positions must be finite")
        # one axis at a time, in the order (d * d).sum(axis=2) adds, and in
        # blocks of rows through one block-sized buffer: r is the only
        # (N, N) float array, where the (N, N, 3) differences would hold
        # three times its memory
        n = pos.shape[0]
        r = np.zeros((n, n))
        height = max(1, _BLOCK_ENTRIES // n)
        buf = np.empty((min(height, n), n))
        with np.errstate(over="ignore"):
            for i in range(0, n, height):
                rows = r[i : i + height]
                d = buf[: rows.shape[0]]
                for x in pos.T:
                    rows += np.square(np.subtract(x[i : i + height, None], x, out=d), out=d)
            np.sqrt(r, out=r)
        if not np.all(np.isfinite(r)):
            raise ParameterError("pair distances overflow float64 (a span past ~1e154 um)")
        if np.count_nonzero(r == 0.0) > pos.shape[0]:  # beyond the diagonal
            raise ParameterError("two atoms coincide")
        pos.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "_distances", r)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def pair_distances(self) -> np.ndarray:
        """(N, N) read-only matrix of pair distances, zero diagonal."""
        return self._distances

    def coupling_matrix(self, pot: InteractionPotential) -> np.ndarray:
        """(N, N) symmetric coupling matrix V_jk in rad/us, zero diagonal.

        The bits of evaluate_V on the distances, a block of rows at a time:
        q is built in one block-sized buffer and V written from it into the
        matrix, so the matrix and the cached distances are the only (N, N)
        float arrays. The buffer is allocated before the matrix: allocated
        after it, it made the first fig4 pass at L = 15 about 10 % slower
        (measured; the pattern of freed memory the allocator reuses).
        """
        r = self._distances
        height = max(1, _BLOCK_ENTRIES // r.shape[1])
        buf = np.empty((min(height, r.shape[0]), r.shape[1]))
        v = np.empty_like(r)
        for i in range(0, r.shape[0], height):
            rows = r[i : i + height]
            q = buf[: rows.shape[0]]
            np.copyto(q, rows)
            np.fill_diagonal(q[:, i:], 1.0)  # placeholder: the bare V diverges at r = 0
            _v_of_q(pot, _q_of_r(pot, q, out=q), out=v[i : i + height])
        np.fill_diagonal(v, 0.0)
        return v


def _checked_times(proto: RamseyProtocol, t, v: np.ndarray) -> np.ndarray:
    """t as a float array, checked against the protocol and the checked
    coupling matrix v: a float or a 1-D array, finite, negative only at
    gamma = gamma_d = 0 (under dissipation E would grow), with a finite
    g = gamma max|t| and a finite 2 max|V| max|t|. That last bound covers
    every pair phase of both evaluators, V t in the trace and
    (V_ik +- V_jk) t in the correlator."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError("t must be a float or a 1-D array of times")
    if not np.all(np.isfinite(times)):
        raise ParameterError("times must be finite")
    if np.any(times < 0) and (proto.gamma > 0 or proto.gamma_d > 0):
        raise ParameterError("negative time is only meaningful without dissipation")
    t_max = float(np.max(np.abs(times), initial=0.0))
    if proto.gamma * t_max == math.inf:  # Python floats overflow to inf silently
        raise ParameterError("g = gamma*t must be finite and non-negative, got inf")
    v_max = max(float(v.max()), -float(v.min()))
    if not math.isfinite(2.0 * v_max * t_max):
        raise ParameterError(
            f"pair phase 2 max|V| t overflows float64 at max|V| = {v_max!r} rad/us, t = {t_max!r}"
        )
    return times


def _checked_couplings(couplings, *, absolute: bool = False) -> np.ndarray:
    """couplings as a float array, checked: a nonempty square matrix, finite,
    zero on the diagonal (a pair of zero coupling leaves any product, f(0, g) = 1),
    and symmetric to 1e-12 of its largest |entry| (or of 1; of 1 if absolute)."""
    v = np.asarray(couplings, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
        raise ParameterError("couplings must be a nonempty square matrix")
    if not np.all(np.isfinite(v)):
        raise ParameterError("couplings must be finite")
    if np.any(np.diagonal(v)):
        raise ParameterError("couplings must be zero on the diagonal")
    # max |v| and max |v - v.T| without an (N, N) temporary: the asymmetry
    # is taken in blocks of rows (one block for N up to 256)
    scale = 1.0 if absolute else max(1.0, float(v.max()), -float(v.min()))
    height = max(1, _BLOCK_ENTRIES // v.shape[0])
    for i in range(0, v.shape[0], height):
        d = v[i : i + height] - v[:, i : i + height].T
        if float(np.max(np.abs(d, out=d))) > 1e-12 * scale:  # v is finite here
            raise ParameterError("couplings must be symmetric")
    return v


# Kernel entries per block of rows in sigma_plus_couplings, connected_sxsx
# and monte_carlo_gas (which imports it as _MC_PAIRS), and per chunk of
# times in lattice.lattice_contrast: a block's float arrays stay at 512 kB
# and its complex kernel at 1 MB, inside the cache, and memory stays O(N)
# beyond the coupling matrix.
_BLOCK_ENTRIES = 2**16


def sigma_plus_couplings(
    couplings: np.ndarray,
    proto: RamseyProtocol,
    t,
) -> complex | np.ndarray:
    """Exact per-spin coherence for a given coupling matrix, at one time or many.

    sigma_plus = sin(theta) * D(gamma, t) * e^{-gamma_d t}
    * (1/N) sum_k prod_{j != k} f_kernel(V_jk t, gamma t, theta, beta).
    See :func:`f_kernel` and :func:`coherence_decay`; j = k leaves by V_kk = 0.

    The matrix is validated once per call and taken in blocks of about
    :data:`_BLOCK_ENTRIES` // N rows, and a block of h rows takes its times
    in chunks of about _BLOCK_ENTRIES // (h N). For each chunk the kernel
    is evaluated once on X = t V over the block's rows, a row per (time,
    site), at t = 1 with that time's g = gamma t repeated per row
    (:func:`_half_angle_kernel`), so each factor equals its f_kernel call
    bit for bit. Each row is then multiplied out by :func:`_row_products`,
    the routine of :func:`connected_sxsx` and Monte Carlo, and every row's
    product is independent of the others, so an array call equals its
    one-time calls bit for bit. Every |f| <= 1, so no partial product
    underflows before the full one does, and an exact zero factor zeroes
    its two rows. Beyond the matrix a call holds one chunk's kernel arrays
    (of about _BLOCK_ENTRIES entries each) and each row's product at each
    time, a (times, N) complex array.

    Parameters
    ----------
    couplings : ndarray
        (N, N) symmetric, zero diagonal (else ParameterError), rad/us.
    proto : RamseyProtocol
    t : float or 1-D array
        us, finite; t >= 0 (t < 0 allowed only when gamma = gamma_d = 0,
        where the evolution is unitary and time reversal is meaningful),
        with gamma max|t| and 2 max|V| max|t| finite, else ParameterError
        (:func:`_checked_times`, the time check of :func:`connected_sxsx` too).

    Returns
    -------
    complex for a scalar t, else a complex array shaped like t.
    """
    v = _checked_couplings(couplings)
    times = _checked_times(proto, t, v)
    flat = times.reshape(-1)
    n, th, beta = v.shape[0], proto.theta, proto.beta
    height = max(1, _BLOCK_ENTRIES // n)
    rows = np.empty((flat.size, n), dtype=complex)  # each row's product at each time
    for lo in range(0, n, height):
        block = v[lo : lo + height]
        h = block.shape[0]
        span = max(1, _BLOCK_ENTRIES // (h * n))  # times per kernel call
        for a in range(0, flat.size, span):
            ts = flat[a : a + span]
            x = (ts[:, None, None] * block).reshape(-1, n)  # X = V t, a row per (time, site)
            g = np.repeat(proto.gamma * ts, h)[:, None]
            f, z = np.empty((2, *x.shape), dtype=complex)
            _half_angle_kernel(x, 1.0, th, beta, f, *np.empty((3, *x.shape)), g, z)
            rows[a : a + span, lo : lo + h] = _row_products(f).reshape(-1, h)
    out = _envelope(proto, flat) * rows.sum(axis=1) / n
    return complex(out[0]) if times.ndim == 0 else out


# Lanes of _row_products' chunked reduction. 64 ran fastest on the Monte
# Carlo blocks; at 128, rows 225 wide (the default fig4 lattice) got slower.
_ROW_CHUNK = 64


def _row_products(f: np.ndarray) -> np.ndarray:
    """Product of each row of a C-contiguous 2-D complex array with at
    least one column, as a new array; f is only read.

    np.prod(axis=1) is a scalar loop along each row, so rows at least C =
    :data:`_ROW_CHUNK` wide have their first m C columns (m = width // C)
    viewed as (rows, m, C) and multiplied out over m, one vectorized
    multiply of contiguous C-wide rows per step; the rows of that (rows, C)
    result and of the fewer than C leftover columns are then multiplied
    out. An exact zero factor gives an exact zero product.
    """
    h, w = f.shape
    if w < _ROW_CHUNK:
        return f.prod(axis=1)
    m = w // _ROW_CHUNK
    lanes = f[:, : m * _ROW_CHUNK].reshape(h, m, _ROW_CHUNK).prod(axis=1)
    return lanes.prod(axis=1) * f[:, m * _ROW_CHUNK :].prod(axis=1)


def connected_sxsx(
    couplings: np.ndarray,
    proto: RamseyProtocol,
    i: int,
    j,
    t,
) -> float | np.ndarray:
    """Connected correlator G(i,j) = <S^x_i S^x_j> - <S^x_i><S^x_j>, S = sigma/2,
    for a given coupling matrix (as :func:`sigma_plus_couplings`) at one time
    or many.

    Closed form at every gamma and gamma_d. With the envelope E of
    :func:`sigma_plus_couplings` and f = f_kernel(., gamma t, theta, beta):

    <sigma^x_i> = Re[E prod_{k != i} f(V_ik t)]
    <sigma^+_i sigma^+_j> = (E/2)^2 e^{i beta V_ij t} prod_{k != i,j} f((V_ik + V_jk) t)
    <sigma^+_i sigma^-_j> = (E/2)^2 prod_{k != i,j} f((V_ik - V_jk) t)

    and <sigma^x sigma^x> = 2 Re of their sum: H is diagonal and the jumps
    and pulses map populations to populations, so each other atom follows
    a classical Markov path. An echo follows the commuted model sequence,
    as in :func:`sigma_plus_couplings`; the result is independent of the
    echo readout frame (sign flips cancel pairwise) and is validated
    against the master-equation module.

    ``j`` is one site (a float for a float t) or a 1-D integer array of
    sites (an array shaped like it). ``t`` is a float or a 1-D array of
    times, which adds a leading times axis: shape (times,) for one site,
    (times, sites) for an array. The sites are taken in blocks of about
    :data:`_BLOCK_ENTRIES` // N. A block's sums V_ik +- V_jk, with columns
    i and j zeroed so that each excluded pair leaves by zero coupling, are
    built once for all times. At each time the block gives three kernel
    matrices, the rows of j (for the <sigma^x_k>) and the two sums, each
    row multiplied out by :func:`_row_products`. Each time takes its
    envelope and <sigma^x_i> from its float t, and each row's product is
    independent of the others, so every element equals its one-time,
    one-site call bit for bit.

    Raises
    ------
    ParameterError
        Couplings or times that :func:`sigma_plus_couplings` rejects, an i
        that is not an integer (a bool is not), i among j, or an index out
        of range.
    """
    v = _checked_couplings(couplings)
    n = v.shape[0]
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise ParameterError(f"i must be a site index (an integer), got {i!r}")
    js = np.asarray(j)
    if js.ndim > 1 or (js.size and js.dtype.kind not in "iu"):
        raise ParameterError("j must be a site index or a 1-D array of site indices")
    if not (0 <= i < n and np.all((0 <= js) & (js < n))):
        raise ParameterError(f"site indices out of range for N = {n}")
    if np.any(js == i):
        raise ParameterError("connected correlator needs two distinct sites")
    times = _checked_times(proto, t, v)
    out = _connected(v.__getitem__, proto, i, js.reshape(-1).astype(int), times)
    out = out.reshape(np.shape(t) + js.shape)
    return float(out) if out.ndim == 0 else out


def _connected(rows, proto: RamseyProtocol, i: int, sites: np.ndarray, times) -> np.ndarray:
    """The (times, sites) array of :func:`connected_sxsx` on checked arguments,
    where ``rows(idx)`` returns the (len(idx), N) coupling rows of sites idx."""
    ts = times.reshape(-1).tolist()  # the floats of one-time calls
    th, beta = proto.theta, proto.beta

    def prod_f(x, t):
        return _row_products(f_kernel(x * t, proto.gamma * t, th, beta))

    v_i = rows([i])
    es = [_envelope(proto, t) for t in ts]
    sx_i = [(e * prod_f(v_i, t)).real[0] for e, t in zip(es, ts)]
    out = np.empty((len(ts), sites.size))
    height = max(1, _BLOCK_ENTRIES // v_i.shape[1])
    for lo in range(0, sites.size, height):
        block = sites[lo : lo + height]
        v_block = rows(block)
        plus, minus = v_i[0] + v_block, v_i[0] - v_block
        for x in (plus, minus):  # the pairs with i and with j leave the product
            x[:, i] = 0.0
            x[np.arange(block.size), block] = 0.0
        for k, (e, tk) in enumerate(zip(es, ts)):
            amp = 0.25 * e * e
            sx = (e * prod_f(v_block, tk)).real
            spp = amp * np.exp(1j * beta * v_i[0, block] * tk) * prod_f(plus, tk)
            spm = amp * prod_f(minus, tk)
            out[k, lo : lo + height] = (2.0 * (spp + spm).real - sx_i[k] * sx) / 4.0
    return out
