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
import sys
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

    Two branches evaluate it:

    - g = 0: z is real and (X/2) sinc(X/2) = sin(X/2), so f reduces to
      cos(X/2) - i cos(theta) sin(X/2)  (echo, readout frame) and
      cos^2(theta/2) + sin^2(theta/2) e^{iX}  (no echo). This is the
      Monte Carlo hot path, evaluated by the half-angle identities from
      one tangent per pair:
      f = [(1 - u^2) - 2i cos(theta) u] / (1 + u^2), u = tan(X/4) (echo),
      f = [(1 + cos(theta) u^2) + 2i sin^2(theta/2) u] / (1 + u^2),
      u = tan(X/2) (no echo). A tangent costs one libm call where a
      cosine and a sine cost two, and numpy's float64 tan is vectorized
      on CPUs where its float64 sin and cos are scalar loops. The result
      differs from the cosine/sine form by at most about 2 ulp, X = 0
      gives f = 1 exactly, and |u| stays far below the overflow of u^2
      for every finite X. :func:`_half_angle_kernel` evaluates it on
      contiguous float buffers and writes each part of the complex
      output once, by the final quotient; here x passes through it in
      chunks of :data:`_KERNEL_CHUNK` elements, with one small float
      workspace as scratch.
    - g > 0: the exact split into a decaying and a surviving exponential,
      f = q e^{iX - g} + (1 - q) with q = sin^2(theta/2) X/(X + i g)
      (no echo), f = (1 - q) e^{iX/2} + q e^{-iX/2 - g} with
      q = cos^2(theta/2) X/(X - i g) (echo). |q| <= 1 for real X, so
      no term grows like cosh(g/2) and no sinc quotient cancels at
      small |z|: the form is accurate at every g > 0.

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
    if g == 0.0:
        out = np.empty(x.shape, dtype=complex)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        work = np.empty((3, min(flat_x.size, _KERNEL_CHUNK)))
        for lo in range(0, flat_x.size, _KERNEL_CHUNK):
            hi = min(lo + _KERNEL_CHUNK, flat_x.size)
            u, s, w = work[:, : hi - lo]
            _half_angle_kernel(flat_x[lo:hi], 1.0, theta, beta, flat_out[lo:hi], u, s, w)
    else:
        if beta == 1:
            q = math.sin(0.5 * theta) ** 2 * _x_over_x_plus_ig(x, g)
            out = q * np.exp(1j * x - g) + (1.0 - q)
        else:
            q = math.cos(0.5 * theta) ** 2 * _x_over_x_plus_ig(x, -g)
            out = (1.0 - q) * np.exp(0.5j * x) + q * np.exp(-0.5j * x - g)
    return out if out.ndim else complex(out)


# Elements of x per pass of f_kernel's g = 0 branch: one (3, chunk) float
# workspace of 192 kB serves every chunk of a call.
_KERNEL_CHUNK = 8192


def _half_angle_kernel(v, t: float, theta: float, beta: int, out, u, s, w) -> None:
    """f(X, 0) at X = v t by the half-angle identities of :func:`f_kernel`,
    written into buffers the caller owns.

    v (float) is only read. u, s and w are float scratch of v's shape,
    left holding the imaginary numerator, the real numerator and
    1 + u^2; out is a complex array of v's shape, whose real and
    imaginary parts are each written once, by the final quotients. The
    tangent's argument is v (t/4) (echo) or v (t/2): for t = 1 that is
    X/4 or X/2 itself, and otherwise it equals (v t)/4 or (v t)/2 bit
    for bit away from underflow and overflow, since scaling by a power
    of two is exact there. u, s and w should
    be contiguous: numpy's tan and its arithmetic run faster there than
    on the strided parts of out.
    """
    np.multiply(v, t * (0.25 if beta == 0 else 0.5), out=u)
    np.tan(u, out=u)
    np.multiply(u, u, out=s)
    np.add(s, 1.0, out=w)
    if beta == 0:
        np.subtract(1.0, s, out=s)
        u *= -2.0 * math.cos(theta)
    else:
        s *= math.cos(theta)
        s += 1.0
        u *= 2.0 * math.sin(0.5 * theta) ** 2
    np.divide(s, w, out=out.real)
    np.divide(u, w, out=out.imag)


def _x_over_x_plus_ig(x: np.ndarray, g: float) -> np.ndarray:
    """X / (X + i g) for a nonzero float g: 0 at X = 0, with no warning.

    numpy's complex division scales by 1 / max(|X|, |g|), which overflows
    for a subnormal g at small |X|; there 1 / (1 + i g/X) is used, whose
    g/X = +-inf at X = 0 gives exactly 0. At normal g the quotient is
    numpy's, bit for bit.
    """
    if abs(g) >= sys.float_info.min:
        return x / (x + 1j * g)
    d = np.ones(x.shape, dtype=complex)
    with np.errstate(divide="ignore"):
        np.divide(g, x, out=d.imag)
    return 1.0 / d


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


def _checked_times(proto: RamseyProtocol, t) -> np.ndarray:
    """t as a float array, checked: a float or a 1-D array, finite, and
    negative only at gamma = gamma_d = 0 (under dissipation E would grow)."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError("t must be a float or a 1-D array of times")
    if not np.all(np.isfinite(times)):
        raise ParameterError("times must be finite")
    if np.any(times < 0) and (proto.gamma > 0 or proto.gamma_d > 0):
        raise ParameterError("negative time is only meaningful without dissipation")
    return times


def _checked_couplings(couplings) -> np.ndarray:
    """couplings as a float array, checked: a nonempty square matrix,
    finite, and symmetric to 1e-12 of its largest |entry| (or of 1)."""
    v = np.asarray(couplings, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
        raise ParameterError("couplings must be a nonempty square matrix")
    if not np.all(np.isfinite(v)):
        raise ParameterError("couplings must be finite")
    # max |v| and max |v - v.T| without an (N, N) temporary: the asymmetry
    # is taken in blocks of rows (one block for N up to 256)
    scale = max(1.0, float(v.max()), -float(v.min()))
    height = max(1, _BLOCK_ENTRIES // v.shape[0])
    for i in range(0, v.shape[0], height):
        d = v[i : i + height] - v[:, i : i + height].T
        if float(np.max(np.abs(d, out=d))) > 1e-12 * scale:  # v is finite here
            raise ParameterError("couplings must be symmetric")
    return v


# Kernel entries per block of rows in sigma_plus_couplings, connected_sxsx
# and monte_carlo_gas (which imports it as _MC_PAIRS): a block's float
# arrays stay at 512 kB and its complex kernel at 1 MB, inside the cache,
# and memory stays O(N) beyond the coupling matrix.
_BLOCK_ENTRIES = 2**16


def sigma_plus_couplings(
    couplings: np.ndarray,
    proto: RamseyProtocol,
    t,
) -> complex | np.ndarray:
    """Exact per-spin coherence for a given coupling matrix, at one time or many.

    sigma_plus = sin(theta) * D(gamma, t) * e^{-gamma_d t}
    * (1/N) sum_k prod_{j != k} f_kernel(V_jk t, gamma t, theta, beta).
    See :func:`f_kernel` and :func:`coherence_decay`.

    The matrix is validated once per call and taken in blocks of about
    :data:`_BLOCK_ENTRIES` // N rows. At each time the kernel is evaluated
    once per distinct coupling value of a block (a lattice has a handful)
    and gathered back to the block's shape, where each row's factors are
    multiplied directly: every |f| <= 1, so no partial product underflows
    before the full one does, and an exact zero factor zeroes its two
    rows. Beyond the matrix and the gather's indices, which take as much
    memory as the matrix, a call holds O(N) and one block's factors.

    Parameters
    ----------
    couplings : ndarray
        (N, N) symmetric, zero diagonal, rad/us.
    proto : RamseyProtocol
    t : float or 1-D array
        us, finite; t >= 0 (t < 0 allowed only when gamma = gamma_d = 0,
        where the evolution is unitary and time reversal is meaningful).

    Returns
    -------
    complex for a scalar t, else a complex array shaped like t.
    """
    v = _checked_couplings(couplings)
    times = _checked_times(proto, t)
    n = v.shape[0]
    height = max(1, _BLOCK_ENTRIES // n)
    blocks = []
    for lo in range(0, n, height):
        values, inverse = np.unique(v[lo : lo + height], return_inverse=True)
        # column k of the gather holds row lo + k's factors: a product along
        # axis 0 of a C-contiguous complex array is vectorized, along axis 1
        # it is not
        blocks.append((lo, values, np.ascontiguousarray(inverse.reshape(-1, n).T)))
    rows = np.empty(n, dtype=complex)  # each row's product
    out = np.empty(times.size, dtype=complex)
    for k, tk in enumerate(times.reshape(-1).tolist()):
        for lo, values, cols in blocks:
            hi = lo + cols.shape[1]
            f = f_kernel(values * tk, proto.gamma * tk, proto.theta, proto.beta)[cols]
            np.fill_diagonal(f[lo:hi], 1.0)  # j == k excluded from the product
            rows[lo:hi] = f.prod(axis=0)
        out[k] = _envelope(proto, tk) * rows.sum() / n
    return complex(out[0]) if times.ndim == 0 else out


# Lanes of _row_products' chunked reduction. 64 ran fastest on the Monte
# Carlo blocks; at 128, rows 225 wide (the default fig4 lattice) got slower.
_ROW_CHUNK = 64


def _row_products(f: np.ndarray) -> np.ndarray:
    """Product of each row of a C-contiguous 2-D complex array with at
    least one column, as a new array; f is only read.

    With C = :data:`_ROW_CHUNK` lanes and m = width // C, the first m C
    columns are viewed as (rows, m, C) and multiplied out over m, one
    vectorized multiply of contiguous C-wide rows per step, where
    np.prod(axis=1) on the full width is a scalar loop. The rows of that
    (rows, C) result and of the fewer than C leftover columns are then
    multiplied out. An exact zero factor gives an exact zero product.
    """
    h, w = f.shape
    m = w // _ROW_CHUNK
    lanes = f[:, : m * _ROW_CHUNK].reshape(h, m, _ROW_CHUNK).prod(axis=1)
    return lanes.prod(axis=1) * f[:, m * _ROW_CHUNK :].prod(axis=1)


def connected_sxsx(
    couplings: np.ndarray,
    proto: RamseyProtocol,
    i: int,
    j,
    t: float,
) -> float | np.ndarray:
    """Connected correlator G(i,j) = <S^x_i S^x_j> - <S^x_i><S^x_j>, S = sigma/2,
    for a given coupling matrix (as :func:`sigma_plus_couplings`) at one time t.

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

    ``j`` is one site (returns a float) or a 1-D integer array of sites
    (returns an array shaped like it). The sites are taken in blocks of
    about :data:`_BLOCK_ENTRIES` // N: per block three kernel matrices, the
    rows of j for the <sigma^x_k> and the matrices at (V_ik +- V_jk) t,
    with the excluded columns i and j set to 1, each row multiplied out by
    :func:`_row_products`. Each row's product is independent of the
    others, so the result does not depend on the blocking.

    Raises
    ------
    ParameterError
        Couplings or a time that :func:`sigma_plus_couplings` rejects, t
        not a single time, i among j, or an index out of range.
    """
    v = _checked_couplings(couplings)
    n = v.shape[0]
    js = np.asarray(j)
    if js.ndim > 1 or (js.size and js.dtype.kind not in "iu"):
        raise ParameterError("j must be a site index or a 1-D array of site indices")
    if not (0 <= i < n and np.all((0 <= js) & (js < n))):
        raise ParameterError(f"site indices out of range for N = {n}")
    if np.any(js == i):
        raise ParameterError("connected correlator needs two distinct sites")
    if _checked_times(proto, t).ndim != 0:
        raise ParameterError("the correlators take one time t, not an array")
    th, beta = proto.theta, proto.beta
    sites = js.reshape(-1).astype(int)

    def prod_f(x, excluded):
        # prod over each row of f(x t, gamma t), skipping the excluded columns
        f = f_kernel(x * t, proto.gamma * t, th, beta)
        r = np.arange(f.shape[0])
        for cols in excluded:
            f[r, cols] = 1.0
        return _row_products(f)

    e = _envelope(proto, t)
    amp = 0.25 * e * e
    sx_i = (e * prod_f(v[[i]], [i])).real[0]
    out = np.empty(sites.size)
    height = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, sites.size, height):
        block = sites[lo : lo + height]
        sx = (e * prod_f(v[block], [block])).real
        spp = amp * np.exp(1j * beta * v[i, block] * t) * prod_f(v[i] + v[block], [i, block])
        spm = amp * prod_f(v[i] - v[block], [i, block])
        sxsx = 2.0 * (spp + spm).real
        out[lo : lo + height] = (sxsx - sx_i * sx) / 4.0
    return float(out[0]) if js.ndim == 0 else out
