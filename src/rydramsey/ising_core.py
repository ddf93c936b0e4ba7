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
undo the pi pulse's transverse flip, which keeps C(0) = sin(theta); the
master-equation module exposes both this and the raw lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedRegimeError
from .potential import InteractionPotential, evaluate_V

__all__ = [
    "COHERENCE_DECAY_EXPONENT",
    "RamseyProtocol",
    "AtomConfiguration",
    "ContrastTrace",
    "f_kernel",
    "coherence_decay",
    "sigma_plus_config",
    "sigma_plus_couplings",
    "contrast_trace",
    "contrast_phase",
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


def _split_coefficients(x, g: float, theta: float, beta: int):
    """a_plus, a_minus of the kernel split f = a_plus e^{iX - g} + a_minus
    (beta = 1) or a_plus e^{iX/2} + a_minus e^{-iX/2 - g} (beta = 0), in
    the identity form of :func:`f_kernel`, bounded for real X and g > 0."""
    if beta == 1:
        q = math.sin(0.5 * theta) ** 2 * (x / (x + 1j * g))
        return q, 1.0 - q
    q = math.cos(0.5 * theta) ** 2 * (x / (x - 1j * g))
    return 1.0 - q, q


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
      cos^2(theta/2) + sin^2(theta/2) e^{iX}  (no echo). One cosine and
      one sine per pair keep this Monte Carlo hot path at about half the
      cost of the split form.
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
        Dimensionless emission g = gamma*t >= 0.
    theta : float
        Tipping angle, rad.
    beta : int
        0 (echo) or 1 (no echo).

    Returns
    -------
    complex or ndarray
        Total function of finite inputs; |f| <= 1 when g = 0.
    """
    if beta not in (0, 1):
        raise ParameterError(f"beta must be 0 or 1, got {beta!r}")
    if g < 0:
        raise ParameterError("g = gamma*t must be non-negative")
    x = np.asarray(x, dtype=float)
    if g == 0.0:
        c = np.cos(0.5 * x)
        s = np.sin(0.5 * x)
        out = c - 1j * np.cos(theta) * s
        if beta == 1:
            out = (c + 1j * s) * out
    else:
        a_plus, a_minus = _split_coefficients(x, g, theta, beta)
        if beta == 1:
            out = a_plus * np.exp(1j * x - g) + a_minus
        else:
            out = a_plus * np.exp(0.5j * x) + a_minus * np.exp(-0.5j * x - g)
    return out if out.ndim else complex(out)


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
        Spontaneous-emission rate from the upper (dressed) level, rad/us.
    gamma_d : float
        Pure dephasing rate, rad/us; enters only as a global factor
        exp(-gamma_d * t) on coherences.
    """

    theta: float
    echo: bool
    gamma: float = 0.0
    gamma_d: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ParameterError(f"theta must lie in [0, pi], got {self.theta!r}")
        if self.gamma < 0 or self.gamma_d < 0:
            raise ParameterError("decay rates must be non-negative")

    @property
    def beta(self) -> int:
        """Echo switch of the pair kernel: 0 with echo, 1 without."""
        return 0 if self.echo else 1


@dataclass(frozen=True)
class AtomConfiguration:
    """Explicit 3D positions of a frozen atomic sample, um.

    The positions are stored as a read-only copy, and their pair
    distances are computed once, at construction, where coincident atoms
    are rejected. Couplings are materialized on demand from an
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
        d = pos[:, None, :] - pos[None, :, :]
        r = np.sqrt((d * d).sum(axis=2))
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
        """(N, N) symmetric coupling matrix V_jk in rad/us, zero diagonal."""
        r = self._distances
        v = np.zeros_like(r)
        off = ~np.eye(self.n, dtype=bool)
        v[off] = evaluate_V(pot, r[off])
        return v


@dataclass(frozen=True)
class ContrastTrace:
    """Coherence versus time on a fixed grid.

    contrast is |sigma_plus|; phase is atan2(Im, Re) and is NaN wherever
    the contrast vanishes (the phase is undefined there, not zero).
    """

    times: np.ndarray
    sigma_plus: np.ndarray
    normalization: str = "per-spin"

    @property
    def contrast(self) -> np.ndarray:
        return np.abs(self.sigma_plus)

    @property
    def phase(self) -> np.ndarray:
        c, phi = contrast_phase(self.sigma_plus)
        return phi

    def phase_rereferenced(self) -> np.ndarray:
        """Unwrapped phase minus its t = 0 value.

        Continuity-preserving branch choice across the grid; requires a
        nonvanishing contrast along the trace.
        """
        phi = self.phase
        if np.any(np.isnan(phi)):
            raise ParameterError("phase undefined at a zero of the contrast")
        unwrapped = np.unwrap(phi)
        return unwrapped - unwrapped[0]


def contrast_phase(sigma_plus):
    """Split complex coherence(s) into (contrast, phase).

    contrast = |sigma_plus| >= 0; phase = atan2(Im, Re) in (-pi, pi],
    NaN where the contrast is 0.
    """
    sp = np.asarray(sigma_plus, dtype=complex)
    c = np.abs(sp)
    phi = np.where(c == 0.0, np.nan, np.angle(sp))
    if sp.ndim == 0:
        return float(c), float(phi)
    return c, phi


def _log_factors(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex logs log|f| + i arg f of the factors, and their exact zeros.

    A product of factors is exp of the sum of their logs, set to 0 when
    any of them is flagged zero; the log of a zero factor is 0 here, so
    the flag alone carries it. Log-space accumulation keeps products of
    ~1e4 factors from underflowing.
    """
    mag = np.abs(factors)
    zero = mag == 0.0
    mag[zero] = 1.0
    logs = np.empty(mag.shape, dtype=complex)
    np.log(mag, out=logs.real)
    np.arctan2(factors.imag, factors.real, out=logs.imag)
    return logs, zero


def sigma_plus_couplings(
    couplings: np.ndarray,
    proto: RamseyProtocol,
    t,
    normalization: str = "per-spin",
) -> complex | np.ndarray:
    """Exact coherence for a given coupling matrix, at one time or many.

    sigma_plus = sin(theta) * D(gamma, t) * e^{-gamma_d t}
    * sum_k prod_{j != k} f_kernel(V_jk t, gamma t, theta, beta),
    divided by N for per-spin normalization. See
    :func:`f_kernel` and :func:`coherence_decay`.

    The matrix is validated once per call, and at each time the kernel and
    its complex log are evaluated once per distinct coupling value (a
    lattice has a handful) and the logs gathered back to N x N; memory
    stays O(N^2) for any number of times.

    Parameters
    ----------
    couplings : ndarray
        (N, N) symmetric, zero diagonal, rad/us.
    proto : RamseyProtocol
    t : float or 1-D array
        us; t >= 0 (t < 0 allowed only when gamma = gamma_d = 0, where the
        evolution is unitary and time reversal is meaningful).
    normalization : {"per-spin", "total"}

    Returns
    -------
    complex for a scalar t, else a complex array shaped like t.
    """
    v = np.asarray(couplings, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
        raise ParameterError("couplings must be a nonempty square matrix")
    if not np.all(np.isfinite(v)):
        raise ParameterError("couplings must be finite")
    scale = max(1.0, float(np.max(np.abs(v))))
    if not np.allclose(v, v.T, rtol=0.0, atol=1e-12 * scale):
        raise ParameterError("couplings must be symmetric")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError("t must be a float or a 1-D array of times")
    if np.any(times < 0) and (proto.gamma > 0 or proto.gamma_d > 0):
        raise ParameterError("negative time is only meaningful without dissipation")
    if normalization not in ("per-spin", "total"):
        raise ParameterError(f"unknown normalization {normalization!r}")
    n = v.shape[0]
    values, inverse = np.unique(v, return_inverse=True)
    inverse = inverse.reshape(v.shape)
    out = np.empty(times.size, dtype=complex)
    for k, tk in enumerate(times.reshape(-1).tolist()):
        logs, zero = _log_factors(
            f_kernel(values * tk, proto.gamma * tk, proto.theta, proto.beta)
        )
        pair_logs = logs[inverse]
        np.fill_diagonal(pair_logs, 0.0)  # j == k excluded from the product
        rows = np.exp(pair_logs.sum(axis=1))
        if zero.any():
            dead = zero[inverse]
            np.fill_diagonal(dead, False)
            rows[dead.any(axis=1)] = 0.0
        sp = _envelope(proto, tk) * rows.sum()
        out[k] = sp / n if normalization == "per-spin" else sp
    return complex(out[0]) if times.ndim == 0 else out


def sigma_plus_config(
    cfg: AtomConfiguration,
    pot: InteractionPotential,
    proto: RamseyProtocol,
    t,
    normalization: str = "per-spin",
) -> complex | np.ndarray:
    """Exact coherence of an explicit configuration at time(s) t.

    Convenience wrapper building the coupling matrix from positions; see
    :func:`sigma_plus_couplings` for the formula, conventions and the
    float-or-array handling of t.
    """
    return sigma_plus_couplings(cfg.coupling_matrix(pot), proto, t, normalization)


def contrast_trace(
    cfg: AtomConfiguration,
    pot: InteractionPotential,
    proto: RamseyProtocol,
    times,
    normalization: str = "per-spin",
) -> ContrastTrace:
    """Evaluate the coherence on a 1-D time grid.

    The coupling matrix is built once and the whole grid goes to
    :func:`sigma_plus_couplings` in one call, which evaluates the kernel
    once per distinct coupling value at each time.
    """
    times = np.asarray(times, dtype=float)
    sp = sigma_plus_couplings(cfg.coupling_matrix(pot), proto, times, normalization)
    return ContrastTrace(times=times, sigma_plus=sp, normalization=normalization)


def _connected_sxsx_couplings(
    couplings: np.ndarray, proto: RamseyProtocol, i: int, js: np.ndarray, t: float
) -> np.ndarray:
    """G(i, j) for every j in js, in one pass over the coupling rows.

    Three g = 0 kernel matrices: rows i and js for the <sigma^x_k>, and
    the |js| x N matrices at (V_ik +- V_jk) t for the two-point
    functions, with the excluded columns i and j set to 1.
    """
    v = couplings
    js = np.asarray(js, dtype=int)
    th, beta = proto.theta, proto.beta

    def prod_f0(x, excluded):
        # prod over each row of f(x t, g = 0), skipping the excluded columns
        f = f_kernel(x * t, 0.0, th, beta)
        r = np.arange(f.shape[0])
        for cols in excluded:
            f[r, cols] = 1.0
        return np.prod(f, axis=1)

    rows = np.concatenate(([i], js))
    sx = (np.sin(th) * prod_f0(v[rows], [rows])).real
    amp = 0.25 * np.sin(th) ** 2
    spp = amp * np.exp(1j * beta * v[i, js] * t) * prod_f0(v[i] + v[js], [i, js])
    spm = amp * prod_f0(v[i] - v[js], [i, js])
    sxsx = 2.0 * (spp + spm).real
    return (sxsx - sx[0] * sx[1:]) / 4.0


def connected_sxsx(
    cfg: AtomConfiguration,
    pot: InteractionPotential,
    proto: RamseyProtocol,
    i: int,
    j: int,
    t: float,
) -> float:
    """Connected correlator G(i,j) = <S^x_i S^x_j> - <S^x_i><S^x_j>, S = sigma/2.

    Closed form for the dissipation-free Ising quench. The two-point
    function splits into products over the other atoms:

    <sigma^+_i sigma^+_j> = (sin(theta)/2)^2 e^{i beta V_ij t}
        prod_{k != i,j} f((V_ik + V_jk) t)
    <sigma^+_i sigma^-_j> = (sin(theta)/2)^2
        prod_{k != i,j} f((V_ik - V_jk) t)

    with the g = 0 kernel, and <sigma^x sigma^x> = 2 Re of their sum. The
    result is independent of the echo readout frame (sign flips cancel
    pairwise) and is validated against the master-equation module.

    Raises
    ------
    ParameterError
        i == j, or an index out of range.
    UnsupportedRegimeError
        gamma > 0 or gamma_d > 0; dissipative correlators have no product
        closed form here. Use the oracle module for small systems instead.
    """
    if proto.gamma > 0 or proto.gamma_d > 0:
        raise UnsupportedRegimeError(
            "closed-form correlators require gamma = gamma_d = 0; "
            "use the oracle module (N <= 8) for dissipative correlators"
        )
    n = cfg.n
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError(f"site indices out of range for N = {n}")
    if i == j:
        raise ParameterError("connected correlator needs two distinct sites")
    return float(_connected_sxsx_couplings(cfg.coupling_matrix(pot), proto, i, [j], t)[0])
