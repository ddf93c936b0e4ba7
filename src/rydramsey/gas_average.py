"""Disorder-averaged Ramsey coherence of a uniform frozen gas.

For uncorrelated uniform positions the configuration average of the
per-spin coherence collapses to a single radial integral,

    sigma_plus(t) = sin(theta) D(gamma, t) e^{-gamma_d t} exp(-I(t)),
    I(t) = rho * integral 4 pi r^2 [1 - f(V(r) t, gamma t)] dr,

with the pair kernel f of :mod:`rydramsey.ising_core`. This module
evaluates I three independent ways (adaptive panel quadrature, closed
forms where the unitary integrals reduce to Bessel/Fresnel quantities,
and Monte Carlo sampling of explicit configurations), exposes the
low/high-density asymptotics with their exact amplitudes, and locates
the half-contrast time tau_1/2.

The sin(theta) prefactor follows the same convention as the
configuration-resolved functions, so the gas coherence at t = 0 is
sin(theta) and the rho -> 0 limit is the bare single-atom signal. The
pure-dephasing rate gamma_d never enters I; it is a global envelope.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import j0, j1

from .errors import (
    BiasWarning,
    CrossingNotFoundError,
    NumericalError,
    ParameterError,
    UnsupportedRegimeError,
    ValidityWarning,
)
from .ising_core import (
    RamseyProtocol,
    _envelope,
    _log_factors,
    _split_coefficients,
    f_kernel,
)
from .potential import (
    DressingParams,
    InteractionPotential,
    PotentialKind,
    blockade_number,
    derive_potential,
    evaluate_V,
)

__all__ = [
    "GasSpec",
    "DimensionlessPoint",
    "Regime",
    "AsymptoticResult",
    "MCResult",
    "exponent_integral",
    "contrast_gas",
    "contrast_gas_finite_n",
    "monte_carlo_gas",
    "low_density_amplitude",
    "asymptotic_contrast",
    "fit_hardcore_amplitude",
    "tau_half",
]

_REL_TOL = 1e-8
_ABS_TOL = 1e-12

# X below which 1 - f is replaced by its quadratic Taylor tail.
_X_SMALL = 1e-5

# Rows of the Monte Carlo pair matrix evaluated at once (bounds memory).
_MC_CHUNK = 256

# 15-point Kronrod rule with embedded 7-point Gauss estimate. Gauss
# weights are zero at the Kronrod-only nodes so both sums run over the
# same evaluations.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


@dataclass(frozen=True)
class GasSpec:
    """Uniform gas: density (um^-3), potential, pulse protocol."""

    density: float
    potential: InteractionPotential
    protocol: RamseyProtocol

    def __post_init__(self):
        if not self.density > 0:
            raise ParameterError(f"density must be positive, got {self.density!r}")

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
    (r_c = 1 um, V0 = 1 rad/us, epsilon = 0.1) so the round trip
    point -> physical -> point is exact to ~1e-12.
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
        if self.n_r <= 0:
            raise ParameterError("n_r must be positive")

    @classmethod
    def from_physical(cls, spec: GasSpec, t: float) -> "DimensionlessPoint":
        pot = spec.potential
        if pot.kind is not PotentialKind.SOFT_CORE or pot.v0 == 0.0:
            raise UnsupportedRegimeError(
                "dimensionless reduction needs a soft-core potential with "
                "a finite plateau; bare potentials have no V0 scale"
            )
        v0 = pot.v0
        return cls(
            n_r=spec.n_r,
            v0t=v0 * t,
            theta=spec.protocol.theta,
            beta=spec.protocol.beta,
            gamma_over_v0=spec.protocol.gamma / v0,
            gamma_d_over_v0=spec.protocol.gamma_d / v0,
        )

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
        density = 3.0 * self.n_r / (4.0 * math.pi * r_c**3)
        return GasSpec(density=density, potential=pot, protocol=proto), self.v0t / v0


def _kernel_derivative_at_zero(g: float, theta: float, beta: int) -> complex:
    """d f / d X at X = 0 for the pair kernel (purely imaginary).

    Differentiating f at X = 0 gives, with q = (1 - e^{-g}) / g,
    i [(1 - beta) + (2 beta - 1 - cos theta) q] / 2; at g = 0 it reduces
    to i (beta - cos theta) / 2. The beta = 1 branch must pick up the
    sign-flipped internal argument of the kernel, so the two branches do
    not share the beta = 0 coefficient pattern.
    """
    q = -np.expm1(-g) / g if g > 0 else 1.0
    return 0.5j * ((1.0 - beta) + (2.0 * beta - 1.0 - np.cos(theta)) * q)


def _kernel_second_derivative_at_zero(g: float, theta: float, beta: int) -> float:
    """d^2 f / d X^2 at X = 0 for the pair kernel; real, as f(-X) = conj f(X).

    With s = 2 beta - 1, q as above and p = e^{-y} (y cosh y - sinh y) / y^2
    at y = g/2: -(1 - beta)/4 - beta (s - cos theta) q/2 + (1 - s cos theta) p/2.
    p is summed as its Taylor series below g = 0.2, where
    p = (1 + e^{-g})/g - 2 q/g cancels.
    """
    s = 2.0 * beta - 1.0
    c = math.cos(theta)
    q = -math.expm1(-g) / g if g > 0 else 1.0
    if g < 0.2:
        y = 0.5 * g
        p = math.exp(-y) * (y / 3.0 + y**3 / 30.0 + y**5 / 840.0 + y**7 / 45360.0)
    else:
        p = (1.0 + math.exp(-g)) / g - 2.0 * q / g
    return -0.25 * (1.0 - beta) - 0.5 * beta * (s - c) * q + 0.5 * (1.0 - s * c) * p


def _soft_core_panel_edges(t_abs: float, u_tail: float) -> np.ndarray:
    """Panel boundaries in u for the soft-core integrand on [0, u_tail].

    X(u) = T/(1+u^2) sweeps |X| from |T| to x_small, so the integrand
    oscillates wherever |X| crosses a multiple of pi; each such crossing
    becomes a panel edge, which bounds the phase change per panel by pi.
    The smooth region past the last crossing is covered geometrically.
    """
    edges = [0.0, u_tail]
    m_max = int(t_abs // math.pi)
    if m_max >= 1:
        m = np.arange(1, m_max + 1, dtype=float)
        edges.extend(np.sqrt(t_abs / (math.pi * m) - 1.0).tolist())
    start = max(math.sqrt(max(t_abs / math.pi - 1.0, 0.0)), 1.0)
    p = start * 2.0
    while p < u_tail:
        edges.append(p)
        p *= 2.0
    edges = np.unique(np.asarray(edges))
    return edges[(edges >= 0.0) & (edges <= u_tail)]


def _soft_core_i_over_nr(T: float, g: float, theta: float, beta: int) -> complex:
    """I / N_R for the soft-core potential via vectorized panel quadrature.

    Substitution u = (r/r_c)^3 turns the radial integral into
    integral_0^inf [1 - f(T/(1+u^2), g)] du with T = V0 t. The integrand
    beyond X < x_small is replaced by its exact quadratic Taylor tail.
    """
    t_abs = abs(T)
    fp0 = _kernel_derivative_at_zero(g, theta, beta)
    fpp0 = _kernel_second_derivative_at_zero(g, theta, beta)

    def tail(u_from: float) -> complex:
        j1_int = 0.5 * (math.pi / 2.0 - math.atan(u_from) - u_from / (1.0 + u_from**2))
        return -fp0 * T * (math.pi / 2.0 - math.atan(u_from)) - 0.5 * fpp0 * T**2 * j1_int

    if t_abs <= _X_SMALL:
        return tail(0.0)

    u_tail = math.sqrt(t_abs / _X_SMALL - 1.0)
    edges = _soft_core_panel_edges(t_abs, u_tail)

    def evaluate(edges: np.ndarray):
        centers = 0.5 * (edges[1:] + edges[:-1])
        halfw = 0.5 * (edges[1:] - edges[:-1])
        u = centers[:, None] + halfw[:, None] * _GK_NODES[None, :]
        vals = 1.0 - f_kernel(T / (1.0 + u * u), g, theta, beta)
        kron = (vals * _GK_WEIGHTS).sum(axis=1) * halfw
        gauss = (vals * _GAUSS_WEIGHTS).sum(axis=1) * halfw
        return kron, np.abs(kron - gauss)

    kron, err = evaluate(edges)
    total = kron.sum() + tail(u_tail)
    for _ in range(3):
        budget = max(_REL_TOL * abs(total), _ABS_TOL)
        if err.sum() <= budget:
            break
        bad = err > budget / (2.0 * len(err))
        mids = 0.5 * (edges[:-1][bad] + edges[1:][bad])
        edges = np.unique(np.concatenate([edges, mids]))
        kron, err = evaluate(edges)
        total = kron.sum() + tail(u_tail)
    else:
        if err.sum() > max(_REL_TOL * abs(total), _ABS_TOL):
            raise NumericalError(
                "soft-core exponent quadrature did not converge",
                diagnostics={
                    "error_estimate": float(err.sum()),
                    "value": complex(total),
                    "panels": int(len(err)),
                    "T": T,
                    "g": g,
                },
            )
    return complex(total)


def _quad(fun, a: float, b: float, **kwargs) -> float:
    """quad at the bare route's tolerances; its IntegrationWarning (the only
    sign of a non-converged integral) becomes a NumericalError."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, err = quad(fun, a, b, limit=400, epsabs=_ABS_TOL, epsrel=1e-9, **kwargs)[:2]
    for w in caught:
        if issubclass(w.category, IntegrationWarning):
            raise NumericalError(
                "bare-potential exponent quadrature did not converge",
                diagnostics={"error_estimate": err, "quad_message": str(w.message)},
            )
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return value


def _oscillatory_tail(cfun, omega_signed: float, a: float) -> complex:
    """integral_a^inf cfun(Y) e^{i omega Y} dY via Fourier-weighted quadrature."""
    w = abs(omega_signed)
    sg = 1.0 if omega_signed > 0 else -1.0
    rc = _quad(lambda y: cfun(y).real, a, np.inf, weight="cos", wvar=w)
    rs = _quad(lambda y: cfun(y).real, a, np.inf, weight="sin", wvar=w)
    ic = _quad(lambda y: cfun(y).imag, a, np.inf, weight="cos", wvar=w)
    is_ = _quad(lambda y: cfun(y).imag, a, np.inf, weight="sin", wvar=w)
    return (rc - sg * is_) + 1j * (sg * rs + ic)


def _bare_i_tilde_quadrature(s: float, g: float, theta: float, beta: int) -> complex:
    """integral_0^inf [1 - f(s/u^2, g)] du for the bare 1/r^6 potential.

    The head u >= u0 (|X| <= 2) is smooth and integrated directly; the
    rapidly oscillating u -> 0 region is transformed to Y = |X|, where
    the kernel's exponential split isolates a smooth component and one
    or two Fourier components integrated with cos/sin-weighted rules.
    """
    x0 = 2.0
    u0 = 1.0 / math.sqrt(x0)

    def head(u):
        return 1.0 - f_kernel(s / u**2, g, theta, beta)

    try:
        head_val = (
            _quad(lambda u: head(u).real, u0, np.inf)
            + 1j * _quad(lambda u: head(u).imag, u0, np.inf)
        )

        eg = math.exp(-g) if g < 700 else 0.0
        if beta == 1:
            smooth = (
                _quad(lambda y: (1.0 - _split_coefficients(s * y, g, theta, 1)[1]).real * y**-1.5, x0, np.inf)
                + 1j * _quad(lambda y: (1.0 - _split_coefficients(s * y, g, theta, 1)[1]).imag * y**-1.5, x0, np.inf)
            )
            osc = -eg * _oscillatory_tail(
                lambda y: _split_coefficients(s * y, g, theta, 1)[0] * y**-1.5, s, x0
            )
            tail_val = 0.5 * (smooth + osc)
        else:
            exact = 2.0 / math.sqrt(x0)
            osc_p = -_oscillatory_tail(
                lambda y: _split_coefficients(s * y, g, theta, 0)[0] * y**-1.5, 0.5 * s, x0
            )
            osc_m = -eg * _oscillatory_tail(
                lambda y: _split_coefficients(s * y, g, theta, 0)[1] * y**-1.5, -0.5 * s, x0
            )
            tail_val = 0.5 * (exact + osc_p + osc_m)
    except NumericalError as exc:
        raise NumericalError(
            str(exc),
            diagnostics={**exc.diagnostics, "s": s, "g": g, "theta": theta, "beta": beta},
        ) from exc
    return head_val + tail_val


def _k_bessel(y: float) -> complex:
    """K(y) = integral_0^inf [1 - e^{i y/(1+u^2)}] du in closed form.

    K(y) = -pi (y/2) e^{i y/2} [J_1(y/2) + i J_0(y/2)] for y >= 0 and
    K(-y) = conj(K(y)). Verified against direct quadrature to machine
    precision; reproduces K(y) ~ sqrt(pi y / 2) (1 - i) for large y,
    which is where the low-density amplitudes come from.
    """
    h = abs(y) / 2.0
    val = -math.pi * h * np.exp(1j * h) * (j1(h) + 1j * j0(h))
    return complex(val) if y >= 0 else complex(np.conj(val))


def _soft_core_i_over_nr_closed(T: float, theta: float, beta: int) -> complex:
    """Unitary (gamma = 0) soft-core exponent via the Bessel closed form.

    The kernel splits into populations times phase factors,
    f = pu e^{iX} + pd (no echo) and f = pu e^{iX/2} + pd e^{-iX/2}
    (echo), so I/N_R reduces to combinations of K above.
    """
    pu = np.sin(theta / 2.0) ** 2
    pd = np.cos(theta / 2.0) ** 2
    if beta == 1:
        return pu * _k_bessel(T)
    return pu * _k_bessel(T / 2.0) + pd * _k_bessel(-T / 2.0)


def _bare_i_tilde_closed(s: float, theta: float, beta: int) -> complex:
    """Unitary bare-potential dimensionless integral in closed form.

    Uses integral_0^inf (1 - e^{i a/u^2}) du = sqrt(pi |a|/2) (1 - i sign a):
    beta = 1 gives pu sqrt(pi/2) (1 - i s); beta = 0 gives
    (sqrt(pi)/2)(1 + i s cos theta). Verified against direct quadrature.
    """
    pu = np.sin(theta / 2.0) ** 2
    if beta == 1:
        return complex(pu * math.sqrt(math.pi / 2.0) * (1.0 - 1j * s))
    return complex(0.5 * math.sqrt(math.pi) * (1.0 + 1j * s * np.cos(theta)))


def exponent_integral(spec: GasSpec, t: float, method: str = "auto") -> complex:
    """Disorder-average exponent I(t) = rho * int 4 pi r^2 [1 - f(V(r) t)] dr.

    Parameters
    ----------
    spec : GasSpec
    t : float
        us, >= 0.
    method : {"auto", "quadrature", "closed"}
        "quadrature" forces the adaptive panel/Fourier route;
        "closed" forces the unitary closed forms (gamma = 0 only);
        "auto" uses closed forms when available, quadrature otherwise.
        The two routes agree to ~1e-8 relative and are compared in the
        test suite rather than collapsed into one another.

    Returns
    -------
    complex
        Re I >= 0 at gamma = 0; the contrast is sin(theta) D e^{-I}.
    """
    if t < 0:
        raise ParameterError("exponent integral is defined for t >= 0")
    if method not in ("auto", "quadrature", "closed"):
        raise ParameterError(f"unknown method {method!r}")
    if t == 0:
        return 0.0 + 0.0j
    th, beta = spec.protocol.theta, spec.protocol.beta
    g = spec.protocol.gamma * t
    pot = spec.potential
    closed = method == "closed" or (method == "auto" and g == 0.0)
    if closed and g > 0.0:
        raise UnsupportedRegimeError("closed-form exponent integrals exist only at gamma = 0")
    if pot.kind is PotentialKind.SOFT_CORE:
        if closed:
            return spec.n_r * _soft_core_i_over_nr_closed(pot.v0 * t, th, beta)
        return spec.n_r * _soft_core_i_over_nr(pot.v0 * t, g, th, beta)
    pref = 4.0 * math.pi * spec.density * math.sqrt(abs(pot.c6) * t) / 3.0
    sign = math.copysign(1.0, pot.c6)
    if closed:
        return pref * _bare_i_tilde_closed(sign, th, beta)
    return pref * _bare_i_tilde_quadrature(sign, g, th, beta)


def contrast_gas(spec: GasSpec, t: float, method: str = "auto") -> complex:
    """Thermodynamic-limit per-spin coherence of the gas at time t.

    sin(theta) D(gamma, t) e^{-gamma_d t} exp(-I(t)); rho -> 0 recovers
    the non-interacting signal, t = 0 gives sin(theta).
    """
    return _envelope(spec.protocol, t) * np.exp(-exponent_integral(spec, t, method=method))


def contrast_gas_finite_n(spec: GasSpec, t: float, n: int) -> complex:
    """Finite-atom-number coherence sin(theta) D e^{-gamma_d t} [1 - I/N]^{N-1}.

    Converges to :func:`contrast_gas` as N -> infinity (deviation ~ c/N).
    The derivation treats I/N as a small parameter; |I/N| >= 1 is
    outside its validity and raises a ValidityWarning while still
    returning the literal formula value.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError("finite-N contrast needs an integer N >= 2")
    ii = exponent_integral(spec, t)
    if abs(ii / n) >= 1.0:
        warnings.warn(
            f"|I/N| = {abs(ii / n):.3g} >= 1: finite-N formula outside "
            "its validity domain",
            ValidityWarning,
            stacklevel=2,
        )
    return _envelope(spec.protocol, t) * (1.0 - ii / n) ** (n - 1)


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
    envelope, evaluate_V and kernel-log code of sigma_plus_couplings.
    V_jk = V_kj, so each unordered pair is evaluated once: a block of
    rows [lo, hi) meets only the columns [lo, N) (one distance pass per
    block, reused at every time), and the log of each pair factor is
    added to both atoms' sums. Exact zero factors are flagged the same
    way, and exp is taken once per sample and time. Sampling is
    deterministic under the seed: sample s draws from
    SeedSequence(seed).spawn(n)[s].

    A BiasWarning is raised when the box side is below 20 interaction
    range scales (r_c for soft-core, (|C6| t_max)^(1/6) for bare), where
    the minimum-image truncation visibly biases the tail of I.
    """
    if n_samples < 2:
        raise ParameterError("need at least 2 samples for a standard error")
    if n_atoms < 2:
        raise ParameterError("need at least 2 atoms")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ParameterError("times must be non-negative")
    proto = spec.protocol
    pot = spec.potential
    box = (n_atoms / spec.density) ** (1.0 / 3.0)
    if pot.kind is PotentialKind.SOFT_CORE:
        range_scale = pot.r_c
    else:
        range_scale = (abs(pot.c6) * times.max()) ** (1.0 / 6.0) if times.max() > 0 else 0.0
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
    # (T, N) sums of the logs of each atom's factors, and exact zeros
    log_rows = np.empty((times.size, n_atoms), dtype=complex)
    dead = np.empty((times.size, n_atoms), dtype=bool)
    # pairs of a diagonal block already counted, or self-pairs: col <= row
    lower = np.tril(np.ones((_MC_CHUNK, _MC_CHUNK), dtype=bool))

    for s_idx, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        pos = rng.random((n_atoms, 3)) * box
        log_rows[:] = 0.0
        dead[:] = False
        for lo in range(0, n_atoms, _MC_CHUNK):
            hi = min(lo + _MC_CHUNK, n_atoms)
            below = lower[: hi - lo, : hi - lo]
            # rows lo:hi against columns lo:N; each unordered pair once
            r2 = np.zeros((hi - lo, n_atoms - lo))
            for x in pos.T:
                d = x[lo:hi, None] - x[None, lo:]
                d -= box * np.rint(d / box)
                r2 += d * d
            np.fill_diagonal(r2, 1.0)  # placeholder; self-pairs are masked
            v = evaluate_V(pot, np.sqrt(r2))
            for it, t in enumerate(times):
                logs, zero = _log_factors(
                    f_kernel(v * t, proto.gamma * t, proto.theta, proto.beta)
                )
                logs[:, : hi - lo][below] = 0.0
                log_rows[it, lo:hi] += logs.sum(axis=1)
                log_rows[it, lo:] += logs.sum(axis=0)
                if zero.any():
                    zero[:, : hi - lo][below] = False
                    dead[it, lo:hi] |= zero.any(axis=1)
                    dead[it, lo:] |= zero.any(axis=0)
        rowprod = np.exp(log_rows)
        rowprod[dead] = 0.0
        samples[s_idx] = envelope * rowprod.mean(axis=1)

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


class Regime(enum.Enum):
    """Density regime of the asymptotic contrast law."""

    LOW = "low"
    HIGH = "high"


def low_density_amplitude(beta: int) -> float:
    """A in C = exp(-A N_R sqrt(V0 t)): sqrt(pi)/2^(1 + beta/2).

    sqrt(pi)/2 with echo (beta = 0), sqrt(pi)/2^(3/2) without (beta = 1).
    """
    if beta not in (0, 1):
        raise ParameterError(f"beta must be 0 or 1, got {beta!r}")
    return math.sqrt(math.pi) / 2 ** (1 + beta / 2)


@dataclass(frozen=True)
class AsymptoticResult:
    """Asymptotic contrast value with its validity annotation.

    in_validity_domain records whether N_R sits on the side of 1 the
    formula was derived for; using a regime outside its domain is
    allowed (for plotting overlays) but flagged.
    """

    value: float
    regime: Regime
    n_r: float
    v0t: float
    amplitude: float
    in_validity_domain: bool


def asymptotic_contrast(
    point: DimensionlessPoint, regime: Regime, b: float = 1.0
) -> AsymptoticResult:
    """Low/high-density closed-form contrast at theta = pi/2, gamma = 0.

    LOW: exp(-A N_R sqrt(V0 t)) with the exact amplitude
    A = sqrt(pi)/2^(1 + beta/2). HIGH: exp(-B N_R (1 - cos^(beta+1)(V0 t / 2))),
    the hard-core-plateau result; B = 1 is the bare hard-core value and
    callers may pass a fitted B (see fit_hardcore_amplitude).
    """
    if abs(point.theta - math.pi / 2.0) > 1e-12 or point.gamma_over_v0 != 0.0:
        raise UnsupportedRegimeError(
            "asymptotic laws are quoted for theta = pi/2 and gamma = 0"
        )
    if point.v0t < 0:
        raise ParameterError("asymptotic laws need V0 t >= 0")
    if regime is Regime.LOW:
        a = low_density_amplitude(point.beta)
        value = math.exp(-a * point.n_r * math.sqrt(point.v0t))
        return AsymptoticResult(
            value=value,
            regime=regime,
            n_r=point.n_r,
            v0t=point.v0t,
            amplitude=a,
            in_validity_domain=point.n_r <= 1.0,
        )
    if regime is Regime.HIGH:
        value = math.exp(
            -b * point.n_r * (1.0 - math.cos(point.v0t / 2.0) ** (point.beta + 1))
        )
        return AsymptoticResult(
            value=value,
            regime=regime,
            n_r=point.n_r,
            v0t=point.v0t,
            amplitude=b,
            in_validity_domain=point.n_r >= 1.0,
        )
    raise ParameterError(f"unknown regime {regime!r}")


def fit_hardcore_amplitude(spec: GasSpec, times) -> float:
    """Least-squares B for the high-density law against the exact exponent.

    Fits Re I(t) = B * N_R (1 - cos^(beta+1)(V0 t / 2)) through the
    origin over the provided times. theta = pi/2, gamma = 0 only, same
    as the law itself.
    """
    proto = spec.protocol
    if abs(proto.theta - math.pi / 2.0) > 1e-12 or proto.gamma != 0.0:
        raise UnsupportedRegimeError(
            "hard-core amplitude fit is defined for theta = pi/2, gamma = 0"
        )
    if spec.potential.kind is not PotentialKind.SOFT_CORE:
        raise UnsupportedRegimeError("hard-core fit needs a soft-core potential")
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(times <= 0):
        raise ParameterError("need at least two positive times to fit B")
    v0 = spec.potential.v0
    x = spec.n_r * (1.0 - np.cos(v0 * times / 2.0) ** (proto.beta + 1))
    y = np.array([exponent_integral(spec, t).real for t in times])
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ParameterError("fit times give identically zero predictor")
    return float(np.dot(x, y) / denom)


def _tau_scale_estimates(spec: GasSpec) -> list:
    proto = spec.protocol
    pot = spec.potential
    est = []
    ln2 = math.log(2.0)
    if pot.kind is PotentialKind.SOFT_CORE and pot.v0 != 0.0:
        v0 = abs(pot.v0)
        n_r = spec.n_r
        a = low_density_amplitude(proto.beta)
        est.append((ln2 / (a * n_r)) ** 2 / v0)
        est.append((2.0 / v0) * math.sqrt(2.0 * ln2 / ((proto.beta + 1) * n_r)))
    elif pot.kind is PotentialKind.BARE_VDW:
        i_unit = _bare_i_tilde_closed(
            math.copysign(1.0, pot.c6), proto.theta, proto.beta
        ).real
        coef = 4.0 * math.pi * spec.density * i_unit / 3.0
        if coef > 0:
            est.append((ln2 / coef) ** 2 / abs(pot.c6))
    if proto.gamma > 0:
        est.append(2.0 * ln2 / proto.gamma)
    if proto.gamma_d > 0:
        est.append(ln2 / proto.gamma_d)
    return [e for e in est if e > 0 and np.isfinite(e)]


def tau_half(spec: GasSpec) -> float:
    """Smallest t with |contrast(t)| = |contrast(0)| / 2, us.

    Probes contrast_gas's default route on a logarithmic grid (25 points
    per decade) seeded by the asymptotic laws until the half level is
    bracketed, then polishes the bracket with brentq to relative accuracy
    well below 1e-6.

    Raises
    ------
    CrossingNotFoundError
        No crossing within the search window; diagnostics carry the
        largest time probed and the contrast ratio there.
    """
    proto = spec.protocol
    c0 = abs(np.sin(proto.theta))
    if c0 == 0.0:
        raise ParameterError("initial contrast vanishes; tau_half undefined")

    def ratio(t: float) -> float:
        return abs(contrast_gas(spec, t)) / c0

    estimates = _tau_scale_estimates(spec)
    if not estimates:
        raise ParameterError(
            "no decay channel at all (no interactions, no dissipation); "
            "the contrast never reaches half"
        )
    lo = min(estimates) * 1e-3
    # estimates are seeds, not bounds, and the true crossing can sit near
    # the largest of them (e.g. dilute gases decay on the slow scale)
    hi = max(estimates) * 1e2
    for _ in range(4):
        if ratio(lo) > 0.5:
            break
        lo *= 1e-2
    else:
        raise CrossingNotFoundError(
            "contrast already below half at the smallest probed time",
            diagnostics={"t_min": lo, "ratio": ratio(lo)},
        )
    grid = np.geomspace(lo, hi, int(25 * math.log10(hi / lo)) + 2)
    t_prev, r_prev = grid[0], ratio(grid[0])
    for t in grid[1:]:
        r = ratio(t)
        if r_prev > 0.5 >= r:
            return float(
                brentq(
                    lambda tt: ratio(tt) - 0.5,
                    t_prev,
                    t,
                    xtol=1e-12 * t,
                    rtol=1e-10,
                )
            )
        t_prev, r_prev = t, r
    raise CrossingNotFoundError(
        "contrast did not reach half within the search window",
        diagnostics={"max_time": float(hi), "ratio_at_max": float(r_prev)},
    )
