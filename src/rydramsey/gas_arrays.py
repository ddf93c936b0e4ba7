"""Array form of the disorder-average exponent of :mod:`rydramsey.gas_average`.

:func:`_exponent_integral_many` evaluates I(t) at every time of a 1-D
array by the routes of ``gas_average.exponent_integral``. The spectral
midpoint rule of the soft-core potential, the one route where evaluating
many times at once pays on the default sweeps, groups its times by node
count and sums each group's rules with ``gas_average._midpoint_sums``, the
code that a scalar call runs. The Bessel closed form, the Taylor branch
and the bare erf/Dawson form call their scalar kernels in gas_average a
time at a time. So the array and scalar forms agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .gas_average import (
    _ABS_TOL,
    _NODE_CHUNK,
    _REL_TOL,
    _T_TAYLOR,
    GasSpec,
    _bare_i_tilde,
    _k_bessel,
    _midpoint_error,
    _midpoint_order,
    _midpoint_sums,
    _soft_core_i_over_nr,
)
from .potential import PotentialKind


def _exponent_integral_many(spec: GasSpec, times: np.ndarray) -> np.ndarray:
    """:func:`exponent_integral` at each time of a 1-D float array.

    It never calls exponent_integral itself (the scalar form stays the one
    tau_half's probes call). It is bit-identical to the scalar calls.
    """
    out = np.zeros(times.size, dtype=complex)  # t = 0 gives 0 exactly
    if not times.size:
        return out
    if not (times.min() >= 0.0 and times.max() < math.inf):  # nan fails too
        bad = times[~((times >= 0.0) & (times < math.inf))][0]
        raise ParameterError(f"exponent integral is defined for finite t >= 0, got {float(bad)!r}")
    th, beta = spec.protocol.theta, spec.protocol.beta
    gamma = spec.protocol.gamma
    with np.errstate(over="ignore"):  # as Python floats do; inf is refused next
        g = gamma * times
    if g.max() == math.inf:
        t = float(times[g == math.inf][0])
        raise ParameterError(f"g = gamma*t overflows float64 at gamma = {gamma!r}, t = {t!r}")
    pot = spec.potential
    if pot.kind is PotentialKind.SOFT_CORE:
        closed = (times > 0.0) & (g == 0.0)
        if closed.any():
            out[closed] = spec.n_r * _soft_core_closed_many(pot.v0 * times[closed], th, beta)
        quad = g > 0.0
        if quad.any():
            out[quad] = spec.n_r * _soft_core_quadrature_many(pot.v0 * times[quad], g[quad], th, beta)
        return out
    live = times > 0.0
    pref = 4.0 * math.pi * spec.density * np.sqrt(abs(pot.c6) * times[live]) / 3.0
    s = math.copysign(1.0, pot.c6)
    if gamma == 0.0:
        out[live] = pref * _bare_i_tilde(s, 0.0, th, beta)
    else:
        out[live] = pref * np.array([_bare_i_tilde(s, g_k, th, beta) for g_k in g[live].tolist()])
    return out


def _soft_core_quadrature_many(T: np.ndarray, g: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """:func:`_soft_core_i_over_nr` at each (T, g) of two float arrays, g > 0.

    A time of the Taylor branch (|T| <= _T_TAYLOR) is a scalar call. The
    other times are grouped by M, in a plain dict (np.unique's first call
    costs 1.6 MB of RSS), and each group goes through :func:`_midpoint_sums`
    in row blocks of about _NODE_CHUNK nodes, so every time equals the
    scalar form bit for bit.

    Raises NumericalError, as the scalar form does, at the first time (in
    array order) whose two rules disagree.
    """
    out = np.empty(T.size, dtype=complex)
    taylor = np.abs(T) <= _T_TAYLOR
    if taylor.any():
        pairs = zip(T[taylor].tolist(), g[taylor].tolist())
        out[taylor] = [_soft_core_i_over_nr(t, g_k, theta, beta) for t, g_k in pairs]
        if taylor.all():
            return out
        T, g = T[~taylor], g[~taylor]
    t_abs = np.abs(T)
    groups = {}
    for k, t in enumerate(t_abs.tolist()):
        groups.setdefault(_midpoint_order(t), []).append(k)
    m = np.empty(T.size, dtype=np.int64)
    fine = np.empty(T.size, dtype=complex)
    coarse = np.empty(T.size, dtype=complex)
    for m_k, rows in groups.items():
        m[rows] = m_k
        step = max(1, _NODE_CHUNK // (3 * m_k))
        for first in range(0, len(rows), step):
            r = rows[first : first + step]
            fine[r], coarse[r] = _midpoint_sums(t_abs[r, None], g[r, None], m_k, theta, beta)
    total = fine * (t_abs * math.pi / (6 * m))
    err = np.abs(total - coarse * (t_abs * math.pi / (2 * m)))
    bad = np.flatnonzero(err > np.maximum(_REL_TOL * np.abs(total), _ABS_TOL))
    if bad.size:
        k = bad[0]
        raise _midpoint_error(err[k], total[k], m[k], T[k], g[k])
    out[~taylor] = np.where(T >= 0, total, total.conj())
    return out


def _soft_core_closed_many(T: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """:func:`_soft_core_i_over_nr_closed` at each element of a float array,
    from the scalar :func:`_k_bessel` a time at a time. A real factor times
    a complex value rounds each part once, so this equals the scalar form
    bit for bit."""
    pu = np.sin(theta / 2.0) ** 2
    pd = np.cos(theta / 2.0) ** 2
    if beta == 1:
        return pu * np.array([_k_bessel(y) for y in T.tolist()])
    k = np.array([_k_bessel(y) for y in (T / 2.0).tolist()])
    return pu * k + pd * k.conj()
