"""Array form of the disorder-average exponent of :mod:`rydramsey.gas_average`.

:func:`_exponent_integral_many` evaluates I(t) at every time of a 1-D
array by the routes of ``gas_average.exponent_integral``. Only the
spectral midpoint rule of the soft-core potential has an array form
here, the one route where evaluating many times at once pays on the
default sweeps: it applies the scalar rule's operations to the nodes of
many times together. The Bessel closed form, the Taylor branch and the
bare erf/Dawson form call their scalar kernels in gas_average a time at
a time. So the array and scalar forms agree bit for bit, except where
:func:`_exponent_integral_many` says otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParameterError
from .gas_average import (
    _ABS_TOL,
    _NODE_CHUNK,
    _REL_TOL,
    _T_TAYLOR,
    GasSpec,
    _bare_i_tilde,
    _k_bessel,
    _midpoint_order,
    _soft_core_h,
    _soft_core_i_over_nr,
)
from .potential import PotentialKind


def _exponent_integral_many(spec: GasSpec, times: np.ndarray) -> np.ndarray:
    """:func:`exponent_integral` at each time of a 1-D float array.

    It never calls exponent_integral itself (the scalar form stays the one
    tau_half's probes call). It is bit-identical to the scalar calls
    except for a midpoint rule longer than _NODE_CHUNK nodes (|V0 t| above
    about 2e3), summed chunk by chunk, which moves it by a few ulps.
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


def _midpoint_sums(pieces: list, t_abs, g, m, theta: float, beta: int, fine, coarse) -> None:
    """Add the sums of h over nodes of the midpoint rules of
    :func:`_soft_core_i_over_nr` into ``fine`` (all 3M nodes) and
    ``coarse`` (every third node from node 1, the M-point rule).

    ``pieces`` lists (row, first node, node count), first a multiple of 3,
    each row at most once (a piece of a longer rule fills a chunk alone).
    The nodes of all pieces are evaluated as one flat array, by the scalar
    rule's operations. Each run of consecutive pieces of one length is then
    summed as the rows of a 2-D view, which numpy sums row by row with the
    same pairwise summation as the scalar rule's ``vals.sum()``.
    """
    rows, first, count = (np.array(col) for col in zip(*pieces))
    starts = np.cumsum(count) - count
    node = np.arange(count.sum()) - np.repeat(starts - first, count)  # k of each phi_k
    phi = (node + 0.5) * np.repeat(math.pi / (6 * m[rows]), count)
    vals = _soft_core_h(np.repeat(t_abs[rows], count) * np.cos(phi) ** 2, np.repeat(g[rows], count), theta, beta)
    run = 0  # first piece of the current run
    for j in range(1, rows.size + 1):
        if j < rows.size and count[j] == count[run]:
            continue
        block = vals[starts[run] : starts[j - 1] + count[j - 1]].reshape(j - run, count[run])
        fine[rows[run:j]] += np.add.reduce(block, axis=1)
        coarse[rows[run:j]] += np.add.reduce(block[:, 1::3], axis=1)
        run = j


def _soft_core_quadrature_many(T: np.ndarray, g: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """:func:`_soft_core_i_over_nr` at each (T, g) of two float arrays, g > 0.

    A time of the Taylor branch (|T| <= _T_TAYLOR) is a scalar call. Each
    other time keeps its own M; the nodes of consecutive times are
    evaluated together in chunks of at most _NODE_CHUNK, and a rule longer
    than a chunk is summed chunk by chunk. Every elementwise operation is
    the scalar form's, so a rule of at most _NODE_CHUNK nodes gives its
    value bit for bit; a longer one differs from it only in the order of
    its sum.

    Raises NumericalError, as the scalar form does, at the first time
    whose two rules disagree.
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
    m = np.array([_midpoint_order(t) for t in t_abs.tolist()], dtype=np.int64)
    fine = np.zeros(T.size, dtype=complex)
    coarse = np.zeros(T.size, dtype=complex)
    pieces, filled = [], 0
    for r, nodes in enumerate((3 * m).tolist()):
        for first in range(0, nodes, _NODE_CHUNK):
            count = min(_NODE_CHUNK, nodes - first)
            if filled + count > _NODE_CHUNK:
                _midpoint_sums(pieces, t_abs, g, m, theta, beta, fine, coarse)
                pieces, filled = [], 0
            pieces.append((r, first, count))
            filled += count
    if pieces:
        _midpoint_sums(pieces, t_abs, g, m, theta, beta, fine, coarse)
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
