"""Array form of the disorder-average exponent of :mod:`rydramsey.gas_average`.

Two callers evaluate many times at once. :func:`_exponent_integral_many`
evaluates I(t) of one gas at every time of a 1-D array, for the curves of
fig2, fig3 and fig5 (``contrast_gas`` with an array t) and the hard-core
fit. :func:`_soft_core_contrast_many` evaluates the contrast of many
soft-core gases of one potential and protocol, each at its own time, for
the rounds of :func:`_tau_half_table`: the pending probe of every N_R of
a fig3 or scan tau_1/2 table. Both take the routes of
``gas_average.exponent_integral``. The spectral midpoint rule of the
soft-core potential, the one route where evaluating many times at once
pays, sorts its times by node count and sums their short rules in
batches (:func:`_batch_sums`), with the elementwise operations and
pairwise sums of the float rule, ``gas_average._midpoint_sums``, which
also takes each long rule. The Bessel closed form, the Taylor branch and the bare
erf/Dawson form call their scalar kernels in gas_average a time at a
time. So the array and scalar forms agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import gas_average
from .errors import ParameterError
from .gas_average import (
    _ABS_TOL,
    _NODE_CHUNK,
    _REL_TOL,
    _T_TAYLOR,
    GasSpec,
    _bare_i_tilde,
    _k_bessel,
    _midpoint_cos2,
    _midpoint_error,
    _midpoint_order,
    _midpoint_sums,
    _soft_core_i_over_nr,
    _tau_walk,
    contrast_gas,
)
from .ising_core import RamseyProtocol, _envelope
from .potential import InteractionPotential, PotentialKind


def _exponent_integral_many(spec: GasSpec, times: np.ndarray) -> np.ndarray:
    """:func:`exponent_integral` at each time of a 1-D float array,
    bit-identical to the scalar calls, which it never makes."""
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
    live = times > 0.0
    if pot.kind is PotentialKind.SOFT_CORE:
        if live.any():
            out[live] = spec.n_r * _soft_core_over_nr_many(pot, spec.protocol, times[live], g[live])
        return out
    pref = 4.0 * math.pi * spec.density * np.sqrt(abs(pot.c6) * times[live]) / 3.0
    s = math.copysign(1.0, pot.c6)
    if gamma == 0.0:
        out[live] = pref * _bare_i_tilde(s, 0.0, th, beta)
    else:
        out[live] = pref * np.array([_bare_i_tilde(s, g_k, th, beta) for g_k in g[live].tolist()])
    return out


def _soft_core_over_nr_many(pot, proto, times: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I / N_R of a soft-core gas at each time t > 0 of a float array, with
    g = gamma t: the Bessel closed form where g = 0, the midpoint rule
    (or its Taylor branch) where g > 0."""
    th, beta = proto.theta, proto.beta
    out = np.empty(times.size, dtype=complex)
    closed = g == 0.0
    if closed.any():
        out[closed] = _soft_core_closed_many(pot.v0 * times[closed], th, beta)
    if not closed.all():
        quad = ~closed
        out[quad] = _soft_core_quadrature_many(pot.v0 * times[quad], g[quad], th, beta)
    return out


def _soft_core_contrast_many(pot, proto, n_r: np.ndarray, times: np.ndarray) -> np.ndarray:
    """contrast_gas of the soft-core gases of blockade numbers n_r, each at
    its own time t > 0 (two float arrays of one size), under one potential
    and protocol: sin(theta) D e^{-gamma_d t} exp(-N_R K(V0 t, gamma t)).

    Each element equals the float call ``contrast_gas(spec, t)`` of its gas
    bit for bit, spec.n_r being its N_R. Nothing checks t or g = gamma t
    for overflow: a caller that needs the float calls' errors runs this
    under np.errstate(over="raise").
    """
    k = _soft_core_over_nr_many(pot, proto, times, proto.gamma * times)
    return _envelope(proto, times) * np.exp(-(n_r * k))


def _soft_core_quadrature_many(T: np.ndarray, g: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """:func:`_soft_core_i_over_nr` at each (T, g) of two float arrays, g > 0.

    A time of the Taylor branch (|T| <= _T_TAYLOR) is a scalar call. The
    other times are sorted by M (a stable sort of a plain list: np.unique's
    first call costs 1.6 MB of RSS) and cut into the batches of
    :func:`_midpoint_batches`: the short rules go through
    :func:`_batch_sums`, a long one alone through :func:`_midpoint_sums`,
    so every time equals the scalar form bit for bit.

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
    m = [_midpoint_order(t) for t in t_abs.tolist()]
    fine = np.empty(T.size, dtype=complex)
    coarse = np.empty(T.size, dtype=complex)
    for rows in _midpoint_batches(m):
        first = rows[0]
        if 3 * m[first] > _NODE_CHUNK:  # a long rule, alone
            fine[first], coarse[first] = _midpoint_sums(
                float(t_abs[first]), float(g[first]), m[first], theta, beta
            )
        else:
            fine[rows], coarse[rows] = _batch_sums(t_abs[rows], g[rows], [m[k] for k in rows], theta, beta)
    m = np.array(m)
    total = fine * (t_abs * math.pi / (6 * m))
    err = np.abs(total - coarse * (t_abs * math.pi / (2 * m)))
    bad = np.flatnonzero(err > np.maximum(_REL_TOL * np.abs(total), _ABS_TOL))
    if bad.size:
        k = bad[0]
        raise _midpoint_error(err[k], total[k], m[k], T[k], g[k])
    out[~taylor] = np.where(T >= 0, total, total.conj())
    return out


def _batch_sums(t_abs: np.ndarray, g: np.ndarray, m: list, theta: float, beta: int) -> tuple:
    """:func:`_midpoint_sums` of k times whose rules hold at most
    _NODE_CHUNK nodes in all, as two complex arrays; ``m`` lists their M
    in ascending order.

    One ``_soft_core_h`` call evaluates every node, the rules laid end to
    end: each run of equal M fills its (rows, 3M) block of x = |T| cos^2 phi
    and of g by broadcasting, so the elementwise operations are a float
    call's. Each block is summed along its rows, which takes the pairwise
    sums of one rule alone. On the default sweeps one call holds a fig2
    curve's 20 or so consecutive times, or the rules of a whole round of a
    tau_1/2 table.
    """
    blocks, start, row = [], 0, 0
    while row < len(m):
        rows = m.count(m[row])  # m is sorted: one run holds every time of its M
        blocks.append((row, rows, start, 3 * m[row]))
        start += rows * 3 * m[row]
        row += rows
    x, g_nodes = np.empty(start), np.empty(start)
    for row, rows, start, size in blocks:
        end = start + rows * size
        np.multiply(t_abs[row : row + rows, None], _midpoint_cos2(size // 3), out=x[start:end].reshape(rows, size))
        g_nodes[start:end].reshape(rows, size)[...] = g[row : row + rows, None]
    vals = gas_average._soft_core_h(x, g_nodes, theta, beta)
    fine, coarse = [], []
    for row, rows, start, size in blocks:
        block = vals[start : start + rows * size].reshape(rows, size)
        fine.append(block.sum(axis=-1))
        coarse.append(block[:, 1::3].sum(axis=-1))
    return np.concatenate(fine), np.concatenate(coarse)


def _midpoint_batches(m: list):
    """Lists of the indices of midpoint orders ``m``, in ascending M: the
    short rules of at most _NODE_CHUNK nodes in all, for one
    :func:`_batch_sums` call, or one longer rule alone."""
    batch, nodes = [], 0
    for k in sorted(range(len(m)), key=m.__getitem__):
        size = 3 * m[k]
        if batch and nodes + size > _NODE_CHUNK:
            yield batch
            batch, nodes = [], 0
        batch.append(k)
        nodes += size
    if batch:
        yield batch


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


def _tau_half_table(pot: InteractionPotential, proto: RamseyProtocol, nr_values) -> list:
    """``[tau_half(GasSpec.from_blockade_number(n_r, pot, proto)) for n_r in
    nr_values]``, bit for bit and error for error, with the walks of
    ``gas_average._tau_walk`` advanced in lockstep.

    Each round answers the pending probe of every live walk with one array
    evaluation, :func:`_soft_core_contrast_many`
    (I = N_R K(V0 t, gamma t), N_R per walk), which equals the float
    contrast_gas calls bit for bit; each ratio is Python's abs of the
    complex contrast over |sin theta|, as tau_half takes it (np.abs can
    differ in the last bit). A round whose array evaluation raises, or
    meets a floating-point overflow, invalid operation or division by
    zero, answers its probes with float contrast_gas calls instead, so each
    walk meets the error or warning its tau_half call meets. A walk that
    fails (its GasSpec, its window, a probe or its polish) records its
    error and the walks after it stop; once the walks before it have ended,
    that error is raised, as the sequential loop raises it.
    """
    c0 = float(abs(np.sin(proto.theta)))
    taus = [math.nan] * len(nr_values)
    walks = {}  # index -> [spec, N_R, walk, pending probe time], in index order
    errors = {}

    def advance(k: int, ratio) -> None:
        entry = walks[k]
        try:
            entry[3] = entry[2].send(ratio)
            return
        except StopIteration as stop:
            taus[k] = stop.value
        except Exception as exc:
            errors[k] = exc
        del walks[k]

    for k, n_r in enumerate(nr_values):
        try:
            spec = GasSpec.from_blockade_number(n_r, pot, proto)
        except Exception as exc:
            errors[k] = exc
            break
        walks[k] = [spec, spec.n_r, _tau_walk(spec), None]
        advance(k, None)
        if errors:
            break
    while walks:
        pending = list(walks.items())
        n_r = np.array([w[1] for _, w in pending])
        times = np.array([w[3] for _, w in pending])
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                contrast = _soft_core_contrast_many(pot, proto, n_r, times)
            ratios = [abs(c) / c0 for c in contrast.tolist()]
        except Exception:
            ratios = None
        for j, (k, (spec, _, _, t)) in enumerate(pending):
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
