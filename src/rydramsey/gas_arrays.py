"""Array forms of the disorder-average exponent of :mod:`rydramsey.gas_average`.

:func:`_exponent_integral_many` evaluates I(t) at every time of a 1-D
array by each route of ``gas_average.exponent_integral``: the Bessel
closed form and the spectral midpoint rule of the soft-core potential,
with its Taylor branch, and the erf/Dawson form of the bare one. Every
array operation is the one the scalar kernel in gas_average applies to a
single time, so the two agree bit for bit except where
:func:`_exponent_integral_many` says otherwise. The scalar kernels stay in
gas_average, which tau_half's probes and every float time use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParameterError
from .gas_average import (
    _ABS_TOL,
    _H_HANKEL,
    _H_SERIES,
    _HALF_I_EXP,
    _HANKEL_C0,
    _HANKEL_C1,
    _I_POW,
    _INV_FACT,
    _J_N,
    _NODE_CHUNK,
    _ORDERS,
    _REL_TOL,
    _T_TAYLOR,
    _TAYLOR_MAX,
    GasSpec,
    _bare_i_tilde,
    _j01,
    _midpoint_order,
    _soft_core_h,
)
from .potential import PotentialKind

# Terms of the J0/J1 power series that _j01_many evaluates at once: at
# h < _H_SERIES the 17th term is below 1.5e-19, so every element stops
# within them.
_SERIES_TERMS = 18

# Terms of the series for a_{n-1} that _taylor_moments_many evaluates at
# once: at g <= n <= _TAYLOR_MAX the loop of _taylor_moments adds at most 40
# terms after its first (at g = n = _TAYLOR_MAX; fewer at smaller g or n).
_MOMENT_TERMS = 41

# Times that _exponent_integral_many evaluates at once: the Taylor branch
# holds about 200 floats of temporaries per time (its moment series, orders
# and coefficients), so a grid of MAX_FIG5_POINTS = 1e5 Taylor times would
# take about 170 MB at once, and peaks near 8 MB in chunks of this size.
_TIME_CHUNK = 2**12

# An array step of Miller's recurrence costs about as much as this many
# scalar element-steps: _j01_many runs the array steps only where the
# elements' scalar steps add up to more.
_MILLER_BATCH = 16

_INV_FACT_ARRAY = np.array(_INV_FACT)
# T[m, k] = (i/2)^(k-m) / (k-m)! for k >= m: a row times T is the convolution
# of _kernel_taylor, for _soft_core_taylor_many
_HALF_I_TOEPLITZ = np.triu(_HALF_I_EXP[np.abs(np.subtract.outer(np.arange(_TAYLOR_MAX), np.arange(_TAYLOR_MAX)))])
# _HANKEL_C0 and _HANKEL_C1 as real rows (Re a_0, Im a_0, Re a_1, Im a_1)
# of Horner's steps, for _k_bessel_many
_HANKEL_ROWS = np.array([part for cs in (_HANKEL_C0, _HANKEL_C1) for part in (np.real(cs), np.imag(cs))])


def _exponent_integral_many(spec: GasSpec, times: np.ndarray) -> np.ndarray:
    """:func:`exponent_integral` at each time of a 1-D float array.

    The array form of every route, which never calls exponent_integral
    itself (the scalar form stays the one tau_half's probes call).
    It is bit-identical to the scalar calls except in two places: the
    soft-core Taylor branch (:func:`_soft_core_taylor_many`), within a few
    ulps of |I|, and a midpoint rule longer than _NODE_CHUNK nodes (|V0 t|
    above about 2e3), summed chunk by chunk, which moves it by a few ulps.
    The bare potential at gamma > 0 goes element by element, since
    math.erf has no numpy form. Times are evaluated _TIME_CHUNK at a time;
    every route treats each time on its own, so this changes no bit.
    """
    if times.size > _TIME_CHUNK:
        return np.concatenate([
            _exponent_integral_many(spec, times[k : k + _TIME_CHUNK]) for k in range(0, times.size, _TIME_CHUNK)
        ])
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


def _soft_core_taylor_many(t_abs: np.ndarray, g: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """The Taylor branch of :func:`_soft_core_i_over_nr` at each (|T|, g),
    |T| <= _T_TAYLOR, before the conjugation that negative T takes.

    Each element keeps its own order (:func:`_taylor_order`, its loop as a
    cumulative product) and moments (:func:`_taylor_moments_many`), both
    bit-identical to the scalar ones. Where the scalar form then calls
    numpy's convolve and dot, which run through BLAS in an order an array
    form cannot reproduce, the convolution is summed a row at a time and
    the series in T as a reduction over its axis (not einsum, whose first
    call adds about 2 MB of resident memory): the value agrees with the
    scalar one to a few ulps of |I|, not bit for bit.
    """
    size = t_abs.size
    # orders: the scalar loop's tails pi x^3/6 * prod x/(n+1), n = 3, 4, ...
    x = 1.5 * t_abs
    tails = np.empty((size, _TAYLOR_MAX - 1))
    tails[:, 0] = [math.pi * v**3 / 6.0 for v in x.tolist()]
    tails[:, 1:] = x[:, None] / np.arange(4.0, _TAYLOR_MAX + 2.0)
    above = np.cumprod(tails, axis=1) > (2.0**-53 * t_abs * t_abs / 8.0)[:, None]
    n = 2 + np.logical_and.accumulate(above, axis=1).sum(axis=1)

    a = _taylor_moments_many(g, n)

    if beta == 1:
        c = math.sin(theta / 2.0) ** 2 * _I_POW[1:] * a
    else:
        q = math.cos(theta / 2.0) ** 2
        # the convolution of (-i)^m a_m with (i/2)^k / k!, summed over m
        # a Toeplitz row at a time (no (size, N, N) temporary)
        x = np.conj(_I_POW[:-1]) * a
        conv = np.zeros_like(x)
        for m in range(_TAYLOR_MAX):
            conv += x[:, m : m + 1] * _HALF_I_TOEPLITZ[m]
        c = _HALF_I_EXP[1:] - 1j * q * conv
        one_minus_e = np.array([-math.expm1(-v) for v in g.tolist()])
        c[:, 0] = 0.5j * (2.0 * q * (one_minus_e - g * a[:, 1]) - math.cos(theta))
    c[np.arange(_TAYLOR_MAX) >= n[:, None]] = 0.0
    return -(c * (t_abs[:, None] ** _ORDERS * _J_N)).sum(axis=1)


def _taylor_moments_many(g: np.ndarray, n: np.ndarray) -> np.ndarray:
    """:func:`_taylor_moments` at each (g, n) of two arrays, as the rows of
    a (size, _TAYLOR_MAX) array; a row's columns from n on are finite and
    unused.

    The scalar form's operations, so bit-identical, with the exponentials
    from math, element by element. Where g <= n, the series for a_{n-1}
    as a cumulative product and sum over _MOMENT_TERMS columns, cut at the
    term where the scalar loop stops, then the downward recurrence as
    masked steps; where g > n, the upward recurrence from a_0.
    """
    e = np.array([math.exp(-v) for v in g.tolist()])
    a = np.zeros((g.size, _TAYLOR_MAX))
    low = g <= n
    if low.any():
        gl, nl, el = g[low], n[low], e[low]
        rows = np.arange(gl.size)
        # the series' terms 1/n!, then times g/(n+1), g/(n+2), ..., and
        # its partial sums, accumulated in the loop's order
        steps = np.empty((gl.size, _MOMENT_TERMS))
        steps[:, 0] = _INV_FACT_ARRAY[nl]
        steps[:, 1:] = gl[:, None] / (nl[:, None] + np.arange(1, _MOMENT_TERMS))
        terms = np.cumprod(steps, axis=1)
        totals = np.cumsum(terms, axis=1)
        last = np.argmax(terms <= 2**-54 * totals, axis=1)  # the loop's last term
        al = np.zeros((gl.size, _TAYLOR_MAX))
        al[rows, nl - 1] = el * totals[rows, last]
        for m in range(_TAYLOR_MAX - 2, -1, -1):
            al[:, m] = np.where(m <= nl - 2, el * _INV_FACT[m + 1] + gl * al[:, m + 1], al[:, m])
        a[low] = al
    if not low.all():
        high = ~low
        gh, eh = g[high], e[high]
        ah = np.empty((_TAYLOR_MAX, gh.size))
        ah[0] = np.array([-math.expm1(-v) for v in gh.tolist()]) / gh
        for m in range(1, _TAYLOR_MAX):
            ah[m] = (ah[m - 1] - eh * _INV_FACT[m]) / gh
        a[high] = ah.T
    return a


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

    The Taylor branch (|T| <= _T_TAYLOR) is :func:`_soft_core_taylor_many`.
    Each other time keeps its own M; the nodes of consecutive times are
    evaluated together in chunks of at most _NODE_CHUNK, and a rule longer
    than a chunk is summed chunk by chunk. Every elementwise operation is
    the scalar form's, so a rule of at most _NODE_CHUNK nodes gives its
    value bit for bit; a longer one differs from it only in the order of
    its sum.

    Raises NumericalError, as the scalar form does, at the first time
    whose two rules disagree.
    """
    t_abs = np.abs(T)
    taylor = t_abs <= _T_TAYLOR
    if taylor.any():
        out = np.empty(T.size, dtype=complex)
        total = _soft_core_taylor_many(t_abs[taylor], g[taylor], theta, beta)
        out[taylor] = np.where(T[taylor] >= 0, total, total.conj())
        if not taylor.all():
            out[~taylor] = _soft_core_quadrature_many(T[~taylor], g[~taylor], theta, beta)
        return out
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
    return np.where(T >= 0, total, total.conj())


def _j01_many(h: np.ndarray) -> tuple:
    """:func:`_j01` at each element of a float array in [0, _H_HANKEL).

    The same operations on real arrays, so bit-identical. The series terms
    of every element are one cumulative product over _SERIES_TERMS columns,
    masked after the term at which the scalar loop stops, and summed in
    the loop's order. Miller's recurrence starts each element at its own
    order: the elements are sorted by it, and each step updates the prefix
    that has started. A step costs a numpy call per operation, so where
    the elements' recurrences are short or few they run the scalar one.
    """
    j0, j1 = np.empty_like(h), np.empty_like(h)
    small = h < _H_SERIES
    if small.any():
        hs = h[small]
        k = np.arange(1, _SERIES_TERMS + 1)
        terms = np.cumprod((-0.25 * hs * hs)[:, None] / (k * k), axis=1)
        added = np.ones(terms.shape, dtype=bool)  # the loop adds a term, then tests it
        added[:, 1:] = np.logical_and.accumulate(np.abs(terms[:, :-1]) > 1e-17, axis=1)
        series = np.ones((2, hs.size, _SERIES_TERMS + 1))
        series[0, :, 1:] = np.where(added, terms, 0.0)
        series[1, :, 1:] = series[0, :, 1:] / (k + 1)
        j0[small], j1[small] = np.cumsum(series, axis=2)[:, :, -1]
        j1[small] *= 0.5 * hs
    big = np.flatnonzero(~small)
    hb = h[big]
    start = 2 * (0.5 * (hb + np.sqrt(40.0 * (hb + 10.0)))).astype(np.int64)
    if start.sum() <= _MILLER_BATCH * start.max(initial=0):
        for i in big.tolist():
            j0[i], j1[i] = _j01(float(h[i]))
        return j0, j1
    order = np.argsort(-start, kind="stable")
    start, r = start[order], 2.0 / hb[order]
    even, odd, total = np.ones(hb.size), np.zeros(hb.size), np.zeros(hb.size)
    steps = np.arange(start[0], 0, -2)
    started = np.searchsorted(-start, -steps, side="right")  # elements at or above each step
    k_r = np.multiply.outer(steps, r)  # k r of each step, then (k - 1) r
    k1_r = np.multiply.outer(steps - 1, r)
    buf = np.empty(hb.size)
    n_prev = -1
    for i, n in enumerate(started.tolist()):
        if n != n_prev:
            e, o, t, tmp, n_prev = even[:n], odd[:n], total[:n], buf[:n], n
        t += e
        np.subtract(np.multiply(k_r[i, :n], e, out=tmp), o, out=o)
        np.subtract(np.multiply(k1_r[i, :n], o, out=tmp), e, out=e)
    norm = 2.0 * total + even
    j0[big[order]] = even / norm
    j1[big[order]] = odd / norm
    return j0, j1


def _k_bessel_many(y: np.ndarray) -> np.ndarray:
    """:func:`_k_bessel` at each element of a float array.

    The same operations, with every complex product and quotient written
    out on real arrays as Python's complex arithmetic evaluates it (numpy's
    complex multiply may fuse a product and a sum), so bit-identical.
    """
    h = np.abs(y) / 2.0
    re, im = np.empty_like(h), np.empty_like(h)
    near = h < _H_HANKEL
    if near.any():
        hn = h[near]
        j0, j1 = _j01_many(hn)
        phase = np.exp(1j * hn)
        pc, ps = -math.pi * hn * phase.real, -math.pi * hn * phase.imag
        re[near] = pc * j1 - ps * j0
        im[near] = pc * j0 + ps * j1
    far = ~near
    if far.any():
        hf = h[far]
        a = np.zeros((4, hf.size))  # Re a_0, Im a_0, Re a_1, Im a_1
        for c in _HANKEL_ROWS.T:
            a = a / hf + c[:, None]
        a0r, a0i, a1r, a1i = a / np.sqrt(hf)
        e2 = np.exp(2j * hf)
        cr, ci = e2.real, e2.imag
        scale = -0.5 * math.pi * hf
        re[far] = scale * (a1r * cr - a1i * ci + a1r - (a0r * ci + a0i * cr - a0i))
        im[far] = scale * (a1r * ci + a1i * cr - a1i + (a0r * cr - a0i * ci + a0r))
    out = np.empty(h.size, dtype=complex)
    out.real, out.imag = re, np.where(y >= 0, im, -im)
    return out


def _soft_core_closed_many(T: np.ndarray, theta: float, beta: int) -> np.ndarray:
    """:func:`_soft_core_i_over_nr_closed` at each element of a float array."""
    pu = np.sin(theta / 2.0) ** 2
    pd = np.cos(theta / 2.0) ** 2
    if beta == 1:
        return pu * _k_bessel_many(T)
    k = _k_bessel_many(T / 2.0)
    return pu * k + pd * k.conj()
