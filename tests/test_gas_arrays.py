"""Batch invariance of the gas exponent: many times in one call against
one-time calls.

``gas_average._exponent_integral_many`` evaluates I(t) over an array of
times by each route of ``exponent_integral``, and a float call is its
evaluation of a one-element array; the rounds of the tau_1/2 tables call
its routes function, ``_exponent_routes``, directly. A time's value must not depend on the
other times of the call, so an array equals the one-time calls bit for
bit on every route, midpoint rules longer than one chunk of nodes
included. The independent references (frozen values, scipy kernels, the
Bessel closed form, Monte Carlo) are in ``test_gas.py``.
"""

import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rydramsey import cli, experiments, gas_average
from rydramsey.config import load_config
from rydramsey.errors import CapacityError, NumericalError, ParameterError
from rydramsey.gas_average import (
    GasSpec,
    _envelope,
    _exponent_integral_many,
    contrast_gas,
    exponent_integral,
    tau_half,
)
from rydramsey.ising_core import RamseyProtocol
from rydramsey.potential import DressingParams, PotentialKind, derive_potential

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

def soft_core(sign=1.0):
    """A soft-core potential with V0 = sign rad/us and r_c = 1 um."""
    return derive_potential(
        DressingParams(1000.0, sign * 5000.0, -sign * 1.0e4), PotentialKind.SOFT_CORE
    )


def bare(c6):
    return derive_potential(DressingParams(0.0, 0.0, c6), PotentialKind.BARE_VDW)


def exponents(spec, times):
    """The array form of the gas of spec at each time of an array."""
    return _exponent_integral_many(spec.potential, spec.protocol, spec.density, times)


def scalar_exponents(spec, times):
    return np.array([exponent_integral(spec, float(t)) for t in times])


def assert_array_form(spec, times):
    """Bit equality on every route."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = exponents(spec, np.asarray(times, float))
        want = scalar_exponents(spec, times)
    assert got.dtype == complex and got.shape == (len(times),)
    assert np.array_equal(got, want)


def boundary_times(edges):
    """t = 0 and, at V0 = 1, each edge T with its two neighbouring floats."""
    out = [0.0]
    for edge in edges:
        out += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, math.inf))]
    return out


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("theta", [0.4, math.pi / 2])
def test_unitary_soft_core_array_is_bit_identical(sign, echo, theta):
    # one block across the series/Miller (h = 4) and Miller/Hankel
    # (h = 100) switches of K(y), h = |V0 t|/2 without echo and /4 with
    sp = GasSpec.from_blockade_number(0.7, soft_core(sign), RamseyProtocol(theta, echo, 0.0, 0.1))
    edges = [8.0, 16.0, 200.0, 400.0]
    times = boundary_times(edges) + [1e-9, 0.3, 3.0, 31.0, 77.0, 1e3, 1e5, 1e12, 1e100]
    assert_array_form(sp, times)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.3, 4.0])
def test_dissipative_soft_core_array_per_route(sign, echo, gamma):
    # one block across the Taylor/spectral switch at |V0 t| = 0.1
    sp = GasSpec.from_blockade_number(0.7, soft_core(sign), RamseyProtocol(1.1, echo, gamma, 0.05))
    times = boundary_times([gas_average._T_TAYLOR]) + [1e-300, 1e-7, 0.03, 0.5, 7.0, 60.0, 900.0]
    assert_array_form(sp, times)


def test_subnormal_gamma_array_per_route():
    # g = gamma t underflows to 0 (closed form) at small t, and is a
    # subnormal g > 0 (Taylor or spectral) at larger t
    for echo in (True, False):
        sp = GasSpec.from_blockade_number(2.0, soft_core(), RamseyProtocol(0.9, echo, 1e-320, 0.0))
        times = [0.0, 1e-10, 0.01, 0.05, 0.2, 3.0, 40.0, 1e3]
        assert (sp.protocol.gamma * np.array(times) == 0.0).any()
        assert_array_form(sp, times)


def nodes_at(t_abs):
    """3M of the midpoint rule at |V0 t| = t_abs, inf past the node cap."""
    try:
        return 3 * gas_average._midpoint_order(t_abs)
    except CapacityError:
        return math.inf


def t_of_nodes(nodes):
    """The smallest |V0 t| (to bisection precision) whose midpoint rule has
    3M = nodes nodes."""
    lo, hi = 0.2, 0.4
    while nodes_at(hi) < nodes:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if nodes_at(mid) < nodes else (lo, mid)
    assert nodes_at(hi) == nodes
    return hi


def three_pieces():
    """The smallest |V0 t| whose rule is three pieces of nodes."""
    return t_of_nodes(2 * gas_average._NODE_CHUNK + 3)


def test_midpoint_rule_pieces():
    # a rule is summed in pieces of at most _NODE_CHUNK nodes, each starting
    # at a multiple of 3, whose nodes _midpoint_cos2 builds by (M, first
    # node); the pieces of a rule of more than one piece are not cached
    chunk = gas_average._NODE_CHUNK
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, True, 0.3, 0.0))
    gas_average._midpoint_cos2.cache_clear()
    t = three_pieces()
    exponent_integral(sp, t)
    m = gas_average._midpoint_order(t)
    firsts = range(0, 3 * m, chunk)
    assert gas_average._midpoint_cos2.cache_info()[:2] == (0, 0)  # hits, misses
    assert len(firsts) == 3
    for first in firsts:
        cached = gas_average._midpoint_cos2(m, first)
        assert not cached.flags.writeable
        k = np.arange(first, min(first + chunk, 3 * m))
        assert np.array_equal(cached, np.sin((k + 0.5) * (math.pi / (6 * m))) ** 2)
    # rules just below, at and just past one and two pieces, among short
    # rules and repeated times, so that batches fill between pieces and a
    # long rule's 3-node tail shares a batch with short rules: every time
    # equals its one-time call, in any order of the call
    long = [t_of_nodes(n) for n in (3_069, 3_072, 3_075, 6_144, 6_147)]
    times = np.array(sorted([0.5, 3.0, 3.0, 7.0, 30.0, 30.0, 30.0, *[400.0] * 4, *long, long[2]]))
    interleaved = np.ravel(np.column_stack([times, times[::-1]]))[: times.size]
    for echo in (True, False):
        sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, echo, 1e-3, 0.0))
        for order in (times, times[::-1], interleaved):
            assert np.array_equal(exponents(sp, order), scalar_exponents(sp, order))


@pytest.mark.parametrize("beta", [0, 1])
def test_midpoint_sums_hold_the_pairwise_bound(beta):
    # each piece of a rule is one segment of np.add.reduceat, whose grouping
    # is not that of the exact sum: every time's fine and coarse sums lie
    # within 2 ceil(log2 n) eps sum|h| of math.fsum over the same node
    # values, real and imaginary parts apart, n the longest piece (Higham,
    # SIAM J. Sci. Comput. 14 (1993) 783: ceil(log2 n) eps for pairwise
    # summation, doubled for numpy's unrolled leaves and the adding of a
    # rule's pieces). |V0 t| = 30 is one piece and three_pieces() three
    chunk, eps = gas_average._NODE_CHUNK, np.finfo(float).eps
    t3 = three_pieces()
    t_abs = np.array([30.0, t3, 7.0, t3, 30.0])
    g = np.array([0.3, 2.0, 0.03, 1e-3, 5.0])
    m = [gas_average._midpoint_order(t) for t in t_abs]
    assert 3 * m[0] <= chunk < 2 * chunk < 3 * m[1]
    fine, coarse = gas_average._midpoint_sums(t_abs, g, m, 1.1, beta)
    for k, (t, g_k, m_k) in enumerate(zip(t_abs, g, m)):
        cos2 = np.sin((np.arange(3 * m_k) + 0.5) * (math.pi / (6 * m_k))) ** 2
        h = gas_average._soft_core_h(t * cos2, np.full(3 * m_k, g_k), 1.1, beta)
        n = min(3 * m_k, chunk)
        for got, nodes, length in ((fine[k], h, n), (coarse[k], h[1::3], n // 3)):
            for part in (np.real, np.imag):
                values = part(nodes)
                bound = 2 * math.ceil(math.log2(length)) * eps * np.abs(values).sum()
                assert abs(part(got) - math.fsum(values.tolist())) <= bound, (t, part)


def test_midpoint_cache_holds_only_one_piece_rules():
    # one call at V0 t = 1e6 (a rule of 245 pieces) builds its pieces
    # through __wrapped__: it adds no entry and evicts none, so the next
    # V0 t = 30 call (a one-piece rule) hits the entry it left
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, True, 1e-3, 0.0))
    assert 3 * gas_average._midpoint_order(30.0) <= gas_average._NODE_CHUNK
    cache = gas_average._midpoint_cos2
    cache.cache_clear()
    short = exponent_integral(sp, 30.0)
    assert cache.cache_info()[:2] == (0, 1)  # hits, misses
    exponent_integral(sp, 1e6)
    assert cache.cache_info()[:2] == (0, 1) and cache.cache_info().currsize == 1
    assert exponent_integral(sp, 30.0) == short
    assert cache.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("c6", [5.0, -1.3e4])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_bare_array_is_bit_identical(c6, echo, gamma):
    sp = GasSpec(0.3, bare(c6), RamseyProtocol(0.7, echo, gamma, 0.0))
    assert_array_form(sp, [0.0, 1e-12, 1e-6, 0.01, 0.5, 3.0, 1e4])


def test_array_form_rejects_what_the_scalar_form_rejects():
    sp = GasSpec.from_blockade_number(1.0, soft_core(), RamseyProtocol(1.0, False, 0.3, 0.0))
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite t >= 0"):
            exponents(sp, np.array([0.5, bad]))
    huge = GasSpec.from_blockade_number(1.0, soft_core(), RamseyProtocol(1.0, False, 1e308, 0.0))
    with pytest.raises(ParameterError, match="overflows"):
        exponents(huge, np.array([0.5, 10.0]))
    assert exponents(sp, np.array([])).shape == (0,)


@pytest.mark.parametrize("pot", [soft_core(), bare(-1.3e4)], ids=["soft_core", "bare"])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_array_form_takes_one_density_per_time(pot, gamma):
    # one density per time, as the rounds of a tau_1/2 table pass it to the
    # routes function: each element equals the one-time call of its own gas
    proto = RamseyProtocol(0.7, True, gamma, 0.0)
    density = np.array([0.3, 2.0, 1e-3, 0.05, 7.0])
    times = np.array([1e-3, 0.05, 3.0, 40.0, 0.5])
    got = gas_average._exponent_routes(pot, proto, density, times, gamma * times)
    want = [exponent_integral(GasSpec(rho, pot, proto), t) for rho, t in zip(density, times)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "pot, gamma",
    [(soft_core(), 0.0), (soft_core(-1.0), 0.0), (soft_core(), 0.2), (bare(-1.3e4), 0.0), (bare(5.0), 0.2)],
    ids=["soft_core_closed", "soft_core_closed_negative_v0", "soft_core_quadrature", "bare", "bare_dissipative"],
)
@pytest.mark.parametrize("echo", [True, False])
def test_density_column_equals_one_call_per_density(pot, gamma, echo):
    # a column of densities gives one row per density, I / N_R evaluated
    # once for all: each row, and the contrast fig3's curves take from it,
    # equals the call at its own density (contrast_gas) bit for bit, on the
    # soft-core closed form (the Hankel branch at |V0 t| = 400 included),
    # the Taylor branch and midpoint rule, and the bare closed form, with
    # t = 0 in the grid
    proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.05)
    times = np.array([0.0, 1e-3, 0.05, 0.3, 3.0, 31.0, 0.0, 77.0, 400.0])
    density = np.array([[0.3], [2.0], [1e-3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _exponent_integral_many(pot, proto, density, times)
        contrast = _envelope(proto, times) * np.exp(-rows)
    assert rows.dtype == complex and rows.shape == (3, times.size)
    for row, curve, (rho,) in zip(rows, contrast, density.tolist()):
        spec = GasSpec(rho, pot, proto)
        assert np.array_equal(row, exponents(spec, times))
        assert np.array_equal(curve, contrast_gas(spec, times))
    assert _exponent_integral_many(pot, proto, density, np.array([])).shape == (3, 0)


def test_fig3_curves_equal_contrast_gas(tmp_path):
    # fig3 evaluates I / N_R once per protocol for both curve densities:
    # its columns equal |contrast_gas| of each gas bit for bit (the CSV
    # holds 17 digits)
    cfg = load_config(str(CONFIGS / "sr_dressed.json"))
    experiments.run_fig3(cfg, str(tmp_path))
    pot = experiments._soft_core_potential(cfg, "the scaling sweep")
    for tag, n_r in (("low", 0.01), ("high", 100.0)):
        rows = np.loadtxt(tmp_path / f"fig3_curve_{tag}.csv", delimiter=",", skiprows=1)
        times = rows[:, 0] / abs(pot.v0)
        for column, echo in ((1, True), (2, False)):
            spec = GasSpec.from_blockade_number(n_r, pot, RamseyProtocol(math.pi / 2, echo, 0.0, 0.0))
            assert np.array_equal(rows[:, column], np.abs(contrast_gas(spec, times)))


@pytest.mark.parametrize("echo", [True, False])
def test_exponent_routes_on_one_route_or_both(echo):
    # a call whose times all take the closed form, all the midpoint rule (or
    # its Taylor branch), or both (gamma > 0 with a time whose gamma t
    # underflows to 0): each element equals the one-time call bit for bit
    pot, density = soft_core(), 0.4
    cases = (
        (0.0, [1e-3, 0.05, 0.3, 3.0, 31.0, 400.0], "closed"),
        (0.2, [1e-3, 0.05, 0.3, 3.0, 31.0, 400.0], "quadrature"),
        (1e-300, [1e-30, 0.05, 3.0, 1e-25, 31.0], "mixed"),
    )
    for gamma, times, route in cases:
        proto = RamseyProtocol(1.1, echo, gamma, 0.0)
        times = np.array(times)
        g = gamma * times
        closed = g == 0.0
        assert route == ("closed" if closed.all() else "quadrature" if not closed.any() else "mixed")
        got = gas_average._exponent_routes(pot, proto, density, times, g)
        want = [gas_average._exponent_routes(pot, proto, density, times[k : k + 1], g[k : k + 1])[0]
                for k in range(times.size)]
        assert got.dtype == complex and np.array_equal(got, want), route
        assert np.array_equal(got, [exponent_integral(GasSpec(density, pot, proto), t) for t in times])


def test_tau_tables_probe_each_time_once(monkeypatch, tmp_path):
    # fig3's four default tau_1/2 tables and scan's: every round evaluates
    # each live walk (one density per walk) at most once, and no walk
    # evaluates a time twice, for Brent takes the ratios its bracket already
    # has. Rounds and probes per table are the README's figures.
    tables, rounds = [], None
    routes, table = gas_average._exponent_routes, gas_average._tau_half_table

    def recording_routes(pot, proto, density, times, g):
        if rounds is not None:
            rounds.append(list(zip(np.broadcast_to(density, times.shape).tolist(), times.tolist())))
        return routes(pot, proto, density, times, g)

    def recording_table(specs):
        nonlocal rounds
        rounds = []
        try:
            return table(specs)
        finally:
            tables.append(rounds)
            rounds = None

    monkeypatch.setattr(gas_average, "_exponent_routes", recording_routes)
    monkeypatch.setattr(experiments, "_tau_half_table", recording_table)
    for command in ("fig3", "scan"):
        assert cli.main([command, "--config", str(CONFIGS / "sr_dressed.json"), "--out", str(tmp_path / command)]) == 0
    for probes in tables:
        for pairs in probes:
            assert len({density for density, _ in pairs}) == len(pairs)
        pairs = [pair for pairs in probes for pair in pairs]
        assert len(set(pairs)) == len(pairs)
    # (rounds, probes) of the ideal echo, ideal no-echo, dissipative echo and
    # dissipative no-echo tables (fig3) and of scan's, the README's figures
    # on numpy's AVX-512 loops. On its AVX2 loops the last bits of fig3's
    # N_R grid (np.geomspace) and of the ratios differ, and the dissipative
    # echo table skips one more grid point.
    from numpy._core._multiarray_umath import __cpu_features__

    echo = 247 if __cpu_features__["AVX512_SKX"] else 246
    assert [(len(probes), sum(map(len, probes))) for probes in tables] == [
        (35, 439), (37, 576), (12, echo), (18, 302), (18, 302)
    ]


def test_array_midpoint_nonconvergence_raises(monkeypatch):
    # the array form keeps the nested error estimate: with an integrand
    # kinked (as in test_gas.py) at |V0 t| > 2.8 only, the first failing
    # time in array order is reported. a < 2.8 < b share M, which 7.0
    # does not: M sorted, or group by group, would report b. The rules of
    # many times share one flat node array, so the kink follows each node's
    # g = 0.1 V0 t.
    def h(x, g, *args):
        return np.where(np.asarray(g) > 0.28, np.sqrt(x), x) + 0j

    nodes = nodes_at(2.8)
    a, b = 0.5 * (t_of_nodes(nodes) + 2.8), 0.5 * (2.8 + t_of_nodes(nodes + 3))
    monkeypatch.setattr(gas_average, "_soft_core_h", h)
    times = np.array([0.05, a, 7.0, b])
    m = [gas_average._midpoint_order(t) for t in times[1:]]
    assert a < 2.8 < b and m[0] == m[2] < m[1]
    sp = GasSpec.from_blockade_number(1.0, soft_core(), RamseyProtocol(math.pi / 2, True, 0.1, 0.0))
    with pytest.raises(NumericalError) as err:
        exponents(sp, times)
    diag = err.value.diagnostics
    assert diag["error_estimate"] > 1e-8 * abs(diag["value"])
    assert diag["T"] == pytest.approx(7.0) and diag["g"] == pytest.approx(0.7)
    assert diag["nodes"] == 3 * m[1]
    exponents(sp, times[:2])  # smooth below 2.8: no error


def test_midpoint_rule_past_the_node_cap_is_refused(monkeypatch):
    # at V0 = 16 rad/us, t = 1e308 gives |V0 t| = inf, whose M raised a raw
    # OverflowError from int(inf); a finite |V0 t| past the cap built its
    # rule piece by piece for ever. Both are CapacityErrors now, at the first
    # such time in array order and before any node is built
    pot = derive_potential(DressingParams(2000.0, 5000.0, -1.0e4), PotentialKind.SOFT_CORE)
    assert pot.v0 == pytest.approx(16.0)
    sp = GasSpec(1.0, pot, RamseyProtocol(1.0, False, 1e-300, 0.0))
    with pytest.raises(CapacityError, match=r"T = inf, g = 1e\+08 would take inf nodes"):
        exponent_integral(sp, 1e308)
    with monkeypatch.context() as uncapped:
        uncapped.setattr(gas_average, "_NODE_CAP", math.inf)
        nodes = f"{nodes_at(1e9):.3g}"
    assert float(nodes) > gas_average._NODE_CAP
    with pytest.raises(CapacityError, match=rf"T = 1e\+09, g = 6\.25e-293 .* {re.escape(nodes)} nodes"):
        exponents(sp, np.array([0.5, 1e9 / 16.0, 1e300]))
    # 3M at the cap, and 1 % further
    top = t_of_nodes(gas_average._NODE_CAP // 3 * 3)
    assert 3 * gas_average._midpoint_order(top) <= gas_average._NODE_CAP
    with pytest.raises(CapacityError):
        gas_average._midpoint_order(1.01 * top)


def midpoint_rule(t_abs, g, m, theta, beta):
    """The fine (3M-node) and coarse (M-node) midpoint values of I / N_R."""
    fine, coarse = gas_average._midpoint_sums(t_abs, g, m, theta, beta)
    m = np.array(m)
    return fine * (t_abs * math.pi / (6 * m)), coarse * (t_abs * math.pi / (2 * m))


@pytest.mark.parametrize("beta", [0, 1])
def test_midpoint_order_keeps_a_margin(beta):
    # M = |T|/4 + 3|T|^(1/3) + 6 follows the bandwidth of e^{iT cos^2 phi}.
    # From just above the Taylor branch to |T| = 1e5, at subnormal to huge
    # g and theta near 0, pi/2 and pi: the error estimate, the gap to the
    # coarse M-node rule, stays 1000 times under _REL_TOL (1.2e-13 |I| was
    # the largest seen), and the value is within 1e-14 |I| of a rule of twice the
    # former order |T|/2 + 3|T|^(1/3) + 24, 4 to 7 times as many nodes
    # (2.1e-15 was the largest gap seen; with unmirrored nodes, see
    # _midpoint_cos2, the rounded step put it at 2e-14 near |T| = 3e4)
    t_abs = np.array([np.nextafter(gas_average._T_TAYLOR, 1.0), 0.13, 0.5, 2.0, 7.0, 31.1,
                      100.0, 900.0, 5e3, 3e4, 1e5])
    m = [gas_average._midpoint_order(t) for t in t_abs]
    m_ref = [2 * int(t / 2.0 + 3.0 * t ** (1.0 / 3.0) + 24.0) for t in t_abs]
    for g_value in (5e-324, 1e-6, 0.05, 1.0, 30.0, 1e8):
        g = np.full(t_abs.size, g_value)
        for theta in (1e-3, math.pi / 2, math.pi):
            value, coarse = midpoint_rule(t_abs, g, m, theta, beta)
            assert np.array_equal(value, gas_average._soft_core_i_over_nr(t_abs, g, theta, beta))
            ref = midpoint_rule(t_abs, g, m_ref, theta, beta)[0]
            size = np.abs(ref)
            assert np.all(np.abs(value - coarse) <= 1e-3 * gas_average._REL_TOL * size), (g_value, theta)
            assert np.all(np.abs(value - ref) <= 1e-14 * size), (g_value, theta)


def test_fig2_past_the_node_cap_exits_3(tmp_path, capsys):
    # a fig2 grid out to 1e300 ran for ever (one batch entry per piece of a
    # rule of 1.5e300 nodes); now it is a capacity error (exit 3, one line)
    args = ["fig2", "--config", str(CONFIGS / "sr_dressed.json"), "--grid", "lin:0:1e300:3"]
    assert cli.main([*args, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"past the cap of {gas_average._NODE_CAP}" in err


def test_array_exponent_memory_is_bounded():
    # |V0 t| up to 1e6 needs 0.75 M midpoint nodes; the chunks keep one call
    # below 32 MB, where a single (n_t, 3M) complex array takes 72 MB
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, True, 0.3, 0.0))
    times = np.array([1e6, 2.5e5, 5e3, 3.1e3, 30.0, 0.05])
    tracemalloc.start()
    try:
        got = exponents(sp, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert np.array_equal(got, scalar_exponents(sp, times))


@pytest.mark.parametrize("echo", [True, False])
def test_float_exponent_memory_is_bounded(echo):
    # a float call at V0 t = 1e6 (0.75 M midpoint nodes) sums its rule chunk
    # by chunk, where each complex array of the whole rule would take 12 MB
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, echo, 0.3, 0.0))
    tracemalloc.start()
    try:
        got = exponent_integral(sp, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.array_equal(exponents(sp, np.array([1e6])), [got])


def test_array_exponent_memory_is_bounded_on_a_capped_grid():
    # Taylor-branch times are scalar calls. Beyond the 16 B output, the loop
    # holds about 150 B per time (Python lists of the times and g as floats
    # and of the values as complexes), so a grid of MAX_FIG5_POINTS times
    # stays below 32 MB: the traced peak may grow by at most that share of
    # 32 MB per time from 2 000 to 20 000 times, a tenth of the cap's cost
    # under tracemalloc.
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, True, 0.3, 0.0))
    per_time = 32e6 / experiments.MAX_FIG5_POINTS

    def traced_peak(times):
        tracemalloc.start()
        try:
            got = exponents(sp, times)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, small = traced_peak(np.linspace(0.0, gas_average._T_TAYLOR, 2_000))
    times = np.linspace(0.0, gas_average._T_TAYLOR, 20_000)
    got, large = traced_peak(times)
    assert large - small < per_time * (times.size - 2_000)
    picks = np.arange(0, times.size, 997)
    assert np.array_equal(got[picks], scalar_exponents(sp, times[picks]))


def scalar_probe_tau_half(spec):
    """tau_half as a point-by-point scan: each grid probe and each Brent
    step one scalar exponent_integral call, the bracket polished by scipy's
    brentq."""
    from scipy.optimize import brentq

    c0 = abs(math.sin(spec.protocol.theta))

    def ratio(t):
        return abs(complex(_envelope(spec.protocol, t) * np.exp(-exponent_integral(spec, t)))) / c0

    lo, hi = gas_average._tau_window(gas_average._tau_bounds(spec))
    grid = gas_average._tau_grid(lo, hi)
    t_prev = next(grid)
    r_prev = ratio(float(t_prev))
    for t in grid:
        r = ratio(float(t))
        if r_prev > 0.5 >= r:
            return brentq(lambda tt: ratio(tt) - 0.5, t_prev, t, xtol=1e-12 * t, rtol=1e-10)
        t_prev, r_prev = t, r
    raise AssertionError("no crossing below the ceiling")


@pytest.mark.parametrize("gamma", [0.0, 1.0 / 21.0])
@pytest.mark.parametrize("echo", [True, False])
def test_tau_half_equals_scalar_probe_reference_soft_core(gamma, echo):
    # N_R = 10^-1.8 and 0.01 include the crossing clusters of a dilute
    # unitary echo gas
    proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.0)
    for n_r in (1e-3, 10**-1.8, 0.01, 1.0, 1e3):
        sp = GasSpec.from_blockade_number(n_r, soft_core(), proto)
        assert tau_half(sp) == scalar_probe_tau_half(sp)


@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("echo", [True, False])
def test_tau_half_equals_scalar_probe_reference_bare(gamma, echo):
    proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.0)
    for density in (1e-4, 0.01, 1.0):
        sp = GasSpec(density, bare(-1.0e4), proto)
        assert tau_half(sp) == scalar_probe_tau_half(sp)


def test_fig5_array_rows_equal_scalar_rows(tmp_path):
    # run_fig5 evaluates I once per density over all times; its rows equal
    # the per-time scalar evaluation bit for bit (the CSV holds 17 digits)
    cfg = load_config(str(CONFIGS / "rb_ultrafast.json"))
    experiments.run_fig5(cfg, str(tmp_path))
    uf = cfg.ultrafast
    pot = bare(uf["c6"])
    for p in uf["fractions"]:
        rows = np.loadtxt(tmp_path / f"fig5_fraction_{p:g}.csv", delimiter=",", skiprows=1)
        proto = RamseyProtocol(2.0 * math.asin(math.sqrt(p)), False, 0.0, 0.0)
        times = np.linspace(0.0, uf["t_max"], uf["n_points"])
        i_h = scalar_exponents(GasSpec(uf["density_high"], pot, proto), times)
        i_l = scalar_exponents(GasSpec(uf["density_low"], pot, proto), times)
        want = [[math.exp(-(h.real - l.real)), -h.imag + 0.0, -l.imag + 0.0] for h, l in zip(i_h, i_l)]
        assert np.array_equal(rows[:, 1:], np.array(want))


@pytest.mark.parametrize(
    "command, config, grid",
    [
        ("fig5", "rb_ultrafast.json", "lin:0:700:" + "1" + "0" * 30),
        ("scan", "sr_dressed.json", "log:0.1:10:" + "1" + "0" * 30),
        ("fig2", "sr_dressed.json", f"lin:0:1:{experiments.MAX_FIG5_POINTS + 1}"),
    ],
)
def test_grid_point_count_is_capped(command, config, grid, tmp_path, capsys):
    # numpy's "Maximum allowed size exceeded" (exit 1) before; now the
    # fig5 cap, checked before anything is allocated (exit 3, one line)
    with pytest.raises(CapacityError, match="capped"):
        experiments.parse_grid(grid)
    args = [command, "--config", str(CONFIGS / config), "--grid", grid, "--out", str(tmp_path / "o")]
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{experiments.MAX_FIG5_POINTS}" in err
    assert not (tmp_path / "o").exists()
    assert experiments.parse_grid(f"lin:0:1:{experiments.MAX_FIG5_POINTS}").size == experiments.MAX_FIG5_POINTS
