"""The array form of the gas exponent against its scalar form.

``gas_average._exponent_integral_many`` evaluates I(t) over an array of
times by each route of ``exponent_integral``. It runs the scalar routes'
own operations, so it must be bit-identical on every route, midpoint
rules longer than one chunk of nodes included.
"""

import math
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


def scalar_exponents(spec, times):
    return np.array([exponent_integral(spec, float(t)) for t in times])


def assert_array_form(spec, times):
    """Bit equality on every route."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _exponent_integral_many(spec, np.asarray(times, float))
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


def test_float_midpoint_rules_cache_short_rules_only():
    # float calls take a short rule's nodes from the cache; a rule longer
    # than _NODE_CHUNK computes its own chunks and leaves the cache alone
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, True, 0.3, 0.0))
    gas_average._midpoint_cos2.cache_clear()
    for t in (3.0, 3.0):
        exponent_integral(sp, t)
    assert gas_average._midpoint_cos2.cache_info()[:2] == (1, 1)  # hits, misses
    exponent_integral(sp, 5e3)
    assert gas_average._midpoint_cos2.cache_info()[:2] == (1, 1)
    m = gas_average._midpoint_order(3.0)
    cached = gas_average._midpoint_cos2(m)
    assert not cached.flags.writeable
    assert np.array_equal(cached, np.cos((np.arange(3 * m) + 0.5) * (math.pi / (6 * m))) ** 2)


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
            _exponent_integral_many(sp, np.array([0.5, bad]))
    huge = GasSpec.from_blockade_number(1.0, soft_core(), RamseyProtocol(1.0, False, 1e308, 0.0))
    with pytest.raises(ParameterError, match="overflows"):
        _exponent_integral_many(huge, np.array([0.5, 10.0]))
    assert _exponent_integral_many(sp, np.array([])).shape == (0,)


def test_array_midpoint_nonconvergence_raises(monkeypatch):
    # the array form keeps the nested error estimate: with an integrand
    # kinked (as in test_gas.py) at |V0 t| > 2.8 only, the first failing
    # time in array order is reported. 2.5 and 3.0 share M, which 7.0
    # does not: M sorted, or group by group, would report 3.0.
    def h(x, *args):
        kinked = x.max(axis=-1, keepdims=True) > 2.8
        return np.where(kinked, np.sqrt(x), x) + 0j

    monkeypatch.setattr(gas_average, "_soft_core_h", h)
    times = np.array([0.05, 2.5, 7.0, 3.0])
    m = [gas_average._midpoint_order(t) for t in times[1:]]
    assert m[0] == m[2] < m[1]
    sp = GasSpec.from_blockade_number(1.0, soft_core(), RamseyProtocol(math.pi / 2, True, 0.1, 0.0))
    with pytest.raises(NumericalError) as err:
        _exponent_integral_many(sp, times)
    diag = err.value.diagnostics
    assert diag["error_estimate"] > 1e-8 * abs(diag["value"])
    assert diag["T"] == pytest.approx(7.0) and diag["g"] == pytest.approx(0.7)
    assert diag["nodes"] == 3 * m[1]
    _exponent_integral_many(sp, times[:2])  # smooth below 2.8: no error


def test_array_exponent_memory_is_bounded():
    # |V0 t| up to 1e6 needs 1.5 M midpoint nodes; the chunks keep one call
    # below 32 MB, where a single (n_t, 3M) evaluation takes over 100 MB
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, True, 0.3, 0.0))
    times = np.array([1e6, 2.5e5, 5e3, 3.1e3, 30.0, 0.05])
    tracemalloc.start()
    try:
        got = _exponent_integral_many(sp, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert np.array_equal(got, scalar_exponents(sp, times))


@pytest.mark.parametrize("echo", [True, False])
def test_float_exponent_memory_is_bounded(echo):
    # a float call at V0 t = 1e6 (1.5 M midpoint nodes) sums its rule chunk
    # by chunk, where a whole-rule evaluation traced 168 MB
    sp = GasSpec.from_blockade_number(0.5, soft_core(), RamseyProtocol(1.1, echo, 0.3, 0.0))
    tracemalloc.start()
    try:
        got = exponent_integral(sp, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.array_equal(_exponent_integral_many(sp, np.array([1e6])), [got])


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
            got = _exponent_integral_many(sp, times)
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
    step one scalar exponent_integral call."""
    c0 = abs(math.sin(spec.protocol.theta))

    def ratio(t):
        return abs(complex(_envelope(spec.protocol, t) * np.exp(-exponent_integral(spec, t)))) / c0

    lo, hi = gas_average._tau_window(spec)
    grid = gas_average._tau_grid(lo, hi)
    t_prev = next(grid)
    r_prev = ratio(float(t_prev))
    for t in grid:
        r = ratio(float(t))
        if r_prev > 0.5 >= r:
            return gas_average._brentq(
                lambda tt: ratio(tt) - 0.5, t_prev, t, xtol=1e-12 * t, rtol=1e-10
            )
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
