import cmath
import decimal
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import beta as beta_function
from scipy.special import dawsn, gammainc, j0, j1

from rydramsey import gas_average
from rydramsey.errors import (
    BiasWarning,
    CrossingNotFoundError,
    NumericalError,
    ParameterError,
    SingularityError,
    UnsupportedRegimeError,
    ValidityWarning,
)
from rydramsey.gas_average import (
    DimensionlessPoint,
    GasSpec,
    _bare_i_tilde,
    _kernel_taylor,
    _soft_core_h,
    _soft_core_i_over_nr,
    _soft_core_i_over_nr_closed,
    contrast_gas,
    contrast_gas_finite_n,
    exponent_integral,
    fit_hardcore_amplitude,
    high_density_contrast,
    low_density_amplitude,
    low_density_contrast,
    monte_carlo_gas,
    tau_half,
)
from rydramsey.ising_core import RamseyProtocol, _envelope, f_kernel, sigma_plus_couplings
from rydramsey.potential import (
    DressingParams,
    InteractionPotential,
    PotentialKind,
    _v_of_q,
    derive_potential,
)

# 40-digit reference values for the disorder-average exponent, frozen
# from an independent extended-precision evaluation.
SOFT_CORE_REFERENCE = {
    # (T, g, theta, beta) -> I / N_R
    (3.0, 0.45, math.pi / 3, 0): 0.6474730382781983404 + 0.4239984230022729191j,
    (3.0, 0.45, math.pi / 3, 1): 0.4269686692259563245 - 0.6003780056773330143j,
    (3.0, 0.0, math.pi / 2, 0): 0.7859401899985238544 + 0.0j,
    (3.0, 0.0, math.pi / 2, 1): 1.1099529650140870503 - 1.3966204454677488971j,
}
BARE_REFERENCE_G02 = 0.5872716899390674354  # Itilde/(1-1j) at theta=pi/2, beta=1
# integral_0^inf [1 - f(s/u^2, g)] du, frozen from an extended-precision
# quadrature of the cos/sinc kernel (not from the erf/Dawson closed form)
BARE_REFERENCE = {
    # (s, g, theta, beta) -> Itilde
    (+1.0, 1e-8, 0.6, 1): 0.1094546711947605306 - 0.1094546711947605306j,
    (-1.0, 1e-3, 2.5, 1): 1.128323258067215648 + 1.128323258067215648j,
    (+1.0, 0.37, 2.5, 1): 1.003676077736410111 - 1.003676077736410111j,
    (-1.0, 2.9, 0.6, 1): 0.05604847361722753889 + 0.05604847361722753889j,
    (+1.0, 11.0, 0.6, 1): 0.02924702633209093733 - 0.02924702633209093733j,
    (-1.0, 40.0, 2.5, 1): 0.1581587525401756833 + 0.1581587525401756833j,
    (-1.0, 1e-8, 2.5, 0): 0.8862269251590382115 + 0.7099950441334248597j,
    (+1.0, 1e-3, 0.6, 0): 0.8859574499577276409 + 0.7306260562784284221j,
    (-1.0, 0.37, 0.6, 0): 0.8031165553839572157 - 0.4628271963008659399j,
    (+1.0, 2.9, 2.5, 0): 0.8630376180160203931 - 0.8353084277291653467j,
    (-1.0, 11.0, 2.5, 0): 0.8772461853230351813 + 0.8769742707080788762j,
    (+1.0, 40.0, 0.6, 0): 0.8654568877275242751 - 0.8654568870667882704j,
}


def i_over_nr(T, g, theta, beta):
    """The soft-core midpoint rule (or its Taylor branch) at one T = V0 t."""
    return _soft_core_i_over_nr(np.array([T]), np.array([g]), theta, beta)[0]


def i_over_nr_closed(T, theta, beta):
    """The soft-core Bessel closed form at one T = V0 t."""
    return _soft_core_i_over_nr_closed(np.array([T]), theta, beta)[0]


def soft_core_potential():
    return derive_potential(
        DressingParams(1000.0, 5000.0, -1.0e4), PotentialKind.SOFT_CORE
    )


def spec_at(n_r, theta, echo, gamma=0.0, gamma_d=0.0, pot=None):
    pot = pot or soft_core_potential()
    density = 3.0 * n_r / (4.0 * math.pi * pot.r_c**3)
    return GasSpec(density, pot, RamseyProtocol(theta, echo, gamma, gamma_d))


def test_soft_core_exponent_frozen_references():
    for (T, g, theta, beta), want in SOFT_CORE_REFERENCE.items():
        assert i_over_nr(T, g, theta, beta) == pytest.approx(want, abs=5e-9)
        n_r = 0.7
        sp = spec_at(n_r, theta, echo=(beta == 0), gamma=g / T)  # t = T at V0 = 1
        assert exponent_integral(sp, T) == pytest.approx(n_r * want, abs=5e-9)


def test_soft_core_closed_form_matches_frozen_values():
    for (T, g, theta, beta), want in SOFT_CORE_REFERENCE.items():
        if g != 0.0:
            continue
        got = i_over_nr_closed(T, theta, beta)
        assert got == pytest.approx(want, abs=1e-12)


def test_soft_core_routes_agree_widely():
    rng = np.random.default_rng(10)
    for _ in range(12):
        T = float(np.exp(rng.uniform(np.log(0.05), np.log(400.0))))
        theta = rng.uniform(0.1, math.pi - 0.1)
        beta = int(rng.integers(0, 2))
        a = i_over_nr(T, 0.0, theta, beta)
        b = i_over_nr_closed(T, theta, beta)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_soft_core_h_identities_match_kernel():
    # (1 - f_kernel)/X carries f_kernel's rounding divided by |X| (about
    # 1e-14 at |X| = 1e-2, where 1 - f ~ X^2/8 at theta = pi/2, echo), so
    # the bound is relative to max(|h|, 1), the size of the identities' terms.
    # h takes each node's phase from tan(X/2) (beta = 1) or tan(X/4)
    # (beta = 0), which blow up at X = (2k+1) pi and 2(2k+1) pi: every k pi
    # and 2k pi to k = 2 000 is checked, an ulp either side too, with no warning
    k = np.arange(1.0, 2001.0)
    poles = np.concatenate([k * math.pi, 2.0 * k * math.pi])
    x = np.concatenate([
        poles, np.nextafter(poles, 0.0), np.nextafter(poles, math.inf), np.geomspace(1e-2, 1e6, 400)
    ])
    x = np.concatenate([-x, x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (0.0, 5e-324, 1e-310, 1e-12, 1e-3, 0.5, 5.0, 40.0, 700.0):
            for theta in (0.3, math.pi / 2, 2.6):
                for beta in (0, 1):
                    want = (1.0 - f_kernel(x, g, theta, beta)) / x
                    got = _soft_core_h(x, g, theta, beta)
                    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
                    assert np.array_equal(_soft_core_h(x, np.full(x.size, g), theta, beta), got)


def complex_expm1_h(x, g, theta, beta):
    """h(X) of :func:`_soft_core_h` from complex expm1, as the integrand
    was written before it took its phases from tangents."""
    if beta == 1:
        w = x + 1j * g
        return -math.sin(theta / 2.0) ** 2 * np.expm1(1j * w) / w
    w = x - 1j * g
    half = np.expm1(0.5j * x)  # e^{iX/2} - 1
    return -half / x - math.cos(theta / 2.0) ** 2 * (half + 1.0) * np.expm1(-1j * w) / w


def test_soft_core_tangent_integrand_matches_complex_expm1(monkeypatch):
    # the tolerance the tangent integrand trades: I / N_R within 1e-13 of
    # the complex-expm1 integrand's, on short rules and on the long ones
    # (|V0 t| = 1e4, 3e4) that _midpoint_sums sums chunk by chunk
    t = np.concatenate([np.geomspace(0.1000001, 3e3, 12), [1e4, 3e4]])
    ratio = np.array([1e-300, 1e-12, 1e-4, 1e-2, 0.5, 5.0])  # g / |T|
    T = np.repeat(np.concatenate([t, -t]), ratio.size)
    g = np.abs(T) * np.tile(ratio, 2 * t.size)
    for theta in (0.3, math.pi / 2, 2.6):
        for beta in (0, 1):
            got = _soft_core_i_over_nr(T, g, theta, beta)
            with monkeypatch.context() as m:
                m.setattr(gas_average, "_soft_core_h", complex_expm1_h)
                want = _soft_core_i_over_nr(T, g, theta, beta)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("beta, complex_peak", [(0, 347_294), (1, 200_478)])
def test_soft_core_h_memory_is_below_the_complex_form(beta, complex_peak):
    # the traced peak of one midpoint batch, with the integrand built in
    # place, stays below the complex-expm1 integrand's (measured with this
    # call, numpy 2.4): 201 kB and 176 kB, where whole-array expressions of
    # the tangent identities trace 445 kB and 347 kB
    T, g = np.linspace(20.0, 31.0, 30), np.full(30, 0.5)
    _soft_core_i_over_nr(T, g, 1.1, beta)
    tracemalloc.start()
    try:
        _soft_core_i_over_nr(T, g, 1.1, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < complex_peak


@pytest.mark.parametrize("detuning", [5000.0, -5000.0])
def test_soft_core_quadrature_matches_bessel_closed_form(detuning):
    # a negative detuning with a positive c6 gives V0 = -1
    pot = derive_potential(
        DressingParams(1000.0, detuning, -2.0 * detuning), PotentialKind.SOFT_CORE
    )
    assert pot.v0 == pytest.approx(math.copysign(1.0, detuning))
    for T in pot.v0 * np.geomspace(1e-2, 300.0, 15):
        for theta in (0.3, math.pi / 2, 2.6):
            for beta in (0, 1):
                a = i_over_nr(T, 0.0, theta, beta)
                b = i_over_nr_closed(T, theta, beta)
                assert abs(a - b) <= 1e-12 * abs(b)


def cauchy_taylor(fun, radius, n=32):
    """Taylor coefficients 0..n-1 of the entire function fun from n samples
    on the circle |X| = radius (the discrete Cauchy integral)."""
    x = radius * np.exp(2j * np.pi * np.arange(n) / n)
    return np.fft.fft(fun(x)) / n / radius ** np.arange(n)


def one_minus_f_echo(x, g, theta):
    """1 - f at beta = 0, rearranged from the identity
    1 - f = (1 - e^{iX/2}) + cos^2(theta/2) X e^{iX/2} (1 - e^{-g-iX}) / (X - i g)
    so that no O(X) terms cancel: the g = 0 part is
    2 sin^2(X/4) + i cos(theta) sin(X/2)."""
    q = math.cos(theta / 2) ** 2
    return (
        2.0 * np.sin(x / 4) ** 2
        + 1j * math.cos(theta) * np.sin(x / 2)
        + q * (-x * np.exp(-0.5j * x) * math.expm1(-g) - 2.0 * g * np.sin(x / 2)) / (x - 1j * g)
    )


def test_soft_core_small_t_branch_matches_cauchy_reference():
    # Echo at theta = pi/2, where f'(0) ~ g and 1 - f cancels to O(X^2):
    # the points at which the former panel route erred by up to 2.5e-7.
    # Reference: I/N_R = sum_n d_n T^n J_n with d_n the Taylor coefficients
    # of 1 - f from a Cauchy FFT, and J_n = B(1/2, n - 1/2) / 2. The circle
    # stays ten radii clear of T (geometric convergence) and of the removable
    # pole at X = i g; below a radius of ~1e-4 the O(X g) cancellation in
    # the g-part's numerator would dominate.
    x = np.linspace(0.1, 30.0, 60)  # where 1 - f_kernel is accurate
    for g in (0.0, 1e-3, 0.5, 5.0):
        for theta in (0.3, math.pi / 2):
            want = 1.0 - f_kernel(x, g, theta, 0)
            assert np.max(np.abs(one_minus_f_echo(x, g, theta) - want)) <= 1e-14
    theta = math.pi / 2
    n = np.arange(1, 16)
    j_n = beta_function(0.5, n - 0.5) / 2.0
    for T in (1e-8, 1e-6, 1e-4):
        for g in (0.0, 1e-10, 5e-6, 1e-3):
            d = cauchy_taylor(lambda x: one_minus_f_echo(x, g, theta), max(10 * T, 10 * g, 1e-4))
            want = np.sum(d[1:16] * T**n * j_n)
            got = i_over_nr(T, g, theta, 0)
            assert abs(got - want) <= 1e-10 * abs(want), (T, g)
            if g > 0.0:
                sp = spec_at(1.0, theta, echo=True, gamma=g / T)  # V0 = 1, so t = T
                assert exponent_integral(sp, T) == pytest.approx(want, rel=1e-10)


def test_soft_core_taylor_and_spectral_branches_meet():
    t_switch = gas_average._T_TAYLOR
    above = float(np.nextafter(t_switch, 1.0))
    for g in (0.0, 1e-10, 1e-3, 0.05, 5.0):
        for theta in (0.3, math.pi / 2, 2.6):
            for beta in (0, 1):
                for sign in (1.0, -1.0):
                    a = i_over_nr(sign * t_switch, g, theta, beta)
                    b = i_over_nr(sign * above, g, theta, beta)
                    assert abs(a - b) <= 1e-12 * abs(a)


def test_exponent_rejects_overflowing_emission():
    # gamma t = inf gave nan from the quadrature; both potentials refuse it
    bare = derive_potential(DressingParams(0.0, 0.0, -1e4), PotentialKind.BARE_VDW)
    for pot in (soft_core_potential(), bare):
        sp = GasSpec(0.1, pot, RamseyProtocol(math.pi / 2, True, 1e308))
        with pytest.raises(ParameterError, match="overflows float64"):
            exponent_integral(sp, 10.0)
        assert np.isfinite(exponent_integral(sp, 1.0))  # gamma t = 1e308


def bare_vdw(c6=-1.0e4):
    return derive_potential(DressingParams(0.0, 0.0, c6), PotentialKind.BARE_VDW)


# A float call evaluates a one-element array, but keeps the values, errors
# and silence of float arithmetic: Python floats overflow to inf without a
# warning, where numpy arrays warn. Each case: (call, spec, t, the value or
# the (error class, message) of the float form).
FLOAT_CALL_CASES = {
    "envelope overflow": (
        contrast_gas, lambda: spec_at(1.0, math.pi / 2, True, gamma_d=1e308), 10.0, 0j,
    ),
    "bare unitary overflow": (
        exponent_integral,
        lambda: GasSpec(1e300, bare_vdw(), RamseyProtocol(math.pi / 2, True, 0.0)),
        1e300,
        complex(math.inf, -math.inf),
    ),
    "bare dissipative overflow": (
        exponent_integral,
        lambda: GasSpec(1e300, bare_vdw(), RamseyProtocol(math.pi / 2, True, 0.5)),
        1e300,
        complex(math.inf, math.inf),
    ),
    "dense bare tau_half": (
        lambda spec, _: tau_half(spec),
        lambda: GasSpec(1e30, bare_vdw(), RamseyProtocol(math.pi / 2, True, 0.0)),
        None,
        3.4864530573495677e-66,
    ),
    "gamma t overflow": (
        exponent_integral,
        lambda: spec_at(1.0, math.pi / 2, True, gamma=1e308),
        10.0,
        (ParameterError, "g = gamma*t overflows float64 at gamma = 1e+308, t = 10.0"),
    ),
    **{
        f"t = {t!r}, {call.__name__}": (
            call,
            lambda: spec_at(1.0, math.pi / 2, True, gamma=0.3),
            t,
            (ParameterError, f"exponent integral is defined for finite t >= 0, got {t!r}"),
        )
        for t in (-1e-9, math.nan, math.inf)
        for call in (exponent_integral, contrast_gas)
    },
}


@pytest.mark.parametrize("case", FLOAT_CALL_CASES)
def test_float_calls_keep_float_values_errors_and_silence(case):
    call, spec, t, want = FLOAT_CALL_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, tuple):
            with pytest.raises(want[0]) as err:
                call(spec(), t)
            assert type(err.value) is want[0] and str(err.value) == want[1]
        else:
            got = call(spec(), t)
            assert type(got) is type(want) and got == want


def test_soft_core_nonconvergence_raises(monkeypatch):
    # sqrt(X) = sqrt(T) |cos(phi)| has a kink at phi = pi/2, so the midpoint
    # rule converges only algebraically and the nested estimate flags it
    monkeypatch.setattr(gas_average, "_soft_core_h", lambda x, *args: np.sqrt(x) + 0j)
    sp = spec_at(1.0, math.pi / 2, True, gamma=0.1)
    with pytest.raises(NumericalError) as err:
        exponent_integral(sp, 3.0)
    diag = err.value.diagnostics
    assert diag["error_estimate"] > 1e-8 * abs(diag["value"])
    assert diag["T"] == pytest.approx(3.0) and diag["g"] == pytest.approx(0.3)
    assert diag["nodes"] % 3 == 0


def test_bare_exponent_dissipative_frozen_reference():
    # attractive and repulsive tails are mutual conjugates
    for sign in (+1.0, -1.0):
        pot = derive_potential(
            DressingParams(0.0, 0.0, sign * 8.0), PotentialKind.BARE_VDW
        )
        t = 0.025
        gamma = 0.2 / t
        sp = GasSpec(0.7, pot, RamseyProtocol(math.pi / 2, False, gamma, 0.0))
        prefactor = 4.0 * math.pi * 0.7 * math.sqrt(8.0 * t) / 3.0
        want = prefactor * BARE_REFERENCE_G02 * (1.0 - 1j * sign)
        got = exponent_integral(sp, t)
        assert got == pytest.approx(want, rel=1e-14)


def test_bare_exponent_unitary_magnitude():
    # |I| = (2 pi^{3/2} / 3) rho sqrt(|C6| t) at theta = pi/2, no echo
    pot = derive_potential(DressingParams(0.0, 0.0, -9.0), PotentialKind.BARE_VDW)
    rho = 0.31
    t = 0.004
    sp = GasSpec(rho, pot, RamseyProtocol(math.pi / 2, False, 0.0, 0.0))
    want = (2.0 * math.pi**1.5 / 3.0) * rho * math.sqrt(9.0 * t)
    assert abs(exponent_integral(sp, t)) == pytest.approx(want, rel=1e-8)


def test_bare_i_tilde_frozen_references():
    for (s, g, theta, beta), want in BARE_REFERENCE.items():
        got = _bare_i_tilde(s, g, theta, beta)
        assert abs(got - want) <= 1e-13 * abs(want), (s, g, theta, beta)


def test_bare_i_tilde_small_g_meets_the_fresnel_values():
    for s in (1.0, -1.0):
        for beta in (0, 1):
            for theta in (0.6, 2.5):
                at_zero = _bare_i_tilde(s, 0.0, theta, beta)
                assert abs(_bare_i_tilde(s, 1e-14, theta, beta) - at_zero) <= 1e-13 * abs(at_zero)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    tiny = _bare_i_tilde(s, 5e-324, theta, beta)
                assert tiny == pytest.approx(at_zero, rel=1e-15)


def test_bare_i_tilde_large_g_limits():
    # g -> infinity: (sqrt(pi)/2)(1 - i s) with echo, where the deviation is
    # ~ cos^2(theta/2) sqrt(pi/2) / g; 0 without, below (pi/2) / sqrt(g)
    for s in (1.0, -1.0):
        for theta in (0.6, 2.5):
            for g in (1e3, 1e8, 1e300):
                echo = _bare_i_tilde(s, g, theta, 0)
                no_echo = _bare_i_tilde(s, g, theta, 1)
                assert cmath.isfinite(echo) and cmath.isfinite(no_echo)
                assert abs(echo - 0.5 * math.sqrt(math.pi) * (1.0 - 1j * s)) <= 2.0 / g
                assert 0.0 < abs(no_echo) <= math.pi / (2.0 * math.sqrt(g))


def test_exponent_basics():
    sp = spec_at(1.0, math.pi / 2, True)
    assert exponent_integral(sp, 0.0) == 0.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            exponent_integral(sp, bad)


def test_exponent_real_part_nonnegative():
    rng = np.random.default_rng(19)
    for _ in range(10):
        sp = spec_at(
            float(rng.uniform(0.05, 5.0)),
            float(rng.uniform(0.1, math.pi - 0.1)),
            bool(rng.integers(0, 2)),
            gamma=float(rng.uniform(0.0, 0.5)),
        )
        t = float(rng.uniform(0.01, 50.0))
        assert exponent_integral(sp, t).real >= -1e-12


def test_soft_core_early_time_quadratic():
    # Re I ~ T^2 for T << 1 at gamma = 0
    sp = spec_at(1.0, math.pi / 2, True)
    r1 = exponent_integral(sp, 1e-3).real
    r2 = exponent_integral(sp, 2e-3).real
    assert r2 / r1 == pytest.approx(4.0, rel=1e-4)


def test_dimensionless_collapse():
    """Two physical systems at the same dimensionless point agree.

    The exponent depends on (N_R, V0 t, theta, beta, gamma/V0) only.
    """
    point = DimensionlessPoint(n_r=0.8, v0t=2.5, theta=1.0, beta=1, gamma_over_v0=0.2)
    spec_a, t_a = point.to_physical()
    # second realization: stronger dressing, different length scale
    pot_b = derive_potential(
        DressingParams(2000.0, 5000.0, -2.6e4), PotentialKind.SOFT_CORE
    )
    density_b = 3.0 * 0.8 / (4.0 * math.pi * pot_b.r_c**3)
    t_b = 2.5 / pot_b.v0
    spec_b = GasSpec(
        density_b,
        pot_b,
        RamseyProtocol(1.0, False, 0.2 * pot_b.v0, 0.0),
    )
    i_a = exponent_integral(spec_a, t_a)
    i_b = exponent_integral(spec_b, t_b)
    assert i_a == pytest.approx(i_b, rel=1e-8)


def test_dimensionless_round_trip():
    point = DimensionlessPoint(n_r=2.0, v0t=1.3, theta=0.9, beta=0)
    sp, t = point.to_physical()
    assert sp.n_r == pytest.approx(point.n_r, rel=1e-12)
    assert sp.potential.v0 * t == pytest.approx(point.v0t, rel=1e-12)
    assert sp.protocol.theta == point.theta
    assert sp.protocol.beta == point.beta


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n_r, v0t, message",
    [
        (math.nan, math.nan, "n_r must be positive and finite"),
        (math.nan, 1.0, "n_r must be positive and finite"),
        (math.inf, 1.0, "n_r must be positive and finite"),
        (0.0, 1.0, "n_r must be positive and finite"),
        (-1.0, 1.0, "n_r must be positive and finite"),
        (1.0, math.nan, "v0t must be finite"),
        (1.0, -math.inf, "v0t must be finite"),
    ],
)
def test_dimensionless_point_refuses_non_finite_coordinates(n_r, v0t, message):
    # n_r = nan passed the old `n_r <= 0` check, and a nan v0t came back as t = nan
    with pytest.raises(ParameterError, match=message):
        DimensionlessPoint(n_r=n_r, v0t=v0t, theta=1.0, beta=0)


def test_contrast_is_envelope_times_exponent():
    sp = spec_at(1.0, 1.2, False, gamma=0.3, gamma_d=0.1)
    t = 1.7
    i_val = exponent_integral(sp, t)
    want = (
        math.sin(1.2)
        * math.exp(-0.3 * t / 2.0)
        * math.exp(-0.1 * t)
        * np.exp(-i_val)
    )
    assert contrast_gas(sp, t) == pytest.approx(want, rel=1e-12)
    assert contrast_gas(sp, 0.0) == pytest.approx(math.sin(1.2), rel=1e-14)


def route_spec(route, echo):
    if route == "bare_closed":
        pot = derive_potential(DressingParams(0.0, 0.0, 5.0), PotentialKind.BARE_VDW)
        return GasSpec(0.2, pot, RamseyProtocol(0.8, echo, 0.0, 0.1)), 0.01
    gamma = 0.3 if route == "soft_core_quadrature" else 0.0
    return spec_at(1.0, 0.8, echo, gamma=gamma, gamma_d=0.1), 25.0  # V0 = 1


@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("route", ["soft_core_closed", "soft_core_quadrature", "bare_closed"])
def test_contrast_gas_time_array_equals_scalar_calls(route, echo):
    sp, t_max = route_spec(route, echo)
    times = t_max * np.array([0.0, 1e-7, 0.013, 0.2, 0.37, 1.0])
    got = contrast_gas(sp, times)
    assert got.shape == times.shape and got.dtype == complex
    for k, t in enumerate(times):
        want = contrast_gas(sp, float(t))
        assert type(want) is complex
        assert got[k] == want
    assert got[0] == math.sin(0.8)
    zero_d = contrast_gas(sp, np.array(times[3]))
    assert type(zero_d) is complex and zero_d == got[3]
    assert contrast_gas(sp, np.array([])).shape == (0,)


def test_contrast_gas_time_array_edge_cases():
    sp = spec_at(1.0, 0.8, False, gamma=0.3)
    with pytest.raises(ParameterError):
        contrast_gas(sp, np.ones((2, 2)))
    with pytest.raises(ParameterError):
        contrast_gas(sp, np.array([0.5, -1e-9]))
    with pytest.raises(ParameterError):
        monte_carlo_gas(sp, [[1.0, 2.0]], n_samples=2, n_atoms=8, seed=0)


def test_finite_n_contrast_takes_one_time():
    # an array t raised numpy's ambiguous-truth-value ValueError
    sp = spec_at(1.0, 0.8, False, gamma=0.3)
    for t in (np.array([1.0, 2.0]), np.array([1.0]), [1.0]):
        with pytest.raises(ParameterError, match="one time"):
            contrast_gas_finite_n(sp, t, 10)
    assert contrast_gas_finite_n(sp, np.array(1.0), 10) == contrast_gas_finite_n(sp, 1.0, 10)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
def test_monte_carlo_seed_must_be_a_non_negative_integer(seed):
    # numpy's SeedSequence raised ValueError on a negative seed
    sp = spec_at(1.0, 0.8, False)
    with pytest.raises(ParameterError, match="seed"):
        monte_carlo_gas(sp, [1.0], n_samples=2, n_atoms=8, seed=seed)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_samples", 4.0),
        ("n_samples", math.nan),
        ("n_samples", np.float64(3.0)),
        ("n_atoms", 16.0),
        ("n_atoms", 16.5),
        ("n_atoms", True),
    ],
)
def test_monte_carlo_counts_must_be_integers(name, value):
    # numpy's TypeError before, after a BiasWarning for n_atoms = 16.5
    # (this gas's box holds 16 atoms in under 20 r_c), and nan samples
    # passed the < 2 check; now a ParameterError before any warning
    sp = spec_at(1.0, 0.8, False)
    args = {"n_samples": 4, "n_atoms": 16, "seed": 0, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=name[2:]):
            monte_carlo_gas(sp, [1.0], **args)


def test_gas_spec_from_blockade_number():
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    for c6 in (-1.0e4, -3.7e4):
        pot = derive_potential(DressingParams(1000.0, 5000.0, c6), PotentialKind.SOFT_CORE)
        for n_r in (1e-3, 0.37, 1.0, 100.0, 1e3):
            sp = GasSpec.from_blockade_number(n_r, pot, proto)
            assert abs(sp.n_r - n_r) <= 1e-14 * n_r
            assert sp.potential is pot and sp.protocol is proto
    bare = derive_potential(DressingParams(0.0, 0.0, 5.0), PotentialKind.BARE_VDW)
    with pytest.raises(UnsupportedRegimeError):
        GasSpec.from_blockade_number(1.0, bare, proto)


def test_finite_n_converges_to_thermodynamic():
    sp = spec_at(0.5, math.pi / 2, True)
    t = 3.0
    limit = contrast_gas(sp, t)
    devs = [abs(contrast_gas_finite_n(sp, t, n) - limit) for n in (100, 1000, 10000)]
    assert devs[2] < devs[1] < devs[0]
    assert devs[0] * 100 == pytest.approx(devs[1] * 1000, rel=0.25)


def decimal_power(re, im, k):
    """(re + i im)^k for Decimal parts, by repeated squaring in 50 digits."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    acc, base = (decimal.Decimal(1), decimal.Decimal(0)), (re, im)
    while k:
        if k & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        k >>= 1
    return complex(float(acc[0]), float(acc[1]))


@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_finite_n_contrast_to_rounding_level(echo, gamma):
    # against (1 - I/N)^(N-1) in 50 digits, for the I the call computes; a
    # complex power was up to 5.9e-12 off at N = 123 457
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for n_r in (0.1, 0.5, 1.0, 3.0):
            sp = spec_at(n_r, math.pi / 2, echo, gamma=gamma)  # t = V0 t at V0 = 1
            for t in (0.5, 4.0, 40.0):
                ii = exponent_integral(sp, t)
                for n in (2, 10, 1000, 123_457):
                    w_re = 1 - decimal.Decimal(ii.real) / n
                    w_im = -decimal.Decimal(ii.imag) / n
                    want = _envelope(sp.protocol, t) * decimal_power(w_re, w_im, n - 1)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ValidityWarning)
                        got = contrast_gas_finite_n(sp, t, n)
                    assert abs(got - want) <= 1e-14 * abs(want)


def test_finite_n_warns_when_exponent_too_large():
    sp = spec_at(5.0, math.pi / 2, False)
    with pytest.warns(ValidityWarning):
        contrast_gas_finite_n(sp, 50.0, 2)


def test_monte_carlo_agrees_with_quadrature():
    sp = spec_at(0.1, math.pi / 2, True)
    t = 4.0
    mc = monte_carlo_gas(sp, [t], n_samples=24, n_atoms=256, seed=3)
    exact = contrast_gas(sp, t)
    assert abs(mc.mean[0] - exact) <= 3.0 * mc.stderr[0]


@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("route", ["spectral", "bare"])
def test_monte_carlo_agrees_with_dissipative_and_bare_forms(route, echo):
    # the exponent routes that criterion 03 (soft core, gamma = 0) does not
    # reach: the soft-core spectral rule at gamma > 0 and the bare
    # erf/Dawson form; one fixed seed, boxes above 20 interaction ranges
    if route == "spectral":
        sp = spec_at(0.3, 0.6, echo, gamma=0.3)  # V0 = 1: V0 t = 2, gamma/V0 = 0.3
        n_atoms = 600
    else:
        bare = derive_potential(DressingParams(0.0, 0.0, -1.0), PotentialKind.BARE_VDW)
        sp = GasSpec(0.05, bare, RamseyProtocol(0.9, echo, 0.5, 0.0))
        n_atoms = 800
    t = 2.0
    mc = monte_carlo_gas(sp, [t], n_samples=24, n_atoms=n_atoms, seed=0)
    exact = contrast_gas(sp, t)
    assert abs(mc.mean[0] - exact) <= 3.0 * mc.stderr[0]


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
def test_monte_carlo_deterministic_per_seed():
    sp = spec_at(0.1, math.pi / 2, False)
    a = monte_carlo_gas(sp, [1.0, 2.0], n_samples=6, n_atoms=64, seed=11)
    b = monte_carlo_gas(sp, [1.0, 2.0], n_samples=6, n_atoms=64, seed=11)
    assert np.array_equal(a.samples, b.samples)
    c = monte_carlo_gas(sp, [1.0, 2.0], n_samples=6, n_atoms=64, seed=12)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("kind", ["soft_core", "bare"])
def test_monte_carlo_with_no_times(kind):
    # a bare gas raised numpy's ValueError from the empty times' max; both
    # potentials give an empty result, as contrast_gas does, and no
    # BiasWarning (this soft-core box holds 64 atoms in 30 r_c)
    if kind == "soft_core":
        sp = spec_at(0.01, math.pi / 2, True)
    else:
        bare = derive_potential(DressingParams(0.0, 0.0, -1.0), PotentialKind.BARE_VDW)
        sp = GasSpec(0.05, bare, RamseyProtocol(0.9, True, 0.5, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc = monte_carlo_gas(sp, [], n_samples=3, n_atoms=64, seed=0)
    assert mc.mean.shape == mc.stderr.shape == contrast_gas(sp, np.array([])).shape == (0,)
    assert mc.samples.shape == (3, 0)


def minimum_image_couplings(pot, box, n_atoms, stream):
    """The couplings of one Monte Carlo sample, rebuilt from its substream.

    Squared distances are taken in box units and scaled to q = (r/r_c)^2
    (soft core) or r^2 (bare) by one factor, as the sampler takes them: a
    bare gas reaches pair phases V t ~ 1e5, which turn a 1-ulp change of
    a distance into ~1e-11 of the coherence.
    """
    u = np.random.default_rng(stream).random((n_atoms, 3))
    d = u[:, None, :] - u[None, :, :]
    d -= np.rint(d)
    scale = (box / pot.r_c) ** 2 if pot.kind is PotentialKind.SOFT_CORE else box * box
    off = ~np.eye(n_atoms, dtype=bool)
    v = np.zeros((n_atoms, n_atoms))
    v[off] = _v_of_q(pot, ((d * d).sum(axis=2) * scale)[off])
    return v


def assert_samples_are_sigma_plus_couplings(sp, times, n_atoms, n_samples, seed):
    # each sample is the exact coherence of its own minimum-image
    # configuration, rebuilt here from the per-sample seed substream
    mc = monte_carlo_gas(sp, times, n_samples=n_samples, n_atoms=n_atoms, seed=seed)
    streams = np.random.SeedSequence(seed).spawn(n_samples)
    for s, stream in enumerate(streams):
        v = minimum_image_couplings(sp.potential, mc.box_length, n_atoms, stream)
        for k, t in enumerate(times):
            want = sigma_plus_couplings(v, sp.protocol, t)
            assert abs(mc.samples[s, k] - want) <= 1e-12 * abs(want)


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
def test_monte_carlo_samples_are_sigma_plus_couplings():
    sp = spec_at(0.5, 1.1, False, gamma=0.2, gamma_d=0.05)
    assert_samples_are_sigma_plus_couplings(sp, [0.7, 2.5], 64, 3, 5)


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
@pytest.mark.parametrize("kind", ["soft_core", "bare"])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_monte_carlo_samples_are_sigma_plus_couplings_across_blocks(kind, echo, gamma):
    # the smallest even atom count whose row blocks (_MC_PAIRS // N rows
    # each, at most N) number at least three with a ragged last one, and the odd count
    # after it: pairs inside a block, across blocks and in the ragged block
    # all count, and the odd count gives odd row widths to the row products
    def layout(n):
        height = min(n, max(1, gas_average._MC_PAIRS // n))
        return -(-n // height), n % height

    n_atoms = next(n for n in range(2, 10**6, 2) if layout(n)[0] >= 3 and layout(n)[1])
    if kind == "soft_core":
        pot = soft_core_potential()
        density = 3.0 * 0.5 / (4.0 * math.pi * pot.r_c**3)
    else:
        pot = derive_potential(DressingParams(0.0, 0.0, 8.0), PotentialKind.BARE_VDW)
        density = 0.04
    sp = GasSpec(density, pot, RamseyProtocol(1.1, echo, gamma, 0.05))
    for n in (n_atoms, n_atoms + 1):
        n_blocks, ragged = layout(n)
        assert n_blocks >= 3 and ragged
        assert_samples_are_sigma_plus_couplings(sp, [0.7, 2.5], n, 2, 7)


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
@pytest.mark.parametrize("gamma", [0.0, 0.2])
@pytest.mark.parametrize("n_atoms", [2, 3, 8])
def test_monte_carlo_small_gas_is_one_block(n_atoms, gamma):
    # a gas far below the pair budget is one block of N rows, not
    # _MC_PAIRS // N rows: the block mask and buffers stay at N^2
    sp = spec_at(0.5, 1.1, False, gamma=gamma, gamma_d=0.05)
    assert_samples_are_sigma_plus_couplings(sp, [0.7, 2.5], n_atoms, 3, 5)


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_monte_carlo_block_split_changes_only_rounding(monkeypatch, echo, gamma):
    # the pair budget only regroups the column products: 300 atoms are two
    # blocks at the default budget and 100 blocks of 3 rows at 2^10 pairs,
    # through the kernel's buffers, without (gamma = 0) or with its emission term
    sp = spec_at(0.5, 1.1, echo, gamma=gamma, gamma_d=0.05)

    def samples():
        return monte_carlo_gas(sp, [0.7, 2.5], n_samples=2, n_atoms=300, seed=3).samples

    want = samples()
    monkeypatch.setattr(gas_average, "_MC_PAIRS", 2**10)
    got = samples()
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
def test_monte_carlo_exact_zero_factor_kills_both_atoms(monkeypatch):
    # a pair is evaluated once, as (j, k) with j < k; forcing its factor to
    # an exact zero must still remove both atoms j and k from the sample
    sp = spec_at(0.5, 1.1, False, gamma=0.2)
    n_atoms, seed, t = 300, 9, 1.5
    box = (n_atoms / sp.density) ** (1.0 / 3.0)
    stream = np.random.SeedSequence(seed).spawn(2)[0]
    v = minimum_image_couplings(sp.potential, box, n_atoms, stream)
    top = np.unique(np.abs(v))[-2:]
    cut = 0.5 * (top[0] + top[1]) * t  # between the two strongest pairs
    kernel = gas_average._half_angle_kernel

    def zeroing_kernel(v, t, theta, beta, out, *scratch):
        kernel(v, t, theta, beta, out, *scratch)
        out[np.abs(v * t) > cut] = 0.0

    monkeypatch.setattr(gas_average, "_half_angle_kernel", zeroing_kernel)
    mc = monte_carlo_gas(sp, [t], n_samples=2, n_atoms=n_atoms, seed=seed)
    proto = sp.protocol
    factors = f_kernel(v * t, proto.gamma * t, proto.theta, proto.beta)
    factors[np.abs(v * t) > cut] = 0.0
    np.fill_diagonal(factors, 1.0)
    rows = np.prod(factors, axis=1)
    assert np.count_nonzero(rows == 0.0) == 2
    want = gas_average._envelope(proto, t) * rows.mean()
    assert abs(mc.samples[0, 0] - want) <= 1e-12 * abs(want)


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
def test_monte_carlo_time_loop_allocates_no_block_array():
    # a call holds four float buffers of a block's size (d, its rounding
    # and q, then the kernel's float scratch; and V) and one complex buffer
    # (the pair factors), 48 bytes per pair, and at gamma > 0 one more
    # complex buffer (the kernel's emission scratch), 64 bytes per pair.
    # The rest of what it allocates is O(N) or a block's height times the
    # row products' lanes: below one more float buffer at gamma = 0, and
    # below two more complex buffers at gamma > 0, whose bound two
    # block-sized complex temporaries per time would break
    n_atoms = 1000
    pairs = min(n_atoms, gas_average._MC_PAIRS // n_atoms) * n_atoms
    for gamma, bytes_per_pair in ((0.0, 48 + 8), (0.2, 96)):
        sp = spec_at(0.5, 1.1, True, gamma)

        def run():
            return monte_carlo_gas(sp, [0.7, 2.5], n_samples=2, n_atoms=n_atoms, seed=3)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_pair * pairs, (gamma, peak / pairs)


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
@pytest.mark.parametrize("n_atoms", [5, 300])
def test_monte_carlo_bare_coincident_atoms_are_singular(monkeypatch, n_atoms):
    # the self-pairs on a block's diagonal take a placeholder distance, but
    # two atoms of a sample that coincide make the bare 1/r^6 diverge, in
    # one block (5 atoms) or across blocks (300 atoms: 218 rows, then 82)
    bare = derive_potential(DressingParams(0.0, 0.0, 8.0), PotentialKind.BARE_VDW)
    default_rng = np.random.default_rng

    class FirstAtomTwice:
        def __init__(self, stream):
            self.rng = default_rng(stream)

        def random(self, shape):
            u = self.rng.random(shape)
            u[-1] = u[0]
            return u

    monkeypatch.setattr(np.random, "default_rng", FirstAtomTwice)
    sp = GasSpec(0.04, bare, RamseyProtocol(1.1, False, 0.0, 0.0))
    with pytest.raises(SingularityError):
        monte_carlo_gas(sp, [0.7], n_samples=2, n_atoms=n_atoms, seed=3)
    soft = spec_at(0.5, 1.1, False)  # V(0) = V0 is finite
    assert np.all(np.isfinite(monte_carlo_gas(soft, [0.7], 2, n_atoms, 3).samples))


def test_monte_carlo_soft_core_needs_r_c():
    # only a hand-built soft core has r_c = 0, which q = (r/r_c)^2 divides by
    pot = InteractionPotential(PotentialKind.SOFT_CORE, 0.1, 0.0, -1.0, 0.0)
    with pytest.raises(ParameterError, match="r_c > 0"):
        monte_carlo_gas(GasSpec(1.0, pot, RamseyProtocol(1.0, False)), [1.0], 2, 5, 0)


def test_monte_carlo_small_box_warns():
    sp = spec_at(1.0, math.pi / 2, False)
    with pytest.warns(BiasWarning):
        monte_carlo_gas(sp, [1.0], n_samples=2, n_atoms=64, seed=0)


def test_low_density_amplitude_constants():
    assert low_density_amplitude(0) == pytest.approx(math.sqrt(math.pi) / 2.0)
    assert low_density_amplitude(1) == pytest.approx(math.sqrt(math.pi) / 2.0**1.5)


def test_low_density_asymptote_accuracy():
    for beta in (0, 1):
        for v0t in (0.01, 1.0, 20.0):
            point = DimensionlessPoint(
                n_r=0.01, v0t=v0t, theta=math.pi / 2, beta=beta
            )
            sp, t = point.to_physical()
            exact = abs(contrast_gas(sp, t))
            assert low_density_contrast(0.01, v0t, beta) == pytest.approx(exact, rel=0.01)


def test_high_density_asymptote_form():
    # the returned value is exactly the hard-core exponential; no hidden
    # corrections sneak in
    for beta, v0t in ((0, 1.0), (1, 0.7)):
        value = high_density_contrast(100.0, v0t, beta, b=1.3)
        want = math.exp(
            -1.3 * 100.0 * (1.0 - math.cos(0.5 * v0t) ** (beta + 1))
        )
        assert value == pytest.approx(want, rel=1e-12)
    # a float gives a float, an array its own shape, elementwise the float
    # values; both laws equal 1 at V0 t = 0
    v0t = np.array([0.0, 0.01, 1.0, 20.0])
    for law in (low_density_contrast, high_density_contrast):
        for beta in (0, 1):
            assert type(law(0.5, 1.0, beta)) is float
            values = law(0.5, v0t, beta)
            assert values.shape == v0t.shape
            assert values[0] == 1.0
            for got, x in zip(values, v0t):
                assert got == pytest.approx(law(0.5, float(x), beta), rel=4e-16)
        for n_r, x, beta in ((0.5, 1.0, 2), (0.0, 1.0, 0), (-1.0, 1.0, 1),
                             (0.5, -1e-3, 0), (0.5, np.array([1.0, -2.0]), 1),
                             (0.5, math.nan, 0)):
            with pytest.raises(ParameterError):
                law(n_r, x, beta)


@pytest.mark.parametrize(
    "law, args, match",
    [
        (low_density_contrast, (math.inf, 0.0, 0), "n_r must be positive"),
        (low_density_contrast, (math.nan, 1.0, 1), "n_r must be positive"),
        (low_density_contrast, (1.0, np.array([1.0, math.inf]), 0), "asymptotic laws need V0 t >= 0"),
        (high_density_contrast, (1.0, math.inf, 0), "asymptotic laws need V0 t >= 0"),
        (high_density_contrast, (math.inf, 1.0, 1), "n_r must be positive"),
    ],
)
def test_asymptotic_laws_refuse_non_finite_input(law, args, match):
    # each returned nan with a RuntimeWarning, an error under the suite's filter
    with pytest.raises(ParameterError, match=match):
        law(*args)


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_high_density_law_refuses_non_finite_b(b):
    # b = nan returned nan with no warning at all
    with pytest.raises(ParameterError, match="b must be finite"):
        high_density_contrast(1.0, 1.0, 0, b=b)


def test_high_density_fitted_b_and_half_time():
    """Fitted hard-core amplitude is order unity and nails the half-time.

    The naive hard core has B = 1; fitting against the exact soft-core
    decay at N_R = 100 lands near 1 for the echo sequence and somewhat
    above it without the echo. The quality measure that matters for the
    density scans is the half-time the asymptote predicts, so that is
    what is pinned here (echo within 15%, non-echo within 30%; measured
    -11% and -25%).
    """
    for beta, b_lo, b_hi, tau_rel in ((0, 0.9, 1.1, 0.15), (1, 1.0, 1.6, 0.30)):
        pt = DimensionlessPoint(n_r=100.0, v0t=1.0, theta=math.pi / 2, beta=beta)
        sp, _ = pt.to_physical()
        times = np.linspace(0.05, 2.0 * math.pi, 40) / sp.potential.v0
        b = fit_hardcore_amplitude(sp, times)
        assert b_lo < b < b_hi
        target = math.log(2.0) / (b * 100.0)
        t_pred = 2.0 * math.acos((1.0 - target) ** (1.0 / (beta + 1)))
        assert t_pred == pytest.approx(
            sp.potential.v0 * tau_half(sp), rel=tau_rel
        )


def hardcore_fit_spec(theta=math.pi / 2, gamma_over_v0=0.0):
    point = DimensionlessPoint(n_r=100.0, v0t=1.0, theta=theta, beta=0, gamma_over_v0=gamma_over_v0)
    return point.to_physical()[0]


@pytest.mark.parametrize("theta, gamma_over_v0", [(math.pi / 3, 0.0), (math.pi / 2, 0.1)])
def test_hardcore_fit_refuses_other_regimes(theta, gamma_over_v0):
    sp = hardcore_fit_spec(theta=theta, gamma_over_v0=gamma_over_v0)
    with pytest.raises(UnsupportedRegimeError, match="theta = pi/2, gamma = 0"):
        fit_hardcore_amplitude(sp, [0.5, 1.0])


def test_hardcore_fit_refuses_a_bare_potential():
    sp = GasSpec(1.0, bare_vdw(), RamseyProtocol(math.pi / 2, True, 0.0, 0.0))
    with pytest.raises(UnsupportedRegimeError, match="needs a soft-core potential"):
        fit_hardcore_amplitude(sp, [0.5, 1.0])


@pytest.mark.parametrize(
    "times",
    [[1.0], [0.0, 1.0], [-1.0, 1.0], [[0.1, 0.2], [0.3, 0.4]], [0.1, math.inf], [0.1, math.nan]],
)
def test_hardcore_fit_checks_its_times_first(times):
    # a 2-D array raised an IndexError and an infinite time warned in
    # np.cos before the ParameterError; the suite turns warnings into errors
    with pytest.raises(ParameterError, match="at least two finite positive times"):
        fit_hardcore_amplitude(hardcore_fit_spec(), times)


def test_hardcore_fit_refuses_an_all_zero_predictor():
    # V0 = 1 rad/us: 1 - cos(V0 t / 2) vanishes at t = 4 pi and 8 pi
    sp = hardcore_fit_spec()
    assert sp.potential.v0 == 1.0
    with pytest.raises(ParameterError, match="identically zero predictor"):
        fit_hardcore_amplitude(sp, [4.0 * math.pi, 8.0 * math.pi])


def test_tau_half_scaling_and_collapse():
    sp1 = spec_at(1.0, math.pi / 2, True)
    tau1 = tau_half(sp1)
    # doubling V0 at fixed N_R halves tau
    pot2 = derive_potential(
        DressingParams(1000.0 * 2**0.25, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    sp2 = spec_at(1.0, math.pi / 2, True, pot=pot2)
    assert pot2.v0 == pytest.approx(2.0, rel=1e-12)
    assert tau_half(sp2) == pytest.approx(tau1 / 2.0, rel=1e-8)


def test_tau_half_echo_noecho_ratio_dilute():
    # sqrt-law regime: non-echo takes twice as long as echo at theta=pi/2
    te = tau_half(spec_at(1e-3, math.pi / 2, True))
    tn = tau_half(spec_at(1e-3, math.pi / 2, False))
    assert tn / te == pytest.approx(2.0, rel=5e-3)


def test_tau_half_dissipation_dominated():
    gamma = 0.35
    sp = spec_at(1e-12, math.pi / 2, False, gamma=gamma)
    assert tau_half(sp) == pytest.approx(2.0 * math.log(2.0) / gamma, rel=1e-6)


def test_tau_half_is_smallest_crossing():
    sp = spec_at(4.0, math.pi / 2, False)
    tau = tau_half(sp)
    probe = np.linspace(1e-4 * tau, 0.999 * tau, 50)
    c0 = math.sin(math.pi / 2)
    for t in probe:
        assert abs(contrast_gas(sp, t)) > 0.5 * c0


def test_tau_half_dense_bare_gas_underflow():
    # at density 1e100 tau_1/2 ~ 7e-206 us is still a float; at 1e160 it
    # is ~1e-326 us, below the smallest one, which is not "no decay"
    pot = derive_potential(DressingParams(0.0, 0.0, -1e4), PotentialKind.BARE_VDW)
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    tau = tau_half(GasSpec(1e100, pot, proto))
    assert tau == pytest.approx(6.97e-206, rel=1e-3)
    # with emission the slowest scale is finite, but the floor is still 0
    for gamma in (0.0, 0.1):
        sp = GasSpec(1e160, pot, RamseyProtocol(math.pi / 2, False, gamma, 0.0))
        with pytest.raises(ParameterError, match="underflow"):
            tau_half(sp)
    # an undriven soft core (V0 = 0) without dissipation has no channel
    silent = derive_potential(DressingParams(0.0, 5000.0, -1e4), PotentialKind.SOFT_CORE)
    assert silent.v0 == 0.0
    with pytest.raises(ParameterError, match="no decay channel"):
        tau_half(GasSpec(1e160, silent, proto))


def test_tau_half_dilute_gas_overflow():
    # without dissipation the scan runs up to the largest float: at
    # N_R = 1e-150 and 1e-154 tau_1/2 ~ 1.2e300 and 1.2e308 us follows the
    # square-root law, at 2e-155 it lies beyond the largest float; at
    # N_R = 1e-300, and for a bare gas at density 1e-300, the proven floor
    # itself overflows, which is reported rather than scanned from
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    soft = soft_core_potential()
    for n_r in (1e-150, 1e-154):
        tau = tau_half(GasSpec.from_blockade_number(n_r, soft, proto))
        law = (math.log(2.0) / (low_density_amplitude(1) * n_r)) ** 2 / soft.v0
        assert tau == pytest.approx(law, rel=1e-9)
    with pytest.raises(CrossingNotFoundError) as err:
        tau_half(GasSpec.from_blockade_number(2e-155, soft, proto))
    assert err.value.diagnostics["max_time"] == sys.float_info.max
    bare = derive_potential(DressingParams(0.0, 0.0, -1e4), PotentialKind.BARE_VDW)
    for sp in (GasSpec.from_blockade_number(1e-300, soft, proto), GasSpec(1e-300, bare, proto)):
        with pytest.raises(ParameterError, match="overflow"):
            tau_half(sp)
    # with emission the envelope bounds the crossing, whatever the density
    gamma = 0.1
    sp = GasSpec.from_blockade_number(1e-300, soft, RamseyProtocol(math.pi / 2, False, gamma, 0.0))
    assert tau_half(sp) == pytest.approx(2.0 * math.log(2.0) / gamma, rel=1e-6)


def test_tau_window_takes_numpy_scalars_without_warnings():
    # CLI grids pass N_R as a numpy scalar; the window's squares must not
    # overflow as np.float64 at either end of the float range
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    soft = soft_core_potential()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dense = GasSpec.from_blockade_number(np.float64(1e306), soft, proto)
        assert 0.0 < tau_half(dense) < math.inf
        dilute = GasSpec.from_blockade_number(np.float64(1e-155), soft, proto)
        with pytest.raises(ParameterError, match="overflow"):
            tau_half(dilute)


def test_tau_half_does_not_depend_on_the_ceiling(monkeypatch):
    # the probes sit at lo 10^(k/25) whatever the ceiling, so a cluster of
    # crossings (unitary echo gas at N_R = 10^-1.8: V0 t = 2433.58, 2436.21,
    # 2439.14) resolves to the same crossing for every ceiling above it;
    # on a grid spanning lo to hi, the ceilings 1.7e5, 3.7e5 and 2.4e6
    # returned 2439.14
    sp = spec_at(10**-1.8, math.pi / 2, True)
    tau = tau_half(sp)
    assert sp.potential.v0 * tau == pytest.approx(2433.5797, abs=1e-4)
    window = gas_average._tau_window
    for ceiling in (3e3, 1.7e5, 3.7e5, 2.4e6, 1e100):
        monkeypatch.setattr(
            gas_average, "_tau_window", lambda bounds, h=ceiling: (window(bounds)[0], h)
        )
        assert tau_half(sp) == tau, ceiling


def test_tau_half_small_theta_follows_sqrt_law():
    # without echo the decay amplitude is weighted by 2 sin^2(theta/2) =
    # 1 - cos(theta): at theta = pi/20 that puts the crossing at V0 t ~ 8e15,
    # at theta = 0.3 about 501 times later than at pi/2
    a = low_density_amplitude(1)
    for theta, n_r, want in ((math.pi / 20, 1e-6, 8.07e15), (0.3, 1e-3, 6.133e8)):
        sp = spec_at(n_r, theta, False)
        law = (math.log(2.0) / (a * n_r * (1.0 - math.cos(theta)))) ** 2 / sp.potential.v0
        assert law == pytest.approx(want, rel=1e-3)
        assert tau_half(sp) == pytest.approx(law, rel=1e-6)
    for n_r in (1e-2, 1.0):
        sp = spec_at(n_r, 0.3, False)
        assert abs(contrast_gas(sp, tau_half(sp))) == pytest.approx(0.5 * math.sin(0.3), rel=1e-8)


def test_k_bessel_large_argument():
    # K(y) -> sqrt(pi y / 2) (1 - i), with corrections below 1/y, far past
    # where scipy's j0/j1 lose their phase; the Bessel and Hankel-series
    # forms meet at the switch
    for y in np.geomspace(1e3, 1e300, 75):
        want = math.sqrt(math.pi * y / 2.0) * (1.0 - 1j)
        assert abs(gas_average._k_bessel(y) / want - 1.0) <= 1.0 / y + 1e-15
        assert abs(gas_average._k_bessel(-y) / want.conjugate() - 1.0) <= 1.0 / y + 1e-15
    switch = 2.0 * gas_average._H_HANKEL
    below = gas_average._k_bessel(float(np.nextafter(switch, 0.0)))
    above = gas_average._k_bessel(switch)
    assert abs(below - above) <= 1e-14 * abs(above)


# Agreement of the in-house special functions with scipy's. J0 and J1 are
# measured against |J1 + i J0|, the modulus K(y) needs, which never
# vanishes; the moments against the exact small-g limit where scipy's own
# rounding (up to ~1e-13 below g = 1e-4) dominates.
J01_TOL = 3e-14
MOMENT_TOL = 1e-13
MOMENT_LIMIT_TOL = 1e-15
DAWSON_TOL = 3e-14


def test_j01_matches_scipy():
    switch = gas_average._H_SERIES
    hs = np.concatenate([
        [0.0],
        np.geomspace(1e-8, gas_average._H_HANKEL, 4200, endpoint=False),
        np.linspace(0.9 * switch, 1.1 * switch, 401),
        [np.nextafter(switch, 0.0), np.nextafter(gas_average._H_HANKEL, 0.0)],
    ])
    for h in hs.tolist():
        got0, got1 = gas_average._j01(h)
        want = complex(j1(h), j0(h))
        assert abs(complex(got1, got0) - want) <= J01_TOL * abs(want), h


def test_taylor_moments_match_scipy_and_the_small_g_limit():
    # a_m = P(m+1, g) / g^(m+1) = 1/(m+1)! - g/(m! (m+2)) + O(g^2)
    n_max = gas_average._TAYLOR_MAX
    switches = [float(x) for n in range(2, n_max + 1) for x in (n, np.nextafter(n, np.inf))]
    gs = [0.0, 5e-324, 1e-310, *np.geomspace(1e-300, 1e4, 1301).tolist(), *switches]
    for n in range(2, n_max + 1):
        for g in gs:
            got = gas_average._taylor_moments(g, n)
            assert len(got) == n
            for m in range(n):
                if g < 1e-10:
                    want = (1.0 / (m + 1) - g / (m + 2)) / math.factorial(m)
                    tol = MOMENT_LIMIT_TOL
                else:
                    want = gammainc(m + 1, g) * g ** -(m + 1.0)
                    tol = MOMENT_TOL
                assert abs(got[m] - want) <= tol * want, (n, g, m)


def test_dawson_matches_scipy():
    switch = gas_average._X_DAWSON
    assert gas_average._dawson(0.0) == 0.0
    xs = np.concatenate([
        np.geomspace(1e-8, 1e8, 4000),
        np.linspace(0.9 * switch, 1.1 * switch, 401),
        [np.nextafter(switch, 0.0)],
    ])
    for x in xs.tolist():
        want = dawsn(x)
        assert abs(gas_average._dawson(x) - want) <= DAWSON_TOL * want, x


@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_phase_bound(beta):
    # |1 - f| <= min(2, kappa |X|), kappa = 1 (no echo) or 1/2 (echo), at
    # every g >= 0: the bound behind tau_half's scan floor. f is O(1), so
    # its rounding enters as 1e-16 absolute on top of 1e-9 relative.
    kappa = 1.0 if beta == 1 else 0.5
    mag = np.logspace(-8, 4, 241)
    x = np.concatenate((-mag[::-1], mag))
    bound = np.minimum(2.0, kappa * np.abs(x))
    for g in np.concatenate(([0.0], np.logspace(-12, 3, 31))):
        for theta in np.linspace(0.0, math.pi, 13):
            gap = np.abs(1.0 - f_kernel(x, g, theta, beta)) - bound
            assert np.all(gap <= 1e-9 * bound + 1e-16), (g, theta)


@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_step_bound(beta):
    # for t_b >= t_a: |f(t_b) - f(t_a)| <= kappa |V| (t_b - t_a) and
    # |Re f(t_b) - Re f(t_a)| <= kappa^2 V^2 (t_b - t_a) t_b, f at
    # (V t, gamma t), kappa = 1 (no echo) or 1/2 (echo), at every gamma >= 0
    # and either sign of V: the step bounds behind tau_half's skip rule
    # (proved in its docstring). Rounding: f is O(1), and X = V t is
    # rounded to 2^-53 |X| at each end, which moves f by at most
    # kappa 2^-53 |X|.
    kappa = 1.0 if beta == 1 else 0.5
    mag = np.logspace(-4, 4, 81)
    v = np.concatenate((-mag[::-1], mag))
    gammas = np.concatenate(([0.0, 5e-324, 1e-310], np.logspace(-12, 3, 31)))
    sharpest = 0.0
    for gamma in gammas:
        for theta in np.linspace(0.0, math.pi, 13):
            for t_a in (0.0, 0.37, 2.0, 11.0):
                for step in np.logspace(-8, 1, 10):
                    t_b = t_a + step
                    jump = f_kernel(v * t_b, gamma * t_b, theta, beta) - f_kernel(
                        v * t_a, gamma * t_a, theta, beta
                    )
                    bound = kappa * np.abs(v) * (t_b - t_a)
                    rounding = 4e-16 + 2**-52 * np.abs(v) * t_b
                    case = (gamma, theta, t_a, step)
                    assert np.all(np.abs(jump) - bound <= rounding), case
                    assert np.all(np.abs(jump.real) - bound * kappa * np.abs(v) * t_b <= rounding), case
                    sharpest = max(sharpest, float(np.max(np.abs(jump) / bound)))
    # kappa is attained (at t_a = 0 and theta = 0 or pi): a smaller one fails
    assert sharpest > 0.999


@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 1.0 / 21.0])
def test_gas_step_bound(echo, gamma):
    # the gas form of the step bounds, with _tau_bounds' constants:
    # |Re I(t_b) - Re I(t_a)| <= min(b Delta, c sqrt(Delta), d Delta t_b)
    # (soft core) or c sqrt(Delta) (bare), Re I good to 1e-8 relative
    proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.05)
    bare = derive_potential(DressingParams(0.0, 0.0, -1e4), PotentialKind.BARE_VDW)
    specs = [spec_at(n_r, math.pi / 2, echo, gamma, 0.05) for n_r in (1e-3, 1.0, 1e3)]
    specs += [GasSpec(density, bare, proto) for density in (1e-3, 0.05)]
    for sp in specs:
        b, c, d, rate = gas_average._tau_bounds(sp)
        assert rate == gamma / 2.0 + 0.05
        lo = gas_average._tau_window((b, c, d, rate))[0]
        for t_a in lo * np.array([0.0, 1.0, 10.0, 100.0]):
            for step in lo * np.logspace(-3, 2, 11):
                t_b = t_a + step
                re_a = exponent_integral(sp, t_a).real
                re_b = exponent_integral(sp, t_b).real
                bound = min(b * step, c * math.sqrt(step), d * step * t_b) if b else c * math.sqrt(step)
                assert abs(re_b - re_a) <= bound + 1e-8 * max(re_a, re_b) + 1e-15, (sp, t_a, step)


WINDOW_NR = (1e-6, 1e-3, 1.0, 1e3)


def window_protocols():
    for theta in (0.157, 1.0, math.pi / 2, 2.5):
        for echo in (True, False):
            for gamma in (0.0, 1.0 / 21.0, 3.0):
                for gamma_d in (0.0, 0.1):
                    yield RamseyProtocol(theta, echo, gamma, gamma_d)


def window_gases():
    soft = soft_core_potential()
    bare = [derive_potential(DressingParams(0.0, 0.0, c6), PotentialKind.BARE_VDW)
            for c6 in (-1e4, 2.5e3)]
    for proto in window_protocols():
        for n_r in WINDOW_NR:
            yield GasSpec.from_blockade_number(n_r, soft, proto)
        for pot in bare:
            for density in (1e-3, 0.05, 10.0):
                yield GasSpec(density, pot, proto)


def test_tau_window_floor_is_above_half():
    # the proven floor: the contrast ratio is above 1/2 at the first probe
    # and at t_lb itself, and the window is not empty
    for sp in window_gases():
        lo, hi = gas_average._tau_window(gas_average._tau_bounds(sp))
        c0 = abs(math.sin(sp.protocol.theta))
        assert abs(contrast_gas(sp, lo)) / c0 > 0.5
        assert abs(contrast_gas(sp, lo / 0.99)) / c0 >= 0.5
        assert hi / lo > 1.0


def pointwise_tau_half(spec):
    """tau_half's walk with a probe at every grid point, each a float
    contrast_gas call: from the floor of _tau_window along _tau_grid to the
    first step from a ratio above 1/2 to one at or below it, polished by
    scipy's brentq."""
    c0 = abs(np.sin(spec.protocol.theta))

    def ratio(t):
        return abs(contrast_gas(spec, t)) / c0

    lo, hi = gas_average._tau_window(gas_average._tau_bounds(spec))
    t_prev = r_prev = math.nan
    for t in gas_average._tau_grid(lo, hi):
        t = float(t)
        r = ratio(t)
        if r_prev > 0.5 >= r:
            return scipy_brentq(lambda tt: ratio(tt) - 0.5, t_prev, t, 1e-12 * t, 1e-10)
        t_prev, r_prev = t, r
    raise CrossingNotFoundError(
        "contrast did not reach half below the search ceiling",
        diagnostics={"max_time": float(hi), "ratio_at_max": float(r_prev)},
    )


def tau_outcome(find, spec):
    """The float find returns, or the type, message and diagnostics of
    what it raises."""
    try:
        return find(spec)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "diagnostics", None)


def test_tau_half_skips_only_proven_points():
    # the skip rule changes which grid points are probed, never the
    # bracket: every tau_1/2 (and every error) equals the walk that probes
    # each point with float calls and polishes with scipy's brentq, bit for
    # bit, on the window gases, on fig3's N_R grid at gamma = 0 and at
    # sr_dressed.json's gamma = 1/21, on the frozen gases, a crossing
    # cluster, theta = 0.3, a dense bare gas and a crossing near 1.2e308 us
    bare = derive_potential(DressingParams(0.0, 0.0, -1e4), PotentialKind.BARE_VDW)
    specs = list(window_gases())
    specs += [spec_at(n_r, math.pi / 2, echo, gamma=gamma) for n_r, echo, gamma in SOFT_CORE_TAU]
    specs += [
        spec_at(10**-1.8, math.pi / 2, True),
        spec_at(1e-3, 0.3, False),
        GasSpec(1e100, bare, RamseyProtocol(math.pi / 2, False, 0.0, 0.0)),
        GasSpec.from_blockade_number(1e-154, soft_core_potential(), RamseyProtocol(math.pi / 2, False, 0.0, 0.0)),
    ]
    soft = soft_core_potential()
    for gamma in (0.0, 1.0 / 21.0):
        for echo in (True, False):
            proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.0)
            specs += [GasSpec.from_blockade_number(n_r, soft, proto)
                      for n_r in np.geomspace(1e-3, 1e3, 31)]
    for sp in specs:
        got = tau_outcome(tau_half, sp)
        assert got == tau_outcome(pointwise_tau_half, sp), sp


def loop_outcome(pot, proto, nr_values):
    """One tau_half call per N_R, the reference of the lockstep tables,
    as tau_outcome reports it."""
    def loop(_):
        return [tau_half(GasSpec.from_blockade_number(n_r, pot, proto)) for n_r in nr_values]

    return tau_outcome(loop, None)


def table_outcome(pot, proto, nr_values):
    gases = (GasSpec.from_blockade_number(n_r, pot, proto) for n_r in nr_values)
    return tau_outcome(lambda _: gas_average._tau_half_table(gases), None)


def assert_table_is_the_loop(pot, proto, nr_values):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = table_outcome(pot, proto, nr_values)
        want = loop_outcome(pot, proto, nr_values)
    assert got == want, (proto, nr_values)
    if isinstance(want, list):
        assert [type(t) for t in got] == [float] * len(want)
    return got


@pytest.mark.parametrize("theta", [math.pi / 2, 0.3])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 1.0 / 21.0])
def test_tau_table_equals_the_tau_half_loop_on_the_fig3_grid(theta, echo, gamma):
    # fig3's 31-point N_R grid, ideal and at sr_dressed.json's emission
    # rate: every tau_1/2 bit for bit
    proto = RamseyProtocol(theta, echo, gamma, 0.0)
    taus = assert_table_is_the_loop(soft_core_potential(), proto, np.geomspace(1e-3, 1e3, 31))
    assert len(taus) == 31


def test_tau_table_equals_the_tau_half_loop_on_the_window_gases():
    # every soft-core window gas, a table of its four N_R per protocol; a
    # bare potential has no blockade number, in a table as in the loop
    bare = derive_potential(DressingParams(0.0, 0.0, -1e4), PotentialKind.BARE_VDW)
    for proto in window_protocols():
        assert_table_is_the_loop(soft_core_potential(), proto, WINDOW_NR)
        assert_table_is_the_loop(soft_core_potential(), proto, WINDOW_NR[::-1])
    got = assert_table_is_the_loop(bare, proto, WINDOW_NR)
    assert got[0] is UnsupportedRegimeError
    assert gas_average._tau_half_table([]) == []


@pytest.mark.parametrize("c6", [-1e4, 5.0])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_tau_table_equals_the_tau_half_loop_on_bare_gases(c6, echo, gamma):
    # the rounds evaluate bare gases too, densities 1e-4 to 1e100 (a
    # crossing near 1e-206 us): every tau_1/2 bit for bit, no RuntimeWarning
    bare = derive_potential(DressingParams(0.0, 0.0, c6), PotentialKind.BARE_VDW)
    proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.0)
    gases = [GasSpec(density, bare, proto) for density in np.geomspace(1e-4, 1e100, 27)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = gas_average._tau_half_table(gases)
        assert got == [tau_half(sp) for sp in gases]
    assert [type(t) for t in got] == [float] * len(gases)


def test_tau_table_equals_the_tau_half_loop_at_the_float_extremes():
    # tau_1/2 near the largest float (1e-150, 1e-154), beyond it (2e-155),
    # a floor that overflows (1e-300), a very dense gas (1e306) and a
    # density that overflows (1e308, as a CLI grid's numpy scalar), one by
    # one and together, with and without emission; no RuntimeWarning
    extremes = [1e-150, 1e-154, 2e-155, 1e-300, np.float64(1e306), np.float64(1e308)]
    for gamma in (0.0, 0.1):
        for echo in (True, False):
            proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.0)
            for n_r in extremes:
                assert_table_is_the_loop(soft_core_potential(), proto, [n_r])
            assert_table_is_the_loop(soft_core_potential(), proto, extremes)
            assert_table_is_the_loop(soft_core_potential(), proto, extremes[:2] + extremes[4:5])


def test_tau_table_raises_the_error_of_the_lowest_failing_index():
    # N_R = 2e-155 fails late (no crossing below the largest float, after a
    # walk of many probes); 1e-300 fails at its window and 1e308 at its
    # GasSpec, before any probe. The lowest index wins whenever it fails.
    soft = soft_core_potential()
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    late, window, spec = 2e-155, 1e-300, 1e308
    cases = {
        (late, 1.0, spec): CrossingNotFoundError,
        (late, window, 1.0): CrossingNotFoundError,
        (1.0, window, late): ParameterError,
        (spec, late): ParameterError,
    }
    for nr_values, error in cases.items():
        got = assert_table_is_the_loop(soft, proto, nr_values)
        assert got[0] is error
    assert "below the search ceiling" in table_outcome(soft, proto, (late, window))[1]


def test_tau_table_takes_one_gas_family():
    # every round evaluates its walks with one potential and protocol, the
    # first gas's: an echo gas tabled before a no-echo one returned
    # 2.109065582019057 where its tau_1/2 is 2.795748176942694. A later gas
    # of another family is now that gas's walk error, and the lowest
    # walk error is raised, as for every walk error
    soft = soft_core_potential()
    echo, noecho = (RamseyProtocol(math.pi / 2, e, 0.0, 0.0) for e in (True, False))
    gas = GasSpec.from_blockade_number(1.0, soft, echo)
    moved = derive_potential(DressingParams(1000.0, 5000.0, -2.0e4), PotentialKind.SOFT_CORE)
    late = GasSpec.from_blockade_number(2e-155, soft, noecho)
    message = "one potential and one protocol, but gas 1 differs from gas 0"
    for other in (GasSpec(gas.density, soft, noecho), GasSpec(gas.density, moved, echo)):
        with pytest.raises(ParameterError, match=message):
            gas_average._tau_half_table([gas, other, gas])
    with pytest.raises(CrossingNotFoundError):
        gas_average._tau_half_table([late, gas])
    # equal families built apart share a table
    twin = GasSpec.from_blockade_number(
        10.0, soft_core_potential(), RamseyProtocol(math.pi / 2, True)
    )
    assert gas_average._tau_half_table([gas, twin]) == [tau_half(gas), tau_half(twin)]
    assert tau_half(gas) == 2.795748176942694


def test_soft_core_closed_form_refuses_infinite_v0t():
    # at gamma t = 0 the Bessel route took T = V0 t = inf and returned
    # nan+nanj with no warning; it is a ParameterError naming V0 and the
    # first such t, in float and array calls, and a tau_1/2 walk that
    # probes such a time meets it (it had ended in nan ratios)
    pot = derive_potential(DressingParams(1e6, 5e6, -1e4), PotentialKind.SOFT_CORE)
    assert pot.v0 == pytest.approx(1000.0)
    sp = GasSpec.from_blockade_number(1.0, pot, RamseyProtocol(math.pi / 2, False, 0.0, 0.0))
    message = rf"^V0 t overflows float64 at V0 = {pot.v0!r} rad/us, t = 1e\+308$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (exponent_integral, contrast_gas):
            with pytest.raises(ParameterError, match=message):
                call(sp, 1e308)
        with pytest.raises(ParameterError, match=message):
            contrast_gas(sp, np.array([0.0, 1.0, 1e300, 1e308, 1e307]))
        assert contrast_gas(sp, np.array([0.0, 1e305])).shape == (2,)
        dilute = GasSpec.from_blockade_number(2e-155, pot, sp.protocol)
        for call in (tau_half, lambda g: gas_average._tau_half_table([g])):
            with pytest.raises(ParameterError, match="V0 t overflows float64"):
                call(dilute)


def test_tau_table_records_midpoint_errors_per_walk(monkeypatch):
    # the integrand kinked (as in test_soft_core_nonconvergence_raises)
    # where g = gamma t > 0.6 only: at N_R = 1e-3 the first probe fails, at
    # N_R = 0.158 the seventh, and N_R = 1 ends below the kink. A round that
    # fails answers each walk alone, so the table keeps the late failure of
    # index 0 running past the early one of index 2 and raises it, as the
    # loop does, diagnostics included; every ordering of fig3's grid too.
    true_h = gas_average._soft_core_h

    def h(x, g, theta, beta):
        return np.where(np.asarray(g) > 0.6, np.sqrt(x) + 0j, true_h(x, g, theta, beta))

    monkeypatch.setattr(gas_average, "_soft_core_h", h)
    soft = soft_core_potential()
    proto = RamseyProtocol(math.pi / 2, True, 1.0 / 21.0, 0.0)
    late, fine, early = 0.158, 1.0, 1e-3
    got = assert_table_is_the_loop(soft, proto, [late, fine, early])
    assert got[0] is NumericalError and got[2]["g"] > 0.6
    assert got == table_outcome(soft, proto, [late])
    assert got != table_outcome(soft, proto, [early])
    assert isinstance(assert_table_is_the_loop(soft, proto, [fine]), list)
    nr_values = np.geomspace(1e-3, 1e3, 31)
    for order in (nr_values, nr_values[::-1], nr_values[12:]):
        assert_table_is_the_loop(soft, proto, order)


def test_tau_table_fallback_stops_at_the_first_failed_walk(monkeypatch):
    # the kinked integrand of test_tau_table_records_midpoint_errors_per_walk:
    # N_R = 1e-3's first probe fails, so the first round's array evaluation
    # raises and its probes are answered one at a time. Once index 0 has
    # failed, the probes of indices 1 and 2 are not evaluated (their results
    # would be discarded): one contrast_gas call, and the loop's error
    true_h = gas_average._soft_core_h

    def h(x, g, theta, beta):
        return np.where(np.asarray(g) > 0.6, np.sqrt(x) + 0j, true_h(x, g, theta, beta))

    monkeypatch.setattr(gas_average, "_soft_core_h", h)
    true_contrast = gas_average.contrast_gas
    probes = []

    def counting(spec, t):
        probes.append(spec.n_r)
        return true_contrast(spec, t)

    monkeypatch.setattr(gas_average, "contrast_gas", counting)
    proto = RamseyProtocol(math.pi / 2, True, 1.0 / 21.0, 0.0)
    got = table_outcome(soft_core_potential(), proto, [1e-3, 0.158, 1.0])
    assert probes == [pytest.approx(1e-3)]
    monkeypatch.setattr(gas_average, "contrast_gas", true_contrast)
    assert got[0] is NumericalError
    assert got == loop_outcome(soft_core_potential(), proto, [1e-3, 0.158, 1.0])


# tau_1/2 frozen from a scan seeded by the asymptotic laws rather than the
# proven floor; the two agree to brentq's tolerance
SOFT_CORE_TAU = {
    # (N_R, echo, gamma) -> tau_1/2 at theta = pi/2, V0 = 1 rad/us
    (1e-3, True, 0.0): 611734.4060772341,
    (1e-3, True, 1 / 21): 28.943674136377673,
    (1e-3, False, 0.0): 1223464.1387955418,
    (1e-3, False, 1 / 21): 29.017432583477408,
    (1.0, True, 0.0): 2.795748176942694,
    (1.0, True, 1 / 21): 2.708280009901423,
    (1.0, False, 0.0): 2.109065582019064,
    (1.0, False, 1 / 21): 2.093157491544171,
    (1e3, True, 0.0): 0.08402968738325493,
    (1e3, True, 1 / 21): 0.08396427443185064,
    (1e3, False, 0.0): 0.0594206937737615,
    (1e3, False, 1 / 21): 0.05941602596669919,
}
BARE_TAU = {
    # (C6, echo, theta, gamma, gamma_d) -> tau_1/2 at density 0.05 um^-3
    (-1e4, True, 1.0, 0.0, 0.0): 0.001394581222972562,
    (-1e4, False, 2.0, 0.3, 0.05): 0.0013900471168156918,
    (2.5e3, True, 1.0, 0.0, 0.0): 0.005578324891890244,
    (2.5e3, False, 2.0, 0.3, 0.05): 0.0055514557478094214,
}


@pytest.mark.parametrize("key", list(SOFT_CORE_TAU))
def test_tau_half_frozen_soft_core(key):
    n_r, echo, gamma = key
    sp = spec_at(n_r, math.pi / 2, echo, gamma=gamma)
    assert tau_half(sp) == pytest.approx(SOFT_CORE_TAU[key], rel=1e-9)


@pytest.mark.parametrize("key", list(BARE_TAU))
def test_tau_half_frozen_bare(key):
    c6, echo, theta, gamma, gamma_d = key
    pot = derive_potential(DressingParams(0.0, 0.0, c6), PotentialKind.BARE_VDW)
    sp = GasSpec(0.05, pot, RamseyProtocol(theta, echo, gamma, gamma_d))
    assert tau_half(sp) == pytest.approx(BARE_TAU[key], rel=1e-9)


def brent_cases(rng, count):
    # (f, a, b) with one sign change in [a, b]: linear, root-power,
    # tanh-plus-cubic and exponential, ends in either order
    for i in range(count):
        c = rng.uniform(-2.0, 2.0)
        a = c - rng.uniform(1e-3, 3.0)
        b = c + rng.uniform(1e-3, 3.0)
        if rng.random() < 0.5:
            a, b = b, a
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        p = rng.uniform(0.2, 3.0)
        m = rng.uniform(0.0, 2.0)
        f = (
            lambda x, c=c, k=k: k * (x - c),
            lambda x, c=c, p=p: math.copysign(abs(x - c) ** p, x - c),
            lambda x, c=c, k=k, m=m: math.tanh(k * (x - c)) + m * (x - c) ** 3,
            lambda x, c=c, k=k: math.exp(k * x) - math.exp(k * c),
        )[i % 4]
        yield f, np.float64(a), np.float64(b)


def brent_run(solver, f, a, b, xtol, rtol):
    """(root, probes) of one solve; root is None when it does not converge."""
    probes = []

    def logged(x):
        probes.append(x)
        return f(x)

    try:
        return solver(logged, a, b, xtol, rtol), probes
    except RuntimeError:
        return None, probes


def scipy_brentq(f, a, b, xtol, rtol):
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=xtol, rtol=rtol)


def walk_brentq(f, a, b, xtol, rtol):
    """gas_average._brent_walk run to its end, each probe answered by f."""
    walk = gas_average._brent_walk(a, b, xtol, rtol)
    try:
        x = next(walk)
        while True:
            x = walk.send(f(x))
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("rtol", [1e-10, 1e-6, 1e-15])
def test_brentq_port_matches_scipy_bit_for_bit(rtol):
    # 4 000 brackets per rtol, each compared probe by probe; bracket ends
    # are numpy scalars, as tau_half passes them. Root powers near 0.2
    # need more than 100 iterations; both solvers then fail alike.
    rng = np.random.default_rng(int(-math.log10(rtol)))
    converged = 0
    for f, a, b in brent_cases(rng, 4000):
        xtol = 10.0 ** rng.uniform(-14.0, -2.0)
        root, probes = brent_run(walk_brentq, f, a, b, xtol, rtol)
        assert (root, probes) == brent_run(scipy_brentq, f, a, b, xtol, rtol), (a, b, xtol)
        if root is not None:
            assert type(root) is float
            converged += 1
    assert converged >= 3900


def test_brentq_port_at_the_float_extremes():
    # tau_half brackets near 7e-206 us (dense bare gas) and 1.2e308 us
    # (dilute soft core): slopes near 1e206 overflow dblk * dpre, which
    # must not warn, and the probes still match scipy's
    for scale, lo, hi in ((1e-206, 0.5, 1.5), (1e308, 0.2, 1.7)):
        for f in (
            lambda x: math.exp(-x / scale) - 0.5,
            lambda x: 1.0 - math.sqrt(x / scale),
            lambda x: math.tanh(3.0 * (0.9 - x / scale)),
        ):
            a, b = np.float64(lo * scale), np.float64(hi * scale)
            for xtol, rtol in ((1e-12 * b, 1e-10), (1e-300, 1e-15)):
                root, probes = brent_run(walk_brentq, f, a, b, xtol, rtol)
                assert (root, probes) == brent_run(scipy_brentq, f, a, b, xtol, rtol)
                assert lo * scale <= root <= hi * scale


def test_brentq_port_errors_match_scipy():
    def nan_inside(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    def step(x):
        # no slope to interpolate: bisection from 1e300 wide to 1e-300
        return -1.0 if x < 1e-200 else 1.0

    cases = (
        (ValueError, "NaN", lambda x: math.nan, 0.0, 1.0),
        (ValueError, "NaN", nan_inside, 0.0, 1.0),
        (ValueError, "different signs", lambda x: x * x + 1.0, -1.0, 1.0),
        (RuntimeError, "converge", step, -1e300, 1e300),
    )
    for exc, match, f, a, b in cases:
        for solver in (walk_brentq, scipy_brentq):
            with pytest.raises(exc, match=match):
                solver(f, a, b, 1e-300, 1e-15)


def test_tau_grid_blocks_match_the_whole_grid():
    # the probe grid, built _GRID_BLOCK points at a time, is bit-identical
    # to lo 10^(k/25) built over the whole window at once
    rng = np.random.default_rng(5)
    for _ in range(200):
        lo = 10.0 ** rng.uniform(-300.0, 300.0)
        span = rng.uniform(0.01, 20.0) if rng.random() < 0.5 else math.inf
        hi = min(lo * 10.0**span, sys.float_info.max)
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        exponents = log_lo + np.arange(int(25 * (log_hi - log_lo)) + 1) / 25
        whole = 10.0 ** exponents[exponents < log_hi]
        blocks = np.array(list(gas_average._tau_grid(lo, hi)))
        assert blocks.tobytes() == whole.tobytes()


def test_kernel_second_derivative_closed_form():
    # against a Richardson-extrapolated central difference of f_kernel
    def second_difference(g, theta, beta, h):
        f0 = f_kernel(0.0, g, theta, beta)
        return (f_kernel(h, g, theta, beta) - 2.0 * f0 + f_kernel(-h, g, theta, beta)) / h**2

    h = 1e-2
    for g in (0.0, 0.1, 5.0, 40.0):
        for theta in (0.3, math.pi / 2, 2.6):
            for beta in (0, 1):
                want = (4.0 * second_difference(g, theta, beta, h / 2)
                        - second_difference(g, theta, beta, h)) / 3.0
                got = 2.0 * _kernel_taylor(g, theta, beta, 2)[1]
                assert abs(got - want) <= 1e-7
            # the moments are continuous across g = 1e-20
            for beta in (0, 1):
                below = _kernel_taylor(float(np.nextafter(1e-20, 0.0)), theta, beta, 12)
                above = _kernel_taylor(1e-20, theta, beta, 12)
                assert np.max(np.abs(below - above)) <= 1e-13


def test_gas_spec_validation():
    pot = soft_core_potential()
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    with pytest.raises(ParameterError):
        GasSpec(-1.0, pot, proto)
    with pytest.raises(ParameterError):
        GasSpec(0.0, pot, proto)


def test_gas_spec_rejects_an_overflowing_density_without_warnings():
    # 3 N_R overflows at N_R = 1e308; a numpy scalar must not warn on the way
    pot = soft_core_potential()
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError):
            GasSpec.from_blockade_number(np.float64(1e308), pot, proto)
        for density in (math.inf, math.nan):
            with pytest.raises(ParameterError):
                GasSpec(density, pot, proto)
