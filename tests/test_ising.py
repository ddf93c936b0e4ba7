import math
import tracemalloc

import numpy as np
import pytest

from rydramsey import ising_core
from rydramsey.errors import ParameterError
from rydramsey.ising_core import (
    COHERENCE_DECAY_EXPONENT,
    AtomConfiguration,
    RamseyProtocol,
    coherence_decay,
    connected_sxsx,
    f_kernel,
    sigma_plus_couplings,
)
from rydramsey.gas_average import GasSpec, monte_carlo_gas
from rydramsey.lattice import LatticeSpec, correlation_map, lattice_positions
from rydramsey.potential import DressingParams, PotentialKind, derive_potential, evaluate_V

# Extended-precision (40-digit) reference evaluations of the pair kernel's
# cos/sinc definition, frozen as regression constants. Besides a generic
# point they cover the regimes where that definition is hard to evaluate
# in floating point: |z| < 1e-4 (the sinc quotient cancels), both sides of
# g = 30, g = 2000 at X = 1450 (cosh-sized terms), a vanishing g = 1e-300
# and negative X.
F_REGRESSION = {
    (1.0, 0.3, math.pi / 4, 1): 0.9445489861343888372 + 0.1079267577158856362j,
    (1.0, 0.3, math.pi / 4, 0): 0.8955341240798265267 - 0.2275584327377628846j,
    (1e-9, 1e-12, 0.3, 1): 1.0 + 2.233175543718582405e-11j,
    (1e-9, 1e-12, 0.3, 0): 0.9999999999999999999 - 4.776682445623142071e-10j,
    (-3e-5, 2e-5, 2.6, 1): 0.9999999995822056011 - 0.000027853052764900147j,
    (-3e-5, 2e-5, 2.6, 0): 0.9999999998875001073 - 0.00001285335276659609292j,
    (7.5, 29.0, math.pi / 3, 1): 0.984327110615786254 + 0.06060183895235280029j,
    (7.5, 29.0, math.pi / 3, 0): -0.8858907501867210852 - 0.395505048694496944j,
    (-7.5, 31.0, math.pi / 3, 1): 0.9861759646104714156 - 0.0571393462767262216j,
    (-7.5, 31.0, math.pi / 3, 0): -0.8845049528843511913 + 0.4071987912707050952j,
    (1450.0, 2000.0, math.pi / 2, 1): 0.8277345350266284415 + 0.2376075378943055979j,
    (1450.0, 2000.0, math.pi / 2, 0): -0.4743499617425279645 + 0.7187446809088780258j,
    (0.7, 1e-300, 0.3, 1): 0.9947485132372910239 + 0.01438651183970877544j,
    (0.7, 1e-300, 0.3, 0): 0.9393727128473789276 - 0.3275827875033589258j,
    (-12.0, 0.4, 2.6, 1): 0.5860608902047373629 + 0.3201408022292441538j,
    (-12.0, 0.4, 2.6, 0): 0.9364326095694186419 + 0.2468107924512920725j,
}


def rand_couplings(n, rng, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    v = (a + a.T) / 2.0
    np.fill_diagonal(v, 0.0)
    return v


def test_kernel_frozen_regression_values():
    for (x, g, th, beta), want in F_REGRESSION.items():
        got = f_kernel(x, g, th, beta)
        assert got == pytest.approx(want, abs=1e-15), (x, g, th, beta)


def test_kernel_identity_at_zero():
    for beta in (0, 1):
        for th in (0.0, 0.3, math.pi / 2, math.pi):
            assert f_kernel(0.0, 0.0, th, beta) == pytest.approx(1.0, abs=1e-15)


def test_kernel_echo_pi_over_two_is_cosine():
    x = np.linspace(-8.0, 8.0, 41)
    got = f_kernel(x, 0.0, math.pi / 2, 0)
    assert np.max(np.abs(got - np.cos(x / 2.0))) < 1e-14
    assert f_kernel(math.pi, 0.0, math.pi / 2, 0) == pytest.approx(0.0, abs=1e-15)


def test_kernel_decayed_neighbor_drops_out():
    # X = 0, g > 0: a fully decayed neighbor contributes no dephasing
    for beta in (0, 1):
        for g in (0.5, 5.0, 80.0):
            assert f_kernel(0.0, g, math.pi / 2, beta) == pytest.approx(1.0, abs=1e-12)


def test_kernel_unitary_identities():
    # gamma = 0: f is a two-outcome phase average with weights sin^2, cos^2
    rng = np.random.default_rng(7)
    x = rng.uniform(-20, 20, size=50)
    for th in (0.2, math.pi / 3, 2.5):
        pu = math.sin(th / 2.0) ** 2
        pd = math.cos(th / 2.0) ** 2
        f1 = f_kernel(x, 0.0, th, 1)
        f0 = f_kernel(x, 0.0, th, 0)
        assert np.max(np.abs(f1 - (pu * np.exp(1j * x) + pd))) < 1e-13
        want0 = pu * np.exp(1j * x / 2.0) + pd * np.exp(-1j * x / 2.0)
        assert np.max(np.abs(f0 - want0)) < 1e-13


def test_kernel_modulus_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-50, 50)
        g = rng.uniform(0.0, 10.0)
        th = rng.uniform(0.0, math.pi)
        beta = int(rng.integers(0, 2))
        assert abs(f_kernel(x, g, th, beta)) <= 1.0 + 1e-12


def test_kernel_branch_seam_continuity():
    # the kernel is continuous in g: a step of 2e-12 across g = 30 moves
    # it by ~1e-14 only, so a jump in the evaluation formula would show
    x = np.linspace(-15.0, 15.0, 31)
    for beta in (0, 1):
        lo = f_kernel(x, 30.0 - 1e-12, math.pi / 3, beta)
        hi = f_kernel(x, 30.0 + 1e-12, math.pi / 3, beta)
        assert np.max(np.abs(lo - hi)) < 1e-11


def test_kernel_extreme_decay_no_overflow():
    for beta in (0, 1):
        val = f_kernel(np.array([3.0, 1450.0]), 2000.0, math.pi / 2, beta)
        assert np.all(np.isfinite(val.view(np.float64)))
        assert np.all(np.abs(val) <= 1.0 + 1e-12)


@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_is_one_at_zero_phase_for_every_g(beta):
    # numpy's complex division X / (X + i g) forms 1/g, which overflowed to
    # nan at X = 0 for a subnormal g; f(0, g) = 1 exactly at every finite
    # g >= 0, with no warning, and a subnormal g leaves f at its g = 0
    # value up to the two branches' rounding
    x = np.array([0.0, -0.0, 1e-321, -3e-310, 0.5, -7.0, 1e300])
    for g in (0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 0.3, 1e300):
        for theta in (0.0, 0.3, math.pi / 2, math.pi):
            got = f_kernel(x, g, theta, beta)
            assert got[0] == 1.0 and got[1] == 1.0, (g, theta)
            assert f_kernel(0.0, g, theta, beta) == 1.0
            if g < 1e-300:
                assert np.max(np.abs(got - f_kernel(x, 0.0, theta, beta))) <= 1e-15
    # monte_carlo_gas drops counted pairs by V = 0 at every time t: the
    # g = 0 kernel must give 1 exactly there too
    out, scratch = np.empty(2, dtype=complex), np.empty((3, 2))
    for t in (0.0, 0.7, 3.0, 1e300):
        for theta in (0.0, 0.3, math.pi / 2, math.pi):
            ising_core._half_angle_kernel(np.zeros(2), t, theta, beta, out, *scratch)
            assert np.all(out == 1.0), (t, theta)


@pytest.mark.parametrize("g", [math.nan, math.inf, -1e-300])
def test_kernel_rejects_non_finite_or_negative_g(g):
    for beta in (0, 1):
        with pytest.raises(ParameterError, match="finite and non-negative"):
            f_kernel(np.array([0.0, 1.0]), g, math.pi / 2, beta)


@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_g0_matches_complex_product_form(beta):
    # the g = 0 branch writes real and imaginary parts in place; it must
    # agree with the complex expressions c - i cos(theta) s (echo) and
    # (c + i s)(c - i cos(theta) s) (no echo), c, s = cos, sin of X/2,
    # to 4 ulp of 1 (|f| <= 1)
    mag = np.array([0.0, 1e-9, 1e-3, 0.5, 3.0, 50.0, 1e4])
    x = np.concatenate([-mag, mag])
    c, s = np.cos(0.5 * x), np.sin(0.5 * x)
    tol = 4.0 * np.spacing(1.0)
    for theta in (0.0, 0.3, math.pi / 2, 2.6, math.pi):
        want = c - 1j * np.cos(theta) * s
        if beta == 1:
            want = (c + 1j * s) * want
        got = f_kernel(x, 0.0, theta, beta)
        assert np.max(np.abs(got.real - want.real)) <= tol, theta
        assert np.max(np.abs(got.imag - want.imag)) <= tol, theta


@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_g0_tangent_form_accuracy(beta):
    # the g = 0 branch takes one tangent per pair by the half-angle
    # identities; against the cosine/sine form cos(X/2) - i cos(theta)
    # sin(X/2) (echo) and cos^2(theta/2) + sin^2(theta/2) e^{iX} (no echo)
    # it stays within 4.5e-16 absolute for |X| from 1e-12 to 1e300, keeps
    # |f| <= 1 + 4 eps and gives f(0) = 1 exactly. A first-order rounding
    # budget is looser: the tangent's own error enters a component at most
    # once (|d re/du| u <= 1, |d im/du| u <= 1/2), and the five roundings of
    # the quotient plus the reference's cos/sin, product and sum add about
    # 4 eps. The 4.5e-16 bound is the observed worst, 2 eps, on the 240 000
    # points here, with numpy's SIMD tan and with the scalar libm tan alike.
    mag = 10.0 ** np.random.default_rng(17).uniform(-12.0, 300.0, 20000)
    x = np.concatenate([-mag, mag])
    for theta in (0.0, 0.3, 1.1, math.pi / 2, 2.6, math.pi):
        if beta == 0:
            want = np.cos(0.5 * x) - 1j * math.cos(theta) * np.sin(0.5 * x)
        else:
            want = math.cos(0.5 * theta) ** 2 + math.sin(0.5 * theta) ** 2 * (
                np.cos(x) + 1j * np.sin(x)
            )
        got = f_kernel(x, 0.0, theta, beta)
        assert np.max(np.abs(got - want)) <= 4.5e-16, theta
        assert np.max(np.abs(got)) <= 1.0 + 4.0 * np.spacing(1.0), theta
        assert f_kernel(0.0, 0.0, theta, beta) == 1.0


def half_angle_reference(x, theta, beta):
    # the g = 0 branch's half-angle formulas, one numpy operation each, in
    # the order f_kernel applies them
    u = np.tan(np.asarray(x, dtype=float) * (0.25 if beta == 0 else 0.5))
    u2 = u * u
    w = u2 + 1.0
    if beta == 0:
        re, im = 1.0 - u2, u * (-2.0 * math.cos(theta))
    else:
        re, im = u2 * math.cos(theta) + 1.0, u * (2.0 * math.sin(0.5 * theta) ** 2)
    out = np.empty(u.shape, dtype=complex)
    out.real = re / w
    out.imag = im / w
    return out


@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_g0_bits_match_half_angle_formulas(beta):
    # f_kernel runs x through caller-owned buffers in chunks; every element
    # must still take exactly the reference's float operations, whatever
    # the layout of x and wherever the chunk seams fall
    rng = np.random.default_rng(29)
    chunk = ising_core._KERNEL_CHUNK
    grid = rng.uniform(-60.0, 60.0, (40, 70))
    xs = [
        grid,
        grid.T,
        rng.uniform(-60.0, 60.0, 3 * 700)[::3],
        np.array(0.7),
        np.array(-1e300),
        np.empty(0),
        np.empty((0, 4)),
        np.concatenate([[0.0, -0.0, 1e-300], rng.normal(0.0, 20.0, 3 * chunk + 2)]),
    ]
    for theta in (0.0, 0.3, math.pi / 2, math.pi):
        for x in xs:
            got = f_kernel(x, 0.0, theta, beta)
            want = half_angle_reference(x, theta, beta)
            assert np.shape(got) == x.shape
            assert np.array_equal(got, want), (theta, x.shape)
        assert f_kernel(-2.5, 0.0, theta, beta) == complex(half_angle_reference(-2.5, theta, beta))


@pytest.mark.parametrize("g", [0.0, 0.4])
@pytest.mark.parametrize("beta", [0, 1])
def test_kernel_return_types(g, beta):
    for x in (0.7, np.float64(0.7), np.array(0.7)):
        got = f_kernel(x, g, 1.1, beta)
        assert type(got) is complex
        assert got == pytest.approx(f_kernel(np.array([0.7]), g, 1.1, beta)[0], abs=1e-15)
    for shape in ((0,), (3,), (2, 5)):
        got = f_kernel(np.full(shape, 0.7), g, 1.1, beta)
        assert got.shape == shape and got.dtype == complex


# widths at the edges of _row_products' lanes: C - 1, C, C + 1 and 2 C + 1
CHUNK_EDGES = [k * ising_core._ROW_CHUNK + e for k, e in ((1, -1), (1, 0), (1, 1), (2, 1))]


@pytest.mark.parametrize("width", [*range(1, 18), *CHUNK_EDGES, 255, 256, 257, 4125])
def test_row_products_match_prod(width):
    # the float64 np.prod walks one rounding error per factor (up to about
    # 1e-14 relative at width 4125), so the reference is the same product
    # in extended precision
    rng = np.random.default_rng(width)
    shape = (3, width)
    f = np.exp(rng.uniform(-0.05, 0.0, shape) + 1j * rng.uniform(-math.pi, math.pi, shape))
    want = np.prod(f.astype(np.clongdouble), axis=1).astype(complex)
    got = ising_core._row_products(f)
    assert got.shape == (3,)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("width", [1, 2, 3, 16, 17, 45, *CHUNK_EDGES, 257])
def test_row_products_exact_zero(width):
    # row k has its zero in column k, so the rows past the last full lane
    # chunk have theirs in the leftover columns; the last row has none
    rng = np.random.default_rng(width)
    shape = (width + 1, width)
    f = rng.uniform(0.5, 1.0, shape) * np.exp(1j * rng.uniform(-3.0, 3.0, shape))
    f[np.arange(width), np.arange(width)] = 0.0
    got = ising_core._row_products(f)
    assert np.all(got[:width] == 0.0)
    assert got[width] != 0.0


def test_coherence_decay_exponent_constant():
    # calibrated against the master-equation module: e^{-gamma t / 2}
    assert COHERENCE_DECAY_EXPONENT == 0.5
    assert coherence_decay(0.4, 3.0) == pytest.approx(math.exp(-0.4 * 3.0 / 2.0))
    assert coherence_decay(0.0, 7.0) == 1.0


def test_two_atom_echo_cosine():
    v = 0.73
    couplings = np.array([[0.0, v], [v, 0.0]])
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    for t in (0.0, 0.9, 4.4):
        got = sigma_plus_couplings(couplings, proto, t)
        assert got == pytest.approx(math.cos(v * t / 2.0), abs=1e-12)


def test_zero_couplings_noninteracting():
    v = np.zeros((6, 6))
    for echo in (True, False):
        proto = RamseyProtocol(0.7, echo, 0.0, 0.0)
        for t in (0.0, 2.0, 11.0):
            assert sigma_plus_couplings(v, proto, t) == pytest.approx(
                math.sin(0.7), abs=1e-14
            )


def test_t_zero_gives_sin_theta():
    rng = np.random.default_rng(0)
    v = rand_couplings(5, rng)
    proto = RamseyProtocol(0.41, False, 0.3, 0.0)
    assert sigma_plus_couplings(v, proto, 0.0) == pytest.approx(
        math.sin(0.41), abs=1e-14
    )


def test_permutation_invariance():
    rng = np.random.default_rng(12)
    v = rand_couplings(6, rng)
    perm = rng.permutation(6)
    vp = v[np.ix_(perm, perm)]
    for echo in (True, False):
        proto = RamseyProtocol(math.pi / 4, echo, 0.2, 0.05)
        a = sigma_plus_couplings(v, proto, 1.7)
        b = sigma_plus_couplings(vp, proto, 1.7)
        assert abs(a - b) <= 1e-12


def test_monotone_bound_unitary():
    rng = np.random.default_rng(42)
    v = rand_couplings(7, rng, 2.0)
    proto = RamseyProtocol(1.1, False, 0.0, 0.0)
    for t in np.linspace(0.0, 9.0, 25):
        assert abs(sigma_plus_couplings(v, proto, t)) <= math.sin(1.1) + 1e-12


def test_echo_noecho_factor_magnitudes_match():
    # f_{beta=1}(X) = e^{iX/2} f_{beta=0}(X) at gamma = 0: equal modulus
    # factor by factor. The summed coherences differ (each row picks up a
    # different accumulated phase), except with a single neighbor.
    rng = np.random.default_rng(8)
    x = rng.uniform(-10, 10, size=40)
    for th in (math.pi / 2, 0.7):
        f0 = f_kernel(x, 0.0, th, 0)
        f1 = f_kernel(x, 0.0, th, 1)
        assert np.max(np.abs(f1 - np.exp(1j * x / 2.0) * f0)) < 1e-13
    v = np.array([[0.0, 1.3], [1.3, 0.0]])
    p0 = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    p1 = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    for t in (0.6, 2.3):
        assert abs(sigma_plus_couplings(v, p0, t)) == pytest.approx(
            abs(sigma_plus_couplings(v, p1, t)), abs=1e-13
        )


def test_echo_time_reversal_conjugates():
    rng = np.random.default_rng(5)
    v = rand_couplings(4, rng)
    proto = RamseyProtocol(0.9, True, 0.0, 0.0)
    for t in (0.8, 3.1):
        assert sigma_plus_couplings(v, proto, -t) == pytest.approx(
            np.conj(sigma_plus_couplings(v, proto, t)), abs=1e-13
        )


def test_negative_time_needs_unitary_protocol():
    # under dissipation the envelope would grow backwards in time
    pot = derive_potential(DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE)
    v = AtomConfiguration(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])).coupling_matrix(pot)
    for gamma, gamma_d in ((0.1, 0.0), (0.0, 0.1)):
        proto = RamseyProtocol(math.pi / 2, True, gamma, gamma_d)
        with pytest.raises(ParameterError):
            sigma_plus_couplings(np.zeros((2, 2)), proto, -1.0)
        with pytest.raises(ParameterError):
            connected_sxsx(v, proto, 0, 1, -1.0)
        with pytest.raises(ParameterError):
            correlation_map(LatticeSpec(3, pot.r_c, pot), proto, -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry", ["sigma_plus_couplings", "monte_carlo_gas", "connected_sxsx", "correlation_map"]
)
def test_non_finite_time_rejected(entry, t):
    # unitary protocol, so negative times are otherwise allowed
    pot = derive_potential(DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    v = AtomConfiguration(np.random.default_rng(2).random((4, 3)) * 2.0).coupling_matrix(pot)
    calls = {
        "sigma_plus_couplings": lambda: sigma_plus_couplings(v, proto, t),
        "monte_carlo_gas": lambda: monte_carlo_gas(
            GasSpec(0.05, pot, proto), [t], n_samples=2, n_atoms=8, seed=0
        ),
        "connected_sxsx": lambda: connected_sxsx(v, proto, 0, 1, t),
        "correlation_map": lambda: correlation_map(LatticeSpec(3, pot.r_c, pot), proto, t),
    }
    with pytest.raises(ParameterError):
        calls[entry]()


@pytest.mark.parametrize("shape", [(2,), (1,)])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_correlators_reject_array_time(gamma, shape):
    # the row products take one time; a (1,) array would otherwise be
    # accepted as if it were a single time
    pot = derive_potential(DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE)
    proto = RamseyProtocol(math.pi / 2, True, gamma, 0.0)
    v = AtomConfiguration(np.random.default_rng(2).random((3, 3)) * 2.0).coupling_matrix(pot)
    t = np.full(shape, 0.1)
    with pytest.raises(ParameterError):
        connected_sxsx(v, proto, 0, 1, t)
    with pytest.raises(ParameterError):
        correlation_map(LatticeSpec(3, pot.r_c, pot), proto, t)


# t = 0, then small and (at gamma = 0.5, t = 75) large g on the split
# branch; the gamma = 0 protocols take the g = 0 branch at every time.
ARRAY_TIMES = np.array([0.0, 0.7, 3.1, 75.0])
ARRAY_PROTOCOLS = [
    RamseyProtocol(math.pi / 2, True, 0.0, 0.0),
    RamseyProtocol(0.7, False, 0.0, 0.0),
    RamseyProtocol(math.pi / 2, True, 0.5, 0.02),
    RamseyProtocol(1.1, False, 0.5, 0.0),
]


def lattice_couplings(side):
    # Unit-filled side x side lattice at r_c / 2: only a few distinct values.
    pot = derive_potential(
        DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    return AtomConfiguration(lattice_positions(side, pot.r_c / 2.0)).coupling_matrix(pot)


@pytest.mark.parametrize("proto", ARRAY_PROTOCOLS)
@pytest.mark.parametrize("geometry", ["random12", "lattice5"])
def test_sigma_plus_time_array_equals_scalar_calls(proto, geometry):
    if geometry == "random12":
        v = rand_couplings(12, np.random.default_rng(21))
        assert np.unique(v[np.triu_indices(12, 1)]).size == 66  # all distinct
    else:
        v = lattice_couplings(5)
        assert np.unique(v).size < 20
    got = sigma_plus_couplings(v, proto, ARRAY_TIMES)
    assert got.shape == ARRAY_TIMES.shape and got.dtype == complex
    for k, t in enumerate(ARRAY_TIMES):
        want = sigma_plus_couplings(v, proto, float(t))
        assert type(want) is complex
        assert got[k] == want


def test_sigma_plus_time_array_edge_cases():
    v = rand_couplings(4, np.random.default_rng(3))
    proto = RamseyProtocol(math.pi / 2, True, 0.1, 0.0)
    with pytest.raises(ParameterError):
        sigma_plus_couplings(v, proto, np.array([0.5, -1e-9, 2.0]))
    with pytest.raises(ParameterError):
        sigma_plus_couplings(v, proto, np.ones((2, 2)))
    zero_d = sigma_plus_couplings(v, proto, np.array(1.3))
    assert type(zero_d) is complex
    assert zero_d == sigma_plus_couplings(v, proto, 1.3)
    assert sigma_plus_couplings(v, proto, np.array([])).shape == (0,)
    unitary = RamseyProtocol(0.8, False, 0.0, 0.0)
    back = sigma_plus_couplings(v, unitary, np.array([-2.0, 2.0]))
    assert back[0] == pytest.approx(np.conj(back[1]), abs=1e-13)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_sigma_plus_multiplies_along_rows(gamma):
    # couplings that pass the symmetry check but differ from their
    # transpose by ~5e-13: the coherence must be the mean of the row
    # products, not of the column products (off by over 1e-13)
    rng = np.random.default_rng(14)
    n, t = 40, 3.7
    v = rand_couplings(n, rng, scale=4.0)
    upper = np.triu_indices(n, 1)
    v[upper] += 5e-13 * rng.choice([-1.0, 1.0], size=upper[0].size)
    assert not np.array_equal(v, v.T)
    proto = RamseyProtocol(1.0, False, gamma, 0.0)
    factors = f_kernel(v * t, gamma * t, proto.theta, proto.beta)
    np.fill_diagonal(factors, 1.0)
    want = ising_core._envelope(proto, t) * np.prod(factors, axis=1).mean()
    got = sigma_plus_couplings(v, proto, t)
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_sigma_plus_exact_zero_factor_kills_both_rows(monkeypatch, gamma):
    # the kernel is forced to an exact zero on the strongest pair; its two
    # atoms drop out of the sum and the other rows keep their products
    rng = np.random.default_rng(8)
    n, t = 9, 1.3
    v = rand_couplings(n, rng)
    i, j = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    proto = RamseyProtocol(1.0, False, gamma, 0.0)
    kernel = ising_core.f_kernel

    def zeroing_kernel(x, g, theta, beta):
        out = kernel(x, g, theta, beta)
        out[np.abs(x) == abs(v[i, j]) * t] = 0.0
        return out

    monkeypatch.setattr(ising_core, "f_kernel", zeroing_kernel)
    got = sigma_plus_couplings(v, proto, t)
    factors = kernel(v * t, gamma * t, proto.theta, proto.beta)
    factors[[i, j], [j, i]] = 0.0
    np.fill_diagonal(factors, 1.0)
    rows = np.prod(factors, axis=1)
    assert rows[i] == 0.0 and rows[j] == 0.0
    want = ising_core._envelope(proto, t) * rows.sum() / n
    assert abs(got - want) <= 1e-12 * abs(want)


BAD_COUPLINGS = {
    "non-square": (np.zeros((2, 3)), "square"),
    "empty": (np.zeros((0, 0)), "square"),
    "vector": (np.zeros(2), "square"),
    "nan": (np.array([[0.0, np.nan], [np.nan, 0.0]]), "finite"),
    "inf": (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
    "asymmetric": (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
}


@pytest.mark.parametrize("case", list(BAD_COUPLINGS))
@pytest.mark.parametrize("entry", ["sigma_plus_couplings", "connected_sxsx"])
def test_couplings_validation(entry, case):
    # both per-configuration evaluators share one couplings check
    v, message = BAD_COUPLINGS[case]
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    calls = {
        "sigma_plus_couplings": lambda: sigma_plus_couplings(v, proto, 1.0),
        "connected_sxsx": lambda: connected_sxsx(v, proto, 0, 1, 1.0),
    }
    with pytest.raises(ParameterError, match=f"couplings must be .*{message}"):
        calls[entry]()


def test_dephasing_is_multiplicative():
    rng = np.random.default_rng(9)
    v = rand_couplings(4, rng)
    t = 2.2
    base = sigma_plus_couplings(v, RamseyProtocol(1.0, False, 0.15, 0.0), t)
    with_d = sigma_plus_couplings(v, RamseyProtocol(1.0, False, 0.15, 0.3), t)
    assert with_d == pytest.approx(base * math.exp(-0.3 * t), rel=1e-13)


def test_protocol_validation():
    with pytest.raises(ParameterError):
        RamseyProtocol(-0.1, False, 0.0, 0.0)
    with pytest.raises(ParameterError):
        RamseyProtocol(math.pi + 0.1, False, 0.0, 0.0)
    with pytest.raises(ParameterError):
        RamseyProtocol(1.0, False, -0.2, 0.0)
    # a NaN or infinite rate would turn every coherence into nan
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            RamseyProtocol(1.0, False, bad, 0.0)
        with pytest.raises(ParameterError):
            RamseyProtocol(1.0, False, 0.0, bad)
    assert RamseyProtocol(1.0, True, 0.0, 0.0).beta == 0
    assert RamseyProtocol(1.0, False, 0.0, 0.0).beta == 1


def test_atom_configuration_validation():
    with pytest.raises(ParameterError):
        AtomConfiguration(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        AtomConfiguration(np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        AtomConfiguration(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    # a NaN would poison every coupling of its atom and an infinite
    # coordinate would silently decouple it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="finite"):
            AtomConfiguration(np.array([[0.0, 0.0, 0.0], [1.0, bad, 0.0]]))


def test_atom_configuration_positions_are_a_read_only_copy():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    cfg = AtomConfiguration(pos)
    pos[1, 0] = 2.0  # the caller's array stays theirs
    assert cfg.pair_distances()[0, 1] == 1.0
    with pytest.raises(ValueError):
        cfg.positions[1, 0] = 2.0
    with pytest.raises(ValueError):
        cfg.pair_distances()[0, 1] = 2.0


@pytest.mark.parametrize("kind", [PotentialKind.SOFT_CORE, PotentialKind.BARE_VDW])
def test_distances_and_couplings_keep_the_whole_array_bits(kind, monkeypatch):
    # distances are summed one axis at a time and the couplings built on a
    # copy of r with a placeholder diagonal, both in blocks of rows (one
    # block by default, then blocks of 7 rows, the last one ragged); both
    # keep the bits of the (N, N, 3) form and of evaluate_V on the
    # off-diagonal pairs
    pos = np.random.default_rng(41).normal(size=(60, 3)) * np.array([1.0, 30.0, 0.02])
    d = pos[:, None, :] - pos[None, :, :]
    r = np.sqrt((d * d).sum(axis=2))
    pot = derive_potential(DressingParams(1000.0, 5000.0, -1e4), kind)
    off = ~np.eye(60, dtype=bool)
    want = np.zeros_like(r)
    want[off] = evaluate_V(pot, r[off])
    for block in (ising_core._BLOCK_ENTRIES, 60 * 7):
        monkeypatch.setattr(ising_core, "_BLOCK_ENTRIES", block)
        cfg = AtomConfiguration(pos)
        assert np.array_equal(cfg.pair_distances(), r)
        assert np.array_equal(cfg.coupling_matrix(pot), want)


@pytest.mark.parametrize("kind", [PotentialKind.SOFT_CORE, PotentialKind.BARE_VDW])
def test_coupling_matrix_builds_q_in_place(kind, monkeypatch):
    # q is built on the one copy of the distances and V written back over
    # it a block of rows at a time, so the build holds one (N, N) float
    # array beyond the cached distances (the matrix) and one block, where
    # V out of place held two
    monkeypatch.setattr(ising_core, "_BLOCK_ENTRIES", 300 * 16)
    cfg = AtomConfiguration(np.random.default_rng(3).random((300, 3)) * 20.0)
    pot = derive_potential(DressingParams(1000.0, 5000.0, -1e4), kind)
    tracemalloc.start()
    try:
        cfg.coupling_matrix(pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 300 * 300 * 8


def test_distances_are_summed_in_row_blocks(monkeypatch):
    # beyond r itself one block of differences; the whole-matrix
    # differences of each axis held two more (N, N) float arrays
    monkeypatch.setattr(ising_core, "_BLOCK_ENTRIES", 300 * 16)
    pos = np.random.default_rng(3).random((300, 3)) * 20.0
    tracemalloc.start()
    try:
        AtomConfiguration(pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 300 * 300 * 8


def test_symmetry_check_takes_row_blocks(monkeypatch):
    # the check takes max |v - v.T| over blocks of _BLOCK_ENTRIES // N rows
    # (here 2 of 7, the last one ragged): an asymmetry in any block raises,
    # one within 1e-12 of the largest |entry| does not
    monkeypatch.setattr(ising_core, "_BLOCK_ENTRIES", 14)
    v = np.add.outer(np.arange(7.0), np.arange(7.0))
    np.fill_diagonal(v, 0.0)
    ising_core._checked_couplings(v)
    for i in range(7):
        for j in range(7):
            if i != j:
                w = v.copy()
                w[i, j] += 1e-10
                with pytest.raises(ParameterError, match="symmetric"):
                    ising_core._checked_couplings(w)
                w[i, j] = v[i, j] * (1.0 + 1e-13)
                ising_core._checked_couplings(w)


def test_symmetry_check_allocates_no_square_temporary():
    # beyond the bool finite mask (1 byte a pair) one block of rows; v - v.T
    # and its abs took 16 bytes a pair
    n = 1200
    v = np.random.default_rng(8).random((n, n))
    v += v.T
    tracemalloc.start()
    try:
        ising_core._checked_couplings(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_row_blocks_change_no_bit(monkeypatch, gamma):
    # sigma_plus_couplings and connected_sxsx take rows in blocks of
    # _BLOCK_ENTRIES // N; every row's product and the sum over rows are
    # the same whatever the blocks, here 5 rows of 49 and a ragged last one
    v = lattice_couplings(7)
    proto = RamseyProtocol(1.1, False, gamma, 0.05)
    times = np.linspace(0.0, 3.0, 7)
    sites = np.array([j for j in range(49) if j != 24])

    def run():
        return sigma_plus_couplings(v, proto, times), connected_sxsx(v, proto, 24, sites, 1.3)

    want = run()
    monkeypatch.setattr(ising_core, "_BLOCK_ENTRIES", 5 * 49)
    for got, ref in zip(run(), want):
        assert np.array_equal(got, ref)


def test_echo_phase_real_at_pi_over_two():
    rng = np.random.default_rng(33)
    v = rand_couplings(6, rng)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    for t in np.linspace(0.1, 5.0, 9):
        val = sigma_plus_couplings(v, proto, t)
        assert abs(val.imag) < 1e-12


def test_connected_correlator_zero_cases():
    pot = derive_potential(
        DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    rng = np.random.default_rng(6)
    v = AtomConfiguration(rng.random((4, 3)) * 2.0).coupling_matrix(pot)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    assert connected_sxsx(v, proto, 0, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    # no interactions -> product state forever
    far = AtomConfiguration(np.array([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0]]))
    assert connected_sxsx(far.coupling_matrix(pot), proto, 0, 1, 2.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_connected_correlator_bound_and_errors():
    pot = derive_potential(
        DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    rng = np.random.default_rng(14)
    v = AtomConfiguration(rng.random((5, 3)) * 1.5).coupling_matrix(pot)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    dissipative = RamseyProtocol(math.pi / 2, True, 0.1, 0.0)
    for p in (proto, dissipative):
        for t in (0.4, 1.8):
            g = connected_sxsx(v, p, 0, 3, t)
            assert abs(g) <= 0.25 + 1e-12
    with pytest.raises(ParameterError):
        connected_sxsx(v, proto, 2, 2, 1.0)
