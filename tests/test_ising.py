import math

import numpy as np
import pytest

from rydramsey import ising_core
from rydramsey.errors import ParameterError, UnsupportedRegimeError
from rydramsey.ising_core import (
    COHERENCE_DECAY_EXPONENT,
    AtomConfiguration,
    RamseyProtocol,
    _log_factors,
    coherence_decay,
    connected_sxsx,
    contrast_phase,
    contrast_trace,
    f_kernel,
    sigma_plus_config,
    sigma_plus_couplings,
)
from rydramsey.lattice import lattice_positions
from rydramsey.potential import DressingParams, PotentialKind, derive_potential

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
    v = np.zeros((2, 2))
    proto = RamseyProtocol(math.pi / 2, True, 0.1, 0.0)
    with pytest.raises(ParameterError):
        sigma_plus_couplings(v, proto, -1.0)


def test_normalization_modes():
    rng = np.random.default_rng(2)
    v = rand_couplings(5, rng)
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    per = sigma_plus_couplings(v, proto, 1.3, normalization="per-spin")
    tot = sigma_plus_couplings(v, proto, 1.3, normalization="total")
    assert tot == pytest.approx(5.0 * per, rel=1e-14)
    with pytest.raises(ParameterError):
        sigma_plus_couplings(v, proto, 1.3, normalization="mean")


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
@pytest.mark.parametrize("normalization", ["per-spin", "total"])
@pytest.mark.parametrize("geometry", ["random12", "lattice5"])
def test_sigma_plus_time_array_equals_scalar_calls(proto, normalization, geometry):
    if geometry == "random12":
        v = rand_couplings(12, np.random.default_rng(21))
        assert np.unique(v[np.triu_indices(12, 1)]).size == 66  # all distinct
    else:
        v = lattice_couplings(5)
        assert np.unique(v).size < 20
    got = sigma_plus_couplings(v, proto, ARRAY_TIMES, normalization)
    assert got.shape == ARRAY_TIMES.shape and got.dtype == complex
    for k, t in enumerate(ARRAY_TIMES):
        want = sigma_plus_couplings(v, proto, float(t), normalization)
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


def test_log_factors_exact_zero_rule():
    # a zero factor at (i, j) zeroes the products of rows i and j; every
    # other row is the plain product of its factors
    rng = np.random.default_rng(4)
    n = 7
    f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    f = 0.5 * (f + f.T)
    np.fill_diagonal(f, 1.0)
    f[2, 5] = f[5, 2] = 0.0
    logs, zero = _log_factors(f)
    assert np.array_equal(zero, f == 0.0)
    assert np.all(np.isfinite(logs)) and np.all(logs[zero] == 0.0)
    assert np.allclose(np.exp(logs[~zero]), f[~zero], rtol=1e-14, atol=0.0)
    rows = np.exp(logs.sum(axis=1))
    rows[zero.any(axis=1)] = 0.0
    live = [k for k in range(n) if k not in (2, 5)]
    assert rows[2] == 0.0 and rows[5] == 0.0
    assert np.allclose(rows[live], np.prod(f, axis=1)[live], rtol=1e-13, atol=0.0)


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
    got = sigma_plus_couplings(v, proto, t, normalization="total")
    factors = kernel(v * t, gamma * t, proto.theta, proto.beta)
    factors[[i, j], [j, i]] = 0.0
    np.fill_diagonal(factors, 1.0)
    rows = np.prod(factors, axis=1)
    assert rows[i] == 0.0 and rows[j] == 0.0
    want = ising_core._envelope(proto, t) * rows.sum()
    assert abs(got - want) <= 1e-12 * abs(want)


def test_couplings_validation():
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    with pytest.raises(ParameterError):
        sigma_plus_couplings(np.zeros((2, 3)), proto, 1.0)
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ParameterError):
        sigma_plus_couplings(bad, proto, 1.0)
    nan = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ParameterError):
        sigma_plus_couplings(nan, proto, 1.0)


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
    assert RamseyProtocol(1.0, True, 0.0, 0.0).beta == 0
    assert RamseyProtocol(1.0, False, 0.0, 0.0).beta == 1


def test_atom_configuration_validation():
    with pytest.raises(ParameterError):
        AtomConfiguration(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        AtomConfiguration(np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        AtomConfiguration(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_atom_configuration_positions_are_a_read_only_copy():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    cfg = AtomConfiguration(pos)
    pos[1, 0] = 2.0  # the caller's array stays theirs
    assert cfg.pair_distances()[0, 1] == 1.0
    with pytest.raises(ValueError):
        cfg.positions[1, 0] = 2.0
    with pytest.raises(ValueError):
        cfg.pair_distances()[0, 1] = 2.0


def test_sigma_plus_config_matches_manual_couplings():
    pot = derive_potential(
        DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    rng = np.random.default_rng(21)
    pos = rng.random((5, 3)) * 3.0
    cfg = AtomConfiguration(pos)
    v = cfg.coupling_matrix(pot)
    proto = RamseyProtocol(math.pi / 2, False, 0.1, 0.0)
    a = sigma_plus_config(cfg, pot, proto, 1.9)
    b = sigma_plus_couplings(v, proto, 1.9)
    assert a == b


def test_contrast_trace_shapes_and_phase():
    pot = derive_potential(
        DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    rng = np.random.default_rng(1)
    cfg = AtomConfiguration(rng.random((4, 3)) * 2.5)
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    times = np.linspace(0.0, 6.0, 31)
    tr = contrast_trace(cfg, pot, proto, times)
    assert tr.sigma_plus.shape == times.shape
    assert np.all(tr.contrast >= 0.0)
    assert tr.contrast[0] == pytest.approx(1.0, abs=1e-14)
    ref = tr.phase_rereferenced()
    assert ref[0] == 0.0
    assert np.max(np.abs(np.diff(ref))) < math.pi  # unwrapped, no branch jumps


def test_contrast_phase_edge_cases():
    c, phi = contrast_phase(np.array([1.0 + 0.0j]))
    assert c[0] == 1.0 and phi[0] == 0.0
    c, phi = contrast_phase(np.array([0.5j]))
    assert c[0] == 0.5 and phi[0] == pytest.approx(math.pi / 2)
    c, phi = contrast_phase(np.array([0.0j]))
    assert c[0] == 0.0 and np.isnan(phi[0])


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
    cfg = AtomConfiguration(rng.random((4, 3)) * 2.0)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    assert connected_sxsx(cfg, pot, proto, 0, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    # no interactions -> product state forever
    far = AtomConfiguration(np.array([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0]]))
    assert connected_sxsx(far, pot, proto, 0, 1, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_connected_correlator_bound_and_errors():
    pot = derive_potential(
        DressingParams(1000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE
    )
    rng = np.random.default_rng(14)
    cfg = AtomConfiguration(rng.random((5, 3)) * 1.5)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    for t in (0.4, 1.8):
        g = connected_sxsx(cfg, pot, proto, 0, 3, t)
        assert abs(g) <= 0.25 + 1e-12
    with pytest.raises(ParameterError):
        connected_sxsx(cfg, pot, proto, 2, 2, 1.0)
    dissipative = RamseyProtocol(math.pi / 2, True, 0.1, 0.0)
    with pytest.raises(UnsupportedRegimeError):
        connected_sxsx(cfg, pot, dissipative, 0, 1, 1.0)
