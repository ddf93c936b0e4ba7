import math

import numpy as np
import pytest

from rydramsey.errors import ParameterError, UnsupportedRegimeError
from rydramsey.ising_core import (
    AtomConfiguration,
    RamseyProtocol,
    connected_sxsx,
    f_kernel,
    sigma_plus_config,
)
from rydramsey.lattice import (
    LatticeSpec,
    correlation_map,
    d4_deviation,
    lattice_contrast,
    lattice_positions,
)
from rydramsey.oracle import (
    echo_model_sequence,
    evolve_master,
    expectation,
    initial_density_matrix,
    pair_operator,
    ramsey_sequence,
    site_operator,
)
from rydramsey.potential import DressingParams, PotentialKind, derive_potential


def soft_core_potential():
    return derive_potential(
        DressingParams(1000.0, 5000.0, -1.0e4), PotentialKind.SOFT_CORE
    )


def fig_lattice(theta=math.pi / 2, echo=True, gamma=0.0, gamma_d=0.0, side=15):
    pot = soft_core_potential()
    return LatticeSpec(
        side, pot.r_c / 2.0, pot, RamseyProtocol(theta, echo, gamma, gamma_d)
    )


def test_positions_unit_filling():
    pos = lattice_positions(4, 0.7)
    assert pos.shape == (16, 3)
    assert np.all(pos[:, 2] == 0.0)
    d = pos[1] - pos[0]
    assert np.hypot(d[0], d[1]) == pytest.approx(0.7)


def test_single_site_has_no_interactions():
    spec = fig_lattice(theta=1.1, echo=False, gamma=0.3, gamma_d=0.05, side=1)
    t = 1.7
    want = math.sin(1.1) * math.exp(-0.3 * t / 2.0) * math.exp(-0.05 * t)
    assert lattice_contrast(spec, t) == pytest.approx(want, rel=1e-12)


def test_far_spaced_lattice_is_noninteracting():
    pot = soft_core_potential()
    spec = LatticeSpec(
        3, 100.0 * pot.r_c, pot, RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    )
    t = 2.0
    assert abs(lattice_contrast(spec, t) - 1.0) < 1e-6


def test_contrast_is_same_code_path_as_config_evaluation():
    spec = fig_lattice(side=7, gamma=0.1)
    cfg = AtomConfiguration(lattice_positions(7, spec.spacing))
    t = 0.9
    a = lattice_contrast(spec, t)
    b = sigma_plus_config(cfg, spec.potential, spec.protocol, t)
    assert a == b  # bit-for-bit


def test_total_normalization_scales_with_site_count():
    spec = fig_lattice(side=5)
    t = 0.4
    per = lattice_contrast(spec, t)
    tot = lattice_contrast(spec, t, normalization="total")
    assert tot == pytest.approx(25.0 * per, rel=1e-14)


def test_half_time_matches_neighbor_count_prediction():
    """Dense-lattice decay tracks the hard-core law with N_R -> N_eff.

    At a = r_c/2 each atom has 12 neighbors inside the plateau. The
    hard-core crossing 2 arccos(1 - ln2 / (B N_eff)) with the amplitude
    B fitted on the dense gas predicts the lattice half-time to -17%;
    pinned at +-25%.
    """
    from rydramsey.gas_average import (
        DimensionlessPoint,
        fit_hardcore_amplitude,
    )
    from scipy.optimize import brentq

    spec = fig_lattice()
    pt = DimensionlessPoint(n_r=100.0, v0t=1.0, theta=math.pi / 2, beta=0)
    gas_spec, _ = pt.to_physical()
    v0 = gas_spec.potential.v0
    b = fit_hardcore_amplitude(
        gas_spec, np.linspace(0.05, 2.0 * math.pi, 40) / v0
    )

    n_eff = 12  # offsets with dx^2 + dy^2 <= (r_c / a)^2 = 4
    t_pred = 2.0 * math.acos(1.0 - math.log(2.0) / (b * n_eff))
    tau = brentq(lambda t: abs(lattice_contrast(spec, t)) - 0.5, 1e-3, 3.0)
    assert t_pred == pytest.approx(spec.potential.v0 * tau, rel=0.25)


def test_two_atom_correlator_matches_oracle():
    # same analytic G(1,2) as a 2-site chain; the map and this function
    # share one code path
    pot = soft_core_potential()
    positions = np.array([[0.0, 0.0, 0.0], [0.8 * pot.r_c, 0.0, 0.0]])
    cfg = AtomConfiguration(positions)
    t = 1.3
    for theta, echo in ((math.pi / 2, True), (0.7, False)):
        proto = RamseyProtocol(theta, echo, 0.0, 0.0)
        got = connected_sxsx(cfg, pot, proto, 0, 1, t)

        v = cfg.coupling_matrix(pot)
        seq = (
            echo_model_sequence(theta, t) if echo else ramsey_sequence(theta, t)
        )
        rho = evolve_master(initial_density_matrix(2), v, seq)
        xx = expectation(rho, pair_operator("x", 0, "x", 1, 2)).real / 4.0
        x0 = expectation(rho, site_operator("x", 0, 2)).real / 2.0
        x1 = expectation(rho, site_operator("x", 1, 2)).real / 2.0
        assert got == pytest.approx(xx - x0 * x1, abs=1e-8)


def test_correlator_argument_validation():
    pot = soft_core_potential()
    cfg = AtomConfiguration(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    with pytest.raises(ParameterError):
        connected_sxsx(cfg, pot, proto, 1, 1, 0.5)
    with pytest.raises(UnsupportedRegimeError):
        connected_sxsx(
            cfg, pot, RamseyProtocol(math.pi / 2, True, 0.1, 0.0), 0, 1, 0.5
        )


def test_map_is_zero_at_t_zero():
    cmap = correlation_map(fig_lattice(side=5), 0.0)
    assert np.nanmax(np.abs(cmap.values)) <= 1e-15


def test_map_center_defaults_to_middle_site():
    cmap = correlation_map(fig_lattice(side=5), 0.3)
    assert cmap.center == 12
    assert cmap.center_xy == (2, 2)
    assert cmap.values.shape == (5, 5)
    assert np.isnan(cmap.values[2, 2])  # reference site carries no G


def test_map_symmetry_and_bound():
    spec = fig_lattice(side=5)
    t = 0.5 * math.pi / spec.potential.v0
    cmap = correlation_map(spec, t)
    assert np.nanmax(np.abs(cmap.values)) <= 0.25 + 1e-12
    # G(i, j) = G(j, i): the value at site j of the center-i map equals
    # the value at site i of the center-j map
    other = correlation_map(spec, t, center=6)
    i_xy = divmod(cmap.center, 5)
    j_xy = divmod(6, 5)
    assert cmap.values[j_xy] == pytest.approx(other.values[i_xy], abs=1e-13)


def test_map_d4_symmetry_at_center():
    spec = fig_lattice()
    t = math.pi / spec.potential.v0
    cmap = correlation_map(spec, t)
    assert d4_deviation(cmap) <= 1e-10


def reference_sxsx(v, proto, i, j, t):
    # Per-pair closed form of the connected_sxsx docstring, one pair at a time.
    th, beta = proto.theta, proto.beta
    n = v.shape[0]

    def prod_f0(x):
        return np.prod(f_kernel(x * t, 0.0, th, beta))

    others = np.ones(n, dtype=bool)
    others[[i, j]] = False
    amp = (np.sin(th) / 2.0) ** 2
    spp = amp * np.exp(1j * beta * v[i, j] * t) * prod_f0(v[i, others] + v[j, others])
    spm = amp * prod_f0(v[i, others] - v[j, others])

    def sx(k):
        return (np.sin(th) * prod_f0(np.delete(v[k], k))).real

    return (2.0 * (spp + spm).real - sx(i) * sx(j)) / 4.0


@pytest.mark.parametrize("side", [5, 7])
@pytest.mark.parametrize("theta", [math.pi / 2, 0.7])
@pytest.mark.parametrize("echo", [True, False])
def test_map_matches_per_pair_formula(side, theta, echo):
    # The one-pass map trades at most 1e-12 relative against the
    # per-pair formula (ulp-level, from vectorized complex products).
    spec = fig_lattice(theta=theta, echo=echo, side=side)
    cfg = spec.configuration()
    v = cfg.coupling_matrix(spec.potential)
    for v0t in (math.pi / 2, math.pi, 2 * math.pi):
        t = v0t / spec.potential.v0
        cmap = correlation_map(spec, t)
        for j in range(spec.n_sites):
            if j == cmap.center:
                continue
            got = cmap.values[divmod(j, side)]
            want = reference_sxsx(v, spec.protocol, cmap.center, j, t)
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-30, (j, got, want)
            pair = connected_sxsx(cfg, spec.potential, spec.protocol, cmap.center, j, t)
            assert pair == got  # bit for bit: the map and the pair share one path


def test_single_site_map_is_empty():
    cmap = correlation_map(fig_lattice(side=1), 0.4)
    assert cmap.values.shape == (1, 1) and np.isnan(cmap.values[0, 0])


def test_lattice_contrast_accepts_time_array():
    spec = fig_lattice(theta=1.1, echo=False, gamma=0.05, side=4)
    times = np.linspace(0.0, 2.0, 5)
    got = lattice_contrast(spec, times)
    assert got.shape == times.shape
    for k, t in enumerate(times):
        assert got[k] == lattice_contrast(spec, float(t))


def test_map_correlations_confined_to_plateau_radius():
    spec = fig_lattice()
    t = math.pi / spec.potential.v0
    cmap = correlation_map(spec, t)
    pos = lattice_positions(15, spec.spacing)
    d = np.linalg.norm(pos - pos[cmap.center], axis=1).reshape(15, 15)
    g = np.abs(cmap.values)
    r_c = spec.potential.r_c
    near = g[(d > 0) & (d <= r_c)].mean()
    far = g[d > 2.5 * r_c].mean()
    assert near > 10.0 * far


def test_map_dissipative_request_rejected():
    spec = fig_lattice(gamma=0.1, side=3)
    with pytest.raises(UnsupportedRegimeError):
        correlation_map(spec, 0.5)


def test_d4_deviation_needs_odd_side():
    spec = fig_lattice(side=4)
    cmap = correlation_map(spec, 0.2)
    with pytest.raises(ParameterError):
        d4_deviation(cmap)


def test_map_csv_and_json_round_trip():
    cmap = correlation_map(fig_lattice(side=3), 0.4)
    csv = cmap.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "site_x,site_y,G"
    assert len(lines) == 1 + 8  # reference site is skipped
    rebuilt = np.full((3, 3), np.nan)
    for row in lines[1:]:
        x, y, gval = row.split(",")
        rebuilt[int(x), int(y)] = float(gval)
    assert np.allclose(rebuilt, cmap.values, rtol=0, atol=1e-16, equal_nan=True)

    block = cmap.to_json_block()
    assert block["side"] == 3
    assert block["center_site"] == 4
    grid = block["grid"]
    assert len(grid) == 3 and all(len(r) == 3 for r in grid)
    assert grid[1][1] is None  # NaN at the reference site encodes as null


def test_lattice_spec_validation():
    pot = soft_core_potential()
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    with pytest.raises(ParameterError):
        LatticeSpec(0, 0.5, pot, proto)
    with pytest.raises(ParameterError):
        LatticeSpec(3, -0.5, pot, proto)
    with pytest.raises(ParameterError):
        correlation_map(fig_lattice(side=3), 0.5, center=9)
