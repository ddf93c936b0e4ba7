import math
import tracemalloc

import numpy as np
import pytest

from rydramsey import ising_core, lattice
from rydramsey.errors import CapacityError, ParameterError
from rydramsey.ising_core import (
    AtomConfiguration,
    RamseyProtocol,
    connected_sxsx,
    f_kernel,
    sigma_plus_couplings,
)
from rydramsey.lattice import (
    MAX_SIDE,
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
    return LatticeSpec(side, pot.r_c / 2.0, pot), RamseyProtocol(theta, echo, gamma, gamma_d)


def test_positions_unit_filling():
    pos = lattice_positions(4, 0.7)
    assert pos.shape == (16, 3)
    assert np.all(pos[:, 2] == 0.0)
    d = pos[1] - pos[0]
    assert np.hypot(d[0], d[1]) == pytest.approx(0.7)


def test_single_site_has_no_interactions():
    spec, proto = fig_lattice(theta=1.1, echo=False, gamma=0.3, gamma_d=0.05, side=1)
    t = 1.7
    want = math.sin(1.1) * math.exp(-0.3 * t / 2.0) * math.exp(-0.05 * t)
    assert lattice_contrast(spec, proto, t) == pytest.approx(want, rel=1e-12)


def test_far_spaced_lattice_is_noninteracting():
    pot = soft_core_potential()
    spec = LatticeSpec(3, 100.0 * pot.r_c, pot)
    t = 2.0
    assert abs(lattice_contrast(spec, RamseyProtocol(math.pi / 2, False), t) - 1.0) < 1e-6


def gathered_table(spec):
    # the (L, L) table spread to the (N, N) matrix it stands for
    ix, iy = np.divmod(np.arange(spec.n_sites), spec.side)
    return spec.coupling_table[np.abs(ix[:, None] - ix), np.abs(iy[:, None] - iy)]


def site_products(v, proto, t, factors=None):
    # each site's product over its row of f(V t, gamma t), a block of rows at a time
    rows = []
    for lo in range(0, v.shape[0], 128):
        f = f_kernel(v[lo : lo + 128] * t, proto.gamma * t, proto.theta, proto.beta)
        rows.append(np.prod(f if factors is None else factors(f, lo), axis=1))
    return np.concatenate(rows)


def trace_bound(proto, t, products):
    # Each grouping of a site's N - 1 complex multiplies is within about
    # (N - 1) sqrt(5) eps of the exact product, so two groupings differ by
    # at most 5 N eps |P_k|. |C| itself can be far smaller than the
    # mean |P_k| (1.75e-7 at L = 50), so the bound is not relative to it.
    envelope = abs(ising_core._envelope(proto, t))
    return 5.0 * products.size * np.finfo(float).eps * envelope * np.abs(products).mean()


@pytest.mark.parametrize("side", [1, 2, 7, 15, 50])
def test_contrast_is_within_its_bound_of_the_dense_path(side):
    # The trace factors each site's product over the (L, L) table; the
    # dense path multiplies out the site's row of the (N, N) matrix. At
    # spacing 0.5 um the positions and their differences are exact, so the
    # table spread to (N, N) is spec.couplings bit for bit; at 0.37 um the
    # matrix's differences of rounded positions move 22 736 of its 50 625
    # entries at L = 15, by up to 3.9e-15 relative, and near a zero of a
    # factor (theta = pi/2, echo, gamma = 0, V t ~ pi) that moves a
    # product by far more than its rounding (to 128 times the bound below,
    # at L = 5), so the grouping is compared on the table's own couplings.
    # A dense call at L = 50 takes about a second, so there each spacing
    # takes one protocol: unitary echo at 0.5 um, dissipative Ramsey at 0.37.
    pot = soft_core_potential()
    times = np.linspace(0.0, 4.0 * math.pi / pot.v0, 3 if side == 50 else 17)
    protocols = [(True, 0.0), (False, 0.05), (True, 0.05), (False, 0.0)]
    for i, spacing in enumerate((0.5, 0.37)):
        spec = LatticeSpec(side, spacing, pot)
        v = gathered_table(spec)
        if spacing == 0.5:
            assert v.tobytes() == spec.couplings.tobytes()
        for echo, gamma in protocols if side < 50 else protocols[i : i + 1]:
            proto = RamseyProtocol(math.pi / 2, echo, gamma, 0.02)
            got = lattice_contrast(spec, proto, times)
            want = sigma_plus_couplings(v, proto, times)
            for k, t in enumerate(times.tolist()):
                bound = trace_bound(proto, t, site_products(v, proto, t))
                assert abs(got[k] - want[k]) <= bound, (spacing, echo, gamma, t)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_contrast_exact_zero_factor_kills_the_sites_it_should(monkeypatch, gamma):
    # the kernel is forced to an exact zero at displacement (0, 4) and
    # (4, 0): on a 5 x 5 lattice the 16 edge sites have a partner there and
    # drop out of the sum; the 9 inner sites keep their products
    spec, proto = fig_lattice(theta=1.0, echo=False, gamma=gamma, side=5)
    t = 1.3
    zero = abs(spec.coupling_table[0, 4]) * t
    half_angle = lattice._half_angle_kernel

    def zeroing_kernel(x, t_k, theta, beta, out, *scratch):
        half_angle(x, t_k, theta, beta, out, *scratch)
        out[np.abs(x * t_k) == zero] = 0.0

    monkeypatch.setattr(lattice, "_half_angle_kernel", zeroing_kernel)
    got = lattice_contrast(spec, proto, t)
    v = gathered_table(spec)

    def zeroed(f, lo):
        f[np.abs(v[lo : lo + f.shape[0]] * t) == zero] = 0.0
        return f

    rows = site_products(v, proto, t, zeroed).reshape(5, 5)
    inner = np.zeros((5, 5), dtype=bool)
    inner[1:4, 1:4] = True
    assert np.all(rows[~inner] == 0.0) and np.all(rows[inner] != 0.0)
    want = ising_core._envelope(proto, t) * rows.sum() / 25
    assert abs(got - want) <= trace_bound(proto, t, site_products(v, proto, t))


def test_coupling_table_is_row_zero_of_the_coupling_matrix():
    # the table takes site 0's distances by the matrix's own operations, so
    # it is row 0 of spec.couplings bit for bit at any spacing and potential
    soft = soft_core_potential()
    bare = derive_potential(DressingParams(1000.0, 5000.0, -1.0e4), PotentialKind.BARE_VDW)
    for pot, spacing, side in ((soft, 0.37, 15), (soft, 0.5, 7), (bare, 0.37, 6), (soft, 0.3, 1)):
        spec = LatticeSpec(side, spacing, pot)
        table = spec.coupling_table
        assert table.shape == (side, side) and not table.flags.writeable
        assert spec.coupling_table is table
        assert table.tobytes() == spec.couplings[0].reshape(side, side).tobytes()


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

    spec, proto = fig_lattice()
    pt = DimensionlessPoint(n_r=100.0, v0t=1.0, theta=math.pi / 2, beta=0)
    gas_spec, _ = pt.to_physical()
    v0 = gas_spec.potential.v0
    b = fit_hardcore_amplitude(
        gas_spec, np.linspace(0.05, 2.0 * math.pi, 40) / v0
    )

    n_eff = 12  # offsets with dx^2 + dy^2 <= (r_c / a)^2 = 4
    t_pred = 2.0 * math.acos(1.0 - math.log(2.0) / (b * n_eff))
    tau = brentq(lambda t: abs(lattice_contrast(spec, proto, t)) - 0.5, 1e-3, 3.0)
    assert t_pred == pytest.approx(spec.potential.v0 * tau, rel=0.25)


@pytest.mark.parametrize(
    "gamma, gamma_d",
    [(0.0, 0.0), (0.3, 0.0), (0.3, 0.11), (0.0, 0.11), (1.7, 0.0)],
    ids=["unitary", "emission", "both", "dephasing", "strong-emission"],
)
@pytest.mark.parametrize("echo", [True, False], ids=["echo", "ramsey"])
@pytest.mark.parametrize("theta", [math.pi / 2, 0.7], ids=["pi2", "0.7"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_two_atom_correlator_matches_oracle(n, theta, echo, gamma, gamma_d):
    # G(i, j) of every pair of an n-atom configuration against the dense
    # master equation; an echo runs the commuted model sequence, which
    # the closed form follows
    pot = soft_core_potential()
    positions = np.random.default_rng(n).random((n, 3)) * pot.r_c
    cfg = AtomConfiguration(positions)
    proto = RamseyProtocol(theta, echo, gamma, gamma_d)
    t = 1.3
    v = cfg.coupling_matrix(pot)
    seq = echo_model_sequence(theta, t) if echo else ramsey_sequence(theta, t)
    rho = evolve_master(initial_density_matrix(n), v, seq, gamma=gamma, gamma_d=gamma_d)
    sx = [expectation(rho, site_operator("x", k, n)).real / 2.0 for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            xx = expectation(rho, pair_operator("x", i, "x", j, n)).real / 4.0
            got = connected_sxsx(v, proto, i, j, t)
            assert got == pytest.approx(xx - sx[i] * sx[j], abs=1e-10), (i, j)


def test_correlator_argument_validation():
    pot = soft_core_potential()
    v = AtomConfiguration(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])).coupling_matrix(pot)
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    with pytest.raises(ParameterError):
        connected_sxsx(v, proto, 1, 1, 0.5)
    with pytest.raises(ParameterError):
        connected_sxsx(v, proto, 0, 2, 0.5)


def test_correlator_index_array_validation():
    v = fig_lattice(side=3)[0].couplings
    proto = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    with pytest.raises(ParameterError, match="distinct sites"):
        connected_sxsx(v, proto, 4, np.array([0, 4, 8]), 0.5)
    for i, js in ((4, np.array([0, 9])), (4, np.array([-1, 2])), (9, np.array([0, 1])), (-1, 3)):
        with pytest.raises(ParameterError, match="out of range"):
            connected_sxsx(v, proto, i, js, 0.5)
    for js in (np.array([[0, 1]]), np.array([0.0, 1.0]), 1.0):
        with pytest.raises(ParameterError, match="site index"):
            connected_sxsx(v, proto, 4, js, 0.5)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_correlator_index_array_matches_single_calls(gamma):
    # one call over an index array equals the calls with one index each,
    # bit for bit, in any order and with repeats
    spec, proto = fig_lattice(theta=0.7, echo=False, gamma=gamma, side=5)
    v = spec.couplings
    t = 0.5 * math.pi / spec.potential.v0
    js = np.array([24, 0, 13, 7, 13, 1])
    got = connected_sxsx(v, proto, 6, js, t)
    assert got.shape == js.shape
    for k, j in enumerate(js):
        single = connected_sxsx(v, proto, 6, int(j), t)
        assert isinstance(single, float)
        assert got[k] == single
    assert connected_sxsx(v, proto, 6, np.array([], dtype=int), t).shape == (0,)


def test_map_is_zero_at_t_zero():
    values = correlation_map(*fig_lattice(side=5), 0.0)
    assert np.nanmax(np.abs(values)) <= 1e-15


def test_map_center_defaults_to_middle_site():
    spec, proto = fig_lattice(side=5)
    values = correlation_map(spec, proto, 0.3)
    assert spec.center_site == 12
    assert values.shape == (5, 5)
    assert np.isnan(values[2, 2])  # reference site carries no G
    assert np.isnan(values).sum() == 1
    assert fig_lattice(side=4)[0].center_site == 5  # (1, 1): no exact center


def test_map_symmetry_and_bound():
    spec, proto = fig_lattice(side=5)
    t = 0.5 * math.pi / spec.potential.v0
    values = correlation_map(spec, proto, t)
    assert np.nanmax(np.abs(values)) <= 0.25 + 1e-12
    # G(i, j) = G(j, i): the value at site j of the center-i map equals
    # the correlator with the two sites swapped
    v = spec.configuration().coupling_matrix(spec.potential)
    swapped = connected_sxsx(v, proto, 6, spec.center_site, t)
    assert values[divmod(6, 5)] == pytest.approx(swapped, abs=1e-13)


def test_map_d4_symmetry_at_center():
    spec, proto = fig_lattice()
    t = math.pi / spec.potential.v0
    assert d4_deviation(correlation_map(spec, proto, t)) <= 1e-10


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
    spec, proto = fig_lattice(theta=theta, echo=echo, side=side)
    v = spec.configuration().coupling_matrix(spec.potential)
    for v0t in (math.pi / 2, math.pi, 2 * math.pi):
        t = v0t / spec.potential.v0
        values = correlation_map(spec, proto, t)
        center = spec.center_site
        for j in range(spec.n_sites):
            if j == center:
                continue
            got = values[divmod(j, side)]
            want = reference_sxsx(v, proto, center, j, t)
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-30, (j, got, want)
            pair = connected_sxsx(v, proto, center, j, t)
            assert pair == got  # bit for bit: the map and the pair share one path


def test_single_site_map_is_empty():
    values = correlation_map(*fig_lattice(side=1), 0.4)
    assert values.shape == (1, 1) and np.isnan(values[0, 0])
    assert d4_deviation(values) == 0.0


def test_lattice_contrast_accepts_time_array():
    spec, proto = fig_lattice(theta=1.1, echo=False, gamma=0.05, side=4)
    times = np.linspace(0.0, 2.0, 5)
    got = lattice_contrast(spec, proto, times)
    assert got.shape == times.shape
    for k, t in enumerate(times):
        assert got[k] == lattice_contrast(spec, proto, float(t))


def test_sigma_plus_couplings_holds_one_block_of_gather_indices():
    # L = 50 at 9 times: the row blocks are taken one after another, so the
    # call holds one block's gather indices; building every block's first
    # held N^2 intp indices (53 MB traced) for the whole call
    spec, proto = fig_lattice(gamma=0.05, side=50)
    v = spec.couplings  # built before the trace: the matrix is not the call's
    times = np.linspace(0.0, 2.0, 9)
    tracemalloc.start()
    try:
        got = sigma_plus_couplings(v, proto, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert got[4] == sigma_plus_couplings(v, proto, float(times[4]))


def test_lattice_contrast_holds_one_chunk_of_times():
    # L = 50 at fig4's 129 times: the chunks of times are taken one after
    # another, so beyond the (L, L) table the call holds one chunk's kernel
    # arrays and mirrored products (9.8 MB traced), not an (N, N) array
    # (50 MB for a float one)
    spec, proto = fig_lattice(gamma=0.05, side=50)
    spec.coupling_table  # built before the trace: the table is not the call's
    times = np.linspace(0.0, 4.0 * math.pi / spec.potential.v0, 129)
    tracemalloc.start()
    try:
        got = lattice_contrast(spec, proto, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert got[100] == lattice_contrast(spec, proto, float(times[100]))  # the fourth chunk


def test_map_correlations_confined_to_plateau_radius():
    spec, proto = fig_lattice()
    t = math.pi / spec.potential.v0
    pos = lattice_positions(15, spec.spacing)
    d = np.linalg.norm(pos - pos[spec.center_site], axis=1).reshape(15, 15)
    g = np.abs(correlation_map(spec, proto, t))
    r_c = spec.potential.r_c
    near = g[(d > 0) & (d <= r_c)].mean()
    far = g[d > 2.5 * r_c].mean()
    assert near > 10.0 * far


def test_dissipative_map_matches_pair_correlator():
    spec, proto = fig_lattice(theta=0.7, echo=False, gamma=0.3, gamma_d=0.11, side=3)
    v = spec.configuration().coupling_matrix(spec.potential)
    t = 0.5 * math.pi / spec.potential.v0
    values = correlation_map(spec, proto, t)
    for j in range(spec.n_sites):
        if j != spec.center_site:
            pair = connected_sxsx(v, proto, spec.center_site, j, t)
            assert values[divmod(j, 3)] == pair  # bit for bit


def test_d4_deviation_needs_odd_side():
    with pytest.raises(ParameterError):
        d4_deviation(correlation_map(*fig_lattice(side=4), 0.2))
    odd = correlation_map(*fig_lattice(side=3), 0.2)
    for bad in (odd[:, :2], odd[:2], odd.ravel(), odd[None]):
        with pytest.raises(ParameterError):
            d4_deviation(bad)


def test_couplings_are_built_once_on_first_use(monkeypatch):
    # a spec made only for validation builds nothing, nor does the trace;
    # every map's protocol and time then reads the one read-only matrix
    builds = []
    original = AtomConfiguration.coupling_matrix

    def counting(self, pot):
        builds.append(self.n)
        return original(self, pot)

    monkeypatch.setattr(AtomConfiguration, "coupling_matrix", counting)
    spec, proto = fig_lattice(side=5)
    assert builds == []
    lattice_contrast(spec, proto, np.linspace(0.0, 1.0, 3))
    assert builds == [] and "couplings" not in vars(spec)  # the trace reads the table
    v = spec.couplings
    correlation_map(spec, RamseyProtocol(0.7, False, 0.2), 0.4)
    assert builds == [25] and spec.couplings is v
    assert not v.flags.writeable
    want = original(spec.configuration(), spec.potential)
    assert v.tobytes() == want.tobytes()


def test_subnormal_emission_map_has_no_nan():
    # gamma = 1e-320 made 12 of the 24 sites nan, where V_ic - V_jc = 0
    spec, _ = fig_lattice(side=5)
    t = math.pi / spec.potential.v0
    for echo in (True, False):
        got = correlation_map(spec, RamseyProtocol(math.pi / 2, echo, 1e-320), t)
        want = correlation_map(spec, RamseyProtocol(math.pi / 2, echo), t)
        assert np.isnan(got).sum() == 1
        assert np.nanmax(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize(
    "spacing, message, trace",
    [
        pytest.param(spacing, message, trace, id=f"{spacing}-{message}{'-trace' if trace else ''}")
        for trace in (False, True)
        for spacing, message in ((1e300, "pair distances overflow"), (1e308, "positions overflow"))
    ],
)
@pytest.mark.filterwarnings("error")
def test_overflowing_spacing_is_a_parameter_error(spacing, message, trace):
    # the squared distances or the positions overflowed with a numpy warning;
    # the trace's table raises the coupling matrix's errors
    spec = LatticeSpec(15, spacing, soft_core_potential())
    with pytest.raises(ParameterError, match=message):
        lattice_contrast(spec, RamseyProtocol(math.pi / 2, True), 0.5) if trace else spec.couplings


def test_lattice_spec_validation():
    pot = soft_core_potential()
    with pytest.raises(ParameterError):
        LatticeSpec(0, 0.5, pot)
    with pytest.raises(ParameterError):
        LatticeSpec(True, 0.5, pot)
    with pytest.raises(ParameterError):
        LatticeSpec(3, -0.5, pot)


def test_lattice_spec_caps_the_dense_arrays():
    # checked before any (L^2, L^2) array exists, so a huge side fails fast
    pot = soft_core_potential()
    assert LatticeSpec(MAX_SIDE, 0.5, pot).n_sites == MAX_SIDE**2
    for side in (MAX_SIDE + 1, 1_000_000, 10**4000):
        with pytest.raises(CapacityError, match=f"capped at L = {MAX_SIDE}"):
            LatticeSpec(side, 0.5, pot)
