import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rydramsey import oracle
from rydramsey.errors import CapacityError, NumericalError, ParameterError
from rydramsey.ising_core import RamseyProtocol, f_kernel, sigma_plus_couplings


def rand_couplings(n, rng, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    v = (a + a.T) / 2.0
    np.fill_diagonal(v, 0.0)
    return v


def test_two_spin_hamiltonian_spectrum():
    # V/4 zz + (V/4)(z_1 + z_2): uu pays 3V/4, all others -V/4
    v = 1.6
    h = oracle.build_hamiltonian(np.array([[0.0, v], [v, 0.0]]))
    # basis order: bit k set <=> spin k up; index 0 = dd, 3 = uu
    assert h == pytest.approx(np.array([-v / 4, -v / 4, -v / 4, 3 * v / 4]))


def test_interaction_only_hamiltonian():
    v = 2.0
    h = oracle.build_hamiltonian(np.array([[0.0, v], [v, 0.0]]), include_fields=False)
    assert h == pytest.approx(np.array([v / 4, -v / 4, -v / 4, v / 4]))


def test_capacity_limit():
    with pytest.raises(CapacityError):
        oracle.build_hamiltonian(np.zeros((9, 9)))


def test_asymmetric_couplings_rejected():
    with pytest.raises(ParameterError):
        oracle.build_hamiltonian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_nonzero_diagonal_rejected():
    # the closed forms' couplings check holds the oracle's zero-diagonal rule
    v = np.array([[0.0, 1.0, 0.3], [1.0, 1e-300, 0.5], [0.3, 0.5, 0.0]])
    with pytest.raises(ParameterError, match="couplings must be zero on the diagonal"):
        oracle.build_hamiltonian(v)


def test_oracle_symmetry_bound_is_absolute():
    # the oracle checks couplings as the closed forms do, but with its
    # absolute symmetry bound of 1e-12: an asymmetry of 1e-11 at
    # max |V| = 100 is within sigma_plus_couplings' 1e-12 of max |V| and
    # an error here
    v = np.array([[0.0, 100.0, 0.3], [100.0, 0.0, 0.5], [0.3 + 1e-11, 0.5, 0.0]])
    assert np.max(np.abs(v - v.T)) > 1e-12
    proto = RamseyProtocol(math.pi / 2, False, 0.0, 0.0)
    assert np.isfinite(sigma_plus_couplings(v, proto, 0.7))
    with pytest.raises(ParameterError, match="couplings must be symmetric"):
        oracle.build_hamiltonian(v)
    with pytest.raises(ParameterError, match="couplings must be symmetric"):
        oracle.ramsey_sigma_plus(v, proto, [0.7])


def test_non_finite_inputs_rejected():
    # the Taylor series reaches its stopping bound only on finite input
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = oracle.initial_density_matrix(2)
    seq = oracle.ramsey_sequence(1.0, 1.0)
    with pytest.raises(ParameterError, match="state must be finite"):
        oracle.evolve_master(rho * np.nan, v, seq, gamma=0.1)
    with pytest.raises(ParameterError, match="couplings must be finite"):
        oracle.evolve_master(rho, np.array([[0.0, np.inf], [np.inf, 0.0]]), seq, gamma=0.1)
    with pytest.raises(ParameterError, match="decay rates must be finite"):
        oracle.evolve_master(rho, v, seq, gamma=np.inf)
    with pytest.raises(ParameterError, match="finite non-negative times"):
        oracle.ramsey_sigma_plus(v, RamseyProtocol(1.0, False, 0.1, 0.0), [1.0, np.inf])


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("echo", [False, True])
def test_float_time_gives_the_one_element_value(gamma, echo):
    # a float time returns a Python complex, the bits of its one-element call
    rng = np.random.default_rng(21)
    v = rand_couplings(4, rng)
    proto = RamseyProtocol(1.1, echo, gamma, 0.05)
    got = oracle.ramsey_sigma_plus(v, proto, 0.7)
    assert type(got) is complex
    want = oracle.ramsey_sigma_plus(v, proto, [0.7])
    assert want.shape == (1,)
    assert np.array([got]).tobytes() == want.tobytes()


@pytest.mark.parametrize("times", [np.zeros((2, 2)), [[0.5]]])
def test_time_array_of_two_dimensions_rejected(times):
    # the oracle refuses it as the closed form does, with the same message
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    proto = RamseyProtocol(1.0, False, 0.1, 0.0)
    msg = "t must be a float or a 1-D array of times"
    with pytest.raises(ParameterError, match=msg):
        sigma_plus_couplings(v, proto, times)
    with pytest.raises(ParameterError, match=msg):
        oracle.ramsey_sigma_plus(v, proto, times)


def test_pauli_names():
    # 'minus' is the conjugate transpose of 'plus'; any other name is an error
    assert np.array_equal(oracle.pauli("minus"), oracle.pauli("plus").conj().T)
    assert np.array_equal(oracle.pauli("minus"), [[0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ParameterError, match="unknown operator name 'w'"):
        oracle.pauli("w")


def test_site_and_pair_operators_check_their_sites():
    with pytest.raises(ParameterError, match="site 3 out of range for n = 3"):
        oracle.site_operator("x", 3, 3)
    with pytest.raises(ParameterError, match="site -1 out of range"):
        oracle.site_operator("x", -1, 3)
    with pytest.raises(ParameterError, match="two distinct sites"):
        oracle.pair_operator("x", 1, "z", 1, 3)
    with pytest.raises(ParameterError, match=r"sites \(0, 3\) out of range for n = 3"):
        oracle.pair_operator("x", 0, "z", 3, 3)


def test_sequence_steps_are_checked():
    with pytest.raises(ParameterError, match="dark-time duration must be non-negative"):
        oracle.DarkTime(-0.1)
    with pytest.raises(ParameterError, match="unknown sequence step 1.0"):
        oracle.PulseSequence((oracle.Pulse(1.0), 1.0))


@pytest.mark.parametrize("n", [0, 9])
def test_initial_state_size_is_checked(n):
    with pytest.raises(ParameterError, match=r"n must be in \[1, 8\]"):
        oracle.initial_density_matrix(n)


def test_state_shapes_are_checked():
    rho = oracle.initial_density_matrix(2)
    with pytest.raises(ParameterError, match="dimension mismatch"):
        oracle.expectation(rho, oracle.site_operator("z", 0, 3))
    v = np.zeros((3, 3))
    seq = oracle.ramsey_sequence(1.0, 1.0)
    with pytest.raises(ParameterError, match=r"state shape \(4, 4\) does not match N = 3"):
        oracle.evolve_master(rho, v, seq)


def test_non_physical_state_rejected_with_diagnostics():
    rho = np.diag([1.5, -0.5]).astype(complex)  # unit trace, a negative eigenvalue
    with pytest.raises(NumericalError, match="left the physical manifold") as info:
        oracle.validate_density_matrix(rho)
    assert info.value.diagnostics["min_eigenvalue"] == -0.5
    assert info.value.diagnostics["trace_deviation"] == 0.0


def test_initial_pulse_product_state():
    # theta pulse on |down...down>: <sz> = -cos(theta) on every site
    theta = 0.8
    rho = oracle.initial_density_matrix(3)
    seq = oracle.PulseSequence(steps=(oracle.Pulse(theta),))
    rho_t = oracle.evolve_master(rho, np.zeros((3, 3)), seq)
    for k in range(3):
        sz = oracle.expectation(rho_t, oracle.site_operator("z", k, 3))
        assert sz.real == pytest.approx(-math.cos(theta), abs=1e-12)
        sx = oracle.expectation(rho_t, oracle.site_operator("x", k, 3))
        assert sx.real == pytest.approx(math.sin(theta), abs=1e-12)


def test_density_matrix_invariants_along_evolution():
    rng = np.random.default_rng(17)
    v = rand_couplings(4, rng)
    proto = RamseyProtocol(math.pi / 3, False, 0.25, 0.1)
    times = np.linspace(0.0, 4.0, 5)
    rho = oracle.initial_density_matrix(4)
    seq = oracle.ramsey_sequence(proto.theta, times[-1])
    rho_t = oracle.evolve_master(
        rho, v, seq, gamma=proto.gamma, gamma_d=proto.gamma_d
    )
    diag = oracle.validate_density_matrix(rho_t)
    assert diag["hermiticity_deviation"] <= 1e-12
    assert diag["trace_deviation"] <= 1e-10
    assert diag["min_eigenvalue"] >= -1e-8


def test_unitary_purity_preserved():
    rng = np.random.default_rng(4)
    v = rand_couplings(5, rng)
    rho = oracle.initial_density_matrix(5)
    seq = oracle.ramsey_sequence(math.pi / 2, 3.0)
    rho_t = oracle.evolve_master(rho, v, seq)
    purity = oracle.expectation(rho_t, rho_t).real
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_single_spin_decay_rate_pins_prefactor():
    """Coherence of one decaying spin falls as e^{-gamma t/2}.

    This is the measurement that fixes the closed form's global decay
    exponent; it must stay in lockstep with coherence_decay.
    """
    gamma = 0.3
    theta = math.pi / 2
    v = np.zeros((1, 1))
    times = np.array([0.0, 1.0, 3.0, 6.0])
    vals = oracle.ramsey_sigma_plus(v, RamseyProtocol(theta, False, gamma, 0.0), times)
    want = math.sin(theta) * np.exp(-gamma * times / 2.0)
    assert np.max(np.abs(vals - want)) < 1e-9


def test_single_spin_dephasing_rate():
    gamma_d = 0.4
    v = np.zeros((1, 1))
    times = np.array([0.0, 0.7, 2.5])
    vals = oracle.ramsey_sigma_plus(
        v, RamseyProtocol(math.pi / 2, False, 0.0, gamma_d), times
    )
    assert np.max(np.abs(vals - np.exp(-gamma_d * times))) < 1e-9


def test_dephasing_leaves_populations():
    rho = oracle.initial_density_matrix(2)
    seq = oracle.ramsey_sequence(math.pi / 3, 2.0)
    rng = np.random.default_rng(2)
    v = rand_couplings(2, rng)
    free = oracle.evolve_master(rho, v, seq)
    deph = oracle.evolve_master(rho, v, seq, gamma_d=0.5)
    assert np.max(np.abs(np.diag(free) - np.diag(deph))) < 1e-10


def test_closed_form_agreement_all_sizes():
    rng = np.random.default_rng(100)
    for n in range(2, 7):
        v = rand_couplings(n, rng)
        for echo in (True, False):
            proto = RamseyProtocol(math.pi / 4, echo, 0.0, 0.0)
            times = np.linspace(0.0, 5.0, 6)
            ref = oracle.ramsey_sigma_plus(v, proto, times)
            got = np.array([sigma_plus_couplings(v, proto, t) for t in times])
            assert np.max(np.abs(got - ref)) < 1e-12


def test_two_spin_kernel_reproduction():
    # N = 2 oracle reduces to a single pair kernel evaluation
    v = 0.9
    couplings = np.array([[0.0, v], [v, 0.0]])
    gamma = 0.2
    theta = 1.1
    times = np.array([0.5, 1.5, 4.0])
    for echo, beta in ((True, 0), (False, 1)):
        proto = RamseyProtocol(theta, echo, gamma, 0.0)
        vals = oracle.ramsey_sigma_plus(couplings, proto, times)
        want = np.array(
            [
                math.sin(theta)
                * math.exp(-gamma * t / 2.0)
                * f_kernel(v * t, gamma * t, theta, beta)
                for t in times
            ]
        )
        assert np.max(np.abs(vals - want)) < 1e-6


def test_permutation_covariance():
    rng = np.random.default_rng(8)
    n = 4
    v = rand_couplings(n, rng)
    perm = np.array([2, 0, 3, 1])
    vp = v[np.ix_(perm, perm)]
    proto = RamseyProtocol(math.pi / 2, False, 0.15, 0.0)
    t = np.array([1.3])
    a = oracle.ramsey_sigma_plus(v, proto, t)

    rho = oracle.initial_density_matrix(n)
    seq = oracle.ramsey_sequence(proto.theta, 1.3)
    rho_p = oracle.evolve_master(rho, vp, seq, gamma=proto.gamma)
    # site k of the permuted system is site perm[k] of the original
    per_site = [
        oracle.expectation(rho_p, oracle.site_operator("plus", k, n))
        for k in range(n)
    ]
    assert sum(per_site) == pytest.approx(n * complex(a[0]), abs=1e-10)


def test_echo_equivalence_unitary_and_dissipative():
    rng = np.random.default_rng(55)
    v = rand_couplings(5, rng)
    clean = oracle.echo_equivalence_check(v, math.pi / 2, 2.0)
    assert clean["max_observable_deviation"] < 1e-12
    assert abs(clean["fidelity_gap"]) < 1e-10
    lossy = oracle.echo_equivalence_check(v, math.pi / 2, 2.0, gamma=0.2)
    # the pulse-reordering identity genuinely fails under dissipation
    assert lossy["max_observable_deviation"] > 1e-3


def lab_echo_sigma_plus(v, proto, t):
    """Per-spin sigma_plus after the laboratory [theta, t/2, pi, t/2]
    sequence, read off the state with no frame change."""
    n = v.shape[0]
    rho = oracle.evolve_master(
        oracle.initial_density_matrix(n),
        v,
        oracle.echo_physical_sequence(proto.theta, t),
        proto.gamma,
        proto.gamma_d,
    )
    plus = sum(
        oracle.expectation(rho, oracle.site_operator("plus", k, n)) for k in range(n)
    )
    return plus / n


def test_echo_semantics_differ_dissipatively():
    # the echo oracle runs the commuted model sequence; the laboratory
    # sequence, in the reported frame -conj(lab), matches it only at gamma = 0
    rng = np.random.default_rng(77)
    v = rand_couplings(3, rng)
    proto = RamseyProtocol(math.pi / 2, True, 0.3, 0.0)
    model = oracle.ramsey_sigma_plus(v, proto, np.array([2.0]))
    phys = -np.conj(lab_echo_sigma_plus(v, proto, 2.0))
    assert abs(model[0] - phys) > 1e-6  # distinct observables
    unit = RamseyProtocol(math.pi / 2, True, 0.0, 0.0)
    m0 = oracle.ramsey_sigma_plus(v, unit, np.array([2.0]))
    p0 = -np.conj(lab_echo_sigma_plus(v, unit, 2.0))
    assert abs(m0[0] - p0) < 1e-12


def test_reported_frame_matches_tipping_amplitude():
    # after [theta, pi] the reported coherence starts at sin(theta), not
    # at -sin(theta) as in the lab frame
    v = np.zeros((2, 2))
    proto = RamseyProtocol(0.6, True, 0.0, 0.0)
    vals = oracle.ramsey_sigma_plus(v, proto, np.array([0.0]))
    assert vals[0] == pytest.approx(math.sin(0.6), abs=1e-12)
    lab = lab_echo_sigma_plus(v, proto, 0.0)
    assert lab == pytest.approx(-math.sin(0.6), abs=1e-12)


def test_fidelity_pure_states():
    up = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    down = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    assert oracle.fidelity(up, up) == pytest.approx(1.0, abs=1e-12)
    assert oracle.fidelity(up, down) == pytest.approx(0.0, abs=1e-12)
    assert oracle.fidelity(up, plus) == pytest.approx(0.5, abs=1e-12)


def test_pulse_sequence_dark_time():
    seq = oracle.echo_physical_sequence(math.pi / 2, 4.0)
    assert seq.dark_time == pytest.approx(4.0)
    model = oracle.echo_model_sequence(math.pi / 2, 4.0)
    assert model.dark_time == pytest.approx(4.0)


_IMPORT_GUARD = """
import sys
import numpy as np
from rydramsey import oracle
from rydramsey.ising_core import RamseyProtocol

v = np.array([[0.0, 1.3, 0.4], [1.3, 0.0, -0.7], [0.4, -0.7, 0.0]])
out = oracle.ramsey_sigma_plus(v, RamseyProtocol(1.1, True, 0.2, 0.05), [0.0, 0.5, 2.0])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(out.tobytes().hex())
"""


def test_import_loads_no_ode_solver_or_root_finder():
    # a fresh interpreter: importing the package and running a gamma > 0
    # oracle evolution load no scipy module at all, and give the
    # in-process value bit for bit
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD], env=env, capture_output=True, text=True, check=True
    )
    loaded, values = run.stdout.split("\n")[:2]
    assert loaded == "[]"
    v = np.array([[0.0, 1.3, 0.4], [1.3, 0.0, -0.7], [0.4, -0.7, 0.0]])
    out = oracle.ramsey_sigma_plus(v, RamseyProtocol(1.1, True, 0.2, 0.05), [0.0, 0.5, 2.0])
    assert bytes.fromhex(values) == out.tobytes()


# The Taylor propagator against scipy's expm of the dense 4^N Lindblad
# superoperator, built here from Kronecker products with no oracle table.
PROPAGATOR_TOL = 1e-14
# Dissipative oracle against the closed form at N = 6 and 8. A DOP853
# integration at rtol 1e-11 stays 1.5e-14 to 5.8e-14 away on these cases.
CLOSED_FORM_GAP_TOL = 2e-15


def embed(op, k, n):
    """2x2 operator on site k of n, identity elsewhere (bit k = site k)."""
    factors = [np.eye(2)] * n
    factors[n - 1 - k] = op
    return oracle._kron_chain(factors)


def lindblad_superoperator(v, gamma, gamma_d, include_fields):
    """Row-major vec(L rho) = S vec(rho) for the oracle's master equation."""
    n = v.shape[0]
    zs = [embed(np.diag([-1.0, 1.0]), k, n) for k in range(n)]
    one = np.eye(1 << n)
    h = 0.0 * one
    for j in range(n):
        h += sum(v[j, k] / 4.0 * zs[j] @ zs[k] for k in range(j + 1, n))
        if include_fields:
            h += v[j].sum() / 4.0 * zs[j]
    s = -1j * (np.kron(h, one) - np.kron(one, h.T))
    for k in range(n):
        a = embed(np.array([[0.0, 1.0], [0.0, 0.0]]), k, n)  # |down><up|
        p = a.T @ a
        s += gamma * (np.kron(a, a) - 0.5 * (np.kron(p, one) + np.kron(one, p.T)))
        s += 0.5 * gamma_d * (np.kron(zs[k], zs[k]) - np.kron(one, one))
    return s


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("echo", [False, True])
def test_propagator_matches_superoperator_expm(n, echo):
    # gamma and gamma_d > 0, unsorted, repeated and zero times
    from scipy.linalg import expm

    rng = np.random.default_rng(40 + n)
    v = rand_couplings(n, rng, scale=2.0)
    gamma, gamma_d, theta = 0.3, 0.05, 1.1
    times = np.array([1.7, 0.0, 0.4, 1.7, 3.0, 0.0])
    vals = oracle.ramsey_sigma_plus(v, RamseyProtocol(theta, echo, gamma, gamma_d), times)

    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = oracle._kron_chain([np.array([[c, -s], [s, c]])] * n)
    if echo:
        u = oracle._kron_chain([np.array([[0.0, -1.0], [1.0, 0.0]])] * n) @ u
    rho0 = np.outer(u[:, 0], u[:, 0]).astype(complex)
    sup = lindblad_superoperator(v, gamma, gamma_d, include_fields=not echo)
    e = oracle.build_hamiltonian(v, include_fields=not echo)
    states = oracle._evolve_dark_sampled(rho0, e, times, gamma, gamma_d, n)
    plus = sum(embed(np.array([[0.0, 0.0], [2.0, 0.0]]), k, n) for k in range(n)) / n
    for t, got, val in zip(times, states, vals):
        want = (expm(sup * t) @ rho0.ravel()).reshape(rho0.shape)
        assert np.max(np.abs(got - want)) < PROPAGATOR_TOL, t
        # the propagator keeps a Hermitian state exactly Hermitian
        assert np.array_equal(got, got.conj().T)
        sp = np.trace(want @ plus)
        assert abs(val - (-np.conj(sp) if echo else sp)) < PROPAGATOR_TOL, t


@pytest.mark.parametrize("n, times", [(6, [0.0, 1.5, 3.0, 3.0]), (8, [2.0, 0.0])])
@pytest.mark.parametrize("echo", [False, True])
def test_dissipative_oracle_matches_closed_form_to_rounding(n, times, echo):
    rng = np.random.default_rng(60 + n)
    v = rand_couplings(n, rng)
    proto = RamseyProtocol(math.pi / 2.0, echo, 0.3, 0.05)
    got = oracle.ramsey_sigma_plus(v, proto, times)
    want = sigma_plus_couplings(v, proto, np.asarray(times))
    assert np.max(np.abs(got - want)) < CLOSED_FORM_GAP_TOL
