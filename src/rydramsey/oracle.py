"""Dense master-equation ground truth for small spin systems.

Brute-force Lindblad evolution of N <= 8 spins under the z-diagonal
Ising Hamiltonian of :mod:`rydramsey.ising_core`, with jump operator
sigma^- at rate gamma on every spin and an optional sigma^z dephasing
channel scaled so single-spin coherences decay at exactly gamma_d. Used
to validate the closed-form coherence, the echo-sequence reduction, and
the correlator formulas; everything here favors exactness over scale.

Basis convention: bit k of the computational index is the state of spin
k, with bit 1 = up and sigma^z = diag(-1, +1) in the (down, up) ordering
of each factor. Dark-time evolution at gamma = 0 is exact and
elementwise (the Lindblad generator is diagonal there); gamma > 0
applies exp(L h) to the dense state as a Taylor series summed to
rounding level, the idea of Al-Mohy and Higham, "Computing the action
of the matrix exponential", SIAM J. Sci. Comput. 33 (2011). Only numpy
is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError, NumericalError, ParameterError

__all__ = [
    "CAPACITY_LIMIT",
    "Pulse",
    "DarkTime",
    "PulseSequence",
    "ramsey_sequence",
    "echo_model_sequence",
    "echo_physical_sequence",
    "initial_density_matrix",
    "build_hamiltonian",
    "evolve_master",
    "validate_density_matrix",
    "expectation",
    "pauli",
    "site_operator",
    "pair_operator",
    "ramsey_sigma_plus",
    "echo_equivalence_check",
    "fidelity",
]

# Dense 2^N x 2^N density matrices; 8 spins = 256 x 256 stays fast,
# 9 would quadruple every application of the Lindblad generator.
CAPACITY_LIMIT = 8

# Bound on ||L h|| for one Taylor step of the dissipative evolution.
_TAYLOR_THETA = 2.0

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_MIN_EIGENVALUE = -1e-8


def _checked_couplings(couplings):
    v = np.asarray(couplings, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
        raise ParameterError("couplings must be a nonempty square matrix")
    if not np.all(np.isfinite(v)):
        raise ParameterError("couplings must be finite")
    n = v.shape[0]
    if n > CAPACITY_LIMIT:
        raise CapacityError(
            f"dense evolution is capped at N = {CAPACITY_LIMIT}, got N = {n}"
        )
    if not np.allclose(v, v.T, rtol=0.0, atol=1e-12):
        raise ParameterError("couplings must be symmetric")
    if np.any(np.diag(v) != 0.0):
        raise ParameterError("couplings must have a zero diagonal")
    return v, n


def _z_table(n: int) -> np.ndarray:
    """(2^n, n) table of sigma^z eigenvalues, one row per basis state."""
    s = np.arange(1 << n)
    bits = (s[:, None] >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def build_hamiltonian(couplings, include_fields: bool = True) -> np.ndarray:
    """Diagonal of the Ising Hamiltonian over the 2^N z-basis, rad/us.

    H = sum_{j<k} (V_jk/4) sigma^z_j sigma^z_k
      + sum_k b_k sigma^z_k,  b_k = sum_{j != k} V_jk / 4,
    returned as the length-2^N vector of z-basis eigenvalues (H is
    diagonal there; nothing off-diagonal ever needs to be stored). With
    ``include_fields=False`` the single-particle b_k terms are dropped,
    which is the effective Hamiltonian governing the dark time of an
    echo sequence once the pi pulse has been commuted to the front.

    Raises
    ------
    CapacityError
        More than 8 spins.
    ParameterError
        Couplings not square/symmetric/zero-diagonal.
    """
    v, n = _checked_couplings(couplings)
    z = _z_table(n)
    # (z @ v) * z sums V_jk z_j z_k over ordered pairs, hence /8 not /4.
    e = ((z @ v) * z).sum(axis=1) / 8.0
    if include_fields:
        e = e + z @ (v.sum(axis=1) / 4.0)
    return e


@dataclass(frozen=True)
class Pulse:
    """Instantaneous global rotation by `angle` about the y axis."""

    angle: float


@dataclass(frozen=True)
class DarkTime:
    """Free evolution for `duration` us.

    include_fields selects the full Hamiltonian (True) or the
    interaction-only echo Hamiltonian (False).
    """

    duration: float
    include_fields: bool = True

    def __post_init__(self):
        if self.duration < 0:
            raise ParameterError("dark-time duration must be non-negative")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses and dark-time segments applied left to right."""

    steps: tuple

    def __post_init__(self):
        for s in self.steps:
            if not isinstance(s, (Pulse, DarkTime)):
                raise ParameterError(f"unknown sequence step {s!r}")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def dark_time(self) -> float:
        """Total free-evolution time, us."""
        return sum(s.duration for s in self.steps if isinstance(s, DarkTime))


def ramsey_sequence(theta: float, t: float) -> PulseSequence:
    """Plain Ramsey: theta pulse, then dark time t."""
    return PulseSequence((Pulse(theta), DarkTime(t)))


def echo_physical_sequence(theta: float, t: float) -> PulseSequence:
    """Laboratory echo: theta pulse, t/2 dark, pi pulse, t/2 dark."""
    return PulseSequence(
        (Pulse(theta), DarkTime(t / 2), Pulse(np.pi), DarkTime(t / 2))
    )


def echo_model_sequence(theta: float, t: float) -> PulseSequence:
    """Echo with the pi pulse commuted to the front.

    [theta, pi, evolve t under the interaction-only Hamiltonian]. For
    gamma = 0 this is exactly equivalent to the physical echo sequence
    (the interaction and field terms commute, and conjugating the field
    term through the pi pulse cancels it over the two halves); with
    emission on, the two differ at finite order in gamma*t, which
    :func:`echo_equivalence_check` quantifies.
    """
    return PulseSequence(
        (Pulse(theta), Pulse(np.pi), DarkTime(t, include_fields=False))
    )


def initial_density_matrix(n: int) -> np.ndarray:
    """|down...down><down...down| for n spins."""
    if not 1 <= n <= CAPACITY_LIMIT:
        raise ParameterError(f"n must be in [1, {CAPACITY_LIMIT}]")
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def pauli(name: str) -> np.ndarray:
    """2x2 operator in the (down, up) basis.

    'x', 'y', 'z' are the Pauli matrices with sigma^z = diag(-1, +1);
    'plus' is sigma^x + i sigma^y = 2|up><down| (twice the raising
    operator, matching the reported-coherence convention) and 'minus'
    is its conjugate transpose.
    """
    if name == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if name == "y":
        return np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
    if name == "z":
        return np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    if name == "plus":
        return np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)
    if name == "minus":
        return np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    raise ParameterError(f"unknown operator name {name!r}")


def _kron_chain(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def site_operator(name: str, k: int, n: int) -> np.ndarray:
    """Single-site operator embedded in the n-spin space.

    Bit k of the basis index is spin k, so site k sits at position
    n-1-k of the Kronecker chain (first factor is most significant).
    """
    if not 0 <= k < n:
        raise ParameterError(f"site {k} out of range for n = {n}")
    eye = np.eye(2, dtype=complex)
    factors = [eye] * n
    factors[n - 1 - k] = pauli(name)
    return _kron_chain(factors)


def pair_operator(name_i: str, i: int, name_j: str, j: int, n: int) -> np.ndarray:
    """Product of two single-site operators on distinct sites i, j."""
    if i == j:
        raise ParameterError("pair operator needs two distinct sites")
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError(f"sites ({i}, {j}) out of range for n = {n}")
    eye = np.eye(2, dtype=complex)
    factors = [eye] * n
    factors[n - 1 - i] = pauli(name_i)
    factors[n - 1 - j] = pauli(name_j)
    return _kron_chain(factors)


def expectation(rho: np.ndarray, observable: np.ndarray) -> complex:
    """Tr(rho . O). Hermitian observables come back real to ~1e-10."""
    rho = np.asarray(rho)
    observable = np.asarray(observable)
    if rho.shape != observable.shape or rho.ndim != 2:
        raise ParameterError(
            f"dimension mismatch: state {rho.shape}, observable {observable.shape}"
        )
    return complex((rho * observable.T).sum())


def validate_density_matrix(rho: np.ndarray) -> dict:
    """Check Hermiticity, unit trace, and positivity; return diagnostics.

    Raises
    ------
    NumericalError
        Hermiticity deviation > 1e-12, |trace - 1| > 1e-10, or a
        negative eigenvalue below -1e-8. The diagnostics dict rides on
        the exception.
    """
    rho = np.asarray(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T))) if rho.size else 0.0
    tr = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    diag = {"hermiticity_deviation": herm, "trace_deviation": tr, "min_eigenvalue": min_eig}
    if herm > _HERMITICITY_TOL or tr > _TRACE_TOL or min_eig < _MIN_EIGENVALUE:
        raise NumericalError(
            f"state left the physical manifold: {diag}", diagnostics=diag
        )
    return diag


def _pulse_matrix(angle: float) -> np.ndarray:
    """Single-spin rotation by `angle` about y."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _apply_pulse(rho: np.ndarray, u2: np.ndarray, n: int) -> np.ndarray:
    u = _kron_chain([u2] * n)
    return u @ rho @ u.conj().T


class _SpaceTables:
    """Precomputed index machinery for one register size n."""

    def __init__(self, n: int):
        s = np.arange(1 << n)
        self.n = n
        self.nup = np.bitwise_count(s).astype(float)
        self.hamming = np.bitwise_count(np.bitwise_xor.outer(s, s)).astype(float)
        self.recycle = []
        self.coherence = []
        for k in range(n):
            r0 = s[((s >> k) & 1) == 0]
            r1 = r0 + (1 << k)
            self.recycle.append((np.ix_(r0, r0), np.ix_(r1, r1)))
            self.coherence.append((r0, r1))


_TABLE_CACHE: dict = {}


def _tables(n: int) -> _SpaceTables:
    if n not in _TABLE_CACHE:
        _TABLE_CACHE[n] = _SpaceTables(n)
    return _TABLE_CACHE[n]


def _taylor_step(rho, coef, recycle, gamma, h):
    """exp(L h) rho as a Taylor series in the Lindblad generator L.

    With ||L h|| <= theta, every term past k + 1 > 2 theta is at most half
    the one before it, so the dropped tail is below the last term; the
    sum stops once that term falls to 2^-53 of the total.
    """
    total, term, k = rho.copy(), rho, 0
    while True:
        k += 1
        term, prev = coef * term, term
        for dst, src in recycle:
            term[dst] += gamma * prev[src]
        term *= h / k
        total += term
        if k + 1 > 2 * _TAYLOR_THETA and np.abs(term).sum() <= 2.0**-53 * np.abs(total).sum():
            return total


def _evolve_dark_sampled(rho, e_diag, times, gamma, gamma_d, n):
    """Evolve one dark segment, returning the state at each requested time.

    times must be finite and non-negative; order is preserved in the
    output list. The generator L scales each element of rho by coef and,
    at gamma > 0, recycles each spin's up-up block into its down-down
    block. At gamma = 0 the state is exactly rho * exp(coef t); gamma > 0
    takes :func:`_taylor_step` steps with ||L|| h <= theta through the
    sorted times. Both routes keep a Hermitian rho exactly Hermitian.
    """
    tab = _tables(n)
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0) & (times < np.inf)):
        raise ParameterError("dark-time sampling requires finite non-negative times")
    coef = (
        -1j * (e_diag[:, None] - e_diag[None, :])
        - 0.5 * gamma * (tab.nup[:, None] + tab.nup[None, :])
        - gamma_d * tab.hamming
    )
    if gamma == 0.0:
        return [rho * np.exp(coef * t) for t in times]

    # Each column of L holds |coef| and at most n recycle entries gamma.
    norm = np.abs(coef).max() + gamma * n
    uniq, inverse = np.unique(times, return_inverse=True)
    states = []
    for dt in np.diff(uniq, prepend=0.0):
        steps = math.ceil(norm * dt / _TAYLOR_THETA)
        for _ in range(steps):
            rho = _taylor_step(rho, coef, tab.recycle, gamma, dt / steps)
        states.append(rho)
    return [states[i] for i in inverse]


def evolve_master(
    rho0,
    couplings,
    sequence: PulseSequence,
    gamma: float = 0.0,
    gamma_d: float = 0.0,
) -> np.ndarray:
    """Run a pulse sequence on an initial state; return the final state.

    Pulses are exact unitaries; dark times follow the Lindblad equation
    drho/dt = -i[H, rho] + gamma sum_k (s-_k rho s+_k - {s+_k s-_k, rho}/2)
    plus a sigma^z dephasing channel scaled so coherences decay at
    gamma_d per differing spin. The final state is validated against the
    density-matrix invariants.
    """
    v, n = _checked_couplings(couplings)
    if not (0.0 <= gamma < np.inf and 0.0 <= gamma_d < np.inf):
        raise ParameterError("decay rates must be finite and non-negative")
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (1 << n, 1 << n):
        raise ParameterError(
            f"state shape {rho.shape} does not match N = {n} couplings"
        )
    if not np.all(np.isfinite(rho)):
        raise ParameterError("state must be finite")
    e_full = None
    e_echo = None
    for step in sequence.steps:
        if isinstance(step, Pulse):
            rho = _apply_pulse(rho, _pulse_matrix(step.angle), n)
        else:
            if step.include_fields:
                if e_full is None:
                    e_full = build_hamiltonian(v, include_fields=True)
                e = e_full
            else:
                if e_echo is None:
                    e_echo = build_hamiltonian(v, include_fields=False)
                e = e_echo
            rho = _evolve_dark_sampled(
                rho, e, np.array([step.duration]), gamma, gamma_d, n
            )[0]
    validate_density_matrix(rho)
    return rho


def _per_spin_coherence(rho: np.ndarray, n: int) -> complex:
    tab = _tables(n)
    total = 0.0 + 0.0j
    for rows, cols in tab.coherence:
        total += 2.0 * rho[rows, cols].sum()
    return total / n


def ramsey_sigma_plus(couplings, proto, times) -> np.ndarray:
    """Brute-force per-spin <sigma^x> + i <sigma^y> over a time grid.

    The counterpart of :func:`rydramsey.ising_core.sigma_plus_couplings`
    computed with no closed-form input whatsoever: exact pulses, exact
    (or Taylor-summed to rounding level) dark-time evolution,
    expectation values read off the density matrix.

    An echo runs the commuted sequence of :func:`echo_model_sequence`
    (the form the closed-form coherence computes) and is reported in
    the readout frame, sigma_plus -> -conj(sigma_plus), which undoes
    the pi pulse's transverse flip so echo traces start at sin(theta)
    like plain Ramsey ones. The laboratory echo sequence and raw
    lab-frame expectations are reached through :func:`evolve_master`
    with :func:`echo_physical_sequence`, and
    :func:`echo_equivalence_check` compares the two sequences.

    Parameters
    ----------
    couplings : ndarray
        (N, N) symmetric coupling matrix, N <= 8, rad/us.
    proto : RamseyProtocol
        Tipping angle, echo flag, and decay rates.
    times : array_like
        Dark times, us, each >= 0.

    Returns
    -------
    ndarray
        Complex coherence, one entry per requested time.
    """
    v, n = _checked_couplings(couplings)
    times = np.asarray(times, dtype=float)

    # Pulses all sit at the front here, so the whole grid is one
    # trajectory sampled at several times.
    rho = initial_density_matrix(n)
    rho = _apply_pulse(rho, _pulse_matrix(proto.theta), n)
    if proto.echo:
        rho = _apply_pulse(rho, _pulse_matrix(np.pi), n)
    e = build_hamiltonian(v, include_fields=not proto.echo)
    states = _evolve_dark_sampled(rho, e, times, proto.gamma, proto.gamma_d, n)
    for s in states:
        validate_density_matrix(s)

    out = np.array([_per_spin_coherence(s, n) for s in states])
    if proto.echo:
        out = -np.conj(out)
    return out


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2."""
    w, u = np.linalg.eigh(np.asarray(rho1))
    w = np.clip(w, 0.0, None)
    sqrt1 = (u * np.sqrt(w)) @ u.conj().T
    lam = np.linalg.eigvalsh(sqrt1 @ np.asarray(rho2) @ sqrt1)
    lam = np.clip(lam, 0.0, None)
    # sqrt amplifies eigenvalue noise (1e-16 -> 1e-8 per mode); zero the
    # modes that are pure rounding so near-pure states report F ~ 1 exactly
    if lam.size:
        lam[lam < 1e-13 * max(lam.max(), 1e-300)] = 0.0
    return float(np.sqrt(lam).sum() ** 2)


def echo_equivalence_check(
    couplings, theta: float, t: float, gamma: float = 0.0, gamma_d: float = 0.0
) -> dict:
    """Compare the physical echo sequence against its commuted reduction.

    Runs [theta, t/2 dark, pi, t/2 dark] and [theta, pi, t dark under the
    interaction-only Hamiltonian] from the same initial state and reports

    - max_observable_deviation: max |<O>_phys - <O>_model| over
      sigma^x, sigma^y, sigma^z at every site,
    - fidelity_gap: 1 - F between the two final states.

    Both vanish identically at gamma = gamma_d = 0 (the two Hamiltonian
    terms commute, and the pi pulse flips the field term's sign between
    the two halves); with emission on, the two sequences genuinely
    differ, and the returned numbers measure by how much.
    """
    v, n = _checked_couplings(couplings)
    rho0 = initial_density_matrix(n)
    rho_phys = evolve_master(
        rho0, v, echo_physical_sequence(theta, t), gamma, gamma_d
    )
    rho_model = evolve_master(
        rho0, v, echo_model_sequence(theta, t), gamma, gamma_d
    )
    dev = 0.0
    for k in range(n):
        for name in ("x", "y", "z"):
            op = site_operator(name, k, n)
            delta = abs(
                expectation(rho_phys, op).real - expectation(rho_model, op).real
            )
            dev = max(dev, delta)
    return {
        "max_observable_deviation": dev,
        "fidelity_gap": 1.0 - fidelity(rho_phys, rho_model),
    }
