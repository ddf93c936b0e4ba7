"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured figure of
merit so a plain ``pytest tests/test_acceptance.py -v -s`` reads as a
checklist. Tolerances are part of the public contract and are asserted
at face value, never loosened to absorb numerical noise.
"""

import math
import os

import numpy as np
import pytest

from rydramsey import cli
from rydramsey.config import load_config
from rydramsey.experiments import run_fig5
from rydramsey.gas_average import (
    DimensionlessPoint,
    GasSpec,
    contrast_gas,
    low_density_amplitude,
    monte_carlo_gas,
    tau_half,
)
from rydramsey.ising_core import RamseyProtocol, sigma_plus_couplings
from rydramsey.lattice import (
    LatticeSpec,
    correlation_map,
    d4_deviation,
    lattice_positions,
)
from rydramsey.oracle import echo_equivalence_check, ramsey_sigma_plus
from rydramsey.potential import DressingParams, PotentialKind, derive_potential

# The random-geometry helper is shared with the validate command so the
# acceptance instances draw from the same well-conditioned distribution.
from rydramsey.experiments import _random_soft_core_instance

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SR = os.path.join(CONFIG_DIR, "sr_dressed.json")
RB = os.path.join(CONFIG_DIR, "rb_ultrafast.json")


def report(index, ok, detail):
    print(f"criterion {index:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def gas_point(n_r, theta, beta, gamma_over_v0=0.0):
    pt = DimensionlessPoint(
        n_r=n_r, v0t=1.0, theta=theta, beta=beta, gamma_over_v0=gamma_over_v0
    )
    spec, _ = pt.to_physical()
    return spec


def test_criterion_01_closed_form_matches_oracle():
    """50 random dissipative instances vs the master-equation solver."""
    rng = np.random.default_rng(2026)
    thetas = [math.pi / 20.0, math.pi / 4.0, math.pi / 2.0]
    times = np.linspace(0.0, 4.0 * math.pi, 10)  # V0 = 1 in this gauge
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 7))
        theta = thetas[case % 3]
        echo = bool(case % 2)
        gamma = 0.2 if case % 4 >= 2 else 0.0
        v, _pot = _random_soft_core_instance(rng, n)
        proto = RamseyProtocol(theta, echo, gamma, 0.0)
        oracle = ramsey_sigma_plus(v, proto, times)
        closed = np.array(
            [sigma_plus_couplings(v, proto, t) for t in times]
        )
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    report(1, worst <= 1e-6, f"max |closed - oracle| = {worst:.3e} (tol 1e-6)")


def test_criterion_02_echo_identity():
    """Front-commuted pi pulse is exact without dissipation."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        v, _pot = _random_soft_core_instance(rng, n)
        res = echo_equivalence_check(v, float(rng.uniform(0.2, math.pi / 2)),
                                     float(rng.uniform(0.5, 6.0)))
        worst = max(worst, res["max_observable_deviation"], abs(res["fidelity_gap"]))
    report(2, worst <= 1e-10, f"max echo deviation = {worst:.3e} (tol 1e-10)")


@pytest.mark.filterwarnings("ignore::rydramsey.errors.BiasWarning")
def test_criterion_03_quadrature_vs_monte_carlo():
    """Integral and positional-sampling routes agree within 3 SE.

    One geometry ensemble per (N_R, beta) covers all three times. Above
    N_R = 1 the box is capped at 12 r_c to keep the pair count tractable;
    the image-truncation bias there is ~1e-5 in |C|, far below the
    statistical error, so the small-box warning is suppressed knowingly.
    """
    worst_se = 0.0
    v0ts = [0.5, 2.0, 8.0]
    for n_r in (0.01, 0.1, 1.0, 10.0):
        for beta in (0, 1):
            spec = gas_point(n_r, math.pi / 2.0, beta)
            if n_r <= 1.0:
                n_atoms = max(128, int(math.ceil(1909.86 * n_r)))
                n_samples = 40
            else:
                n_atoms = int(n_r * (3.0 / (4.0 * math.pi)) * 12.0**3)
                n_samples = 12
            mc = monte_carlo_gas(
                spec, v0ts, n_samples=n_samples, n_atoms=n_atoms,
                seed=int(1000 * n_r) + beta,
            )
            for k, t in enumerate(v0ts):
                exact = contrast_gas(spec, t)
                pull = abs(mc.mean[k] - exact) / mc.stderr[k]
                worst_se = max(worst_se, float(pull))
    report(3, worst_se <= 3.0, f"max |MC - quadrature| = {worst_se:.2f} SE (tol 3)")


def test_criterion_04_low_density_sqrt_law():
    """Dilute-gas decay follows exp(-A N_R sqrt(V0 t)) to 1%."""
    assert low_density_amplitude(0) == math.sqrt(math.pi) / 2.0
    assert low_density_amplitude(1) == math.sqrt(math.pi) / 2.0**1.5
    worst = 0.0
    for beta in (0, 1):
        spec = gas_point(0.01, math.pi / 2.0, beta)
        a_const = low_density_amplitude(beta)
        for v0t in np.geomspace(1e-2, 20.0, 25):
            exact = abs(contrast_gas(spec, v0t))
            law = math.exp(-a_const * 0.01 * math.sqrt(v0t))
            worst = max(worst, abs(exact - law) / law)
    report(4, worst <= 0.01, f"max sqrt-law deviation = {worst:.4%} (tol 1%)")


def test_criterion_05_tau_half_power_laws():
    """tau_1/2 scales as N_R^-2 when dilute and N_R^-1/2 when dense."""

    def slope(n_r_values, beta):
        taus = []
        for n_r in n_r_values:
            spec = gas_point(n_r, math.pi / 2.0, beta)
            taus.append(tau_half(spec))
        coef = np.polyfit(np.log(n_r_values), np.log(taus), 1)
        return float(coef[0])

    lo = np.geomspace(1e-3, 1e-2, 5)
    hi = np.geomspace(1e2, 1e3, 5)
    slopes = {
        (beta, name): slope(grid, beta)
        for beta in (0, 1)
        for name, grid in (("lo", lo), ("hi", hi))
    }
    ok = all(
        abs(s - (-2.0)) <= 0.05 if name == "lo" else abs(s - (-0.5)) <= 0.05
        for (beta, name), s in slopes.items()
    )
    detail = ", ".join(
        f"beta={b} {n}: {s:+.4f}" for (b, n), s in sorted(slopes.items())
    )
    report(5, ok, detail + " (bands -2+-0.05, -0.5+-0.05)")


def test_criterion_06_stretched_exponential_power():
    """-ln C grows as t^0.50 over three early decades, bare interactions."""
    pot = derive_potential(DressingParams(0.0, 0.0, -1.0e4), PotentialKind.BARE_VDW)
    spec = GasSpec(1e-4, pot, RamseyProtocol(math.pi / 2.0, False, 0.0, 0.0))
    times = np.geomspace(1e-5, 1e-2, 30)
    lnln = [math.log(-math.log(abs(contrast_gas(spec, t)))) for t in times]
    power = float(np.polyfit(np.log(times), lnln, 1)[0])
    report(6, abs(power - 0.5) <= 0.01, f"fitted power = {power:.5f} (0.50 +- 0.01)")


def test_criterion_07_echo_orderings():
    """Echo speeds decay with dissipation at small angle, slows it without."""
    cfg = load_config(SR)
    pot = cfg.potential
    gamma = cfg.protocol.gamma
    density = cfg.density

    def tau(theta, echo, g):
        return tau_half(GasSpec(density, pot, RamseyProtocol(theta, echo, g, 0.0)))

    t_e = tau(math.pi / 20.0, True, gamma)
    t_n = tau(math.pi / 20.0, False, gamma)
    u_e = tau(math.pi / 2.0, True, 0.0)
    u_n = tau(math.pi / 2.0, False, 0.0)
    ok = (t_e < t_n) and (u_e > u_n)
    report(
        7,
        ok,
        f"dissipative pi/20: echo {t_e:.3f} < no-echo {t_n:.3f}; "
        f"unitary pi/2: echo {u_e:.3f} > no-echo {u_n:.3f} (us)",
    )


def test_criterion_08_lattice_correlation_map():
    """15x15 map: D4-symmetric, short-ranged, empty at t = 0."""
    pot = derive_potential(DressingParams(1000.0, 5000.0, -1.0e4), PotentialKind.SOFT_CORE)
    spec = LatticeSpec(15, pot.r_c / 2.0, pot)
    proto = RamseyProtocol(math.pi / 2.0, True, 0.0, 0.0)
    t_pi = math.pi / pot.v0

    values = correlation_map(spec, proto, t_pi)
    d4 = d4_deviation(values)

    pos = lattice_positions(15, spec.spacing)
    dist = np.linalg.norm(pos - pos[spec.center_site], axis=1).reshape(15, 15)
    g = np.abs(values)
    near = g[(dist > 0) & (dist <= pot.r_c)].sum()
    far = g[dist > 2.5 * pot.r_c].sum()
    zero = float(np.nanmax(np.abs(correlation_map(spec, proto, 0.0))))

    ok = d4 <= 1e-10 and near > 10.0 * far and zero <= 1e-12
    report(
        8,
        ok,
        f"D4 = {d4:.2e} (tol 1e-10), mass near/far = {near / far:.1e} (>10), "
        f"t=0 residual = {zero:.1e} (tol 1e-12)",
    )


def test_criterion_09_density_ratio_structure(tmp_path):
    """Two-density interferometry ratio curves have the promised shape."""
    cfg = load_config(RB)
    run_fig5(cfg, str(tmp_path))
    curves = {}
    for p in cfg.ultrafast["fractions"]:
        path = tmp_path / f"fig5_fraction_{p:g}.csv"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        curves[p] = rows
    ok = True
    notes = []
    for p, rows in curves.items():
        ratio = rows[:, 1]
        ok &= ratio[0] == pytest.approx(1.0, abs=1e-12)
        early = ratio[: len(ratio) // 4]
        ok &= bool(np.all(np.diff(early) < 0.0))
        ok &= rows[0, 2] == 0.0 and rows[0, 3] == 0.0
        notes.append(f"p={p:g}: ratio0={ratio[0]:.3f}")
    # larger Rydberg fraction decays faster at every common time
    r_hi = curves[0.031][1:, 1]
    r_lo = curves[0.012][1:, 1]
    ok &= bool(np.all(r_hi < r_lo))
    report(9, ok, "; ".join(notes) + "; fraction ordering holds")


def test_criterion_10_byte_determinism(tmp_path):
    """Every command rewrites identical bytes on a same-seed rerun."""
    jobs = [
        (["fig2", "--config", SR, "--grid", "lin:0:8:33"], "fig2"),
        (["fig3", "--config", SR, "--grid", "log:0.01:100:15"], "fig3"),
        (["fig4", "--config", SR, "--grid", "lin:0:4:9"], "fig4"),
        (["fig5", "--config", RB], "fig5"),
        (["validate", "--seed", "0"], "validate"),
    ]
    mismatched = []
    for argv, name in jobs:
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            rc = cli.main(argv + ["--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            outs.append(out)
        names_a = sorted(os.listdir(outs[0]))
        names_b = sorted(os.listdir(outs[1]))
        if names_a != names_b:
            mismatched.append(name)
            continue
        for fname in names_a:
            with open(outs[0] / fname, "rb") as fa, open(outs[1] / fname, "rb") as fb:
                if fa.read() != fb.read():
                    mismatched.append(f"{name}/{fname}")
    report(
        10,
        not mismatched,
        "all commands byte-identical across reruns"
        if not mismatched
        else f"mismatch in {mismatched}",
    )
