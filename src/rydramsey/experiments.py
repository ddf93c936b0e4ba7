"""Reproduction recipes: figure-style sweeps, scans, and validation runs.

Each ``run_*`` function takes a parsed RunConfig, computes every table,
then writes CSV curves plus a JSON metadata file into an output
directory (creating it) and returns a manifest of what it wrote. Nothing
is written before the computation completes, so a run that fails leaves
no partial output. Outputs are bit-deterministic for a given config and
seed: floats are printed with %.17g, JSON keys are sorted, and nothing
records wall-clock time. Dimensionful columns are always accompanied by
their dimensionless counterparts (V0 t for the dressed figures) so that
rescaled parameter sets produce comparable tables.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from . import oracle
from .config import RunConfig, _eval_number
from .errors import CapacityError, ConfigError
from .gas_average import (
    DimensionlessPoint,
    GasSpec,
    _checked_seed,
    _exponent_integral_many,
    _soft_core_i_over_nr,
    _soft_core_i_over_nr_closed,
    contrast_gas,
    contrast_gas_finite_n,
    fit_hardcore_amplitude,
    high_density_contrast,
    low_density_amplitude,
    low_density_contrast,
    monte_carlo_gas,
    tau_half,
)
from .ising_core import (
    AtomConfiguration,
    RamseyProtocol,
    _envelope,
    sigma_plus_couplings,
)
from .lattice import LatticeSpec, correlation_map, d4_deviation, lattice_contrast
from .potential import DressingParams, PotentialKind, derive_potential

__all__ = [
    "MAX_FIG5_POINTS",
    "parse_grid",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_scan",
    "run_validate",
]


# The point cap of every grid: fig5's default grid (ultrafast.n_points) and
# every --grid. A pipeline holds every row in memory until it writes: 10^5
# fig5 points took about 3.5 s, a peak RSS of 110 MB and 16 MB of CSV on a
# shared 2-vCPU host.
MAX_FIG5_POINTS = 100_000


def parse_grid(text: str) -> np.ndarray:
    """Parse "lin:a:b:n" / "log:a:b:n" into a strictly increasing array.

    Bounds accept constant expressions in pi, such as "lin:0:4*pi:81"
    (see config's number syntax). n is the point count, >= 2; above
    MAX_FIG5_POINTS it is a CapacityError, raised before any allocation.
    """
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"grid spec must be kind:start:stop:n, got {text!r}")
    kind, a_s, b_s, n_s = parts
    a = _eval_number(a_s, "grid start")
    b = _eval_number(b_s, "grid stop")
    try:
        n = int(n_s)
    except ValueError:
        raise ConfigError(f"grid point count must be an integer, got {n_s!r}") from None
    if n < 2:
        raise ConfigError("grid needs at least 2 points")
    if n > MAX_FIG5_POINTS:
        raise CapacityError(
            f"a grid is capped at {MAX_FIG5_POINTS} points, "
            f"got {n if n < 10**9 else '>= 1e9'}"
        )
    if not b > a:
        raise ConfigError("grid must be strictly increasing (stop > start)")
    if kind == "lin":
        return np.linspace(a, b, n)
    if kind == "log":
        if a <= 0:
            raise ConfigError("log grid requires a positive start")
        return np.geomspace(a, b, n)
    raise ConfigError(f"unknown grid kind {kind!r} (use lin or log)")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def _soft_core_potential(cfg: RunConfig, what: str):
    """The configured potential, which ``what`` needs soft-core with a plateau."""
    pot = cfg.potential
    if pot is None:
        raise ConfigError(f"{what} needs a [potential] config section")
    if pot.kind is not PotentialKind.SOFT_CORE:
        raise ConfigError(f"{what} needs a soft-core potential")
    if pot.v0 == 0.0:
        raise ConfigError(
            f"{what} needs a nonzero plateau, but V0 = epsilon^4 (2 detuning) "
            f"underflows to 0 for this config (epsilon = {pot.epsilon:.3g})"
        )
    return pot


def _times_us(pot, v0t, proto: RamseyProtocol) -> np.ndarray:
    """Dark times t = V0t / |V0| in us of a grid run under ``proto``.

    ConfigError, with no numpy warning, naming V0 when any time
    overflows float64 (a subnormal V0, or a huge V0t grid), or naming
    the rate when gamma t or gamma_d t does.
    """
    v0t = np.asarray(v0t, dtype=float)
    with np.errstate(over="ignore"):
        times = v0t / abs(pot.v0)
    if not np.all(np.isfinite(times)):
        raise ConfigError(
            f"dark times V0t / |V0| overflow float64 for |V0| = {abs(pot.v0):.3g} rad/us "
            f"and V0t up to {np.max(v0t):.3g}"
        )
    t_max = float(np.max(np.abs(times)))
    for name in ("gamma", "gamma_d"):
        rate = getattr(proto, name)
        if not math.isfinite(rate * t_max):
            raise ConfigError(
                f"protocol.{name} * t overflows float64 for {name} = {rate:.3g} rad/us "
                f"and t up to {t_max:.3g} us"
            )
    return times


def _emit(out_dir: str, tables: dict, meta_name: str, meta: dict) -> dict:
    """Write each ``{name: (columns, rows)}`` CSV and the meta JSON into
    ``out_dir``, creating it; return the manifest of the files written."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (columns, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), columns, rows)
    _write_json(os.path.join(out_dir, meta_name), meta)
    return {"out_dir": out_dir, "files": sorted([*tables, meta_name])}


def run_fig2(cfg: RunConfig, out_dir: str, grid: np.ndarray | None = None) -> dict:
    """Gas contrast decay with and without echo, at two tipping angles.

    Writes one CSV per angle (pi/2 and pi/20) with columns
    t, V0t, C_echo, C_noecho, C_noninteracting: the magnitudes of the
    disorder-averaged coherence and of the bare single-atom envelope.
    The grid is in |V0| t units, so either sign of the plateau gives
    forward times.
    """
    pot = _soft_core_potential(cfg, "the contrast-decay sweep")
    density = cfg.density
    if density is None:
        raise ConfigError("the contrast-decay sweep needs sample.density in the config")
    v0t = parse_grid("lin:0:8*pi:201") if grid is None else np.asarray(grid, float)
    base = cfg.protocol
    times = _times_us(pot, v0t, base)
    tables = {}
    angle_files = {}
    for tag, theta in (("pi2", math.pi / 2.0), ("pi20", math.pi / 20.0)):
        echo, noecho = (
            GasSpec(density, pot, RamseyProtocol(theta, e, base.gamma, base.gamma_d))
            for e in (True, False)
        )
        tables[f"fig2_theta_{tag}.csv"] = (
            ["t", "V0t", "C_echo", "C_noecho", "C_noninteracting"],
            zip(
                times,
                v0t,
                np.abs(contrast_gas(echo, times)),
                np.abs(contrast_gas(noecho, times)),
                _envelope(echo.protocol, times),
            ),
        )
        angle_files[tag] = theta
    meta = {
        "command": "fig2",
        "angles_rad": angle_files,
        "grid_v0t": [float(v0t[0]), float(v0t[-1]), int(v0t.size)],
        "blockade_number": GasSpec(density, pot, base).n_r,
        "resolved_config": cfg.resolved,
    }
    return _emit(out_dir, tables, "fig2_meta.json", meta)


def _tau_columns(pot, proto: RamseyProtocol, nr_values) -> tuple:
    """tau_1/2 across blockade numbers as (|V0| tau, tau in us) columns.

    The density is swept at fixed potential and protocol to move N_R.
    """
    tau = np.array(
        [tau_half(GasSpec.from_blockade_number(n_r, pot, proto)) for n_r in nr_values]
    )
    return abs(pot.v0) * tau, tau


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def run_fig3(cfg: RunConfig, out_dir: str, grid: np.ndarray | None = None) -> dict:
    """Blockade-number scaling: curves, asymptotics, tau table, slopes.

    Emits contrast curves at N_R = 0.01 and N_R = 100 with the matching
    analytic asymptote overlaid (low-density sqrt law, high-density
    plateau law with both B = 1 and the fitted B), a tau_1/2 table over
    N_R in [1e-3, 1e3] for the ideal gamma = 0 case together with its
    fitted log-log slopes, and the same table at the configured
    dissipation rates.
    """
    pot = _soft_core_potential(cfg, "the scaling sweep")
    theta = math.pi / 2.0  # the asymptotic laws are quoted at pi/2
    unitary = {
        "echo": RamseyProtocol(theta, True, 0.0, 0.0),
        "noecho": RamseyProtocol(theta, False, 0.0, 0.0),
    }
    v0t = parse_grid("log:0.01:100:121") if grid is None else np.asarray(grid, float)
    times = _times_us(pot, v0t, unitary["echo"])

    # fitted B for the high-density overlay, from the exact exponent
    fit_times = _times_us(pot, np.linspace(0.05, 2.0 * math.pi, 40), unitary["echo"])
    b_fit = {
        label: fit_hardcore_amplitude(
            GasSpec.from_blockade_number(100.0, pot, proto), fit_times
        )
        for label, proto in unitary.items()
    }

    tables = {}
    for tag, n_r in (("low", 0.01), ("high", 100.0)):
        cols = [
            np.abs(contrast_gas(GasSpec.from_blockade_number(n_r, pot, proto), times))
            for proto in unitary.values()
        ]
        for label, proto in unitary.items():
            if tag == "low":
                cols.append(low_density_contrast(n_r, v0t, proto.beta))
            else:
                cols.append(high_density_contrast(n_r, v0t, proto.beta, b_fit[label]))
        tables[f"fig3_curve_{tag}.csv"] = (
            ["V0t", "C_echo", "C_noecho", "asym_echo", "asym_noecho"],
            zip(v0t, *cols),
        )

    nr_values = np.geomspace(1e-3, 1e3, 31)
    base = cfg.protocol
    tau_cols = ["n_r", "v0t_half_echo", "v0t_half_noecho", "tau_echo_us", "tau_noecho_us"]
    tau = {
        label: [
            _tau_columns(pot, RamseyProtocol(theta, echo, gamma, gamma_d), nr_values)
            for echo in (True, False)
        ]
        for label, gamma, gamma_d in (
            ("ideal", 0.0, 0.0),
            ("dissipative", base.gamma, base.gamma_d),
        )
    }
    for label, ((v0t_e, tau_e), (v0t_n, tau_n)) in tau.items():
        tables[f"fig3_tau_{label}.csv"] = (tau_cols, zip(nr_values, v0t_e, v0t_n, tau_e, tau_n))

    lo = (nr_values >= 1e-3) & (nr_values <= 1e-2)
    hi = (nr_values >= 1e2) & (nr_values <= 1e3)
    slopes = {
        label: {
            "low_density": _loglog_slope(nr_values[lo], v0t_half[lo]),
            "high_density": _loglog_slope(nr_values[hi], v0t_half[hi]),
        }
        for label, (v0t_half, _) in zip(("echo", "noecho"), tau["ideal"])
    }
    meta = {
        "command": "fig3",
        "theta_rad": theta,
        "curve_blockade_numbers": {"low": 0.01, "high": 100.0},
        "low_density_amplitudes": {
            "echo": low_density_amplitude(0),
            "noecho": low_density_amplitude(1),
        },
        "fitted_hardcore_b": b_fit,
        "fit_blockade_number": 100.0,
        "tau_slopes_ideal": slopes,
        "dissipation": {"gamma": base.gamma, "gamma_d": base.gamma_d},
        "resolved_config": cfg.resolved,
    }
    return _emit(out_dir, tables, "fig3_meta.json", meta)


def run_fig4(cfg: RunConfig, out_dir: str, grid: np.ndarray | None = None) -> dict:
    """Lattice contrast trace and connected-correlation snapshots.

    The trace is the per-spin coherence under the configured protocol
    (dissipation allowed); the G maps are evaluated for the unitary
    protocol at |V0| t in {pi/2, pi, 2 pi} around the central site,
    exported as site CSVs (columns site_x, site_y, G; the reference site
    is skipped) and as dense grids in the metadata.
    """
    pot = _soft_core_potential(cfg, "the lattice run")
    if cfg.lattice_spacing is None or cfg.lattice_size is None:
        raise ConfigError("the lattice run needs a [lattice] config section")
    spec = LatticeSpec(cfg.lattice_size, cfg.lattice_spacing, pot)
    v0t = parse_grid("lin:0:4*pi:129") if grid is None else np.asarray(grid, float)
    times = _times_us(pot, v0t, cfg.protocol)
    rows = [
        (t, T, abs(sp), math.atan2(sp.imag, sp.real))
        for t, T, sp in zip(times, v0t, lattice_contrast(spec, cfg.protocol, times).tolist())
    ]
    tables = {"fig4_contrast.csv": (["t", "V0t", "contrast", "phase_rad"], rows)}

    unitary = RamseyProtocol(cfg.protocol.theta, cfg.protocol.echo, 0.0, 0.0)
    side, center = spec.side, spec.center_site
    snapshots = {}
    map_meta = {}
    for tag, T in (("pi2", math.pi / 2.0), ("pi", math.pi), ("2pi", 2.0 * math.pi)):
        t = float(_times_us(pot, T, unitary))
        values = correlation_map(spec, unitary, t)
        flat = values.ravel().tolist()  # flat index ix * L + iy
        tables[f"fig4_map_v0t_{tag}.csv"] = (
            ["site_x", "site_y", "G"],
            [(*divmod(j, side), g) for j, g in enumerate(flat) if j != center],
        )
        snapshots[tag] = {
            "side": side,
            "spacing_um": spec.spacing,
            "center_site": center,
            "time_us": t,
            # JSON has no NaN: the reference site's entry encodes as null
            "grid": [[None if math.isnan(g) else g for g in row] for row in values.tolist()],
        }
        if side % 2 == 1:
            map_meta[tag] = {"d4_deviation": d4_deviation(values)}

    ratio = pot.r_c / cfg.lattice_spacing
    meta = {
        "command": "fig4",
        "lattice": {"side": cfg.lattice_size, "spacing_um": cfg.lattice_spacing},
        "r_c_over_spacing": ratio,
        "normalization": "per-spin",
        "map_protocol": "unitary (gamma = gamma_d = 0); trace uses configured rates",
        "map_symmetry": map_meta,
        "map_snapshots": snapshots,
        "resolved_config": cfg.resolved,
    }
    return _emit(out_dir, tables, "fig4_meta.json", meta)


def run_fig5(cfg: RunConfig, out_dir: str, grid: np.ndarray | None = None) -> dict:
    """Bare-Rydberg contrast ratio and accumulated Ramsey phase.

    For each configured Rydberg fraction: the ratio of gas contrasts at
    the high and low densities, exp(-(rho_h - rho_l) * Re I / rho), and
    the continuous phase -Im I(t) at both densities, referenced to 0 at
    t = 0. Non-echo protocol, no dissipation; times are picoseconds in
    the CSV (converted internally).
    """
    if cfg.ultrafast is None:
        raise ConfigError("this command needs an [ultrafast] config section")
    uf = cfg.ultrafast
    pot = derive_potential(DressingParams(0.0, 0.0, uf["c6"]), PotentialKind.BARE_VDW)
    if grid is None:
        n = uf["n_points"]
        if n > MAX_FIG5_POINTS:
            raise CapacityError(
                f"fig5's default grid is capped at ultrafast.n_points = {MAX_FIG5_POINTS}, "
                f"got {n if n < 10**9 else '>= 1e9'}"
            )
        times = np.linspace(0.0, uf["t_max"], n)
    else:
        times = np.asarray(grid, float) * 1e-6  # CLI grid arrives in ps
    tables = {}
    thetas = {}
    for p in uf["fractions"]:
        theta = 2.0 * math.asin(math.sqrt(p))  # upper-state population p
        thetas[f"{p:g}"] = theta
        proto = RamseyProtocol(theta, False, 0.0, 0.0)
        # one array evaluation per density; I is proportional to the
        # density, but a scaled I overflows where either density is extreme
        i_h, i_l = (
            _exponent_integral_many(GasSpec(uf[key], pot, proto), times).tolist()
            for key in ("density_high", "density_low")
        )
        rows = [
            (
                t * 1e6,
                math.exp(-(h.real - l.real)),
                -h.imag + 0.0,  # +0.0 avoids printing "-0"
                -l.imag + 0.0,
            )
            for t, h, l in zip(times, i_h, i_l)
        ]
        tables[f"fig5_fraction_{p:g}.csv"] = (
            ["t_ps", "ratio", "phase_high_rad", "phase_low_rad"],
            rows,
        )
    meta = {
        "command": "fig5",
        "fractions": list(uf["fractions"]),
        "tipping_angles_rad": thetas,
        "densities_um3": {"high": uf["density_high"], "low": uf["density_low"]},
        "c6_rad_um6_per_us": uf["c6"],
        "protocol": "non-echo, gamma = 0",
        "ratio_definition": "C(rho_high)/C(rho_low) = exp(-(rho_h - rho_l) Re I / rho)",
        "phase_definition": "-Im I(t), referenced to 0 at t = 0",
        "resolved_config": cfg.resolved,
    }
    return _emit(out_dir, tables, "fig5_meta.json", meta)


def run_scan(cfg: RunConfig, out_dir: str, grid: np.ndarray | None = None) -> dict:
    """Half-contrast time versus blockade number at the configured protocol.

    The density is swept at fixed potential; the grid is in N_R. Columns
    are n_r, v0t_half, tau_us.
    """
    pot = _soft_core_potential(cfg, "the scan")
    nr_values = parse_grid("log:1e-3:1e3:31") if grid is None else np.asarray(grid, float)
    proto = cfg.protocol
    table = (["n_r", "v0t_half", "tau_us"], zip(nr_values, *_tau_columns(pot, proto, nr_values)))
    meta = {
        "command": "scan",
        "protocol": {
            "theta": proto.theta,
            "echo": proto.echo,
            "gamma": proto.gamma,
            "gamma_d": proto.gamma_d,
        },
        "resolved_config": cfg.resolved,
    }
    return _emit(out_dir, {"scan_tau.csv": table}, "scan_meta.json", meta)


def _random_soft_core_instance(rng, n: int):
    """Deterministic random geometry with a unit-plateau soft-core potential.

    Positions fill a box at blockade number ~1 with a minimum separation
    of 0.2 r_c (resampled as needed), which keeps every coupling within
    [~0, V0] and the oracle's Taylor steps few.
    """
    point = DimensionlessPoint(n_r=1.0, v0t=1.0, theta=math.pi / 2.0, beta=0)
    spec, _ = point.to_physical()
    pot = spec.potential
    box = (n / spec.density) ** (1.0 / 3.0)
    off = ~np.eye(n, dtype=bool)
    while True:
        cfg = AtomConfiguration(rng.random((n, 3)) * box)
        if n == 1 or cfg.pair_distances()[off].min() >= 0.2 * pot.r_c:
            return cfg.coupling_matrix(pot), pot


def run_validate(cfg: RunConfig | None, out_dir: str, seed: int = 0) -> dict:
    """Cross-validation suite: closed forms against independent routes.

    Runs oracle-vs-closed-form comparisons, the echo-sequence reduction
    check, the soft-core exponent's spectral midpoint rule against its
    Bessel closed form, the gas contrast against Monte Carlo, the finite-N
    limit, the low-density law, and a determinism digest. Writes
    validation_report.json; the manifest carries ``all_passed``. The
    seed must be a non-negative integer, else ParameterError.
    """
    rng = np.random.default_rng(_checked_seed(seed))
    checks = []

    def record(name: str, metric: float, tolerance: float, note: str = ""):
        entry = {
            "check": name,
            "metric": float(metric),
            "tolerance": float(tolerance),
            "passed": bool(metric <= tolerance),
        }
        if note:
            entry["note"] = note
        checks.append(entry)

    def oracle_gap(v, proto, times) -> float:
        """max |closed form - Lindblad oracle| of sigma_plus over the times."""
        got = sigma_plus_couplings(v, proto, times)
        return float(np.max(np.abs(got - oracle.ramsey_sigma_plus(v, proto, times))))

    # 1: all couplings zero -> closed form and oracle agree exactly
    v = np.zeros((5, 5))
    worst = 0.0
    for echo in (True, False):
        for gamma in (0.0, 0.1):
            proto = RamseyProtocol(math.pi / 3.0, echo, gamma, 0.0)
            worst = max(worst, oracle_gap(v, proto, np.linspace(0.0, 5.0, 6)))
    record("zero_coupling_exactness", worst, 1e-12)

    # 2: dissipative oracle agreement on random geometries
    worst = 0.0
    for n, echo in ((3, False), (4, True), (6, False)):
        v, pot = _random_soft_core_instance(rng, n)
        proto = RamseyProtocol(math.pi / 2.0, echo, 0.1 * pot.v0, 0.0)
        worst = max(worst, oracle_gap(v, proto, np.linspace(0.0, 4.0 * math.pi / pot.v0, 7)))
    record("dissipative_oracle_agreement", worst, 1e-6)

    # 3: echo sequence reduction (unitary identity)
    worst = 0.0
    for n in (2, 4, 6):
        v, pot = _random_soft_core_instance(rng, n)
        res = oracle.echo_equivalence_check(v, math.pi / 2.0, 3.0 / pot.v0)
        worst = max(worst, res["max_observable_deviation"], abs(res["fidelity_gap"]))
    record("echo_sequence_reduction", worst, 1e-10)

    # 4: two-spin kernel identity against the oracle
    v2 = np.array([[0.0, 0.8], [0.8, 0.0]])
    times = np.linspace(0.0, 10.0, 9)
    worst = max(
        oracle_gap(v2, RamseyProtocol(math.pi / 4.0, echo, 0.16, 0.0), times)
        for echo in (True, False)
    )
    record("two_spin_kernel_identity", worst, 1e-6)

    # 5: soft-core exponent I/N_R at V0 t = T, spectral midpoint rule vs
    # Bessel closed form
    worst = 0.0
    for T in (0.3, 3.0, 30.0):
        for beta in (0, 1):
            a = _soft_core_i_over_nr(T, 0.0, math.pi / 2.0, beta)
            b = _soft_core_i_over_nr_closed(T, math.pi / 2.0, beta)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    record("gas_exponent_quadrature_vs_closed", worst, 1e-7)

    # 6: thermodynamic-limit contrast vs Monte Carlo disorder average
    point = DimensionlessPoint(n_r=0.1, v0t=4.0, theta=math.pi / 2.0, beta=0)
    spec, t = point.to_physical()
    mc = monte_carlo_gas(spec, [t], n_samples=24, n_atoms=256, seed=seed)
    exact = contrast_gas(spec, t)
    dev_se = abs(mc.mean[0] - exact) / mc.stderr[0]
    record(
        "gas_contrast_vs_monte_carlo",
        dev_se,
        3.0,
        note="units of stderr; one 3-SE pull of a 24-sample mean fails by chance "
        "for about 0.56 % of seeds (56 of seeds 0-9999; seed 84 gives 3.10)",
    )

    # 7: finite-N formula converges to the thermodynamic limit
    devs = []
    for n in (100, 1000, 10000):
        devs.append(
            abs(contrast_gas_finite_n(spec, t, n) - contrast_gas(spec, t)) * n
        )
    spread = max(devs) / max(min(devs), 1e-30)
    record(
        "finite_n_convergence",
        spread,
        10.0,
        note="n*|finiteN - thermo| should stay O(1): max/min over n in {1e2,1e3,1e4}",
    )

    # 8: low-density closed form against the exact amplitude
    worst = 0.0
    for beta in (0, 1):
        pt = DimensionlessPoint(n_r=0.01, v0t=10.0, theta=math.pi / 2.0, beta=beta)
        sp, tt = pt.to_physical()
        exact = abs(contrast_gas(sp, tt))
        asym = low_density_contrast(pt.n_r, pt.v0t, beta)
        worst = max(worst, abs(exact - asym) / asym)
    record("low_density_sqrt_law", worst, 0.01)

    # 9: Monte Carlo determinism digest
    mc2 = monte_carlo_gas(spec, [t], n_samples=24, n_atoms=256, seed=seed)
    digest1 = hashlib.sha256(mc.samples.tobytes()).hexdigest()
    digest2 = hashlib.sha256(mc2.samples.tobytes()).hexdigest()
    record(
        "monte_carlo_determinism",
        0.0 if digest1 == digest2 else 1.0,
        0.5,
        note=f"sha256 {digest1[:16]}",
    )

    all_passed = all(c["passed"] for c in checks)
    report = {
        "command": "validate",
        "seed": seed,
        "checks": checks,
        "all_passed": all_passed,
    }
    if cfg is not None:
        report["resolved_config"] = cfg.resolved
    return {**_emit(out_dir, {}, "validation_report.json", report), "all_passed": all_passed}
