import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rydramsey import cli, experiments
from rydramsey.config import config_from_dict, load_config
from rydramsey.errors import ConfigError, ParameterError
from rydramsey.experiments import parse_grid, run_fig4, run_fig5, run_validate
from rydramsey.ising_core import AtomConfiguration, RamseyProtocol
from rydramsey.lattice import LatticeSpec, correlation_map

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SR = os.path.join(CONFIG_DIR, "sr_dressed.json")
RB = os.path.join(CONFIG_DIR, "rb_ultrafast.json")


def read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    return header, data


def test_parse_grid_linear():
    g = parse_grid("lin:0:1:5")
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_parse_grid_log():
    g = parse_grid("log:0.1:10:3")
    assert np.allclose(g, [0.1, 1.0, 10.0])


def test_parse_grid_pi_expressions():
    g = parse_grid("lin:0:2*pi:9")
    assert g[-1] == pytest.approx(2.0 * math.pi)
    assert len(g) == 9


@pytest.mark.parametrize(
    "bad",
    [
        "geom:0:1:5",
        "lin:0:1",
        "lin:0:1:1",
        "lin:1:0:5",
        "log:0:1:5",
        "lin:a:b:5",
        "lin:0:1:2.5",
        "lin:-1e308:1e308:3",  # stop - start overflows
    ],
)
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_grid(bad)


def test_fig2_outputs(tmp_path):
    cfg = load_config(SR)
    rc = cli.main(
        ["fig2", "--config", SR, "--out", str(tmp_path), "--grid", "lin:0:8:17"]
    )
    assert rc == 0
    header, data = read_csv(tmp_path / "fig2_theta_pi2.csv")
    assert header == ["t", "V0t", "C_echo", "C_noecho", "C_noninteracting"]
    assert data.shape[0] == 17
    assert data[0, 0] == 0.0
    assert data[0, 2] == pytest.approx(1.0)  # sin(pi/2)
    assert data[0, 3] == pytest.approx(1.0)
    # noninteracting column is the pure gamma envelope
    gamma = cfg.protocol.gamma
    assert data[-1, 4] == pytest.approx(
        math.exp(-gamma * data[-1, 0] / 2.0), rel=1e-10
    )
    # interactions only speed decay
    assert np.all(data[:, 2] <= data[:, 4] + 1e-12)
    header20, data20 = read_csv(tmp_path / "fig2_theta_pi20.csv")
    assert data20[0, 2] == pytest.approx(math.sin(math.pi / 20.0))
    meta = json.loads((tmp_path / "fig2_meta.json").read_text())
    assert meta["command"] == "fig2"


def test_fig5_outputs(tmp_path):
    cfg = load_config(RB)
    res = run_fig5(cfg, str(tmp_path))
    assert set(res["files"]) >= {
        "fig5_fraction_0.031.csv",
        "fig5_fraction_0.012.csv",
    }
    header, data = read_csv(tmp_path / "fig5_fraction_0.031.csv")
    assert header == ["t_ps", "ratio", "phase_high_rad", "phase_low_rad"]
    assert data[0, 0] == 0.0
    assert data[0, 1] == pytest.approx(1.0)  # equal densities at t = 0
    assert data[0, 2] == 0.0 and data[0, 3] == 0.0
    assert data[-1, 0] == pytest.approx(700.0, rel=1e-12)  # ps round trip
    # early decay: the denser sample loses contrast faster
    assert data[1, 1] < 1.0


def test_scan_theta_override(tmp_path, capsys):
    # a plain float and a pi expression give the same angle
    for k, theta in enumerate(("1.0471975511965976", "pi/3")):
        out = tmp_path / str(k)
        rc = cli.main(
            ["scan", "--config", SR, "--out", str(out), "--grid", "log:0.01:100:5",
             "--theta", theta]
        )
        assert rc == 0
        meta = json.loads((out / "scan_meta.json").read_text())
        assert meta["protocol"]["theta"] == pytest.approx(math.pi / 3.0)
        header, data = read_csv(out / "scan_tau.csv")
        assert header == ["n_r", "v0t_half", "tau_us"]
        assert data.shape == (5, 3)
        assert np.all(np.diff(data[:, 2]) < 0)  # denser decays faster
    assert (tmp_path / "0" / "scan_tau.csv").read_bytes() == (
        tmp_path / "1" / "scan_tau.csv"
    ).read_bytes()
    # the expression evaluator allows + - * / and pi only
    rc = cli.main(["scan", "--config", SR, "--out", str(tmp_path / "bad"), "--theta", "2**3"])
    assert rc == 2
    assert "--theta" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_echo_flag_override(tmp_path):
    rc = cli.main(
        [
            "scan",
            "--config",
            SR,
            "--out",
            str(tmp_path),
            "--grid",
            "log:0.1:10:3",
            "--echo",
        ]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "scan_meta.json").read_text())
    assert meta["protocol"]["echo"] is True


def test_validate_passes_and_reports(tmp_path):
    res = run_validate(None, str(tmp_path), seed=0)
    report = json.loads((tmp_path / "validation_report.json").read_text())
    names = [c["check"] for c in report["checks"]]
    assert len(names) == len(set(names)) >= 8
    assert all(c["passed"] for c in report["checks"])
    assert res["all_passed"] is True
    for c in report["checks"]:
        assert set(c) >= {"check", "metric", "tolerance", "passed"}
        assert c["metric"] <= c["tolerance"]


def test_cli_requires_config_for_figures(capsys):
    rc = cli.main(["fig2", "--out", "/tmp/unused_out"])
    assert rc == 2
    assert "config" in capsys.readouterr().err.lower()


def test_density_free_config_runs_fig3_and_scan_not_fig2(tmp_path, capsys):
    # fig3 and scan sweep the blockade number and never read the density
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["sample"]
    path = tmp_path / "no_density.json"
    path.write_text(json.dumps(data))
    for cmd in ("fig3", "scan"):
        out = tmp_path / cmd
        rc = cli.main([cmd, "--config", str(path), "--out", str(out), "--grid", "log:0.1:10:3"])
        assert rc == 0, (cmd, capsys.readouterr().err)
        assert os.listdir(out)
    rc = cli.main(["fig2", "--config", str(path), "--out", str(tmp_path / "fig2")])
    assert rc == 2
    assert "sample.density" in capsys.readouterr().err


def test_cli_rejects_bad_grid(tmp_path, capsys):
    out = tmp_path / "out"
    for grid in ("lin:5:1:9", "lin:0:1e400:3"):
        rc = cli.main(["fig2", "--config", SR, "--out", str(out), "--grid", grid])
        assert rc == 2
        assert capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_boolean_lattice_size(tmp_path, capsys):
    # JSON true is a Python bool, an int subclass; it must not load as
    # a one-site lattice
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data["lattice"]["size"] = True
    path = tmp_path / "bool_size.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = cli.main(["fig4", "--config", str(path), "--out", str(out), "--grid", "lin:0:1:3"])
    assert rc == 2
    assert "lattice.size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--config", SR, "--seed", "1"],
        ["validate", "--grid", "lin:0:1:3"],
        ["fig3", "--config", SR, "--theta", "1.0"],
        ["fig5", "--config", RB, "--no-echo"],
        ["scan", "--config", SR, "--normalization", "total"],
        ["fig4", "--config", SR, "--normalization", "total"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_plateau_runs_forward_in_time(tmp_path):
    # detuning < 0 with c6 > 0 is a valid soft core with V0 < 0. Flipping
    # the sign of every coupling conjugates each pair kernel, f(-X) =
    # conj f(X), so every magnitude matches the positive-plateau run and
    # only the fig4 phase changes sign.
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data["lattice"]["size"] = 5  # keeps the fig4 maps cheap
    flipped = json.loads(json.dumps(data))
    flipped["potential"]["detuning"] = "-5000 rad/us"
    flipped["potential"]["c6"] = "1.0e4 rad*um^6/us"
    assert config_from_dict(flipped).potential.v0 < 0
    outputs = {}
    for tag, cfg_data in (("pos", data), ("neg", flipped)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg_data))
        for cmd, grid in (("fig2", "lin:0:8:9"), ("fig3", "log:0.1:10:5"), ("fig4", "lin:0:4:9")):
            out = tmp_path / tag / cmd
            rc = cli.main([cmd, "--config", str(path), "--out", str(out), "--grid", grid])
            assert rc == 0, (tag, cmd)
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    outputs.setdefault(name, {})[tag] = read_csv(out / name)
    assert len(outputs) == 10
    for name, runs in outputs.items():
        header, pos = runs["pos"]
        _, neg = runs["neg"]
        for k, col in enumerate(header):
            want = -pos[:, k] if col == "phase_rad" else pos[:, k]
            assert np.allclose(neg[:, k], want, rtol=1e-12, atol=0.0), (name, col)


@pytest.mark.parametrize(
    "command, config, grid",
    [
        ("fig2", SR, "lin:0:8:5"),
        ("fig3", SR, "log:0.1:10:3"),
        ("fig4", os.path.join(CONFIG_DIR, "..", "perfbench", "smoke_lattice.json"), "lin:0:4:3"),
        ("fig5", RB, "lin:0:700:3"),
        ("scan", SR, "log:0.1:10:3"),
        ("validate", None, None),
    ],
)
def test_manifest_lists_exactly_the_files_written(command, config, grid, tmp_path):
    out = str(tmp_path / "out")
    run = getattr(experiments, f"run_{command}")
    if command == "validate":
        manifest = run(None, out, seed=0)
    else:
        manifest = run(load_config(config), out, parse_grid(grid))
    assert manifest["out_dir"] == out
    assert manifest["files"] == sorted(os.listdir(out))


def test_unwritable_out_is_a_one_line_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main(["fig5", "--config", RB, "--grid", "lin:0:700:3", "--out", str(blocker)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker) in err


def test_unknown_config_key_exits_2_before_writing(tmp_path, capsys):
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data["protocol"]["gama"] = data["protocol"].pop("gamma")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = cli.main(["scan", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert "protocol.gama" in capsys.readouterr().err
    assert not out.exists()


def test_underflowing_plateau_is_named(tmp_path, capsys):
    # a rabi frequency so small that V0 = epsilon^4 (2 detuning) underflows
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data["potential"]["rabi"] = "1e-200 rad/us"
    path = tmp_path / "tiny_rabi.json"
    path.write_text(json.dumps(data))
    rc = cli.main(["scan", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "V0" in err and "underflows to 0" in err and "soft-core potential" not in err


def write_sr_variant(tmp_path, section, key, value):
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data[section][key] = value
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("detuning, quantity", [("1e-150", "V0"), ("1e-320", "epsilon")])
def test_overflowing_soft_core_is_a_parameter_error(tmp_path, capsys, detuning, quantity):
    # epsilon^4 overflowed with a traceback (exit 1), or epsilon = V0 = inf
    # gave fig2 a column of zero times (exit 0)
    path = write_sr_variant(tmp_path, "potential", "detuning", f"{detuning} rad/us")
    for command in ("fig2", "fig3", "fig4", "scan"):
        out = tmp_path / command
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert f"soft-core {quantity} is not finite" in capsys.readouterr().err
        assert not out.exists()


def test_subnormal_plateau_names_v0(tmp_path, capsys):
    # V0 = 1e-312 rad/us: V0t / |V0| overflows, with no numpy warning
    # (RuntimeWarnings are errors in this suite); scan's tau_1/2 needs no
    # V0t grid and runs
    path = write_sr_variant(tmp_path, "potential", "rabi", "1e-75 rad/us")
    for command in ("fig2", "fig3", "fig4"):
        out = tmp_path / command
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflow float64 for |V0| = 1e-312 rad/us" in err
        assert not out.exists()
    assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "scan")]) == 0


@pytest.mark.parametrize("rate", ["gamma", "gamma_d"])
def test_overflowing_rate_times_time_is_named(tmp_path, capsys, rate):
    # gamma t = inf wrote nan contrast rows (exit 0) or warned; fig3's
    # curves and scan run unitary or on tau_1/2 alone, and still run
    path = write_sr_variant(tmp_path, "protocol", rate, "1e308 rad/us")
    for command in ("fig2", "fig4"):
        out = tmp_path / command
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert f"protocol.{rate} * t overflows float64" in capsys.readouterr().err
        assert not out.exists()
    for command in ("fig3", "scan"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / command)]) == 0


def test_huge_lattice_is_a_capacity_error(tmp_path, capsys):
    # a 10^6 x 10^6 lattice asked numpy for a 7.28 TiB array (exit 1)
    path = write_sr_variant(tmp_path, "lattice", "size", 1_000_000)
    out = tmp_path / "fig4"
    assert cli.main(["fig4", "--config", path, "--out", str(out)]) == 3
    assert "capped at L = 50" in capsys.readouterr().err
    assert not out.exists()


def test_huge_fig5_grid_is_a_capacity_error(tmp_path, capsys):
    # n_points = 10**400 made np.linspace raise ValueError (exit 1); the
    # cap is checked before the default grid is allocated
    for n_points in (10**400, experiments.MAX_FIG5_POINTS + 1):
        with open(RB, encoding="utf-8") as fh:
            data = json.load(fh)
        data["ultrafast"]["n_points"] = n_points
        path = tmp_path / "huge_fig5.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "fig5"
        assert cli.main(["fig5", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"capped at ultrafast.n_points = {experiments.MAX_FIG5_POINTS}" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()
    # a --grid replaces the default grid, so the cap does not apply
    rc = cli.main(["fig5", "--config", str(path), "--grid", "lin:0:700:3", "--out", str(out)])
    assert rc == 0


def test_negative_seed_is_a_parameter_error(tmp_path, capsys):
    # numpy's SeedSequence raised ValueError on a negative seed (exit 1)
    out = tmp_path / "validate"
    assert cli.main(["validate", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "seed" in err
    assert not out.exists()
    for seed in (-1, 1.5, True, None):
        with pytest.raises(ParameterError, match="seed"):
            run_validate(None, str(out), seed=seed)


_NO_SCIPY = """
import sys
from rydramsey import cli
sr, rb, out = sys.argv[1:]
for command in ("fig2", "fig3", "fig4", "scan"):
    assert cli.main([command, "--config", sr, "--out", f"{out}/{command}"]) == 0
assert cli.main(["fig5", "--config", rb, "--out", f"{out}/fig5"]) == 0
assert cli.main(["validate", "--out", f"{out}/validate"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_figure_pipelines_load_no_scipy(tmp_path):
    # a fresh interpreter runs every pipeline on its default grid, and
    # validate with its dissipative oracle runs, without loading scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, SR, RB, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.splitlines()[-1] == "[]"


def test_fig4_builds_the_coupling_table_once(tmp_path, monkeypatch):
    # The contrast trace and all three correlation maps read one (L, L)
    # coupling table, built once, and no configuration coupling matrix is
    # built.
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data["lattice"]["size"] = 5
    cfg = config_from_dict(data)
    builds = []
    build = LatticeSpec.coupling_table.func
    original = AtomConfiguration.coupling_matrix

    def counting_table(self):
        builds.append(self.side)
        return build(self)

    def counting(self, pot):
        builds.append(("configuration", self.n))
        return original(self, pot)

    prop = functools.cached_property(counting_table)
    prop.__set_name__(LatticeSpec, "coupling_table")
    monkeypatch.setattr(LatticeSpec, "coupling_table", prop)
    monkeypatch.setattr(AtomConfiguration, "coupling_matrix", counting)
    run_fig4(cfg, str(tmp_path), grid=parse_grid("lin:0:4*pi:33"))
    assert builds == [5]


def test_cli_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["fig5", "--config", RB, "--out", str(out)])
        assert rc == 0
    for name in sorted(os.listdir(a)):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_cli_calls_share_no_parsed_state(tmp_path):
    # the parser is built once per process; each call parses into a new
    # namespace, so no flag or default of one call carries into the next
    def scan(out, *flags):
        assert cli.main(["scan", "--config", SR, "--out", str(out), *flags]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    alone = scan(tmp_path / "alone")
    assert scan(tmp_path / "override", "--theta", "pi/4", "--no-echo") != alone
    assert scan(tmp_path / "after") == alone
    seeds = []
    for out, flags in ((tmp_path / "v5", ["--seed", "5"]), (tmp_path / "v", [])):
        assert cli.main(["validate", "--out", str(out), *flags]) == 0
        seeds.append(json.loads((out / "validation_report.json").read_text())["seed"])
    assert seeds == [5, 0]


def test_csv_rows_format_as_fmt(tmp_path):
    # one format string per table writes every cell as _fmt does: %d for a
    # column of integers alone (%d would truncate a float), %.17g for a
    # column with none, and a column that mixes them cell by cell (%.17g
    # would round 2^53 + 1). Rows come as an iterator, as the runners zip
    # them
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(0.1), 1.0 / 3.0, 2.0]
    ints = [0, -7, np.int64(2**62), 2**53 + 1, np.int64(-3), 5, True, np.int32(2)]
    mixed = [1, 0.5, np.int64(2**53 + 1), -0.0, 3, np.float64(7.0), math.nan, 2**60]
    path = tmp_path / "t.csv"
    for columns in ([floats, ints], [ints, floats, mixed], [mixed], [ints], [floats]):
        rows = list(zip(*columns))
        names = [f"c{k}" for k in range(len(columns))]
        experiments._write_csv(str(path), names, iter(rows))
        want = [",".join(names), *(",".join(experiments._fmt(v) for v in row) for row in rows)]
        assert path.read_text() == "\n".join(want) + "\n"
    special = ",".join(experiments._fmt(v) for v in floats[:5])
    assert special == "nan,inf,-inf,-0,4.9406564584124654e-324"
    experiments._write_csv(str(path), ["a", "b"], iter([]))
    assert path.read_text() == "a,b\n"


def test_fig4_map_csv_and_json_round_trip(tmp_path):
    # Each map CSV parses back bit for bit into the correlation_map array
    # (%.17g round-trips a float64); the reference site has no CSV row
    # and is null in the metadata grid.
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data["lattice"]["size"] = 5
    cfg = config_from_dict(data)
    run_fig4(cfg, str(tmp_path), grid=parse_grid("lin:0:4:5"))
    proto = RamseyProtocol(cfg.protocol.theta, cfg.protocol.echo, 0.0, 0.0)
    spec = LatticeSpec(5, cfg.lattice_spacing, cfg.potential)
    cx, cy = divmod(spec.center_site, 5)
    with open(tmp_path / "fig4_meta.json", encoding="utf-8") as fh:
        snapshots = json.load(fh)["map_snapshots"]
    v0 = abs(cfg.potential.v0)
    for tag, v0t in (("pi2", math.pi / 2.0), ("pi", math.pi), ("2pi", 2.0 * math.pi)):
        want = correlation_map(spec, proto, v0t / v0)
        with open(tmp_path / f"fig4_map_v0t_{tag}.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "site_x,site_y,G"
        assert len(lines) == 1 + 24
        rebuilt = np.full((5, 5), np.nan)
        for row in lines[1:]:
            x, y, g = row.split(",")
            assert (int(x), int(y)) != (cx, cy)
            rebuilt[int(x), int(y)] = float(g)
        assert rebuilt.tobytes() == want.tobytes(), tag

        block = snapshots[tag]
        assert block["side"] == 5 and block["center_site"] == spec.center_site
        assert block["spacing_um"] == cfg.lattice_spacing
        assert block["time_us"] == v0t / v0
        grid = np.array(block["grid"], dtype=float)  # null -> nan
        assert block["grid"][cx][cy] is None
        assert grid.tobytes() == want.tobytes(), tag
