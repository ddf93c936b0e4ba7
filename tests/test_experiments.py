import json
import math
import os

import numpy as np
import pytest

from rydramsey import cli
from rydramsey.config import config_from_dict, load_config
from rydramsey.errors import ConfigError
from rydramsey.experiments import parse_grid, run_fig5, run_validate

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


def test_scan_theta_override(tmp_path):
    rc = cli.main(
        [
            "scan",
            "--config",
            SR,
            "--out",
            str(tmp_path),
            "--grid",
            "log:0.01:100:5",
            "--theta",
            "1.0471975511965976",
        ]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "scan_meta.json").read_text())
    assert meta["protocol"]["theta"] == pytest.approx(math.pi / 3.0)
    header, data = read_csv(tmp_path / "scan_tau.csv")
    assert header == ["n_r", "v0t_half", "tau_us"]
    assert data.shape == (5, 3)
    assert np.all(np.diff(data[:, 2]) < 0)  # denser decays faster


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


def test_cli_rejects_bad_grid(tmp_path, capsys):
    rc = cli.main(
        ["fig2", "--config", SR, "--out", str(tmp_path), "--grid", "lin:5:1:9"]
    )
    assert rc == 2
    assert capsys.readouterr().err


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


def test_cli_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["fig5", "--config", RB, "--out", str(out)])
        assert rc == 0
    for name in sorted(os.listdir(a)):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name
