"""Every key of the config schema against hostile values.

Each value goes through ``config_from_dict``; a value that loads then runs
the command that reads its section on a 3-point grid, or on its default
grid for a key that only sizes that grid. Every outcome must
be a clean exit: 0, 2 or 3, at most one stderr line, no numpy
RuntimeWarning and no ``nan`` in any CSV written.
"""

import contextlib
import io
import json
import math
import os
import warnings

import pytest

from rydramsey import cli, experiments
from rydramsey.config import _CANONICAL, _SCHEMA, config_from_dict
from rydramsey.errors import CapacityError, ConfigError, ParameterError, UnsupportedRegimeError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SR = os.path.join(CONFIG_DIR, "sr_dressed.json")
RB = os.path.join(CONFIG_DIR, "rb_ultrafast.json")

FIG2, FIG4 = ("fig2", "lin:0:8*pi:3"), ("fig4", "lin:0:4*pi:3")
# each section's base config, and the commands that read the section
RUNS = {
    "potential": (SR, [FIG2]),
    "sample": (SR, [FIG2]),
    "protocol": (SR, [FIG2, FIG4, ("scan", "log:0.1:10:3")]),
    "lattice": (SR, [FIG4]),
    "ultrafast": (RB, [("fig5", "lin:0:700:3")]),
}
# keys read only on a command's default grid: their values run it without --grid
DEFAULT_GRID_RUNS = {("ultrafast", "n_points"): [("fig5", None)]}


def hostile_values(kind):
    """Values no config should turn into a traceback or a nan; number
    strings carry the canonical unit of the key's quantity kind."""
    unit = f" {_CANONICAL[kind]}" if kind in _CANONICAL else ""
    numbers = ("nan", "inf", "0", "-1", "1e-320", "1e308")
    return [math.nan, math.inf, -math.inf, True, [1.0], None, 0, -1, 5e-324, 1e308,
            10**400, "9" * 5000] + [n + unit for n in numbers]


def outcome(command, path, grid, out):
    """(exit code, stderr) of an in-process CLI run, on the default grid
    for a grid of None; exit 1 for an uncaught exception, RuntimeWarnings
    included."""
    err = io.StringIO()
    argv = [command, "--config", path, "--out", out]
    if grid is not None:
        argv += ["--grid", grid]
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a traceback is what is tested
                return 1, f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue()


def test_every_schema_key_survives_hostile_values(tmp_path):
    failures = []
    runs = 0
    for section, keys in _SCHEMA.items():
        base_path, section_commands = RUNS[section]
        with open(base_path, encoding="utf-8") as fh:
            base = fh.read()
        for key, (kind, _) in keys.items():
            commands = DEFAULT_GRID_RUNS.get((section, key), section_commands)
            for k, value in enumerate(hostile_values(kind)):
                data = json.loads(base)
                data.setdefault(section, {})[key] = value
                label = f"{section}.{key} = {str(value)[:20]!r}"
                try:
                    config_from_dict(data)
                except (ConfigError, ParameterError, UnsupportedRegimeError):
                    continue  # exit 2 through the CLI
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{label}: config_from_dict raised {exc!r}")
                    continue
                path = tmp_path / f"{section}.{key}.{k}.json"
                path.write_text(json.dumps(data))
                for command, grid in commands:
                    out = tmp_path / f"{command}.{section}.{key}.{k}"
                    rc, err = outcome(command, str(path), grid, str(out))
                    runs += 1
                    if rc not in (0, 2, 3) or len(err.splitlines()) > 1:
                        failures.append(f"{label}: {command} exit {rc}, stderr {err[:200]!r}")
                        continue
                    for name in sorted(os.listdir(out)) if out.exists() else []:
                        if name.endswith(".csv") and "nan" in (out / name).read_text().lower():
                            failures.append(f"{label}: {command} wrote nan into {name}")
    assert runs > 0
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize(
    "section, key, command, error, code",
    [
        ("lattice", "size", "fig4", CapacityError, 3),
        ("protocol", "theta", "fig2", ConfigError, 2),
    ],
)
def test_integer_past_the_digit_limit_in_a_dict(
    monkeypatch, tmp_path, section, key, command, error, code
):
    # json refuses integers of more than 4300 digits, so only a dict built
    # in Python carries one this long; it must still end in a clean error
    with open(SR, encoding="utf-8") as fh:
        data = json.load(fh)
    data[section][key] = 10**5000
    with pytest.raises(error):
        getattr(experiments, f"run_{command}")(config_from_dict(data), str(tmp_path / "api"))
    monkeypatch.setattr(cli, "load_config", lambda path: config_from_dict(data))
    rc, err = outcome(command, "dict", None, str(tmp_path / "cli"))
    assert rc == code and len(err.splitlines()) == 1, err
