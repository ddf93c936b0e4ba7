import json
import math

import pytest

from rydramsey.config import config_from_dict, load_config, parse_quantity
from rydramsey.errors import ConfigError


def test_parse_quantity_basic_units():
    assert parse_quantity("1000 rad/us", "frequency") == 1000.0
    assert parse_quantity("700 ps", "time") == pytest.approx(7e-4, rel=1e-15)
    assert parse_quantity("1.3e12 cm^-3", "density") == pytest.approx(1.3, rel=1e-15)
    assert parse_quantity("0.5 um", "length") == 0.5
    assert parse_quantity("-1.32e4 rad*um^6/us", "c6") == -1.32e4


def test_parse_quantity_expressions():
    assert parse_quantity("pi/2", "angle") == pytest.approx(math.pi / 2, rel=1e-16)
    assert parse_quantity("1/21 1/us", "frequency") == pytest.approx(1.0 / 21.0)
    assert parse_quantity("2*pi rad/us", "frequency") == pytest.approx(2 * math.pi)


def test_time_round_trip_ps():
    # ps in, us internally, back out in ps
    t_us = parse_quantity("123.456 ps", "time")
    assert t_us * 1e6 == pytest.approx(123.456, rel=1e-12)


def test_ultrafast_c6_unit_conversion():
    # rad*nm^6/ps = 1e-36 um^6 * 1e6 /us = 1e-12 of canonical
    assert parse_quantity("5 rad*nm^6/ps", "c6") == pytest.approx(5e-12, rel=1e-15)


def test_bare_numbers_only_for_dimensionless():
    assert parse_quantity(0.25, "dimensionless") == 0.25
    assert parse_quantity(1.5, "angle") == 1.5
    with pytest.raises(ConfigError):
        parse_quantity(1000, "frequency")  # unit suffix required


def test_unknown_unit_lists_choices():
    with pytest.raises(ConfigError) as err:
        parse_quantity("3 MHz", "frequency")
    assert "rad/us" in str(err.value)


def test_booleans_rejected():
    with pytest.raises(ConfigError):
        parse_quantity(True, "dimensionless")


def test_expression_eval_is_restricted():
    for bad in ("__import__('os')", "().__class__", "'a'*9", "2**10"):
        with pytest.raises(ConfigError):
            parse_quantity(bad, "dimensionless")


def minimal_dict():
    return {
        "potential": {
            "kind": "soft_core",
            "c6": "-1.0e4 rad*um^6/us",
            "rabi": "1000 rad/us",
            "detuning": "5000 rad/us",
        },
        "sample": {"density": "1.0 um^-3"},
        "protocol": {"theta": "pi/2", "echo": False, "gamma": "1/21 1/us"},
    }


def test_config_from_dict_resolves_canonical_values():
    cfg = config_from_dict(minimal_dict())
    assert cfg.potential.v0 == pytest.approx(1.0, rel=1e-12)
    assert cfg.density == 1.0
    assert cfg.protocol.theta == pytest.approx(math.pi / 2)
    assert cfg.protocol.gamma == pytest.approx(1.0 / 21.0)
    assert cfg.resolved["potential"]["r_c"] == pytest.approx(1.0, rel=1e-12)
    assert cfg.resolved["_canonical_units"]["length"] == "um"


def test_wrong_potential_kind():
    d = minimal_dict()
    d["potential"]["kind"] = "coulomb"
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_missing_required_key():
    d = minimal_dict()
    del d["potential"]["c6"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert "c6" in str(err.value)


def test_protocol_echo_must_be_boolean():
    d = minimal_dict()
    d["protocol"]["echo"] = "yes"
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_ultrafast_fraction_range():
    d = {
        "ultrafast": {
            "fractions": [0.5, 1.5],
            "density_high": "1 um^-3",
            "density_low": "0.1 um^-3",
            "c6": "-1e4 rad*um^6/us",
            "t_max": "700 ps",
        }
    }
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_shipped_configs_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    sr = load_config(str(root / "sr_dressed.json"))
    assert sr.lattice_size == 15
    assert sr.lattice_spacing == 0.5
    rb = load_config(str(root / "rb_ultrafast.json"))
    assert rb.ultrafast["t_max"] == pytest.approx(7e-4, rel=1e-15)
    assert rb.ultrafast["density_low"] == pytest.approx(0.04, rel=1e-12)


def test_round_trip_through_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(minimal_dict()))
    cfg = load_config(str(p))
    assert cfg.potential.epsilon == pytest.approx(0.1, rel=1e-12)
