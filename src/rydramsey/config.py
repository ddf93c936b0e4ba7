"""JSON run configuration with explicit units on every physical value.

Physical quantities are written as strings of the form ``"value unit"``,
for example ``"5000 rad/us"``, ``"1.0e12 cm^-3"``, ``"0.5 um"`` or
``"pi/2 rad"``. Bare numbers are accepted only for genuinely
dimensionless entries (and for angles, which default to radians); a
unit-less physical quantity is a config error, not a guess. All values
are converted to the package's canonical units (um, us, rad/us and
products thereof) at load time.

The numeric part may be a constant expression over numbers, ``pi``,
``+ - * /``, unary minus and parentheses, so ``"pi/2 rad"`` and
``"1/21 1/us"`` read the way they are meant. A syntax-tree walker, not
``eval``, computes it, so a config can neither run code nor ask for powers.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .ising_core import RamseyProtocol
from .potential import (
    DressingParams,
    InteractionPotential,
    PotentialKind,
    derive_potential,
)

__all__ = ["RunConfig", "parse_quantity", "load_config", "config_from_dict"]

# Conversion factors into canonical units, keyed by quantity kind.
_UNIT_TABLES = {
    "frequency": {
        "rad/us": 1.0,
        "rad/ns": 1e3,
        "rad/ps": 1e6,
        "rad/ms": 1e-3,
        "rad/s": 1e-6,
        "1/us": 1.0,
        "1/ns": 1e3,
        "1/ms": 1e-3,
        "1/s": 1e-6,
    },
    "length": {"um": 1.0, "nm": 1e-3, "mm": 1e3, "m": 1e6},
    "time": {"us": 1.0, "ns": 1e-3, "ps": 1e-6, "ms": 1e3, "s": 1e6},
    "density": {
        "um^-3": 1.0,
        "cm^-3": 1e-12,
        "m^-3": 1e-18,
        "1/um^3": 1.0,
        "1/cm^3": 1e-12,
        "1/m^3": 1e-18,
    },
    "c6": {
        "rad*um^6/us": 1.0,
        "rad*um^6/ns": 1e3,
        "rad*um^6/ps": 1e6,
        "rad*nm^6/ps": 1e-12,
        "rad*nm^6/ns": 1e-15,
    },
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
    "dimensionless": {},
}

_CANONICAL = {
    "frequency": "rad/us",
    "length": "um",
    "time": "us",
    "density": "um^-3",
    "c6": "rad*um^6/us",
    "angle": "rad",
}

_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_node(node: ast.AST) -> float:
    """Value of a constant-expression node; anything else raises ValueError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)  # float arithmetic: an exact int product can stall
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_eval_node(node.left), _eval_node(node.right))
    raise ValueError(f"disallowed syntax {type(node).__name__}")


def _eval_number(text: str, name: str) -> float:
    """Value of the constant expression ``text``; ConfigError unless it
    parses to a finite float."""
    try:
        value = float(_eval_node(ast.parse(text.strip(), mode="eval").body))
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"{name}: cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name}: {text!r} is outside the finite float range")
    return value


def parse_quantity(value, kind: str, name: str = "quantity") -> float:
    """Convert a config value to canonical units.

    Parameters
    ----------
    value : number or str
        Either a bare number (dimensionless/angle kinds only) or a
        string ``"number unit"``.
    kind : str
        One of ``frequency``, ``length``, ``time``, ``density``, ``c6``,
        ``angle``, ``dimensionless``.
    name : str
        Key path used in error messages.

    Returns
    -------
    float
        Value in um / us / rad-per-us canonical units.
    """
    table = _UNIT_TABLES.get(kind)
    if table is None:
        raise ConfigError(f"{name}: unknown quantity kind {kind!r}")
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected a quantity, got a boolean")
    if isinstance(value, (int, float)):
        if kind in ("dimensionless", "angle"):
            return float(value)
        raise ConfigError(
            f"{name}: physical quantities need a unit suffix, "
            f'e.g. "{value} {_CANONICAL[kind]}"'
        )
    if isinstance(value, str):
        parts = value.rsplit(None, 1)
        if len(parts) == 2 and parts[1] in table:
            scaled = _eval_number(parts[0], name) * table[parts[1]]
            if not math.isfinite(scaled):
                raise ConfigError(f"{name}: {value!r} overflows in {_CANONICAL[kind]}")
            return scaled
        if kind in ("dimensionless", "angle"):
            return _eval_number(value, name)
        if len(parts) == 2:
            raise ConfigError(
                f"{name}: unknown unit {parts[1]!r} for {kind}; "
                f"accepted: {sorted(table)}"
            )
        raise ConfigError(f"{name}: missing unit in {value!r}")
    raise ConfigError(
        f"{name}: expected a number or 'value unit' string, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration in canonical units.

    Sections a given command does not use may be absent (None); each
    runner checks for what it needs and raises ConfigError otherwise.
    The ``resolved`` dict mirrors the input with every quantity already
    converted, and is embedded into output metadata verbatim.
    """

    potential: Optional[InteractionPotential]
    density: Optional[float]
    protocol: RamseyProtocol
    lattice_spacing: Optional[float]
    lattice_size: Optional[int]
    ultrafast: Optional[dict]
    resolved: dict


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing required config key {path}.{key}")
    return section[key]


def _integer(value, path: str, minimum: int) -> int:
    """`value` if it is an integer >= minimum; JSON true/false are not."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{path} must be an integer >= {minimum}, got {value!r}")
    return value


def _section(data: dict, key: str) -> Optional[dict]:
    sec = data.get(key)
    if sec is None:
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    return sec


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from an already-decoded JSON object."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    resolved: dict = {"_canonical_units": dict(_CANONICAL)}

    pot = None
    psec = _section(data, "potential")
    if psec is not None:
        kind_name = _require(psec, "kind", "potential")
        try:
            kind = PotentialKind(kind_name)
        except ValueError:
            raise ConfigError(
                f"potential.kind must be one of "
                f"{[k.value for k in PotentialKind]}, got {kind_name!r}"
            ) from None
        c6 = parse_quantity(_require(psec, "c6", "potential"), "c6", "potential.c6")
        if kind is PotentialKind.SOFT_CORE:
            rabi = parse_quantity(
                _require(psec, "rabi", "potential"), "frequency", "potential.rabi"
            )
            detuning = parse_quantity(
                _require(psec, "detuning", "potential"),
                "frequency",
                "potential.detuning",
            )
        else:
            rabi = parse_quantity(psec["rabi"], "frequency", "potential.rabi") if "rabi" in psec else 0.0
            detuning = parse_quantity(psec["detuning"], "frequency", "potential.detuning") if "detuning" in psec else 0.0
        dress = DressingParams(rabi=rabi, detuning=detuning, c6=c6)
        pot = derive_potential(dress, kind)
        resolved["potential"] = {
            "kind": kind.value,
            "c6": c6,
            "rabi": rabi,
            "detuning": detuning,
            "epsilon": pot.epsilon,
            "r_c": pot.r_c,
            "v0": pot.v0,
            "c6_tail": pot.c6,
        }

    density = None
    ssec = _section(data, "sample")
    if ssec is not None:
        if "density" in ssec:
            density = parse_quantity(ssec["density"], "density", "sample.density")
        n_atoms = _integer(ssec["n_atoms"], "sample.n_atoms", 1) if "n_atoms" in ssec else None
        resolved["sample"] = {"density": density, "n_atoms": n_atoms}

    prsec = _section(data, "protocol") or {}
    theta = parse_quantity(prsec.get("theta", math.pi / 2), "angle", "protocol.theta")
    echo = prsec.get("echo", False)
    if not isinstance(echo, bool):
        raise ConfigError("protocol.echo must be true or false")
    gamma = parse_quantity(prsec["gamma"], "frequency", "protocol.gamma") if "gamma" in prsec else 0.0
    gamma_d = parse_quantity(prsec["gamma_d"], "frequency", "protocol.gamma_d") if "gamma_d" in prsec else 0.0
    try:
        protocol = RamseyProtocol(theta=theta, echo=echo, gamma=gamma, gamma_d=gamma_d)
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc
    resolved["protocol"] = {
        "theta": theta,
        "echo": echo,
        "gamma": gamma,
        "gamma_d": gamma_d,
    }

    lattice_spacing = None
    lattice_size = None
    lsec = _section(data, "lattice")
    if lsec is not None:
        lattice_spacing = parse_quantity(
            _require(lsec, "spacing", "lattice"), "length", "lattice.spacing"
        )
        lattice_size = _integer(_require(lsec, "size", "lattice"), "lattice.size", 1)
        resolved["lattice"] = {"spacing": lattice_spacing, "size": lattice_size}

    ultrafast = None
    usec = _section(data, "ultrafast")
    if usec is not None:
        fractions = _require(usec, "fractions", "ultrafast")
        if not isinstance(fractions, list) or not fractions:
            raise ConfigError("ultrafast.fractions must be a nonempty list")
        fr = [
            parse_quantity(f, "dimensionless", f"ultrafast.fractions[{i}]")
            for i, f in enumerate(fractions)
        ]
        for i, f in enumerate(fr):
            if not 0.0 < f < 1.0:
                raise ConfigError(
                    f"ultrafast.fractions[{i}] must lie in (0, 1), got {f}"
                )
        ultrafast = {
            "fractions": fr,
            "density_high": parse_quantity(
                _require(usec, "density_high", "ultrafast"),
                "density",
                "ultrafast.density_high",
            ),
            "density_low": parse_quantity(
                _require(usec, "density_low", "ultrafast"),
                "density",
                "ultrafast.density_low",
            ),
            "c6": parse_quantity(
                _require(usec, "c6", "ultrafast"), "c6", "ultrafast.c6"
            ),
            "t_max": parse_quantity(
                _require(usec, "t_max", "ultrafast"), "time", "ultrafast.t_max"
            ),
            "n_points": _integer(usec.get("n_points", 121), "ultrafast.n_points", 2),
        }
        for key in ("density_high", "density_low", "t_max"):
            if not ultrafast[key] > 0:
                raise ConfigError(f"ultrafast.{key} must be positive, got {ultrafast[key]}")
        resolved["ultrafast"] = dict(ultrafast)

    return RunConfig(
        potential=pot,
        density=density,
        protocol=protocol,
        lattice_spacing=lattice_spacing,
        lattice_size=lattice_size,
        ultrafast=ultrafast,
        resolved=resolved,
    )


def load_config(path) -> RunConfig:
    """Read and parse a JSON config file.

    Raises
    ------
    ConfigError
        Unreadable file, invalid JSON, or any schema/unit problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)
