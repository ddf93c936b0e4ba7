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

``_SCHEMA`` lists every key of every section; any other key or section
is a config error that names it.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import sys
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


def _excerpt(value, limit: int = 60) -> str:
    """repr(value), cut to its first ``limit`` characters plus an ellipsis,
    so that an error message stays one short line."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _eval_number(text: str, name: str) -> float:
    """Value of the constant expression ``text``; ConfigError unless it
    parses to a finite float."""
    try:
        value = float(_eval_node(ast.parse(text.strip(), mode="eval").body))
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"{name}: cannot parse number {_excerpt(text)}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name}: {_excerpt(text)} is outside the finite float range")
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
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ConfigError(f"{name}: integer is outside the finite float range")
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
                raise ConfigError(f"{name}: {_excerpt(value)} overflows in {_CANONICAL[kind]}")
            return scaled
        if kind in ("dimensionless", "angle"):
            return _eval_number(value, name)
        if len(parts) == 2:
            raise ConfigError(
                f"{name}: unknown unit {_excerpt(parts[1])} for {kind}; "
                f"accepted: {sorted(table)}"
            )
        raise ConfigError(f"{name}: missing unit in {_excerpt(value)}")
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


_REQUIRED = object()

# Every key of every section: its parse_quantity kind, its integer
# minimum, or None for a value that config_from_dict checks itself; then
# its default, _REQUIRED if the key must be present.
_SCHEMA = {
    "potential": {
        "kind": (None, _REQUIRED),
        "c6": ("c6", _REQUIRED),
        "rabi": ("frequency", None),  # required for a soft core, else 0
        "detuning": ("frequency", None),
    },
    "sample": {"density": ("density", None), "n_atoms": (1, None)},
    "protocol": {
        "theta": ("angle", math.pi / 2.0),
        "echo": (None, False),
        "gamma": ("frequency", 0.0),
        "gamma_d": ("frequency", 0.0),
    },
    "lattice": {"spacing": ("length", _REQUIRED), "size": (1, _REQUIRED)},
    "ultrafast": {
        "fractions": (None, _REQUIRED),
        "density_high": ("density", _REQUIRED),
        "density_low": ("density", _REQUIRED),
        "c6": ("c6", _REQUIRED),
        "t_max": ("time", _REQUIRED),
        "n_points": (2, 121),
    },
}


def _read(name: str, section) -> dict:
    """Section ``name`` parsed key by key from _SCHEMA."""
    if section is None:
        raise ConfigError(f"config section {name!r} is null; give an object or leave it out")
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    schema = _SCHEMA[name]
    for key in section:
        if key not in schema:
            raise ConfigError(
                f"unknown config key {_excerpt(f'{name}.{key}')}; accepted: {list(schema)}"
            )
    out = {}
    for key, (kind, default) in schema.items():
        path = f"{name}.{key}"
        if key not in section:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key {path}")
            out[key] = default
            continue
        value = section[key]
        if isinstance(kind, str):
            value = parse_quantity(value, kind, path)
        elif kind is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < kind
        ):  # JSON true/false decode to bools, which are ints
            raise ConfigError(f"{path} must be an integer >= {kind}, got {_excerpt(value)}")
        out[key] = value
    return out


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from an already-decoded JSON object."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    for name in data:
        if name not in _SCHEMA:
            raise ConfigError(
                f"unknown config section {_excerpt(name)}; accepted: {list(_SCHEMA)}"
            )
    sections = {name: _read(name, data[name]) if name in data else None for name in _SCHEMA}

    pot = None
    psec = sections["potential"]
    if psec is not None:
        try:
            kind = PotentialKind(psec["kind"])
        except ValueError:
            raise ConfigError(
                f"potential.kind must be one of "
                f"{[k.value for k in PotentialKind]}, got {_excerpt(psec['kind'])}"
            ) from None
        for key in ("rabi", "detuning"):
            if psec[key] is None:
                if kind is PotentialKind.SOFT_CORE:
                    raise ConfigError(f"missing required config key potential.{key}")
                psec[key] = 0.0
        pot = derive_potential(
            DressingParams(rabi=psec["rabi"], detuning=psec["detuning"], c6=psec["c6"]), kind
        )

    prsec = sections["protocol"] = sections["protocol"] or _read("protocol", {})
    if not isinstance(prsec["echo"], bool):
        raise ConfigError("protocol.echo must be true or false")
    try:
        protocol = RamseyProtocol(**prsec)
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc

    usec = sections["ultrafast"]
    if usec is not None:
        fractions = usec["fractions"]
        if not isinstance(fractions, list) or not fractions:
            raise ConfigError("ultrafast.fractions must be a nonempty list")
        usec["fractions"] = [
            parse_quantity(f, "dimensionless", f"ultrafast.fractions[{i}]")
            for i, f in enumerate(fractions)
        ]
        for i, f in enumerate(usec["fractions"]):
            if not 0.0 < f < 1.0:
                raise ConfigError(f"ultrafast.fractions[{i}] must lie in (0, 1), got {f}")
        for key in ("density_high", "density_low", "t_max"):
            if not usec[key] > 0:
                raise ConfigError(f"ultrafast.{key} must be positive, got {usec[key]}")

    resolved = {"_canonical_units": dict(_CANONICAL)}
    resolved.update((name, dict(sec)) for name, sec in sections.items() if sec is not None)
    if pot is not None:
        resolved["potential"].update(epsilon=pot.epsilon, r_c=pot.r_c, v0=pot.v0, c6_tail=pot.c6)
    ssec, lsec = sections["sample"] or {}, sections["lattice"] or {}
    return RunConfig(
        potential=pot,
        density=ssec.get("density"),
        protocol=protocol,
        lattice_spacing=lsec.get("spacing"),
        lattice_size=lsec.get("size"),
        ultrafast=usec,
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
    except ValueError as exc:  # an integer literal past Python's digit limit, or bad UTF-8
        raise ConfigError(f"cannot decode config {path}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"cannot decode config {path}: nested too deeply") from None
    return config_from_dict(data)
