"""Command line entry point.

Subcommands map one-to-one onto the runners in ``experiments``:

    rydramsey fig2 --config configs/sr_dressed.json --out out/fig2
    rydramsey validate --out out/validate --seed 7

Exit codes: 0 success, 2 configuration or parameter problems,
3 numerical failures (non-converged quadrature, missing crossing,
oversized oracle request, a lattice past the dense-array cap of
``lattice.MAX_SIDE``, a fig5 default grid or any ``--grid`` past
``experiments.MAX_FIG5_POINTS`` points), 4 a validation run that
completed but found disagreement.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiments
from .config import RunConfig, _eval_number, load_config
from .errors import (
    CapacityError,
    ConfigError,
    CrossingNotFoundError,
    NumericalError,
    ParameterError,
    UnsupportedRegimeError,
)
from .experiments import parse_grid
from .ising_core import RamseyProtocol

# The axis of each sweep command's --grid; validate has no grid.
_GRID_AXIS = {
    "fig2": "V0*t",
    "fig3": "V0*t (curves)",
    "fig4": "V0*t (trace)",
    "fig5": "t in ps",
    "scan": "N_R",
}

# Commands that run the configured protocol; the others fix their own
# angles and echo, so --theta/--echo are registered only here.
_PROTOCOL_COMMANDS = ("fig4", "scan")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydramsey",
        description="Ramsey contrast of dressed Rydberg spin ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_GRID_AXIS, "validate"):
        sp = sub.add_parser(name, help=f"run the {name} pipeline")
        sp.add_argument(
            "--config",
            default=None,
            help="JSON parameter file (required for everything except validate)",
        )
        sp.add_argument("--out", default=".", help="output directory")
        if name == "validate":
            sp.add_argument("--seed", type=int, default=0, help="RNG seed")
            continue
        sp.add_argument(
            "--grid",
            default=None,
            help=(
                "override the sweep grid, kind:start:stop:n with kind lin|log; "
                f"axis: {_GRID_AXIS[name]}"
            ),
        )
        if name in _PROTOCOL_COMMANDS:
            sp.add_argument(
                "--echo",
                action=argparse.BooleanOptionalAction,
                default=None,
                help="override the protocol's echo flag",
            )
            sp.add_argument(
                "--theta",
                default=None,
                help="override the tipping angle (radians, pi expressions allowed)",
            )
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    proto = cfg.protocol
    theta = proto.theta if args.theta is None else _eval_number(args.theta, "--theta")
    echo = proto.echo if args.echo is None else args.echo
    if theta == proto.theta and echo == proto.echo:
        return cfg
    new_proto = RamseyProtocol(theta, echo, proto.gamma, proto.gamma_d)
    resolved = dict(cfg.resolved)
    resolved["protocol"] = dict(resolved.get("protocol", {}))
    resolved["protocol"]["theta"] = theta
    resolved["protocol"]["echo"] = echo
    return dataclasses.replace(cfg, protocol=new_proto, resolved=resolved)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        grid = None if getattr(args, "grid", None) is None else parse_grid(args.grid)
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config)
            if args.command in _PROTOCOL_COMMANDS:
                cfg = _apply_overrides(cfg, args)
        elif args.command != "validate":
            raise ConfigError(f"{args.command} requires --config")
        options = {"seed": args.seed} if args.command == "validate" else {"grid": grid}
        # looked up at call time, so a wrapper set on the module is honoured
        manifest = getattr(experiments, f"run_{args.command}")(cfg, args.out, **options)
    except (ConfigError, ParameterError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2
    except (CrossingNotFoundError, CapacityError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for name in manifest["files"]:
        print(f"wrote {manifest['out_dir']}/{name}")
    if args.command == "validate" and not manifest["all_passed"]:
        print("validation FAILED; see validation_report.json", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
