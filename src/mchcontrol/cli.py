"""Command-line entry point: config-driven experiment runner.

Usage: mchcontrol COMMAND --config PATH [--out DIR] [--seed N]

One JSON config file drives everything; flags exist only for the subcommand,
paths, and a seed override. Exit codes: 0 success, 1 a check failed,
2 config error or unusable output path, 3 hard numerical failure.
"""

import argparse
import sys

from .errors import ConfigError, NumericsError
from .config import load_config
from . import runners

_COMMANDS = {
    "forward": runners.run_forward,
    "adjoint": runners.run_adjoint,
    "gradcheck": runners.run_gradcheck,
    "optimize": runners.run_optimize,
    "twin": runners.run_twin,
    "verify": runners.run_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mchcontrol",
        description="Momentum-form viscous Camassa-Holm solver, adjoint "
                    "gradients, window-control optimization, and the "
                    "verification battery.")
    ap.add_argument("command", choices=sorted(_COMMANDS),
                    help="experiment to run")
    ap.add_argument("--config", required=True, metavar="PATH",
                    help="JSON config file")
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="output directory (default: output.dir from config)")
    ap.add_argument("--seed", type=int, default=None, metavar="U64",
                    help="override the config seed")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg["seed"] = int(args.seed)
        out_dir = args.out if args.out is not None else cfg["output"]["dir"]
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the grid does not fit in memory: {exc}",
              file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
