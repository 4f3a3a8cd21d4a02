"""Command line entry point.

Subcommands:
  run          full pipeline from an INI config or a named preset
  verify       coarse pass and equilibration certificate only
  preset-list  available benchmark presets

Exit codes: 0 success, 2 configuration error, 3 numerical failure (also a
dead farm worker or running out of memory), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from . import pipeline
from .coarse import InfeasibleVolumeError
from .equilibrate import EquilibrationError
from .fem import SolverError
from .fine import FineSolveError
from .grid import GridError

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twolevel-topopt",
        description="Two-level density-based topology optimization.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log stage progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run the full two-level pipeline"),
        ("verify", "run the coarse pass and write the equilibrium certificate"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", metavar="FILE",
                            help="INI configuration file")
        source.add_argument("--preset", metavar="NAME",
                            help="named benchmark preset")
        cmd.add_argument("--out", metavar="DIR",
                         help="output directory (overrides the config)")
        cmd.add_argument("--workers", type=int, metavar="N",
                         help="fine-cell worker processes (overrides the config)")

    sub.add_parser("preset-list", help="list benchmark presets")
    return parser


def _load_config(args):
    if args.preset is not None:
        config = pipeline.preset_config(args.preset)
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise pipeline.ConfigError(f"cannot read {args.config}: {exc}") from exc
        config = pipeline.parse_config(text)
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        config = replace(config, **overrides).validate()
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "preset-list":
        for name in sorted(pipeline.PRESETS):
            print(f"{name}: {pipeline.PRESET_NOTES.get(name, '')}")
        return 0

    try:
        config = _load_config(args)
    except pipeline.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = pipeline.run_pipeline(config, skip_fine=args.command == "verify")
    except pipeline.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleVolumeError, SolverError, EquilibrationError, FineSolveError,
            GridError, pipeline.PipelineError, BrokenProcessPool) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError says nothing.
        print("run failed: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
