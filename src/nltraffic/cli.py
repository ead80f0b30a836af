"""Command-line entry point.

One subcommand per experiment kind (``experiments.EXPERIMENT_KINDS``).
Each takes --config pointing at a key = value document; the
experiment.kind in the document must match the subcommand.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import DomainError, NumericsError
from .experiments import (EXPERIMENT_KINDS, ConfigError, parse_config,
                          run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltraffic",
        description="Finite-volume experiments for traffic flow with a "
                    "forward-looking averaged speed law.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in EXPERIMENT_KINDS.items():
        cmd = sub.add_parser(name, help=kind.help)
        cmd.add_argument("--config", required=True,
                         help="path to the config document")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: output.dir "
                              "from the config, or ./out)")
    return parser


def _error_record(kind: str, exc: Exception) -> str:
    return json.dumps({"error": kind, "type": type(exc).__name__,
                       "message": str(exc)})


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(_error_record("io", exc), file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text)
        if config.kind != args.command:
            raise ConfigError(
                f"config document declares experiment.kind = {config.kind!r} "
                f"but the {args.command!r} subcommand was invoked")
    except ConfigError as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = run_experiment(config, out_dir=args.out)
    except (ConfigError, DomainError) as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(_error_record("numerical", exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(_error_record("io", exc), file=sys.stderr)
        return EXIT_IO

    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
