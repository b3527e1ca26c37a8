"""Command-line entry: run and validate scenario configs.

Exit codes: 0 success or ``--help``, 1 invalid command line or config, 2
invariant violation during a run (an identity that failed to hold, or a value
the run produced that failed its validation), 3 the operating system refused
an operation of the run (writing the report, starting worker processes, or
allocating memory).  Errors print a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .linalg import InvariantViolation
from .scenarios import dump_json, run_scenario


class _UsageError(Exception):
    """A rejected command line; argparse would print usage and exit 2, the invariant code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _Parser(
        prog="tpslab",
        description="Reproducible scenario runner for cross-split open-system experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config and write its report")
    run_p.add_argument("config", type=Path, help="path to a scenario JSON file")
    run_p.add_argument("--output-dir", type=Path, default=None, help="override output_dir")
    run_p.add_argument("--seed", type=int, default=None, help="override base_seed")
    run_p.add_argument("--trials", type=int, default=None, help="override trials")

    val_p = sub.add_parser("validate", help="check a config and echo its normalized form")
    val_p.add_argument("config", type=Path, help="path to a scenario JSON file")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(
            args.config,
            seed_override=getattr(args, "seed", None),
            trials_override=getattr(args, "trials", None),
            output_dir_override=getattr(args, "output_dir", None),
        )
    except _UsageError as exc:
        return _fail("usage", str(exc), 1)
    except ConfigError as exc:
        return _fail("config", str(exc), 1)

    if args.command == "validate":
        print(dump_json(cfg.echo))
        return 0

    try:
        paths = run_scenario(cfg)
    except (InvariantViolation, ValueError) as exc:
        # the config passed load_config, so a ValueError here is a run-time
        # validation of something the run computed, such as a drawn state
        return _fail("invariant", str(exc), 2)
    except OSError as exc:
        return _fail("io", str(exc), 3)
    except MemoryError as exc:
        return _fail("memory", str(exc) or "out of memory", 3)
    print(f"summary: {paths.summary}")
    print(f"series: {paths.series}")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
