"""Run one quivermotive CLI command in this interpreter and stamp its phases.

Usage: python3 cli_child.py STAMP_FILE [--setup-only] COMMAND [ARGS...]

COMMAND and ARGS are exactly what `quivermotive` takes.  The command runs
through `quivermotive.cli.main`, so exit codes and stdout are the CLI's.
STAMP_FILE receives the CLOCK_MONOTONIC times (shared by all processes on
the machine) at which the package was imported and argv parsed, just before
the first call into the engine or the oracles (`setup_end`), and at which
the last record was flushed (`compute_end`).  With --setup-only the command
is parsed but not run.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    stamp_path, rest = argv[0], argv[1:]
    setup_only = rest[:1] == ["--setup-only"]
    cli_argv = rest[1:] if setup_only else rest
    from quivermotive import cli

    stamps: dict[str, float] = {}
    if setup_only:
        cli.build_parser().parse_args(cli_argv)
        stamps["setup_end"] = time.monotonic()
        rc = 0
    else:
        # build_parser binds each subcommand to the module-level cmd_<name>
        # function when main runs, so replacing it here times exactly the
        # command body that main calls.
        name = "cmd_" + cli_argv[0]
        command = getattr(cli, name)

        def stamped(args):
            stamps["setup_end"] = time.monotonic()
            try:
                return command(args)
            finally:
                sys.stdout.flush()
                stamps["compute_end"] = time.monotonic()

        setattr(cli, name, stamped)
        rc = cli.main(cli_argv)
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
