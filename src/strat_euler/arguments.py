"""argparse's reading of the command line, for the lines ``cli.read_plain``
declines: help, abbreviations, ``--opt=value`` and usage errors.  Importing
argparse and building the parser take about 5 ms, so only those command
lines import this module."""

from __future__ import annotations

import contextlib
import io
import sys


def build_parser(commands: dict):
    """argparse's parser of the command line, built from a table laid out
    like ``cli._COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="strat-euler",
        description="exact invariants of stratified censuses, and their cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_module, summary, arguments) in commands.items():
        p = sub.add_parser(command, help=summary)
        for name, spec in arguments:
            p.add_argument(name, **spec)
    return parser


def parse(argv: list[str], commands: dict):
    """argparse's reading of ``argv`` against the table ``commands``.  argparse drops the error of its own
    write to stdout, which loses help into a closed unbuffered stdout; so
    it writes into a buffer, and the help is written and flushed here,
    where a closed stdout is reported like any command's."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            return build_parser(commands).parse_args(argv)
    finally:
        sys.stdout.write(text.getvalue())
        sys.stdout.flush()
