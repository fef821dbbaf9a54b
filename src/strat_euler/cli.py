"""Command line interface.

Subcommands: check, compute, solve, fubini, catalog, each run by the
module that ``_COMMANDS`` names.  Exit codes: 0 when
everything asked for verified or computed cleanly, 1 when some identity or
expectation failed, 2 for malformed or insufficient input (argparse uses 2
for bad invocations as well).  Output is line oriented, deterministic and
UTF-8 under any locale; ANSI color is applied only on a terminal and can
be disabled by setting STRAT_EULER_COLOR=0.
"""

from __future__ import annotations

import atexit
import codecs
import gc
import os
import sys
from types import SimpleNamespace

from .errors import CensusError

# each subcommand's module, help and arguments, the arguments as
# ``add_argument`` takes them and in its order: arguments.build_parser gives
# them to argparse, and read_plain reads the command lines that need nothing
# more.  The module defines the subcommand's handler, cmd_<subcommand>, and
# is imported only to run it: each subcommand compiles only the layers it
# runs.
_COMMANDS = {
    "check": ("catalog", "run every applicable identity on a census file", [
        ("census", {"help": "census JSON file"}),
        ("--hyperplane", {
            "default": None,
            "help": "census of a generic hyperplane slice; adds the slicing-step checks",
        }),
    ]),
    "compute": ("compute", "compute one invariant of a census file", [
        ("census", {}),
        ("--what", {
            "required": True,
            "choices": ["eu-table", "eu-global", "brasselet", "lambda", "binf", "detect-irregular"],
        }),
        ("--at", {"default": None, "help": "target value label (or 'generic')"}),
    ]),
    "solve": ("slots", "recover one absent census slot from an identity", [
        ("census", {}),
        ("--identity", {"required": True}),
        ("--unknown", {"required": True, "help": "dotted field path, e.g. fiber_chi.V2.0"}),
        ("--at", {"default": None}),
        ("--alpha", {"choices": ["1", "eu"], "default": "1"}),
        ("--use-milnor", {"action": "store_true"}),
        ("--emit-completed", {
            "default": None,
            "metavar": "OUT",
            "help": "write the census with the solved slot filled in to this file",
        }),
    ]),
    "fubini": ("euler_calculus", "check the projection formula on a map bundle", [
        ("bundle", {"help": "JSON with complex_src, complex_dst, vertex_map, weights"}),
    ]),
    "catalog": ("entries", "list or re-verify the shipped census library", [
        ("action", {"choices": ["run", "list"]}),
        ("names", {"nargs": "*", "help": "entry names (default: all)"}),
    ]),
}


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What argparse makes of a plain command line, or None.  Plain is: the
    subcommand spelled out, then its positionals, and each option spelled
    out at most once, every required one present, each value not starting
    with ``-`` and in its choices.  Anything else (help, ``--``, an
    abbreviation, ``--opt=value``, a repeated option, a usage error) is for
    argparse to read."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _module, _summary, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0]}
    options = {}
    for name, spec in arguments:
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, spec
            values[dest] = spec.get("default", False if "action" in spec else None)
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in options:
            return None
        dest, spec = options.pop(token)
        if "action" in spec:
            value = True
        else:
            value = next(tokens, "-")  # no value reads as an option
            if value.startswith("-") or value not in spec.get("choices", [value]):
                return None
        values[dest] = value
    if any(spec.get("required") for _dest, spec in options.values()):
        return None
    for name, spec in arguments:
        if name.startswith("-"):
            continue
        if spec.get("nargs") == "*":
            values[name], positionals = positionals, []
        elif positionals and positionals[0] in spec.get("choices", positionals[:1]):
            values[name] = positionals.pop(0)
        else:
            return None
    if positionals:
        return None
    return SimpleNamespace(**values)


def handler(command: str):
    """The function that runs a subcommand, imported from the module that
    defines it."""
    module = f"{__package__}.{_COMMANDS[command][0]}"
    __import__(module)
    return getattr(sys.modules[module], f"cmd_{command}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if sys.stdout is None:
        # started with file descriptor 1 closed: no call, help included,
        # can print, and a file the call opened could take descriptor 1
        print("error: cannot write to standard output: it is closed", file=sys.stderr)
        return 2
    try:
        # output is UTF-8 whatever the locale, as documents read input; a
        # stream without an encoding (io.StringIO) takes text as it is
        encoding = getattr(sys.stdout, "encoding", None)
        if encoding and codecs.lookup(encoding).name != "utf-8":
            sys.stdout.reconfigure(encoding="utf-8")
        args = read_plain(argv)
        if args is None:
            from .arguments import parse

            args = parse(argv, _COMMANDS)
        code = handler(args.command)(args)
        sys.stdout.flush()
    except (CensusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader is gone: the flush at exit writes what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
        return 2
    return code


def _observed() -> bool:
    """Whether the process has more to do once the entry returns: a trace
    or profile function, or a ``sys.monitoring`` tool (Python 3.12+), is
    installed, as a profiler that reports then (``python -m cProfile``)
    installs one, or ``-i`` asks for the interactive prompt."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.flags.inspect != 0
        or sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) for i in range(6)))
    )


def run() -> int:
    """The process entry: ``python -m strat_euler`` and the ``strat-euler``
    script.  The objects start-up made (the interpreter's, the site
    hooks', this module's) live until exit, so they are frozen out of the
    cyclic GC, and the GC is then turned off: reference counting frees
    everything a call drops (tests/test_imports.py checks it), so a
    collection would walk the heap for nothing.  When ``main`` returns, the
    process ends there: the atexit handlers run and stdout and stderr are
    flushed, as at a normal exit, and ``os._exit`` skips tearing down the
    modules and the census, memory the OS reclaims anyway.  A flush that
    fails, a traced or profiled run and ``python -i`` end the normal way,
    as do a SystemExit and an uncaught exception out of ``main``.  ``main``
    leaves the GC and the process alone, so tests and library callers keep
    theirs."""
    gc.freeze()
    gc.disable()
    code = main()
    if _observed():
        return code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
