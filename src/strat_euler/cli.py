"""Command line interface.

Subcommands: check, compute, solve, fubini, catalog.  Exit codes: 0 when
everything asked for verified or computed cleanly, 1 when some identity or
expectation failed, 2 for malformed or insufficient input (argparse uses 2
for bad invocations as well).  Output is line oriented and deterministic;
ANSI color is applied only on a terminal and can be disabled by setting
STRAT_EULER_COLOR=0.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import CensusError

# each subcommand imports the layers it runs: `catalog list` and `fubini`
# compile no census module, `compute` neither the identities nor the catalog


_COLORS = {"OK": "\x1b[32m", "FAIL": "\x1b[31m", "SKIP": "\x1b[33m"}


def _print_rows(rows) -> int:
    """Print rows of ``check`` or of a catalog entry, colored on a terminal
    unless STRAT_EULER_COLOR=0; return how many failed."""
    out = sys.stdout
    color = os.environ.get("STRAT_EULER_COLOR", "") != "0" and out.isatty()
    for row in rows:
        text = row.line()
        if color:
            text = _COLORS.get(row.status, "") + text + "\x1b[0m"
        print(text, file=out)
    return sum(1 for row in rows if row.status == "FAIL")


# --- subcommands --------------------------------------------------------


def _cmd_check(args) -> int:
    from .catalog import standard_check_lines
    from .census_io import load_file

    bundle = load_file(args.census)
    slice_bundle = None if args.hyperplane is None else load_file(args.hyperplane)
    lines = standard_check_lines(bundle, slice_bundle)
    failed = _print_rows(lines)
    skipped = sum(1 for l in lines if l.status == "SKIP")
    print(f"{len(lines)} checks, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


def _cmd_compute(args) -> int:
    from .census_io import load_file
    from .fibration import (
        brasselet,
        brasselet_infinity,
        detect_irregular_values,
        eu_weight,
        lambda_infinity,
        resolve_value_label,
    )
    from .obstruction import global_euler_obstruction, solve_bdk

    bundle = load_file(args.census)
    census = bundle.census
    what = args.what
    takes_at = what not in ("eu-table", "eu-global", "detect-irregular")
    if (args.at is None) == takes_at:
        print(f"error: --what {what} {'needs' if takes_at else 'takes no'} --at", file=sys.stderr)
        return 2
    if what == "eu-table":
        table = solve_bdk(census.base)
        print("local obstruction values (rows: strata, columns: stratum closures)")
        print(table.pretty())
        return 0
    if what == "eu-global":
        print(f"Eu(X) = {global_euler_obstruction(census.base)}")
        return 0
    if what == "detect-irregular":
        for label in detect_irregular_values(census):
            print(label)
        return 0
    at = resolve_value_label(census, args.at)
    if at != args.at:
        print(
            f"note: {args.at!r} is not a declared special value; using the generic column",
            file=sys.stderr,
        )
    if what == "brasselet":
        print(f"B({at}) = {brasselet(census, at, eu_weight(census))}")
        return 0
    if what == "lambda":
        print(f"lambda({at}) = {lambda_infinity(census, at)}")
        return 0
    if what == "binf":
        print(f"Binf({at}) = {brasselet_infinity(census, at, eu_weight(census))}")
        return 0
    raise AssertionError(f"unhandled --what {what!r}")


def _cmd_solve(args) -> int:
    from .census_io import apply_field_to_raw, load_file
    from .fibered import solve_unknown
    from .fibration import eu_weight

    bundle = load_file(args.census)
    alpha = None
    if args.alpha == "eu":
        alpha = eu_weight(bundle.census)
    fiber = None
    if args.at is not None and args.at in bundle.fiber_censuses:
        fiber = bundle.fiber_censuses[args.at]
    result = solve_unknown(
        bundle.census,
        args.identity,
        args.unknown,
        at=args.at,
        alpha=alpha,
        fiber_census=fiber,
        use_milnor=args.use_milnor,
    )
    print(f"{result.field} = {result.value}")
    if args.emit_completed is not None:
        import json
        from pathlib import Path

        completed = apply_field_to_raw(bundle.raw, result.field, result.value)
        try:
            Path(args.emit_completed).write_text(json.dumps(completed, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.emit_completed}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote completed census to {args.emit_completed}")
    return 0


def _cmd_fubini(args) -> int:
    from .euler_calculus import check_fubini, load_bundle

    lhs, rhs = check_fubini(*load_bundle(args.bundle))
    print(f"lhs = {lhs}")
    print(f"rhs = {rhs}")
    ok = lhs == rhs
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.names:
            print("error: catalog list takes no entry names", file=sys.stderr)
            return 2
        from .documents import list_entries

        for name in list_entries():
            print(name)
        return 0
    from .catalog import run_all

    entries = run_all(args.names or None)
    verified = 0
    for name, rows in entries:
        print(f"== {name} ==")
        verified += not _print_rows(rows)
    print(f"{verified}/{len(entries)} catalog entries verified")
    return 0 if verified == len(entries) else 1


# --- the command line ---------------------------------------------------

# each subcommand's handler, help and arguments, the arguments as
# ``add_argument`` takes them and in its order: build_parser gives them to
# argparse, and read_plain reads the command lines that need nothing more
_COMMANDS = {
    "check": (_cmd_check, "run every applicable identity on a census file", [
        ("census", {"help": "census JSON file"}),
        ("--hyperplane", {
            "default": None,
            "help": "census of a generic hyperplane slice; adds the slicing-step checks",
        }),
    ]),
    "compute": (_cmd_compute, "compute one invariant of a census file", [
        ("census", {}),
        ("--what", {
            "required": True,
            "choices": ["eu-table", "eu-global", "brasselet", "lambda", "binf", "detect-irregular"],
        }),
        ("--at", {"default": None, "help": "target value label (or 'generic')"}),
    ]),
    "solve": (_cmd_solve, "recover one absent census slot from an identity", [
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
    "fubini": (_cmd_fubini, "check the projection formula on a map bundle", [
        ("bundle", {"help": "JSON with complex_src, complex_dst, vertex_map, weights"}),
    ]),
    "catalog": (_cmd_catalog, "list or re-verify the shipped census library", [
        ("action", {"choices": ["run", "list"]}),
        ("names", {"nargs": "*", "help": "entry names (default: all)"}),
    ]),
}


def build_parser():
    """argparse's parser of the command line.  Importing argparse and
    building the parser take about 5 ms, so only the command lines
    read_plain declines come here: help, abbreviations, ``--opt=value`` and
    usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="strat-euler",
        description="exact invariants of stratified censuses, and their cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(run=handler)
    return parser


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What argparse makes of a plain command line, or None.  Plain is: the
    subcommand spelled out, then its positionals, and each option spelled
    out at most once, every required one present, each value not starting
    with ``-`` and in its choices.  Anything else (help, ``--``, an
    abbreviation, ``--opt=value``, a repeated option, a usage error) is for
    argparse to read."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _summary, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "run": handler}
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


def _parse(argv: list[str]):
    """argparse's reading of a command line read_plain declines.  argparse
    drops the error of its own write to stdout, which loses help into a
    closed unbuffered stdout; so it writes into a buffer, and the help is
    written and flushed here, where a closed stdout is reported like any
    command's."""
    import contextlib
    import io

    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            return build_parser().parse_args(argv)
    finally:
        sys.stdout.write(text.getvalue())
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = read_plain(argv) or _parse(argv)
        code = args.run(args)
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


def run() -> int:
    """The process entry: ``python -m strat_euler`` and the ``strat-euler``
    script.  Every full collection of the cyclic GC, those at exit included,
    would walk the objects start-up made (the interpreter's, the site
    hooks', this module's) again, though they live until exit anyway;
    frozen here, a collection walks only what the command allocates.
    ``main`` leaves the GC state alone, so tests and library callers keep
    theirs."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
