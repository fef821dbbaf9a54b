"""Command line interface.

Subcommands: check, compute, solve, fubini, catalog.  Exit codes: 0 when
everything asked for verified or computed cleanly, 1 when some identity or
expectation failed, 2 for malformed or insufficient input (argparse uses 2
for bad invocations as well).  Output is line oriented and deterministic;
ANSI color is applied only on a terminal and can be disabled by setting
STRAT_EULER_COLOR=0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CensusError

# each subcommand imports the layers it runs: `catalog list` and `fubini`
# compile no census module, `compute` neither the identities nor the catalog


def _use_color(stream) -> bool:
    if os.environ.get("STRAT_EULER_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


_COLORS = {"OK": "\x1b[32m", "FAIL": "\x1b[31m", "SKIP": "\x1b[33m"}


def _emit(line, stream) -> None:
    # a CheckLine, or an expected-value row of a catalog run
    text = line.line()
    if _use_color(stream):
        text = _COLORS.get(line.status, "") + text + "\x1b[0m"
    print(text, file=stream)


# --- subcommands --------------------------------------------------------


def _cmd_check(args) -> int:
    from .catalog import standard_check_lines
    from .census_io import load_file

    bundle = load_file(args.census)
    lines = standard_check_lines(bundle)
    if args.hyperplane is not None:
        lines.extend(_hyperplane_lines(bundle, load_file(args.hyperplane)))
    for line in lines:
        _emit(line, sys.stdout)
    failed = sum(1 for l in lines if l.status == "FAIL")
    skipped = sum(1 for l in lines if l.status == "SKIP")
    print(f"{len(lines)} checks, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


def _hyperplane_lines(bundle, slice_bundle) -> list:
    from .catalog import checked_row
    from .polar import hyperplane_step
    from .reports import CheckLine

    values = bundle.census.special_values
    if bundle.polar is None:
        return [CheckLine.skip("hyperplane_step", f"a={a}", "missing: polar") for a in values]
    return [
        checked_row(
            "hyperplane_step",
            f"a={a}",
            lambda: hyperplane_step(bundle.census, bundle.polar, slice_bundle.census, a).sides,
        )
        for a in values
    ]


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
    if args.at is None:
        print(f"error: --what {what} needs --at", file=sys.stderr)
        return 2
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
        from .documents import list_entries

        for name in list_entries():
            print(name)
        return 0
    from .catalog import run_all

    report = run_all(args.names or None)
    for entry in report.entries:
        print(f"== {entry.name} ==")
        for line in entry.expected + entry.checks:
            _emit(line, sys.stdout)
    print(report.summary())
    return 0 if report.ok else 1


# --- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strat-euler",
        description="exact invariants of stratified censuses, and their cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every applicable identity on a census file")
    p.add_argument("census", help="census JSON file")
    p.add_argument(
        "--hyperplane",
        default=None,
        help="census of a generic hyperplane slice; adds the slicing-step checks",
    )
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("compute", help="compute one invariant of a census file")
    p.add_argument("census")
    p.add_argument(
        "--what",
        required=True,
        choices=["eu-table", "eu-global", "brasselet", "lambda", "binf", "detect-irregular"],
    )
    p.add_argument("--at", default=None, help="target value label (or 'generic')")
    p.set_defaults(run=_cmd_compute)

    p = sub.add_parser("solve", help="recover one absent census slot from an identity")
    p.add_argument("census")
    p.add_argument("--identity", required=True)
    p.add_argument("--unknown", required=True, help="dotted field path, e.g. fiber_chi.V2.0")
    p.add_argument("--at", default=None)
    p.add_argument("--alpha", choices=["1", "eu"], default="1")
    p.add_argument("--use-milnor", action="store_true")
    p.add_argument(
        "--emit-completed",
        default=None,
        metavar="OUT",
        help="write the census with the solved slot filled in to this file",
    )
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("fubini", help="check the projection formula on a map bundle")
    p.add_argument("bundle", help="JSON with complex_src, complex_dst, vertex_map, weights")
    p.set_defaults(run=_cmd_fubini)

    p = sub.add_parser("catalog", help="list or re-verify the shipped census library")
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("names", nargs="*", help="entry names (default: all)")
    p.set_defaults(run=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (CensusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
