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
import json
import os
import sys
from pathlib import Path

from .census_io import CensusBundle, apply_field_to_raw, load_file, parse_json
from .errors import CensusError, SchemaError
from .fibered import (
    brasselet,
    brasselet_infinity,
    detect_irregular_values,
    eu_weight,
    lambda_infinity,
    resolve_value_label,
    solve_unknown,
)
from .obstruction import global_euler_obstruction, solve_bdk
from .reports import CheckLine

# catalog, euler_calculus, simplicial and the hyperplane step are imported by
# the subcommands that run them, so compute and solve never compile them


def _use_color(stream) -> bool:
    if os.environ.get("STRAT_EULER_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


_COLORS = {"OK": "\x1b[32m", "FAIL": "\x1b[31m", "SKIP": "\x1b[33m"}


def _emit(line: CheckLine, stream) -> None:
    text = line.line()
    if _use_color(stream):
        text = _COLORS.get(line.status, "") + text + "\x1b[0m"
    print(text, file=stream)


def _status_of(lines: list[CheckLine]) -> int:
    return 1 if any(l.status == "FAIL" for l in lines) else 0


# --- subcommands --------------------------------------------------------


def _cmd_check(args) -> int:
    from .catalog import standard_check_lines

    bundle = load_file(args.census)
    lines = standard_check_lines(bundle)
    if args.hyperplane is not None:
        lines.extend(_hyperplane_lines(bundle, load_file(args.hyperplane)))
    for line in lines:
        _emit(line, sys.stdout)
    failed = sum(1 for l in lines if l.status == "FAIL")
    skipped = sum(1 for l in lines if l.status == "SKIP")
    print(f"{len(lines)} checks, {failed} failed, {skipped} skipped")
    return _status_of(lines)


def _hyperplane_lines(bundle: CensusBundle, slice_bundle: CensusBundle) -> list[CheckLine]:
    from .catalog import SKIPPABLE_ERRORS
    from .polar import hyperplane_step

    lines = []
    for a in bundle.census.special_values:
        if bundle.polar is None:
            lines.append(
                CheckLine.skip("hyperplane_step", f"a={a}", "missing: polar")
            )
            continue
        try:
            report = hyperplane_step(
                bundle.census, bundle.polar, slice_bundle.census, a
            )
        except SKIPPABLE_ERRORS as exc:
            lines.append(CheckLine.skip("hyperplane_step", f"a={a}", str(exc)))
            continue
        lines.append(CheckLine.from_report(report))
    return lines


def _resolved_label(bundle: CensusBundle, label: str) -> str:
    resolved = resolve_value_label(bundle.census, label)
    if resolved != label:
        print(
            f"note: {label!r} is not a declared special value; "
            "using the generic column",
            file=sys.stderr,
        )
    return resolved


def _cmd_compute(args) -> int:
    bundle = load_file(args.census)
    census = bundle.census
    what = args.what
    if what == "eu-table":
        table = solve_bdk(census.base)
        print("local obstruction values (rows: strata, columns: stratum closures)")
        print(table.value_matrix().pretty())
        return 0
    if what == "eu-global":
        table = solve_bdk(census.base)
        print(f"Eu(X) = {global_euler_obstruction(census.base, table)}")
        return 0
    if what == "detect-irregular":
        for label in detect_irregular_values(census):
            print(label)
        return 0
    if args.at is None:
        print(f"error: --what {what} needs --at", file=sys.stderr)
        return 2
    at = _resolved_label(bundle, args.at)
    if what == "brasselet":
        table = solve_bdk(census.base)
        print(f"B({at}) = {brasselet(census, at, eu_weight(census, table))}")
        return 0
    if what == "lambda":
        print(f"lambda({at}) = {lambda_infinity(census, at)}")
        return 0
    if what == "binf":
        table = solve_bdk(census.base)
        print(f"Binf({at}) = {brasselet_infinity(census, at, eu_weight(census, table))}")
        return 0
    raise AssertionError(f"unhandled --what {what!r}")


def _cmd_solve(args) -> int:
    bundle = load_file(args.census)
    alpha = None
    if args.alpha == "eu":
        alpha = eu_weight(bundle.census, solve_bdk(bundle.census.base))
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
        completed = apply_field_to_raw(bundle.raw, result.field, result.value)
        Path(args.emit_completed).write_text(json.dumps(completed, indent=2) + "\n")
        print(f"wrote completed census to {args.emit_completed}")
    return 0


def _cmd_fubini(args) -> int:
    from .euler_calculus import (
        SimplicialConstructibleFunction,
        SimplicialMap,
        check_fubini,
    )
    from .simplicial import complex_from_json, validate

    try:
        text = Path(args.bundle).read_text()
    except OSError as exc:
        raise SchemaError("$", f"cannot read {args.bundle}: {exc}") from exc
    obj = parse_json(text)
    if not isinstance(obj, dict):
        raise SchemaError("$", "expected an object")
    for key in ("complex_src", "complex_dst", "vertex_map", "weights"):
        if key not in obj:
            raise SchemaError(f"$.{key}", "missing")
    src = complex_from_json(obj["complex_src"], "$.complex_src")
    dst = complex_from_json(obj["complex_dst"], "$.complex_dst")
    for c, where in ((src, "$.complex_src"), (dst, "$.complex_dst")):
        try:
            validate(c)
        except CensusError as exc:
            raise SchemaError(where, str(exc)) from exc

    raw_map = obj["vertex_map"]
    if not isinstance(raw_map, dict):
        raise SchemaError("$.vertex_map", "expected an object")
    vertices = src.vertices
    vmap = {}
    for k, tgt in raw_map.items():
        if k in vertices:
            v = k
        else:
            try:
                v = int(k)
            except ValueError:
                raise SchemaError(f"$.vertex_map.{k}", "not a vertex of the source") from None
            if v not in vertices:
                raise SchemaError(f"$.vertex_map.{k}", "not a vertex of the source")
        vmap[v] = tgt

    raw_weights = obj["weights"]
    if not isinstance(raw_weights, list):
        raise SchemaError("$.weights", "expected a list of [simplex, weight] pairs")
    weights = {}
    for i, pair in enumerate(raw_weights):
        where = f"$.weights[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(where, "expected [simplex, weight]")
        simplex_obj = complex_from_json({"simplices": [pair[0]]}, where)
        (simplex,) = simplex_obj.simplices
        if not isinstance(pair[1], int) or isinstance(pair[1], bool):
            raise SchemaError(f"{where}[1]", "weight must be an integer")
        weights[simplex] = pair[1]

    try:
        f = SimplicialMap(src, dst, vmap)
        alpha = SimplicialConstructibleFunction(src, weights)
    except CensusError as exc:
        raise SchemaError("$", str(exc)) from exc
    lhs, rhs = check_fubini(f, alpha)
    print(f"lhs = {lhs}")
    print(f"rhs = {rhs}")
    ok = lhs == rhs
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    from . import catalog

    if args.action == "list":
        for name in catalog.list_entries():
            print(name)
        return 0
    names = args.names or None
    report = catalog.run_all(names)
    for entry in report.entries:
        print(f"== {entry.name} ==")
        for res in entry.expected:
            status = "OK" if res.ok else "FAIL"
            text = res.line()
            if _use_color(sys.stdout):
                text = _COLORS.get(status, "") + text + "\x1b[0m"
            print(text)
        for line in entry.checks:
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
    except CensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
