"""In-process tracing of strat_euler, done entirely from the benchmark.

The tracer swaps the package's public functions for wrappers wherever a
module holds a reference to them (the defining module and every import
site), so calls between modules and calls inside one module are both seen
and nothing under ``src/`` changes.  Each wrapped call records one span
(name, start, end, parent) in memory; ``StratumPoset.lt`` is called millions
of times per check and only gets a counter.  Layer self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

IDENTITY_NAMES = (
    "prop_brasselet_vs_fiber_eu",
    "bdk_global_1",
    "thm_generic_fiber",
    "cor_constructible",
    "cor_equi",
    "bdk_global_2",
    "bdk_global_3",
    "prop_any_value",
    "cor_generic_vs_any",
    "value_consistency",
)

# per-layer metrics reported by the traced run: name -> (unit, better)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.python_start_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "census_io.load.calls": ("count", "lower"),
    "census_io.load.self_ms": ("ms", "lower"),
    "census_io.bytes": ("bytes", "lower"),
    "strata.poset_build.calls": ("count", "lower"),
    "strata.poset_build.self_ms": ("ms", "lower"),
    "strata.lt.calls": ("count", "lower"),
    "strata.eta.calls": ("count", "lower"),
    "strata.eta.distinct": ("count", "lower"),
    "strata.eta.useful_ratio": ("ratio", "higher"),
    "strata.eta.self_ms": ("ms", "lower"),
    "strata.restrict_to_closure.calls": ("count", "lower"),
    "strata.restrict_to_closure.self_ms": ("ms", "lower"),
    "obstruction.solve_bdk.calls": ("count", "lower"),
    "obstruction.solve_bdk.distinct": ("count", "lower"),
    "obstruction.solve_bdk.useful_ratio": ("ratio", "higher"),
    "obstruction.solve_bdk.self_ms": ("ms", "lower"),
    "obstruction.invert_unitriangular.self_ms": ("ms", "lower"),
    "obstruction.point_formula.calls": ("count", "lower"),
    "obstruction.point_formula.self_ms": ("ms", "lower"),
    **{
        f"fibered.identity.{name}.{stat}": unit
        for name in IDENTITY_NAMES
        for stat, unit in (("calls", ("count", "lower")), ("total_ms", ("ms", "lower")))
    },
    "fibered.restrict_fibered.calls": ("count", "lower"),
    "fibered.solve_unknown.calls": ("count", "lower"),
    "fibered.solve_unknown.total_ms": ("ms", "lower"),
    "polar.calls": ("count", "lower"),
    "polar.total_ms": ("ms", "lower"),
    "catalog.battery.self_ms": ("ms", "lower"),
    "catalog.expected.total_ms": ("ms", "lower"),
    "catalog.rows.ok": ("count", "higher"),
    "catalog.rows.fail": ("count", "lower"),
    "catalog.rows.skip": ("count", "lower"),
    "euler_calculus.fubini.calls": ("count", "lower"),
    "euler_calculus.fubini.total_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _solve_bdk_key(census):
    return census.name, tuple(census.poset.ids())


def _eta_key(census, at, alpha):
    return census.name, at, frozenset((k, v) for k, v in alpha.coeffs.items() if v)


class Tracer:
    """Spans and counters of one traced round.

    ``spans`` holds ``[name, start, end, parent index]`` lists in call order.
    Distinct-input sets are kept per CLI call (``begin_call``), since that
    is the scope a cache inside the program could share work over.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._keys: dict[str, set] = defaultdict(set)
        self.distinct: Counter = Counter()

    def begin_call(self) -> None:
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
        self._keys.clear()

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name, fn, key=None, observe=None):
        """Wrap ``fn`` in a span.  ``name`` may be a function of the call's
        arguments.  A call made directly inside a span of the same name is
        merged into it (load_file calling load_document is one load)."""
        spans, stack, keys = self.spans, self._stack, self._keys
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nm = name(*args, **kwargs) if callable(name) else name
            if stack and spans[stack[-1]][0] == nm:
                return fn(*args, **kwargs)
            if key is not None:
                keys[nm].add(key(*args, **kwargs))
            idx = len(spans)
            span = [nm, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    # --- patching -------------------------------------------------------

    def install(self):
        """Patch the imported strat_euler package; returns an undo function."""
        from strat_euler import catalog, census_io, cli, euler_calculus, fibered
        from strat_euler import obstruction, polar, strata

        def rows(result, *_a, **_k):
            for line in result:
                self.counts[f"catalog.rows.{line.status.lower()}"] += 1

        def file_bytes(_result, path, *_a, **_k):
            self.counts["census_io.bytes"] += Path(path).stat().st_size

        def fixture_bytes(_result, name, *_a, **_k):
            ref = catalog._fixture_dir().joinpath(f"{name}.json")
            self.counts["census_io.bytes"] += len(ref.read_bytes())

        def identity(_census, name, *_a, **_k):
            return f"fibered.identity.{name}"

        functions = [
            (cli.main, self.spanned("cli.main", cli.main)),
            (census_io.load_file, self.spanned("census_io.load", census_io.load_file, observe=file_bytes)),
            (census_io.load_document, self.spanned("census_io.load", census_io.load_document)),
            (catalog.load_entry, self.spanned("census_io.load", catalog.load_entry, observe=fixture_bytes)),
            (strata.eta, self.spanned("strata.eta", strata.eta, key=_eta_key)),
            (strata.restrict_to_closure, self.spanned("strata.restrict_to_closure", strata.restrict_to_closure)),
            (obstruction.solve_bdk, self.spanned("obstruction.solve_bdk", obstruction.solve_bdk, key=_solve_bdk_key)),
            (obstruction.invert_unitriangular, self.spanned("obstruction.invert_unitriangular", obstruction.invert_unitriangular)),
            (obstruction.check_bdk_point_formula, self.spanned("obstruction.point_formula", obstruction.check_bdk_point_formula)),
            (fibered.check_identity, self.spanned(identity, fibered.check_identity)),
            (fibered.restrict_fibered, self.spanned("fibered.restrict_fibered", fibered.restrict_fibered)),
            (fibered.solve_unknown, self.spanned("fibered.solve_unknown", fibered.solve_unknown)),
            (catalog.standard_check_lines, self.spanned("catalog.battery", catalog.standard_check_lines, observe=rows)),
            (catalog.evaluate_expected_key, self.spanned("catalog.expected", catalog.evaluate_expected_key)),
            (euler_calculus.check_fubini, self.spanned("euler_calculus.fubini", euler_calculus.check_fubini)),
        ]
        functions += [
            (fn, self.spanned("polar", fn))
            for fn in (polar.brasselet_from_polar, polar.infinity_from_polar, polar.stv_global_eu, polar.hyperplane_step)
        ]
        by_id = {id(orig): wrapped for orig, wrapped in functions}
        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != "strat_euler" and not modname.startswith("strat_euler."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    undo.append((module, attr, value))
                    setattr(module, attr, by_id[id(value)])
        poset = strata.StratumPoset
        for attr, wrapped in (
            ("lt", self.counted("strata.lt.calls", poset.lt)),
            ("__post_init__", self.spanned("strata.poset_build", poset.__post_init__)),
        ):
            undo.append((poset, attr, vars(poset)[attr]))
            setattr(poset, attr, wrapped)

        def restore():
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

        return restore

    # --- results ----------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Per-layer counts and times of everything recorded so far."""
        self.begin_call()
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        ms = 1000.0
        out = {
            "cli.main.self_ms": own["cli.main"] * ms,
            "census_io.load.calls": calls["census_io.load"],
            "census_io.load.self_ms": own["census_io.load"] * ms,
            "census_io.bytes": self.counts["census_io.bytes"],
            "strata.poset_build.calls": calls["strata.poset_build"],
            "strata.poset_build.self_ms": own["strata.poset_build"] * ms,
            "strata.lt.calls": self.counts["strata.lt.calls"],
            "strata.restrict_to_closure.calls": calls["strata.restrict_to_closure"],
            "strata.restrict_to_closure.self_ms": own["strata.restrict_to_closure"] * ms,
            "obstruction.invert_unitriangular.self_ms": own["obstruction.invert_unitriangular"] * ms,
            "obstruction.point_formula.calls": calls["obstruction.point_formula"],
            "obstruction.point_formula.self_ms": own["obstruction.point_formula"] * ms,
            "fibered.restrict_fibered.calls": calls["fibered.restrict_fibered"],
            "fibered.solve_unknown.calls": calls["fibered.solve_unknown"],
            "fibered.solve_unknown.total_ms": total["fibered.solve_unknown"] * ms,
            "polar.calls": calls["polar"],
            "polar.total_ms": total["polar"] * ms,
            "catalog.battery.self_ms": own["catalog.battery"] * ms,
            "catalog.expected.total_ms": total["catalog.expected"] * ms,
            "euler_calculus.fubini.calls": calls["euler_calculus.fubini"],
            "euler_calculus.fubini.total_ms": total["euler_calculus.fubini"] * ms,
        }
        for status in ("ok", "fail", "skip"):
            out[f"catalog.rows.{status}"] = self.counts[f"catalog.rows.{status}"]
        for layer in ("strata.eta", "obstruction.solve_bdk"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.distinct"] = self.distinct[layer]
            out[f"{layer}.useful_ratio"] = self.distinct[layer] / calls[layer] if calls[layer] else 0.0
            out[f"{layer}.self_ms"] = own[layer] * ms
        for name in IDENTITY_NAMES:
            span = f"fibered.identity.{name}"
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.total_ms"] = total[span] * ms
        return out

    def write(self, path: Path) -> None:
        """Write the spans, times relative to the first span, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start_us": (s - t0) * 1e6, "end_us": (e - t0) * 1e6, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"counters": dict(self.counts), "spans": rows}) + "\n")
