#!/usr/bin/env python3
"""Benchmark of the strat-euler command line, end to end and per layer.

    python3 perfbench/run.py --workload wide-check --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  The workloads and the metrics are
described in perfbench/README.md.

With ``--trace 0`` every call is a real CLI subprocess in a closed loop with
one client, and the end-to-end metrics are printed, their times scaled to
a reference CPU speed (see launcher.py).  With ``--trace 1`` the
same calls run in-process through ``strat_euler.cli.main``, alternating
untraced and traced rounds, and the per-layer metrics are printed.  Either
way every call's output is verified, and the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A non-zero exit code, without a result line, means the
benchmark could not run at all (no package source, bad arguments, a failed
warm-up call).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gen
from launcher import calibration_s, scaled
from tracing import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).with_name("golden.json")
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
FRESH_INTERPRETERS = 7
STRUCTURAL_ROWS = ("bdk_global_1", "bdk_global_2", "bdk_global_3", "bdk_point_formula")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class Launcher:
    """The lean process that starts the CLI calls (see launcher.py)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def ask(self, request):
        pickle.dump(request, self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call_key(call: gen.Call, files: dict[str, bytes]) -> str:
    """Content address of a call: its argv with every input file replaced by
    a hash of the file's bytes, so golden digests follow the inputs."""
    return " ".join(
        f"{a}@{sha256(files[a])[:16]}" if a in call.inputs else a for a in call.argv
    )


def load_golden() -> dict[str, list]:
    return json.loads(GOLDEN.read_text())["digests"]


class Bench:
    """One workload at one seed: its files, its calls and their checks."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import strat_euler
        from strat_euler import census_io, cli, fibered

        if Path(strat_euler.__file__).resolve().parent != (SRC / "strat_euler").resolve():
            raise SystemExit(f"perfbench: strat_euler imported from {strat_euler.__file__}, not {SRC}")
        self.census_io, self.cli, self.fibered = census_io, cli, fibered
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.fixtures = SRC / "strat_euler" / "fixtures"
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "STRAT_EULER_COLOR": "0"}
        self.files: dict[str, bytes] = {}
        self.calls: list[gen.Call] = []
        self.expected: dict[gen.Call, tuple[int, str]] = {}
        self._semantic: dict[tuple, list[str]] = {}
        self._launcher: Launcher | None = None

    # --- set-up -------------------------------------------------------------

    def setup_once(self) -> None:
        """Generate and write the inputs, load every census through
        load_document, and warm the interpreter and page cache with one CLI
        call."""
        self.write_inputs()
        for call in self.calls:
            if call.kind != "fubini":
                for name in call.inputs:
                    self.census_io.load_document(json.loads(self.files[name]))
        rc, _out, err, _wall, _scaled = self.run_subprocess(("catalog", "list"))
        if rc != 0:
            raise SystemExit(f"perfbench: warm-up call failed with exit code {rc}:\n{err}")

    def write_inputs(self) -> None:
        self.files, self.calls = gen.build(self.workload, self.seed, self.fixtures)
        for name, data in self.files.items():
            (self.workdir / name).write_bytes(data)

    def argv(self, call: gen.Call) -> list[str]:
        return [str(self.workdir / a) if a in call.inputs else a for a in call.argv]

    def resolve_expected(self, golden: dict[str, list]) -> int:
        """Expected exit code and stdout digest per call: the digests
        recorded in golden.json, or, for inputs not recorded there, one
        untraced in-process run.  Returns how many calls needed that run."""
        missing = []
        for call in self.calls:
            hit = golden.get(call_key(call, self.files))
            if hit is None:
                missing.append(call)
            else:
                self.expected[call] = tuple(hit)
        for call in missing:
            rc, out, _err, _dt = self.run_inprocess(call)
            self.expected[call] = (rc, sha256(out))
        return len(missing)

    # --- running one call ------------------------------------------------

    def run_subprocess(self, argv) -> tuple[int | None, bytes, str, float, float]:
        """launcher.run_cli, run by the launcher process."""
        if self._launcher is None:
            self._launcher = Launcher()
        return self._launcher.ask((list(argv), self.env, str(self.workdir)))

    def peak_rss_mb(self) -> float:
        return self._launcher.ask("rss")

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.close()
            self._launcher = None

    def run_inprocess(self, call: gen.Call) -> tuple[int | None, bytes, str, float]:
        """Like run_subprocess, through cli.main (traced when the tracer is
        installed); exit code None on an uncaught exception."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(self.argv(call))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = None
        dt = time.perf_counter() - t0
        return rc, out.getvalue().encode(), err.getvalue(), dt

    # --- verification ----------------------------------------------------

    def verify(self, call: gen.Call, rc, out: bytes, err: str) -> list[str]:
        """Every reason this call's output is wrong; empty when it is right."""
        if rc is None:
            return ["no exit code: timed out or raised"]
        problems = []
        want_rc, want_digest = self.expected[call]
        if rc != want_rc:
            problems.append(f"exit code {rc}, expected {want_rc}")
        digest = sha256(out)
        if digest != want_digest:
            problems.append(f"stdout digest {digest[:12]}, expected {want_digest[:12]}")
        if "Traceback" in err:
            problems.append("traceback on stderr")
        memo = (call, digest)
        if memo not in self._semantic:
            self._semantic[memo] = self.semantic_problems(call, out.decode(errors="replace"))
        return problems + self._semantic[memo]

    def semantic_problems(self, call: gen.Call, text: str) -> list[str]:
        lines = text.splitlines()
        if call.kind == "check":
            rows = [l for l in lines if l.split(" ", 1)[0].rstrip(":") in STRUCTURAL_ROWS]
            bad = [l for l in rows if not l.endswith(" OK")]
            if not rows:
                return ["no structural rows"]
            return [f"structural row not OK: {l}" for l in bad]
        if call.kind == "catalog-run":
            n = call.info["entries"]
            if not lines or lines[-1] != f"{n}/{n} catalog entries verified":
                return ["catalog run did not verify every entry"]
        if call.kind == "catalog-list" and lines != call.info["entries"]:
            return ["catalog list does not name every fixture"]
        if call.kind == "fubini":
            v = call.info["integral"]
            if lines != [f"lhs = {v}", f"rhs = {v}", "OK"]:
                return [f"fubini output is not lhs = rhs = {v}, OK"]
        if call.kind == "solve":
            return self.solve_problems(call, lines)
        return []

    def solve_problems(self, call: gen.Call, lines: list[str]) -> list[str]:
        """The solved value, written into the census, makes the identity hold."""
        field = call.info["field"]
        head, _, value = (lines[0] if lines else "").partition(" = ")
        if head != field or not value.lstrip("-").isdigit():
            return [f"solve printed {lines[:1]!r}, not '{field} = <integer>'"]
        raw = json.loads(self.files[call.inputs[0]])
        completed = self.census_io.apply_field_to_raw(raw, field, int(value))
        census = self.census_io.load_document(completed).census
        report = self.fibered.check_identity(census, call.info["identity"])
        return [] if report.ok else [f"{call.info['identity']} fails after solving {field}"]

    # --- the two modes ------------------------------------------------

    def measure_cli(self, seconds: float) -> tuple[list[float], list[float], int]:
        """Whole rounds of subprocess calls, one client, closed loop; stops
        before a round that would end past ``seconds``.  Returns every
        call's wall time, the same scaled to the reference speed, and the
        number of failed calls."""
        walls, latencies, failed = [], [], 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for call in self.calls:
                rc, out, err, wall, latency = self.run_subprocess(self.argv(call))
                walls.append(wall)
                latencies.append(latency)
                failed += self.report(call, self.verify(call, rc, out, err))
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                return walls, latencies, failed

    def inprocess_round(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """One round through cli.main: seconds spent in the calls, failures."""
        elapsed, failed = 0.0, 0
        for call in self.calls:
            if tracer is not None:
                tracer.begin_call()
            rc, out, err, dt = self.run_inprocess(call)
            elapsed += dt
            failed += self.report(call, self.verify(call, rc, out, err))
        return elapsed, failed

    def measure_layers(self, seconds: float) -> tuple[dict[str, float], int, int, Tracer]:
        """Alternate untraced and traced in-process rounds until ``seconds``
        is used.  Per-layer values are per round: counters must repeat
        exactly, times are the median over traced rounds."""
        plain, traced, per_round, failed = [], [], [], 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            elapsed, bad = self.inprocess_round()
            plain.append(elapsed)
            failed += bad
            tracer = Tracer()
            restore = tracer.install()
            try:
                elapsed, bad = self.inprocess_round(tracer)
            finally:
                restore()
            traced.append(elapsed)
            failed += bad
            per_round.append(tracer.layer_values())
            counts = [{k: v for k, v in r.items() if not k.endswith("_ms")} for r in per_round[-2:]]
            if counts[0] != counts[-1]:
                raise SystemExit("perfbench: traced counters differ between identical rounds")
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        metrics = {
            k: statistics.median(r[k] for r in per_round) if k.endswith("_ms") else v
            for k, v in per_round[-1].items()
        }
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        attempted = 2 * len(per_round) * len(self.calls)
        return metrics, attempted, failed, tracer

    def fresh_interpreter_ms(self) -> tuple[float, float]:
        """Median wall time of a bare interpreter, and what importing
        strat_euler.cli adds to it, over alternating fresh processes."""
        bare, imported = [], []
        for _ in range(FRESH_INTERPRETERS):
            for code, into in (("pass", bare), ("import strat_euler.cli", imported)):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir, check=True)
                into.append((time.perf_counter() - t0) * 1000.0)
        start = statistics.median(bare)
        return start, statistics.median(imported) - start

    def report(self, call: gen.Call, problems: list[str]) -> int:
        if problems:
            print(f"FAILED {call.label}: {'; '.join(problems)}", file=sys.stderr)
        return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="strat-euler benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strat_euler" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'strat_euler'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the launcher and the CLI calls inherit this; see launcher.py
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    bench = None
    try:
        bench = Bench(args.workload, args.seed, workdir)
        setups, setup_walls = [], []
        for _ in range(SETUP_REPEATS):
            kernel = [calibration_s() for _ in range(3)]
            t0 = time.perf_counter()
            bench.setup_once()
            setup_walls.append(time.perf_counter() - t0)
            kernel += [calibration_s() for _ in range(3)]
            setups.append(scaled(setup_walls[-1], kernel))
        references = bench.resolve_expected(load_golden())
        sizes = {name: len(data) for name, data in bench.files.items()}
        print(f"workload {args.workload}, seed {args.seed}: {len(bench.calls)} calls per round, "
              f"{len(sizes)} input files, {sum(sizes.values())} bytes")
        print(f"expected outputs: {len(bench.calls) - references} from golden.json, "
              f"{references} from an in-process reference run")

        if args.trace == 0:
            walls, latencies, failed = bench.measure_cli(args.seconds)
            attempted = len(latencies)
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
            metrics = {
                "setup_s": statistics.median(setups),
                "latency_p50_ms": statistics.median(latencies) * 1000.0,
                "latency_p90_ms": p90 * 1000.0,
                "ops_per_s": len(latencies) / sum(latencies),
                "ok_frac": (attempted - failed) / attempted,
                "peak_rss_mb": bench.peak_rss_mb(),
            }
            units = END_TO_END
            raw_p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
            print(f"samples {len(latencies)} calls in {len(latencies) // len(bench.calls)} rounds; "
                  f"failed_frac = {failed / attempted}")
            print(f"unscaled wall times: setup {statistics.median(setup_walls)} s, "
                  f"p50 {statistics.median(walls) * 1000.0} ms, p90 {raw_p90 * 1000.0} ms, "
                  f"{len(walls) / sum(walls)} calls/s")
        else:
            metrics, attempted, failed, tracer = bench.measure_layers(args.seconds)
            metrics["cli.python_start_ms"], metrics["cli.import_ms"] = bench.fresh_interpreter_ms()
            units = {name: unit for name, (unit, _better) in LAYER_METRICS.items()}
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
            print(f"spans of the last traced round: {trace_file.relative_to(ROOT)}")
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
