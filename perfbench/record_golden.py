#!/usr/bin/env python3
"""Record the expected exit code and stdout SHA-256 of every benchmark call.

    python3 perfbench/record_golden.py --seeds 0-99

Runs each workload's calls in-process for every seed in the range, checks
each output as the benchmark does, and writes perfbench/golden.json, keyed
by the content address of the call (see ``run.call_key``).  The benchmark
compares every timed call against these digests; inputs not recorded here
are compared against an in-process run of the code being measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import gen
import run


def write(seeds: str, digests: dict[str, list]) -> None:
    """golden.json with one line per call, so a re-recording diffs cleanly."""
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items()))
    run.GOLDEN.write_text(f'{{\n "seeds": {json.dumps(seeds)},\n "digests": {{\n{rows}\n }}\n}}\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(prefix="golden-", dir=run.OUT_DIR))
    digests = {}
    try:
        for workload in gen.WORKLOADS:
            for seed in seeds:
                bench = run.Bench(workload, seed, workdir)
                bench.write_inputs()
                for call in bench.calls:
                    rc, out, err, _dt = bench.run_inprocess(call)
                    bench.expected[call] = (rc, run.sha256(out))
                    problems = bench.verify(call, rc, out, err)
                    if problems:
                        print(f"{workload} seed {seed}: {call.label}: {'; '.join(problems)}", file=sys.stderr)
                        return 1
                    digests[run.call_key(call, bench.files)] = [rc, run.sha256(out)]
            print(f"{workload}: seeds {args.seeds} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write(args.seeds, digests)
    print(f"{len(digests)} digests written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
