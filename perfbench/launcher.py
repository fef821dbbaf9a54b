"""Runs the benchmark's CLI calls from a small separate process.

A child's max-RSS includes the memory of the process that spawned it (the
kernel keeps the high-water mark across exec), and the harness holds the
package and every input.  Spawned from this process, started with
``python -S`` and importing little, the max-RSS of a CLI call is the CLI's
own.

Protocol on stdin/stdout: a pickled ``(argv, env, cwd)`` request is answered
with the pickled result of ``run_cli``; the request ``"rss"`` with the
largest max-RSS of the CLI calls so far, in MB.  End of input stops it.

This module also holds the calibration kernel.  The host this benchmark was
built on runs the same CPU work up to 1.8x slower for seconds to minutes at
a time, differently on each CPU.  So the harness, this process and the CLI
calls share one CPU, the kernel is timed on it before, during (every
POLL_S) and after each timed interval, and wall times are scaled by
CAL_REF_S / (mean kernel time): they read as wall times at the speed where
the kernel takes CAL_REF_S, the fast end of what that host showed.
"""

import pickle
import resource
import subprocess
import sys
import time

CALL_TIMEOUT_S = 60.0
POLL_S = 0.1
CAL_LOOPS = 2000
CAL_REF_S = 0.0005


def calibration_s() -> float:
    """Seconds the fixed calibration kernel takes right now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(CAL_LOOPS):
        table[(i, i + 1)] = i
    total = 0
    for i in range(CAL_LOOPS):
        total += table[(i, i + 1)]
    return time.perf_counter() - t0


def scaled(wall: float, kernel_times: list) -> float:
    """A wall time scaled to the reference speed (see CAL_REF_S)."""
    return wall * CAL_REF_S * len(kernel_times) / sum(kernel_times)


def run_cli(argv, env: dict, cwd: str):
    """One ``python -m strat_euler`` call: exit code (None on timeout),
    stdout, stderr, wall seconds and wall seconds scaled to the reference
    speed.  The kernel runs 3 times before and after the call and once per
    POLL_S during it; the child is paused meanwhile (same CPU), so that
    kernel time is taken off the call's wall time."""
    kernel = [calibration_s() for _ in range(3)]
    paused = 0.0
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "strat_euler", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )
    while True:
        try:
            out, err = proc.communicate(timeout=POLL_S)
            rc = proc.returncode
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - t0 > CALL_TIMEOUT_S:
                proc.kill()
                out, err = proc.communicate()
                rc = None
                break
            kernel.append(calibration_s())
            paused += kernel[-1]
    wall = time.perf_counter() - t0 - paused
    kernel += [calibration_s() for _ in range(3)]
    return rc, out, err.decode(errors="replace"), wall, scaled(wall, kernel)


def main() -> None:
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            request = pickle.load(stdin)
        except EOFError:
            return
        if request == "rss":
            answer = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        else:
            answer = run_cli(*request)
        pickle.dump(answer, stdout)
        stdout.flush()


if __name__ == "__main__":
    main()
