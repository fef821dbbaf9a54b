#!/usr/bin/env python3
"""Randomized stress test of the pushforward Fubini identity.

Generates random simplicial maps with random integer weights and checks
that integrating the pushforward over the target equals integrating the
original function over the source.  Both sides are exact integers, so any
disagreement at all is a bug; the script stops at the first one and prints
enough to reproduce it.
"""

import argparse
import sys
import time
import random

from strat_euler import check_fubini, random_weighted_map


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500, help="maps to test")
    parser.add_argument("--seed", type=int, default=164201)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--max-generators", type=int, default=4)
    parser.add_argument(
        "--target-pool", type=int, default=4, help="size of the target vertex pool"
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    started = time.perf_counter()
    for index in range(args.count):
        fmap, weights = random_weighted_map(
            rng, args.max_vertices, args.max_generators, args.target_pool
        )
        lhs, rhs = check_fubini(fmap, weights)
        if lhs != rhs:
            print(f"MISMATCH at map {index} (seed {args.seed}): LHS={lhs} RHS={rhs}")
            print(f"  vertex_map = {fmap.vertex_map}")
            print(f"  source simplices = {sorted(s.vertices for s in fmap.source.simplices)}")
            entries = sorted(weights.items(), key=lambda kv: kv[0].vertices)
            print(f"  weights = {{ {', '.join(f'{s.vertices}: {w}' for s, w in entries)} }}")
            return 1
    elapsed = time.perf_counter() - started
    print(f"{args.count} random maps checked, all exact ({elapsed:.2f}s, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
