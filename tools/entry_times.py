"""Per-entry CPU seconds and oracle query counts over the verify-all configs.

    python3 tools/entry_times.py --seed 1 [--entry wkl_interleave ...]

Runs each catalog entry's verify suite (all entries unless --entry names
some) under the eight seeds 8*seed .. 8*seed+7 at 1 sample, horizon 16,
size 4 and fuel 4096, the configurations of the benchmark's verify-all
workload, and prints one line per entry, costliest first: the process
CPU seconds of its suites, how many times `EvalContext.query` and
`Coloring.value` ran in them, `rule_runs`, the value calls whose
tuple that coloring had not yet memoized (the rest are answered from its
memo), and `fuel_stalls`, the `FunctionalTape` sweeps that ended because
a position ran out of fuel.  The time comes from a plain run and the
counts from a second run with the three methods wrapped, so the counting
does not inflate the time.  Run from the root of a checkout; the package
is imported from its src/.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wred import kernel, problems  # noqa: E402
from wred.catalog import ENTRIES  # noqa: E402
from wred.harness import SuiteConfig, run_suite  # noqa: E402

SEEDS_PER_RUN = 8


def configs(seed: int) -> list[SuiteConfig]:
    return [SuiteConfig(samples=1, horizon=16, size=4, fuel=4096, seed=s)
            for s in range(seed * SEEDS_PER_RUN, (seed + 1) * SEEDS_PER_RUN)]


def cpu_seconds(entry: str, seed: int) -> float:
    start = time.process_time()
    for config in configs(seed):
        run_suite(entry, config)
    return time.process_time() - start


def call_counts(entry: str, seed: int) -> tuple[int, int, int, int]:
    """Query calls, value calls, rule runs and fuel stalls in the entry's suites."""
    counts = [0, 0, 0, 0]
    plain_query, plain_value = kernel.EvalContext.query, problems.Coloring.value
    plain_bit = kernel.FunctionalTape.bit

    def query(self, *args):
        counts[0] += 1
        return plain_query(self, *args)

    def value(self, xs):
        xs = xs if type(xs) is tuple else tuple(xs)
        counts[1] += 1
        counts[2] += xs not in self.memo
        return plain_value(self, xs)

    def bit(self, pos):
        live = self._stalled is None  # a stall is terminal: count the read that ends the sweep
        try:
            return plain_bit(self, pos)
        finally:
            counts[3] += live and self._stalled == "fuel"

    kernel.EvalContext.query, problems.Coloring.value = query, value
    kernel.FunctionalTape.bit = bit
    try:
        for config in configs(seed):
            run_suite(entry, config)
    finally:
        kernel.EvalContext.query, problems.Coloring.value = plain_query, plain_value
        kernel.FunctionalTape.bit = plain_bit
    return tuple(counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--entry", action="append", choices=sorted(ENTRIES),
                        help="an entry to measure (repeatable; default: every entry)")
    args = parser.parse_args(argv)
    rows = [(cpu_seconds(e, args.seed), call_counts(e, args.seed), e)
            for e in args.entry or sorted(ENTRIES)]
    rows.sort(key=lambda r: (-r[0], r[2]))
    rows.append((sum(r[0] for r in rows), [sum(c) for c in zip(*(r[1] for r in rows))], "total"))
    print(f"{'entry':24s} {'cpu_s':>8s} {'queries':>10s} {'coloring_value':>14s} {'rule_runs':>10s}"
          f" {'fuel_stalls':>11s}")
    for cpu, (queries, values, runs, stalls), entry in rows:
        print(f"{entry:24s} {cpu:8.3f} {queries:10d} {values:14d} {runs:10d} {stalls:11d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
