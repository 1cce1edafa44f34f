"""Per-entry CPU seconds and work counts over the verify-all configs.

    python3 tools/entry_times.py --seed 1 [--entry wkl_interleave ...]

Runs each catalog entry's verify suite (all entries unless --entry names
some) under the eight seeds 8*seed .. 8*seed+7 at 1 sample, horizon 16,
size 4 and fuel 4096, the configurations of the benchmark's verify-all
workload, and prints one line per entry, costliest first: the process CPU
seconds of its suites and what the package's work record `kernel.WORK`
counted in them: `fuel_steps` (a query is one step), `rule_runs`, the
`Coloring.value` calls its memo did not answer, `search_nodes`, the
oracle searches' nodes, and `fuel_stalls`, the `FunctionalTape` sweeps
that ended because a position ran out of fuel.  Time and counts come from
the same run.  Run from the root of a checkout; the package is imported
from its src/.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wred.catalog import ENTRIES  # noqa: E402
from wred.harness import SuiteConfig, run_suite  # noqa: E402
from wred.kernel import WORK  # noqa: E402

SEEDS_PER_RUN = 8


def configs(seed: int) -> list[SuiteConfig]:
    return [SuiteConfig(samples=1, horizon=16, size=4, fuel=4096, seed=s)
            for s in range(seed * SEEDS_PER_RUN, (seed + 1) * SEEDS_PER_RUN)]


def counts() -> tuple[int, int, int, int]:
    return WORK.steps, WORK.rule_runs, WORK.nodes, WORK.stalls


def measure(entry: str, seed: int) -> tuple[float, tuple[int, int, int, int]]:
    """CPU seconds, fuel steps, rule runs, search nodes and fuel stalls of the entry's suites."""
    before, start = counts(), time.process_time()
    for config in configs(seed):
        run_suite(entry, config)
    cpu = time.process_time() - start
    return cpu, tuple(b - a for a, b in zip(before, counts()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--entry", action="append", choices=sorted(ENTRIES),
                        help="an entry to measure (repeatable; default: every entry)")
    args = parser.parse_args(argv)
    rows = [(*measure(e, args.seed), e) for e in args.entry or sorted(ENTRIES)]
    rows.sort(key=lambda r: (-r[0], r[2]))
    rows.append((sum(r[0] for r in rows), [sum(c) for c in zip(*(r[1] for r in rows))], "total"))
    print(f"{'entry':24s} {'cpu_s':>8s} {'fuel_steps':>11s} {'rule_runs':>10s} {'search_nodes':>12s}"
          f" {'fuel_stalls':>11s}")
    for cpu, (steps, runs, nodes, stalls), entry in rows:
        print(f"{entry:24s} {cpu:8.3f} {steps:11d} {runs:10d} {nodes:12d} {stalls:11d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
