"""Record the benchmark of one or more checkouts as BENCH_<short-commit>.json.

    python3 tools/bench_record.py --seeds 1001-1010 --seconds 40 [CHECKOUT ...]

For every workload that BENCHMARK.json names, runs the checkout's own
`bench/run.py` untraced once per seed (`--trace 0`), then three times
traced (`--trace 1`) at seed 3, and writes one JSON file per checkout into
--out: the environment, the per-seed end-to-end metrics and output
digests, the median and quartiles of `pass_s`, the traced runs' work
counters, and each per-layer metric's median over the traced runs with
its range.  With several checkouts the runs interleave: for each seed (or
traced round) and workload every checkout runs once, and the order
alternates from one to the next, so a pair of checkouts gives one
alternating pair per seed.  A checkout is a clone of the repository at the
commit to measure (default: this one); `bench/run.py` reads its commit
from its `.git`.
Exits 1 if any run fails its checks, or if the traced runs of a checkout
count different work; the files are written either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "wred-bench-record/2"
TRACE_SEED = 3
TRACED_RUNS = 3  # a single traced run's layer times swing with the machine


def seed_list(text: str) -> list[int]:
    """'1001-1003,7' -> [1001, 1002, 1003, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
              size: str) -> tuple[dict, dict]:
    """One `bench/run.py` run: its {"run": ...} info and its result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=3600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def record(runs: list[tuple[dict, dict]], traced: list[tuple[dict, dict]]) -> dict:
    """One workload's record from its untraced runs and its traced runs."""
    info = traced[0][0]
    layers: dict = {}
    for _, result in traced:
        for name, value in values(result).items():
            layers.setdefault(name, []).append(value)
    out = {
        "runs": [{"seed": i["seed"], "correct": r["correct"], "digest": i["digest"],
                  "passes": i.get("passes"), "metrics": values(r), "errors": i["errors"]}
                 for i, r in runs],
        "traced": {"seed": info["seed"], "runs": len(traced),
                   "correct": all(r["correct"] for _, r in traced), "digest": info["digest"],
                   "counters": info.get("counters", {}),
                   "metrics": {name: statistics.median(v) for name, v in layers.items()},
                   "range": {name: [min(v), max(v)] for name, v in layers.items()},
                   "errors": [e for i, _ in traced for e in i["errors"]]},
    }
    got = [r["metrics"]["pass_s"] for r in out["runs"] if r["metrics"]]  # empty on a failed run
    if got:
        out["pass_s"] = spread(got)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="*", default=[str(ROOT)],
                        help="clones of the repository to measure")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1001-1005"))
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--out", type=Path, default=ROOT / "records")
    args = parser.parse_args(argv)

    checkouts = [Path(path).resolve() for path in args.checkouts]
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs: dict = {(c, w, t): [] for c in checkouts for w in workloads for t in (0, 1)}
    rounds = [(seed, 0) for seed in args.seeds] + [(TRACE_SEED, 1)] * TRACED_RUNS
    for k, (seed, trace) in enumerate(rounds):
        for workload in workloads:
            for path in checkouts[::-1] if k % 2 else checkouts:
                runs[path, workload, trace].append(
                    bench_run(path, workload, seed, args.seconds, trace, args.size))

    args.out.mkdir(parents=True, exist_ok=True)
    failed = False
    for path in checkouts:
        recs = {}
        for workload in workloads:
            traced = runs[path, workload, 1]
            recs[workload] = rec = record(runs[path, workload, 0], traced)
            failed |= not rec["traced"]["correct"] or not all(r["correct"] for r in rec["runs"])
            failed |= any(i.get("counters") != traced[0][0].get("counters") for i, _ in traced)
        info = traced[0][0]
        doc = {"schema": SCHEMA, "commit": info["commit"],
               "env": {key: info[key] for key in ("python", "nproc", "platform")},
               "settings": {"seeds": args.seeds, "seconds": args.seconds, "size": args.size,
                            "trace_seed": TRACE_SEED, "traced_runs": TRACED_RUNS},
               "workloads": recs}
        target = args.out / f"BENCH_{doc['commit'][:7]}.json"
        target.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(target)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
