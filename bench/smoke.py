"""Smoke test of the benchmark: every workload at the tiny size.

    python3 bench/smoke.py

For each workload it makes one untraced run and two traced runs with the
same seed, and fails unless every run exits 0 with a correct result, the
runs print exactly the metrics that BENCHMARK.json names, and the two
traced runs agree on the deterministic work counters and the output
digest.  It takes about a minute, so a change that breaks the harness
shows long before a full benchmark run would.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def bench_run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}"
                         f"\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        runs = [bench_run(workload, trace) for trace in (0, 1, 1)]
        for trace, (info, result) in zip((0, 1, 1), runs):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: trace {trace} run failed: {info['errors']}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{workload}: trace {trace} metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ wanted[trace])}")
        (first, _), (second, _) = runs[1], runs[2]
        if first["counters"] != second["counters"]:
            problems.append(f"{workload}: counters differ between runs with one seed: "
                            f"{first['counters']} vs {second['counters']}")
        if not runs[0][0]["digest"] == first["digest"] == second["digest"]:
            problems.append(f"{workload}: output digests differ between runs with one seed")
        print(f"{workload}: " + ("ok" if len(problems) == before else "FAILED"), flush=True)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
