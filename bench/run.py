"""The wred benchmark: workloads timed end to end and traced by layer.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its src/.
A workload is a fixed list of units (a catalog entry's suite, a squash
job, an adversary run) built from the seed; one pass runs every unit once.
With --trace 0 the run repeats passes for about --seconds and prints the
end-to-end metrics, with times in reference seconds (see refclock.py);
with --trace 1 it runs one untraced and one traced pass and prints the
per-layer metrics.  Every unit checks its outputs; a
run whose checks fail prints no metrics and exits 1.  The last line of
standard output is the result as one JSON object; the line before it
records the environment, the output digest and the wall pass times.
See bench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

SETUP_PROBES = 15  # fresh processes timed for setup_s, after one untimed warm-up
MIN_PASSES = 2  # the cross-pass checks need a second pass

DFS_CONFIGS = ("projection-toy", "trivial-q-rt12")
QWWKL_PINNED_STAGES = 64
QWWKL_LOG_DIGEST = "2589f3fe395635b2eeef8a6142ad4e1852275b0233fcb4af3d6de646d51c25d8"
LONG_QWWKL_BACKWARDS = ("zero", "echo", "echo-shift")

# Per-pass sizes.  "full" is what the benchmark measures; "tiny" is the
# smoke test's size and the untimed warm-up pass before the timed ones.
SIZES = {
    "full": {"verify_seeds": 8, "verify_samples": 1, "marker_stages": 50, "forward_horizon": 44,
             "dfs_stages": 30, "long_stages": 160, "ts1_stages": 256, "delta2_stages": 128},
    "tiny": {"verify_seeds": 1, "verify_samples": 1, "marker_stages": 14, "forward_horizon": 8,
             "dfs_stages": 8, "long_stages": 16, "ts1_stages": 16, "delta2_stages": 16},
}


@dataclass
class Outcome:
    """What one unit, or one pass, did and whether its outputs held."""

    attempted: int = 0  # report rows, squash jobs or adversary runs
    failed: int = 0
    decided: int = 0  # operations that reached a definite verdict
    work: int = 0  # throughput units: rows (verify) or stages (squash, adversaries)
    digest: str = ""  # of the unit's output; equal on every pass of a run
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> "Outcome":
        self.failed += 1
        self.errors.append(message)
        return self

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.decided += other.decided
        self.work += other.work
        self.digest = _sha256(self.digest + other.digest)
        self.errors += other.errors


Unit = Callable[[], Outcome]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: each builds its units from (seed, size); every unit checks itself


def _suite_unit(entry: str, config) -> Outcome:
    """One entry's verify suite: zero fail/error rows; digest of its CSV."""
    from wred.harness import run_suite

    report = run_suite(entry, config)
    counts = report.counts()
    bad = [r for r in report.rows if r.status in ("fail", "error")]
    out = Outcome(attempted=len(report.rows), work=len(report.rows), failed=len(bad),
                  decided=counts.get("pass", 0) + counts.get("fail", 0),
                  digest=_sha256(report.to_csv()))
    if bad:
        out.errors.append(f"{entry}: {len(bad)} fail/error rows, first: "
                          f"{bad[0].case_id}/{bad[0].check}: {bad[0].detail}")
    return out


def verify_all(seed: int, size: dict) -> list[Unit]:
    from wred.catalog import ENTRIES
    from wred.harness import SuiteConfig

    # An entry's cost depends on its seed more than on its sample count, so a
    # pass runs the suite under several seeds derived from `seed`.
    n = size["verify_seeds"]
    configs = [SuiteConfig(samples=size["verify_samples"], horizon=16, size=4, fuel=4096, seed=s)
               for s in range(seed * n, seed * n + n)]
    # `wred verify all` runs the entries in this order, each from random.Random(seed)
    return [lambda entry=entry, config=config: _suite_unit(entry, config)
            for config in configs for entry in sorted(ENTRIES)]


def squash_adversaries(seed: int, size: dict) -> list[Unit]:
    return _squash_units(seed, size) + _adversary_units(seed, size)


def _squash_units(seed: int, size: dict) -> list[Unit]:
    from wred import ContractError, Point, ResourceError
    from wred.catalog import SQUASH_CONFIGS
    from wred.combinators import squash_forward, squash_markers

    stages, horizon, dfs_stages = size["marker_stages"], size["forward_horizon"], size["dfs_stages"]
    closure: dict[str, list[int]] = {}  # filled by the closure units, read by the DFS units

    def closure_job(name: str) -> Outcome:
        out = Outcome(attempted=1)
        try:
            cfg = SQUASH_CONFIGS[name]()
            markers = squash_markers(cfg, stages)
            # raises ContractError unless B_i = Phi(A_i, B_{i+1}) holds exactly
            squash_forward(cfg, markers, Point.from_seed(seed), horizon, count=4)
        except (ContractError, ResourceError) as e:
            return out.fail(f"{name} closure engine: {type(e).__name__}: {e}")
        m = markers.markers
        if len(m) != stages + 1 or any(m[s + 1] <= s for s in range(stages)):
            return out.fail(f"{name}: markers break m_(s+1) > s: {m}")
        if closure.setdefault(name, m) != m:
            return out.fail(f"{name}: markers on a rebuilt config differ: {m}")
        out.decided, out.work, out.digest = 1, stages, _sha256(repr(m))
        return out

    def dfs_job(name: str) -> Outcome:
        out = Outcome(attempted=1)
        try:
            cfg = SQUASH_CONFIGS[name]()
            cfg.witness.forward.reads = None  # no read map: squash_markers uses the DFS engine
            m = squash_markers(cfg, dfs_stages).markers
        except (ContractError, ResourceError) as e:
            return out.fail(f"{name} DFS engine: {type(e).__name__}: {e}")
        if name not in closure:
            return out.fail(f"{name}: no closure-engine markers to compare the DFS engine's with")
        if m != closure[name][:dfs_stages + 1]:
            return out.fail(f"{name}: DFS markers {m} differ from the closure engine's")
        out.decided, out.work, out.digest = 1, dfs_stages, _sha256(repr(m))
        return out

    return ([lambda name=name: closure_job(name) for name in sorted(SQUASH_CONFIGS)]
            + [lambda name=name: dfs_job(name) for name in DFS_CONFIGS])


def _adversary_units(seed: int, size: dict) -> list[Unit]:
    from wred import ContractError, InputError, ResourceError
    from wred.adversaries import (
        check_defeats,
        cm_coloring,
        delta2_diagonalizer,
        qwwkl_cutter,
        rainbow_measure_coloring,
        rrt_column_splitter,
        ts1_diagonalizer,
    )
    from wred.cli import TOY_BACKWARD, TOY_FORWARD, TOY_GUESSERS

    p, q = Fraction(1, 2), Fraction(3, 4)
    cut = 1 - Fraction(1, 8)  # least_cut_width(1/2, 3/4) = 3

    def qwwkl(psi: str, stages: int):
        tree, log = qwwkl_cutter(TOY_FORWARD["identity"](), TOY_BACKWARD[psi](), p, q, stages)
        issues = []
        if len(log.records) != stages:
            issues.append(f"{len(log.records)} log records for {stages} stages")
        issues += [f"stage {r.stage} cut is not exact" for r in log.records
                     if r.case == "2" and (r.measure_after != r.measure_before * cut
                                           or r.image_measure < q)]
        if tree.measure() < p:
            issues.append(f"tree measure {tree.measure()} fell below {p}")
        return log, issues

    def pinned():
        log, issues = qwwkl("zero", QWWKL_PINNED_STAGES)
        if log.digest() != QWWKL_LOG_DIGEST:
            issues.append(f"log digest {log.digest()} is not the pinned one")
        return log, issues

    def long_run():
        return qwwkl(LONG_QWWKL_BACKWARDS[seed % len(LONG_QWWKL_BACKWARDS)], size["long_stages"])

    def ts1():
        res = ts1_diagonalizer(TOY_FORWARD["embed23"](), TOY_BACKWARD["echo"](), 2, 3,
                               stages=size["ts1_stages"])
        issues = []
        if len(res.log.action_stages()) > 1:
            issues.append("more than j - 1 = 1 action stages")
        if res.assembled is None or len(res.assembled_colors) > 2:
            issues.append(f"assembled set shows colors {res.assembled_colors}")
        return res.log, issues

    def delta2():
        guesser = TOY_GUESSERS["evens"]()
        stages = size["delta2_stages"]
        colorings, log = delta2_diagonalizer(3, guesser, stages=stages)
        ok, detail = check_defeats(colorings, guesser, e=2, horizon=stages)
        return log, [] if ok else [f"guesser not defeated: {detail}"]

    def cm():
        res = cm_coloring(TOY_FORWARD["ones"]())
        return None, [] if res.excluded_pair() is not None else ["cm coloring never triggered"]

    def rainbow():
        res = rainbow_measure_coloring(TOY_FORWARD["ones"](), Fraction(1, 2))
        return None, [] if 1 <= len(res.cylinders) <= 2 else [f"{len(res.cylinders)} cylinders"]

    def column_splitter():
        results = rrt_column_splitter(TOY_FORWARD["ones"](), columns=3)
        return None, [f"column {j} cylinder below 2^-{j + 1}"
                      for j, res in enumerate(results)
                      for cyl in res.cylinders if cyl.measure < Fraction(1, 2 ** (j + 1))]

    def unit(name: str, run) -> Outcome:
        out = Outcome(attempted=1)
        try:
            log, issues = run()
        except (ContractError, InputError, ResourceError) as e:
            return out.fail(f"{name}: {type(e).__name__}: {e}")
        if issues:
            return out.fail(f"{name}: " + "; ".join(issues[:3]))
        out.decided = 1
        if log is not None:
            out.work, out.digest = len(log.records), log.digest()
        return out

    return [lambda name=name, run=run: unit(name, run) for name, run in (
        ("qwwkl-pinned", pinned), ("qwwkl-long", long_run), ("ts1", ts1), ("delta2", delta2),
        ("cm", cm), ("rainbow", rainbow), ("column-splitter", column_splitter))]


WORKLOADS = {
    "verify-all": verify_all,
    "squash-adversaries": squash_adversaries,
}


# ---------------------------------------------------------------------------
# measurement


def _env() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> float:
    """Median time, in reference seconds, to import wred and build its registries,
    over fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], env=env,
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first probe also writes bytecode caches
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(units: list[Unit]) -> tuple[float, Outcome]:
    """Run every unit once; returns the pass time and the merged outcome."""
    total = Outcome()
    start = time.perf_counter()
    for unit in units:
        total.add(unit())
    return time.perf_counter() - start, total


def timed_passes(units: list[Unit], seconds: float) -> tuple[list[RefClock], list[Outcome]]:
    """Repeat passes, each timed by a RefClock, while the next one is expected
    to end within `seconds` of wall time."""
    clocks, outcomes = [], []
    start = time.perf_counter()
    while True:
        with RefClock() as clock:
            _, outcome = run_pass(units)
        clocks.append(clock)
        outcomes.append(outcome)
        if len(clocks) >= MIN_PASSES and time.perf_counter() - start + clock.wall > seconds:
            return clocks, outcomes


def check_passes(outcomes: list[Outcome]) -> list[str]:
    errors = [e for o in outcomes for e in o.errors]
    if len({o.digest for o in outcomes}) != 1:
        errors.append("passes of one run produced different outputs")
    return errors


def run_untraced(workload, seed: int, seconds: float, size: dict) -> tuple[dict, dict, list]:
    setup_s = measure_setup()
    run_pass(workload(seed, SIZES["tiny"]))  # warm-up, untimed; timed passes are checked
    clocks, outcomes = timed_passes(workload(seed, size), seconds)
    pass_s = statistics.median(c.ref_s for c in clocks)
    one = outcomes[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "throughput": (one.work / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes),
                     "ratio"),
        "decided_share": (one.decided / one.attempted, "ratio"),
    }
    info = {"passes": len(clocks), "pass_s": [c.ref_s for c in clocks],
            "pass_wall_s": [c.wall for c in clocks], "speed": [c.speed for c in clocks],
            "reference_samples": [len(c.samples) for c in clocks]}
    return metrics, info, outcomes


def run_traced(workload, seed: int, size: dict) -> tuple[dict, dict, list]:
    import tracing
    from wred.catalog import ENTRIES

    run_pass(workload(seed, SIZES["tiny"]))  # warm-up, untimed; timed passes are checked
    untraced_s, plain = run_pass(workload(seed, size))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, traced = run_pass(workload(seed, size))
    finally:
        tracer.restore()
    traced_s = tracer.close_root()
    layers = tracing.layer_metrics(tracer, sorted(ENTRIES))
    metrics = {name: (value, "s" if name.endswith("_s") or ".entry_s." in name else
                      "ratio" if name.endswith(("_ratio", "_share", "_yield")) else "count")
               for name, value in layers.items()}
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    counters = {name: layers[name] for name in (
        "kernel.query.calls", "kernel.prefix.allocs", "kernel.evaluate.steps",
        "oracle.search.nodes", "combinators.marker_candidates", "kernel.point.bits_materialized")}
    info = {"untraced_s": untraced_s, "counters": counters,
            "spans": tracer.span_table()[:40]}
    return metrics, info, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "wred" / "__init__.py").is_file():
        print(f"error: no wred package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import wred

    if Path(wred.__file__).resolve().parent != (SRC / "wred").resolve():
        print(f"error: imported wred from {wred.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    if args.trace:
        metrics, info, outcomes = run_traced(workload, args.seed, size)
    else:
        metrics, info, outcomes = run_untraced(workload, args.seed, args.seconds, size)
    errors = check_passes(outcomes)
    info.update(workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
                digest=outcomes[0].digest, errors=errors[:10], **_env())
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {} if errors else {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
