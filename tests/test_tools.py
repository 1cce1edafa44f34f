import importlib.util
import json
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_times_prints_cpu_and_queries(capsys):
    entry_times = _load("entry_times")
    from wred.kernel import EvalContext, FunctionalTape
    from wred.problems import Coloring

    plain = (EvalContext.query, Coloring.value, FunctionalTape.bit)
    start = time.process_time()
    assert entry_times.main(["--seed", "0", "--entry", "rt_product",
                             "--entry", "rt_arity_lift"]) == 0
    assert time.process_time() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["entry", "cpu_s", "queries", "coloring_value", "rule_runs",
                                "fuel_stalls"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert len(lines) == 4 and lines[3].split()[0] == "total"
    assert sorted(rows) == ["rt_arity_lift", "rt_product", "total"]
    for name in ("rt_product", "rt_arity_lift"):
        cpu, queries, values, runs, stalls = rows[name]
        assert float(cpu) >= 0 and int(queries) > 0 and int(values) > 0
        # the oracle searches ask for colors they already read: those come from the memo
        assert 0 < int(runs) < int(values)
        # a brute solution ends where its search ended, so the backward's
        # scan for a later member stops at a gap, never at the fuel limit
        assert stalls == "0", name
    assert rows["total"][1:] == [str(sum(int(rows[n][i]) for n in ("rt_product", "rt_arity_lift")))
                                 for i in range(1, 5)]
    # the counting run restores what it wraps
    assert (EvalContext.query, Coloring.value, FunctionalTape.bit) == plain


def test_entry_times_counts_a_fuel_stall_once():
    entry_times = _load("entry_times")
    from wred import catalog
    from wred.kernel import Diverge, FunctionalTape, pointwise

    def spin(ctx, x):
        while True:
            ctx.tick()

    def suites(entry, config):
        tape = FunctionalTape(pointwise(0, spin, "spin"), [], 50)
        for pos in (0, 0, 3):  # the stall is terminal: later reads re-raise it
            try:
                tape.bit(pos)
            except Diverge:
                pass

    entry_times.run_suite = suites
    assert entry_times.call_counts(sorted(catalog.ENTRIES)[0], 0)[3] == entry_times.SEEDS_PER_RUN


def test_bench_record_writes_the_schema(tmp_path):
    bench_record = _load("bench_record")
    assert bench_record.seed_list("4-6,9") == [4, 5, 6, 9]
    # one workload keeps it short: each untraced run times 16 fresh imports
    assert bench_record.main(["--seeds", "3", "--seconds", "0.1", "--size", "tiny",
                              "--workload", "verify-all", "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "wred-bench-record/2"
    assert path.name == f"BENCH_{doc['commit'][:7]}.json"
    assert set(doc["env"]) == {"python", "nproc", "platform"}
    assert doc["settings"] == {"seeds": [3], "seconds": 0.1, "size": "tiny", "trace_seed": 3,
                               "traced_runs": 3}
    assert list(doc["workloads"]) == ["verify-all"]
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for rec in doc["workloads"].values():
        (run,) = rec["runs"]
        assert run["seed"] == 3 and run["correct"] and set(run["metrics"]) == end_to_end
        assert rec["pass_s"] == {"median": run["metrics"]["pass_s"],
                                 "q1": run["metrics"]["pass_s"], "q3": run["metrics"]["pass_s"]}
        traced = rec["traced"]
        assert traced["correct"] and traced["digest"] == run["digest"] and traced["runs"] == 3
        # each per-layer metric is the median of the three traced runs, within their range
        assert set(traced["metrics"]) == set(traced["range"]) == per_layer
        for name, (low, high) in traced["range"].items():
            assert low <= traced["metrics"][name] <= high, name
        assert traced["range"]["kernel.query.calls"][0] == traced["range"]["kernel.query.calls"][1]
        assert {"kernel.query.calls", "kernel.prefix.allocs", "oracle.search.nodes"} <= set(
            traced["counters"])


def test_squash_scaling_prints_both_parts_at_each_size(capsys):
    squash_scaling = _load("squash_scaling")
    assert squash_scaling.main(["--stages", "4,8", "--horizons", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["part", "config", "size", "wall_s", "forward_steps"]
    rows = [line.split() for line in lines[1:]]
    keys = [tuple(r[:3]) for r in rows]
    names, want = ("coh-interleave", "projection-toy", "trivial-q-rt12"), []
    for name in names:
        want += [("markers", name, size) for size in ("4", "8")]
        want.append(("forward", name, "3"))
    assert keys == want
    assert all(float(r[3]) >= 0 and int(r[4]) > 0 for r in rows)
    steps = {key: int(r[4]) for key, r in zip(keys, rows)}
    # the marker search runs the forward step once per read-map position, to the last stage
    assert all(steps[("markers", name, "8")] == 8 for name in names)
