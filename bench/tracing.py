"""Per-layer tracing of wred from outside the package.

The tracer replaces public functions and methods of `wred` with wrappers
that record a span per call and count work where it happens.  A name
that other modules imported at load time (`level_members` lives in
`problems`, `oracle` and `catalog`) is replaced in every module that
binds it; late `from .x import y` statements read the module attribute
and see the wrapper too.  Wrappers return what the original returns and
let every exception through unchanged, the flow-control `Diverge`
included, and close their span on every exit.

A verify pass makes millions of traced calls, so spans are aggregated
as they close, keyed by (name, parent name): call count, inclusive time
and self time.  A layer is the part of a span name before the first dot.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = ("kernel", "problems", "oracle", "combinators", "catalog", "adversaries", "harness")
ROOT_SPAN = "bench"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT_SPAN, time.perf_counter(), 0.0]]
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, incl, self]
        self.counts: Counter = Counter()
        self.points: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap fn in a span; on_result(args, kwargs, result) runs after a normal return."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += dur
                agg = spans.get((name, parent[0]))
                if agg is None:
                    agg = spans[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        """Wrap fn so that each call adds one to counts[key]; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def patch_function(self, module, attr: str, make):
        """Replace module.attr in every loaded wred module that binds it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in [m for n, m in sys.modules.items() if n == "wred" or n.startswith("wred.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def close_root(self) -> float:
        """End the root span; returns the traced wall time."""
        root = self.stack[0]
        wall = time.perf_counter() - root[1]
        self.spans[(ROOT_SPAN, "")] = [1, wall, wall - root[2]]
        return wall

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.spans.items() if n == name)

    def inclusive_s(self, name: str) -> float:
        return sum(a[1] for (n, _), a in self.spans.items() if n == name)

    def self_s(self, prefix: str) -> float:
        """Self time of every span named prefix or prefix.<anything>."""
        return sum(a[2] for (n, _), a in self.spans.items()
                   if n == prefix or n.startswith(prefix + "."))

    def span_table(self) -> list[dict]:
        return [{"name": n, "parent": p, "calls": a[0], "incl_s": a[1], "self_s": a[2]}
                for (n, p), a in sorted(self.spans.items(), key=lambda kv: -kv[1][2])]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    from wred import adversaries, catalog, combinators, harness, kernel, oracle, problems

    t, counts = tracer, tracer.counts

    # kernel
    def on_evaluate(args, kwargs, out):
        counts["kernel.evaluate.steps"] += out.steps
        if not out.converged:
            counts["kernel.evaluate.diverged"] += 1

    t.patch_function(kernel, "evaluate", lambda f: t.span("kernel.evaluate", f, on_evaluate))
    t.patch_method(kernel.FunctionalTape, "bit", lambda f: t.span("kernel.functional_tape", f))
    t.patch_method(kernel.EvalContext, "query", lambda f: t.counted("kernel.query.calls", f))
    t.patch_method(kernel.Prefix, "__init__", lambda f: t.counted("kernel.prefix.allocs", f))

    def register_point(init):
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.points.append(self)

        return wrapper

    t.patch_method(kernel.Point, "__init__", register_point)

    # problems
    t.patch_method(problems.TreeByRule, "__contains__",
                   lambda f: t.span("problems.tree_member", f))
    t.patch_function(problems, "level_members", lambda f: t.span("problems.level_members", f))
    t.patch_method(problems.Coloring, "value", lambda f: t.span("problems.coloring_value", f))
    t.patch_method(problems.ProblemSpec, "check_instance",
                   lambda f: t.span("problems.check_instance", f))
    for name in ("verify_homogeneous_at", "verify_thin_at", "verify_rainbow_at", "verify_path_at"):
        t.patch_function(problems, name, lambda f: t.span("problems.verify", f))

    # oracle
    def on_search(args, kwargs, res):
        counts["oracle.search.nodes"] += res.nodes
        counts["oracle.search.exhausted"] += int(res.exhausted)
        counts["oracle.search.found"] += int(res.found)

    for name in ("find_homogeneous", "find_thin", "find_rainbow", "find_min_homogeneous"):
        t.patch_function(oracle, name, lambda f: t.span("oracle.search", f, on_search))
    for name in ("enumerate_paths", "enumerate_thin"):
        t.patch_function(oracle, name, lambda f: t.span("oracle.enumerate", f))
    t.patch_function(oracle, "structural_check", lambda f: t.span("oracle.structural_check", f))

    # combinators
    t.patch_function(combinators, "check_witness_soundness",
                     lambda f: t.span("combinators.soundness", f))

    def on_markers(args, kwargs, ms):
        # stage s scans candidates upward from max(m_s, s) + 1 and stops at m_{s+1}
        m = ms.markers
        counts["combinators.marker_stages"] += len(m) - 1
        counts["combinators.marker_candidates"] += sum(
            m[s + 1] - max(m[s], s) for s in range(len(m) - 1))

    def markers_by_engine(f):
        closure = t.span("combinators.markers_closure", f, on_markers)
        dfs = t.span("combinators.markers_dfs", f, on_markers)

        def squash_markers(cfg, *args, **kwargs):
            engine = dfs if cfg.witness.forward.reads is None else closure
            return engine(cfg, *args, **kwargs)

        return squash_markers

    t.patch_function(combinators, "squash_markers", markers_by_engine)
    t.patch_function(combinators, "squash_forward", lambda f: t.span("combinators.forward", f))

    # catalog: one span name per entry, for inclusive per-entry time
    def entry_spans(f):
        per_entry: dict = {}

        def run_entry(entry_id, *args, **kwargs):
            if entry_id not in per_entry:
                per_entry[entry_id] = t.span(f"catalog.entry.{entry_id}", f)
            return per_entry[entry_id](entry_id, *args, **kwargs)

        return run_entry

    t.patch_function(catalog, "run_entry", entry_spans)

    # adversaries
    def on_log(args, kwargs, result):
        log = result[1] if isinstance(result, tuple) else result.log
        counts["adversaries.stages"] += len(log.records)
        counts["adversaries.acted"] += len(log.action_stages())

    for name, span, hook in (("qwwkl_cutter", "qwwkl", on_log), ("ts1_diagonalizer", "ts1", on_log),
                             ("delta2_diagonalizer", "delta2", on_log), ("cm_coloring", "cm", None),
                             ("rainbow_measure_coloring", "rainbow", None),
                             ("rrt_column_splitter", "column_splitter", None)):
        t.patch_function(adversaries, name,
                         lambda f, span=span, hook=hook: t.span(f"adversaries.{span}", f, hook))

    # harness
    t.patch_function(harness, "run_suite", lambda f: t.span("harness.run_suite", f))
    t.patch_method(harness.Report, "to_csv", lambda f: t.span("harness.to_csv", f))


def layer_metrics(tracer: Tracer, entry_ids: list[str]) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload does not reach the layer."""
    t, c = tracer, tracer.counts
    search_calls = t.calls("oracle.search")
    candidates = c["combinators.marker_candidates"]
    stages = c["adversaries.stages"]
    out = {f"{layer}.self_s": t.self_s(layer) for layer in LAYERS}
    out.update({
        "kernel.evaluate.calls": t.calls("kernel.evaluate"),
        "kernel.evaluate.self_s": t.self_s("kernel.evaluate"),
        "kernel.evaluate.steps": c["kernel.evaluate.steps"],
        "kernel.evaluate.diverged": c["kernel.evaluate.diverged"],
        "kernel.functional_tape.calls": t.calls("kernel.functional_tape"),
        "kernel.functional_tape.self_s": t.self_s("kernel.functional_tape"),
        "kernel.query.calls": c["kernel.query.calls"],
        "kernel.point.bits_materialized": sum(len(p.memo) for p in t.points),
        "kernel.prefix.allocs": c["kernel.prefix.allocs"],
        "problems.tree_member.calls": t.calls("problems.tree_member"),
        "problems.tree_member.self_s": t.self_s("problems.tree_member"),
        "problems.level_members.calls": t.calls("problems.level_members"),
        "problems.level_members.self_s": t.self_s("problems.level_members"),
        "problems.coloring_value.calls": t.calls("problems.coloring_value"),
        "problems.coloring_value.self_s": t.self_s("problems.coloring_value"),
        "problems.check_instance.self_s": t.self_s("problems.check_instance"),
        "problems.verify.self_s": t.self_s("problems.verify"),
        "oracle.search.calls": search_calls,
        "oracle.search.self_s": t.self_s("oracle.search"),
        "oracle.search.nodes": c["oracle.search.nodes"],
        "oracle.search.exhausted": c["oracle.search.exhausted"],
        "oracle.search.found_ratio": c["oracle.search.found"] / search_calls if search_calls else 0.0,
        "combinators.soundness.calls": t.calls("combinators.soundness"),
        "combinators.soundness.self_s": t.self_s("combinators.soundness"),
        "combinators.markers_closure_s": t.inclusive_s("combinators.markers_closure"),
        "combinators.markers_dfs_s": t.inclusive_s("combinators.markers_dfs"),
        "combinators.forward_s": t.inclusive_s("combinators.forward"),
        "combinators.marker_candidates": candidates,
        "combinators.marker_yield": c["combinators.marker_stages"] / candidates if candidates else 0.0,
        "adversaries.qwwkl_s": t.inclusive_s("adversaries.qwwkl"),
        "adversaries.ts1_s": t.inclusive_s("adversaries.ts1"),
        "adversaries.delta2_s": t.inclusive_s("adversaries.delta2"),
        "adversaries.rainbow_s": t.inclusive_s("adversaries.rainbow"),
        "adversaries.acted_share": c["adversaries.acted"] / stages if stages else 0.0,
        "harness.run_suite.self_s": t.self_s("harness.run_suite"),
        "harness.to_csv_s": t.inclusive_s("harness.to_csv"),
        "bench.self_s": t.self_s(ROOT_SPAN),
    })
    for entry_id in entry_ids:
        out[f"catalog.entry_s.{entry_id}"] = t.inclusive_s(f"catalog.entry.{entry_id}")
    return out
