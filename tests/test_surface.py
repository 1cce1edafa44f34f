"""The public surface: every public name earns its place, and the README runs.

A public top-level name of `wred` that no code in the package (outside its
own definition and the re-exports of `wred/__init__.py`), `bench/` or
`tools/` refers to is kept only for a reason: a criterion or a test checks
it, and its docstring says which.  The same holds for a public method of a
public class that no such code calls through an attribute.

Every field of a package class (a `NamedTuple`'s fields, any other class's
attributes that its `__init__` sets on self) is read as an attribute in the
package, `bench/` or `tools/`, or only tests read it and `READ_BY_TESTS`
names one.
Every parameter of a package function (`def`, not lambda) is read in its
body, unless the function is a callback whose signature its caller fixes.

No module of the package (bar the re-exports of `wred/__init__.py`), of
`tests/` or of `tools/` imports a name it never uses.  `bench/` is left
out: its setup probe imports modules only to time the import.

One tape algebra: only the classes in `TAPE_CLASSES` define `bit`; every
view of other tapes is a `kernel.RuleTape` over a rule.

Importing the package loads neither `dataclasses` nor `inspect`.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wred"

# module.name -> the criterion or test that checks it, as its docstring names it
KEPT = {
    "adversaries.ts1_backward_sample": "criterion 5",
    "codings.audit_limit": "criterion 6",
    "codings.audit_predicate": "criterion 6",
    "codings.jump_coloring": "criterion 6",
    "codings.jump_decode": "criterion 6",
    "codings.kummer_claim_check": "criterion 6",
    "codings.true_homogeneous_set": "criterion 6",
    "codings.seq_rrt1_greedy": "criterion 8",
    "codings.limit_lift_transfer": "test_lift_thinness_transfer",
    "codings.seq_ts1_omega_solver": "test_seq_ts1_omega_mixed_support",
    "combinators.alternative_embed": "test_alternative_embedding_sound",
    "combinators.compose_witness": "test_law_composition_associative",
    "combinators.compositional_product": "test_compositional_product_projection_glue",
    "combinators.iterate_finite": "test_iterate_soundness_suite",
    "combinators.lift_seq": "test_law_lift_is_functorial",
    "combinators.witness_parallel": "test_parallel_identity_pair_sound",
    "kernel.check_downward_closure": "test_catalog_functionals_honor_kernel_contracts",
    "kernel.check_use_soundness": "test_catalog_functionals_honor_kernel_contracts",
    "problems.rrt_spec": "test_brute_solution_tape_reads_the_members_a_total_set_tape_reads",
    "adversaries.CylinderSet.overlaps": "criterion 8",
    "harness.InstanceDocument.to_text": "test_coloring_table_roundtrip",
    "kernel.Point.from_set": "test_tolerance_rt_examples",
    "kernel.Point.prefix": "test_views_and_parked_tapes_outlive_their_sweep",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _bound(fn) -> set[str]:
    """The names a function binds: its parameters and what it assigns."""
    a = fn.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    return {p.arg for p in params if p is not None} | {
        n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _references(nodes) -> set[str]:
    """Names, attributes, imported names and strings (getattr targets) in nodes.

    A name that an enclosing function binds is that function's local, not
    a reference to a module's name of the same spelling.
    """
    out = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound(node)
        if isinstance(node, ast.Name):
            if node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    for top in nodes:
        visit(top, frozenset())
    return out


def _read_attributes(nodes) -> set[str]:
    """Attributes read in nodes: how a method is called, and how a field is read."""
    return {node.attr for top in nodes for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _outside() -> list[ast.Module]:
    return [ast.parse(p.read_text()) for d in ("bench", "tools") for p in sorted((ROOT / d).glob("*.py"))]


def _uncalled() -> dict[str, ast.AST]:
    modules, outside_trees = _modules(), _outside()
    outside = _references(outside_trees)
    inside = [(node, _references([node])) for tree in modules.values() for node in tree.body]
    found = {}
    for mod, tree in modules.items():
        for name, node in _public_definitions(tree):
            if name not in outside and not any(name in refs for other, refs in inside
                                               if other is not node):
                found[f"{mod}.{name}"] = node
    # a method is called through an attribute anywhere but in its own definition
    outside, units = _read_attributes(outside_trees), []
    for tree in modules.values():
        for top in tree.body:
            units += top.body if isinstance(top, ast.ClassDef) else [top]
    inside = [(node, _read_attributes([node])) for node in units]
    for mod, tree in modules.items():
        for cls in (node for node in tree.body
                    if isinstance(node, ast.ClassDef) and not node.name.startswith("_")):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in outside
                        and not any(node.name in refs for other, refs in inside
                                    if other is not node)):
                    found[f"{mod}.{cls.name}.{node.name}"] = node
    return found


def test_every_uncalled_public_name_has_a_reason():
    uncalled = _uncalled()
    assert set(uncalled) == set(KEPT), (
        f"uncalled but not kept: {sorted(set(uncalled) - set(KEPT))}; "
        f"kept but called or gone: {sorted(set(KEPT) - set(uncalled))}")
    for qualified, check in KEPT.items():
        doc = ast.get_docstring(uncalled[qualified]) or ""
        assert check in doc, f"{qualified}: its docstring does not name {check!r}"


# module.Class.field -> a test that reads it, for the fields only tests read
READ_BY_TESTS = {
    "adversaries.ArbBoundsResult.coloring": "test_arb_bounds_coloring_is_bounded",
    "adversaries.ArbBoundsResult.triggers": "test_arb_bounds_exclusion",
    "adversaries.CMResult.coloring": "test_cm_untriggered_injective",
    "adversaries.TS1Result.invalidated": "test_ts1_identity_recolor_one_action",
}


def _fields(cls: ast.ClassDef) -> set[str]:
    """A NamedTuple's annotated fields; for any other class, the attributes
    its `__init__` sets on self."""
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        return {st.target.id for st in cls.body
                if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)}
    return {node.attr for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_every_record_field_is_read():
    modules = _modules()
    read = _read_attributes([*modules.values(), *_outside()])
    unread = {f"{mod}.{cls.name}.{name}" for mod, tree in modules.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for name in _fields(cls) if name not in read}
    assert unread == set(READ_BY_TESTS), (
        f"fields nothing reads: {sorted(unread - set(READ_BY_TESTS))}; "
        f"listed but read or gone: {sorted(set(READ_BY_TESTS) - unread)}")
    tests = {node.name: node for p in sorted((ROOT / "tests").glob("test_*.py"))
             for node in ast.parse(p.read_text()).body if isinstance(node, ast.FunctionDef)}
    for qualified, test in READ_BY_TESTS.items():
        assert test in tests, f"{qualified}: no test {test}"
        assert qualified.rpartition(".")[2] in _read_attributes([tests[test]]), (
            f"{test} does not read {qualified}")


# callback signatures that the caller fixes, so a callback may leave a parameter unread
CALLBACKS = {
    ("grid", "rng", "horizon", "size"),  # a catalog entry's checks
    ("instance", "sol_tape", "horizon", "size"),  # a ProblemSpec's verify closure
    ("instance", "budget"),  # a ProblemSpec's brute closure
    ("ctx", "x"),  # a Functional's step
}


def test_every_parameter_is_read():
    unread = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = tuple(p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                           if p is not None and p.arg not in ("self", "cls"))
            if params in CALLBACKS or node.name.startswith("cmd_"):  # cmd_*(args)
                continue
            read = {n.id for n in ast.walk(ast.Module(node.body, []))
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{mod}.{node.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters nothing reads: {unread}"


# the classes that are tapes in their own right; every other tape is a kernel.RuleTape
TAPE_CLASSES = {"kernel.Point", "kernel.Prefix", "kernel.CtxTape", "kernel.FunctionalTape",
                "adversaries.CutTree"}


def test_only_the_tape_classes_define_bit():
    defined = {f"{p.stem}.{node.name}" for p in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.ClassDef)
               and any(isinstance(f, ast.FunctionDef) and f.name == "bit" for f in node.body)}
    assert defined == TAPE_CLASSES, (
        f"views to make kernel.RuleTapes: {sorted(defined - TAPE_CLASSES)}; "
        f"tape classes gone: {sorted(TAPE_CLASSES - defined)}")


def _unused_imports(path: Path) -> list[str]:
    """Names path imports and never reads, scopes merged."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += [p for d in ("tests", "tools") for p in sorted((ROOT / d).glob("*.py"))]
    unused = {p.relative_to(ROOT).as_posix(): names for p in paths
              if (names := _unused_imports(p))}
    assert not unused, f"unused imports: {unused}"


def test_readme_api_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## A taste of the API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Every `wred` run and the benchmark's setup probe pay for the import.
    A `@dataclass` execs generated source per class, and `dataclasses`
    pulls in `inspect`, `ast`, `dis` and `tokenize`; records are
    `NamedTuple`s and plain classes instead.  `-S` keeps site hooks out."""
    probe = ("import sys, wred, wred.catalog, wred.harness, wred.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert done.stdout.strip() == "[]"
