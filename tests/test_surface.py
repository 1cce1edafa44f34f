"""The public surface: every public name earns its place, and the README runs.

A public top-level name of `wred` that no code in the package (outside its
own definition and the re-exports of `wred/__init__.py`), `bench/` or
`tools/` refers to is kept only for a reason: a criterion or a test checks
it, and its docstring says which.

No module of the package (bar the re-exports of `wred/__init__.py`), of
`tests/` or of `tools/` imports a name it never uses.  `bench/` is left
out: its setup probe imports modules only to time the import.

One tape algebra: only the classes in `TAPE_CLASSES` define `bit`; every
view of other tapes is a `kernel.RuleTape` over a rule.
"""

import ast
import re
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
    "combinators.squash_backward": "test_squash_backward_chain_and_mutation",
    "combinators.witness_parallel": "test_parallel_identity_pair_sound",
    "kernel.check_downward_closure": "test_catalog_functionals_honor_kernel_contracts",
    "kernel.check_use_soundness": "test_catalog_functionals_honor_kernel_contracts",
    "problems.lookup": "test_registry_lists_and_looks_up",
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


def _references(nodes) -> set[str]:
    """Names, attributes, imported names and strings (getattr targets) in nodes."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def _uncalled() -> dict[str, ast.AST]:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = _references(ast.parse(p.read_text())
                          for d in ("bench", "tools") for p in sorted((ROOT / d).glob("*.py")))
    inside = [(node, _references([node])) for tree in modules.values() for node in tree.body]
    found = {}
    for mod, tree in modules.items():
        for name, node in _public_definitions(tree):
            if name not in outside and not any(name in refs for other, refs in inside
                                               if other is not node):
                found[f"{mod}.{name}"] = node
    return found


def test_every_uncalled_public_name_has_a_reason():
    uncalled = _uncalled()
    assert set(uncalled) == set(KEPT), (
        f"uncalled but not kept: {sorted(set(uncalled) - set(KEPT))}; "
        f"kept but called or gone: {sorted(set(KEPT) - set(uncalled))}")
    for qualified, check in KEPT.items():
        doc = ast.get_docstring(uncalled[qualified]) or ""
        assert check in doc, f"{qualified}: its docstring does not name {check!r}"


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
