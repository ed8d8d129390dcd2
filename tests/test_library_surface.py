"""The library ships what the pipeline, the CS baseline, the harness and the
benchmark run: every public top-level function or class of ``src/cpchan``
is referenced outside its own body by the package, by ``perfbench/`` (its
tests aside) or by ``scripts/``.  Helpers that only tests call belong under
``tests/`` (see ``oracles.py``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cpchan"


def public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(tree, skip=None):
    """Names a module reads: identifiers, attributes, imported names and
    bare-name strings (perfbench resolves its hooks by name), outside the
    subtree ``skip``."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return names


def library_users():
    files = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


def unused_definitions(trees):
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in public_definitions(trees[path]):
            if not any(node.name in referenced_names(tree, skip=node)
                       for tree in trees.values()):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = library_users()
    # a scan that read no file or no reference would pass vacuously
    names = set().union(*(referenced_names(t) for t in trees.values()))
    assert {"fista", "estimate_all", "solve_cs", "run_sweep"} <= names
    unused = unused_definitions(trees)
    assert not unused, f"public definitions that only tests call: {unused}"
