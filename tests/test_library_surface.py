"""The library ships what the pipeline, the CS baseline, the harness and the
benchmark run: every public top-level function or class of ``src/cpchan``
is referenced outside its own body by the package, by ``perfbench/`` (its
tests aside) or by ``scripts/``.  Helpers that only tests call belong under
``tests/`` (see ``oracles.py``).  Likewise every field of a frozen
``*Config`` dataclass is set by one of those callers; a value that only tests
set is a module constant that the tests patch."""

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


def is_frozen_dataclass(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in node.decorator_list)


def config_fields(trees):
    """{"module.Class": field names} of every frozen *Config dataclass but
    ExperimentConfig, whose fields are the keys that configs/*.json set."""
    configs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in public_definitions(trees[path]):
            if (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
                    and node.name != "ExperimentConfig" and is_frozen_dataclass(node)):
                configs[f"{path.stem}.{node.name}"] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return configs


def keywords_passed(trees, class_name):
    """Keyword arguments of every call of ``class_name`` (by name or attribute)."""
    passed = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee == class_name:
                    passed |= {k.arg for k in node.keywords if k.arg}
    return passed


def test_every_config_field_is_set_outside_the_tests():
    trees = library_users()
    configs = config_fields(trees)
    assert {"sparse_solver.FistaConfig", "channel_recovery.PipelineConfig"} <= set(configs)
    unset = [f"{name}.{field}" for name, names in configs.items()
             for field in names
             if field not in keywords_passed(trees, name.rsplit(".", 1)[1])]
    assert not unset, f"config fields that only tests set: {unset}"
