"""Static rules over ``src/argseg``, checked with the stdlib ``ast`` module.

* A module other than ``__init__.py`` uses every name it imports.
* No upper-case module constant is assigned in two modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "argseg"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            found = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = node.returns
        else:
            continue
        if found is not None:
            yield found


def used_names(tree: ast.Module) -> set[str]:
    """Every name loaded, including those inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def module_constants(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                names.add(target.id)
    return names


def test_sources_found():
    assert len(MODULES) > 5


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = used_names(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported_names(tree).items() if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_no_constant_defined_twice():
    owners: dict[str, list[str]] = {}
    for path in MODULES:
        for name in module_constants(parse(path)):
            owners.setdefault(name, []).append(path.name)
    twice = {name: files for name, files in owners.items() if len(files) > 1}
    assert not twice, f"constants assigned in more than one module: {twice}"


def test_rules_catch_a_stale_import_and_a_second_constant():
    tree = ast.parse("import bisect\nimport os.path\nfrom x import y as z\nW = 1\n"
                     "def f(a: 'Q') -> None:\n    return os.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"bisect", "z"}
    assert module_constants(tree) == {"W"}
