"""Static rules over ``src/argseg``, checked with the stdlib ``ast`` module.

* A module other than ``__init__.py`` uses every name it imports.
* No upper-case module constant is assigned in two modules.
* Every function, method and class defined in ``src/argseg`` is referenced by
  name in ``src/``, ``demos/`` or ``perfbench/`` (bar its tests), so no
  definition exists only for the tests.
* Every attribute a method stores on ``self`` is read somewhere in those
  same program files, so no member exists only for the tests either.
* No module imports ``mmap``: a mapped file that shrinks kills the process
  with SIGBUS, where a read that comes back short can raise an error.
* ``argseg.__all__`` lists each name once, and exactly the names that
  ``__init__.py`` imports.
* No augmented assignment targets a ``.grad`` attribute or a subscript of
  one: a layer's backward writes each gradient, so nothing ever has to
  clear one first.
* Every defaulted parameter of a module-level function in ``src/argseg`` is
  passed, by keyword or by position, by some call in those program files,
  so no parameter exists only for the tests.  Calls are matched by the
  callee's name; methods are left out, since their names also match other
  objects' calls.  ``cli.main(argv)`` is exempt: it is the console entry
  point, which the tests drive in process.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "argseg"
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


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module the tree imports, or imports from."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


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


def definitions(tree: ast.Module) -> dict[str, int]:
    """Each function, method and class the module defines -> its line; dunder
    methods, which Python calls by protocol, are left out."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name loaded or stored, and every attribute name."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def stored_attributes(tree: ast.Module) -> dict[str, int]:
    """Each attribute assigned on ``self`` -> the line of its first assignment."""
    stored = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            stored.setdefault(node.attr, node.lineno)
    return stored


def read_attributes(tree: ast.Module) -> set[str]:
    """Every attribute name the tree reads, on any object."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def program_files() -> list[Path]:
    """The package, the demos and the benchmark, without any test directory."""
    files = [path for folder in ("src", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    return [path for path in files if "tests" not in path.relative_to(ROOT).parts]


def module_constants(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                names.add(target.id)
    return names


def export_mismatch(tree: ast.Module) -> tuple[list[str], set[str], set[str]]:
    """(names ``__all__`` lists twice, imported names it lacks, names it
    lists that are not imported)."""
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    imported = set(imported_names(tree))
    twice = sorted({name for name in listed if listed.count(name) > 1})
    return twice, imported - set(listed), set(listed) - imported


def grad_accumulations(tree: ast.Module) -> list[int]:
    """The line of each augmented assignment to ``<expr>.grad`` or to a
    subscript of one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            target = node.target
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr == "grad":
                lines.append(node.lineno)
    return lines


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """(function, parameter, its position or ``None`` if keyword-only, line) of
    each parameter with a default of each module-level function."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            found += [(node.name, positional[i].arg, i, node.lineno)
                      for i in range(len(positional) - len(args.defaults), len(positional))]
            found += [(node.name, arg.arg, None, node.lineno)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def passed_arguments(tree: ast.Module) -> set[tuple[str, int | str]]:
    """(callee name, position or keyword) of each argument of each call; a
    ``*`` or ``**`` argument is recorded as ``"*"`` or ``"**"``."""
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(
                node.func, "attr", None)
            passed.update((name, "*" if isinstance(arg, ast.Starred) else i)
                          for i, arg in enumerate(node.args))
            passed.update((name, keyword.arg or "**") for keyword in node.keywords)
    return passed


def never_passed(tree: ast.Module, passed: set) -> list[tuple[str, str, int]]:
    """(function, parameter, line) of each defaulted parameter in ``tree`` that
    no argument in ``passed`` can fill."""
    return [(name, param, line) for name, param, at, line in defaulted_parameters(tree)
            if not {(name, param), (name, at), (name, "*"), (name, "**")} & passed]


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


def test_every_definition_is_reached_outside_the_tests():
    referenced = set().union(*(referenced_names(parse(path)) for path in program_files()))
    unreached = [f"{path.name}:{line}: {name}" for path in MODULES
                 for name, line in definitions(parse(path)).items() if name not in referenced]
    assert not unreached, "defined in src/argseg but reached only by tests: " + ", ".join(
        unreached)


def test_every_stored_attribute_is_read_outside_the_tests():
    read = set().union(*(read_attributes(parse(path)) for path in program_files()))
    unread = [f"{path.name}:{line}: {name}" for path in MODULES
              for name, line in stored_attributes(parse(path)).items() if name not in read]
    assert not unread, "stored on self in src/argseg but read only by tests: " + ", ".join(unread)


def test_no_module_imports_mmap():
    mapping = [path.name for path in MODULES if "mmap" in imported_modules(parse(path))]
    assert not mapping, "imports mmap: " + ", ".join(mapping)


def test_all_names_exactly_what_the_package_imports():
    twice, unlisted, unimported = export_mismatch(parse(SRC / "__init__.py"))
    assert not twice, f"listed twice in __all__: {twice}"
    assert not unlisted, f"imported by __init__.py but not in __all__: {sorted(unlisted)}"
    assert not unimported, f"in __all__ but not imported: {sorted(unimported)}"


def test_no_gradient_is_accumulated():
    found = [f"{path.name}:{line}" for path in MODULES for line in grad_accumulations(parse(path))]
    assert not found, "augmented assignment to a .grad: " + ", ".join(found)


def test_every_default_is_passed_outside_the_tests():
    passed = set().union(*(passed_arguments(parse(path)) for path in program_files()))
    never = [f"{path.name}:{line}: {name}({param})" for path in MODULES
             for name, param, line in never_passed(parse(path), passed)
             if (path.name, name) != ("cli.py", "main")]
    assert not never, "defaulted parameters that only tests pass: " + ", ".join(never)


def test_rules_catch_a_stale_import_and_a_second_constant():
    tree = ast.parse("import bisect\nimport os.path\nfrom x import y as z\nW = 1\n"
                     "def f(a: 'Q') -> None:\n    return os.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"bisect", "z"}
    assert module_constants(tree) == {"W"}


def test_rule_catches_a_definition_only_tests_reach():
    tree = ast.parse("class C:\n    def __len__(self): ...\n    def used(self): ...\n"
                     "    def unused(self): ...\n"
                     "def f():\n    return C().used()\nf()\n")
    assert set(definitions(tree)) - referenced_names(tree) == {"unused"}


def test_rule_catches_an_attribute_only_tests_read():
    tree = ast.parse("class C:\n    def __init__(self, a):\n        self.kept = a\n"
                     "        self.dropped, other.x = a, a\n        self.counted = 0\n"
                     "    def step(self):\n        self.counted += 1\n        return self.kept\n")
    assert set(stored_attributes(tree)) - read_attributes(tree) == {"dropped", "counted"}


@pytest.mark.parametrize("source", ["import mmap", "import os, mmap as m", "from mmap import mmap",
                                    "def f():\n    import mmap\n"])
def test_rule_catches_an_mmap_import(source):
    assert "mmap" in imported_modules(ast.parse(source))


def test_rule_catches_a_repeated_a_missing_and_a_stale_export():
    tree = ast.parse("from .a import f, g\nfrom .b import h as k\n"
                     "__all__ = ['f', 'k', 'f', 'gone']\n")
    assert export_mismatch(tree) == (["f"], {"g"}, {"gone"})


def test_rule_ignores_a_relative_module_named_mmap():
    assert imported_modules(ast.parse("from .mmap import f\nimport os")) == {"os"}


def test_rule_catches_a_gradient_accumulation():
    tree = ast.parse("p.grad += g\np.grad[:, 0] -= g\nm.w.grad[0][1] *= 2\n"
                     "p.grad = g\np.grad[...] = g\ngrad += g\np.value += g\nx[p.grad] += 1\n")
    assert grad_accumulations(tree) == [1, 2, 3]


def test_rule_catches_a_default_only_tests_pass():
    tree = ast.parse("def f(a, b=1, /, c=2, *, d=3, e=4): ...\ndef g(x=0): ...\n"
                     "def h(y=0): ...\nclass C:\n    def m(self, z=1): ...\n"
                     "f(0, 1, e=5)\nobj.f(0, 1, 2)\ng(*xs)\n")
    assert never_passed(tree, passed_arguments(tree)) == [("f", "d", 1), ("h", "y", 3)]
