"""The package is a strict stack of layers, read from each module's imports.

errors -> core -> spectral -> indicators -> {analysis, properties} -> cli:
a module imports only modules of a lower layer. dataio and synth read and
draw the data model, so they import core and errors alone. No module uses
another module's underscore name, except the private constructor
``CitationMatrix._adopt``, through which dataio and synth hand over arrays
that nothing else references.
"""

import ast
from pathlib import Path

import pytest

import journalrank as jr
from journalrank import core, properties

PACKAGE = Path(jr.__file__).parent

RANK = {"errors": 0, "core": 1, "spectral": 2, "indicators": 3, "analysis": 4, "properties": 4, "cli": 5}
ALLOWED = {name: {other for other, rank in RANK.items() if rank < RANK[name]} for name in RANK}
ALLOWED["dataio"] = ALLOWED["synth"] = {"core", "errors"}
ALLOWED["cli"] |= {"dataio", "synth"}
ALLOWED["__init__"] = set(ALLOWED) - {"__init__"}

BORROWING_ALLOWED = {("core", "CitationMatrix._adopt")}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import names, '' for the package itself, or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "journalrank":
        return ".".join(node.module.split(".")[1:2])
    return None


def _bindings(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (package module, dotted path inside it) for each package import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                continue
            for alias in node.names:
                target = (alias.name, "") if module == "" else (module, alias.name)
                bound[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "journalrank" and len(parts) > 1:
                    bound[alias.asname or alias.name] = (parts[1], "")
    return bound


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def imports_and_borrowings(source: str) -> tuple[set[str], set[tuple[str, str]]]:
    """The package modules a source imports, and the (module, dotted name)
    pairs of other modules' underscore names that it uses."""
    tree = ast.parse(source)
    bound = _bindings(tree)
    modules = {module for module, _ in bound.values()}
    borrowed = {target for target in bound.values() if any(_private(part) for part in target[1].split("."))}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        chain = [node.attr]
        root = node.value
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            module, path = bound[root.id]
            borrowed.add((module, ".".join(([path] if path else []) + chain[::-1])))
    return modules, borrowed


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_every_module_has_a_layer():
    assert set(MODULES) == set(ALLOWED)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_lower_layers(name):
    modules, _ = imports_and_borrowings((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert modules - ALLOWED[name] == set()


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_no_other_modules_private_name(name):
    _, borrowed = imports_and_borrowings((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert borrowed - BORROWING_ALLOWED == set()


def test_the_reader_sees_edges_and_borrowed_names():
    source = (
        "from . import core, indicators\n"
        "from .errors import NotIrreducible, _ZeroCount\n"
        "from .properties import FieldPartition\n"
        "indicators._same_size(journals, matrix)\n"
        "core.CitationMatrix._adopt(counts)\n"
        "matrix._own(counts)\n"
    )
    modules, borrowed = imports_and_borrowings(source)
    assert modules == {"core", "indicators", "errors", "properties"}
    assert borrowed == {("errors", "_ZeroCount"), ("indicators", "_same_size"), ("core", "CitationMatrix._adopt")}


def test_the_field_split_is_one_class_and_the_checks_stay_private_to_the_package():
    assert jr.FieldPartition is core.FieldPartition is properties.FieldPartition
    assert "require_same_size" not in jr.__all__
    assert "require_nonzero" not in jr.__all__
    assert "require_sound" not in jr.__all__
    assert "require_citing" not in jr.__all__
    assert all(hasattr(jr, name) for name in jr.__all__)
