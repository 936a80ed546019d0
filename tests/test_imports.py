"""Every name a module under `src/spincorr/` imports is used there."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "spincorr"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# (module, name) bindings kept on purpose, each with the reason
KEPT = {
    ("solver.py", "check_environment_condition"): (
        "unused by the solver; the benchmark's hooks patch it on `solver`"
    ),
}


def unused_imports(source: str) -> list:
    """The names the module binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    unused = [n for n in unused_imports(source) if (module, n) not in KEPT]
    assert unused == [], f"{module} imports {unused} without using them"


def test_kept_imports_are_still_unused():
    # a kept binding that the module starts to read needs no exception
    for module, name in KEPT:
        source = (PACKAGE / module).read_text(encoding="utf-8")
        assert name in unused_imports(source)



def test_package_all_lists_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for a in node.names
    ]
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    ]
    assert exported == sorted(set(exported)), "__all__ is not sorted and duplicate-free"
    assert set(exported) == set(imported)
