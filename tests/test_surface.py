"""Every module-level function and class in src/auscult has a caller outside
the tests.

A name counts as used when src/ or perfbench/ refers to it anywhere but in its
own definition: as a name, an attribute, an import, or a string (perfbench
reaches the functions it wraps through getattr). The package's own re-exports
in __init__.py do not count, so exporting a helper does not keep it alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "auscult"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that no program code calls, each with the reason it stays
ACCEPTANCE_ONLY = {
    "cross_entropy": "criterion 1 divides focal losses by the gamma-0 loss",
    "fuse_probabilities": "criterion 3 checks the single-vector fusion endpoints",
    "grad_check": "criterion 6 checks every backward pass by finite differences",
    "mfcc": "public API: exported from auscult and documented in the README",
}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, DEFINITIONS):
                yield path.stem, stmt.name


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.isidentifier() else None
    return None


def _references():
    """name -> set of (module, enclosing top-level definition or None)."""
    refs = {}
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        in_package = path.parent == PACKAGE
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            for node in ast.walk(stmt):
                name = _referenced_name(node)
                if name is not None:
                    site = (path.stem if in_package else None, owner)
                    refs.setdefault(name, set()).add(site)
    return refs


def _unused():
    refs = _references()
    return sorted(name for module, name in _definitions()
                  if not refs.get(name, set()) - {(module, name)})


def test_every_definition_has_a_caller_outside_the_tests():
    unused = [name for name in _unused() if name not in ACCEPTANCE_ONLY]
    assert unused == [], f"only tests use {unused}; delete them or call them"


def test_exceptions_are_still_needed():
    # an exception that gained a caller, or lost its definition, leaves the list
    assert sorted(ACCEPTANCE_ONLY) == [n for n in _unused() if n in ACCEPTANCE_ONLY]
