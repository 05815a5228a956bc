"""Every module-level function and class in src/auscult, and every method and
property of those classes, has a caller outside the tests, every settable
value in it is set by one, and one module owns the CSV dialect.

A name counts as used when src/ or perfbench/ refers to it anywhere but in its
own definition: as a name, an attribute or an import. A method or property is
reached only as an attribute, so a bare name does not count for it; its
sibling methods are outside it. Dunder methods are Python's to call and are
not checked. A string counts only in perfbench/, which reaches the functions
it wraps through getattr; inside src/ strings are kernel names and keys. A
perfbench name does not count in a file that defines a function or class of
that name itself, so the benchmark's own reference code keeps no program
function alive. The package's own re-exports in __init__.py do not count, so
exporting a helper does not keep it alive.
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(module, path) of each top-level definition and each method of a
    top-level class; a path is ("f",), ("C",) or ("C", "method")."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, DEFINITIONS):
                yield path.stem, (stmt.name,)
            if isinstance(stmt, ast.ClassDef):
                for meth in stmt.body:
                    if isinstance(meth, DEFINITIONS) and not _is_dunder(meth.name):
                        yield path.stem, (stmt.name, meth.name)


def _owned_nodes(stmt):
    """(owner path, node) for every node of a top-level statement: the
    owner is the enclosing definition, down to a top-level class's methods."""
    top = (stmt.name,) if isinstance(stmt, DEFINITIONS) else ()
    inner = {}
    if isinstance(stmt, ast.ClassDef):
        for meth in stmt.body:
            if isinstance(meth, DEFINITIONS):
                inner.update((id(node), top + (meth.name,)) for node in ast.walk(meth))
    for node in ast.walk(stmt):
        yield inner.get(id(node), top), node


def _referenced_name(node, strings=True):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.isidentifier() else None
    return None


def _references():
    """name -> set of (module or None, owner path of the referring code,
    whether the reference can reach a member: an attribute or a string)."""
    refs = {}
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        in_package = path.parent == PACKAGE
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a perfbench file's bare names may be its own definitions
        own = set() if in_package else {node.name for node in ast.walk(tree)
                                        if isinstance(node, DEFINITIONS)}
        for stmt in tree.body:
            for owner, node in _owned_nodes(stmt):
                name = _referenced_name(node, strings=not in_package)
                if name is None or (isinstance(node, ast.Name) and name in own):
                    continue
                site = (path.stem if in_package else None, owner,
                        isinstance(node, (ast.Attribute, ast.Constant)))
                refs.setdefault(name, set()).add(site)
    return refs


def _unused():
    """Dotted paths of the definitions that nothing outside them refers to."""
    refs = _references()
    return sorted(".".join(path) for module, path in _definitions()
                  if all((site_module == module and owner[:len(path)] == path)
                         or (len(path) == 2 and not member)
                         for site_module, owner, member in refs.get(path[-1], ())))


def test_every_definition_has_a_caller_outside_the_tests():
    unused = [name for name in _unused() if name not in ACCEPTANCE_ONLY]
    assert unused == [], f"only tests use {unused}; delete them or call them"


def test_exceptions_are_still_needed():
    # an exception that gained a caller, or lost its definition, leaves the list
    assert sorted(ACCEPTANCE_ONLY) == [n for n in _unused() if n in ACCEPTANCE_ONLY]


def test_only_the_text_module_imports_csv():
    # one module holds the CSV dialect and the ParseError for undecodable text
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(path.stem)
    assert importers == ["textio"]


# ------------------------------------------------------------- settable values
#
# A settable value is a parameter with a default, or a dataclass field with a
# default. It earns its place when some call in src/ or perfbench/ passes it;
# one that every caller leaves at its default is a constant. Calls are matched
# to definitions by name (a method's constructor by its class name), and a
# call that unpacks *args or **kwargs counts as passing everything.

# "module.function(parameter)" that no program call passes, each with the
# reason it stays
DEFAULT_ONLY = {
    "cli.main(argv)": "the console script calls main(); the CLI tests pass argv",
    "nn.grad_check(max_entries)": "grad_check has no program caller; the "
                                  "model gradient test samples entries",
    "nn.grad_check(rng)": "grad_check has no program caller; the model "
                          "gradient test seeds the sampled entries",
    "model.init_rene(n_mels)": "the 5-mel test models and pinned digests",
    "model.estimate_parameter_count(n_mels)": "the 5-mel test models",
}


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted(func, skip_self):
    """(name, positional index or None) of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    out = [(a.arg, i - skip_self)
           for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _settables():
    """(module, callee name, label, parameter, positional index or None)."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name, index in _defaulted(stmt, 0):
                    yield module, stmt.name, stmt.name, name, index
            elif isinstance(stmt, ast.ClassDef):
                if _is_dataclass(stmt):
                    fields = [s for s in stmt.body if isinstance(s, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(s.annotation)]
                    for index, field in enumerate(fields):
                        if field.value is not None:
                            yield (module, stmt.name, stmt.name,
                                   field.target.id, index)
                for meth in stmt.body:
                    if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        callee = stmt.name if meth.name == "__init__" else meth.name
                        label = f"{stmt.name}.{meth.name}"
                        for name, index in _defaulted(meth, 1):
                            yield module, callee, label, name, index


def _calls():
    """callee name -> list of (positional count, keyword names, unpacks)."""
    calls = {}
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = _referenced_name(node.func)
            if name is None:
                continue
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, unpacks))
    return calls


def _default_only():
    calls = _calls()

    def passed(callee, param, index):
        return any(unpacks or param in keywords
                   or (index is not None and index < n_positional)
                   for n_positional, keywords, unpacks in calls.get(callee, ()))

    return sorted(f"{module}.{label}({param})"
                  for module, callee, label, param, index in _settables()
                  if not passed(callee, param, index))


def test_every_settable_value_is_passed_outside_the_tests():
    fixed = [v for v in _default_only() if v not in DEFAULT_ONLY]
    assert fixed == [], f"no program call sets {fixed}; make them constants"


def test_default_only_exceptions_are_still_needed():
    assert sorted(DEFAULT_ONLY) == [v for v in _default_only() if v in DEFAULT_ONLY]
