"""Every name the package defines has a reader, and no module of the
package imports another module's private names.

A module-level function or class of src/carleman_lab, or a method or
property of one of its classes, must be referred to by code in src/ or
bench/ outside its own definition, or stand on KEEP with the reason it
stays.  Code means the syntax tree: a name, an attribute, an import or
a keyword argument.  The (module, function) and (module, class, method)
tables FUNCTIONS and METHODS of bench/tracer.py count too, because the
tracer looks their names up with getattr.  Docstrings and comments do
not count, and neither do tests: a name only tests call is a test
helper and belongs in tests/.

A module of src/carleman_lab imports a _-prefixed name of another only
where PRIVATE_IMPORTS gives the reason; anything else the two modules
share is public.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carleman_lab"

# names no pipeline or benchmark calls, each with the check it serves
KEEP = {
    "lemma_sides": "the paper's Poincare-type lemma, checked in "
                   "tests/test_poincare.py",
    "cit_residual": "acceptance 4: the midpoint decomposition of the rate "
                    "field closes under refinement",
    "coefficient_lower_bound": "the step from the weighted estimate to a "
                               "plain H1 bound, checked in "
                               "tests/test_poincare.py",
    "weight_bounds_check": "the weight ratios the proofs bound by constants "
                           "stay finite, checked in tests/test_weights.py",
    "weight_time_profile": "acceptance 2: 1/w is least at the window "
                           "midpoint T'",
}

# (importing module, imported module, private name) -> why it is shared
PRIVATE_IMPORTS = {
    ("stability", "forward", "_flapack"):
        "the dense LAPACK Cholesky of the reconstruction's H1 "
        "preconditioner, until it is banded like the stepper's factor",
    ("forward", "grid", "_d1"):
        "time_derivative applies the grid's first-derivative stencil on "
        "the time axis",
}


def _trees() -> dict:
    return {path: ast.parse(path.read_text())
            for top in ("src", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))}


def _references(path, tree):
    """(name, line) of every name, attribute, imported name and keyword
    argument in tree; for bench/tracer.py also every name in its
    FUNCTIONS and METHODS tables."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (*node.name.split("."), node.asname):
                yield name, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno
    if path == ROOT / "bench" / "tracer.py":
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and node.targets[0].id in ("FUNCTIONS", "METHODS")):
                for key in ast.literal_eval(node.value):
                    for name in key[1:]:
                        yield name, node.lineno


def _definitions(tree):
    """(reported name, bare name, node) of every module-level function
    or class and every method or property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item


def _package_definitions(trees):
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node in _definitions(trees[path]):
            if not (name.startswith("__") and name.endswith("__")):
                yield path, qualified, name, node


def _unread(trees) -> list:
    where = defaultdict(list)   # name -> [(path, line)] of its references
    for path, tree in trees.items():
        for name, line in _references(path, tree):
            where[name].append((path, line))
    return [f"{path.stem}.{qualified}"
            for path, qualified, name, node in _package_definitions(trees)
            if name not in KEEP
            and all(other == path and node.lineno <= line <= node.end_lineno
                    for other, line in where[name])]


def test_every_name_has_a_reader():
    unread = _unread(_trees())
    assert unread == [], (
        "no reader in src/ or bench/; delete these, move them into tests/ "
        "or give them a KEEP reason: " + ", ".join(unread))


def test_keep_list_names_are_defined():
    defined = {name for _, _, name, _ in _package_definitions(_trees())}
    assert sorted(set(KEEP) - defined) == []
    assert all(reason.strip() for reason in KEEP.values())


def _private_imports(trees):
    """(module, imported module, name) of every _-prefixed name a module
    of the package imports from another of its modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("carleman_lab."):
                    continue
                module = module[len("carleman_lab."):]
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield path.stem, module, alias.name


def test_no_private_names_cross_modules():
    found = set(_private_imports(_trees()))
    assert sorted(found - set(PRIVATE_IMPORTS)) == [], (
        "make these names public or give them a PRIVATE_IMPORTS reason")
    # an entry nothing imports any more goes too
    assert sorted(set(PRIVATE_IMPORTS) - found) == []
    assert all(reason.strip() for reason in PRIVATE_IMPORTS.values())
