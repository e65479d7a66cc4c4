"""Every name the package defines has a reader, and no module of the
package imports another module's private names.

A module-level function or class of src/carleman_lab, or a method or
property of one of its classes, must be referred to by code in src/ or
bench/ outside its own definition, or stand on KEEP with the reason it
stays.  Code means the syntax tree: a name, an attribute, an import or
a keyword argument.  The (module, function) and (module, class, method)
tables FUNCTIONS and METHODS of bench/tracer.py count too, because the
tracer looks their names up with getattr.  A field of one of those
classes (an annotation in the class body, or self.<name> assigned in
__init__) must be read as an attribute in src/ or bench/, or stand on
KEEP as Class.field: assigning it is not reading it.  Docstrings and
comments do not count, and neither do tests: a name only tests call is
a test helper and belongs in tests/.

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
    "ReconstructionResult.c_hat":
        "reconstruct's estimate, read by tests/test_stability.py::"
        "test_reconstruct_prior_data_returns_prior",
    "WeightSet.beta_tilde": "the weight's closed form, checked in "
                            "tests/test_weights.py::"
                            "test_anchored_quadratic_closed_form",
    "WeightSet.beta": "the weight's closed form, checked in "
                      "tests/test_weights.py::"
                      "test_anchored_quadratic_closed_form",
    "WeightSet.K": "the weight's closed form, checked in "
                   "tests/test_weights.py::test_anchored_quadratic_closed_form "
                   "and test_monotonicity_in_K_and_lambda",
    "WeightSet.C0": "acceptance 2: min |grad beta_tilde| is positive",
    "TimeProfile.min_value": "the least 1/w, checked in tests/test_weights.py"
                             "::test_time_profile_examples and "
                             "test_time_profile_random_windows",
}

# (importing module, imported module, private name) -> why it is shared
PRIVATE_IMPORTS = {
    ("stability", "forward", "_flapack"):
        "the dense LAPACK Cholesky of the reconstruction's H1 "
        "preconditioner, until it is banded like the stepper's factor",
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


def _fields(tree):
    """(reported name, bare name) of every field of a module-level class:
    an annotation in its body, or self.<name> assigned in its __init__."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = {}
        for item in cls.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                names.setdefault(item.target.id)
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        names.setdefault(node.attr)
        for name in names:
            yield f"{cls.name}.{name}", name


def _unread(trees) -> list:
    """Definitions with no reference outside themselves, and fields that
    no attribute load reads: assigning a field, by keyword or by
    attribute, is not reading it."""
    where = defaultdict(list)   # name -> [(path, line)] of its references
    loaded = set()              # names read as an attribute
    for path, tree in trees.items():
        for name, line in _references(path, tree):
            where[name].append((path, line))
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load))
    unread = [f"{path.stem}.{qualified}"
              for path, qualified, name, node in _package_definitions(trees)
              if name not in KEEP
              and all(other == path and node.lineno <= line <= node.end_lineno
                      for other, line in where[name])]
    return unread + [f"{path.stem}.{qualified}"
                     for path in sorted(PACKAGE.glob("*.py"))
                     for qualified, name in _fields(trees[path])
                     if qualified not in KEEP and name not in loaded]


def test_every_name_has_a_reader():
    unread = _unread(_trees())
    assert unread == [], (
        "no reader in src/ or bench/; delete these, move them into tests/ "
        "or give them a KEEP reason: " + ", ".join(unread))


def test_keep_list_names_are_defined():
    trees = _trees()
    defined = {name for _, _, name, _ in _package_definitions(trees)}
    defined.update(qualified for path in PACKAGE.glob("*.py")
                   for qualified, _ in _fields(trees[path]))
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
