"""Every name the package defines has a reader.

A module-level function or class of src/carleman_lab, or a method or
property of one of its classes, must appear as a word somewhere in
src/ or bench/ outside its own definition, or stand on KEEP with the
reason it stays.  Tests do not count as readers: a name only tests call
is a test helper and belongs in tests/.
"""

import ast
import pathlib
import re

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


def _sources() -> dict:
    return {path: path.read_text().splitlines()
            for top in ("src", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))}


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


def _package_definitions(sources):
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for qualified, name, node in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                yield path, qualified, name, node


def _read_elsewhere(name, path, node, sources) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    for other, lines in sources.items():
        for number, line in enumerate(lines, start=1):
            if other == path and node.lineno <= number <= node.end_lineno:
                continue
            if word.search(line):
                return True
    return False


def test_every_name_has_a_reader():
    sources = _sources()
    unread = [f"{path.stem}.{qualified}"
              for path, qualified, name, node in _package_definitions(sources)
              if name not in KEEP
              and not _read_elsewhere(name, path, node, sources)]
    assert unread == [], (
        "no reader in src/ or bench/; delete these, move them into tests/ "
        "or give them a KEEP reason: " + ", ".join(unread))


def test_keep_list_names_are_defined():
    defined = {name for _, _, name, _ in _package_definitions(_sources())}
    assert sorted(set(KEEP) - defined) == []
    assert all(reason.strip() for reason in KEEP.values())
