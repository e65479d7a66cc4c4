"""Every name the package defines has a reader, and no module of the
package imports another module's private names.

A module-level function or class of src/carleman_lab, or a method or
property of one of its classes, must be referred to by code in src/ or
bench/ outside its own definition; KEEP exempts no function.  Code
means the syntax tree: a name, an attribute, an import or a keyword
argument.  The (module, function) and (module, class, method)
tables FUNCTIONS and METHODS of bench/tracer.py count too, because the
tracer looks their names up with getattr.  Docstrings and comments do
not count, and neither do tests: a name only tests call is a test helper
and belongs in tests/ (tests/paper_checks.py holds the paper's checks
that no command runs).

A field of one of those classes (an annotation in the class body, or
self.<name> assigned in __init__) must be read by package code while
the commands run, or stand on KEEP as Class.field.  A census finds the
reads: run as a script, this file wraps __getattribute__ on every class
of the package and records each (class, name) that a frame of package
code reads while all, forward, verify-snapshot and verify-stability run
with --plot on the default config and on bench/cfg2d.json.  A read on
one class does not pass a namesake field of another, and assigning a
field is not reading it.

A defaulted parameter of one of those functions or methods, __init__
included, must be passed, by position or by keyword, by some call in
src/ or bench/ that reaches the function, or stand on KEEP_PARAMETERS
as module.function.parameter; and it must be left out by some such
call.  A default that only tests override is a second code path that
no command takes, and one that every call overrides is a second copy
of a value that its callers hold (default.json's settings, for one):
only tests take it, and the parameter is required.  The __init__ that
@dataclass writes counts: its parameters are the class's fields in
order, less those declared field(init=False), and a field with a
default or a default_factory is a defaulted one.  A call that unpacks
*args may pass, and may leave out, every position from there on; one
that unpacks **kwargs every keyword.

A call reaches a function when its callee resolves to it.  A callee
named through what the calling module binds (a def or class of its
own, an import of a module or a name, at any depth, and cls in a
class's body) resolves to the module that defines it, following the
imports of the package modules it passes through: bench/run.py's own
run() and subprocess.run() do not reach cli.run.  A callee that no
binding resolves (a method of a local, a builtin) reaches every
function and method of its bare name (the class name for __init__).

A module of src/carleman_lab imports a _-prefixed name of another only
where PRIVATE_IMPORTS gives the reason; anything else the two modules
share is public.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carleman_lab"

# fields no command reads, each with the reason it stays
KEEP = {
    "ReconstructionResult.c_hat":
        "reconstruct's estimate, read by tests/test_stability.py::"
        "test_reconstruct_prior_data_returns_prior",
}

# defaulted parameters no call in src/ or bench/ passes, each with the
# reason it stays
KEEP_PARAMETERS = {
    "cli.main.argv":
        "the parser's argument list; the console script passes none, and "
        "tests drive the parser through it",
}

# the commands and configs of the field census, each run with --plot
CENSUS_COMMANDS = ("all", "forward", "verify-snapshot", "verify-stability")
CENSUS_CONFIGS = (None, ROOT / "bench" / "cfg2d.json")

# (importing module, imported module, private name) -> why it is shared
PRIVATE_IMPORTS = {}


def _trees() -> dict:
    return {path: ast.parse(path.read_text())
            for top in ("src", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))}


def _package_paths(trees) -> list:
    return sorted(path for path in trees if path.parent == PACKAGE)


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
    for path in _package_paths(trees):
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
    """Definitions with no reference outside themselves."""
    where = defaultdict(list)   # name -> [(path, line)] of its references
    for path, tree in trees.items():
        for name, line in _references(path, tree):
            where[name].append((path, line))
    return [f"{path.stem}.{qualified}"
            for path, qualified, name, node in _package_definitions(trees)
            if all(other == path and node.lineno <= line <= node.end_lineno
                    for other, line in where[name])]


def _module(path) -> str:
    """The dotted name a module is imported by: carleman_lab.<stem> in
    the package, the bare stem in bench/ (its scripts import one another
    that way)."""
    return f"carleman_lab.{path.stem}" if path.parent == PACKAGE else path.stem


def _bindings(path, tree) -> dict:
    """name -> dotted path of every name the module binds by def, class
    or import, at any depth."""
    module = _module(path)
    bound = {node.name: f"{module}.{node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                first = alias.name.partition(".")[0]
                bound[alias.asname or first] = (alias.name if alias.asname
                                                else first)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module.rsplit(".", node.level)[0]
                base = f"{parent}.{base}" if base else parent
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def _home(dotted, bindings) -> str:
    """dotted followed through the imports of the modules it passes, to
    the module that defines the name."""
    parts = dotted.split(".")
    for i in range(1, len(parts)):
        module = ".".join(parts[:i])
        if module in bindings:
            target = bindings[module].get(parts[i], f"{module}.{parts[i]}")
            if target == f"{module}.{parts[i]}":
                return dotted
            return _home(".".join([target, *parts[i + 1:]]), bindings)
    return dotted


def _calls(trees) -> list:
    """(dotted callee or None, bare callee name, positional count, index
    of the first *args or None, keyword names with None standing for
    **kwargs) of every call.  A callee reached through a name the module
    binds (a def, a class or an import, and cls in a class's body) is
    resolved to the module that defines it; any other (a method of a
    local, a builtin) is None and matches by its bare name."""
    bindings = {_module(path): _bindings(path, tree)
                for path, tree in trees.items()}
    calls = []
    for path, tree in trees.items():
        module = _module(path)
        bound = bindings[module]
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, attrs = node.func, []
            while isinstance(func, ast.Attribute):
                attrs.insert(0, func.attr)
                func = func.value
            root = getattr(func, "id", None)
            dotted = None
            if root == "cls" and id(node) in owner and not attrs:
                dotted = f"{module}.{owner[id(node)]}"
            elif root in bound:
                dotted = _home(".".join([bound[root], *attrs]), bindings)
            name = attrs[-1] if attrs else root
            star = next((i for i, arg in enumerate(node.args)
                         if isinstance(arg, ast.Starred)), None)
            calls.append((dotted, name, len(node.args), star,
                          {k.arg for k in node.keywords}))
    return calls


def _defaulted_parameters(trees):
    """(module.function.parameter, dotted callee, bare callee, position,
    parameter name) of every defaulted parameter of a package function
    or method; position counts the arguments a call gives (self and cls
    excluded) and is None for a keyword-only parameter.  An __init__ is
    called as its class."""
    for path in _package_paths(trees):
        for qualified, name, node in _definitions(trees[path]):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls, _, _ = qualified.rpartition(".")
            args = node.args
            positional = args.posonlyargs + args.args
            bound = bool(cls) and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list)
            first = len(positional) - len(args.defaults)
            params = [(arg.arg, i - bound)
                      for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            dotted, bare = ((cls, cls) if name == "__init__"
                            else (qualified, name))
            for param, position in params:
                yield (f"{path.stem}.{qualified}.{param}",
                       f"{_module(path)}.{dotted}", bare, position, param)


def _is_dataclass(cls) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _field_call(value):
    """The keywords of a field(...) default, or None for a plain one."""
    if (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"):
        return {k.arg: k.value for k in value.keywords}
    return None


def _dataclass_parameters(trees):
    """(module.Class.__init__.parameter, dotted class, Class, position,
    parameter) of every defaulted parameter of the __init__ that
    @dataclass generates for a module-level class of the package."""
    for path in _package_paths(trees):
        for cls in trees[path].body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            position = 0
            for item in cls.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    continue
                keywords = _field_call(item.value) or {}
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                defaulted = item.value is not None and (
                    _field_call(item.value) is None
                    or {"default", "default_factory"} & set(keywords))
                if defaulted:
                    name = item.target.id
                    yield (f"{path.stem}.{cls.name}.__init__.{name}",
                           f"{_module(path)}.{cls.name}", cls.name,
                           position, name)
                position += 1


def _may_pass(call, position, param) -> bool:
    """Whether a call, as _calls records it, can pass the parameter param
    at position (None for a keyword-only one): it names it, or it
    unpacks **kwargs, or it reaches the position or unpacks *args at or
    before it."""
    _, _, count, star, keywords = call
    return (param in keywords or None in keywords
            or (position is not None
                and (count > position
                     or (star is not None and star <= position))))


def _must_pass(call, position, param) -> bool:
    """Whether a call passes param whatever its unpacked arguments hold:
    it names it, or it gives the position before any *args."""
    _, _, count, star, keywords = call
    return param in keywords or (
        position is not None
        and (count if star is None else star) > position)


def _parameter_calls(trees):
    """(module.function.parameter, position, parameter, [calls]) of every
    defaulted parameter, with the calls that reach its function: those
    resolved to it, and those no binding resolves whose bare name is
    the function's."""
    calls = _calls(trees)
    for reported, dotted, name, position, param in (
            *_defaulted_parameters(trees), *_dataclass_parameters(trees)):
        yield reported, position, param, [
            call for call in calls
            if call[0] == dotted or (call[0] is None and call[1] == name)]


def _unpassed(trees) -> list:
    """Defaulted parameters that no call can pass."""
    return [reported for reported, position, param, calls
            in _parameter_calls(trees)
            if not any(_may_pass(call, position, param) for call in calls)]


def _always_passed(trees) -> list:
    """Defaulted parameters that every call passes."""
    return [reported for reported, position, param, calls
            in _parameter_calls(trees)
            if all(_must_pass(call, position, param) for call in calls)]


def census(out_dir) -> set:
    """module.Class.name of every attribute that a frame of package code
    reads from an instance of a package class while the CLI runs
    CENSUS_COMMANDS on CENSUS_CONFIGS, with --plot, writing under
    out_dir."""
    import importlib

    import carleman_lab
    from carleman_lab import cli

    prefix = os.path.join(carleman_lab.__path__[0], "")
    reads = set()   # (class, name)

    def wrap(cls):
        original = cls.__getattribute__

        def __getattribute__(self, name):
            if sys._getframe(1).f_code.co_filename.startswith(prefix):
                reads.add((type(self), name))
            return original(self, name)

        cls.__getattribute__ = __getattribute__

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":   # it runs the CLI on import
            continue
        module = importlib.import_module(f"carleman_lab.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                wrap(value)
    for i, config in enumerate(CENSUS_CONFIGS):
        for command in CENSUS_COMMANDS:
            out = pathlib.Path(out_dir) / f"{command}-{i}"
            code = cli.run(command, config_path=config, plot=True, out=out)
            assert code == cli.EXIT_OK, (command, config)
    return {f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__qualname__}.{name}"
            for cls, name in reads}


def test_every_name_has_a_reader():
    unread = _unread(_trees())
    assert unread == [], (
        "no reader in src/ or bench/; delete these, move them into tests/ "
        "or give them a KEEP reason: " + ", ".join(unread))


def test_every_defaulted_parameter_is_passed():
    unpassed = [name for name in _unpassed(_trees())
                if name not in KEEP_PARAMETERS]
    assert unpassed == [], (
        "no call in src/ or bench/ passes these; make them required or "
        "constants, or give them a KEEP_PARAMETERS reason: "
        + ", ".join(unpassed))


def test_every_default_is_left_out_by_a_call():
    passed = _always_passed(_trees())
    assert passed == [], (
        "every call in src/ or bench/ passes these, so only tests take "
        "their default; make them required: " + ", ".join(passed))


def test_keep_parameters_are_defaulted_and_unpassed():
    # an entry whose parameter is gone or now passed goes too
    trees = _trees()
    assert sorted(set(KEEP_PARAMETERS) - set(_unpassed(trees))) == []
    assert all(reason.strip() for reason in KEEP_PARAMETERS.values())


def _parse(sources) -> dict:
    return {path: ast.parse(text) for path, text in sources.items()}


def test_calls_reach_the_function_their_module_imports():
    # one.f and two.f share a name: three calls one's through its import
    # and two's through the module, and bench/tool.py calls a def of its
    # own; by bare name the three calls would pass both rules for both
    sources = {
        PACKAGE / "one.py": "def f(a, b=1):\n    return a + b\n",
        PACKAGE / "two.py": "def f(a, b=1):\n    return a - b\n",
        PACKAGE / "three.py": ("from . import two\nfrom .one import f\n\n\n"
                               "def g():\n    return f(0, 2) + two.f(0)\n"),
        ROOT / "bench" / "tool.py": "def f(a):\n    return a\n\n\nf(3)\n",
    }
    trees = _parse(sources)
    assert _unpassed(trees) == ["two.f.b"]
    assert _always_passed(trees) == ["one.f.b"]


def test_unpacking_calls_may_pass_and_may_leave_out():
    # a call that unpacks *args or **kwargs may give b and may not, so
    # neither rule names it; written out, the same calls pass it always
    sources = {
        PACKAGE / "one.py": ("def f(a, b=1):\n    return a + b\n\n\n"
                             "def g(a, *, b=1):\n    return a - b\n"),
        PACKAGE / "two.py": ("from .one import f, g\n\n\n"
                             "def h(rest, options):\n"
                             "    return f(0, *rest) + g(0, **options)\n"),
    }
    trees = _parse(sources)
    assert _unpassed(trees) == []
    assert _always_passed(trees) == []
    sources[PACKAGE / "two.py"] = sources[PACKAGE / "two.py"].replace(
        "f(0, *rest) + g(0, **options)", "f(0, 2, *rest) + g(0, b=2)")
    trees = _parse(sources)
    assert _unpassed(trees) == []
    assert _always_passed(trees) == ["one.f.b", "one.g.b"]


def test_every_field_is_read_by_the_commands(tmp_path):
    # the census runs in a fresh interpreter, so that its wrappers stay
    # out of this process's classes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True)
    read = set(json.loads(done.stdout.splitlines()[-1]))
    trees = _trees()
    unread = [f"{path.stem}.{qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, _ in _fields(trees[path])
              if qualified not in KEEP
              and f"{path.stem}.{qualified}" not in read]
    assert unread == [], (
        "no package code read these fields while the commands ran; delete "
        "them, move them into tests/ or give them a KEEP reason: "
        + ", ".join(unread))


def test_keep_list_names_are_defined():
    # as fields: KEEP exempts no function
    trees = _trees()
    fields = {qualified for path in PACKAGE.glob("*.py")
              for qualified, _ in _fields(trees[path])}
    assert sorted(set(KEEP) - fields) == []
    assert all(reason.strip() for reason in KEEP.values())


def _private_imports(trees):
    """(module, imported module, name) of every _-prefixed name a module
    of the package imports from another of its modules."""
    for path in _package_paths(trees):
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


if __name__ == "__main__":
    print(json.dumps(sorted(census(sys.argv[1]))))
