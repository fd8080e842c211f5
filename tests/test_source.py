"""Checks on the package source itself."""

import ast
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oneloop
from oneloop.exact import QI, Rad, RadC
from oneloop.generators import _ARITY
from oneloop.quatarith import QuatInt, QuatParams

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish there; the package raises AssertionError explicitly instead.
    sources = sorted(Path(oneloop.__file__).parent.rglob("*.py"))
    assert any(path.name == "liealg.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


NUMPY_RANDOM = re.compile(r"\b(?:np|numpy)\s*\.\s*random\b|from\s+numpy\s+import\b.*\brandom\b")


def test_no_numpy_random():
    # Seeded points come from the standard library's random, whose sequence
    # Python keeps across versions; numpy.random promises no such thing and
    # costs every float command its import.
    sources = sorted(Path(oneloop.__file__).parent.rglob("*.py"))
    assert any(path.name == "geometry.py" for path in sources)
    found = [f"{path.name}:{number}"
             for path in sources
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if NUMPY_RANDOM.search(line)]
    assert found == []
    assert all(map(NUMPY_RANDOM.search, (
        "rng = np.random.default_rng(seed)", "import numpy.random",
        "from numpy import linalg, random"))), "the pattern must catch these"


def _numpy_imports(tree):
    """Line numbers of the imports of numpy, or of a numpy submodule, in a
    module's syntax tree, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            found.append(node.lineno)
    return found


def test_no_numpy():
    # The float commands run in plain Python: numpy's import costs more
    # than their whole computation at the matrix sizes they use.
    sources = sorted(Path(oneloop.__file__).parent.rglob("*.py"))
    assert any(path.name == "geometry.py" for path in sources)
    found = [f"{path.name}:{line}" for path in sources
             for line in _numpy_imports(_parse(path))]
    assert found == []


def test_no_numpy_on_a_synthetic_source():
    tree = ast.parse("import os\n"
                     "import numpy as np\n"
                     "from numpy.linalg import inv\n"
                     "from . import numpy_free\n"
                     "def f():\n"
                     "    import numpy.random\n")
    assert _numpy_imports(tree) == [2, 3, 6]


def _package_imports(tree, module):
    """Line numbers of the imports of ``oneloop.<module>`` in a package
    module's syntax tree, absolute or relative, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # A relative import is read as one from the package root.
            base = ".".join(filter(None, ["oneloop" if node.level else None, node.module]))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(target.split(".")[:2] == ["oneloop", module] for target in targets):
            found.append(node.lineno)
    return found


def test_no_module_imports_the_cli():
    # Under python -m oneloop.cli the driver runs as __main__, so a suite
    # that imported oneloop.cli would compile and execute the driver a
    # second time in every process.
    sources = sorted(Path(oneloop.__file__).parent.rglob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = [f"{path.name}:{line}" for path in sources
             for line in _package_imports(_parse(path), "cli")]
    assert found == []


def test_no_cli_import_on_a_synthetic_source():
    tree = ast.parse("import os\n"
                     "import oneloop.cli\n"
                     "from oneloop.cli import main\n"
                     "from oneloop import cli, geometry\n"
                     "from .cli import RunConfig\n"
                     "from . import cli as driver\n"
                     "from .client import connect\n"
                     "import oneloop.client\n"
                     "from oneloop import clients\n"
                     "def f():\n"
                     "    from .cli import main\n")
    assert _package_imports(tree, "cli") == [2, 3, 4, 5, 6, 11]


def _lattice_importers(trees):
    """For heis and quatarith, the sorted names of the modules in ``trees``
    (module name to syntax tree) that import it."""
    return {module: sorted(name for name, tree in trees.items()
                           if _package_imports(tree, module))
            for module in ("heis", "quatarith")}


def test_the_lattice_layer_keeps_to_itself():
    # The metric commands read c from params.c_compatible, so only quatarith
    # imports heis, and the CLI reaches quatarith through its table of
    # commands alone, which names the module as a string.
    from oneloop.cli import _COMMANDS

    trees = {path.stem: _parse(path) for path in (ROOT / "src" / "oneloop").glob("*.py")}
    assert _COMMANDS["lattice"][0][0] == "quatarith"
    assert _lattice_importers(trees) == {"heis": ["quatarith"], "quatarith": []}


def test_lattice_importers_on_a_synthetic_source():
    # An import inside a function body counts, as one at module level does.
    trees = {"cli": ast.parse("def resolve_c(config):\n"
                              "    from .quatarith import c_compatible\n"),
             "fields": ast.parse("from oneloop.heis import hermitian\n"),
             "quatarith": ast.parse("from .heis import HeisPoint\n"),
             "volume": ast.parse("from .heisenberg import group\nimport oneloop.params\n")}
    assert _lattice_importers(trees) == {"heis": ["fields", "quatarith"], "quatarith": ["cli"]}


def _import_time_imports(tree, module):
    """Line numbers of the imports of ``module``, or of a submodule, that run
    when the tree's module is imported: outside function bodies and outside
    ``if TYPE_CHECKING:`` blocks (their ``else`` branch does run)."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            pending.extend(node.orelse)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == module for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == module:
                found.append(node.lineno)
        else:
            pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_module_imports_argparse_at_import_time():
    # A well-formed argv is read from the CLI's flag table; argparse, with
    # the gettext and locale it loads, is imported only where help, a usage
    # error or another spelling needs it.
    sources = sorted(Path(oneloop.__file__).parent.rglob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = [f"{path.name}:{line}" for path in sources
             for line in _import_time_imports(_parse(path), "argparse")]
    assert found == []


def test_import_time_imports_on_a_synthetic_source():
    tree = ast.parse("import os\n"
                     "import argparse\n"
                     "if TYPE_CHECKING:\n"
                     "    import argparse\n"
                     "else:\n"
                     "    from argparse import Namespace\n"
                     "try:\n"
                     "    import os, argparse as ap\n"
                     "except ImportError:\n"
                     "    pass\n"
                     "class Parser:\n"
                     "    import argparse\n"
                     "def parse():\n"
                     "    import argparse\n"
                     "from . import argparse_free\n"
                     "import argparser\n")
    assert _import_time_imports(tree, "argparse") == [2, 6, 8, 12]


def _imports(tree, module):
    """Line numbers of the imports of ``module``, or of a submodule, at any
    depth: in function bodies and ``if TYPE_CHECKING:`` blocks too."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == module for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == module)


def test_no_module_imports_json_or_cmath():
    # The CLI renders its JSON reports itself and geometry forms its complex
    # numbers with math, so no process pays for the json package (its
    # decoder and scanner included) or for cmath.
    sources = sorted(Path(oneloop.__file__).parent.rglob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = [f"{path.name}:{line}" for path in sources for module in ("json", "cmath")
             for line in _imports(_parse(path), module)]
    assert found == []


def test_no_command_module_imports_the_flows():
    # No subcommand runs a flow: no module that a command process loads
    # imports oneloop.flows, so only the tests compile it.
    from test_cli import MODULE_BUDGET

    package = Path(oneloop.__file__).parent
    loaded = set().union(*MODULE_BUDGET.values()) | {"__init__", "cli", "record"}
    assert "flows" not in loaded and (package / "flows.py").exists()
    found = [f"{name}.py:{line}" for name in sorted(loaded)
             for line in _package_imports(_parse(package / f"{name}.py"), "flows")]
    assert found == []


def test_json_cmath_and_flows_imports_on_a_synthetic_source():
    tree = ast.parse("import os, json\n"
                     "from json import dumps\n"
                     "import jsonschema\n"
                     "if TYPE_CHECKING:\n"
                     "    import cmath as cm\n"
                     "def render(report):\n"
                     "    from json.encoder import JSONEncoder\n"
                     "    from .flows import flow\n"
                     "from . import json_free\n"
                     "import oneloop.flows\n"
                     "from oneloop import flowsheet\n")
    assert _imports(tree, "json") == [1, 2, 7]
    assert _imports(tree, "cmath") == [5]
    assert sorted(_package_imports(tree, "flows")) == [8, 10]


def test_handlers_live_with_their_suites():
    # cli.py holds the table of commands; each handler is defined in the
    # module that the table names, and none in cli.py.
    from oneloop.cli import _COMMANDS

    package = ROOT / "src" / "oneloop"
    defined = {path.stem: {node.name for node in _parse(path).body
                           if isinstance(node, ast.FunctionDef)}
               for path in package.glob("*.py")}
    assert not {name for name in defined["cli"] if name.startswith("cmd_")}
    placed = [(module, handler) for (module, handler), *_ in _COMMANDS.values()]
    assert len(placed) == 6
    assert [entry for entry in placed if entry[1] not in defined[entry[0]]] == []


def _outcome_writes(tree):
    """Lines of a module tree that decide a process outcome outside
    ``cli.main``: a ``cmd_*`` function's return of a three-element tuple (a
    report, rows and an exit status) and a write of a ``"command"`` dict key,
    as a dict display key, a subscript store or a ``dict(command=...)``."""
    returns = [node.lineno for top in ast.walk(tree)
               if isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_")
               for node in ast.walk(top)
               if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
               and len(node.value.elts) == 3]
    writes = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Dict) and any(
                  isinstance(key, ast.Constant) and key.value == "command"
                  for key in node.keys)
              or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and isinstance(node.slice, ast.Constant) and node.slice.value == "command"
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "dict"
              and any(kw.arg == "command" for kw in node.keywords)]
    return sorted(returns), sorted(writes)


def test_main_alone_owns_the_outcome():
    # A handler returns its report and CSV rows; cli.main alone names the
    # command in the report and maps its all_pass to the exit status.
    found = {path.name: _outcome_writes(_parse(path))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    assert {name: returns for name, (returns, _) in found.items() if returns} == {}
    assert [name for name, (_, writes) in found.items() if writes] == ["cli.py"]


OUTCOMES = """
def cmd_check(config):
    if config.quick:
        return {"command": "check"}, None, 0
    report = {"all_pass": True}
    report["command"] = "check"
    return report, None


def cmd_rows(config):
    return dict(command="rows"), [], 1


def helper():
    return 1, 2, 3
"""


def test_outcome_checks_on_a_synthetic_source():
    assert _outcome_writes(ast.parse(OUTCOMES)) == ([4, 11], [4, 6, 11])


def _c_exact_readers(tree):
    """The names of the top-level definitions of a module tree that read an
    attribute named ``c_exact``, in source order; a read outside every
    definition is named ``<module>``."""
    return [getattr(top, "name", "<module>") for top in tree.body
            if any(isinstance(node, ast.Attribute) and node.attr == "c_exact"
                   for node in ast.walk(top))]


def test_c_has_one_owner():
    # RunConfig turns the LAM of --c-exact into c once, and every handler
    # reads config.c; lattice alone reads c_exact, for A:B.
    found = {path.stem: _c_exact_readers(_parse(path))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    assert "RunConfig" in found.pop("cli")
    assert {module: names for module, names in found.items() if names} == {
        "quatarith": ["cmd_lattice"]}


C_EXACT_READS = """
import math

LAM = settings.c_exact


def cmd_lattice(config):
    return config.c_exact[1:]


class Config:
    def resolve(self):
        return self.c_exact


def cmd_volume(config, c_exact=None):
    return config.c, c_exact, "c_exact"


def cmd_curvature(config):
    return math.pi * config.c_exact[0]
"""


def test_c_exact_readers_on_a_synthetic_source():
    # A parameter, a name or a string that spells c_exact is no read of it.
    assert _c_exact_readers(ast.parse(C_EXACT_READS)) == [
        "<module>", "cmd_lattice", "Config", "cmd_curvature"]


def _is_all(node):
    """Is node an assignment to ``__all__``?"""
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets))


def _names(tree, bare=True):
    """Every name that a tree reads, imports or looks up by string; without
    ``bare``, only its attribute reads and identifier strings, the two ways
    to reach a method (a bare name is a local variable or another function).

    The strings of an ``__all__`` list export names; they do not use them.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and bare:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias) and bare:
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value  # getattr lookups, as the benchmark tracer makes


def _annotated_class(annotation, classes):
    """The package class that an annotation names, or None."""
    if isinstance(annotation, ast.Name):
        annotation = annotation.id
    elif isinstance(annotation, ast.Constant):
        annotation = annotation.value
    return annotation if annotation in classes else None


def _classes(package):
    """Each package class by name: its method names, the package classes of
    its annotated fields and its package base classes."""
    tops = [top for tree in package.values() for top in tree.body
            if isinstance(top, ast.ClassDef)]
    names = {top.name for top in tops}
    return {top.name: (
        {node.name for node in top.body if isinstance(node, ast.FunctionDef)},
        {node.target.id: _annotated_class(node.annotation, names) for node in top.body
         if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)},
        [base.id for base in top.bases if isinstance(base, ast.Name) and base.id in names],
    ) for top in tops}


def _ancestors(classes, cls):
    """cls and its package base classes, nearest first."""
    return [cls] + [c for base in classes[cls][2] for c in _ancestors(classes, base)]


def _reached(classes, cls, name):
    """The package classes whose method ``name`` a read of it on an instance
    of cls can run: the nearest definition in cls and its bases, and every
    override in a subclass of cls."""
    inherited = [c for c in _ancestors(classes, cls) if name in classes[c][0]][:1]
    return inherited + [c for c in classes if name in classes[c][0]
                        and cls in _ancestors(classes, c)[1:]]


def _method_reads(tree, classes):
    """(class, name, reader) for each ``receiver.name`` read in a tree and
    each identifier string (a getattr lookup).

    class is the receiver's package class where the tree shows it: ``self``
    or ``cls`` in a method, a class name, a call of a class or of one of its
    class-level functions (``QI.coerce(x)``), a parameter or a field
    annotated with a class, a local name assigned one of these, or the left
    operand of an arithmetic operator.  Otherwise it is None.  reader is
    "K.m" for a read inside method m of class K (a nested function
    included), else None.
    """
    reads = []

    def resolve(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id) or (node.id if node.id in classes else None)
        if isinstance(node, ast.Call):
            func = node.func.value if isinstance(node.func, ast.Attribute) else node.func
            return func.id if isinstance(func, ast.Name) and func.id in classes else None
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value, env)
            return classes[owner][1].get(node.attr) if owner else None
        if isinstance(node, ast.BinOp):
            return resolve(node.left, env)
        return None

    def scope(function, cls, env, method):
        env = dict(env)
        args = function.args.posonlyargs + function.args.args + function.args.kwonlyargs
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in function.decorator_list)
        if method and args and not static and cls in classes:
            env[args[0].arg] = cls
        for arg in args:
            if annotated := _annotated_class(arg.annotation, classes):
                env[arg.arg] = annotated
        for node in ast.walk(function):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and (assigned := resolve(node.value, env))):
                env[node.targets[0].id] = assigned
        return env

    def visit(node, cls, env, reader):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, {}, None)
                continue
            if isinstance(child, ast.FunctionDef):
                method = isinstance(node, ast.ClassDef)
                visit(child, cls, scope(child, cls, env, method),
                      f"{cls}.{child.name}" if method else reader)
                continue
            if _is_all(child):
                continue
            if isinstance(child, ast.Attribute):
                reads.append((resolve(child.value, env), child.attr, reader))
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and child.value.isidentifier()):
                reads.append((None, child.value, reader))
            visit(child, cls, env, reader)

    visit(tree, None, {}, None)
    return reads


def _visible(tree, classes):
    """The package classes a tree defines or imports by name."""
    names = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    names.update(alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    return names & classes.keys()


def _unused(package, users):
    """Qualified names of the definitions in the ``package`` trees (name ->
    tree) that no tree of ``users`` (which includes them) uses.  Dunder
    methods are exempt: Python calls them.  A method that one package class
    defines is used only through an attribute read or an identifier string.

    A method whose name two or more package classes define is used only
    through a read that can run it (``_reached``): one whose receiver is an
    instance of its class, of a subclass that inherits it or of a base
    class that it overrides, or, where the receiver's class cannot be
    seen, of a class the reading module defines or imports.
    """
    classes = _classes(package)
    owners = Counter(name for methods, *_ in classes.values() for name in methods)
    uses = Counter(name for tree in users for name in _names(tree))
    reads = Counter(name for tree in users for name in _names(tree, bare=False))
    class_uses = set()
    for tree in users:
        visible = _visible(tree, classes)
        for cls, name, reader in _method_reads(tree, classes):
            if owners[name] < 2:
                continue
            for receiver in [cls] if cls else visible:
                for owner in _reached(classes, receiver, name):
                    if reader != f"{owner}.{name}":
                        class_uses.add((owner, name))
    unused = []
    for module, tree in package.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                defs += [(f"{top.name}.{node.name}", node) for node in top.body
                         if isinstance(node, ast.FunctionDef)]
            for qualname, node in defs:
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                method = qualname != node.name
                if method and owners[node.name] >= 2:
                    if (top.name, node.name) in class_uses:
                        continue
                elif ((reads if method else uses)[node.name]
                      > Counter(_names(node, bare=not method))[node.name]):
                    continue
                unused.append(f"{module}: {qualname}")
    return unused


def _missing_exports(tree):
    """The ``__all__`` entries of a module tree that it does not bind."""
    bound = set()
    exported = []
    for node in tree.body:
        if _is_all(node):
            exported += [elt.value for elt in ast.walk(node.value)
                         if isinstance(elt, ast.Constant)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in exported if name not in bound]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_used_outside_the_unit_tests():
    # A function, class or method that only unit tests call is an entry
    # point kept for them: it belongs in the tests.
    package = {path.name: _parse(path) for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    others = [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "bench").glob("*.py"))
    assert len(package) > 5 and len(others) > 1
    assert _unused(package, list(package.values()) + [_parse(path) for path in others]) == []


def test_every_export_is_defined():
    package = sorted((ROOT / "src" / "oneloop").glob("*.py"))
    missing = [f"{path.name}: {name}" for path in package
               for name in _missing_exports(_parse(path))]
    assert missing == []


SYNTHETIC = """
import os.path as osp
from fractions import Fraction

__all__ = ["exported_only", "used", "looked_up", "Box", "LIMIT", "osp", "Fraction",
           "gone"]
__all__ += ["caller"]
LIMIT = 3


def exported_only():
    return "exported_only"


def used():
    return 1


def looked_up():
    return 2


def caller():
    return used() + getattr(None, "looked_up") + total(Ring())


class Box:
    def opened(self):
        return self.opened


class Ring:
    def zero(self):
        return Ring()


class Field:
    def zero(self):
        return Field()


def total(ring: Ring, kind=Field):
    return ring.zero()
"""


def test_checks_on_a_synthetic_source():
    tree = ast.parse(SYNTHETIC)
    # Strings in __all__ do not count as uses, and neither do a definition's
    # own mentions of its name (the return value and the attribute read).
    # Ring.zero is called, so its namesake Field.zero is not used.
    assert _unused({"synthetic.py": tree}, [tree]) == [
        "synthetic.py: exported_only", "synthetic.py: caller",
        "synthetic.py: Box", "synthetic.py: Box.opened", "synthetic.py: Field.zero"]
    assert _missing_exports(tree) == ["gone"]


SHADOWED = """
class Table:
    def rows(self):
        return []

    def columns(self):
        return len(self.rows())


def width(table: Table):
    columns = table.rows()
    return len(columns)


print(width(Table()))
"""


def test_a_local_name_uses_no_method_on_a_synthetic_source():
    # The local variable columns reads no method: only an attribute read or
    # an identifier string uses Table.columns.
    tree = ast.parse(SHADOWED)
    assert _unused({"table.py": tree}, [tree]) == ["table.py: Table.columns"]


RECEIVERS = """
class Ring:
    unit: "Ring"

    def zero(self):
        return self.unit.zero()

    @staticmethod
    def make(n):
        return n.zero()


def reads(ring: Ring, other):
    made = Ring.make(1)
    return (ring.zero(), made.zero(), Ring().zero(), (made + other).zero(),
            other.zero(), getattr(other, "zero"))
"""


def test_method_receivers_on_a_synthetic_source():
    # The receiver's class is seen through self, a field annotation, a
    # parameter annotation, a class-level call, a constructor call and the
    # left operand of an operator; a static method's argument and a bare
    # parameter stay unknown, and so does a getattr string.
    tree = ast.parse(RECEIVERS)
    reads = [read for read in _method_reads(tree, _classes({"r.py": tree}))
             if read[1] == "zero"]
    assert reads == [("Ring", "zero", "Ring.zero"), (None, "zero", "Ring.make")] + [
        ("Ring", "zero", None)] * 4 + [(None, "zero", None)] * 2


INHERITANCE = """
class Shape:
    def area(self):
        return 0

    def describe(self):
        return self.label()

    def label(self):
        return "shape"


class Square(Shape):
    def label(self):
        return "square"

    def area(self):
        return 1


class Circle(Shape):
    def area(self):
        return 3


class Dot(Shape):
    pass


def total(circle: Circle, dot: Dot):
    return circle.area() + dot.area() + Square().describe()


print(total(Circle(), Dot()))
"""


def test_unused_overrides_on_a_synthetic_source():
    # Shape.describe's self.label() can run Square's override, and dot.area()
    # runs the area that Dot inherits from Shape; nothing can run Square.area.
    tree = ast.parse(INHERITANCE)
    assert _unused({"shapes.py": tree}, [tree]) == ["shapes.py: Square.area"]


def _dead_imports(tree):
    """Names that a module imports and never reads, in import order."""
    imported = [(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_test_modules_read_every_import():
    dead = [f"{path.name}: {name}" for path in sorted((ROOT / "tests").glob("*.py"))
            for name in _dead_imports(_parse(path))]
    assert dead == []


def test_dead_imports_on_a_synthetic_source():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport json\n"
                     "from math import pi, tau as turn\nprint(os.sep, turn)\n")
    assert _dead_imports(tree) == ["json", "pi"]


def _model_params_lines(tree):
    """Lines of a tree that take a ``params`` argument or name ModelParams."""
    return sorted(node.lineno for node in ast.walk(tree) if (
        isinstance(node, ast.arg) and node.arg == "params"
        or isinstance(node, ast.Name) and node.id == "ModelParams"
        or isinstance(node, ast.Attribute) and node.attr == "ModelParams"
        or isinstance(node, ast.alias) and node.name == "ModelParams"))


def _defined_names(tree):
    """Names of the functions and classes that a tree defines and of the
    names it assigns, at any depth, in order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            found += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return found


def _fact_definitions(tree):
    """Names of shears (any name holding SHEAR) and of ``signature`` that a
    tree assigns or defines, at any depth, in order."""
    return [name for name in _defined_names(tree) if "SHEAR" in name or name == "signature"]


def test_exact_layer_takes_n_not_model_params():
    # The exact symmetry layer reads only n; a ModelParams would carry a c
    # that it ignores.
    package = ROOT / "src" / "oneloop"
    found = {name: _model_params_lines(_parse(package / name))
             for name in ("polyfields.py", "matrices.py", "liealg.py")}
    assert found == {"polyfields.py": [], "matrices.py": [], "liealg.py": []}


SECOND_MATRIX_FORMS = {"blocks", "gl_decompose", "_wrap"}
DENSE_MATRIX_NAMES = {"entries", "_nonzero"}


def _second_matrix_forms(tree):
    """(line, name) of what the matrix model's one sparse form replaces, in
    source order: a function named blocks, gl_decompose or _wrap; an import
    of cached_property; and a dense ``entries`` or a ``_nonzero`` cache,
    defined in the body of a class MatGl, read or written as an attribute,
    or named by a string."""
    found = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in SECOND_MATRIX_FORMS]
    found += [(node.lineno, alias.name) for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for alias in node.names if alias.name.rpartition(".")[2] == "cached_property"]
    body = [node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and cls.name == "MatGl" for node in cls.body]
    found += [(node.lineno, node.name) for node in body
              if isinstance(node, ast.FunctionDef) and node.name in DENSE_MATRIX_NAMES]
    found += [(node.lineno, target.id) for node in body if isinstance(node, ast.AnnAssign)
              for target in [node.target] if target.id in DENSE_MATRIX_NAMES]
    found += [(node.lineno, target.id) for node in body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in DENSE_MATRIX_NAMES]
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in DENSE_MATRIX_NAMES]
    found += [(node.lineno, node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value in DENSE_MATRIX_NAMES]
    return sorted(found)


def test_the_matrix_model_has_one_form():
    # A matrix is its sorted nonzero triples, made by its checking
    # constructor, and coordinates is the one reader of an element.
    assert _second_matrix_forms(_parse(ROOT / "src" / "oneloop" / "matrices.py")) == []


DENSE_MATRIX = """
from functools import cached_property, lru_cache


class MatGl:
    entries: tuple
    rows = _nonzero = ()

    @cached_property
    def _nonzero(self):
        return [row for row in self.entries if row]

    @classmethod
    def _wrap(cls, entries):
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        return out


class Table:
    entries: tuple


def blocks(X, entries=()):
    entries = X.rows
    return entries


def gl_decompose(M):
    return M
"""


def test_second_matrix_forms_on_a_synthetic_source():
    # A parameter, a local variable or another class's field named entries
    # is not the dense form.
    assert _second_matrix_forms(ast.parse(DENSE_MATRIX)) == [
        (2, "cached_property"), (6, "entries"), (7, "_nonzero"), (10, "_nonzero"),
        (11, "entries"),
        (14, "_wrap"), (16, "entries"), (24, "blocks"), (29, "gl_decompose")]


def test_shears_and_signature_are_defined_once():
    # The V_k shear, the metric's shear and the form's signature are each
    # stated once, in params.py; every other module imports them.
    found = {path.name: _fact_definitions(_parse(path))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    assert {name: defs for name, defs in found.items() if defs} == {
        "params.py": ["THETA_SHEAR", "VK_SHEAR", "signature"]}


def _kind_tables(tree):
    """Lines of the dict displays in a tree that are keyed by a generator
    kind of ``generators.generator_terms``, at any depth."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
            and any(isinstance(key, ast.Constant) and key.value in _ARITY for key in node.keys)]


def _shear_reads(tree):
    """Lines where a tree imports a shear (any name holding SHEAR) or reads
    one as an attribute, at any depth."""
    imported = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if "SHEAR" in alias.name]
    read = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and "SHEAR" in node.attr]
    return sorted(imported + read)


def test_generator_closed_forms_are_defined_once():
    # The chart-variable layout, the generators' coefficients and the number
    # of indices each kind takes are each stated once, in generators.py; the
    # exact fields, the float catalogue and its flows read them there.
    names = {"VarTable", "generator_terms", "_ARITY"}
    found = {path.name: ([name for name in _defined_names(tree) if name in names],
                         _kind_tables(tree))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))
             for tree in [_parse(path)]}
    assert {name: defs for name, (defs, _) in found.items() if defs} == {
        "generators.py": ["VarTable", "_ARITY", "generator_terms"]}
    assert {name: len(lines) for name, (_, lines) in found.items() if lines} == {
        "generators.py": 1}


def test_fields_reads_no_shear():
    # The float catalogue and its flows take every coefficient, the V(k)
    # angle shear included, from generators.generator_terms.
    for module in ("fields", "flows"):
        assert _shear_reads(_parse(ROOT / "src" / "oneloop" / f"{module}.py")) == [], module


def _complex_forms(tree):
    """Lines of a tree's complex numbers: calls of ``complex``, imaginary
    literals, and reads of ``.conjugate``, ``.real`` or ``.imag``, at any
    depth."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "complex"
                  or isinstance(node, ast.Constant) and isinstance(node.value, complex)
                  or isinstance(node, ast.Attribute)
                  and node.attr in ("conjugate", "real", "imag"))


def test_the_float_path_forms_no_complex_number():
    # A point is its real chart vector, and the catalogue is substituted
    # into the real chart once, in integers: the metric, the Killing check
    # and the flows evaluate real numbers, and never form a complex value or
    # project one onto the chart.
    for module in ("geometry", "fields", "flows"):
        assert _complex_forms(_parse(ROOT / "src" / "oneloop" / f"{module}.py")) == [], module


COMPLEX = """
z = complex(1, 2) + 3j
w = z.conjugate(), getattr(z, "real")
def f(p):
    return p.real * 2, (p.imag,), cmath.complex, p.reals
real, imag = 1.0, 2.0
"""


def test_complex_forms_on_a_synthetic_source():
    # The call, the literal and the three attribute reads are found; the
    # names real and imag, the string "real", p.reals and the attribute
    # cmath.complex are not.
    assert _complex_forms(ast.parse(COMPLEX)) == [2, 2, 3, 5, 5]


SHEARS = """
from .params import ModelParams, VK_SHEAR
from oneloop.params import THETA_SHEAR as shear
import oneloop.params

_INDEX_COUNT = {"YC": 0, "Ya": 1}


def flow_map(t):
    return oneloop.params.VK_SHEAR * t, {"YaBar": "Ya"}
"""


def test_shear_and_kind_checks_on_a_synthetic_source():
    tree = ast.parse(SHEARS)
    assert _shear_reads(tree) == [2, 3, 10]
    assert _kind_tables(tree) == [6]


FACTS = """
from .params import VK_SHEAR
_THETA_SHEAR = 4.0
shear = 2


def signature(n):
    scale, VK_SHEAR2 = 2, 3
    return (1,) * n


def generator(name, params):
    return name, params.n


def alpha(x, *, flag=None):
    from .params import ModelParams
    return ModelParams(x)
"""


def test_fact_checks_on_a_synthetic_source():
    tree = ast.parse(FACTS)
    assert _fact_definitions(tree) == ["_THETA_SHEAR", "signature", "VK_SHEAR2"]
    assert _model_params_lines(tree) == [12, 17, 18]


def _step_facts(tree):
    """Lines of a tree's parameters named ``step`` (of functions and lambdas)
    and of its assignments to a name or attribute FD_STEP, at any depth."""
    params = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.arg) and node.arg == "step"]
    assigned = [target.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                for root in getattr(node, "targets", None) or [node.target]
                for target in ast.walk(root)
                if isinstance(target, ast.Name) and target.id == "FD_STEP"
                or isinstance(target, ast.Attribute) and target.attr == "FD_STEP"]
    return sorted(params), sorted(assigned)


def test_finite_difference_step_is_one_constant():
    # The float verdicts' tolerances are calibrated at one step, FD_STEP in
    # geometry.py: no function takes a step that would move it.
    found = {path.name: _step_facts(_parse(path))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    assert {name: params for name, (params, _) in found.items() if params} == {}
    assert {name: len(lines) for name, (_, lines) in found.items() if lines} == {
        "geometry.py": 1}


STEPS = """
FD_STEP = 1e-3


def derivative(q, params, step=FD_STEP):
    return [x + step for x in q]


def rescale(h, *, step):
    geometry.FD_STEP = step
    FD_STEP, other = 2e-3, lambda step: step
    return h * FD_STEP
"""


def test_step_checks_on_a_synthetic_source():
    assert _step_facts(ast.parse(STEPS)) == ([5, 9, 11], [2, 10, 11])


RING_PRIVATE = {"_n", "_d", "_p", "_embeds", "_operand", "_refuse", "_element"}


def _ring_private_names(tree):
    """(line, name) of each ring-private name that a tree reads or writes as
    an attribute (``x._n``, ``getattr(x, "_n")``) or imports, in source
    order; whole names only."""
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in RING_PRIVATE]
    found += [(node.lineno, node.args[1].value) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in RING_PRIVATE]
    found += [(node.lineno, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              for alias in node.names if alias.name in RING_PRIVATE]
    return sorted(found)


def test_ring_storage_belongs_to_exact():
    # coerce and the public constructors are the only ways into a ring value;
    # no other module reads or builds its numerators.
    found = {path.name: _ring_private_names(_parse(path))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    assert found.pop("exact.py"), "exact.py itself uses these names"
    assert {name: spots for name, spots in found.items() if spots} == {}


RING_ACCESS = """
from .exact import QI, _element
from .exact import _operand as lift


def f(x, y):
    y._operands = x._n
    y._dense = x.numerators()
    return x._d, getattr(x, "_p"), x._embeds, exact._refuse
"""


def test_ring_private_names_on_a_synthetic_source():
    # A slot named _operands is not the ring's _operand.
    assert _ring_private_names(ast.parse(RING_ACCESS)) == [
        (2, "_element"), (3, "_operand"), (7, "_n"), (9, "_d"), (9, "_embeds"),
        (9, "_p"), (9, "_refuse")]


QUAT_COORDINATES = {"q0", "q1", "q2", "q3"}


def _coordinate_stores(tree):
    """(function, line) of each assignment to or deletion of a QuatInt
    coordinate attribute in a tree, ``setattr`` and ``__setattr__`` calls
    with a coordinate name included, at any depth; a store in the target of
    a ``for`` loop of ``enumerate_norm_one`` is tagged "scan" instead.

    Records hash by value, so a QuatInt that changes after it is hashed
    breaks every set and dict it is in; only the scan's candidate, which is
    never hashed, stored or returned, is refilled.
    """
    found = []

    def visit(node, function, scan):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr in QUAT_COORDINATES
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.append(("scan" if scan else function, node.lineno))
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in QUAT_COORDINATES):
            found.append((function, node.lineno))
        for field, value in ast.iter_fields(node):
            in_target = (scan or isinstance(node, ast.For) and field == "target"
                         and function == "enumerate_norm_one")
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, function, in_target)

    visit(tree, None, False)
    return found


def test_only_the_scan_refills_a_quaternion():
    found = {path.name: _coordinate_stores(_parse(path))
             for path in sorted((ROOT / "src" / "oneloop").glob("*.py"))}
    stores = {name: sorted({where for where, _ in spots})
              for name, spots in found.items() if spots}
    assert stores == {"quatarith.py": ["scan"]}
    assert len(found["quatarith.py"]) == 4, "the scan refills all four coordinates"


STORES = """
def enumerate_norm_one(params, bound):
    candidate = make()
    for candidate.q0, candidate.q1, (candidate.q2, candidate.q3) in rows():
        candidate.q0 += 1
        for inner in candidate.coords():
            keep(inner.q1)
    candidate.q3 = 0
    return [candidate.q0]


def elsewhere(q, p):
    for q.q2, label in pairs():
        p.value = q.q0
    setattr(q, "q1", 2)
    object.__setattr__(q, "q3", 3)
    setattr(q, "params", None)
    del q.q0
    q.q9 = 1
"""


def test_coordinate_stores_on_a_synthetic_source():
    # The scan's loop target is tagged; a store in the loop's body or after
    # it, and every store in any other function, is named with its line.
    assert _coordinate_stores(ast.parse(STORES)) == [
        ("scan", 4), ("scan", 4), ("scan", 4), ("scan", 4),
        ("enumerate_norm_one", 5), ("enumerate_norm_one", 8),
        ("elsewhere", 13), ("elsewhere", 15), ("elsewhere", 16), ("elsewhere", 18)]


@pytest.mark.parametrize("value", [
    QI(1, 2), Rad(2, 3, 1), RadC(Rad(2, 3, 1)), QuatInt(1, 0, 0, 0, QuatParams(2, 3)),
], ids=lambda value: type(value).__name__)
def test_per_term_values_are_slotted_and_unfrozen(value):
    # These are built once per product term or per norm-one hit, and the
    # scan refills one candidate per step, so an instance __dict__ or a
    # frozen dataclass's per-field object.__setattr__ would cost on every
    # one of them.
    cls = type(value)
    assert "__slots__" in vars(cls)
    assert not hasattr(value, "__dict__")
    assert cls.__setattr__ is object.__setattr__


@pytest.mark.parametrize("value", [
    QI(Fraction(1, 2), 3),
    Rad(2, 3, 1, Fraction(-1, 4), 0, 5),
    RadC(Rad(2, 3, 1), Rad(2, 3, 0, Fraction(1, 6))),
    RadC(Rad(5, 1, 1, 2), Rad(5, 1, 0, 1)) * RadC(Rad(5, 1, Fraction(2, 3))),
], ids=["QI", "Rad", "RadC", "RadC-product"])
def test_exact_scalars_hold_integers(value):
    # The ring operations run on Python ints alone: every slot, the ring
    # base's included, holds an int or a tuple of ints, never a nested scalar
    # object, and the one denominator is positive.
    slots = [name for cls in type(value).__mro__ for name in vars(cls).get("__slots__", ())]
    assert {"_p", "_n", "_d"} <= set(slots)
    for name in slots:
        held = getattr(value, name)
        assert type(held) is int or (
            type(held) is tuple and all(type(n) is int for n in held)), name
    assert value._d > 0
