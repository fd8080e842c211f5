"""Checks on the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import oneloop
from oneloop.exact import QI, Rad, RadC
from oneloop.quatarith import QuatInt, QuatParams

ROOT = Path(__file__).resolve().parents[1]

# Definitions that nothing in src/, the acceptance suite or bench/ uses yet,
# kept on purpose.  Dunder methods are always exempt: Python calls them.
UNUSED_ALLOWED = {
    "Poly.subs": "exact substitution, for deciding the Killing equation "
                 "exactly (ROADMAP Direction 3)",
    "RadC.components": "the rational coordinates of a value, as "
                       "Rad.components gives them",
}


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


def _is_all(node):
    """Is node an assignment to ``__all__``?"""
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets))


def _names(tree):
    """Every name that a tree reads, imports or looks up by string.

    The strings of an ``__all__`` list export names; they do not use them.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
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
    """Each package class by name: its method names and the package classes
    of its annotated fields."""
    tops = [top for tree in package.values() for top in tree.body
            if isinstance(top, ast.ClassDef)]
    names = {top.name for top in tops}
    return {top.name: (
        {node.name for node in top.body if isinstance(node, ast.FunctionDef)},
        {node.target.id: _annotated_class(node.annotation, names) for node in top.body
         if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)},
    ) for top in tops}


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
    tree) that no tree of ``users`` (which includes them) uses.

    A method whose name two or more package classes define is used only
    through a read whose receiver is an instance of its class, or, where
    the receiver's class cannot be seen, of a class the reading module
    defines or imports.
    """
    classes = _classes(package)
    owners = Counter(name for methods, _ in classes.values() for name in methods)
    uses = Counter(name for tree in users for name in _names(tree))
    class_uses = set()
    for tree in users:
        visible = _visible(tree, classes)
        for cls, name, reader in _method_reads(tree, classes):
            if owners[name] < 2:
                continue
            for owner in [cls] if cls else visible:
                if name in classes[owner][0] and reader != f"{owner}.{name}":
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
                if qualname != node.name and owners[node.name] >= 2:
                    if (top.name, node.name) in class_uses:
                        continue
                elif uses[node.name] > Counter(_names(node))[node.name]:
                    continue
                if qualname not in UNUSED_ALLOWED:
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


@pytest.mark.parametrize("value", [
    QI(1, 2), Rad(2, 3, 1), RadC(Rad(2, 3, 1)), QuatInt(1, 0, 0, 0, QuatParams(2, 3)),
], ids=lambda value: type(value).__name__)
def test_per_term_values_are_slotted_and_unfrozen(value):
    # These are built once per scan candidate or per product term, so an
    # instance __dict__ or a frozen dataclass's per-field object.__setattr__
    # would cost on every one of them.
    cls = type(value)
    assert "__slots__" in vars(cls)
    assert not hasattr(value, "__dict__")
    assert cls.__setattr__ is object.__setattr__
