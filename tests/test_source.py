"""Checks on the package source itself."""

import ast
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


def _unused(package, users):
    """Qualified names of the definitions in the ``package`` trees (name ->
    tree) that no tree of ``users`` (which includes them) uses."""
    uses = Counter(name for tree in users for name in _names(tree))
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
                if uses[node.name] > Counter(_names(node))[node.name]:
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
    return used() + getattr(None, "looked_up")


class Box:
    def opened(self):
        return self.opened
"""


def test_checks_on_a_synthetic_source():
    tree = ast.parse(SYNTHETIC)
    # Strings in __all__ do not count as uses, and neither do a definition's
    # own mentions of its name (the return value and the attribute read).
    assert _unused({"synthetic.py": tree}, [tree]) == [
        "synthetic.py: exported_only", "synthetic.py: caller",
        "synthetic.py: Box", "synthetic.py: Box.opened"]
    assert _missing_exports(tree) == ["gone"]


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
