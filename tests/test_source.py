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


def _names(tree):
    """Every name that a tree reads, imports or looks up by string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value  # getattr lookups, as the benchmark tracer makes


def test_every_definition_is_used_outside_the_unit_tests():
    # A function, class or method that only unit tests call is an entry
    # point kept for them: it belongs in the tests.
    package = sorted((ROOT / "src" / "oneloop").glob("*.py"))
    users = package + [ROOT / "tests" / "test_acceptance.py"]
    users += sorted((ROOT / "bench").glob("*.py"))
    assert len(package) > 5 and len(users) > len(package) + 1
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path in package:
        for top in trees[path].body:
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
                    unused.append(f"{path.name}: {qualname}")
    assert unused == []


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
