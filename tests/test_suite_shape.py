"""The suite's own shape: every test it defines is one pytest collects.

A `test*` function or `Test*` class defined inside a function is never
collected, and a second definition of the same name in one module or class
body silently replaces the first.  Either hides a test while the suite still
passes.  The package's own shape: every name a module imports is read in it,
so an import that a deletion leaves behind goes with it.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "morinclass"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def collection_faults(source):
    """(line, message) for each test definition that pytest would miss or lose."""
    faults = []

    def visit(node, in_function, seen):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, DEFINITIONS):
                visit(child, in_function, seen)
                continue
            name = child.name
            if name.startswith(("test", "Test")):
                if in_function:
                    faults.append((child.lineno, f"{name} is defined inside a function"))
                elif name in seen:
                    faults.append((child.lineno, f"{name} is defined again (first at line "
                                                 f"{seen[name]})"))
                else:
                    seen[name] = child.lineno
            # a class body is a scope of its own; in a function nothing is collected
            visit(child, in_function or isinstance(child, FUNCTIONS), {})

    visit(ast.parse(source), False, {})
    return faults


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_every_test_is_collected(path):
    assert collection_faults(path.read_text()) == []


def test_guard_finds_hidden_tests():
    source = '''
def test_outer():
    def test_nested():
        pass

    class TestNested:
        pass


class TestBox:
    def test_twice(self):
        pass

    def test_twice(self):
        pass

    def helper(self):
        def test_inside_method():
            pass


def test_module_twice():
    pass


if True:
    def test_module_twice():
        pass


def test_box_name_is_free():
    pass
'''
    assert collection_faults(source) == [
        (3, "test_nested is defined inside a function"),
        (6, "TestNested is defined inside a function"),
        (14, "test_twice is defined again (first at line 11)"),
        (18, "test_inside_method is defined inside a function"),
        (27, "test_module_twice is defined again (first at line 22)"),
    ]


def unused_imports(source):
    """(line, name) for each name the module imports and never reads.

    A name is read where it is loaded anywhere in the module; the names of
    `__all__`, which a package re-exports, count as read.
    """
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    read = {node.id for node in nodes if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    for node in nodes:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    imported = [(node.lineno, alias.asname or alias.name.split(".")[0])
                for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_unused_imports():
    source = '''
import math
import os.path
from fractions import Fraction
from math import gcd, lcm as least
from .kernel import terms as kept, shift

__all__ = ["shift"]


def f(x):
    import numpy as np
    return kept(x) + math.pi
'''
    assert unused_imports(source) == [
        (3, "os"),
        (4, "Fraction"),
        (5, "gcd"),
        (5, "least"),
        (12, "np"),
    ]
