"""The suite's own shape: every test it defines is one pytest collects.

A `test*` function or `Test*` class defined inside a function is never
collected, and a second definition of the same name in one module or class
body silently replaces the first.  Either hides a test while the suite still
passes.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
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
