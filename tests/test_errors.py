"""The package raises one exception class: ParameterDomainError.

Any input ends in a finite value, a flagged pole, or a ParameterDomainError,
so every ``raise`` in ``src/kdvbwaves`` constructs that class, or names a
local bound to one.  The one other raise is PEP 562's AttributeError in the
package's ``__getattr__``, which is how Python reports a missing attribute.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import kdvbwaves
from kdvbwaves import errors

ALLOWED = "ParameterDomainError"
SOURCES = sorted(Path(kdvbwaves.__file__).parent.glob("*.py"))


def _constructs_allowed(node: ast.expr | None) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == ALLOWED)


def _own(body: list[ast.stmt]):
    """The nodes of a scope's body, without those of the functions defined in it."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _bad_raises(tree: ast.Module) -> list[int]:
    """Lines of the raises in ``tree`` that may raise a class other than ALLOWED."""
    bad = []
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    for scope in scopes:
        nodes = list(_own(scope.body))
        bound = {target.id for node in nodes if isinstance(node, ast.Assign)
                 and _constructs_allowed(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if not isinstance(node, ast.Raise) or _constructs_allowed(node.exc):
                continue
            if isinstance(node.exc, ast.Name) and node.exc.id in bound:
                continue
            if (getattr(scope, "name", None) == "__getattr__"
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "AttributeError"):
                continue  # PEP 562: how a module reports a missing attribute
            bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_raise_is_a_parameter_domain_error(path):
    assert _bad_raises(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, lines", [
    ("raise ParameterDomainError('x')", []),
    ("def f():\n    e = ParameterDomainError('x')\n    raise e from None", []),
    ("def __getattr__(name):\n    raise AttributeError(name)", []),
    ("raise ValueError('x')", [1]),
    ("raise", [1]),
    ("def f():\n    e = ValueError('x')\n    raise e", [3]),
    ("def f():\n    raise AttributeError('x')", [2]),
    ("def f():\n    e = ParameterDomainError('x')\n    def g(e):\n        raise e", [4]),
    ("def __getattr__(name):\n    def f():\n        raise AttributeError(name)", [3]),
], ids=["call", "bound-name", "pep-562", "other-class", "bare", "other-bound", "attribute",
        "name-bound-elsewhere", "nested-in-getattr"])
def test_the_raise_check_tells_the_allowed_class_from_any_other(source, lines):
    assert _bad_raises(ast.parse(source)) == lines


def test_errors_defines_exactly_one_exception_class():
    classes = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__]
    assert classes == [kdvbwaves.ParameterDomainError]
    assert issubclass(kdvbwaves.ParameterDomainError, ValueError)
