"""Static checks on the tree that need nothing beyond the standard library.

Three of the linter's questions, answered from the AST of every module
under ``src/``, ``tests/`` and ``benchmarks/``:

* **unused imports** — a name an import binds that nothing in its scope
  reads.  ``__init__.py`` files re-export by importing, and a line marked
  ``# noqa: F401`` says the same, so both are exempt; names listed in
  ``__all__`` count as read.
* **undefined annotation names** — a name inside an annotation (string
  annotations included) that the module neither defines, imports nor gets
  from builtins.  With ``from __future__ import annotations`` nothing
  evaluates these at run time, so only a type checker would notice.
* **unused locals** — a name a function binds by plain assignment,
  ``with … as name`` or ``except … as name`` that nothing in the function
  (nested scopes included) reads.  ``_``-prefixed names, ``global`` /
  ``nonlocal`` names, tuple unpacking and functions that call ``locals()``
  are exempt; a class body is its own scope, so class attributes of a
  class defined inside a function are not the function's locals.

Run alone with ``python -m pytest tests/test_static.py``.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks")

_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules() -> List[Path]:
    return sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py"))


def _bound_names(node: ast.AST) -> Iterator[str]:
    """Names an import statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names an annotation reads, looking inside string annotations."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg, args.kwarg
            ]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(scope: ast.AST) -> Set[str]:
    """Names read anywhere inside ``scope``: loads, annotations (type
    aliases' subscripts too), ``__all__``."""
    names = {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(scope):
        names.update(_annotation_names(annotation))
    for node in ast.walk(scope):
        if isinstance(node, ast.Subscript):
            names.update(_annotation_names(node.slice))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def _imports_with_scope(tree: ast.Module) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """Every import statement with the innermost scope that holds it."""
    stack: List[Tuple[ast.AST, ast.AST]] = [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, scope
            stack.append((child, child if isinstance(child, _SCOPES) else scope))


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every unused import in a module's source."""
    tree = ast.parse(source)
    lines = source.splitlines()
    problems = []
    read_in = {}
    for node, scope in _imports_with_scope(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        if id(scope) not in read_in:
            read_in[id(scope)] = _read_names(scope)
        for name in _bound_names(node):
            if name not in read_in[id(scope)]:
                problems.append((node.lineno, f"unused import {name}"))
    return sorted(problems)


def undefined_annotation_names(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every annotation name nothing defines."""
    tree = ast.parse(source)
    defined = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(_bound_names(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
    problems = []
    for annotation in _annotations(tree):
        for name in _annotation_names(annotation):
            if name not in defined:
                problems.append(
                    (annotation.lineno, f"undefined name {name} in an annotation")
                )
    return problems


def _own_scope(function: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``function``'s body outside its nested scopes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _local_bindings(function: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` of the function's plain, ``with`` and ``except``
    bindings; tuple targets, attributes and subscripts bind no local."""
    for node in _own_scope(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = [node.optional_vars]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.lineno, node.name
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.lineno, target.id


def unused_locals(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every function local nothing reads."""
    problems = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, _FUNCTIONS):
            continue
        read = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        if "locals" in read:
            continue
        declared = {
            name
            for node in _own_scope(function)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        for line, name in _local_bindings(function):
            if name.startswith("_") or name in declared or name in read:
                continue
            problems.append((line, f"unused local {name}"))
    return sorted(problems)


MODULES = _modules()


def test_the_tree_is_found():
    assert len(MODULES) > 100


@pytest.mark.parametrize(
    "check", [unused_imports, undefined_annotation_names, unused_locals]
)
def test_no_problems(check):
    problems = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in MODULES
        if path.name != "__init__.py" or check is not unused_imports
        for line, what in check(path.read_text(encoding="utf-8"))
    ]
    assert not problems, "\n".join(problems)


_FLAWED = """\
from __future__ import annotations
import os
import json  # noqa: F401
from typing import TYPE_CHECKING, Dict, List, Union
if TYPE_CHECKING:
    from collections import OrderedDict
Alias = Union["OrderedDict", int]
__all__ = ["Dict"]
def f(x: "Tuple[int, int]") -> List[int]:
    import re
    return []
"""


def test_the_checks_find_what_they_look_for():
    assert unused_imports(_FLAWED) == [
        (2, "unused import os"), (10, "unused import re")
    ]
    assert undefined_annotation_names(_FLAWED) == [
        (9, "undefined name Tuple in an annotation")
    ]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "unused import os")]),
        ("import numpy as np\n", [(1, "unused import np")]),
        ("import os.path\nos.getcwd()\n", []),
        ("from a import b  # noqa: F401\n", []),
        ("from __future__ import annotations\n", []),
        ("from a import *\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from typing import List\nx: List[int] = []\n", []),
        ("from typing import List\ndef f() -> 'List[int]': ...\n", []),
        ("from typing import Dict\nAlias = Dict[str, 'int']\n", []),
        ("import re\ndef f():\n    return re\n", []),
        ("def f():\n    import re\n", [(2, "unused import re")]),
    ],
    ids=[
        "plain", "alias", "dotted_used", "noqa", "future", "star", "dunder_all",
        "annotation_use", "string_annotation_use", "alias_subscript_use",
        "read_in_nested_scope", "function_scope",
    ],
)
def test_unused_imports_case(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(x: Foo): ...\n", ["Foo"]),
        ("def f(x: 'Foo'): ...\n", ["Foo"]),
        ("x: 'Optional[int]' = None\n", ["Optional"]),
        ("def f(*args: A, **kw: B) -> C: ...\n", ["A", "B", "C"]),
        ("class Foo: ...\ndef f(x: 'Foo') -> Foo: ...\n", []),
        (
            "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
            "    from m import Foo\ndef f() -> 'Foo': ...\n",
            [],
        ),
        ("def f(x: int) -> None: ...\n", []),
    ],
    ids=[
        "bare", "string", "variable", "every_argument_kind", "local_class",
        "type_checking_import", "builtins",
    ],
)
def test_undefined_annotation_names_case(source, expected):
    assert [
        what.split()[2] for _, what in undefined_annotation_names(source)
    ] == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    x = 1\n", [(2, "unused local x")]),
        ("def f():\n    x: int = 1\n", [(2, "unused local x")]),
        ("def f():\n    a = b = 1\n    return a\n", [(2, "unused local b")]),
        (
            "def f():\n    with open('p') as fh:\n        pass\n",
            [(2, "unused local fh")],
        ),
        (
            "def f():\n    try:\n        pass\n"
            "    except ValueError as exc:\n        pass\n",
            [(4, "unused local exc")],
        ),
        (
            "async def f(c):\n    async with c() as conn:\n        pass\n",
            [(2, "unused local conn")],
        ),
        ("class A:\n    def m(self):\n        x = 1\n", [(3, "unused local x")]),
        (
            "def f():\n    def g():\n        y = 1\n    return g\n",
            [(3, "unused local y")],
        ),
        ("def f():\n    x = 1\n    return x\n", []),
        ("def f():\n    x = 0\n    x += 1\n", []),
        ("def f():\n    x = 1\n    del x\n", []),
        ("def f():\n    x = 1\n    def g():\n        return x\n    return g\n", []),
        ("def f():\n    _x = 1\n    _ = 2\n", []),
        ("X = 0\ndef f():\n    global X\n    X = 1\n", []),
        (
            "def f():\n    x = 0\n    def g():\n        nonlocal x\n"
            "        x = 1\n    g()\n    return x\n",
            [],
        ),
        ("def f():\n    a, b = 1, 2\n    return a\n", []),
        ("def f(c):\n    with c() as (a, b):\n        return a\n", []),
        ("def f():\n    x = 1\n    return locals()\n", []),
        ("def f(o):\n    o.x = 1\n    o['k'] = 2\n", []),
        ("x = 1\nclass A:\n    y = 2\n", []),
        # Classes defined inside a function: their attributes are theirs.
        (
            "def f():\n    seen = []\n    class Spy:\n        name = 'spy'\n"
            "        def run(self, ctx):\n            seen.append(ctx)\n"
            "    return Spy, seen\n",
            [],
        ),
        (
            "def f():\n    class Stage:\n        name = 'spy'\n"
            "        def __init__(self):\n            self.seen = []\n"
            "    return Stage()\n",
            [],
        ),
        (
            "def f():\n    class EmptyState:\n        channels = {}\n"
            "    return EmptyState()\n",
            [],
        ),
        (
            "def f(live):\n    class BlockedState:\n"
            "        channels = {u: 0 for u in live}\n    return BlockedState\n",
            [],
        ),
        (
            "def f(models):\n    for model in models:\n        totals = {}\n"
            "        class Audit:\n            name = 'audit'\n"
            "            def run(self):\n                totals[model] = 1\n"
            "        Audit().run()\n",
            [],
        ),
    ],
    ids=[
        "plain", "annotated", "chained", "with_as", "except_as", "async_with_as",
        "method", "nested_function", "read_later", "augmented", "deleted",
        "read_in_closure", "underscore", "global", "nonlocal", "tuple_unpacking",
        "with_tuple", "locals_call", "attribute_and_subscript", "module_and_class",
        "class_attr_beside_closure_method", "class_attr_beside_init",
        "class_attr_literal", "class_attr_reads_local", "class_in_loop",
    ],
)
def test_unused_locals_case(source, expected):
    assert unused_locals(source) == expected
