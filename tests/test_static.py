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

Three more, about whether the code has a reader and each option a varier:

* **reachability** — walking the imports from the entry points (the
  ``repro-wigig`` CLI, the ``serve`` server, ``benchmarks/``,
  ``examples/`` and the Python the CI workflows run), is every ``src/``
  module, top-level function and class read by something other than tests
  and package re-exports (an attribute of that name, or a bare name in a
  reader that defines or imports it: a local or a parameter that shares
  the name does not count), does some entry point both read and set every
  ``SystemConfig`` field, and does every name an entry point imports
  exist?  One case per module; ``REACHABILITY_ALLOWLIST`` names what is
  kept anyway, with a reason.
* **option setters** — does committed code (a benchmark, an example, a
  workflow step, a CLI preset or a command line in the docs) name every
  field of ``FaultConfig``, ``TopologyConfig`` and ``SessionSpec`` and
  every ``repro-wigig`` flag with a value?  One case per surface; the
  override parsers reaching a field and tests setting it do not count,
  and addresses, ports and paths are exempt.
* **doc names** — is every backticked ``repro.…`` name in the top-level
  docs a module or something a module defines?

Run alone with ``python -m pytest --noconftest tests/test_static.py``.
"""

from __future__ import annotations

import ast
import re
import textwrap
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


# ----------------------------------------------------------- reachability

SRC = ROOT / "src"
PACKAGE = "repro"
WORKFLOWS = ROOT / ".github" / "workflows"
#: Files outside ``src/`` that run the package: every script and harness.
ROOT_TREES = ("benchmarks", "examples")
#: ``src/`` modules that are entry points themselves: the ``repro-wigig``
#: script (``repro.cli:main``) and the ``serve`` server.
ROOT_MODULES = ("repro.cli", "repro.service.server")

#: What no entry point reads or varies, kept on purpose: name -> reason.
REACHABILITY_ALLOWLIST = {
    "repro.fountain.gf256.gf_matmul_reference":
        "test oracle: the gather form the flat-table gf_matmul must equal",
    "repro.fountain.gf256.gf_multiply_reference":
        "test oracle: the gather form the flat-table gf_multiply must equal",
    "repro.phy.mcs.entry_for_index":
        "Table 2 lookup by MCS index, which test fixtures pin groups with",
    "SystemConfig.fps":
        "the paper's 30 fps live rate, from which every frame deadline derives",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _workflow_scripts() -> Iterator[Tuple[str, str]]:
    """``(label, python source)`` of what the CI workflows run: each
    heredoc script of a ``run:`` block, and each ``python -m`` module as
    an import of that module."""
    for path in sorted(WORKFLOWS.glob("*.yml")):
        text = path.read_text(encoding="utf-8")
        heredoc = re.compile(r"<<'?(\w+)'?\n(.*?)\n[ \t]*\1[ \t]*$", re.S | re.M)
        for match in heredoc.finditer(text):
            yield path.name, textwrap.dedent(match.group(2))
        for module in re.findall(r"-m (repro[\w.]*)", text):
            yield path.name, f"import {module}\n"


def _bindings(tree: ast.Module) -> Set[str]:
    """Names a module binds at top level."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
        else:
            names.update(
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            )
    return names


def _attributes(tree: ast.AST) -> Set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


class _Reach:
    """Which ``src/`` modules the roots import, following a package's
    re-exports only for the names asked of it: an ``__init__`` that
    imports a module does not make it reachable."""

    def __init__(self) -> None:
        self.modules = {
            _module_name(path): (path, _parse(path)) for path in sorted(SRC.rglob("*.py"))
        }
        self.reached: Set[str] = set()
        self.missing: List[Tuple[str, str, str]] = []
        #: Every root and every reached module outside an ``__init__``.
        self.readers: List[Tuple[str, ast.Module]] = []
        self._queue: List[str] = []

    def is_package(self, name: str) -> bool:
        return self.modules[name][0].name == "__init__.py"

    def run(self, roots: List[Tuple[str, ast.Module]]) -> "_Reach":
        for name in ROOT_MODULES:
            self._module(name)
        for label, tree in roots:
            self._read(label, tree)
        while self._queue:
            name = self._queue.pop()
            if not self.is_package(name):
                self._read(name, self.modules[name][1])
        return self

    def _module(self, name: str) -> None:
        if name not in self.modules or name in self.reached:
            return
        self.reached.add(name)
        self._queue.append(name)
        parent = name.rpartition(".")[0]
        if parent:
            self._module(parent)

    def _absent(self, name: str, by: str) -> bool:
        """Whether ``name`` is no module here; one of the package's is
        reported missing against the nearest package that exists."""
        if name in self.modules:
            return False
        if name.split(".")[0] == PACKAGE:
            parent = name.rpartition(".")[0]
            while parent not in self.modules:
                parent = parent.rpartition(".")[0]
            self.missing.append((parent, name, by))
        return True

    def _whole(self, name: str, attributes: Set[str], seen: Set[str], by: str) -> None:
        """Module ``name`` imported as a module: its attributes the
        importer reads are asked of it."""
        if self._absent(name, by) or name in seen:
            return
        seen.add(name)
        self._module(name)
        if not self.is_package(name):
            return
        exported = _bindings(self.modules[name][1])
        for attribute in sorted(attributes):
            if f"{name}.{attribute}" in self.modules:
                self._whole(f"{name}.{attribute}", attributes, seen, by)
            elif attribute in exported:
                self._name(name, attribute, "")

    def _name(self, module: str, name: str, by: str) -> None:
        """``from module import name``, by the reader labelled ``by``."""
        if f"{module}.{name}" in self.modules:
            self._module(f"{module}.{name}")
            return
        if self._absent(module, by):
            return
        self._module(module)
        tree = self.modules[module][1]
        for node in tree.body if self.is_package(module) else ():
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        source = _import_source(module, True, node)
                        return self._name(source, alias.name, by)
        if by and name not in _bindings(tree):
            self.missing.append((module, name, by))

    def _read(self, label: str, tree: ast.Module) -> None:
        self.readers.append((label, tree))
        is_package = label in self.modules and self.is_package(label)
        attributes = _attributes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._whole(alias.name, attributes, set(), label)
            elif isinstance(node, ast.ImportFrom):
                module = _import_source(label, is_package, node)
                for alias in node.names:
                    if f"{module}.{alias.name}" in self.modules:
                        self._whole(f"{module}.{alias.name}", attributes, set(), label)
                    else:
                        self._name(module, alias.name, label)


def _import_source(importer: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` in module ``importer`` names."""
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    if not is_package:
        base = base[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _roots() -> List[Tuple[str, ast.Module]]:
    files = sorted(p for tree in ROOT_TREES for p in (ROOT / tree).rglob("*.py"))
    roots = [(str(p.relative_to(ROOT)), _parse(p)) for p in files]
    roots += [(label, ast.parse(source)) for label, source in _workflow_scripts()]
    return roots


def _declared(tree: ast.Module) -> Set[str]:
    """Names by which a reader can mean a top-level definition: the
    functions and classes it defines at module level (inside ``if`` /
    ``try`` blocks too) and every name any of its imports binds."""
    names: Set[str] = set()
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.If, ast.Try)):
            statements.extend(
                child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)
            )
            for handler in getattr(node, "handlers", ()):
                statements.extend(handler.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
    return names


def _reads(statement: ast.AST, declared: Set[str]) -> Set[str]:
    """Names a statement reads: attributes, and the loads and annotation
    names among ``declared`` — a bare name its module neither defines nor
    imports is a local or a parameter, not a top-level definition."""
    names = {
        node.id
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(statement):
        names.update(_annotation_names(annotation))
    names &= declared
    names.update(
        node.attr
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )
    return names


def _references(readers: List[Tuple[str, ast.Module]]) -> dict:
    """Name -> the ``(reader, top-level statement)`` pairs that read it."""
    references: dict = {}
    for label, tree in readers:
        declared = _declared(tree)
        for index, statement in enumerate(tree.body):
            for name in _reads(statement, declared):
                references.setdefault(name, set()).add((label, index))
    return references


@pytest.mark.parametrize(
    "source, name, read",
    [
        ("from m import f\nf()\n", "f", True),
        ("def f(): ...\ndef g():\n    return f()\n", "f", True),
        ("import m\nm.f()\n", "f", True),
        ("def g(o):\n    return o.f\n", "f", True),
        ("def g():\n    from m import f\n    return f()\n", "f", True),
        ("if True:\n    def f(): ...\ng = f\n", "f", True),
        ("from m import F\ndef g(x: 'F'): ...\n", "F", True),
        ("def g():\n    f = 1\n    return f\n", "f", False),
        ("def g(f):\n    return f()\n", "f", False),
    ],
    ids=[
        "imported", "defined", "module_attribute", "attribute", "local_import",
        "defined_in_block", "string_annotation", "local_variable", "parameter",
    ],
)
def test_references_case(source, name, read):
    """Whether a reader keeps a top-level ``name`` elsewhere alive."""
    assert (name in _references([("reader", ast.parse(source))])) == read


#: An attribute read is a ``SystemConfig`` read when it is taken of a
#: value named like a config (``config.fps``, ``self.config.fps``,
#: ``ctx.base_config.fps``) or of ``self`` inside ``SystemConfig``.
_CONFIG_VALUE = re.compile(r"(^|_)(config|cfg)$")


def _value_name(node: ast.Attribute) -> str:
    """The last name of what an attribute is taken of (``config`` in
    ``self.config.fps``)."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    return value.attr if isinstance(value, ast.Attribute) else ""


def _class_fields(tree: ast.Module, name: str) -> List[str]:
    """The annotated fields of class ``name`` (a dataclass's options)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return []


def _config_reads(tree: ast.AST, inside_config: bool = False) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            reads |= _config_reads(node, node.name == "SystemConfig")
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            named = _value_name(node)
            if _CONFIG_VALUE.search(named) or (inside_config and named == "self"):
                reads.add(node.attr)
        reads |= _config_reads(node, inside_config)
    return reads


def _config_sets(tree: ast.AST) -> Set[str]:
    """Names a file could set a field by: keyword arguments, attribute
    stores and strings (override mappings, ``field=value`` pairs); a
    keyword that passes on the same-named attribute sets nothing."""
    sets: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            value = node.value
            if not (isinstance(value, ast.Attribute) and value.attr == node.arg):
                sets.add(node.arg)  # ``x=config.x`` hands a value on
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if _CONFIG_VALUE.search(_value_name(node)):
                sets.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            sets.add(node.value.split("=")[0])
    return sets


def reachability_report() -> dict:
    """Module name -> what in it no root reaches, one line per finding."""
    reach = _Reach().run(_roots())
    references = _references(reach.readers)
    report: dict = {name: [] for name in reach.modules}
    for module, name, by in reach.missing:
        report[module].append(f"{by} imports {name}, which {module} does not define")
    for module, (path, tree) in reach.modules.items():
        if module not in reach.reached:
            report[module].append(f"{module} is imported only by tests and re-exports")
            continue
        for index, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            readers = references.get(node.name, set()) - {(module, index)}
            if not readers and f"{module}.{node.name}" not in REACHABILITY_ALLOWLIST:
                report[module].append(f"{module}.{node.name} is read only by tests")
    config_module = "repro.core.config"
    reads: Set[str] = set()
    sets: Set[str] = set()
    for _, tree in reach.readers:
        reads |= _config_reads(tree)
        sets |= _config_sets(tree)
    for field in _class_fields(reach.modules[config_module][1], "SystemConfig"):
        if f"SystemConfig.{field}" in REACHABILITY_ALLOWLIST:
            continue
        if field not in reads or field not in sets:
            verbs = [v for v, seen in (("reads", reads), ("sets", sets)) if field not in seen]
            report[config_module].append(
                f"no entry point {' or '.join(verbs)} SystemConfig.{field}"
            )
    return report


REACHABILITY = reachability_report()


@pytest.mark.parametrize("module", sorted(REACHABILITY))
def test_every_line_has_a_reader(module):
    assert not REACHABILITY[module], "\n".join(REACHABILITY[module])


# --------------------------------------------------------- option setters

#: Docs whose fenced code blocks are command lines.
COMMAND_DOCS = ("README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md")
CLI = SRC / PACKAGE / "cli.py"
#: Addresses, ports and paths are where a run puts things, not knobs.
_LOCATION = re.compile(r"(^--host$|-port$|_path$)")


def _command_lines() -> List[str]:
    """Every committed command line, ``\\``-continuations joined: the lines
    of the docs' fenced blocks and of ``cli.py``'s usage docstring, and
    each ``run:`` step of the CI workflows."""
    texts = [ast.get_docstring(_parse(CLI)) or ""]
    for doc in COMMAND_DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        texts += re.findall(r"^\s*```[^\n]*\n(.*?)^\s*```", text, re.S | re.M)
    lines = [line for text in texts for line in re.sub(r"\\\n", " ", text).splitlines()]
    for path in sorted(WORKFLOWS.glob("*.yml")):
        step: List[str] = []
        indent = -1
        for line in path.read_text(encoding="utf-8").splitlines():
            if step and (not line.strip() or len(line) - len(line.lstrip()) > indent):
                step.append(line.strip())
                continue
            if step:
                lines.append(" ".join(step))
                step = []
            match = re.match(r"(\s*)(?:- )?run:\s*(.*)", line)
            if match:
                indent = len(match.group(1))
                step = [match.group(2)]
        if step:
            lines.append(" ".join(step))
    return lines


def _setters() -> List[Tuple[str, ast.Module]]:
    """The Python that sets options: benchmarks (not their tests),
    examples, the workflows' scripts and the CLI's presets."""
    files = sorted(
        p for tree in ROOT_TREES for p in (ROOT / tree).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts
    )
    trees = [(str(p.relative_to(ROOT)), _parse(p)) for p in files]
    trees += [(label, ast.parse(source)) for label, source in _workflow_scripts()]
    presets = [
        node for node in _parse(CLI).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id.endswith("_PRESETS") for t in node.targets)
    ]
    return trees + [("repro.cli presets", ast.Module(body=presets, type_ignores=[]))]


def _call_name(node: ast.Call) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _strings(node: ast.AST) -> Iterator[str]:
    return (
        sub.value for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def _block_setters(
    cls: str, prefix: str, setters: List[Tuple[str, ast.Module]], commands: List[str]
) -> Set[str]:
    """Fields of a config block that committed code names with a value: a
    keyword of a ``cls(...)`` call, a ``"<prefix>.field"`` override key or
    ``<prefix>.field=value`` pair, a fault-grid axis (``faults`` only)."""
    pair = re.compile(rf"(?<![\w]){prefix}\.(\w+)=")
    named: Set[str] = set()
    for _, tree in setters:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node) == cls:
                named.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Call) and _call_name(node).endswith("fault_grid"):
                if prefix == "faults" and node.args and isinstance(node.args[0], ast.Constant):
                    named.add(str(node.args[0].value))
            elif isinstance(node, ast.Dict):
                named.update(
                    key.value[len(prefix) + 1:]
                    for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and key.value.startswith(f"{prefix}.")
                )
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(pair.findall(node.value))
    for line in commands:
        named.update(pair.findall(line))
        if prefix == "faults":
            named.update(re.findall(r"--fault(?:-base)?\s+(\w+)=", line))
            named.update(re.findall(r"--fault-grid\s+(\w+)", line))
    return named


def _session_setters(
    setters: List[Tuple[str, ast.Module]], commands: List[str]
) -> Set[str]:
    """``SessionSpec`` fields named in a ``/start`` body or a ``SessionSpec``
    call."""
    named: Set[str] = set()
    for _, tree in setters:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) == "SessionSpec":
                named.update(k.arg for k in node.keywords if k.arg)
            elif "/start" in [a.value for a in node.args if isinstance(a, ast.Constant)]:
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        named.update(
                            key.value for key in arg.keys
                            if isinstance(key, ast.Constant) and isinstance(key.value, str)
                        )
    for line in commands:
        if "/start" in line:
            named.update(re.findall(r'"(\w+)"\s*:', line))
    return named


def _cli_flags() -> List[str]:
    """Every flag ``cli.py`` adds, addresses, ports and paths aside."""
    flags = []
    for node in ast.walk(_parse(CLI)):
        if isinstance(node, ast.Call) and _call_name(node) == "add_argument":
            flag = node.args[0].value if isinstance(node.args[0], ast.Constant) else ""
            paths = any(
                k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "Path"
                for k in node.keywords
            )
            if flag.startswith("--") and not paths and not _LOCATION.search(flag):
                flags.append(flag)
    return sorted(set(flags))


def _cli_setters(
    setters: List[Tuple[str, ast.Module]], commands: List[str]
) -> Set[str]:
    """Flags a committed ``repro-wigig`` command line passes: a doc or
    workflow line, or a benchmark or example that runs the CLI."""
    flags: Set[str] = set()
    for line in commands:
        if "repro-wigig" in line or "repro.cli" in line:
            flags.update(re.findall(r"(?<![\w-])(--[a-z][\w-]*)", line))
    for _, tree in setters:
        if not any("repro.cli" in s or "repro-wigig" in s for s in _strings(tree)):
            continue
        declared = {
            id(arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _call_name(node) == "add_argument"
            for arg in node.args
        }
        flags.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("--") and id(node) not in declared
        )
    return flags


def _init_keywords(tree: ast.Module, name: str) -> List[str]:
    """The parameters of class ``name``'s ``__init__`` that have defaults."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    return [a.arg for a in defaulted + args.kwonlyargs]
    return []


def _call_keywords(cls: str, trees: List[ast.Module]) -> Set[str]:
    """Keywords of every ``cls(...)`` call in ``trees``."""
    return {
        k.arg for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == cls
        for k in node.keywords if k.arg
    }


def options_report() -> dict:
    """Option surface -> its options no committed code sets."""
    package = SRC / PACKAGE
    setters, commands = _setters(), _command_lines()
    surfaces = {
        "FaultConfig": (
            _class_fields(_parse(package / "faults" / "config.py"), "FaultConfig"),
            _block_setters("FaultConfig", "faults", setters, commands),
        ),
        "TopologyConfig": (
            _class_fields(_parse(package / "phy" / "topology.py"), "TopologyConfig"),
            _block_setters("TopologyConfig", "topology", setters, commands),
        ),
        "SessionSpec": (
            [
                name
                for name in _class_fields(_parse(package / "service" / "session.py"), "SessionSpec")
                if not _LOCATION.search(name)
            ],
            _session_setters(setters, commands),
        ),
        "repro-wigig flags": (_cli_flags(), _cli_setters(setters, commands)),
        # The CLI's ``serve`` builds the server, so its code counts here.
        "ServiceServer": (
            _init_keywords(_parse(package / "service" / "server.py"), "ServiceServer"),
            _call_keywords("ServiceServer", [t for _, t in setters] + [_parse(CLI)]),
        ),
    }
    return {
        surface: [name for name in names if name not in sets]
        for surface, (names, sets) in surfaces.items()
    }


OPTIONS = options_report()


@pytest.mark.parametrize("surface", sorted(OPTIONS))
def test_every_option_has_a_setter(surface):
    """A knob that no benchmark, example, workflow, preset or documented
    command line sets with a value is a constant: the generic override
    parsers reaching it and tests setting it do not count."""
    assert not OPTIONS[surface], f"nothing committed sets {surface} " + ", ".join(
        OPTIONS[surface]
    )


# ------------------------------------------------------------- doc names

DOCS = ("README.md", "DESIGN.md", "PAPER.md", "CONTRIBUTING.md")


def _defines(tree: ast.Module, path: List[str]) -> bool:
    """Whether a module binds ``path[0]`` and, when that is a class of the
    module, the class body binds ``path[1]``."""
    if path[0] not in _bindings(tree):
        return False
    if len(path) == 1:
        return True
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == path[0]:
            return path[1] in _bindings(ast.Module(body=node.body, type_ignores=[]))
    return True


def unresolved_doc_names(text: str, modules: dict) -> List[Tuple[int, str]]:
    """``(line, name)`` of every backticked ``repro.…`` name outside fenced
    code blocks that is neither a module nor defined in one."""
    problems = []
    fenced = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        for span in re.findall(r"`([^`]+)`", line):
            for name in re.findall(r"(?<![\w.])repro(?:\.\w+)+", span):
                parts = name.split(".")
                prefix = max(
                    (i for i in range(1, len(parts) + 1)
                     if ".".join(parts[:i]) in modules),
                    default=0,
                )
                if not prefix or (
                    prefix < len(parts)
                    and not _defines(modules[".".join(parts[:prefix])], parts[prefix:])
                ):
                    problems.append((number, name))
    return problems


@pytest.mark.parametrize("doc", DOCS)
def test_docs_name_only_code_that_exists(doc):
    modules = {name: tree for name, (_, tree) in _Reach().modules.items()}
    text = (ROOT / doc).read_text(encoding="utf-8")
    problems = [
        f"{doc}:{line}: {name}" for line, name in unresolved_doc_names(text, modules)
    ]
    assert not problems, "\n".join(problems)
