"""No ``contprune`` module imports or reads a ``_``-prefixed name of another,
and none imports a name it never reads.

A leading underscore marks a name as private to its module; a module that
needs it from outside should get a public name instead. The walk covers
``from .mod import _name`` and ``mod._name`` where ``mod`` is bound by
``from . import mod`` or ``import contprune.mod as mod``.

An import that no line reads is left over from removed code. The names that
perfbench's tracer patches in a module are imported for that alone, on lines
marked ``# noqa: F401``, which the walk skips.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contprune"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "contprune"


def private_uses(source: str) -> list[str]:
    """Every private name of another package module that ``source`` imports or reads."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to package modules
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            for alias in node.names:
                if node.module is None or node.module == "contprune":
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    where = "." * node.level + node.module
                    uses.append(f"line {node.lineno}: from {where} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("contprune.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            uses.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return uses


def test_no_module_uses_another_modules_private_names():
    found = {path.name: private_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_walk_sees_both_forms():
    source = (
        "from . import harness\n"
        "from . import corpus as corpus_mod\n"
        "from .model import Network, _GELU_C\n"
        "import contprune.pruner as P\n"
        "x = harness._items, corpus_mod.load_corpus, P._top_k_bits, harness.__doc__\n"
    )
    assert private_uses(source) == [
        "line 3: from .model import _GELU_C",
        "line 5: harness._items",
        "line 5: P._top_k_bits",
    ]


def unused_imports(source: str) -> list[str]:
    """Every name that ``source`` imports and never reads, but on lines marked
    ``# noqa: F401`` and in ``from __future__`` imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_the_unused_import_walk():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from copy import deepcopy\n"
        "from .model import Network, linear as lin\n"
        "from .metrics import perplexity  # noqa: F401\n"
        "def f(net: Network) -> str:\n"
        "    return os.path.join(json.dumps(1))\n"
    )
    assert unused_imports(source) == ["line 4: deepcopy", "line 5: lin"]
