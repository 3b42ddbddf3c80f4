"""No ``contprune`` module imports or reads a ``_``-prefixed name of another,
and none imports a name it never reads.

A leading underscore marks a name as private to its module; a module that
needs it from outside should get a public name instead. The walk covers
``from .mod import _name`` and ``mod._name`` where ``mod`` is bound by
``from . import mod`` or ``import contprune.mod as mod``.

An import that no line reads is left over from removed code. The names that
perfbench's tracer patches in a module are imported for that alone, on lines
marked ``# noqa: F401``, which the walk skips; a test checks that the
tracer patches every name on such a line, on that module.

The command path scores sensitivity with ``pruner``'s closed form; a test
checks that ``pruner`` reads nothing else of ``sensitivity``, the sampled
reference, but ``DEFAULT_EPSILON``.

Every error type in ``errors.PACKAGE_ERRORS`` is raised by some module, so
none outlives its last raiser.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from contprune.errors import PACKAGE_ERRORS

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


def _noqa(node: ast.stmt, lines: list[str]) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


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
        if _noqa(node, lines):
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


RECORD_PATCHES = """
import json, sys
import tracer
patched = []
tracer.Tracer.patch = lambda self, module, attr, *args, **kwargs: patched.append(
    [module.__name__, attr])
tracer.install(tracer.Tracer())
json.dump(patched, sys.stdout)
"""


def noqa_imports(source: str) -> list[str]:
    """Every name that ``source`` imports on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    return [alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            if _noqa(node, lines)
            for alias in node.names]


def test_every_noqa_import_is_a_name_the_tracer_patches():
    """The ``# noqa: F401`` hatch keeps an import that no line reads only
    while ``perfbench/tracer.install`` patches that name on that module."""
    root = PACKAGE.parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", RECORD_PATCHES], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    patched = {tuple(pair) for pair in json.loads(proc.stdout)}
    found = {f"contprune.{path.stem}": noqa_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {
        "contprune.harness": ["perplexity"],
        "contprune.pruner": ["batch_gradient_magnitude", "batch_input_perturbation", "scaled_gaussian"],
    }
    unpatched = [f"{module}.{name}" for module, names in found.items() for name in names
                 if (module, name) not in patched]
    assert unpatched == []


def top_level_functions(source: str) -> set[str]:
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def test_pruner_owns_the_closed_form_sensitivity_score():
    """``pruner`` defines the closed form it scores with, and imports from
    ``sensitivity``, the sampled reference, only ``DEFAULT_EPSILON`` and the
    names the tracer patches there (on ``# noqa: F401`` lines)."""
    source = (PACKAGE / "pruner.py").read_text()
    imported = [alias.asname or alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "sensitivity" for alias in node.names]
    assert imported == ["DEFAULT_EPSILON", *noqa_imports(source)]
    closed_form = {"gradient_terms", "expected_gradient_magnitude"}
    assert closed_form <= top_level_functions(source)
    assert closed_form & top_level_functions((PACKAGE / "sensitivity.py").read_text()) == set()


def raised_names(source: str) -> set[str]:
    """The name of every exception that a ``raise`` in ``source`` names, as
    ``raise E(...)``, ``raise E`` or ``raise mod.E(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_package_error_is_raised_by_some_module():
    raised = set().union(*(raised_names(path.read_text()) for path in PACKAGE.glob("*.py")))
    assert [e.__name__ for e in PACKAGE_ERRORS if e.__name__ not in raised] == []


def test_the_raise_walk():
    source = (
        "def f(x):\n"
        "    try:\n"
        "        raise InputError(f'bad {x}') from None\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise errors.UsageError\n"
        "    NumericalError('built, never raised')\n"
    )
    assert raised_names(source) == {"InputError", "UsageError"}
