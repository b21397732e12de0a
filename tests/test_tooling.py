"""Source hygiene of the package modules."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gridsweep"
#: every module scanned for unused imports: the package's by file name, the
#: tests' as tests/NAME
SCANNED = ({p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
           | {f"tests/{p.name}": p for p in TESTS.glob("*.py")})

#: public functions that no other package code calls, each kept on purpose
UNCALLED_BY_DESIGN = {
    "md.compute_forces": "forces, energy and closest pair of one configuration",
    "md.total_energy": "a configuration's total energy, for conservation checks",
    "stats.moment_summary": "an ensemble's point on the Pearson (beta1, beta2) plane",
    "stats.weibull_locus": "the Weibull curve on the Pearson (beta1, beta2) plane",
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``from __future__`` aside) and never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.take starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def uncalled_public_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level function that no code of the
    package refers to outside the function's own body.

    ``sources`` maps module names to source text.  A reference is a bare name
    in the defining module, a ``from .module import name``, or an attribute
    ``alias.name`` on a module bound by ``from . import module as alias``.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set()
    for mod, tree in trees.items():
        alias = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .md import run_tensile
                    used.update((node.module, a.name) for a in node.names)
                else:  # from . import gridsim, stats as st
                    alias.update((a.asname or a.name, a.name) for a in node.names)
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add((mod, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in alias):
                    used.add((alias[node.value.id], node.attr))
    return sorted(f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and (mod, node.name) not in used)


def test_unused_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\nnp.take\n@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("module", sorted(SCANNED))
def test_module_has_no_unused_imports(module):
    assert unused_imports(SCANNED[module].read_text()) == []


def test_uncalled_function_scan_sees_every_kind_of_reference():
    sources = {
        "a": "def f(): return g()\ndef g(): pass\ndef rec(): return rec()\ndef _p(): pass\n"
             "def h(): pass\ndef k(): pass\ndef m(): pass\n",
        "b": "from .a import h\nfrom . import a as mod_a\nx = mod_a.k\ndef m(): pass\n",
    }
    # f is never called, rec only by itself, and b.m is not a.m
    assert uncalled_public_functions(sources) == ["a.f", "a.m", "a.rec", "b.m"]


def test_every_public_function_has_a_caller_or_a_reason():
    uncalled = uncalled_public_functions(
        {p.stem: p.read_text() for p in PACKAGE.glob("*.py")})
    assert [name for name in uncalled if name not in UNCALLED_BY_DESIGN] == []
    # an entry that gained a caller, or whose function went, leaves the list
    assert sorted(set(UNCALLED_BY_DESIGN) - set(uncalled)) == []
