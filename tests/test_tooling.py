"""Source hygiene of the package modules, the package names the benchmark
scripts use, and the argument names perfbench's tracer binds."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gridsweep"
PERFBENCH = TESTS.parent / "perfbench"
#: scripts outside the package that use its modules, as run from the repo root
SCRIPTS = {p.relative_to(TESTS.parent).as_posix(): p
           for p in [*(TESTS.parent / "tools").glob("*.py"), *PERFBENCH.glob("*.py")]}
#: every module scanned for unused imports: the package's by file name, the
#: tests' as tests/NAME
SCANNED = ({p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
           | {f"tests/{p.name}": p for p in TESTS.glob("*.py")})

#: public functions, methods and properties that no other package code calls
#: or reads, each kept on purpose
UNCALLED_BY_DESIGN = {
    "stats.moment_summary": "an ensemble's point on the Pearson (beta1, beta2) plane",
    "stats.weibull_locus": "the Weibull curve on the Pearson (beta1, beta2) plane",
    "stats.MomentSummary.beta1": "the moment analysis's x axis (ROADMAP item 9)",
    "stats.MomentSummary.beta2": "the moment analysis's y axis (ROADMAP item 9)",
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


def scipy_imports(source: str) -> list[str]:
    """The module named by every ``import scipy...`` and ``from scipy...
    import`` of a module, in function and class bodies too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            found.append(node.module)
    return sorted(found)


def attribute_reads(tree) -> Counter:
    """How often each attribute name is read (``x.name`` in a load) in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def uncalled_public_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level function that no code of the
    package refers to outside the function's own body, and ``module.Class.name``
    of each public method or property of a top-level class whose name no
    attribute read of the package shares outside the method's own body.

    ``sources`` maps module names to source text.  A reference to a function is
    a bare name in the defining module, a ``from .module import name``, or an
    attribute ``alias.name`` on a module bound by ``from . import module as
    alias``.  Methods go by attribute name alone, whatever the object read: a
    ``copy`` method counts as read wherever a numpy array's ``.copy`` is.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    unread = [f"{mod}.{cls.name}.{node.name}" for mod, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and reads[node.name] == attribute_reads(node)[node.name]]
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
    uncalled = [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and (mod, node.name) not in used]
    return sorted(uncalled + unread)


def package_uses(source: str) -> list[tuple[str, str]]:
    """(module, name) of each name a script takes from a gridsweep module: an
    attribute ``alias.name``, read or set, on a module bound by ``from
    gridsweep import module as alias``, or a ``from gridsweep.module import
    name``.  A ``getattr(alias, "name", default)`` is no use of ``name``: the
    script copes without it, as it does with a field it reads only when
    ``"name" in ..._fields``, which is not a module attribute either."""
    alias, uses = {}, set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "gridsweep":
                alias.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module.startswith("gridsweep."):
                uses.update((node.module.removeprefix("gridsweep."), a.name) for a in node.names)
    uses.update((alias[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in alias)
    return sorted(uses)


def test_package_use_scan_sees_attributes_and_imports():
    source = ("from gridsweep import md, stats as st\nfrom gridsweep.cna import cna_labels\n"
              "def f(state, np):\n    md._BLOCK = 2\n    old = getattr(md, 'OLD', 0)\n"
              "    fields = md.PairState._fields\n"
              "    return st.ks_test, np.take, state.work if 'work' in fields else old\n")
    assert package_uses(source) == [("cna", "cna_labels"), ("md", "PairState"),
                                    ("md", "_BLOCK"), ("stats", "ks_test")]


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_uses_only_names_the_package_has(script):
    # the benchmark tools measure older checkouts too, and no other test runs
    # them: a helper renamed or removed in the package breaks them silently
    missing = [f"{module}.{name}" for module, name in package_uses(SCRIPTS[script].read_text())
               if not hasattr(importlib.import_module(f"gridsweep.{module}"), name)]
    assert missing == []


def test_unused_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\nnp.take\n@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("module", sorted(SCANNED))
def test_module_has_no_unused_imports(module):
    assert unused_imports(SCANNED[module].read_text()) == []


def test_scipy_import_scan_sees_function_bodies():
    source = ("import scipy\nimport scipy.stats as ss\nimport scipyx\nfrom . import scipy\n"
              "from scipy import linalg\nclass A:\n    from scipy.optimize import brentq\n"
              "if True:\n    import scipy.fft\n"
              "def f():\n    from scipy.special import gammaln\n    import scipy.sparse\n")
    assert scipy_imports(source) == [
        "scipy", "scipy", "scipy.fft", "scipy.optimize", "scipy.sparse", "scipy.special",
        "scipy.stats"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_loads_no_scipy_submodule_on_import(module):
    # the package runs on numpy alone: no module imports scipy, not even in a
    # function, so no command pays scipy.special's load
    assert scipy_imports((PACKAGE / module).read_text()) == []


def test_uncalled_function_scan_sees_every_kind_of_reference():
    sources = {
        "a": "def f(): return g()\ndef g(): pass\ndef rec(): return rec()\ndef _p(): pass\n"
             "def h(): pass\ndef k(): pass\ndef m(): pass\n",
        "b": "from .a import h\nfrom . import a as mod_a\nx = mod_a.k\ndef m(): pass\n",
    }
    # f is never called, rec only by itself, and b.m is not a.m
    assert uncalled_public_functions(sources) == ["a.f", "a.m", "a.rec", "b.m"]


def test_uncalled_method_scan_goes_by_attribute_name():
    sources = {
        "a": "class C:\n    def run(self): return self.step()\n    def step(self): pass\n"
             "    def rec(self): return self.rec()\n"
             "    @property\n    def size(self): return 1\n"
             "    def copy(self): return C()\n    def grip(self): pass\n"
             "    def _p(self): pass\n    def __len__(self): return 0\n",
        "b": "def f(c, arr):\n    c.run()\n    arr.copy()\n    return c.size\n",
    }
    # step is read by run, and copy by an array's .copy; grip is never read,
    # rec only by itself, and f is never called
    assert uncalled_public_functions(sources) == ["a.C.grip", "a.C.rec", "b.f"]


def test_every_public_function_has_a_caller_or_a_reason():
    uncalled = uncalled_public_functions(
        {p.stem: p.read_text() for p in PACKAGE.glob("*.py")})
    assert [name for name in uncalled if name not in UNCALLED_BY_DESIGN] == []
    # an entry that gained a caller, or whose function went, leaves the list
    assert sorted(set(UNCALLED_BY_DESIGN) - set(uncalled)) == []


#: a short realization and one classification under perfbench's tracer, run
#: in a fresh interpreter because an installed Tracer cannot be taken out
TRACED_RUN = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
tracer = Tracer(sys.argv[2])
tracer.install()
from gridsweep import md, sweep
md.run_tensile(md.MDParams(target_strain=0.01, equilibration_steps=20), (3, 4, 3))
sweep.classify_sample(np.random.default_rng(0).normal(size=30), n_resamples=19)
groups, counts = tracer.collect()
print(json.dumps({"spans": sorted({s[0] for g in groups for s in g if s}), "counts": counts}))
"""


def test_perfbench_tracer_binds_the_arguments_it_names(tmp_path):
    # perfbench/tracing.py binds cna_labels's positions, integrate's crystal
    # and n_steps, and ks_test's mode by name: renaming one breaks --trace 1
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(PERFBENCH), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    traced = json.loads(run.stdout)
    assert {"cna.cna_labels", "md.grip_stress",
            "stats.ks_test[parametric_bootstrap]"} <= set(traced["spans"])
    assert traced["counts"]["cna.atoms"] > 0 and traced["counts"]["md.steps"] > 0


def test_paper_realization_counts_one_run_and_leaves_md_as_it_was():
    # the script wraps md.integrate and md.neighbor_pairs to time and count
    # them; unrestored, a second call wrapped the first call's wrappers and
    # counted into its lists too
    from gridsweep import md
    spec = importlib.util.spec_from_file_location(
        "paper_realization", SCRIPTS["tools/paper_realization.py"])
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    own = md.integrate, md.neighbor_pairs
    params = md.MDParams(target_strain=0.01)
    last_step = md.checkpoint_steps(params, md.build_crystal(2, 4, 2))[-1]
    for _ in range(2):
        run = script.realization((2, 4, 2), 0.01, 0)
        assert run["steps"] == params.equilibration_steps + last_step
        assert run["neighbor_builds"] >= 1
        assert len(run["records"]) == 2
        assert (md.integrate, md.neighbor_pairs) == own
