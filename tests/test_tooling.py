"""Source hygiene of the package modules."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridsweep"


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


def test_unused_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\nnp.take\n@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
