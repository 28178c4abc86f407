"""The package's runtime dependencies: the standard library and numpy only."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finslerlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "finslerlab"}


def _imported_modules(path):
    """Top-level names of the modules a source file imports; a relative
    import names the package itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "finslerlab" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_imports_only_stdlib_and_numpy(path):
    assert set(_imported_modules(path)) <= ALLOWED


def test_import_scan_sees_third_party_imports(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import os\nfrom . import expr\nimport scipy.linalg\n"
                 "def f():\n    from sympy import Symbol\n")
    assert set(_imported_modules(p)) - ALLOWED == {"scipy", "sympy"}
