"""Import rules, checked by parsing the source.

The library needs nothing beyond the standard library and numpy: every
absolute import under `src/sboxkit` must name a standard-library module or
numpy, and relative imports stay inside the package.  The oracles take only
the table check from `sboxkit.metrics`.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "sboxkit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_stdlib_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = [(path.name, name) for path in modules for name in absolute_imports(path)
               if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_oracles_take_only_as_sbox_from_metrics():
    # The reference spectra route must share no code with the library's H.
    path = Path(__file__).parent / "oracles.py"
    names = [alias.name for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "sboxkit.metrics"
             for alias in node.names]
    assert names == ["as_sbox"]
