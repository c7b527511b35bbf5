"""numpy stays the package's only runtime dependency: each module of
src/csasr imports from the standard library, numpy and csasr alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csasr"
ALLOWED = sys.stdlib_module_names | {"numpy", "csasr"}


def test_the_package_imports_nothing_but_the_standard_library_and_numpy():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside csasr
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED
            ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert outside == []
