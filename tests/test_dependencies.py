"""The package keeps its no-runtime-dependency contract: every absolute
import in ``src/intervalence`` names a standard-library module.  ``sympy``
and ``hypothesis`` serve the tests only.  Every exported name exists."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intervalence"


def test_every_exported_name_resolves():
    import intervalence

    missing = [name for name in intervalence.__all__ if not hasattr(intervalence, name)]
    assert not missing, missing


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign
