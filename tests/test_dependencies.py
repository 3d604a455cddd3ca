"""The package keeps its no-runtime-dependency contract: every absolute
import in ``src/intervalence`` names a standard-library module.  ``sympy``
and ``hypothesis`` serve the tests only.  Every exported name exists.

``import intervalence`` loads no submodule; each exported name loads its
home module on first use.  Those tests run in a fresh interpreter, because
this one has already imported the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "intervalence"
HOMES = ("polynomial", "poset", "series", "tamari", "verify")


def fresh(code):
    """Run ``code`` in a new interpreter and return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = ("json.dumps(sorted(m for m in sys.modules"
          " if m.startswith('intervalence.') or m == 'dataclasses'))")


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


def test_sources_parse_as_the_oldest_supported_python():
    # the grammar of Python 3.10, the oldest that pyproject.toml allows;
    # this checks syntax only, not the library calls the code makes
    paths = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_bare_import_loads_no_submodule():
    assert fresh(f"import sys, json, intervalence; print({LOADED})") == []


def test_one_name_loads_only_its_home_and_what_it_imports():
    loaded = fresh(f"import sys, json; from intervalence import tamari_lattice; print({LOADED})")
    assert loaded == ["intervalence.polynomial", "intervalence.poset", "intervalence.tamari"]


def test_exported_names_are_their_home_modules_objects():
    import intervalence
    mismatched = fresh("""
import importlib, json, intervalence
print(json.dumps([name for name, home in intervalence._EXPORTS.items()
                  if getattr(intervalence, name)
                  is not getattr(importlib.import_module('intervalence.' + home), name)]))
""")
    assert mismatched == []
    assert set(intervalence._EXPORTS.values()) == set(HOMES)
    assert intervalence.__all__ == [*intervalence._EXPORTS, "__version__"]


@pytest.mark.parametrize("home", HOMES)
def test_submodules_resolve_after_a_bare_import(home):
    assert fresh(f"import json, intervalence; print(json.dumps(intervalence.{home}.__name__))") \
        == f"intervalence.{home}"


def test_dir_lists_the_exports_and_unknown_names_raise():
    listed, error = fresh("""
import json, intervalence
try:
    intervalence.no_such_name
except AttributeError as exc:
    error = str(exc)
print(json.dumps([dir(intervalence), error]))
""")
    import intervalence
    assert set(intervalence.__all__) <= set(listed)
    assert "no_such_name" in error
