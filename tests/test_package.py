import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import diospec

MODULES = sorted(info.name for info in pkgutil.iter_modules(diospec.__path__))
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_example():
    """The README's Python example, the one fenced ``python`` block."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return block


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"diospec.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"diospec.{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"diospec.{name}.__all__ names {missing}, which do not exist"


def used_names(source: str) -> set:
    """Names a module reads or imports, and attributes it reads: every name
    in its AST but the ones it assigns, so a definition alone does not count."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_exported_name_has_a_user():
    # An export that only tests use is a test-only twin in src/: each name
    # must be used by the library, the benchmark or the README example.
    # The acceptance suite is a test too, so its references live in tests/.
    sources = [*sorted((ROOT / "src" / "diospec").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(used_names(readme_example()), *(used_names(path.read_text())
                                                      for path in sources))
    unused = [f"diospec.{name}.{item}" for name in MODULES
              for item in getattr(importlib.import_module(f"diospec.{name}"), "__all__", [])
              if item not in used]
    assert not unused, f"exported but used only by tests, if at all: {unused}"


def test_eig_stub_defines_nothing():
    # diospec.eig is kept, empty, only for an import outside the package;
    # the shifted QR lives in tests/qr_reference.py.
    module = importlib.import_module("diospec.eig")
    names = [name for name in vars(module) if not (name.startswith("__") and name.endswith("__"))]
    assert names == [], f"diospec.eig defines {names}"


def test_top_level_exports_the_readme_example():
    # The package top level exports __version__ and exactly the names the
    # README example imports from it, and the example runs.
    example = readme_example()
    imported = [alias.name for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) and node.module == "diospec"
                for alias in node.names]
    assert len(imported) == 6
    assert sorted(diospec.__all__) == sorted(["__version__", *imported])
    assert all(hasattr(diospec, item) for item in diospec.__all__)
    exec(compile(example, str(README), "exec"), {})
