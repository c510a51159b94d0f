"""Every name a module lists in ``__all__`` resolves on that module.

The modules are found by reading the package's source (a top-level
``__all__`` assignment), not by importing it, so a module added later is
covered without a list to keep.  A name removed from a module but left in
its ``__all__`` fails here rather than at a later ``from ... import *``.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent


def _defines_all(path: pathlib.Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets)
        for node in tree.body
    )


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


EXPORTING_MODULES = sorted(
    _module_name(path) for path in PACKAGE_ROOT.rglob("*.py") if _defines_all(path)
)


def test_discovery_finds_the_packages():
    assert {"repro", "repro.core", "repro.sim", "repro.workload.parallel"} <= set(
        EXPORTING_MODULES
    )


@pytest.mark.parametrize("name", EXPORTING_MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_importing_every_exporting_module_leaves_numpy_unloaded():
    # A fresh interpreter: this test process has long since imported numpy.
    script = (
        "import importlib, sys\n"
        f"for name in {EXPORTING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"
