"""Every name a module exports through ``__all__`` exists, importing the
package loads numpy but no optional or test-only package, and ``verify``
reaches the solver through public names alone."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hybrid_isaacs

MODULES = ["hybrid_isaacs"] + sorted(f"hybrid_isaacs.{m.name}"
                                     for m in pkgutil.iter_modules(hybrid_isaacs.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_runtime_loads_no_optional_package(tmp_path):
    """A fresh interpreter that imports every module has loaded no scipy,
    hypothesis or pytest module: the runtime depends on numpy only."""
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
            "{'scipy', 'hypothesis', 'pytest', '_pytest'}))")
    src = str(Path(hybrid_isaacs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_verify_imports_only_public_solver_names_that_it_uses():
    """Each name ``verify`` imports from ``.solver`` is public and read in
    the module body, so a traced run that patches ``verify.solve`` sees
    every solve ``verify`` makes."""
    path = Path(hybrid_isaacs.__file__).with_name("verify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "solver"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported and [n for n in imported if n.startswith("_") or n not in used] == []
