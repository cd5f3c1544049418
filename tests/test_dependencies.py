"""filterlab runs on numpy alone: sympy is a test-only dependency, used by the
test-local references and the benchmark's environment record."""

import os
import subprocess
import sys

from conftest import ROOT

_IMPORT_ALL = """
import importlib, pkgutil, sys
import filterlab
names = sorted(m.name for m in pkgutil.walk_packages(filterlab.__path__, "filterlab."))
for name in names:
    importlib.import_module(name)
print(" ".join(names))
print("sympy" in sys.modules)
"""


def test_no_filterlab_module_imports_sympy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True, text=True, check=True
    )
    names, sympy_loaded = proc.stdout.split("\n")[:2]
    modules = {f"filterlab.{p.stem}" for p in (ROOT / "src" / "filterlab").glob("*.py")} - {"filterlab.__init__"}
    assert set(names.split()) == modules
    assert sympy_loaded == "False"
