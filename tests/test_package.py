"""The package root and the public names of its modules."""

import importlib
import subprocess
import sys

import pytest

# the library modules; each declares its public names in __all__
MODULES = ("gaussian", "groups", "representations", "coorbit", "numerics", "frames")


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, coorbit_lab; print(sorted(m for m in sys.modules if m.startswith('coorbit_lab.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"coorbit_lab.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
