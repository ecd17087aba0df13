"""Export consistency: every public name resolves, the package's
re-exports are the covariance module's own objects, and importing the
command line loads no ``scipy.stats``."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import zeromix
from zeromix import covariance

# the package and every submodule that declares an __all__
MODULES = [name for name in ["zeromix", *("zeromix." + info.name
                                          for info in pkgutil.iter_modules(zeromix.__path__)
                                          if info.name != "__main__")]
           if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_are_the_covariance_objects():
    reexported = [n for n in zeromix.__all__ if n != "__version__"]
    assert reexported
    for n in reexported:
        assert getattr(zeromix, n) is getattr(covariance, n), n
        assert n in covariance.__all__, n


def test_importing_the_cli_loads_no_scipy_stats():
    # a fresh interpreter: this one has scipy.stats from the test oracles
    src = os.path.dirname(os.path.dirname(zeromix.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, zeromix.cli; print('scipy.stats' in sys.modules)"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
