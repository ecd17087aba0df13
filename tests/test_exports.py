"""Export consistency: every public name resolves, the package's
re-exports are the covariance module's own objects, and the package runs
on numpy alone: importing the command line loads no ``scipy`` module,
and its commands run where every ``scipy`` import fails."""

import configparser
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import zeromix
import zeromix.harness
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


def _fresh_python(*args):
    # a fresh interpreter: this one has scipy from the test oracles
    src = os.path.dirname(os.path.dirname(zeromix.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_importing_the_cli_loads_no_scipy():
    out = _fresh_python("-c", "import sys, zeromix.cli; "
                              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# runs the command line with every scipy import refused
_NO_SCIPY_MAIN = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy import refused: " + name)

sys.meta_path.insert(0, NoScipy())
from zeromix.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_the_commands_run_without_scipy(tmp_path):
    mat = tmp_path / "xt.csv"
    mat.write_text("4,-3,3\n-3,4,-3\n3,-3,4\n")
    out = _fresh_python("-c", _NO_SCIPY_MAIN, "icf", "--xtilde", str(mat), "--pattern", "(1,3)")
    assert out.returncode == 0, out.stderr
    assert "kkt" in out.stdout

    csv, ini = zeromix.harness.example_paths()
    parser = configparser.ConfigParser()
    parser.read(ini, encoding="utf-8")
    parser["mcem"]["max_outer"] = "5"
    short = tmp_path / "short.ini"
    with open(short, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = _fresh_python("-c", _NO_SCIPY_MAIN, "fit", "--data", csv, "--config", str(short),
                        "--out-dir", str(tmp_path / "fit"), "--loglik-samples", "100", "--no-se")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "fit" / "report.json").exists()
