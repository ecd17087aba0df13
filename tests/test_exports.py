"""Export consistency: every public name resolves, the package's
re-exports are the covariance module's own objects, bad input raises a
package error, and the package runs on numpy alone: importing the
command line loads no ``scipy`` module, and its commands run where every
``scipy`` import fails."""

import configparser
import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import zeromix
import zeromix.harness
from zeromix import covariance, inference, mcem
from zeromix.covariance import SpdMatrix, SufficientStats, ZeroPattern
from zeromix.exceptions import (InputMismatchError, PatternViolationError, ValueOutOfRangeError,
                                ZeromixError)
from zeromix.mcem import FitResult, FitState
from zeromix.models import (CortisolModel, Dataset, LinearGaussianModel, NlmeModel,
                            simulate_dataset, simulate_individual)

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


def _no_trace(path):
    state = FitState(m=np.zeros(2), sigma=SpdMatrix(np.eye(2)), theta=1.0)
    result = FitResult(state=state, converged=False, iterations=0, trace=[], accept_rate=1.0,
                       domain_rejects=0, icf_sweeps=0, icf_newton_steps=0, icf_unconverged=0,
                       icf_ridged=0)
    zeromix.harness.write_trace_csv(result, path)


# a start or point of order 3 on the order-4 cortisol model
_ORDER_3 = "m of shape (3,) and Sigma of shape (3, 3) do not fit the cortisol model's order 4"


_CORTISOL_TRUTH = (np.array([50.0, 70.0, 1.0, 0.1]), np.diag([25.0, 49.0, 0.01, 1e-4]), 0.04)


def _cortisol_data():
    data, _ = simulate_dataset(CortisolModel(), *_CORTISOL_TRUTH, 2, 0)
    return data


def _cortisol_loglik(**counts):
    return inference.loglik_is(CortisolModel(), _cortisol_data(), *_CORTISOL_TRUTH, **counts)


def _cortisol_fisher(**counts):
    return inference.fisher_se(CortisolModel(), _cortisol_data(), *_CORTISOL_TRUTH,
                               ZeroPattern([], dim=4), **counts)


# the truth with a NaN, infinite or negative theta, or a NaN in m, at every
# entry that takes a model point: each is an input error, not a weight's or
# a simulated observation's failure
_BAD_POINTS = {
    "theta-nan": (*_CORTISOL_TRUTH[:2], np.nan),
    "theta-inf": (*_CORTISOL_TRUTH[:2], np.inf),
    "theta-negative": (*_CORTISOL_TRUTH[:2], -1.0),
    "m-nan": (np.array([np.nan, 70.0, 1.0, 0.1]), *_CORTISOL_TRUTH[1:]),
}
_POINT_ENTRIES = {
    "loglik": lambda point: inference.loglik_is(CortisolModel(), _cortisol_data(), *point,
                                                n_samples=10),
    "fisher": lambda point: inference.fisher_se(CortisolModel(), _cortisol_data(), *point,
                                                ZeroPattern([], dim=4), n_samples=10),
    "simulate": lambda point: simulate_dataset(CortisolModel(), *point, 2, 0),
    "individual": lambda point: simulate_individual(CortisolModel(), *point, 0),
}
_POINT_CASES = [
    ("%s-%s" % (entry, bad), (ValueOutOfRangeError,
                             "m must be finite" if bad == "m-nan" else
                             "theta must be finite and nonnegative",
                             lambda _, call=call, point=point: call(point)))
    for entry, call in _POINT_ENTRIES.items() for bad, point in _BAD_POINTS.items()
]

# X-tilde of another order than Sigma's
_XT3, _XT4 = SufficientStats(np.eye(3) * 2, n=5), SufficientStats(np.eye(4) * 2, n=5)
_PAT14 = ZeroPattern([(1, 4)], dim=4)


@pytest.mark.parametrize("error,message,call", [
    (InputMismatchError, "pattern is declared for order 4",
     lambda _: covariance.zero_forced(np.eye(3), ZeroPattern([], dim=4))),
    (InputMismatchError, "entries must be a square matrix",
     lambda _: SpdMatrix(np.ones((2, 3)))),
    (InputMismatchError, "right-hand side of shape (3,) does not fit order 2",
     lambda _: SpdMatrix(np.eye(2)).solve(np.ones(3))),
    (InputMismatchError, "xtilde must be square",
     lambda _: SufficientStats(np.ones((2, 3)), n=1)),
    (ValueOutOfRangeError, "xtilde has non-finite entries",
     lambda _: SufficientStats(np.array([[np.nan]]), n=1)),
    (ValueOutOfRangeError, "sample size must be >= 1, got 0",
     lambda _: covariance.min_eig_repair(np.eye(2), 0)),
    (InputMismatchError, "m must be a vector",
     lambda _: FitState(m=np.zeros((2, 1)), sigma=SpdMatrix(np.eye(2)), theta=1.0)),
    (InputMismatchError, "m and sigma dimensions differ",
     lambda _: FitState(m=np.zeros(3), sigma=SpdMatrix(np.eye(2)), theta=1.0)),
    (InputMismatchError, "design must have shape (n_obs,)",
     lambda _: NlmeModel(q=2, n_obs=3, design=[1.0, 2.0])),
    (InputMismatchError, "y must be 2-d", lambda _: Dataset(["a"], np.ones(3), [1.0, 2.0, 3.0])),
    (InputMismatchError, "ids and y row count differ",
     lambda _: Dataset(["a"], np.ones((2, 3)), [1.0, 2.0, 3.0])),
    (InputMismatchError, "ids must be unique",
     lambda _: Dataset(["a", "a"], np.ones((2, 3)), [1.0, 2.0, 3.0])),
    (InputMismatchError, "design length must match observation count",
     lambda _: Dataset(["a"], np.ones((1, 3)), [1.0, 2.0])),
    # non-finite data is an input error, not a sampler's or a weight's failure
    (ValueOutOfRangeError, "observations of individual b must be finite",
     lambda _: Dataset(["a", "b"], [[1.0, 2.0, 3.0], [1.0, np.nan, 3.0]], [1.0, 2.0, 3.0])),
    (ValueOutOfRangeError, "observations of individual a must be finite",
     lambda _: Dataset(["a", "b"], [[-np.inf, 2.0, 3.0], [1.0, np.nan, 3.0]], [1.0, 2.0, 3.0])),
    (ValueOutOfRangeError, "design values must be finite",
     lambda _: Dataset(["a"], np.ones((1, 3)), [1.0, np.inf, 3.0])),
    (ValueOutOfRangeError, "q must be an integer, got True", lambda _: LinearGaussianModel(True)),
    (ValueOutOfRangeError, "q must be an integer, got 3.0", lambda _: LinearGaussianModel(3.0)),
    (ValueOutOfRangeError, "q must be an integer, got 2.5", lambda _: LinearGaussianModel(2.5)),
    (ValueOutOfRangeError, "doses must be positive numbers, at least one",
     lambda _: CortisolModel(doses=[np.nan, 1.0])),
    (ValueOutOfRangeError, "doses must be positive numbers, at least one",
     lambda _: CortisolModel(doses=[np.inf, 1.0])),
    (ValueOutOfRangeError, "fit result carries no trace",
     lambda tmp_path: _no_trace(tmp_path / "trace.csv")),
    (InputMismatchError, _ORDER_3, lambda _: mcem.fit(
        CortisolModel(), _cortisol_data(), ZeroPattern([], dim=3),
        FitState(m=np.ones(3), sigma=SpdMatrix(np.eye(3)), theta=0.04))),
    (InputMismatchError, _ORDER_3, lambda _: inference.loglik_is(
        CortisolModel(), _cortisol_data(), np.ones(3), np.eye(3), 0.04, n_samples=10)),
    (InputMismatchError, _ORDER_3, lambda _: inference.fisher_se(
        CortisolModel(), _cortisol_data(), np.ones(3), np.eye(3), 0.04, ZeroPattern([], dim=3),
        n_samples=10)),
    (InputMismatchError, _ORDER_3,
     lambda _: simulate_dataset(CortisolModel(), np.ones(3), np.eye(3), 0.04, 2, 0)),
    # counts and seeds are integers: int() would run seed 1.5 as stream 1
    (ValueOutOfRangeError, "n_samples must be an integer, got 10.5",
     lambda _: _cortisol_loglik(n_samples=10.5)),
    (ValueOutOfRangeError, "seed must be an integer, got 1.5",
     lambda _: _cortisol_loglik(seed=1.5)),
    (ValueOutOfRangeError, "n_samples must be an integer, got 10.5",
     lambda _: _cortisol_fisher(n_samples=10.5)),
    (ValueOutOfRangeError, "seed must be an integer, got 1.5",
     lambda _: _cortisol_fisher(seed=1.5)),
    (ValueOutOfRangeError, "n must be an integer, got 2.0",
     lambda _: simulate_dataset(CortisolModel(), *_CORTISOL_TRUTH, 2.0, 0)),
    (ValueOutOfRangeError, "seed must be an integer, got 1.5",
     lambda _: simulate_dataset(CortisolModel(), *_CORTISOL_TRUTH, 2, 1.5)),
    (ValueOutOfRangeError, "sample count must be an integer, got 1.5",
     lambda _: SufficientStats(np.eye(2), n=1.5)),
    (ValueOutOfRangeError, "sample count must be an integer, got True",
     lambda _: SufficientStats(np.eye(2), n=True)),
    (ValueOutOfRangeError, "sample size must be an integer, got 1.5",
     lambda _: covariance.min_eig_repair(np.eye(2), 1.5)),
    (ValueOutOfRangeError, "sample size must be an integer, got True",
     lambda _: covariance.min_eig_repair(np.eye(2), True)),
    (InputMismatchError, "pattern is declared for order 3 but the matrix has order 4",
     lambda _: inference.fisher_se(CortisolModel(), _cortisol_data(), *_CORTISOL_TRUTH,
                                   ZeroPattern([], dim=3), n_samples=10)),
    (InputMismatchError, "X-tilde has order 3 but Sigma has order 4",
     lambda _: covariance.kkt_residual(np.eye(4), _XT3, _PAT14)),
    (InputMismatchError, "X-tilde has order 3 but Sigma has order 4",
     lambda _: covariance.icf_column_update(np.eye(4), _XT3, 1, _PAT14)),
    (InputMismatchError, "X-tilde has order 4 but Sigma has order 3",
     lambda _: covariance.icf_column_update(np.eye(3), _XT4, 1, ZeroPattern([(1, 3)], dim=3))),
    *(case for _, case in _POINT_CASES),
], ids=["pattern-order", "spd-square", "solve-rhs", "xtilde-square", "xtilde-finite",
        "repair-count", "m-vector", "m-order", "model-design", "dataset-2d", "dataset-rows",
        "dataset-ids", "dataset-design", "dataset-y-nan", "dataset-y-inf",
        "dataset-design-finite", "q-bool", "q-float", "q-fraction", "doses-nan", "doses-inf",
        "empty-trace", "fit-order", "loglik-order",
        "fisher-order", "simulate-order", "loglik-samples", "loglik-seed", "fisher-samples",
        "fisher-seed", "simulate-count", "simulate-seed", "stats-count-float",
        "stats-count-bool", "repair-count-float", "repair-count-bool", "fisher-pattern-order",
        "kkt-xtilde-order", "column-xtilde-smaller", "column-xtilde-larger",
        *(name for name, _ in _POINT_CASES)])
def test_bad_input_raises_a_package_error(tmp_path, error, message, call):
    # a ValueError for callers that catch that, a ZeromixError for the CLI
    with pytest.raises(error) as info:
        call(tmp_path)
    assert message in str(info.value)
    assert isinstance(info.value, ValueError) and isinstance(info.value, ZeromixError)


def test_fisher_se_rejects_a_sigma_off_its_pattern():
    # Sigma = I + 0.1 is nonzero at the example's pairs (1,4) and (3,4);
    # PatternViolationError is a UsageError but not a ValueError, so this
    # case is not one of test_bad_input_raises_a_package_error's
    pattern = ZeroPattern([(1, 4), (3, 4)], dim=4)
    with pytest.raises(PatternViolationError, match="constrained positions"):
        inference.fisher_se(CortisolModel(), _cortisol_data(), _CORTISOL_TRUTH[0],
                            np.eye(4) + 0.1, _CORTISOL_TRUTH[2], pattern, n_samples=10)


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
