"""Command-line interface: subcommand plumbing and exit codes."""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zeromix
from helpers import record_pools
from zeromix import _pool, cli, harness
from zeromix.cli import main
from zeromix.config import load_config
from zeromix.covariance import (SpdMatrix, SufficientStats, ZeroPattern, kkt_residual,
                                objective)
from zeromix.harness import example_paths
from zeromix.models import load_dataset

STUDY_INI = """[model]
name = cortisol

[pattern]
pairs = (1,4), (3,4)

[init]
m = 50, 70, 1, 0.1
sigma_diag = 25, 49, 0.25, 0.0016
theta = 0.04

[study]
replicates = 2
individuals = 5
master_seed = 1
truth_m = 50, 70, 1.5, 0.08
truth_sigma = 20 -4.5 -0.3 0; -4.5 2.5 -0.1 -0.002; -0.3 -0.1 0.05 0; 0 -0.002 0 1e-5
truth_theta = 0.015
"""

# A fit short enough for the quick loop: 12 outer iterations of short chains.
QUICK_INI = """[model]
name = cortisol

[pattern]
pairs = (1,4), (3,4)

[init]
m = 50, 70, 1, 0.1
sigma_diag = 25, 49, 0.25, 0.0016
theta = 0.04

[mcem]
chain_length = 80
burn_in = 10
warmup = 5
outer_tol = 1e-12
max_outer = 12
seed = 3
"""


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "fit" in capsys.readouterr().out


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()


def test_console_entry_point_is_installed():
    # run the package as a module from the source tree the tests import
    src = os.path.dirname(os.path.dirname(zeromix.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "zeromix", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0
    assert "fit" in out.stdout
    # the installed console script points at the same function
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zeromix"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.parametrize("pattern", ["(1,x)", "(1,2,3)"])
def test_icf_rejects_a_malformed_pattern(tmp_path, capsys, pattern):
    mat = tmp_path / "xt.csv"
    mat.write_text("4,-3,3\n-3,4,-3\n3,-3,4\n")
    assert main(["icf", "--xtilde", str(mat), "--pattern", pattern]) == 1
    assert "--pattern" in capsys.readouterr().err


def test_readme_lists_exactly_the_cli_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("zeromix ")]
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert listed == list(subparsers.choices)


def test_icf_prints_the_constrained_optimum(tmp_path, capsys):
    mat = tmp_path / "xt.csv"
    mat.write_text("4,-3,3\n-3,4,-3\n3,-3,4\n")
    assert main(["icf", "--xtilde", str(mat), "--pattern", "(1,3)"]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines()[:3]]
    sol = np.array([[float(v) for v in row] for row in rows])
    assert sol[0, 2] == 0.0
    assert sol[0, 1] == pytest.approx(-12.0 / 7.0, abs=1e-9)
    assert "objective" in out and "kkt" in out


def test_icf_scores_a_ridged_solve_against_the_ridged_matrix(tmp_path, capsys):
    # a rank-1 X-tilde is solved ridged by 1e-6 * tr/q; the printed
    # objective and KKT residual are those of the matrix solved (against
    # the input the residual reads 4.5e5)
    v = np.array([1.0, 2.0, -1.0, 0.5])
    xt = np.outer(v, v)
    mat = tmp_path / "xt.csv"
    np.savetxt(mat, xt, delimiter=",")
    assert main(["icf", "--xtilde", str(mat), "--pattern", "(1,3),(2,4)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sol = SpdMatrix(np.array([[float(t) for t in row.split(",")] for row in lines[:4]]))
    solved = SufficientStats(xt + 1e-6 * (np.trace(xt) / 4) * np.eye(4), n=1)
    kkt = kkt_residual(sol, solved, ZeroPattern([(1, 3), (2, 4)], dim=4))
    assert lines[4] == f"objective {objective(sol, solved)!r}"
    assert lines[5].startswith(f"sweeps 500  newton_steps 0  kkt {kkt:.3e}  ")
    assert lines[5].endswith("ridged True")
    assert kkt < 1.0


def test_icf_rejects_bad_inputs(tmp_path, capsys):
    mat = tmp_path / "xt.csv"
    mat.write_text("4,-3,3\n-3,4,-3\n3,-3,4\n")
    assert main(["icf", "--xtilde", str(mat), "--pattern", "(1,1)"]) == 1
    assert main(["icf", "--xtilde", str(tmp_path / "missing.csv")]) == 1
    rect = tmp_path / "rect.csv"
    rect.write_text("1,2,3\n4,5,6\n")
    assert main(["icf", "--xtilde", str(rect)]) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("error")  # loadtxt's no-data warning would reach stderr
@pytest.mark.parametrize("text", ["", "# a comment\n\n"])
def test_icf_on_a_file_without_a_matrix_exits_with_one_error_line(tmp_path, capsys, text):
    mat = tmp_path / "xt.csv"
    mat.write_text(text)
    assert main(["icf", "--xtilde", str(mat)]) == 1
    assert capsys.readouterr().err == f"error: {mat}: file holds no matrix\n"


def test_fit_rejects_missing_and_malformed_inputs(tmp_path, capsys):
    csv_path, ini_path = example_paths()
    assert main(["fit", "--data", str(tmp_path / "no.csv"),
                 "--config", ini_path]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("id,obs_index,design_value,y\n1,1,0.5\n")
    assert main(["fit", "--data", str(bad), "--config", ini_path]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err


@pytest.mark.parametrize("old,new,message", [
    ("[study]", "[mcem]\nchain_length = 0\n\n[study]", "chain_length must be >= 1"),
    ("name = cortisol", "name = cortisol\ndoses = 1, -2", "doses must be positive"),
])
def test_fit_rejects_out_of_range_settings(tmp_path, capsys, old, new, message):
    csv_path, _ = example_paths()
    ini = tmp_path / "range.ini"
    ini.write_text(STUDY_INI.replace(old, new))
    assert main(["fit", "--data", csv_path, "--config", str(ini),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,old,new,message", [
    ("fit", "[study]", "[mcem]\nseed = -1\n\n[study]", "seed must be >= 0, got -1"),
    ("study --replicates 0", "", "", "n_replicates must be >= 1, got 0"),
    ("study --master-seed -1", "", "", "master_seed must be >= 0, got -1"),
    ("study", "individuals = 5", "individuals = 0", "n_individuals must be >= 1, got 0"),
    ("simulate --n -1", "", "", "n must be >= 1, got -1"),
    ("simulate --n 0", "", "", "n must be >= 1, got 0"),
    ("simulate --seed -1", "", "", "seed must be >= 0, got -1"),
])
def test_negative_seeds_and_empty_counts_are_range_errors(tmp_path, capsys, command,
                                                          old, new, message):
    csv_path, _ = example_paths()
    ini = tmp_path / "range.ini"
    ini.write_text(STUDY_INI.replace(old, new))
    out = tmp_path / "out"
    name, *options = command.split()
    paths = {"fit": ["--data", csv_path, "--out-dir", str(out)],
             "study": ["--out-dir", str(out)],
             "simulate": ["--out", str(tmp_path / "sim.csv")]}[name]
    assert main([name, "--config", str(ini), *paths, *options]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("sigma", [
    "25 1 0 0; 1 49 0 0; 0 0 0.25 0; 0 0 0 0.0016",
    "25 0 0 0; 0 49 0 0; 0 0 0.25 0; 0 0 0 0.0016",
])
def test_the_ini_init_sigma_reaches_the_study_config(tmp_path, monkeypatch, sigma):
    # the study itself is replaced by a stub that stops at its config
    class Stop(Exception):
        pass

    def stop(cfg):
        raise Stop(cfg)

    monkeypatch.setattr(cli, "run_simulation_study", stop)
    ini = tmp_path / "study.ini"
    ini.write_text(STUDY_INI.replace("sigma_diag = 25, 49, 0.25, 0.0016",
                                     f"sigma = {sigma}"))
    with pytest.raises(Stop) as stopped:
        main(["study", "--config", str(ini), "--out-dir", str(tmp_path / "out")])
    study, run = stopped.value.args[0], load_config(ini)
    assert np.array_equal(study.init.sigma.values, run.init.sigma.values)
    assert np.array_equal(study.model.design, run.model.design)
    assert study.pattern == run.pattern and study.fit == run.fit
    assert (study.n_replicates, study.n_individuals, study.master_seed) == (2, 5, 1)


# Short chains and a loose tolerance: a study fit converges after the
# 10-iteration window, so one replicate is kept at its first attempt.
FAST_MCEM = """
[mcem]
chain_length = 40
burn_in = 10
warmup = 3
outer_tol = 10
max_outer = 15
"""

LINEAR_STUDY_INI = """[model]
name = linear_gaussian
q = 3

[pattern]
pairs = (1,3)

[init]
m = 0, 0, 0
sigma = 2 0.5 0; 0.5 1 0.2; 0 0.2 1
theta = 1
""" + FAST_MCEM


def test_study_uses_the_configured_doses(tmp_path, capsys):
    reports = []
    for model in ("name = cortisol", "name = cortisol\ndoses = 0.02, 0.05, 0.2, 1, 3, 8, 20"):
        ini = tmp_path / "study.ini"
        ini.write_text(STUDY_INI.replace("name = cortisol", model) + FAST_MCEM)
        out_dir = tmp_path / f"study{len(reports)}"
        assert main(["study", "--config", str(ini), "--replicates", "1",
                     "--out-dir", str(out_dir)]) == 0
        reports.append(json.loads((out_dir / "report.json").read_text()))
    capsys.readouterr()
    assert [report["n_used"] for report in reports] == [1, 1]
    assert reports[0]["rows"] != reports[1]["rows"]


def test_linear_gaussian_study_runs_from_a_full_init_sigma(tmp_path, capsys):
    ini = tmp_path / "linear.ini"
    ini.write_text(LINEAR_STUDY_INI + """
[study]
individuals = 20
truth_m = 1, -0.5, 2
truth_sigma = 1 0.3 0; 0.3 0.8 -0.2; 0 -0.2 1.5
truth_theta = 0.5
""")
    out_dir = tmp_path / "study"
    assert main(["study", "--config", str(ini), "--replicates", "1",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n_used"] == 1 and report["lr"]["df"] == 1
    assert report["replicates"][0]["estimates"]["em_icf"]["sigma"][0][2] == 0.0
    # q means, q(q+1)/2 covariance entries and theta, between header and loglik
    assert len((out_dir / "table1.csv").read_text().splitlines()) == 1 + 3 + 6 + 1 + 1


def test_study_needs_a_truth_of_the_model_order(tmp_path, capsys):
    # without a [study] section the truth is the built-in cortisol one
    ini = tmp_path / "linear.ini"
    ini.write_text(LINEAR_STUDY_INI)
    assert main(["study", "--config", str(ini), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: study truth has order 4 but the linear_gaussian model has order 3\n")


def test_simulate_does_not_hold_the_truth_to_the_pattern(tmp_path, capsys):
    # data under the alternative: the truth is nonzero at the (1,4) zero
    ini = tmp_path / "study.ini"
    ini.write_text(STUDY_INI.replace("20 -4.5 -0.3 0;", "20 -4.5 -0.3 0.005;")
                   .replace("; 0 -0.002 0 1e-5", "; 0.005 -0.002 0 1e-5"))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    assert load_dataset(out).n == 5


XTILDE = "4,-3,3\n-3,4,-3\n3,-3,4\n"
# The [study] section of STUDY_INI, for a fit's config, and a start that
# is not positive definite.
STUDY_SECTION = STUDY_INI[STUDY_INI.index("[study]"):] + "\n"
NOT_PD_SIGMA = "sigma = 25 30 0 0; 30 25 0 0; 0 0 0.25 0; 0 0 0 0.0016"
NOT_PD = "symmetric factorization failed"


@pytest.mark.parametrize("command,old,new,message", [
    ("fit", "name = cortisol", "name = cortisol\ndoses = 0.01, 0.1, 1, 10",
     "dataset has 7 observations per individual, model expects 4"),
    ("fit", "name = cortisol", "name = cortisol\ndoses = 0.02, 0.05, 0.2, 1, 3, 8, 20",
     "dataset design grid differs from the model design"),
    ("fit", "outer_tol = 1e-12", "outer_tol = nan", "outer_tol: expected a finite number"),
    ("fit", "theta = 0.04", "theta = nan", "theta: expected a finite number"),
    ("fit", "m = 50,", "m = nan,", "m: expected finite numbers"),
    ("fit", "0.25, 0.0016", "0.25, inf", "sigma_diag: expected finite numbers"),
    ("fit", "theta = 0.04", "theta = 0", "residual variance theta must be positive"),
    ("fit", "theta = 0.04", "theta = -1", "residual variance theta must be positive"),
    ("icf", "3,-3,4", "nan,-3,4", "xtilde has non-finite entries"),
    ("icf", "4,-3,3\n", "4,-2,3\n",
     "matrix is not symmetric: entry (1,2) is -2.0 but (2,1) is -3.0"),
    *((command, "sigma_diag = 25, 49, 0.25, 0.0016", NOT_PD_SIGMA, f"error: sigma: {NOT_PD}")
      for command in ("fit", "simulate", "study")),
    *((command, "25, 49, 0.25", "25, 49, -0.25", f"error: sigma_diag: {NOT_PD}")
      for command in ("fit", "simulate", "study")),
    ("fit", "[mcem]", STUDY_SECTION.replace("20 -4.5", "0.001 -4.5") + "[mcem]",
     f"error: truth_sigma: {NOT_PD}"),
    *((command, "20 -4.5", "0.001 -4.5", f"error: truth_sigma: {NOT_PD}")
      for command in ("simulate", "study")),
    ("fit", "[mcem]", STUDY_SECTION.replace("theta = 0.015", "theta = -0.015") + "[mcem]",
     "error: truth_theta: must be >= 0, got -0.015"),
    *((command, "theta = 0.015", "theta = -0.015",
       "error: truth_theta: must be >= 0, got -0.015") for command in ("simulate", "study")),
    ("study", "pairs = (1,4), (3,4)", "pairs =",
     "error: study pattern has no zero to test against the free fit"),
    *((command, "name = cortisol", f"name = linear_gaussian\nq = {q}",
       f"error: q must be >= 1, got {q}")
      for command in ("fit", "simulate", "study") for q in (-1, 0)),
])
def test_bad_inputs_exit_with_one_error_line(tmp_path, capsys, command, old, new, message):
    csv_path, _ = example_paths()
    path = tmp_path / "input"
    text = {"fit": QUICK_INI, "simulate": STUDY_INI, "study": STUDY_INI, "icf": XTILDE}[command]
    assert old in text
    path.write_text(text.replace(old, new))
    argv = {"fit": ["fit", "--data", csv_path, "--config", str(path),
                    "--out-dir", str(tmp_path / "out"), "--no-se", "--loglik-samples", "300"],
            "simulate": ["simulate", "--config", str(path), "--out", str(tmp_path / "sim.csv")],
            "study": ["study", "--config", str(path), "--out-dir", str(tmp_path / "out")],
            "icf": ["icf", "--xtilde", str(path)]}[command]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize("which", ["data", "config"])
def test_a_file_that_is_not_utf8_exits_with_one_error_line(tmp_path, capsys, which):
    # a Latin-1 e-acute (byte 0xE9) in the first id, or in a key
    csv_path, _ = example_paths()
    data = Path(csv_path).read_bytes()
    header, first = data.split(b"\n", 1)
    files = {"data": header + b"\n\xe9" + first,
             "config": QUICK_INI.encode().replace(b"seed", b"s\xe9ed")}
    path = tmp_path / ("bad.csv" if which == "data" else "bad.ini")
    path.write_bytes(files[which])
    good_ini = tmp_path / "quick.ini"
    good_ini.write_text(QUICK_INI)
    argv = ["fit", "--data", str(path) if which == "data" else csv_path,
            "--config", str(path) if which == "config" else str(good_ini),
            "--out-dir", str(tmp_path / "out"), "--no-se", "--loglik-samples", "300"]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0] and "not UTF-8 text" in lines[0] and "0xe9" in lines[0]


def test_simulate_writes_a_loadable_dataset(tmp_path, capsys):
    ini = tmp_path / "study.ini"
    ini.write_text(STUDY_INI)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--n", "4", "--seed", "9"]) == 0
    data = load_dataset(out)
    assert data.n == 4 and data.n_obs == 7
    capsys.readouterr()


def test_simulate_requires_the_truth_section(tmp_path, capsys):
    csv_path, ini_path = example_paths()  # bundled config has no truth block
    assert main(["simulate", "--config", ini_path,
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "study" in capsys.readouterr().err


def test_fit_short_run_writes_report_and_trace(tmp_path, capsys):
    csv_path, _ = example_paths()
    ini = tmp_path / "quick.ini"
    ini.write_text(QUICK_INI)
    out_dir = tmp_path / "out"
    assert main(["fit", "--data", csv_path, "--config", str(ini),
                 "--out-dir", str(out_dir), "--no-se",
                 "--loglik-samples", "300"]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["iterations"] == 12 and report["converged"] is False
    sigma = np.array(report["params"]["sigma"])
    zeros = sigma[[0, 3, 2, 3], [3, 0, 3, 2]]  # (1,4), (3,4) and transposes
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    assert report["loglik"] is not None and report["mc_se"] > 0.0
    assert report["lr"] is not None and report["lr"]["df"] == 2
    assert report["se"] is None
    assert (report["domain_rejects"], report["icf_sweeps"], report["icf_newton_steps"],
            report["icf_unconverged"], report["icf_ridged"]) == (34, 13, 44, 0, 0)
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 12
    header = trace[0].split(",")
    for row in trace[1:]:
        cells = dict(zip(header, row.split(",")))
        assert cells["sigma_4_1"] == cells["sigma_4_3"] == "0.0"


def test_study_one_replicate_emits_all_outputs(tmp_path, capsys):
    ini = tmp_path / "study.ini"
    ini.write_text(STUDY_INI.replace("chain_length = 80", ""))
    out_dir = tmp_path / "study"
    assert main(["study", "--config", str(ini), "--replicates", "1",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n_replicates"] == 1
    table = (out_dir / "table1.csv").read_text().splitlines()
    assert len(table) == 1 + 15 + 1
    assert (out_dir / "qq.csv").read_text().startswith("u,p")


@pytest.mark.parametrize("flag", ["--loglik-samples", "--se-samples"])
def test_fit_rejects_a_sample_count_below_one_before_fitting(tmp_path, monkeypatch,
                                                             capsys, flag):
    calls = []
    monkeypatch.setattr(harness, "fit", lambda *args, **kwargs: calls.append(args))
    pools = record_pools(monkeypatch)
    csv_path, ini_path = example_paths()
    assert main(["fit", "--data", csv_path, "--config", ini_path,
                 "--out-dir", str(tmp_path / "out"), flag, "0"]) == 1
    assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err
    assert calls == [] and pools == []


@pytest.mark.parametrize("option,value,message", [
    ("--tol", "0", "tol must be finite and > 0"),
    ("--tol", "nan", "tol must be finite and > 0"),
    ("--max-sweeps", "0", "max_sweeps must be >= 1"),
])
def test_icf_rejects_out_of_range_settings(tmp_path, capsys, option, value, message):
    mat = tmp_path / "xt.csv"
    mat.write_text("4,-3,3\n-3,4,-3\n3,-3,4\n")
    assert main(["icf", "--xtilde", str(mat), "--pattern", "(1,3)",
                 option, value]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err and captured.out == ""


@pytest.mark.parametrize("se_options", [["--no-se"], ["--se-samples", "60"]])
def test_fit_writes_the_same_bytes_on_one_and_two_cpus(tmp_path, monkeypatch, capsys,
                                                       se_options):
    csv_path, _ = example_paths()
    ini = tmp_path / "quick.ini"
    ini.write_text(QUICK_INI)
    pools = record_pools(monkeypatch)
    # one CPU starts no pool; two run the free fit in one worker, and
    # the second share of the SE stencil in another
    expected_pools = {1: [], 2: [1, 1] if "--se-samples" in se_options else [1]}
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        assert main(["fit", "--data", csv_path, "--config", str(ini),
                     "--out-dir", str(out_dir), "--loglik-samples", "300",
                     *se_options]) == 0
        outputs[cpus] = [(out_dir / name).read_bytes()
                         for name in ("report.json", "trace.csv")]
        assert pools == expected_pools[cpus]
    capsys.readouterr()
    assert outputs[1] == outputs[2]
    report = json.loads(outputs[2][0])
    assert report["lr"]["df"] == 2
    assert (report["se"] is None) == ("--no-se" in se_options)
