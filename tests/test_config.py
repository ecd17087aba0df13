"""Run-configuration parsing: section handling, typed values, and
error reporting."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from zeromix import config
from zeromix.config import load_config
from zeromix.exceptions import ConfigError
from zeromix.mcem import FitConfig
from zeromix.models import CortisolModel, LinearGaussianModel

FULL = """
[model]
name = cortisol

[pattern]
pairs = (1,4), (3,4)

[init]
m = 50, 70, 1, 0.1
sigma_diag = 25, 49, 0.01, 0.0001
theta = 0.04

[mcem]
chain_length = 300
burn_in = 50
warmup = 80
outer_tol = 1e-3
max_outer = 200
seed = 7

[study]
replicates = 4
individuals = 12
master_seed = 3
truth_m = 50, 70, 1.5, 0.08
truth_sigma = 20 -4.5 -0.3 0; -4.5 2.5 -0.1 -0.002; -0.3 -0.1 0.05 0; 0 -0.002 0 1e-5
truth_theta = 0.015
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_full_config_parses_every_section(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    assert isinstance(cfg.model, CortisolModel)
    assert cfg.pattern.pairs == ((1, 4), (3, 4))
    assert np.array_equal(cfg.init.m, [50.0, 70.0, 1.0, 0.1])
    assert np.array_equal(np.diag(cfg.init.sigma.values),
                          [25.0, 49.0, 0.01, 0.0001])
    assert cfg.init.theta == 0.04
    assert cfg.fit.chain_length == 300
    assert cfg.fit.warmup == 80
    assert cfg.fit.seed == 7
    # [study] values are keyed by the SimStudyConfig fields they set
    assert cfg.study.keys() == {"n_replicates", "n_individuals", "master_seed",
                                "truth_m", "truth_sigma", "truth_theta"}
    assert (cfg.study["n_replicates"], cfg.study["n_individuals"]) == (4, 12)
    assert cfg.study["truth_sigma"][0][1] == -4.5
    assert cfg.study["truth_theta"] == 0.015


def test_missing_optional_sections_fall_back_to_defaults(tmp_path):
    text = ("[model]\nname = cortisol\n"
            "[init]\nm = 50, 70, 1, 0.1\nsigma_diag = 1,1,1,1\ntheta = 0.1\n")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.pattern.is_empty()
    # the empty pattern tags the start like any other, so fit keeps it as is
    assert cfg.init.sigma.pattern == cfg.pattern
    assert cfg.fit.chain_length == 500
    assert cfg.study is None


def test_linear_model_and_full_sigma_init(tmp_path):
    text = ("[model]\nname = linear_gaussian\nq = 2\n"
            "[init]\nm = 0, 0\nsigma = 2 0.5; 0.5 1\ntheta = 0.3\n")
    cfg = load_config(_write(tmp_path, text))
    assert isinstance(cfg.model, LinearGaussianModel) and cfg.model.q == 2
    assert np.array_equal(cfg.init.sigma.values,
                          np.array([[2.0, 0.5], [0.5, 1.0]]))


def test_a_semicolon_after_a_space_still_separates_matrix_rows(tmp_path):
    text = ("[model]\nname = linear_gaussian\nq = 2\n"
            "[init]\nm = 0, 0  ; a comment\nsigma = 2 0.5 ; 0.5 1  # a comment\n"
            "theta = 0.3 ; a comment\n"
            "[study]\ntruth_m = 1, 2\ntruth_sigma = 1 0 ;0 1\ntruth_theta = 0.5\n")
    cfg = load_config(_write(tmp_path, text))
    assert np.array_equal(cfg.init.sigma.values, [[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(cfg.study["truth_sigma"], np.eye(2))
    assert np.array_equal(cfg.init.m, [0.0, 0.0]) and cfg.init.theta == 0.3


def test_inline_comments_are_stripped(tmp_path):
    text = ("[model]\nname = cortisol  ; seven standard doses\n"
            "[init]\nm = 50, 70, 1, 0.1\nsigma_diag = 1,1,1,1  # wide\n"
            "theta = 0.1\n")
    cfg = load_config(_write(tmp_path, text))
    assert isinstance(cfg.model, CortisolModel)


@pytest.mark.parametrize("text,fragment", [
    ("[init]\nm = 1\ntheta = 1\n", "[model] section"),
    ("[model]\nname = bogus\n", "unknown model"),
    ("[model]\nname = linear_gaussian\n", "needs a 'q'"),
    ("[model]\nname = cortisol\nq = 4\n", "key 'q' does not apply"),
    ("[model]\nname = linear_gaussian\nq = 2\ndoses = 1, 2\n", "key 'doses' does not apply"),
    ("[model]\nname = cortisol\n", "needs an [init]"),
    ("[model]\nname = cortisol\n[init]\nm = 1,2,3,4\ntheta = 1\n",
     "exactly one of"),
    ("[model]\nname = cortisol\n[init]\nm = 1,2,3,4\nsigma_diag = 1,1\n"
     "theta = 1\n", "expected 4 entries"),
    ("[model]\nname = cortisol\n[init]\nm = 1,2\nsigma_diag = 1,1,1,1\n"
     "theta = 1\n", "expected 4 entries"),
    ("[model]\nname = cortisol\n[init]\nm = 1,2,3,4\nsigma_diag = 1,1,1,1\n"
     "theta = abc\n", "invalid value"),
    ("[model]\nname = cortisol\n[pattern]\npairs = (1\n[init]\n"
     "m = 1,2,3,4\nsigma_diag = 1,1,1,1\ntheta = 1\n", "pairs"),
    ("[model]\nname = cortisol\n[init]\nm = 1,2,3,4\n"
     "sigma = 1 0; 0 1\ntheta = 1\n", "4x4"),
    ("[model]\nname = cortisol\n[init]\nm = 1,2,3,4\nsigma_diag = 1,1,1,1\n"
     "theta = 1\n[study]\ntruth_m = 1,2,3,4\n", "truth_sigma"),
])
def test_config_errors_name_the_offender(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text, "bad.ini"))
    assert fragment in str(err.value)


MINIMAL = ("[model]\nname = cortisol\n"
           "[init]\nm = 1,2,3,4\nsigma_diag = 1,1,1,1\ntheta = 1\n")


@pytest.mark.parametrize("extra,section,key", [
    pytest.param("[mcem]\nchain_lenght = 50\n", "[mcem]", "chain_lenght", id="misspelt-key"),
    pytest.param("[mcme]\nchain_length = 50\n", "[mcme]", None, id="misspelt-section"),
    pytest.param("[mcem]\nwindow = 5\n", "[mcem]", "window", id="window"),
    pytest.param("[mcem]\nicf_tol = 1e-6\n", "[mcem]", "icf_tol", id="icf_tol"),
    pytest.param("[mcem]\ngamma_a = 1.0\n", "[mcem]", "gamma_a", id="gamma_a"),
    pytest.param("[mcem]\ngamma_b = 0.8\n", "[mcem]", "gamma_b", id="gamma_b"),
    pytest.param("[mcem]\nicf_max_sweeps = 9\n", "[mcem]", "icf_max_sweeps",
                 id="icf_max_sweeps"),
    pytest.param("[pattern]\npair = (1,2)\n", "[pattern]", "pair", id="pattern-key"),
    pytest.param("[study]\nreplicate = 3\n", "[study]", "replicate", id="study-key"),
    pytest.param("[DEFAULT]\nseed = 3\n", "[DEFAULT]", "seed", id="default-section"),
])
def test_unknown_sections_and_keys_are_rejected(tmp_path, extra, section, key):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, MINIMAL + extra, "typo.ini"))
    assert section in str(err.value)
    if key is not None:
        assert repr(key) in str(err.value)


def test_every_documented_key_is_accepted(tmp_path):
    # FULL sets every [pattern], [mcem] and [study] key; the [model] and
    # [init] keys it leaves out are set here, each model key under its model
    full = FULL.replace("name = cortisol", "name = cortisol\ndoses = 1, 2, 10")
    assert load_config(_write(tmp_path, full)).model.n_obs == 3
    text = MINIMAL.replace("name = cortisol", "name = linear_gaussian\nq = 4").replace(
        "sigma_diag = 1,1,1,1", "sigma = 1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.model.q == 4 and cfg.init.sigma.dim == 4


def test_readme_mcem_keys_are_the_fit_config_fields():
    # one name per fit setting: the README row, the parser table and FitConfig
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    row = next(line for line in readme.splitlines() if line.startswith("| `[mcem]`"))
    listed = re.findall(r"`(\w+)`", row.split("|")[2])
    assert listed == list(config._SECTIONS["mcem"])
    assert listed == [f.name for f in dataclasses.fields(FitConfig)]


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")
