"""Run configuration files.

A run is described by an INI file with up to five sections; these are
all the keys each section accepts:

``[model]``
    ``name`` is ``cortisol`` or ``linear_gaussian``.  The cortisol model
    accepts an optional ``doses`` list; the linear model takes ``q``.
    Either model's key under the other name is an error.

``[pattern]``
    ``pairs`` lists the prescribed zeros as 1-based index pairs, e.g.
    ``(1,4), (3,4)``.  Omitting the section or leaving ``pairs`` empty
    means an unconstrained covariance.

``[init]``
    Starting point for the fit: ``m`` (comma-separated), either
    ``sigma_diag`` (diagonal entries) or ``sigma`` (semicolon-separated
    rows), and ``theta``.  The covariance must be positive definite.

``[mcem]``
    Optional fit settings: the keys are the fields of
    :class:`zeromix.mcem.FitConfig`, read as its keywords; unset keys
    keep their defaults.

``[study]``
    Optional simulation-study block: ``replicates``, ``individuals``,
    ``master_seed``, and the generating truth (``truth_m``, positive
    definite ``truth_sigma`` rows, ``truth_theta`` >= 0), read as
    keywords of :class:`zeromix.harness.SimStudyConfig` (the first two
    set ``n_replicates`` and ``n_individuals``); ``zeromix study`` adds
    the model, pattern, start and fit of the sections above.

Any other section or key, including keys under ``[DEFAULT]``, is a
:class:`~zeromix.exceptions.ConfigError`, so a misspelt name fails
instead of leaving a default in place; so is a ``nan`` or ``inf``.  A ``#``, or
a ``;`` after a space, starts a comment; in ``sigma`` and ``truth_sigma`` ``;`` splits rows.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .covariance import SpdMatrix, ZeroPattern
from .exceptions import ConfigError, NotPositiveDefiniteError
from .mcem import FitConfig, FitState
from .models import CortisolModel, LinearGaussianModel, NlmeModel


@dataclass(frozen=True)
class RunConfig:
    """Everything an INI file specifies about a run."""

    model: NlmeModel
    pattern: ZeroPattern
    init: FitState
    fit: FitConfig
    study: dict | None  # the [study] values by SimStudyConfig field name


def _parse_floats(text, key):
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a list of numbers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{key}: empty value")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: expected finite numbers, got {text!r}")
    return np.asarray(values, dtype=float)


def _parse_matrix(text, key):
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ConfigError(f"{key}: empty value")
    parsed = [_parse_floats(row, key) for row in rows]
    width = len(parsed[0])
    if any(len(row) != width for row in parsed) or width != len(parsed):
        raise ConfigError(f"{key}: rows do not form a square matrix")
    return np.asarray(parsed, dtype=float)


def _parse_pairs(text, key):
    cleaned = text.replace("(", " ").replace(")", " ").replace(",", " ")
    tokens = cleaned.split()
    if len(tokens) % 2 != 0:
        raise ConfigError(f"{key}: expected index pairs, got {text!r}")
    try:
        flat = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integer indices, got {text!r}") from exc
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def _number(kind):
    def parse(text, key):
        try:
            value = kind(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: invalid value {text!r}") from exc
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {text!r}")
        return value
    return parse


def _text(text, key):
    return text


_INT = _number(int)
_FLOAT = _number(float)

# The accepted keys of each section with their parsers.  ``_check_names``
# rejects every section and key not listed here; ``_read`` parses a
# section's values through its table.
_SECTIONS = {
    "model": {"name": _text, "doses": _parse_floats, "q": _INT},
    "pattern": {"pairs": _parse_pairs},
    "init": {"m": _parse_floats, "sigma_diag": _parse_floats, "sigma": _parse_matrix,
             "theta": _FLOAT},
    "mcem": {f.name: _FLOAT if isinstance(f.default, float) else _INT
             for f in fields(FitConfig)},
    "study": {"replicates": _INT, "individuals": _INT, "master_seed": _INT,
              "truth_m": _parse_floats, "truth_sigma": _parse_matrix, "truth_theta": _FLOAT},
}
# [model] key each model name takes besides ``name``
_MODEL_KEYS = {"cortisol": "doses", "linear_gaussian": "q"}
# SimStudyConfig fields of the [study] keys named otherwise, and the truth
_STUDY_FIELDS = {"replicates": "n_replicates", "individuals": "n_individuals"}
_STUDY_TRUTH = ("truth_m", "truth_sigma", "truth_theta")


def _check_names(parser):
    if parser.defaults():
        raise ConfigError("unknown section [%s] (keys %s); every key belongs to one of %s"
                          % (parser.default_section, ", ".join(map(repr, parser.defaults())),
                             ", ".join(f"[{name}]" for name in _SECTIONS)))
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError("unknown section [%s]; expected %s"
                              % (name, ", ".join(f"[{s}]" for s in _SECTIONS)))
        for key in parser[name]:
            if key not in _SECTIONS[name]:
                raise ConfigError("unknown key %r in [%s]; accepted keys: %s"
                                  % (key, name, ", ".join(_SECTIONS[name])))


def _read(parser, name):
    """Parsed values of the keys set in section ``name`` (empty if absent)."""
    if name not in parser:
        return {}
    table = _SECTIONS[name]
    # configparser leaves ``;`` comments in: in a matrix, ``;`` separates rows
    return {key: table[key]((raw if table[key] is _parse_matrix
                             else re.sub(r"(?:^|\s);.*", "", raw)).strip(), key)
            for key, raw in parser[name].items()}


def _spd(entries, key, pattern=None):
    try:
        return SpdMatrix(entries, pattern=pattern)
    except NotPositiveDefiniteError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _build_model(values):
    name = values.get("name")
    if name is None:
        raise ConfigError("[model] section needs a 'name' key")
    if name not in _MODEL_KEYS:
        raise ConfigError(f"unknown model name {name!r}")
    for key in values:
        if key != "name" and key != _MODEL_KEYS[name]:
            raise ConfigError(f"[model] key {key!r} does not apply to the {name} model, "
                              f"which takes {_MODEL_KEYS[name]!r}")
    if name == "cortisol":
        if "doses" not in values:
            return CortisolModel()
        return CortisolModel(doses=tuple(values["doses"]))
    if "q" not in values:
        raise ConfigError("linear_gaussian model needs a 'q' key")
    return LinearGaussianModel(values["q"])


def _build_init(values, q, pattern):
    if "m" not in values or "theta" not in values:
        raise ConfigError("[init] section needs 'm' and 'theta' keys")
    m = values["m"]
    if len(m) != q:
        raise ConfigError(f"m: expected {q} entries, got {len(m)}")
    if ("sigma_diag" in values) == ("sigma" in values):
        raise ConfigError("[init] needs exactly one of 'sigma_diag' or 'sigma'")
    if "sigma_diag" in values:
        key, diag = "sigma_diag", values["sigma_diag"]
        if len(diag) != q:
            raise ConfigError(f"sigma_diag: expected {q} entries, got {len(diag)}")
        entries = np.diag(diag)
    else:
        key, entries = "sigma", values["sigma"]
        if entries.shape != (q, q):
            raise ConfigError(f"sigma: expected a {q}x{q} matrix")
    return FitState(m=m, sigma=_spd(entries, key, pattern), theta=values["theta"])


def _build_study(values, q):
    for key in _STUDY_TRUTH:
        if key not in values:
            raise ConfigError(f"[study] section needs a {key!r} key")
    if len(values["truth_m"]) != q or values["truth_sigma"].shape != (q, q):
        raise ConfigError("study truth does not match the model dimension")
    _spd(values["truth_sigma"], "truth_sigma")
    if values["truth_theta"] < 0:
        raise ConfigError(f"truth_theta: must be >= 0, got {values['truth_theta']!r}")
    return {_STUDY_FIELDS.get(key, key): value for key, value in values.items()}


def load_config(path):
    """Parse an INI run configuration into a :class:`RunConfig`.

    Raises
    ------
    ConfigError
        If the file cannot be read, is not UTF-8 text or cannot be
        parsed, names a section or key
        outside the documented set, or holds an invalid value.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    _check_names(parser)

    if "model" not in parser:
        raise ConfigError("config file needs a [model] section")
    model = _build_model(_read(parser, "model"))
    pattern = ZeroPattern(_read(parser, "pattern").get("pairs", []), dim=model.q)
    if "init" not in parser:
        raise ConfigError("config file needs an [init] section")
    init = _build_init(_read(parser, "init"), model.q, pattern)
    fit = FitConfig(**_read(parser, "mcem"))
    study = _build_study(_read(parser, "study"), model.q) if "study" in parser else None
    return RunConfig(model=model, pattern=pattern, init=init, fit=fit, study=study)
