"""Simulation study, report emission, and the bundled worked example.

The study simulates balanced datasets of its model (by default the
cortisol washout) from a known truth whose covariance carries zeros,
fits each dataset with the unconstrained EM estimator and the
zero-constrained EM estimator, derives the naive zero-forced estimator
from the unconstrained fit, and aggregates per-parameter Mean, S.E.,
and root mean quadratic error across replicates.  Per-replicate
likelihood ratio p-values feed a QQ-plot data file.  ``fit_and_test``
runs the two fits and the LR test here and in ``zeromix fit``.

Everything is keyed off a single master seed: replicate r derives all
of its randomness from (master seed, r, attempt), so reports are
byte-identical across runs.  Replicates run in min(usable CPUs,
replicates) worker processes through the package's one pool helper
(``_pool.run_tasks``; a worker runs both fits of its replicate); the
report is the same bytes as from one process, because no replicate
reads another's state and the parent assembles the results in order.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from ._pool import run_tasks
from .covariance import SpdMatrix, ZeroPattern, min_eig_repair, zero_forced
from .exceptions import InputMismatchError, NumericalError, ValueOutOfRangeError, _check_count
from .inference import free_param_labels, loglik_is, lr_test, pack_params
from .mcem import FitConfig, FitState, fit
from .models import CortisolModel, NlmeModel, load_dataset, save_dataset, simulate_dataset

ESTIMATOR_NAMES = ("em", "em_icf", "zero_forced")

# Column prefixes used in aggregate rows and the table CSV.
_PREFIX = {"em": "em", "em_icf": "icf", "zero_forced": "zf"}

# Importance samples per log likelihood of the LR test in each replicate.
_LR_SAMPLES = 1000

_TRUTH_M = (50.0, 70.0, 1.5, 0.08)
_TRUTH_SIGMA = (
    (20.0, -4.5, -0.3, 0.0),
    (-4.5, 2.5, -0.1, -2e-3),
    (-0.3, -0.1, 0.05, 0.0),
    (0.0, -2e-3, 0.0, 1e-5),
)
_TRUTH_THETA = 0.015

# The default start, built once and shared: every fit copies it.  It is
# diagonal and deliberately wide: the sampler must mix across the
# latent scale before the step-size decay sets in.
_INIT = FitState(m=np.array([50.0, 70.0, 1.0, 0.1]),
                 sigma=SpdMatrix(np.diag([25.0, 49.0, 0.25, 1.6e-3])), theta=0.04)
_INIT.m.setflags(write=False)


@dataclass(frozen=True)
class SimStudyConfig:
    """Inputs of one simulation study.

    ``model``, ``pattern``, ``init`` and ``fit`` are the objects of a
    :class:`zeromix.config.RunConfig`.  Both estimators start from
    ``init`` (each fit tags its covariance with the fit's pattern) and
    run with ``fit``, whose ``seed`` is ignored: per-replicate seeds
    are derived from ``master_seed``.  The two counts and ``master_seed``
    must be integers (``int`` or numpy).  The truth must be finite, with
    ``truth_theta >= 0``, have the model's order and conform to
    ``pattern``, which must hold at least one zero.
    """

    n_replicates: int = 20
    n_individuals: int = 30
    truth_m: tuple = _TRUTH_M
    truth_sigma: tuple = _TRUTH_SIGMA
    truth_theta: float = _TRUTH_THETA
    master_seed: int = 0
    model: NlmeModel = CortisolModel()
    pattern: ZeroPattern = ZeroPattern([(1, 4), (3, 4)], dim=4)
    init: FitState = field(default_factory=lambda: _INIT)
    fit: FitConfig = FitConfig()

    def __post_init__(self):
        for name, least in (("n_replicates", 1), ("n_individuals", 1), ("master_seed", 0)):
            _check_count(name, getattr(self, name), least)
        if not all(map(math.isfinite, self.truth_m)):
            raise ValueOutOfRangeError("truth_m must be finite, got %r" % (self.truth_m,))
        if not (math.isfinite(self.truth_theta) and self.truth_theta >= 0):
            raise ValueOutOfRangeError("truth_theta must be finite and >= 0, got %r"
                                       % (self.truth_theta,))
        for name, order in (("truth", len(self.truth_m)), ("pattern", self.pattern.dim),
                            ("start", self.init.sigma.dim)):
            if order != self.q:
                raise InputMismatchError("study %s has order %d but the %s model has order %d"
                                         % (name, order, self.model.name, self.q))
        if self.pattern.is_empty():
            raise InputMismatchError("study pattern has no zero to test against the free fit")
        # The truth must be a valid constrained covariance.
        SpdMatrix(np.asarray(self.truth_sigma, dtype=float), pattern=self.pattern)

    @property
    def q(self):
        return self.model.q


@dataclass
class SimStudyReport:
    """Aggregates plus per-replicate records from one study run."""

    n_replicates: int
    n_used: int
    rows: list
    loglik_row: dict
    p_values: list
    lr_df: int
    records: list
    excluded: list
    retried: list
    master_seed: int

    def to_dict(self):
        return {
            "n_replicates": self.n_replicates,
            "n_used": self.n_used,
            "estimators": list(ESTIMATOR_NAMES),
            "rows": self.rows,
            "loglik": self.loglik_row,
            "lr": {"df": self.lr_df, "p_values": self.p_values},
            "replicates": self.records,
            "excluded": self.excluded,
            "retried": self.retried,
            "master_seed": self.master_seed,
        }


def _replicate_seeds(master_seed, replicate, attempt):
    words = np.random.SeedSequence((master_seed, replicate, attempt)).generate_state(4)
    return {
        "data": int(words[0]),
        "em": int(words[1]),
        "em_icf": int(words[2]),
        "loglik": int(words[3]),
    }


def _params(state):
    """JSON-ready estimate: the means, the covariance rows and theta."""
    return {"m": [float(v) for v in state.m],
            "sigma": [[float(v) for v in row] for row in state.sigma.values],
            "theta": float(state.theta)}


def _fit_scored(model, data, pattern, init, fit_cfg, n_samples, ll_seed):
    """One fit and the importance-sampled log likelihood at its estimate."""
    result = fit(model, data, pattern, init, fit_cfg)
    st = result.state
    return result, loglik_is(model, data, st.m, st.sigma, st.theta,
                             n_samples=n_samples, seed=ll_seed)


def fit_and_test(model, data, pattern, init, fit_cfg, free_seed, n_samples, ll_seed):
    """The fit with ``pattern``, the free fit and the LR test between them.

    Both start from ``init``: the constrained fit runs with ``fit_cfg`` here, the
    free one with seed ``free_seed`` in a worker process if ``_pool.run_tasks``
    starts one.  Each gets ``loglik_is`` with ``n_samples`` samples from ``ll_seed``.
    Returns ``(fit, loglik, free_fit, free_loglik, lr)``, the last three None if no zero.
    """
    tasks = [(model, data, pattern, init, fit_cfg, n_samples, ll_seed)]
    if not pattern.is_empty():
        tasks.append((model, data, ZeroPattern([], dim=model.q), init,
                      replace(fit_cfg, seed=free_seed), n_samples, ll_seed))
    (result, ll), *free = run_tasks(_fit_scored, tasks, here_first=True)
    if not free:
        return result, ll, None, None, None
    free_result, free_ll = free[0]
    return result, ll, free_result, free_ll, lr_test(ll.loglik, free_ll.loglik, pattern)


def _run_replicate(cfg, replicate, attempt):
    """One simulate-and-fit pass.  Raises NumericalError on hard failure;
    returns a record with converged flags otherwise."""
    seeds = _replicate_seeds(cfg.master_seed, replicate, attempt)
    data, _ = simulate_dataset(cfg.model, cfg.truth_m, cfg.truth_sigma, cfg.truth_theta,
                               cfg.n_individuals, seeds["data"])
    icf, icf_ll, em, em_ll, lr = fit_and_test(
        cfg.model, data, cfg.pattern, cfg.init, replace(cfg.fit, seed=seeds["em_icf"]),
        seeds["em"], _LR_SAMPLES, seeds["loglik"])

    fits = {"em": em, "em_icf": icf}
    estimates = {name: _params(res.state) for name, res in fits.items()}
    zf = zero_forced(em.state.sigma.values, cfg.pattern)
    repaired = replace(em.state, sigma=min_eig_repair(zf, cfg.n_individuals))
    estimates["zero_forced"] = dict(_params(repaired),
                                    min_eig_before_repair=float(np.linalg.eigvalsh(zf)[0]))
    record = {"replicate": replicate, "attempt": attempt, "estimates": estimates,
              "converged": {name: bool(res.converged) for name, res in fits.items()},
              "iterations": {name: int(res.iterations) for name, res in fits.items()},
              "loglik": {"em": em_ll.loglik, "em_mc_se": em_ll.mc_se,
                         "em_icf": icf_ll.loglik, "em_icf_mc_se": icf_ll.mc_se},
              "lr": {"stat": lr.stat, "df": lr.df, "p": lr.p_value}}
    return record, [name for name, res in fits.items() if not res.converged]


def _aggregate(vectors, truth):
    """Mean, empirical SD, and sqrt(bias^2 + variance) per coordinate."""
    arr = np.asarray(vectors, dtype=float)
    mean = arr.mean(axis=0)
    if arr.shape[0] > 1:
        se = arr.std(axis=0, ddof=1)
    else:
        se = np.zeros(arr.shape[1])
    bias = mean - truth
    rmqe = np.sqrt(bias * bias + se * se)
    return mean, se, rmqe


def _replicate_attempts(cfg, r):
    """Replicate ``r`` with its retry: ``(kept record or None, failed attempts)``.

    Attempt 0 runs first; if it raises a numerical error or does not
    converge, attempt 1 runs with its own derived seeds.  Each failed
    attempt is listed with its reason.
    """
    attempts = []
    for attempt in (0, 1):
        try:
            record, failed = _run_replicate(cfg, r, attempt)
        except NumericalError as exc:
            attempts.append({"attempt": attempt, "error": str(exc)})
            continue
        if failed:
            attempts.append({"attempt": attempt,
                             "error": f"not converged: {', '.join(failed)}"})
            continue
        return record, attempts
    return None, attempts


def run_simulation_study(cfg):
    """Run the full study; deterministic given the master seed.

    A replicate whose fit raises a numerical error or fails to converge
    is re-run once with a fresh derived seed; if the second attempt
    also fails, the replicate is excluded from the aggregates and
    counted in the report.  Replicates run in a pool of
    min(usable CPUs, replicates) processes, or in this process when
    that is one; the report does not depend on the count.
    """
    outcomes = run_tasks(_replicate_attempts,
                         [(cfg, r) for r in range(cfg.n_replicates)])
    records = []
    excluded = []
    retried = []
    for r, (kept, attempts) in enumerate(outcomes):
        if kept is None:
            excluded.append({"replicate": r, "attempts": attempts})
        else:
            if attempts:
                retried.append({"replicate": r, "attempts": attempts})
            records.append(kept)

    # rows are the free parameter vector of the empty pattern
    free = ZeroPattern([], dim=cfg.q)
    labels = free_param_labels(free)
    truth = pack_params(cfg.truth_m, cfg.truth_sigma, cfg.truth_theta, free)
    rows = []
    loglik_row = {}
    p_values = []
    if records:
        per_est = {}
        for name in ESTIMATOR_NAMES:
            vecs = [pack_params(rec["estimates"][name]["m"],
                                rec["estimates"][name]["sigma"],
                                rec["estimates"][name]["theta"], free)
                    for rec in records]
            per_est[name] = _aggregate(vecs, truth)
        for idx, label in enumerate(labels):
            row = {"param": label, "true": float(truth[idx])}
            for name in ESTIMATOR_NAMES:
                mean, se, rmqe = per_est[name]
                pfx = _PREFIX[name]
                row[f"{pfx}_mean"] = float(mean[idx])
                row[f"{pfx}_se"] = float(se[idx])
                row[f"{pfx}_rmqe"] = float(rmqe[idx])
            rows.append(row)
        for name in ("em", "em_icf"):
            vals = np.array([rec["loglik"][name] for rec in records])
            pfx = _PREFIX[name]
            loglik_row[f"{pfx}_mean"] = float(vals.mean())
            loglik_row[f"{pfx}_se"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        p_values = [rec["lr"]["p"] for rec in records]

    return SimStudyReport(
        n_replicates=cfg.n_replicates,
        n_used=len(records),
        rows=rows,
        loglik_row=loglik_row,
        p_values=p_values,
        lr_df=len(cfg.pattern),
        records=records,
        excluded=excluded,
        retried=retried,
        master_seed=cfg.master_seed,
    )


def qq_data(p_values):
    """Pair sorted p-values with uniform plotting positions (i - 0.5)/n."""
    arr = np.asarray(list(p_values), dtype=float)
    if arr.size == 0:
        return []
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueOutOfRangeError("p-values must lie in [0, 1]")
    arr = np.sort(arr)
    n = arr.size
    u = (np.arange(1, n + 1) - 0.5) / n
    return list(zip(u.tolist(), arr.tolist()))


def fit_report(result, se=None, loglik=None, lr=None):
    """Assemble the JSON-ready report of one fit."""
    report = {
        "params": _params(result.state),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "accept_rate": float(result.accept_rate),
        "domain_rejects": int(result.domain_rejects),
        "icf_sweeps": int(result.icf_sweeps),
        "icf_newton_steps": int(result.icf_newton_steps),
        "icf_unconverged": int(result.icf_unconverged),
        "icf_ridged": int(result.icf_ridged),
        "se": None,
        "loglik": None,
        "mc_se": None,
        "lr": None,
    }
    if se is not None:
        report["se"] = {k: float(v) for k, v in se.se.items()}
        report["se_flagged"] = bool(se.flagged)
    if loglik is not None:
        report["loglik"] = float(loglik.loglik)
        report["mc_se"] = float(loglik.mc_se)
    if lr is not None:
        report["lr"] = {"stat": float(lr.stat), "df": int(lr.df),
                        "p": float(lr.p_value)}
    return report


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(result, path):
    """Iteration trace: state coordinates plus sampler summaries."""
    if not result.trace:
        raise ValueOutOfRangeError("fit result carries no trace")
    free = ZeroPattern([], dim=len(result.trace[0].m))
    header = ["k", *free_param_labels(free), "accept_rate", "delta"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in result.trace:
            vec = pack_params(row.m, row.sigma, row.theta, free)
            cells = [str(row.k), *(repr(float(v)) for v in vec),
                     repr(float(row.accept_rate)), repr(float(row.delta))]
            fh.write(",".join(cells) + "\n")


def write_table_csv(report, path):
    """Table-1-style CSV: q + q(q+1)/2 + 1 parameter rows (means,
    covariance entries, residual parameter) plus a log-likelihood row."""
    header = ["param", "true", "em_mean", "em_se", "em_rmqe",
              "icf_mean", "icf_se", "icf_rmqe"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in report.rows:
            cells = [row["param"], repr(row["true"])]
            for pfx in ("em", "icf"):
                for stat in ("mean", "se", "rmqe"):
                    cells.append(repr(row[f"{pfx}_{stat}"]))
            fh.write(",".join(cells) + "\n")
        cells = ["loglik", ""]
        for pfx in ("em", "icf"):
            for stat in ("mean", "se", "rmqe"):
                key = f"{pfx}_{stat}"
                val = report.loglik_row.get(key)
                cells.append(repr(val) if val is not None else "")
        fh.write(",".join(cells) + "\n")


def write_qq_csv(pairs, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("u,p\n")
        for u, p in pairs:
            fh.write(f"{u!r},{p!r}\n")


# Generating parameters of the bundled synthetic assay: a constrained
# fit of the washout model with zeros at (1,4) and (3,4), used here as
# a plausible truth so the packaged example exercises realistic scales.
_EXAMPLE_M = (48.84, 71.46, 1.47, 0.084)
_EXAMPLE_SIGMA = (
    (19.50, -4.66, -0.29, 0.0),
    (-4.66, 2.33, -0.095, -0.0024),
    (-0.29, -0.095, 0.058, 0.0),
    (0.0, -0.0024, 0.0, 1.44e-5),
)
_EXAMPLE_THETA = 0.0151
_EXAMPLE_N = 30
_EXAMPLE_SEED = 181


def write_example_bundle(directory):
    """Regenerate the bundled example dataset into ``directory`` and copy its config there."""
    model = CortisolModel()
    data, _ = simulate_dataset(model, np.asarray(_EXAMPLE_M),
                               np.asarray(_EXAMPLE_SIGMA), _EXAMPLE_THETA,
                               _EXAMPLE_N, _EXAMPLE_SEED)
    csv_path = os.path.join(str(directory), "cortisol_example.csv")
    ini_path = os.path.join(str(directory), "cortisol_example.ini")
    save_dataset(data, csv_path)
    shutil.copyfile(example_paths()[1], ini_path)
    return csv_path, ini_path


def example_paths():
    """Filesystem paths of the bundled dataset and config."""
    from importlib.resources import files
    root = files("zeromix") / "data"
    return str(root / "cortisol_example.csv"), str(root / "cortisol_example.ini")


def cortisol_example():
    """Load the bundled synthetic cortisol dataset and its run config."""
    from .config import load_config
    csv_path, ini_path = example_paths()
    return load_dataset(csv_path), load_config(ini_path)
