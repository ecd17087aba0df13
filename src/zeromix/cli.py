"""Command-line front end.

Subcommands: ``fit`` (dataset + config to report and trace), ``simulate``
(truth config to dataset CSV), ``study`` (simulation study to report,
table CSV, QQ CSV) and ``icf`` (conditional variance matrix + pattern
to the constrained optimum).

``fit`` runs ``harness.fit_and_test``, as each study replicate does:
with a non-empty pattern the free fit of the LR test and its log
likelihood run in a worker process while this process runs the
constrained fit and its log likelihood.  The standard errors are then
computed with the stencil's points in shares, one per usable CPU
(see ``inference.fisher_se``).  The output files are the same bytes
for any process count.  Sample counts are
checked before any fit starts.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .config import _parse_pairs, load_config
from .covariance import (SufficientStats, ZeroPattern, icf_solve, kkt_residual, objective,
                         solved_xtilde)
from .exceptions import NumericalError, UsageError, _check_count
from .harness import (SimStudyConfig, fit_and_test, fit_report, qq_data,
                      run_simulation_study, write_json, write_qq_csv,
                      write_table_csv, write_trace_csv)
from .inference import fisher_se
from .models import load_dataset, save_dataset, simulate_dataset


def _derived_seed(base, tag):
    return int(np.random.SeedSequence((base, tag)).generate_state(1)[0])


def _cmd_fit(args):
    _check_count("--loglik-samples", args.loglik_samples, 1)
    _check_count("--se-samples", args.se_samples, 1)
    cfg = load_config(args.config)
    data = load_dataset(args.data)
    os.makedirs(args.out_dir, exist_ok=True)

    result, ll, _, _, lr = fit_and_test(cfg.model, data, cfg.pattern, cfg.init, cfg.fit,
                                        _derived_seed(cfg.fit.seed, 1), args.loglik_samples,
                                        _derived_seed(cfg.fit.seed, 2))

    se = None
    if not args.no_se:
        state = result.state
        se = fisher_se(cfg.model, data, state.m, state.sigma, state.theta,
                       cfg.pattern, n_samples=args.se_samples,
                       seed=_derived_seed(cfg.fit.seed, 3))

    report = fit_report(result, se=se, loglik=ll, lr=lr)
    report_path = os.path.join(args.out_dir, "report.json")
    trace_path = os.path.join(args.out_dir, "trace.csv")
    write_json(report, report_path)
    write_trace_csv(result, trace_path)
    conv = "converged" if result.converged else "hit the iteration cap"
    print(f"fit {conv} after {result.iterations} iterations; "
          f"loglik {ll.loglik:.4f} (mc se {ll.mc_se:.4f})")
    print(f"wrote {report_path} and {trace_path}")
    return 0


def _cmd_simulate(args):
    cfg = load_config(args.config)
    if cfg.study is None:
        raise UsageError("simulate needs a [study] section with the truth")
    st = cfg.study
    n = args.n if args.n is not None else st.get("n_individuals",
                                                  SimStudyConfig.n_individuals)
    seed = args.seed if args.seed is not None else st.get("master_seed",
                                                          SimStudyConfig.master_seed)
    data, _ = simulate_dataset(cfg.model, st["truth_m"], st["truth_sigma"],
                               st["truth_theta"], n, seed)
    save_dataset(data, args.out)
    print(f"wrote {n} individuals x {cfg.model.n_obs} observations to {args.out}")
    return 0


def _cmd_study(args):
    kwargs = {}
    if args.config is not None:
        cfg = load_config(args.config)
        kwargs = dict(cfg.study or {}, model=cfg.model, pattern=cfg.pattern,
                      init=cfg.init, fit=cfg.fit)
    if args.replicates is not None:
        kwargs["n_replicates"] = args.replicates
    if args.master_seed is not None:
        kwargs["master_seed"] = args.master_seed
    study_cfg = SimStudyConfig(**kwargs)

    os.makedirs(args.out_dir, exist_ok=True)
    report = run_simulation_study(study_cfg)
    report_path = os.path.join(args.out_dir, "report.json")
    table_path = os.path.join(args.out_dir, "table1.csv")
    qq_path = os.path.join(args.out_dir, "qq.csv")
    write_json(report.to_dict(), report_path)
    write_table_csv(report, table_path)
    write_qq_csv(qq_data(report.p_values), qq_path)
    print(f"{report.n_used}/{report.n_replicates} replicates aggregated"
          + (f", {len(report.excluded)} excluded" if report.excluded else ""))
    print(f"wrote {report_path}, {table_path}, {qq_path}")
    return 0


def _cmd_icf(args):
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no rows; the size check below reports it
            warnings.simplefilter("ignore", UserWarning)
            xtilde = np.loadtxt(args.xtilde, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read matrix from {args.xtilde}: {exc}") from exc
    if xtilde.size == 0:
        raise UsageError(f"{args.xtilde}: file holds no matrix")
    try:
        stats = SufficientStats(xtilde, n=1)  # the solver reads only X-tilde
    except ValueError as exc:
        raise UsageError(f"{args.xtilde}: {exc}") from exc
    # the solver reads only the lower triangle; an unequal upper one is an input error
    unequal = np.argwhere(np.abs(xtilde - xtilde.T) > 1e-12 * np.max(np.abs(xtilde)))
    if unequal.size:
        i, j = unequal[0]
        raise UsageError(f"{args.xtilde}: matrix is not symmetric: entry ({i + 1},{j + 1}) is "
                         f"{float(xtilde[i, j])!r} but ({j + 1},{i + 1}) is "
                         f"{float(xtilde[j, i])!r}")
    pattern = ZeroPattern(_parse_pairs(args.pattern, "--pattern") if args.pattern else [],
                          dim=stats.dim)
    sol, diag = icf_solve(stats, pattern, tol=args.tol,
                          max_sweeps=args.max_sweeps)
    solved = SufficientStats(solved_xtilde(stats.xtilde)[0], n=1)
    for row in sol.values:
        print(",".join(repr(float(v)) for v in row))
    print(f"objective {objective(sol, solved)!r}")
    print(f"sweeps {diag.sweeps}  newton_steps {diag.newton_steps}  "
          f"kkt {kkt_residual(sol, solved, pattern):.3e}  "
          f"converged {diag.converged}  ridged {diag.ridged}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zeromix",
        description="Mixed-effects estimation with prescribed zeros "
                    "in the random-effect covariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a dataset and write report.json + trace.csv")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="run configuration INI")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--loglik-samples", type=int, default=10000,
                   help="importance samples for the final log likelihood")
    p.add_argument("--se-samples", type=int, default=1000,
                   help="samples per likelihood evaluation in the SE Hessian")
    p.add_argument("--no-se", action="store_true",
                   help="skip standard-error estimation")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="simulate a dataset from the [study] truth")
    p.add_argument("--config", required=True, help="run configuration INI")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--n", type=int, default=None, help="number of individuals")
    p.add_argument("--seed", type=int, default=None, help="simulation seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("study", help="run the simulation study")
    p.add_argument("--config", default=None,
                   help="run configuration INI overriding the built-in study")
    p.add_argument("--replicates", type=int, default=None,
                   help="number of replicates (default 20; 100 for the full study)")
    p.add_argument("--master-seed", type=int, default=None)
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("icf", help="solve the zero-constrained covariance problem")
    p.add_argument("--xtilde", required=True,
                   help="CSV file holding the square, symmetric scatter/conditional matrix")
    p.add_argument("--pattern", default="",
                   help="prescribed zeros as 1-based pairs, e.g. '(1,3)'")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-sweeps", type=int, default=500,
                   help="cap on the solver's iterations, column sweeps plus Newton steps")
    p.set_defaults(func=_cmd_icf)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; fold the
        # latter into the documented usage code.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
