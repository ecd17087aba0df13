#!/usr/bin/env python3
"""zeromix benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload example_report --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Workloads: example_report, study, icf_batch (see perfbench/README.md);
``all`` runs each in its own process.  The program is imported from
``src/`` of the checkout, never from an installed copy.  Jobs run one
at a time in this process (a closed loop with one client) until
``--seconds`` have passed and at least the workload's least number of
jobs has run; every job of a run uses the seed's inputs, so their
outputs must be byte-identical.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
times rescaled to a reference host speed (``tracing.HostSpeed``).
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes: 0
success, 1 an output check failed, 2 the checkout or the arguments are
unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("example_report", "study", "icf_batch")
# BLAS pools would add threads to a single-client loop and make the
# timings depend on what else runs on the second core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The host's speed drifts and switches between states about 1.5x apart,
# each lasting seconds to tens of minutes, so raw times of one seed
# differ by more than any bound allows.  Times are therefore rescaled
# to a reference host speed measured by a probe run between pieces of
# the work (tracing.HostSpeed).  Set-up is timed in short bursts before
# every job and after the last, each followed by probes; a run reports
# means over its bursts and jobs.  Within a burst the median drops
# one-off spikes.
SETUP_BURST_REPEATS = 5
SETUP_BURST_SECONDS = 0.05
SETUP_BURST_PROBES = 3
# Seed kept out of tuning; a later gain is confirmed on it as well.
HELD_OUT_SEED = 7


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    """Import zeromix from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import zeromix

    where = os.path.dirname(os.path.abspath(zeromix.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"zeromix was imported from {where}, not from {SRC}")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "held_out_seed": HELD_OUT_SEED,
    }


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _mean(values):
    return float(statistics.fmean(values)) if values else 0.0


def _quantile_ms(values, q):
    import numpy

    return float(numpy.quantile(values, q)) * 1e3 if values else 0.0


@dataclass
class Job:
    traced: bool
    wall: float
    outcome: object
    tracer: object
    speed: object


def run_workload(name, seed, seconds, trace, workdir):
    """Set up, run jobs for ``seconds``, check them; return the result dict."""
    from tracing import HOOKS, PROBE_HOOKS, PROBE_REF_S, HostSpeed, Tracer, layer_metrics, probe
    from workloads import STUDY_REPLICATES, WORKLOADS, CheckFailed

    setup, job, finish, check_once, min_jobs = WORKLOADS[name]
    if trace:
        min_jobs = max(min_jobs, 2)  # one untraced and one traced job
    fit_hooks = [h for h in HOOKS if h[1] == "mcem.fit"]

    bursts = []

    def setup_burst():
        times = []
        while len(times) < SETUP_BURST_REPEATS or sum(times) < SETUP_BURST_SECONDS:
            t0 = time.perf_counter()
            inputs = setup(seed, workdir)
            times.append(time.perf_counter() - t0)
        speed = _mean([probe() for _ in range(SETUP_BURST_PROBES)])
        bursts.append(_median(times) * PROBE_REF_S / speed)
        return inputs

    jobs = []
    start = time.perf_counter()
    while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
        inputs = setup_burst()
        traced = bool(trace) and len(jobs) % 2 == 1
        # Plain runs hook the fit boundary, for the fit_s note, and the
        # probe points.  Traced runs are not probed, so that the traced
        # and untraced jobs differ only by the tracing.
        with Tracer() as tracer, HostSpeed() as speed:
            tracer.install(HOOKS if traced else fit_hooks)
            if not trace:
                speed.install(PROBE_HOOKS)
            t0 = time.perf_counter()
            out = job(inputs, workdir, len(jobs))
            if not trace:
                speed.sample()
            wall = time.perf_counter() - t0
        outcome = finish(inputs, out, tracer)
        jobs.append(Job(traced, wall, outcome, tracer, speed))
        probed = (f", rescaled {speed.rescaled(wall):.3f} s over {len(speed.samples)} probes"
                  f" of mean {_mean(speed.samples) * 1e3:.3f} ms" if speed.samples else "")
        print(f"job {len(jobs) - 1}: {'traced' if traced else 'untraced'} wall {wall:.3f} s"
              f"{probed}, attempted {outcome.attempted}, failed {outcome.failed}, "
              f"counts {json.dumps(outcome.counts, sort_keys=True)}", flush=True)

    setup_burst()

    for k, j in enumerate(jobs[1:], start=1):
        if j.outcome.fingerprint != jobs[0].outcome.fingerprint:
            raise CheckFailed(f"job {k} output differs from job 0 for seed {seed}")
    extra = check_once(inputs) if check_once else {}

    plain = [j for j in jobs if not j.traced]
    plain_wall = [j.wall for j in plain]
    fit_s = [t for j in plain for t in j.outcome.fit_s]
    attempted = sum(j.outcome.attempted for j in jobs)
    failed = sum(j.outcome.failed for j in jobs)
    counts = plain[0].outcome.counts
    notes = {"jobs": len(jobs), "setup_bursts": len(bursts), **extra,
             "raw wall_s (mean)": _mean(plain_wall)}

    if name != "icf_batch":
        notes[f"fit_s (mean of {len(fit_s)} constrained fits)"] = _mean(fit_s)
    if name == "example_report":
        notes["loglik_mc_se (10000 samples)"] = counts.get("loglik_mc_se")
    elif name == "study":
        notes["replicates_per_min"] = 60.0 * STUDY_REPLICATES / _mean(plain_wall)
    else:
        notes["solves_per_s"] = len(fit_s) / sum(plain_wall)
        notes[f"solve_ms_p50 ({len(fit_s)} solves)"] = _quantile_ms(fit_s, 0.5)
        notes[f"solve_ms_p90 ({len(fit_s)} solves)"] = _quantile_ms(fit_s, 0.9)

    if trace:
        traced = [j for j in jobs if j.traced]
        per_job = [layer_metrics(j.tracer) for j in traced]
        metrics = {key: (statistics.fmean(m[key][0] for m in per_job), unit)
                   for key, (_, unit) in per_job[0].items()}
        for key in ("harness.replicate.attempts", "harness.replicate.retried",
                    "harness.replicate.excluded"):
            metrics[key] = (float(counts.get(key, 0)), "count")
        overhead = _mean([j.wall for j in traced]) - _mean(plain_wall)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / _mean(plain_wall), "share")
        missing = sorted({b for j in traced for b in j.tracer.missing})
        metrics["trace.missing_hooks"] = (float(len(missing)), "count")
        notes["missing_hooks"] = missing
        notes["uncalled_layers"] = sorted(k[:-len(".calls")] for k, (v, _) in metrics.items()
                                          if k.endswith(".calls") and v == 0)
    else:
        probes = [p for j in plain for p in j.speed.samples]
        notes[f"probe_ms (mean of {len(probes)})"] = _mean(probes) * 1e3
        notes["probe share of raw wall"] = sum(probes) / sum(plain_wall)
        metrics = {
            "setup_s": (_mean(bursts), "s"),
            "wall_s": (_mean([j.speed.rescaled(j.wall) for j in plain]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_share": (1.0 - failed / attempted, "share"),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args, definition):
    from workloads import CheckFailed

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(_result_line(False, 1, 1, {}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in definition[section]}
    emitted = {k: u for k, (_, u) in result["metrics"].items()}
    if emitted != declared:
        raise SystemExit(f"perfbench: metrics {sorted(emitted)} do not match "
                         f"BENCHMARK.json {section} {sorted(declared)}")
    for key, value in result["notes"].items():
        print(f"note {key} = {value}")
    for key, (value, unit) in result["metrics"].items():
        print(f"metric {key} = {value!r} {unit}")
    print(_result_line(True, result["attempted"], result["failed"], result["metrics"]))
    return 0


def run_all(args):
    """Run every workload in its own process; merge their result lines."""
    merged = {}
    attempted = failed = 0
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            merged[f"{name}.{key}"] = (m["value"], m["unit"])
    if status:
        return status
    print(_result_line(True, attempted, failed, merged))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    try:
        definition = _load_definition()
    except (OSError, ValueError) as exc:
        return _fail_setup(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = int(definition["run_seconds"])
    if args.seconds < 1:
        return _fail_setup("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "zeromix", "__init__.py")):
        return _fail_setup(f"no zeromix source under {SRC}; run from a source checkout")
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        # must be set before numpy loads its BLAS
        os.environ[var] = "1"
    try:
        _import_program()
    except ImportError as exc:
        return _fail_setup(f"cannot import zeromix: {exc}")
    return run_one(args, definition)


if __name__ == "__main__":
    sys.exit(main())
