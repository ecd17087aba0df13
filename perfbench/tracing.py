"""Hooks into zeromix from outside the package: span tracing and host speed.

Each hook replaces one function at the place where its caller looks it
up (a module global such as ``zeromix.cli.fit`` or a model method on
the class) and restores the original on exit.  The same layer can be
reached through several bindings: ``mcem.fit`` is called as ``cli.fit``
and ``harness.fit``, and ``fisher_se`` calls ``inference.loglik_is``
while ``cli`` calls its own import.  All bindings of a layer record
under one span name.

``Tracer`` records a span per call.  Spans are kept in memory.  A
span's self time is its duration minus the durations of its direct
children; hooks are synchronous, so children never overlap.

``HostSpeed`` runs a fixed probe between calls, so that a job's time can
be rescaled to a reference host speed; see ``HostSpeed``.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.children_s


class Hooks:
    """Patches bindings with ``self.wrap(...)`` and restores them on exit."""

    def __init__(self):
        self.missing = []
        self._restore = []

    def wrap(self, name, func, count):
        raise NotImplementedError

    def install(self, hooks):
        """Patch every ``(binding, span name, counter)`` in ``hooks``.

        A binding is ``"module:attr"`` or ``"module:Class.attr"``.  A
        binding that no longer exists is recorded in ``missing`` and
        skipped, so a later change that removes a hook shows up as a
        missing span rather than a crash.
        """
        for binding, name, count in hooks:
            module_name, _, path = binding.partition(":")
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(binding)
                continue
            # a method inherited from a base class is hooked on ``owner``
            # and removed again on exit, so the base stays untouched
            own = attr in vars(owner)
            setattr(owner, attr, self.wrap(name, original, count))
            self._restore.append((owner, attr, original if own else None))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class Tracer(Hooks):
    """Records spans for calls through the hooks it installs."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self._stack = []

    def wrap(self, name, func, count=None):
        """Return ``func`` recording a span ``name`` per call.

        ``count(args, kwargs, result, span)`` may add work counters to
        the span; it runs after the span is closed so its cost is not
        charged to the layer.
        """
        tracer = self

        @functools.wraps(func)
        def hooked(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer._stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.children_s += span.duration
                tracer.spans.append(span)
            if count is not None:
                count(args, kwargs, result, span)
            return result

        return hooked

    def named(self, name):
        return [s for s in self.spans if s.name == name]


# The probe: fixed work that shares no code with zeromix and, like its
# hot paths, is small numpy linear algebra driven from Python.
_PROBE_MATRIX = np.eye(4) * 3.0 + 0.5
_PROBE_REPS = 300
# Probe time that defines the reference host speed.  Rescaled times are
# the times the work would take on a host where the probe takes this
# long; it is near the fast state of the machine the benchmark was
# written on.  It must not change, or results stop being comparable.
PROBE_REF_S = 1.5e-3


def probe():
    """Run the probe once; return its duration in seconds."""
    t0 = time.perf_counter()
    for _ in range(_PROBE_REPS):
        np.linalg.cholesky(_PROBE_MATRIX)
    return time.perf_counter() - t0


class HostSpeed(Hooks):
    """Samples the host's speed while a job runs.

    After a hooked call returns, and at least ``interval`` seconds after
    the previous probe, it runs the probe.  The job's own work time is
    its wall time minus the probes; ``rescaled`` divides that by the
    mean probe time and multiplies it by ``PROBE_REF_S``.  Probes are
    spread evenly over the job, so their mean follows the share of the
    job the host spent in a slow state.
    """

    def __init__(self, interval=0.1):
        super().__init__()
        self.interval = interval
        self.samples = []
        self._last = time.perf_counter()

    def wrap(self, name, func, count=None):
        speed = self

        @functools.wraps(func)
        def hooked(*args, **kwargs):
            result = func(*args, **kwargs)
            if time.perf_counter() - speed._last >= speed.interval:
                speed.sample()
            return result

        return hooked

    def sample(self):
        self.samples.append(probe())
        self._last = time.perf_counter()

    def rescaled(self, wall):
        """``wall``, which contains the probes, at the reference speed.

        The caller probes once more at the end of the job, so that the
        last stretch of work is sampled too and ``samples`` is not empty.
        """
        work = wall - sum(self.samples)
        return work * PROBE_REF_S / float(np.mean(self.samples))


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _count_fit(args, kwargs, result, span):
    pattern = _arg(args, kwargs, 2, "pattern")
    span.counts["constrained"] = int(not pattern.is_empty())
    span.counts["iterations"] = int(result.iterations)
    span.counts["converged"] = int(result.converged)


def _count_estep(args, kwargs, result, span):
    ys = _arg(args, kwargs, 1, "ys")
    chain_length = _arg(args, kwargs, 6, "chain_length")
    burn_in = _arg(args, kwargs, 7, "burn_in")
    span.counts["proposals"] = int(len(ys)) * (int(chain_length) + int(burn_in))
    span.counts["accepted"] = float(np.sum(result.accept_rate)) * (int(chain_length) + int(burn_in))
    span.counts["domain_rejects"] = int(np.sum(result.domain_rejects))


def _count_rows(args, kwargs, result, span):
    # methods are hooked on the class, so args[0] is the model
    xs = _arg(args, kwargs, 2, "xs")
    span.counts["rows"] = int(np.shape(xs)[0])


def _count_icf(args, kwargs, result, span):
    stats = _arg(args, kwargs, 0, "stats")
    pattern = _arg(args, kwargs, 1, "pattern")
    diag = result[1]
    span.counts["constrained"] = int(not pattern.is_empty())
    span.counts["sweeps"] = int(diag.sweeps)
    span.counts["column_updates"] = int(diag.sweeps) * int(stats.dim)
    span.counts["not_converged"] = int(not diag.converged)
    span.counts["ridged"] = int(diag.ridged)


def _count_loglik(args, kwargs, result, span):
    data = _arg(args, kwargs, 1, "data")
    span.counts["samples"] = int(result.n_samples) * int(data.n)


def _count_fisher(args, kwargs, result, span):
    span.counts["se_present"] = len(result.se)


def _count_lr(args, kwargs, result, span):
    h0 = _arg(args, kwargs, 0, "loglik_h0")
    h1 = _arg(args, kwargs, 1, "loglik_h1")
    span.counts["inverted"] = int(float(h0) > float(h1))


# Every binding through which the workloads reach a layer.  Spans are
# named after the module that defines the function.
HOOKS = (
    ("zeromix.cli:load_config", "config.load_config", None),
    ("zeromix.cli:load_dataset", "models.load_dataset", None),
    ("zeromix.cli:fit", "mcem.fit", _count_fit),
    ("zeromix.harness:fit", "mcem.fit", _count_fit),
    ("zeromix.mcem:run_estep", "mcem.run_estep", _count_estep),
    ("zeromix.mcem:icf_solve", "covariance.icf_solve", _count_icf),
    ("zeromix.cli:icf_solve", "covariance.icf_solve", _count_icf),
    ("zeromix.covariance:icf_solve", "covariance.icf_solve", _count_icf),
    ("zeromix.models:CortisolModel.log_cond_density_pairs",
     "models.log_cond_density_pairs", _count_rows),
    ("zeromix.models:CortisolModel.theta_stat_pairs", "models.theta_stat_pairs", _count_rows),
    ("zeromix.cli:loglik_is", "inference.loglik_is", _count_loglik),
    ("zeromix.harness:loglik_is", "inference.loglik_is", _count_loglik),
    ("zeromix.inference:loglik_is", "inference.loglik_is", _count_loglik),
    ("zeromix.cli:fisher_se", "inference.fisher_se", _count_fisher),
    ("zeromix.cli:lr_test", "inference.lr_test", _count_lr),
    ("zeromix.harness:lr_test", "inference.lr_test", _count_lr),
    ("zeromix.harness:simulate_dataset", "harness.simulate_dataset", None),
    ("zeromix.harness:_run_replicate", "harness.replicate", None),
)


# Calls after which HostSpeed may probe: the model density (E-step and
# importance sampling), the ICF solve and dataset simulation recur
# every few milliseconds to tenths of a second in every workload's job.
PROBE_HOOKS = tuple((binding, None, None) for binding in (
    "zeromix.models:CortisolModel.log_cond_density_pairs",
    "zeromix.mcem:icf_solve",
    "zeromix.covariance:icf_solve",
    "zeromix.harness:simulate_dataset",
))


def _total(spans, key):
    return sum(s.counts.get(key, 0) for s in spans)


def _busy(spans):
    return sum(s.duration for s in spans)


def _ms_quantile(spans, q):
    if not spans:
        return 0.0
    return float(np.quantile([s.duration for s in spans], q)) * 1e3


def layer_metrics(tracer):
    """Per-layer metrics ``name -> (value, unit)`` from the recorded spans.

    A layer that was never called reports zero calls and zero time.
    """
    out = {}
    fits = tracer.named("mcem.fit")
    fit_s = _busy(fits)
    iterations = _total(fits, "iterations")
    out["mcem.fit.calls"] = (len(fits), "count")
    out["mcem.fit.s"] = (fit_s, "s")
    out["mcem.fit.iterations"] = (iterations, "count")
    out["mcem.fit.not_converged"] = (len(fits) - _total(fits, "converged"), "count")
    out["mcem.fit.self_s"] = (sum(s.self_s for s in fits), "s")
    out["mcem.outer_iter_ms"] = (fit_s / iterations * 1e3 if iterations else 0.0, "ms")

    estep = tracer.named("mcem.run_estep")
    proposals = _total(estep, "proposals")
    out["mcem.run_estep.calls"] = (len(estep), "count")
    out["mcem.run_estep.s"] = (_busy(estep), "s")
    out["mcem.run_estep.self_s"] = (sum(s.self_s for s in estep), "s")
    out["mcem.run_estep.ms_p50"] = (_ms_quantile(estep, 0.5), "ms")
    out["mcem.run_estep.ms_p90"] = (_ms_quantile(estep, 0.9), "ms")
    out["mcem.estep.proposals"] = (proposals, "count")
    out["mcem.estep.accept_rate"] = (
        _total(estep, "accepted") / proposals if proposals else 0.0, "share")
    out["mcem.estep.domain_rejects"] = (_total(estep, "domain_rejects"), "count")

    for layer, with_ns in (("models.log_cond_density_pairs", True),
                           ("models.theta_stat_pairs", False)):
        spans = tracer.named(layer)
        rows = _total(spans, "rows")
        busy = _busy(spans)
        out[layer + ".calls"] = (len(spans), "count")
        out[layer + ".rows"] = (rows, "count")
        out[layer + ".s"] = (busy, "s")
        if with_ns:
            out[layer + ".ns_per_row"] = (busy / rows * 1e9 if rows else 0.0, "ns")

    # free fits call the solver with the empty pattern, which returns
    # without sweeping; quantiles and per-sweep figures use the others
    solves = tracer.named("covariance.icf_solve")
    constrained = [s for s in solves if s.counts.get("constrained", 0)]
    sweeps = _total(constrained, "sweeps")
    updates = _total(constrained, "column_updates")
    constrained_s = _busy(constrained)
    out["covariance.icf_solve.calls"] = (len(solves), "count")
    out["covariance.icf_solve.s"] = (_busy(solves), "s")
    out["covariance.icf_solve.ms_p50"] = (_ms_quantile(constrained, 0.5), "ms")
    out["covariance.icf_solve.ms_p90"] = (_ms_quantile(constrained, 0.9), "ms")
    out["covariance.icf.sweeps_total"] = (sweeps, "count")
    out["covariance.icf.sweeps_mean"] = (sweeps / len(constrained) if constrained else 0.0, "count")
    out["covariance.icf.sweeps_max"] = (
        max((s.counts.get("sweeps", 0) for s in constrained), default=0), "count")
    out["covariance.icf.free_sweeps"] = (
        _total([s for s in solves if not s.counts.get("constrained", 0)], "sweeps"), "count")
    out["covariance.icf.column_updates"] = (updates, "count")
    out["covariance.icf.us_per_column_update"] = (
        constrained_s / updates * 1e6 if updates else 0.0, "us")
    out["covariance.icf.not_converged"] = (_total(solves, "not_converged"), "count")
    out["covariance.icf.ridged"] = (_total(solves, "ridged"), "count")

    ll = tracer.named("inference.loglik_is")
    samples = _total(ll, "samples")
    ll_s = _busy(ll)
    out["inference.loglik_is.calls"] = (len(ll), "count")
    out["inference.loglik_is.samples"] = (samples, "count")
    out["inference.loglik_is.s"] = (ll_s, "s")
    out["inference.loglik_is.us_per_sample"] = (ll_s / samples * 1e6 if samples else 0.0, "us")

    fisher = tracer.named("inference.fisher_se")
    fisher_ids = {id(s) for s in fisher}
    out["inference.fisher_se.s"] = (_busy(fisher), "s")
    out["inference.fisher_se.loglik_evals"] = (
        sum(1 for s in ll if id(s.parent) in fisher_ids), "count")
    out["inference.fisher_se.se_present"] = (_total(fisher, "se_present"), "count")
    out["inference.lr_inverted"] = (_total(tracer.named("inference.lr_test"), "inverted"), "count")

    out["harness.simulate_dataset.s"] = (_busy(tracer.named("harness.simulate_dataset")), "s")
    replicates = tracer.named("harness.replicate")
    out["harness.replicate_s"] = (
        float(np.median([s.duration for s in replicates])) if replicates else 0.0, "s")

    out["config.load_config.s"] = (_busy(tracer.named("config.load_config")), "s")
    out["models.load_dataset.s"] = (_busy(tracer.named("models.load_dataset")), "s")
    return out
