"""The benchmark's hooks still reach the program.

``perfbench/tracing.py`` patches zeromix by name.  ``wall_s`` is
rescaled by host-speed probes taken after the ``PROBE_HOOKS`` calls,
and ``example_report``'s ``success_share`` divides by the fits seen
through ``zeromix.harness:fit``, so a renamed function would change the
benchmark's figures without an error.  The file is compiled from its
source and run here (nothing is written next to it), and its bindings
are resolved by its own ``Hooks.install``.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# HOOKS bindings to names that no longer exist; the benchmark records
# them as missing (``trace.missing_hooks``).
STALE = {
    "zeromix.cli:fit",
    "zeromix.cli:loglik_is",
    "zeromix.cli:lr_test",
    "zeromix.models:CortisolModel.theta_stat_pairs",
}


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _missing(tracing, hooks):
    class Resolve(tracing.Hooks):
        def wrap(self, name, func, count):
            return func

    resolved = Resolve()
    try:
        resolved.install(hooks)
    finally:
        resolved.uninstall()
    return resolved.missing


def test_every_probe_and_fit_binding_resolves():
    tracing = _tracing()
    bindings = [binding for binding, _, _ in tracing.HOOKS]
    assert "zeromix.harness:fit" in bindings
    assert _missing(tracing, tracing.PROBE_HOOKS) == []
    missing = _missing(tracing, tracing.HOOKS)
    assert "zeromix.harness:fit" not in missing
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
