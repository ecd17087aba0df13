"""Independent tasks on the CPUs this process may use.

The study's replicates and ``zeromix fit``'s free fit do not read
each other's state.  ``run_tasks`` runs such tasks in min(usable CPUs,
tasks) processes, or all in this process, in order, when that is one
or this is a worker (pools never nest); either way it returns the
results in task order, so callers produce the same bytes whatever the
count.  Tasks are pickled, so must be module-level functions of picklable arguments.
"""

from __future__ import annotations

import concurrent.futures
import os


def usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(fn, arg_tuples, here_first=False):
    """``[fn(*args) for args in arg_tuples]`` on min(usable CPUs, tasks) processes.

    With one process, or in a process ``multiprocessing`` started, no pool
    is made.  Otherwise a pool of that many worker processes runs the calls;
    with ``here_first`` this process runs the first call itself, while a
    pool of one process fewer runs the rest.  A call's exception propagates.
    """
    arg_tuples = list(arg_tuples)
    count = min(usable_cpus(), len(arg_tuples))
    if count > 1:
        import multiprocessing  # loaded only by runs that may pool
        if multiprocessing.parent_process() is not None:
            count = 1
    if count <= 1:
        return [fn(*args) for args in arg_tuples]
    first = 1 if here_first else 0
    # The platform's default start method; on Linux before Python 3.14
    # that is fork, whose workers need not import numpy again.
    with concurrent.futures.ProcessPoolExecutor(max_workers=count - first) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples[first:]]
        head = [fn(*args) for args in arg_tuples[:first]]
        return head + [future.result() for future in futures]
