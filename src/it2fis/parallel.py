"""One fork-pool map for the package's independent CPU-bound tasks.

The cluster-count scan maps its counts over it, and the KNN baseline its
ranges of test rows.  Workers are forked, so they inherit the shared data
through the pool's initializer instead of having it pickled with every task;
only the tasks and their results cross a pipe.
"""

from __future__ import annotations

import functools
import os
import threading

# fn with the shared data bound, set only inside the forked workers by the
# pool's initializer; `fork` hands the initializer's arguments down without
# pickling
_worker = None


def _init_worker(fn, *shared):
    global _worker
    _worker = functools.partial(fn, *shared)


def _run(task):
    return _worker(task)


def workers(n_tasks: int) -> int:
    """One worker per CPU this process may run on, at most one per task.

    A forked child gets only the forking thread, so a lock another thread
    holds at the fork stays locked in it: with other threads running, or
    without `fork`, the work stays in-process (one worker).
    """
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def fork_map(fn, shared, tasks, n_workers) -> list:
    """``[fn(*shared, task) for task in tasks]``, over `n_workers` forked
    processes when that is more than one, in-process otherwise.

    Results come back in task order.  A task's exception reaches the caller,
    and a killed worker raises BrokenProcessPool here instead of hanging.
    """
    if n_workers == 1:
        return list(map(functools.partial(fn, *shared), tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        n_workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(fn, *shared))
    try:
        return list(pool.map(_run, tasks))
    finally:
        pool.shutdown(cancel_futures=True)
