"""The one runner of ``stats --n`` and ``verify`` rows: workers, order, signals."""

import os

from .errors import OutOfRange
from .perm import length


def resolve_jobs(jobs: int | None) -> int:
    """Worker count: ``jobs``, else the CPUs this process may use."""
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if jobs < 1:
        raise OutOfRange(f"jobs must be a positive integer, got {jobs!r}")
    return jobs


def map_rows(fn, perms, jobs: int | None = None) -> list:
    """``[fn(w) for w in perms]``, on ``jobs`` worker processes at most.

    One job or fewer than four rows run here; otherwise one worker per row,
    up to ``jobs``, takes the rows longest first, in contiguous chunks of
    1/(8 jobs) of them.  Length ranks cost only loosely (Spearman rho 0.69
    over the S_6 stats), but no order tried finishes S_6 sooner, and on
    ``verify`` lexicographic order is within 7%.  Chunks spare a round
    trip per row, and at eight per worker none of S_7's longest-first
    chunks outweighs a worker's share.  SIGINT or SIGTERM here leaves the
    pool's block, which terminates the workers.  A worker whose parent
    dies outright ends within a second of that death, however early it
    comes, since it knows its parent's pid from the fork.
    """
    perms = list(perms)
    jobs = min(resolve_jobs(jobs), len(perms))
    if jobs == 1 or len(perms) < 4:
        return list(map(fn, perms))
    import multiprocessing
    import signal

    order = sorted(range(len(perms)), key=lambda i: length(perms[i]), reverse=True)
    # pool threads and workers start with both blocked: a signal that a
    # pool thread took would wait for pool.map before its handler ran
    stop = {signal.SIGINT, signal.SIGTERM}
    held = signal.pthread_sigmask(signal.SIG_BLOCK, stop)
    chunk = max(1, len(perms) // (8 * jobs))
    # forked whatever the default start method (forkserver on Linux from
    # Python 3.14): a worker then starts at once, as a child of this
    # process and with all that it has loaded
    fork = multiprocessing.get_context("fork")
    with fork.Pool(jobs, _worker_signals, (os.getpid(),)) as pool:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        done = pool.map(fn, [perms[i] for i in order], chunksize=chunk)
    return [row for _, row in sorted(zip(order, done), key=lambda pair: pair[0])]


def _worker_signals(parent: int):
    """Leave SIGINT to the parent; end at the SIGTERM of ``Pool.terminate``,
    or once ``parent`` is gone, since a killed parent terminates no one."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    threading.Thread(target=_watch_parent, args=(parent,), daemon=True).start()


def _watch_parent(parent: int):
    """End this process once ``parent``, the pid that forked it, is gone: at
    the first check if it died first, else within a second of its death."""
    import time

    while os.getppid() == parent:
        time.sleep(1)
    os._exit(1)
