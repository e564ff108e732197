"""A second process for work that splits in two, bit for bit.

``split`` is the package's one fork.  ``build_tree`` gives it the tree's
levels, and ``ExtensionOperator`` gives it f's values at two halves of a
large call's new nodes, then the Newton tables that call grows.  Each side
runs the same arithmetic at the same precision, so every result is the
serial one.  Whatever goes wrong in a split (no usable second CPU, a
refused fork, a job that raises on either side, a child that leaves
without its whole result) returns None, and the caller does the work
itself, serially, where the serial error is raised.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from typing import Callable, Optional, Sequence


def usable() -> bool:
    """Whether a second process can run beside this one: fork exists, 2 CPUs
    are usable, and this process runs one thread (a fork copies no other
    thread, nor releases the locks they hold).

    Only Python's threads are counted.  A thread started in C is not: after
    ``import numpy`` the process has a second task, OpenBLAS's pool (one
    thread per further CPU), while ``threading.active_count()`` stays 1.
    The CLI sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1,
    unless they are set, so that no such pool starts."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and threading.active_count() == 1


def split(jobs: Sequence[Callable[[], object]],
          work: Sequence[float]) -> Optional[list]:
    """Every job's result in job order, from two processes; None if
    ``usable()`` is false, the system refuses the fork, a job raises on
    either side, or the child leaves without writing its whole result (a
    pickle cut short never loads).

    The jobs go into two bins by ``work``, heaviest first, each into the
    bin with less work so far (Graham's longest-processing-time rule).
    This process runs the bin that holds the heaviest job, and a forked
    child runs the other and sends its results back pickled through a
    pipe, so the fork and the pickle weigh on the lighter side.  The child
    imports nothing, touches no lock and runs no exit handler: it runs its
    jobs, writes the pickle and leaves through ``os._exit``.  It is reaped
    on every path, killed first (SIGKILL) unless its result was read to the
    end.
    """
    if not usable():
        return None
    bins, loads = ([], []), [0, 0]
    for i in sorted(range(len(jobs)), key=work.__getitem__, reverse=True):
        b = loads[1] < loads[0]
        bins[b].append(i)
        loads[b] += work[i]
    mine, theirs = bins
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if not pid:
        try:
            # no collection in the child: a finalizer of the parent's
            # garbage could flush a buffer the parent still owns
            gc.disable()
            os.close(rfd)
            view = memoryview(pickle.dumps([jobs[i]() for i in theirs],
                                           pickle.HIGHEST_PROTOCOL))
            while view:
                view = view[os.write(wfd, view):]
        finally:
            os._exit(0)
    os.close(wfd)
    ended = False
    try:
        results = [None] * len(jobs)
        for i in mine:
            results[i] = jobs[i]()
        chunks = []
        while chunk := os.read(rfd, 1 << 20):
            chunks.append(chunk)
        ended = True
        for i, result in zip(theirs, pickle.loads(b"".join(chunks)),
                             strict=True):
            results[i] = result
        return results
    except Exception:
        return None
    finally:
        os.close(rfd)
        if not ended:
            import signal     # only here: it costs 0.4 ms to import
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
