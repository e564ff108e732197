"""A second process for work that splits in two, bit for bit.

Two places split a big job over the machine's CPUs: ``build_tree`` solves
the tree's deepest level in a child, and ``ExtensionOperator`` evaluates f
and grows Newton tables on half of a large call's new nodes and tables in
one.  Each side runs the same arithmetic at the same precision, so the
result is the serial one.  ``usable`` says whether a fork can pay at all;
``child`` runs one job in a forked child while the caller does its own
half.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from contextlib import contextmanager
from typing import Callable


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


@contextmanager
def child(work: Callable[[], object]):
    """Run ``work()`` in a forked child while the with-body runs here.

    Yields ``result``, which reads the pickled return value of ``work()``
    from the child's pipe to its end; ChildProcessError if the child left
    without writing all of it (it raised, or died: a pickle cut short never
    loads).  Yields None if the system refuses the fork, and the caller
    does the work itself.

    The child imports nothing, touches no lock and runs no exit handler: it
    runs ``work``, writes the pickle and leaves through ``os._exit``.  On
    leaving the with-block the pipe is closed and the child reaped, killed
    first (SIGKILL) unless its result was read to the end.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        yield None
        return
    if not pid:
        try:
            # no collection in the child: a finalizer of the parent's
            # garbage could flush a buffer the parent still owns
            gc.disable()
            os.close(rfd)
            view = memoryview(pickle.dumps(work(), pickle.HIGHEST_PROTOCOL))
            while view:
                view = view[os.write(wfd, view):]
        finally:
            os._exit(0)
    os.close(wfd)
    ended = False

    def result():
        nonlocal ended
        chunks = []
        while chunk := os.read(rfd, 1 << 20):
            chunks.append(chunk)
        ended = True
        try:
            return pickle.loads(b"".join(chunks))
        except Exception as err:
            raise ChildProcessError("the forked child exited without a "
                                    "whole result") from err

    try:
        yield result
    finally:
        os.close(rfd)
        if not ended:
            import signal     # only here: it costs 0.4 ms to import
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
