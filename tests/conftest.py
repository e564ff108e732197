import os
import time
from contextlib import contextmanager

import pytest

# one line per acceptance criterion, printed at the end of the session
CRITERIA: dict = {}


@contextmanager
def criterion(cid: str, budget: float = None, note: str = ""):
    """Time a criterion body, record PASS/FAIL, enforce the runtime budget."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        CRITERIA[cid] = ("FAIL", time.perf_counter() - t0, note)
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        CRITERIA[cid] = ("FAIL", dt, f"runtime over the {budget:.0f}s budget")
        raise AssertionError(f"criterion {cid} took {dt:.1f}s (budget {budget}s)")
    CRITERIA[cid] = ("PASS", dt, note)


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, this process has no child left unreaped: the
    package forks in ``forking.split``, for ``build_tree`` and
    ``ExtensionOperator``, and must reap every child on every path."""
    yield
    if hasattr(os, "waitpid") and hasattr(os, "WNOHANG"):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        raise AssertionError(f"a child process was left unreaped "
                             f"(waitpid found pid {pid})")


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    tr = terminalreporter
    tr.write_sep("-", "acceptance criteria")
    for cid in sorted(CRITERIA, key=lambda c: (len(c), c)):
        status, dt, note = CRITERIA[cid]
        line = f"criterion {cid:<4} {status:<4} {dt:7.2f}s"
        if note:
            line += f"  {note}"
        tr.write_line(line)
