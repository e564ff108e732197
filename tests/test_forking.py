"""``forking.split``: results in job order from both sides, and None on
every failure, with no child left unreaped (conftest checks that after
each test)."""

import os
import signal

import pytest

from cantorext import forking

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

# by Graham's rule, heaviest first: job 1 (5) opens this process's bin,
# job 3 (4) and job 4 (3) go to the child's, job 2 (2) and job 0 (1) to
# this process's at loads 5 : 7 and then 7 : 7
WORK = [1, 5, 2, 4, 3]
HERE, CHILD = {0, 1, 2}, {3, 4}


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def _jobs(fail=None, how=None):
    """Jobs returning (index, pid); job ``fail`` raises, or leaves a child
    through os._exit when ``how`` is "exit" (here it raises instead)."""
    here = os.getpid()

    def job(i):
        if i == fail:
            if how == "exit" and os.getpid() != here:
                os._exit(3)
            raise ValueError(f"job {i}")
        return i, os.getpid()
    return [lambda i=i: job(i) for i in range(len(WORK))]


@needs_fork
def test_results_come_back_in_job_order_from_both_sides(two_cpus):
    got = forking.split(_jobs(), WORK)
    assert [i for i, _ in got] == list(range(len(WORK)))
    here = os.getpid()
    assert {i for i, pid in got if pid == here} == HERE
    assert len({pid for i, pid in got if i in CHILD} - {here}) == 1


@needs_fork
@pytest.mark.parametrize("fail,how", [(3, "raise"), (4, "exit"),
                                      (1, "raise"), (0, "raise")],
                         ids=["child-raises", "child-exits",
                              "here-raises-first", "here-raises-last"])
def test_a_failed_side_returns_none(two_cpus, monkeypatch, fail, how):
    kills = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(sig)
                        or kill(pid, sig))
    assert forking.split(_jobs(fail, how), WORK) is None
    # a raise here kills the child before its result is read; a failed
    # child is read to its end and only reaped
    assert kills == ([signal.SIGKILL] if fail in HERE else [])


@needs_fork
def test_a_refused_fork_returns_none(two_cpus, monkeypatch):
    def refused():
        raise BlockingIOError("no process slot")

    monkeypatch.setattr(os, "fork", refused)
    assert forking.split(_jobs(), WORK) is None


def test_one_cpu_runs_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    ran = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert forking.split([lambda: ran.append(1)], [1]) is None
    assert ran == []
