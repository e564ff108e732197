"""The benchmark's own tests, run with this suite.

perfbench calls the program's API by name (``ExtensionOperator(tree,
s_max=...)``, ``markov.tree_atom_bounds(tree)``, ...), so a changed signature
must fail here.  Its tests run in a subprocess: perfbench/tests has its own
``conftest.py``, and tests/test_acceptance.py imports ``criterion`` from the
module named ``conftest``, so one collection cannot hold both.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_trace_install_finds_every_binding():
    # spans.install wraps each entry point it looks up by name in its owner's
    # __dict__ (markov.linprog, each atom class's clip, ...); a binding that
    # is renamed or moved away makes every --trace 1 run die with a KeyError
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; import spans; "
            "spans.install(spans.Recorder())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
