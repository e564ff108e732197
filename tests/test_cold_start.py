"""What a fresh interpreter loads.

The package does not use scipy, so a fresh interpreter that builds trees
(power_law and example2 models, whose analytic tails take mpmath's zeta and
trigamma, among them), evaluates the extension operator, scans densities,
estimates Markov factors and runs the CLI's ``gamma`` and ``markov`` commands
never loads it.  Only the tests' oracles import scipy.

numpy and the three modules that import it (``dimension``, ``hausdorff``,
``markov``) load on first use: ``import cantorext`` and the CLI commands that
run only the extension operator's side never load them, and every old
re-export of the package still resolves.  When they do load, the CLI keeps
OpenBLAS's thread pool from starting.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantorext
from cantorext.gamma import POWER_LAW, build_model

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "readme_cli.json"

CHILD = """
import contextlib, io, sys
sys.path.insert(0, "src")
import mpmath as mp
import cantorext
from cantorext import cli, dimension, extension, gamma, geometry, hausdorff
from cantorext.markov import markov_numeric

model = gamma.build_model(gamma.EXAMPLE1, k_max=12, B=1.0)
tree = geometry.build_tree(model, depth=4, bits=512)
out = extension.ExtensionOperator(tree, s_max=2).evaluate(
    lambda x: mp.sin(x), mp.mpf("0.41"))
if not mp.isfinite(out.value):
    sys.exit("extension value not finite")
delta = gamma.build_model(gamma.DELTA_FORM, k_max=12, b=2.0)
hausdorff.density_scan_tree(geometry.build_tree(delta, depth=4, bits=512),
                            dimension.LogPower(alpha0=0.5), range(2, 5))
gamma.classify_ep(delta)
gamma.build_model(gamma.POWER_LAW, a=2)
gamma.build_model(gamma.EXAMPLE2)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["gamma", "--family", "example1"])
if code:
    sys.exit(f"cantorext gamma exited {code}")
print("scipy" in sys.modules)
est = markov_numeric([(0.0, 1.0)], 2, points_per_atom=128)
print(est.value, est.stalled)
print("scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["markov", "--family", "power_law", "--a", "2",
                     "--depth", "3", "--n", "2,4,8"])
if code:
    sys.exit(f"cantorext markov exited {code}")
print("scipy" in sys.modules)
print(repr(gamma.build_model(gamma.POWER_LAW, a=2).gamma_sum))
"""


def test_scipy_never_loads():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    before, lp, after_estimate, after_cli, gamma_sum = proc.stdout.splitlines()
    assert before == after_estimate == after_cli == "False"
    value, stalled = lp.split()
    # M_2([0, 1]) = 2 n^2 = 8; a grid admits slightly more
    assert 8.0 <= float(value) < 8.01 and stalled == "False"
    assert gamma_sum == repr(build_model(POWER_LAW, a=2).gamma_sum)


NUMPY_SIDE = ("numpy", "cantorext.dimension", "cantorext.hausdorff",
              "cantorext.markov")

LOADED = """
import contextlib, io, json, shlex, sys
sys.path.insert(0, "src")
numpy_side = json.loads(sys.argv[1])
def loaded():
    print(json.dumps([m for m in numpy_side if m in sys.modules]))
import cantorext
loaded()
from cantorext import cli
for command in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(shlex.split(command))
    if code:
        sys.exit(f"cantorext {command} exited {code}")
    loaded()
"""


def test_numpy_loads_only_with_the_commands_that_run_it():
    commands = list(json.loads(GOLDEN.read_text()))
    light = [c for c in commands if c.split()[0] in
             ("gamma", "geometry", "nodes", "extend", "dn")]
    assert len(light) == 5
    heavy = [c for name in ("hausdorff", "markov") for c in commands
             if c.split()[0] == name]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(NUMPY_SIDE),
         json.dumps(light + heavy)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *before, hausdorff, markov = [json.loads(line)
                                  for line in proc.stdout.splitlines()]
    assert before == [[]] * 6
    # the hausdorff command has no use for the Markov module
    assert hausdorff == list(NUMPY_SIDE[:3])
    assert markov == list(NUMPY_SIDE)


POOL = """
import contextlib, io, json, os, shlex, sys
sys.path.insert(0, "src")
from cantorext import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(shlex.split(sys.argv[1]))
print(json.dumps([code, len(os.listdir("/proc/self/task")), out.getvalue()]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the process's tasks in /proc")
def test_the_cli_starts_no_blas_thread():
    # threading.active_count() cannot see OpenBLAS's pool (forking.usable);
    # /proc can.  With neither variable set, the command that loads numpy
    # still runs in one task and prints its golden body
    command = "hausdorff --family example1 --B 1 --depth 6"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", POOL, command],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    code, tasks, body = json.loads(proc.stdout)
    assert (code, tasks) == (0, 1)
    golden = json.loads(GOLDEN.read_text())[command]
    assert hashlib.sha256(body.encode()).hexdigest() == golden


#: every name the package exports, by the module that defines it
EXPORTS = {
    "logreal": ["LogReal"],
    "gamma": ["GammaModel", "Profile", "build_model", "classify_ep",
              "condition_diagnostics", "profile"],
    "geometry": ["BasicInterval", "CantorTree", "NodeSet", "build_tree",
                 "select_nodes", "verify_geometry"],
    "dimension": ["EtaProfile", "LogPower"],
    "hausdorff": ["ContentResult", "DensityTable", "FloatAtoms",
                  "IslandFamily", "TreeAtoms", "compare_dimension_functions",
                  "content_dp", "density_scan_islands", "density_scan_tree",
                  "ep_root_test", "lambda_level_estimate"],
    "bump": ["BumpSpec", "bump_for_interval"],
    "extension": ["ExtensionOperator", "Schedule", "divided_differences",
                  "dn_experiment", "schedule_for"],
    "markov": ["MarkovEstimate", "markov_bounds", "markov_numeric",
               "ratio_table"],
}

RESOLVED = """
import importlib, json, sys
sys.path.insert(0, "src")
differ = []
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        ns = {}
        exec(f"from cantorext import {name}", ns)
        defining = importlib.import_module(f"cantorext.{module}")
        if ns[name] is not getattr(defining, name):
            differ.append(name)
print(json.dumps(differ))
"""


def test_every_old_export_resolves_to_its_defining_object():
    # in a fresh interpreter, so that each name resolves on first use
    proc = subprocess.run([sys.executable, "-c", RESOLVED,
                           json.dumps(EXPORTS)],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout) == []


def test_dir_lists_every_export_and_unknown_names_raise():
    listed = dir(cantorext)
    assert [n for names in EXPORTS.values() for n in names
            if n not in listed] == []
    assert {"dimension", "hausdorff", "markov"} <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        cantorext.no_such_name
