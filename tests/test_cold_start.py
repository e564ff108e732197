"""scipy stays off the import path.

Only the Markov LP estimator calls scipy, so a fresh interpreter that builds
trees (power_law and example2 models, whose analytic tails take mpmath's
zeta and trigamma, among them), evaluates the extension operator, scans
densities and runs the CLI's ``gamma`` command never loads it.  The first LP
then imports it on demand.
"""

import subprocess
import sys
from pathlib import Path

from cantorext.gamma import POWER_LAW, build_model

ROOT = Path(__file__).resolve().parents[1]

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
print(repr(gamma.build_model(gamma.POWER_LAW, a=2).gamma_sum))
"""


def test_scipy_loads_only_for_lps_and_tails():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    loaded, lp, gamma_sum = proc.stdout.splitlines()
    assert loaded == "False"
    value, stalled = lp.split()
    # M_2([0, 1]) = 2 n^2 = 8; a grid admits slightly more
    assert 8.0 <= float(value) < 8.01 and stalled == "False"
    assert gamma_sum == repr(build_model(POWER_LAW, a=2).gamma_sum)
