"""Build invariants are explicit checks, so they survive ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the header 2 covers 1, which lies outside the member set {0, 2}, so the
# cover decomposition cannot partition it.  In the flip of the second graph
# node 4 covers 2 and, through the redundant edge 4 3, also 3, which lies
# below 2, so both join indexes' chunk claims must refuse it
SCRIPT = """
import sys
import latticekit as lk
if __debug__:
    sys.exit("assertions are enabled; expected python -O")
try:
    lk.cover_decompose(lk.generate(lk.FamilySpec("chain", 3)), [0, 2], 2)
except lk.StructureError:
    pass
else:
    sys.exit("cover_decompose(chain(3), [0, 2], 2) did not raise StructureError")
g = lk.flip(lk.parse_trg("lattice v1\\n5 6\\n0 3\\n1 2\\n1 4\\n2 3\\n4 2\\n4 3\\n"))
for build in (lk.build_decomposition_tree, lk.build_simple_join_index):
    try:
        build(g)
    except lk.StructureError as e:
        if "cover children must be pairwise incomparable" not in str(e):
            sys.exit(f"{build.__name__}: {e}")
    else:
        sys.exit(f"{build.__name__} did not raise StructureError")
sys.exit(0)
"""


def test_structure_checks_run_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
