"""Build invariants are explicit checks, so they survive ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the header 2 covers 1, which lies outside the member set {0, 2}, so the
# cover decomposition cannot partition it
SCRIPT = """
import sys
import latticekit as lk
if __debug__:
    sys.exit("assertions are enabled; expected python -O")
try:
    lk.cover_decompose(lk.generate(lk.FamilySpec("chain", 3)), [0, 2], 2)
except lk.StructureError:
    sys.exit(0)
sys.exit("cover_decompose(chain(3), [0, 2], 2) did not raise StructureError")
"""


def test_structure_checks_run_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
