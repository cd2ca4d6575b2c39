"""The benchmark's own self-test, run as a test of the library.

bench/spans.py traces library functions by the names their callers look
them up under (``equilibrium.solve_affine``, ``exact.rref``, ...), and
bench/selftest.py checks the trace identities those names carry. A
refactor that renames a traced function, or changes how often it is
called per support, fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
