"""What ``import adgm`` loads.

The scipy subpackages below each add 10-26 MB of resident memory when
imported, more than the benchmark's peak-memory bound allows on the
smallest workload, so the package must not load them at import time.
"""

import os
import subprocess
import sys
from pathlib import Path

import adgm

HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.sparse.csgraph")


def test_import_does_not_load_heavy_scipy_subpackages():
    src = str(Path(adgm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, adgm; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
