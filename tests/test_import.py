"""What ``import adgm`` loads.

Importing scipy's sparse matrices alone takes ~20 MB of resident memory,
two thirds of what numpy and the whole package take together, and the other
subpackages each add 10-26 MB more.  The package needs none of them, so
no front end may load any scipy module.
"""

from helpers import run_fresh


def test_import_loads_no_scipy_module():
    code = (
        "import sys, adgm, adgm.cli, adgm.harness; "
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert run_fresh(code).split() == []
