import os
import subprocess
import sys
from pathlib import Path

import mchcontrol


def test_public_names_resolve():
    """Every exported name exists, so a deletion cannot leave one dangling."""
    for name in mchcontrol.__all__:
        getattr(mchcontrol, name)


def test_cli_import_leaves_scipy_out():
    """scipy is a test dependency only: a fresh interpreter that imports the
    command line (this checkout's package) has not imported it."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(mchcontrol.__file__).parents[1]))
    code = "import sys, mchcontrol.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode \
        == 0
