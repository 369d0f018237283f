"""`import gearsim.cli` leaves the heavy optional scipy modules unloaded.

Only the classical limit needs scipy.integrate and scipy.optimize, and only
the raw-lattice oracle needs scipy.sparse; `verify` alone needs the
acceptance checks.  Each is imported where it is used, so the other
subcommands do not pay for it at start-up.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "gearsim.verification")


def test_cli_import_leaves_optional_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, gearsim, gearsim.cli; "
             f"print(','.join(m for m in {DEFERRED!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""
