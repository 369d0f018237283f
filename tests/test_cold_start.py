"""`import gearsim.cli` loads no scipy package, and no heavy optional module.

The fast pipeline and the classical limit call three compiled scipy
routines, which `gearsim._lapack` loads straight from their files; so no
scipy package (`scipy.linalg`, `scipy.optimize`, `scipy.integrate`, or
scipy itself) is imported.  Import loads LAPACK alone; the classical limit
loads the root finder and the quadrature when it first calls them.  Only
the raw-lattice oracle needs scipy.sparse and scipy.linalg, and `verify`
alone needs the acceptance checks; each is imported where it is used, so
the other subcommands do not pay for it at start-up.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse",
            "gearsim.verification")


def _probe(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports gearsim from
    this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_cli_import_leaves_optional_modules_unloaded():
    probe = ("import sys, gearsim, gearsim.cli; "
             f"print(','.join(m for m in {DEFERRED!r} if m in sys.modules))")
    assert _probe(probe) == ""


def test_cli_import_loads_only_the_compiled_lapack():
    probe = ("import sys, gearsim.cli; print(','.join(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.'))))")
    assert _probe(probe) == "scipy.linalg._flapack"


def test_classical_run_loads_neither_optimize_nor_integrate(tmp_path):
    """The compiled root finder and quadrature import `scipy` itself and
    `scipy._lib._ccallback` on their first call (16 ms), to accept Python
    callbacks; their packages stay unloaded."""
    config = ROOT / "configs" / "classical_22.json"
    watched = ("scipy.optimize", "scipy.integrate", "scipy.optimize._zeros",
               "scipy.integrate._quadpack")
    probe = (
        "import contextlib, io, sys; from gearsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['classical', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        f"print(code, ','.join(m for m in {watched!r} if m in sys.modules))"
    )
    assert _probe(probe) == "0 scipy.optimize._zeros,scipy.integrate._quadpack"
    assert (tmp_path / "classical.csv").is_file()
