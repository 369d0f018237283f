"""`import gearsim.cli` loads no scipy package, and no heavy optional module.

The fast pipeline, the raw-lattice oracle and the classical limit call
compiled scipy routines, which `gearsim._lapack` loads straight from their
files; so no scipy package (`scipy.linalg`, `scipy.sparse`,
`scipy.optimize`, `scipy.integrate`, or scipy itself) is imported.  Import
loads LAPACK alone; the classical limit loads the root finder and the
quadrature when it first calls them.  Only `verify` needs the acceptance
checks, and imports them where it uses them, so the other subcommands do
not pay for them at start-up.  Neither do `subprocess`, which only a build
of the compiled RK4 kernel imports, nor `hashlib`, whose OpenSSL would add
to every run's memory.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse",
            "gearsim.verification", "subprocess", "hashlib")


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


def _run(command: str, config: str, out: pathlib.Path, watched: tuple) -> str:
    """Exit code of `gearsim <command>` on configs/<config>, run in a fresh
    interpreter, and which of `watched` it left loaded."""
    path = ROOT / "configs" / config
    return _probe(
        "import contextlib, io, sys; from gearsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{command!r}, '--config', {str(path)!r}, "
        f"'--out', {str(out)!r}])\n"
        f"print(code, ','.join(m for m in {watched!r} if m in sys.modules))"
    )


def test_oracle_run_loads_neither_sparse_nor_linalg(tmp_path):
    """The oracle labels its hopping components with numpy and solves each
    with the LAPACK module that `import gearsim` has already loaded."""
    assert _run("oracle", "oracle_22.json", tmp_path,
                ("scipy", "scipy.sparse", "scipy.linalg")) == "0"
    assert (tmp_path / "oracle.csv").is_file()


def test_classical_run_loads_neither_optimize_nor_integrate(tmp_path):
    """The compiled root finder and quadrature import `scipy` itself and
    `scipy._lib._ccallback` on their first call (16 ms), to accept Python
    callbacks; their packages stay unloaded."""
    watched = ("scipy.optimize", "scipy.integrate", "scipy.optimize._zeros",
               "scipy.integrate._quadpack")
    assert (_run("classical", "classical_22.json", tmp_path, watched)
            == "0 scipy.optimize._zeros,scipy.integrate._quadpack")
    assert (tmp_path / "classical.csv").is_file()
