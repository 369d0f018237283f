"""The C twin of `classical._rk4` (`_rk4.c`), compiled on first use.

`gearsim_rk4` is the one entry point: it writes every sample into the
caller's arrays and stops after a given number of steps, or earlier at the
step that fires the event it is asked for (an L_r sign change, theta_r
reaching a target, or none), so an event search stops at its event.

Tests and benchmarks run gearsim from its source tree, with no build step,
so the library builds the kernel itself: `cc -O2 -ffp-contract=off -fPIC
-shared` into the package's own `__pycache__/`, which is as writable as the
modules beside it.  The file is named by a CRC-32 of the C source, the
flags and the machine, so an edit to any of them builds afresh.  The
compiler writes a temporary file in that directory, which is then renamed
into place, so a concurrent process never loads half a library.

No fast math and no FMA contraction: the kernel must give the floats the
Python loop gives.  Where there is no compiler, the build fails or the
directory is read-only, `library` returns None for the rest of the process
and the classical limit runs the Python loop instead, with the same
results.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import tempfile
import zlib

__all__ = ["library"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")
_BUILD_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# a build that takes longer has failed
_BUILD_TIMEOUT_S = 60.0
# gearsim_rk4(n, I_r, nV0, k, p, pa, th, l, dt, n_steps, mode, target,
# direction, theta, L) -> step index
_RK4_ARGTYPES = (ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_long,
                 ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
                 ctypes.c_double, ctypes.c_long, ctypes.c_long, ctypes.c_double,
                 ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p)


@functools.cache
def library():
    """The kernel as a ctypes library with `gearsim_rk4` typed, built if
    need be, or None if it cannot be built or loaded.  Tried once per
    process."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    key = zlib.crc32(b"\0".join([source, " ".join(_FLAGS).encode(),
                                 platform.machine().encode()]))
    path = os.path.join(_BUILD_DIR, f"_rk4-{key:08x}.so")
    if not os.path.exists(path) and not _build(path):
        return None
    try:
        lib = ctypes.CDLL(path)
        rk4 = lib.gearsim_rk4
    except (OSError, AttributeError):
        return None
    rk4.argtypes, rk4.restype = _RK4_ARGTYPES, ctypes.c_long
    return lib


def _build(path: str) -> bool:
    """Compile `_rk4.c` to `path` through a temporary file beside it;
    False, with the temporary file removed, if that fails."""
    import subprocess

    try:
        os.makedirs(_BUILD_DIR, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_rk4-", suffix=".tmp", dir=_BUILD_DIR)
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run(["cc", *_FLAGS, "-o", tmp, _SOURCE, "-lm"], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=_BUILD_TIMEOUT_S)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        try:
            os.remove(tmp)
        except OSError:
            pass
        return False
    return True
