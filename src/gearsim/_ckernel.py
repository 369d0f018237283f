"""The C twin of `classical._rk4` (`_rk4.c`), compiled on first use.

Tests and benchmarks run gearsim from its source tree, with no build step,
so the library builds the kernel itself: `cc -O2 -ffp-contract=off -fPIC
-shared` into the package's own `__pycache__/`, which is as writable as the
modules beside it.  The file is named by a CRC-32 of the C source, the
flags and the machine, so an edit to any of them builds afresh.  The
compiler writes a temporary file in that directory, which is then renamed
into place, so a concurrent process never loads half a library.

No fast math and no FMA contraction: the kernel must give the floats the
Python loop gives.  Where there is no compiler, the build fails or the
directory is read-only, `rk4` returns None for the rest of the process and
the classical limit runs the Python loop instead, with the same results.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import tempfile
import zlib

__all__ = ["rk4"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")
_BUILD_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# a build that takes longer has failed
_BUILD_TIMEOUT_S = 60.0
# gearsim_rk4(n, I_r, nV0, k, p, pa, th, l, dt, n_steps, theta, L)
_ARGTYPES = (ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_long,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
             ctypes.c_double, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p)


@functools.cache
def rk4():
    """The kernel's `gearsim_rk4` as a ctypes function, built if need be,
    or None if it cannot be built or loaded.  Tried once per process."""
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
        fn = ctypes.CDLL(path).gearsim_rk4
    except (OSError, AttributeError):
        return None
    fn.argtypes = _ARGTYPES
    fn.restype = None
    return fn


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
