"""The package's compiled loops: one C source, _native.c, and one loader.

library() builds _native.c with cc on first use into the package's
__pycache__, under a name that hashes its bytes and flags, and loads it with
ctypes; a process that finds the library there loads it without running cc.
Where it cannot be built or loaded (no C compiler, a package directory that
cannot be written, a library that does not load) it returns None, and every
caller runs its numpy code, which gives the same bits. The choice is made
once per process and logged with why; library is the one seam, so a test
that patches it to return None runs all the numpy code. No -ffast-math and
no -march: both change the float operations.

The library exports only the entries the package calls, each in _SIGNATURES:
svm's smo_fit, and kernels' combine_rows, center_pairs and stage_to_columns.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
from pathlib import Path

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_native.c")
_CACHE = Path(__file__).with_name("__pycache__")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# each exported entry's argument types, as _native.c declares them. ctypes'
# default restype, C int, is smo_fit's; no caller reads the void entries' result
_SIGNATURES = {
    "smo_fit": [_PTR, _PTR, _PTR, _PTR, _I64, _F64, _F64, _I64, _F64, _PTR,
                ctypes.POINTER(_I64), ctypes.POINTER(_F64)],
    "combine_rows": [_PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR],
    "center_pairs": [_PTR, _I64, _PTR, _F64, _F64, _PTR, _PTR, _I64, _PTR],
    "stage_to_columns": [_PTR, _I64, _I64, _PTR, _I64, _I64],
}


def _library_path(source: bytes) -> Path:
    """Where the library built from source with _CFLAGS is cached."""
    tag = hashlib.sha256(b"\0".join([source, *map(str.encode, _CFLAGS)])).hexdigest()
    return _CACHE / f"_native-{tag[:16]}.so"


def _build(source: bytes, lib: Path) -> None:
    """Compile source into lib. Each process compiles into a temp file of its
    own and renames it into place, so processes may build at once."""
    import subprocess
    import tempfile

    _CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{lib.stem}-", suffix=".tmp", dir=_CACHE)
    os.close(fd)
    try:
        proc = subprocess.run(
            ["cc", *_CFLAGS, "-x", "c", "-", "-o", tmp], input=source, capture_output=True,
        )
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip()
            raise OSError(f"cc exited with status {proc.returncode}: {err}")
        os.chmod(tmp, 0o755)  # mkstemp made it 0600, unreadable to other users
        os.replace(tmp, lib)
    finally:
        Path(tmp).unlink(missing_ok=True)


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded library, each entry's signature set, or None where it
    cannot be built or loaded; chosen once per process and logged with why."""
    try:
        source = _SOURCE.read_bytes()
        path = _library_path(source)
        if not path.exists():
            _build(source, path)
        lib = ctypes.CDLL(str(path))
        for name, argtypes in _SIGNATURES.items():
            getattr(lib, name).argtypes = argtypes
    except OSError as exc:
        logger.info("native library: unavailable, the numpy code runs (%s)", exc)
        return None
    logger.info("native library: compiled, from %s", path)
    return lib
