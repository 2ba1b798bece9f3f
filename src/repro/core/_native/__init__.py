"""Build-at-first-use loader for the native exact-expansion kernel.

The kernel is one C file (:file:`exactscan.c`, shipped as package data)
compiled into a shared library with the system C compiler the first time it
is needed — there is no build step at install time and **no hard
dependency**: if the compiler is missing, the compile fails, or the cached
library reports a mismatched ABI, :func:`load` returns ``None`` and the
callers in :mod:`repro.core.exact` silently fall back to the numpy bitset
backend (bit-identical results, just slower).

Knobs (environment):

* ``REPRO_NATIVE=0`` — disable the native backend entirely (force the
  fallback path; the CI fallback leg and debugging sessions use this).
* ``REPRO_NATIVE_CC`` / ``CC`` — the compiler driver (default ``cc``).
* ``REPRO_NATIVE_DIR`` — where compiled libraries are cached (defaults to
  ``$REPRO_CACHE_DIR/native`` or ``~/.cache/repro-engine/native``).

Compiled libraries are content-addressed by a SHA-256 over the C source,
the compiler command line, and the ABI version, and written atomically
(tmp + ``os.replace``) so concurrent processes — the spawn-pool workers of
a ``jobs > 1`` search all import this module — race benignly: everyone
compiles the same bytes to the same path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

__all__ = [
    "NATIVE_ABI",
    "native_available",
    "native_build_error",
    "load",
    "reset",
]

#: Must match REPRO_NATIVE_ABI in exactscan.c; a cached .so from an older
#: source revision whose exported ABI differs is recompiled, not trusted.
NATIVE_ABI = 2

_SOURCE = Path(__file__).with_name("exactscan.c")

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_attempted = False
_build_error: str | None = None


def _enabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def _compiler() -> str:
    return os.environ.get("REPRO_NATIVE_CC") or os.environ.get("CC") or "cc"


def _build_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_DIR")
    if env:
        return Path(env)
    cache = os.environ.get("REPRO_CACHE_DIR")
    root = Path(cache) if cache else Path.home() / ".cache" / "repro-engine"
    return root / "native"


def _compile_flags() -> list[str]:
    # -O3 plus portable vectorization-friendly flags; no -march=native so a
    # library compiled on one container stays loadable after migration.
    return ["-O3", "-fPIC", "-shared", "-fvisibility=hidden"]


def _library_path(source: bytes, cc: str, flags: list[str]) -> Path:
    h = hashlib.sha256()
    h.update(f"abi={NATIVE_ABI}|cc={cc}|flags={' '.join(flags)}|".encode())
    h.update(source)
    return _build_dir() / f"exactscan-{h.hexdigest()[:16]}.so"


def _compile(source_path: Path, out_path: Path, cc: str, flags: list[str]) -> str | None:
    """Compile the kernel to ``out_path`` atomically; error text on failure."""
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out_path.parent, suffix=".so.tmp")
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, *flags, "-o", tmp, str(source_path)],
                capture_output=True,
                text=True,
                timeout=120,
                check=False,
            )
            if proc.returncode != 0:
                detail = (proc.stderr or proc.stdout or "").strip()
                return f"{cc} exited {proc.returncode}: {detail[:500]}"
            os.replace(tmp, out_path)
            return None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the exported signatures (and check the compiled ABI)."""
    lib.repro_native_abi.argtypes = []
    lib.repro_native_abi.restype = ctypes.c_int32
    if int(lib.repro_native_abi()) != NATIVE_ABI:
        raise OSError(f"compiled kernel reports ABI {lib.repro_native_abi()}, need {NATIVE_ABI}")
    lib.repro_exact_scan.argtypes = [
        ctypes.c_int32,  # n
        ctypes.c_int32,  # b
        ctypes.c_int32,  # w
        ctypes.c_int32,  # limit
        ctypes.c_int64,  # d
        ctypes.POINTER(ctypes.c_uint64),  # adj
        ctypes.POINTER(ctypes.c_int32),  # low_cut
        ctypes.POINTER(ctypes.c_uint8),  # low_sizes
        ctypes.c_uint64,  # p_lo
        ctypes.c_uint64,  # p_hi
        ctypes.c_double,  # best_r_in
        ctypes.c_uint64,  # best_m_in
        ctypes.c_void_p,  # shared_min (nullable)
        ctypes.POINTER(ctypes.c_double),  # out_r
        ctypes.POINTER(ctypes.c_uint64),  # out_m
    ]
    lib.repro_exact_scan.restype = ctypes.c_int32
    return lib


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable.

    The first call compiles (or picks up the content-addressed cached
    build); later calls are a cached-attribute read.  Every failure mode —
    disabled via ``REPRO_NATIVE=0``, missing source, missing compiler,
    compile error, unloadable or ABI-mismatched library — degrades to
    ``None`` and records the reason in :func:`native_build_error`.
    """
    global _lib, _attempted, _build_error
    if not _enabled():
        return None
    if _attempted:
        return _lib
    with _lock:
        if _attempted:
            return _lib
        _lib, _build_error = _try_load()
        _attempted = True
    return _lib


def _try_load() -> tuple[ctypes.CDLL | None, str | None]:
    if not _SOURCE.is_file():
        return None, f"kernel source missing: {_SOURCE}"
    source = _SOURCE.read_bytes()
    cc = _compiler()
    flags = _compile_flags()
    lib_path = _library_path(source, cc, flags)
    if not lib_path.is_file():
        error = _compile(_SOURCE, lib_path, cc, flags)
        if error is not None:
            return None, error
    try:
        return _bind(ctypes.CDLL(str(lib_path))), None
    except OSError as first_error:
        # A stale or truncated cached build: recompile once, then give up.
        try:
            lib_path.unlink(missing_ok=True)
        except OSError:
            pass
        error = _compile(_SOURCE, lib_path, cc, flags)
        if error is not None:
            return None, f"{first_error}; recompile failed: {error}"
        try:
            return _bind(ctypes.CDLL(str(lib_path))), None
        except OSError as exc:
            return None, str(exc)


def native_available() -> bool:
    """True when the compiled kernel is importable right now."""
    return load() is not None


def native_build_error() -> str | None:
    """Why the last load attempt failed (``None`` when loaded or untried)."""
    return _build_error


def reset() -> None:
    """Forget the cached load attempt (tests flip ``REPRO_NATIVE`` at runtime)."""
    global _lib, _attempted, _build_error
    with _lock:
        _lib = None
        _attempted = False
        _build_error = None
