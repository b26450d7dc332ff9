"""Compile-on-demand loader for the columnar engine kernel.

The vector engine backend (:mod:`repro.sim.engine_vector`) drives the C
kernel in ``_vector_kernel.c`` through ctypes. This module owns the
build: compile the source with whatever C compiler the host has (``cc``
/ ``gcc`` / ``clang`` — no Python build machinery, no extra
dependencies), cache the shared object under a content hash, and load it
with an ABI check. Everything here degrades to ``None`` — no compiler,
compile failure, cache directory not writable, ABI mismatch — and the
engine falls back to the pure-Python loop, which is always correct.

The cache key hashes the kernel source, the compiler flags, the ABI
number, and the compiler identity, so editing the kernel or switching
toolchains never reuses a stale binary. Builds go through a temp file +
``os.replace`` so concurrent processes (pytest-xdist, CI matrices) race
benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

#: Must match RK_ABI in _vector_kernel.c; bump on any layout change.
RK_ABI = 6

#: Flags are part of the cache key AND the equivalence contract:
#: -fno-fast-math / -ffp-contract=off pin IEEE semantics so the kernel's
#: float arithmetic is operation-for-operation identical to CPython's.
CFLAGS = ("-std=c11", "-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

#: Linked after the source: the trace generator calls libm's ``pow``, the
#: function CPython's float ``**`` calls, so both round alike.
LDLIBS = ("-lm",)

#: The sanitizer build (REPRO_KERNEL_DEBUG=1) swaps -O2 for these. Loading
#: it through ctypes needs ``LD_PRELOAD=$(cc -print-file-name=libasan.so)``;
#: with ``PYTHONMALLOC=malloc`` every Python-owned buffer the kernel writes
#: through gets its own malloc block, so a bad index hits a redzone.
DEBUG_CFLAGS = (
    "-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
)

#: Environment overrides: cache directory, an explicit off switch
#: (REPRO_NO_KERNEL=1 forces the python fallback without uninstalling
#: cc), and the sanitizer build.
CACHE_ENV_VAR = "REPRO_KERNEL_CACHE"
DISABLE_ENV_VAR = "REPRO_NO_KERNEL"
DEBUG_ENV_VAR = "REPRO_KERNEL_DEBUG"

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_vector_kernel.c")

# Per-process memo: the load is attempted once; both outcomes stick.
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip() not in ("", "0")


def kernel_cflags() -> tuple:
    """The compiler flags of this process's build (the debug build's too)."""
    if _env_flag(DEBUG_ENV_VAR):
        return tuple(flag for flag in CFLAGS if flag != "-O2") + DEBUG_CFLAGS
    return CFLAGS


def kernel_source_path() -> str:
    """Absolute path of the kernel's C source (shipped as package data)."""
    return _SOURCE_PATH


def kernel_cache_dir() -> str:
    """Directory holding compiled kernels (override: REPRO_KERNEL_CACHE)."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
        "repro",
        "kernel",
    )


def find_compiler() -> Optional[str]:
    """A usable C compiler, honouring ``CC``; None when the host has none."""
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc) or None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def load_error() -> Optional[str]:
    """Why the last load attempt failed (None = loaded or not attempted)."""
    return _load_error


def kernel_available() -> bool:
    """True when the compiled kernel can be (or already is) loaded."""
    return load_kernel() is not None


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.rk_abi_version.argtypes = ()
    lib.rk_abi_version.restype = ctypes.c_longlong
    lib.rk_run.argtypes = (
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_void_p),
    )
    lib.rk_run.restype = ctypes.c_longlong
    lib.rk_pretouch.argtypes = (
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.POINTER(ctypes.c_void_p),
    )
    lib.rk_pretouch.restype = ctypes.c_longlong
    lib.rk_mt_randbelow.argtypes = (
        ctypes.c_void_p,
        ctypes.c_longlong,
        ctypes.c_longlong,
        ctypes.c_void_p,
    )
    lib.rk_mt_randbelow.restype = ctypes.c_longlong
    lib.rk_gen_synthetic.argtypes = (ctypes.c_void_p,) * 6
    lib.rk_gen_synthetic.restype = ctypes.c_longlong
    return lib


def _build_and_load() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    with open(_SOURCE_PATH, "rb") as fp:
        source = fp.read()
    cflags = kernel_cflags()
    key = hashlib.sha256(
        source + repr((cflags, LDLIBS, RK_ABI, compiler)).encode()
    ).hexdigest()[:16]
    cache_dir = kernel_cache_dir()
    so_path = os.path.join(cache_dir, f"rk_{key}.so")

    if not os.path.exists(so_path):
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *cflags, "-o", tmp_path, _SOURCE_PATH, *LDLIBS],
                check=True,
                capture_output=True,
                text=True,
            )
            os.replace(tmp_path, so_path)  # Atomic: concurrent builds race benignly.
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(
                f"kernel compile failed ({compiler}): {exc.stderr.strip()[:500]}"
            ) from exc
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)

    lib = _configure(ctypes.CDLL(so_path))
    abi = lib.rk_abi_version()
    if abi != RK_ABI:
        raise RuntimeError(f"kernel ABI {abi} != expected {RK_ABI} ({so_path})")
    return lib


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or None when unavailable.

    The first call does the work (compile if needed, dlopen, ABI check);
    later calls return the memoized handle or the memoized failure.
    """
    global _lib, _load_attempted, _load_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if _env_flag(DISABLE_ENV_VAR):
        _load_error = f"disabled via {DISABLE_ENV_VAR}"
        return None
    try:
        _lib = _build_and_load()
    except Exception as exc:  # Any failure means: use the python backend.
        _load_error = str(exc)
        _lib = None
    return _lib


def reset_for_tests() -> None:
    """Forget the memoized load so tests can exercise failure paths."""
    global _lib, _load_attempted, _load_error
    _lib = None
    _load_attempted = False
    _load_error = None
