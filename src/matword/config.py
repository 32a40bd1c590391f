"""Process-wide BLAS thread count, and the LAPACK entry points matword calls.

numpy and scipy each bundle their own OpenBLAS, which starts one thread
per core by default.  At desk scale (n up to a few hundred) the extra
threads make SVDs and eigensolvers slower, and they change the last digits
of results, so ``import matword`` sets both libraries to MATWORD_THREADS
threads, 1 when the variable is unset.  CLI ``--threads`` wins over the
environment variable.  0 means automatic: each library goes back to the
count it started with (OPENBLAS_NUM_THREADS, else one per core).  A count
above the usable cores is capped at the core count.  With any other BLAS
(MKL, a distribution's shared OpenBLAS) nothing is set and
``blas_threads()`` returns None.  The libraries are opened here, from the
wheels' files, and only here: ``lapack(name)`` hands out a routine of
scipy's copy, the one scipy.linalg calls, so matword runs the same,
already pinned, LAPACK without importing any scipy submodule.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

DEFAULT_THREADS = 1

# symbol suffix of each wheel's bundled OpenBLAS; numpy's is the 64-bit-integer build
_BUNDLED = ((numpy, "64_"), (scipy, ""))


@dataclass(frozen=True)
class _OpenBLAS:
    package: str
    library: ctypes.CDLL
    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]
    default: int  # thread count when first found


_libraries: list[_OpenBLAS] | None = None


def _load(package, suffix: str) -> _OpenBLAS | None:
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return _OpenBLAS(package.__name__, lib, setter, getter, getter())
    return None


def _bundled() -> list[_OpenBLAS]:
    global _libraries
    if _libraries is None:
        found = (_load(package, suffix) for package, suffix in _BUNDLED)
        _libraries = [lib for lib in found if lib is not None]
    return _libraries


def set_threads(count: int):
    """Run the bundled OpenBLAS libraries on ``count`` threads (0 = their own
    default), never on more threads than there are usable cores."""
    if count < 0:
        raise ValueError(f"thread count must be >= 0, got {count}")
    # the cores this process may run on; all cores where affinity is unknown
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    for lib in _bundled():
        lib.set_num_threads(min(count or lib.default, cores))


def env_threads() -> int:
    """Thread count MATWORD_THREADS asks for; DEFAULT_THREADS when it is unset or empty."""
    text = os.environ.get("MATWORD_THREADS", "").strip()
    if not text:
        return DEFAULT_THREADS
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"MATWORD_THREADS must be an integer >= 0, got {text!r}")
    return int(text)


def apply_env():
    """Set the thread count from MATWORD_THREADS; a malformed value warns and
    applies DEFAULT_THREADS (the CLI rejects it instead)."""
    try:
        count = env_threads()
    except ValueError as exc:
        warnings.warn(f"{exc}; using {DEFAULT_THREADS}", stacklevel=2)
        count = DEFAULT_THREADS
    set_threads(count)


def blas_threads() -> dict[str, int] | None:
    """Thread count each bundled OpenBLAS reports, keyed by package; None
    when neither numpy nor scipy bundles one."""
    libs = _bundled()
    return {lib.package: lib.get_num_threads() for lib in libs} if libs else None


def lapack(name: str, argtypes: list):
    """LAPACK routine ``name`` (say "zgees") of scipy's bundled OpenBLAS, the
    copy scipy.linalg calls, with 32-bit integers and gfortran's calling
    convention, declared to take ``argtypes`` and return nothing (a Fortran
    subroutine); None when scipy bundles no OpenBLAS."""
    for lib in _bundled():
        if lib.package == "scipy":
            routine = getattr(lib.library, f"scipy_{name}_", None)
            if routine is not None:
                routine.argtypes, routine.restype = argtypes, None
            return routine
    return None
