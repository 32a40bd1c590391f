"""Process-wide BLAS thread count, and the LAPACK entry points matword calls.

numpy's wheel bundles an OpenBLAS, which starts one thread per core by
default.  At desk scale (n up to a few hundred) the extra threads make SVDs
and eigensolvers slower, and they change the last digits of results, so
``import matword`` sets that library to MATWORD_THREADS threads, 1 when the
variable is unset.  CLI ``--threads`` wins over the environment variable.
0 means automatic: the library goes back to the count it started with
(OPENBLAS_NUM_THREADS, else one per core).  A count above the usable cores
is capped at the core count.  With any other BLAS (MKL, a distribution's
shared OpenBLAS) nothing is set and ``blas_threads()`` returns None.  The
library is opened here, from the wheel's files, and only here:
``lapack(name)`` hands out a routine of that same, already pinned, copy.
Any other OpenBLAS in the process, such as the one scipy's wheel bundles,
is not matword's and is not pinned.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy

DEFAULT_THREADS = 1


@dataclass(frozen=True)
class _OpenBLAS:
    library: ctypes.CDLL
    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]
    default: int  # thread count when first found


@functools.cache
def _bundled() -> _OpenBLAS | None:
    """numpy's bundled OpenBLAS, the 64-bit-integer build (symbol suffix ``64_``)."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return _OpenBLAS(lib, setter, getter, getter())
    return None


def set_threads(count: int):
    """Run numpy's bundled OpenBLAS on ``count`` threads (0 = its own
    default), never on more threads than there are usable cores."""
    if count < 0:
        raise ValueError(f"thread count must be >= 0, got {count}")
    # the cores this process may run on; all cores where affinity is unknown
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    lib = _bundled()
    if lib is not None:
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


def blas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports; None when numpy bundles none."""
    lib = _bundled()
    return None if lib is None else lib.get_num_threads()


def lapack(name: str, argtypes: list):
    """LAPACK routine ``name`` (say "zgees") of numpy's bundled OpenBLAS, with
    64-bit integers and gfortran's calling convention, declared to take
    ``argtypes`` and return nothing (a Fortran subroutine); None when numpy
    bundles no OpenBLAS."""
    lib = _bundled()
    routine = None if lib is None else getattr(lib.library, f"scipy_{name}_64_", None)
    if routine is not None:
        routine.argtypes, routine.restype = argtypes, None
    return routine
