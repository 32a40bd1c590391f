"""The one BLAS thread matword runs on, and the LAPACK entry points it calls.

numpy's wheel bundles an OpenBLAS, which starts one thread per core by
default.  At desk scale (n up to a few hundred) the extra threads make SVDs
and eigensolvers slower, and they change the last digits of results, so
importing this module sets that library to one thread, whatever
OPENBLAS_NUM_THREADS says; no setting changes it.  With any other BLAS
(MKL, a distribution's shared OpenBLAS) nothing is set and
``blas_threads()`` returns None.  The library is opened here, from the
wheel's files, and only here: ``lapack(name)`` hands out a routine of that
same, already pinned, copy.  Any other OpenBLAS in the process, such as the
one scipy's wheel bundles, is not matword's and is not pinned.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy


@functools.cache
def _bundled() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, the 64-bit-integer build (symbol suffix
    ``64_``), set to one thread when it is first found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        return lib
    return None


def blas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports; None when numpy bundles none."""
    lib = _bundled()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def lapack(name: str, argtypes: list):
    """LAPACK routine ``name`` (say "zgees") of numpy's bundled OpenBLAS, with
    64-bit integers and gfortran's calling convention, declared to take
    ``argtypes`` and return nothing (a Fortran subroutine); None when numpy
    bundles no OpenBLAS."""
    lib = _bundled()
    routine = None if lib is None else getattr(lib, f"scipy_{name}_64_", None)
    if routine is not None:
        routine.argtypes, routine.restype = argtypes, None
    return routine


# pin it before any matword call runs on it
_bundled()
