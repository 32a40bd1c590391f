"""Process-wide runtime knobs.

The thread count is stored but no code reads it yet, and it does not set
the BLAS thread count, which can change the last digits of results.  CLI
``--threads`` wins over the MATWORD_THREADS environment variable; 0 means
automatic.
"""

from __future__ import annotations

import os

_threads = 0


def set_threads(count: int):
    global _threads
    if count < 0:
        raise ValueError("thread count must be >= 0")
    _threads = count


def get_threads() -> int:
    if _threads:
        return _threads
    env = os.environ.get("MATWORD_THREADS", "")
    if env.isdigit():
        return int(env)
    return 0
