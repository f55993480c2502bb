"""Worker-process environment pinning and the process's thread budget.

This module must stay free of numpy (and of any module that imports it):
process-pool workers reference :func:`pin_thread_env` as their initializer,
and unpickling that reference imports only this module.  The initializer
therefore runs before any task payload pulls in the numeric stack, so the
thread-count variables below are in force when the BLAS runtime starts.
Single-threaded BLAS kernels make floating-point reductions independent of
the worker count, which the report format relies on (byte-identical
payloads).

The one kernel that runs threads of its own, ``special.zeta_line``, splits
rows whose results do not depend on the split; :func:`line_threads` is its
thread count.
"""

from __future__ import annotations

import os

PINNED_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Set once per process by a pool initializer; None means one per usable CPU.
_line_threads: int | None = None


def pin_thread_env(line_threads: int | None = None) -> None:
    """Force single-threaded BLAS kernels in the calling process.

    A process-pool initializer passes ``line_threads``, the worker's share
    of the CPUs, so that the workers together run one ``zeta_line`` thread
    per CPU.
    """
    global _line_threads
    for name in PINNED_THREAD_VARS:
        os.environ[name] = "1"
    if line_threads is not None:
        _line_threads = max(1, line_threads)


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def line_threads() -> int:
    """Threads ``special.zeta_line`` uses in this process."""
    return _line_threads if _line_threads is not None else usable_cpus()
