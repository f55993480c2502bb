"""BLAS thread pinning and the process's CPU count.

This module must stay free of numpy (and of any module that imports it):
the CLI, the repository's ``conftest.py`` and the benchmark's pass runner
import it to call :func:`pin_thread_env` before the numeric stack loads,
because the BLAS runtime reads its thread count only once, when it is first
loaded.
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


def pin_thread_env() -> None:
    """Force single-threaded BLAS kernels in the calling process, leaving
    the CPUs to ``special.zeta_line``'s own threads."""
    for name in PINNED_THREAD_VARS:
        os.environ[name] = "1"


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
