"""Pin the BLAS runtime to one thread before any test module imports numpy,
and hold the fixtures the test modules share.

OpenBLAS reads its thread count once, when numpy loads it.  Left unpinned,
its thread pool competes with the threads of ``special.zeta_line``.
"""

import sys

import pytest

from zetastrip._env import pin_thread_env

#: Whether numpy was already loaded when the pin ran (then the pin is too late).
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
pin_thread_env()


@pytest.fixture
def no_new_arrays(monkeypatch):
    """numpy's array constructors and ``exp`` fail while the test runs, so a
    refusal checked under this fixture comes before any array is formed."""
    import numpy as np  # after the pin

    def formed(*args, **kwargs):
        raise AssertionError("an array was formed before the refusal")

    for name in ("arange", "empty", "zeros", "where", "exp"):
        monkeypatch.setattr(np, name, formed)
