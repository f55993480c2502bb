"""Pin the BLAS runtime to one thread before any test module imports numpy.

OpenBLAS reads its thread count once, when numpy loads it.  Left unpinned,
its thread pool competes with the threads of ``special.zeta_line``.
"""

import sys

from zetastrip._env import pin_thread_env

#: Whether numpy was already loaded when the pin ran (then the pin is too late).
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
pin_thread_env()
