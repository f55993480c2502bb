"""One benchmark process: set up a workload and, unless asked only to set up, run one pass.

Usage::

    python3 bench/passes.py WORKLOAD SEED MODE RESULT_JSON WORK_DIR [TRACE_JSON]

``MODE`` is ``setup`` (import and generate inputs, then stop), ``pass`` or
``traced``.  Each pass runs in a fresh interpreter so that no process-global
cache of the package (divisor sieves, Voronoi partial sums, stored
calibrations) serves one pass from an earlier one; a CLI user pays the same
cold start on every run.  The result file holds the monotonic clock reading
at the end of set-up, the pass's wall and CPU time, its peak resident memory
and its checked items.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Pin the numeric kernels to one thread before numpy loads, as every CLI path does.
from zetastrip._env import PINNED_THREAD_VARS, pin_thread_env  # noqa: E402

pin_thread_env()

import numpy  # noqa: E402

import workloads  # noqa: E402  (imports the whole package)
from tracer import Tracer  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _blas() -> str:
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build description is informational only
        return "unknown"


def main(argv: list[str]) -> int:
    workload, seed, mode, result_path, work_dir = argv[:5]
    trace_path = argv[5] if len(argv) > 5 else None
    make_inputs, run = workloads.WORKLOADS[workload]
    work = Path(work_dir)
    inputs = make_inputs(int(seed), work)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        items = run(inputs, work, mode == "traced")
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Largest worker times the number of concurrent workers: an upper
        # bound on the process tree's simultaneous peak (0 without workers).
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        concurrent = max(workloads.SUITE_WORKERS) if workload == "suite" else 0
        result.update(
            run_s=run_s,
            cpu_s=cpu_s,
            peak_rss_mb=(own_kib + concurrent * child_kib) / 1024.0,
            items=items,
            numpy=numpy.__version__,
            blas=_blas(),
            threads={name: os.environ.get(name) for name in PINNED_THREAD_VARS},
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["self_shares"] = tracer.self_shares(run_s)
            result["untraced_layers"] = tracer.missing
            if trace_path:
                tracer.dump(trace_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
