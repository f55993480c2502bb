"""zetastrip benchmark: four seeded workloads, end-to-end metrics and a layer trace.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {window,blocks,benches,suite} --seed N --seconds S --trace {0,1}

``BENCHMARK.json`` gates ``window``, ``benches`` and ``suite``; ``blocks`` is a
hand-run workload (see ``workloads.py``).  With ``--trace 0`` the driver
alternates set-up probes and timed passes until ``--seconds`` is used up and
reports, each with its unit:

* ``setup_s``: interpreter start until the package is imported and the
  inputs are generated (median over every probe and pass of the run);
* ``run_s``: wall time of one pass (median over passes);
* ``cpu_s``: user + system CPU time of one pass, child processes included;
* ``peak_rss_mb``: peak resident memory of one pass, workers included;
* ``pass_frac``: items that passed / items attempted.  Its complement, the
  failure fraction, is the ``failed`` / ``attempted`` pair of the result line.

With ``--trace 1`` it runs one untraced pass and two traced passes and
reports the per-layer metrics of :mod:`tracer` (median of the two traced
passes) plus ``trace.overhead_s``, traced minus untraced ``run_s``.  The two
traced passes must repeat the work counters exactly.

Every pass runs in a fresh interpreter (see ``passes.py``).  Each item is
checked against its own verdict and, for seed 0 (every seed for
``blocks``), against the outputs recorded in ``reference/`` at relative
1e-9.  Every pass of a run must reproduce the first pass's outputs bit for
bit, traced or not.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from tracer import METRICS as TRACE_METRICS, WORK_COUNTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("window", "blocks", "benches", "suite")
# blocks divides its outputs by the seeded scale^2 (see workloads.blocks_inputs).
SEED_INVARIANT_REFERENCE = {"blocks"}
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)
TRACE_SCHEDULE = ("pass", "traced", "traced")
PR_SET_CHILD_SUBREAPER = 36
RUN_LIMIT_S = 160.0  # one invocation must end well inside 180 s


class PassError(RuntimeError):
    """A benchmark process exited abnormally or overran its time."""


def _become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers, resource trackers) so they are reaped here."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # not Linux: orphans are reaped by init instead
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until every member has ended."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        while True:  # reap adopted orphans; killpg still finds unreaped ones
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        time.sleep(0.01)


def spawn(workload: str, seed: int, mode: str, timeout: float, trace_path: Path | None = None) -> dict:
    """Run ``passes.py`` in a fresh interpreter and return its result."""
    _become_subreaper()
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "work"))
    result_path = work / "result.json"
    command = [sys.executable, str(BENCH / "passes.py"), workload, str(seed), mode, str(result_path), str(work)]
    if trace_path is not None:
        command.append(str(trace_path))
    try:
        start = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            _out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassError(f"{mode} process exceeded {timeout:.1f} s")
        finally:
            _stop_group(proc.pid)
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            raise PassError(f"{mode} process exited {proc.returncode}: {' | '.join(tail)}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result["ready"] - start
    return result


def _git_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _check_items(workload: str, seed: int, passes: list[dict]) -> list[dict]:
    """Checked items of every pass: own verdict, reference, repeat of pass 1."""
    reference = None
    if seed == 0 or workload in SEED_INVARIANT_REFERENCE:
        path = BENCH / "reference" / f"{workload}.json"
        reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    first = {item["name"]: item["outputs"] for item in passes[0]["items"]} if passes else {}
    checked = []
    for result in passes:
        items = result["items"]
        if reference is not None:
            items = checks.apply_reference(items, reference)
        for item in items:
            if item["ok"] and item["outputs"] != first.get(item["name"]):
                item = dict(item, ok=False, detail=f"{item['detail']}; outputs differ from pass 1")
            checked.append(item)
    return checked


def _run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Spawn probes and passes; returns (passes, set-up samples, broken-pass messages)."""
    start = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    passes: list[dict] = []
    broken: list[str] = []
    # A failing set-up probe means the package cannot even be imported: no result.
    setups = [spawn(workload, seed, "setup", remaining())["setup_s"]]

    def one(mode: str) -> None:
        index = len(passes) + len(broken)
        trace_path = OUT / "trace" / f"{workload}-seed{seed}-pass{index}.json" if mode == "traced" else None
        try:
            result = spawn(workload, seed, mode, remaining(), trace_path)
        except PassError as exc:
            broken.append(str(exc))
            return
        passes.append(dict(result, mode=mode))
        setups.append(result["setup_s"])

    if trace:
        for mode in TRACE_SCHEDULE:
            one(mode)
        return passes, setups, broken
    began = start
    while True:
        one("pass")
        now = time.monotonic()
        # Start another probe and pass only if at least half of them fits.
        if now - start + 0.5 * (now - began) >= seconds or remaining() <= 0:
            return passes, setups, broken
        began = now
        setups.append(spawn(workload, seed, "setup", remaining())["setup_s"])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    passes, setups, broken = _run_passes(workload, seed, seconds, trace)
    items = _check_items(workload, seed, passes)
    attempted = len(items) + len(broken)
    failed = sum(not item["ok"] for item in items) + len(broken)
    failures = [f"{item['name']}: {item['detail']}" for item in items if not item["ok"]] + broken

    timed = [p for p in passes if p["mode"] == "pass"]
    if trace:
        traced = [p for p in passes if p["mode"] == "traced"]
        counts = [{name: p["layers"][name] for name in WORK_COUNTS} for p in traced]
        attempted += 1
        if len(counts) != 2 or counts[0] != counts[1]:
            failed += 1
            failures.append(f"work counts did not repeat across traced passes: {counts}")
        metrics = {
            name: {"value": _median(p["layers"][name] for p in traced), "unit": unit}
            for name, unit in TRACE_METRICS
        }
        overhead = _median(p["run_s"] for p in traced) - timed[0]["run_s"] if traced and timed else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "setup_s": _median(setups),
            "run_s": _median(p["run_s"] for p in timed),
            "cpu_s": _median(p["cpu_s"] for p in timed),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in timed),
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    environment = {k: passes[0][k] for k in ("numpy", "blas", "threads")} if passes else {}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git": _git_hash(),
        "environment": environment,
        "setup_samples": setups,
        "passes": [
            {k: p.get(k) for k in ("mode", "setup_s", "run_s", "cpu_s", "peak_rss_mb", "self_shares", "untraced_layers")}
            for p in passes
        ],
        "failures": failures,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _report(record: dict) -> None:
    """Human-readable lines before the JSON result line."""
    result = record["result"]
    env = record["environment"]
    print(f"zetastrip benchmark: workload={record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    print(f"git {record['git']} | numpy {env.get('numpy')} | BLAS {env.get('blas')} | threads {env.get('threads')}")
    modes = [p["mode"] for p in record["passes"]]
    print(
        f"passes {len(modes)} ({', '.join(modes)}), set-up samples {len(record['setup_samples'])}, "
        f"items {result['attempted']}, failed {result['failed']} "
        f"(fail_frac {result['failed'] / result['attempted']:.6g} ratio)"
    )
    for line in record["failures"][:20]:
        print(f"  FAIL {line}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    traced = [p for p in record["passes"] if p["mode"] == "traced"]
    if traced:
        shares = sorted(traced[0]["self_shares"].items(), key=lambda kv: -kv[1])
        print("  self time as share of traced run_s: " + ", ".join(f"{n} {v:.1%}" for n, v in shares[:8]))
        if traced[0]["untraced_layers"]:
            print(f"  not found, so not traced: {', '.join(traced[0]['untraced_layers'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "zetastrip" / "__init__.py").is_file():
        print(f"error: no zetastrip package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for sub in ("work", "trace", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=2), encoding="utf-8")
    _report(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
