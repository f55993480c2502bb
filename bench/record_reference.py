"""Record the seed-0 reference outputs that ``run.py`` checks at relative 1e-9.

Usage (from the root of a checkout)::

    python3 bench/record_reference.py [WORKLOAD ...]

Runs one pass of each named workload (default: all) at seed 0 and writes
``bench/reference/<workload>.json``, mapping item names to outputs.  It
refuses to record a pass in which any item failed its own verdict.  Record
only from a commit whose reports are the accepted baseline.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    for workload in argv or run.WORKLOADS:
        result = run.spawn(workload, 0, "pass", run.RUN_LIMIT_S)
        failed = [f"{item['name']}: {item['detail']}" for item in result["items"] if not item["ok"]]
        if failed:
            print(f"{workload}: not recorded, items failed: {failed}", file=sys.stderr)
            return 1
        reference = {item["name"]: item["outputs"] for item in result["items"]}
        path = run.BENCH / "reference" / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {len(reference)} items recorded in {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
