"""Command-line front end: ``run``, ``compare`` and ``suite``.

``zetastrip run FILE`` executes one scenario file and writes its JSON/CSV
report; ``zetastrip suite FILE`` runs every scenario a suite file lists and
writes a summary, running ``--workers`` scenarios at once (default 1) on
threads of this process; ``zetastrip compare CURRENT BASELINE``
diffs two JSON reports field by field.  Exit codes: 0 when everything
passed, 2 when the machinery worked but a verdict failed or a baseline
drifted, 1 for a usage error, bad input or an execution error (the offending
option or constraint is named on stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from ._env import pin_thread_env

pin_thread_env()

from .errors import ZetastripError  # noqa: E402
from . import scenarios  # noqa: E402


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (bad input); exit 2 is reserved for failed verdicts."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(scenarios.EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetastrip",
        description=(
            "Numerical laboratory for the mean square of zeta times a Dirichlet "
            "polynomial in the strip 1/4 < sigma < 1/2: scenario runs, "
            "versioned reports, baseline drift checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario file and write its report")
    run.add_argument("scenario", help="path to a scenario INI file")
    run.add_argument("--out", default=None, metavar="DIR", help="report directory (default: current directory)")

    compare = sub.add_parser("compare", help="diff a JSON report against a stored baseline")
    compare.add_argument("report", help="current JSON report")
    compare.add_argument("baseline", help="baseline JSON report")
    compare.add_argument(
        "--tol",
        default=None,
        metavar="FILE",
        help="INI file with a [tolerances] section of per-field relative tolerances",
    )

    suite = sub.add_parser("suite", help="run every scenario listed by a suite file")
    suite.add_argument("suite", help="path to a suite INI file")
    suite.add_argument("--out", default=None, metavar="DIR", help="report directory (default: current directory)")
    suite.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="scenarios run at once, on threads of this process (default: 1)",
    )
    return parser


def _print_outcome(entry: dict) -> None:
    print(f"{'PASS' if entry['passed'] else 'FAIL'} {entry['kind']} {entry['stem']}: {entry['detail']}")


def _cmd_run(args: argparse.Namespace) -> int:
    entry, outputs = scenarios.execute_scenario(args.scenario, args.out)
    _print_outcome(entry)
    for path in outputs:
        print(f"  wrote {path}")
    return scenarios.EXIT_PASS if entry["passed"] else scenarios.EXIT_FAIL


def _cmd_compare(args: argparse.Namespace) -> int:
    current = scenarios.load_report(args.report)
    baseline = scenarios.load_report(args.baseline)
    tolerances = scenarios.load_tolerances(args.tol)
    code, messages = scenarios.compare_reports(current, baseline, tolerances)
    stream = sys.stdout if code == scenarios.EXIT_PASS else sys.stderr
    for message in messages:
        print(message, file=stream)
    return code


def _cmd_suite(args: argparse.Namespace) -> int:
    summary = scenarios.run_suite(args.suite, args.out, workers=args.workers)
    for entry in summary["scenarios"]:
        _print_outcome(entry)
    verdict = summary["verdict"]
    print(f"suite: {verdict['detail']} (summary at {summary['summary_path']})")
    return scenarios.EXIT_PASS if verdict["passed"] else scenarios.EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "suite": _cmd_suite}
    try:
        return handlers[args.command](args)
    except ZetastripError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return scenarios.EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
