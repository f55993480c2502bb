"""Scenario engine: declarative runs, versioned reports, baseline drift checks.

A *scenario file* is flat INI text with three sections::

    [scenario]
    kind = theorem1            # one of SCENARIO_KINDS

    [parameters]               # kind-specific, all keys validated
    sigma = 0.4
    t = 250
    coefficients = 1, 1

    [output]                   # optional
    stem = my_run              # default: scenario file name without suffix
    formats = json, csv        # default: both

Every run produces a *report*: a schema-versioned payload with the fully
resolved configuration (defaults filled in), a fixed per-kind column layout,
the data rows, run-level scalars, and a verdict.  The JSON file is the
payload verbatim; the CSV file mirrors it one-to-one (configuration,
scalars and verdict as ``# key = value`` preamble lines, then the tabular
part).  Reports carry no timestamps, hostnames or environment echoes, so
two runs of the same scenario on the same build produce byte-identical
files regardless of worker count; complex quantities are split into
``_re``/``_im`` fields.

A run's outcome is one record, ``file``, ``kind``, ``stem``, ``passed`` and
``detail``: ``execute_scenario`` returns it with the paths it wrote, and a
suite summary lists it as it is.  A *suite file* lists scenario files
(``[suite] scenarios = ...``, one per line, resolved relative to the suite
file) and runs them on a thread pool of the calling process, ``workers``
scenarios at once.

``compare_reports`` diffs a JSON report against a stored baseline in one pass
over the flattened fields: numeric fields must agree within a relative
tolerance (default ``DEFAULT_COMPARE_REL_TOL``, overridable per dotted field
path via a ``[tolerances]`` INI file), strings and booleans exactly, and no
NaN or infinity agrees with another value.

Exit-code convention used by the command-line front end:

* 0 -- run or comparison succeeded and every verdict passed;
* 1 -- bad usage, bad input or execution error (validation, precision,
  quadrature non-convergence, unreadable files, schema mismatch);
* 2 -- machinery worked but a verdict failed or a baseline drifted.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .arithmetic import DirichletPolynomial
from .errors import ValidationError
from .explicit import (
    SIGMA1_VARIANTS,
    SIGMA2_VARIANTS,
    WindowConfig,
    theorem1_report,
    theorem2_report,
)
from .meansquare import StripConfig, integrate_mean_square, main_term
from .saddle import (
    AUDIT_CONSTANT,
    LEMMA3_RATIO_CAP,
    LOG_CONSTANT,
    ExpIntegralSpec,
    lemma2_compare,
    lemma3_decay,
    lemma4_compare,
)
from .voronoi import (
    X_MAX,
    TwistedSumSpec,
    calibrate,
    calibration_x_lo,
    delta_bessel,
    delta_direct,
    truncation_plan,
)

SCHEMA_VERSION = 1
REPORT_FORMATS = ("json", "csv")
DEFAULT_COMPARE_REL_TOL = 1e-9
# Every kernel evaluates in binary64.  Reports keep recording it so they
# stay comparable with baselines that carry the field.
PRECISION_BITS = 53

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2

_REQUIRED = object()


# ---------------------------------------------------------------------------
# Parameter parsing
# ---------------------------------------------------------------------------


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"is not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _positive(text: str) -> float:
    value = _float(text)
    if value <= 0.0:
        raise ValueError(f"must be positive, got {text.strip()!r}")
    return value


def _complex(text: str) -> complex:
    value = complex(text.replace(" ", ""))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError as exc:
        raise ValueError(f"is not an integer: {text!r}") from exc


def _list_of(convert: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list whose entries ``convert`` reads."""

    def parse(text: str) -> tuple:
        values = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                values.append(convert(token))
            except ValueError as exc:
                raise ValueError(f"has a malformed entry: {token!r}") from exc
        if not values:
            raise ValueError("must list at least one value")
        return tuple(values)

    return parse


@dataclass(frozen=True)
class _Param:
    """One INI key: its parser, its default and, for text keys, its choices.

    ``default`` is a value, ``_REQUIRED``, or a callable of the values parsed
    before this key; a callable leaves the refusal of a bad value it reads to
    the library call that takes that value.
    """

    name: str
    parse: Callable[[str], object] = _float
    default: object = _REQUIRED
    choices: tuple[str, ...] | None = None


def _parse_section(params: Sequence[_Param], raw: Mapping[str, str], context: str) -> dict:
    """Values of ``params`` read from ``raw``; every rejection names its key."""
    raw = dict(raw)
    values: dict[str, object] = {}
    for param in params:
        if param.name in raw:
            try:
                value = param.parse(raw[param.name])
            except ValueError as exc:
                raise ValidationError(f"{context}: parameter '{param.name}' {exc}") from exc
        else:
            value = param.default(values) if callable(param.default) else param.default
            if value is _REQUIRED:
                raise ValidationError(f"{context}: missing required parameter '{param.name}'")
        if param.choices is not None and value not in param.choices:
            raise ValidationError(
                f"{context}: parameter '{param.name}' must be one of {sorted(param.choices)}, got {value!r}"
            )
        values[param.name] = value
    unknown = sorted(set(raw) - set(values))
    if unknown:
        raise ValidationError(f"{context}: unknown parameter(s) {unknown}")
    return values


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file: kind, raw parameters, output naming."""

    kind: str
    parameters: Mapping[str, str]
    stem: str
    formats: tuple[str, ...]


def _read_ini(
    path: Path, *, context: str, required: str, optional: tuple[str, ...] | None = ()
) -> configparser.ConfigParser:
    """Parsed INI file that has the ``[required]`` section and, unless
    ``optional`` is ``None``, no sections but it and ``optional``."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{context}: cannot read {path}: {exc.strerror or exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValidationError(f"{context}: malformed INI in {path}: {exc}") from exc
    if not parser.has_section(required):
        raise ValidationError(f"{context}: {path} is missing the [{required}] section")
    if optional is not None:
        extra = set(parser.sections()) - {required, *optional}
        if extra:
            raise ValidationError(f"{context} {path.name}: unknown section(s) {sorted(extra)}")
    return parser


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate the framing of one scenario file."""
    path = Path(path)
    parser = _read_ini(path, context="scenario", required="scenario", optional=("parameters", "output"))
    head = _parse_section(
        (_Param("kind", str.strip, choices=SCENARIO_KINDS),),
        parser["scenario"],
        f"scenario {path.name} [scenario]",
    )

    parameters = dict(parser["parameters"]) if parser.has_section("parameters") else {}

    out = _parse_section(
        (_Param("stem", str.strip, path.stem), _Param("formats", _list_of(str), REPORT_FORMATS)),
        parser["output"] if parser.has_section("output") else {},
        f"scenario {path.name} [output]",
    )
    stem, formats = out["stem"], out["formats"]
    if not stem or any(sep in stem for sep in ("/", "\\", "\0")):
        raise ValidationError(f"scenario {path.name}: output stem must be a bare file name")
    for index, fmt in enumerate(formats):
        if fmt not in REPORT_FORMATS:
            raise ValidationError(
                f"scenario {path.name}: unknown output format {fmt!r}; expected {list(REPORT_FORMATS)}"
            )
        if fmt in formats[:index]:
            raise ValidationError(f"scenario {path.name}: output format {fmt!r} is listed twice")
    return Scenario(kind=head["kind"], parameters=parameters, stem=stem, formats=formats)


# ---------------------------------------------------------------------------
# Kind runners: each takes the parsed parameters and returns
# ``(rows, scalars, passed, detail)``; each row maps column name to value,
# in the report's column order
# ---------------------------------------------------------------------------


def _run_mean_square(v: dict) -> tuple:
    cfg = StripConfig(v["sigma"])
    poly = DirichletPolynomial(v["coefficients"])
    quad = integrate_mean_square(v["t_lo"], v["t_hi"], cfg, poly, abs_tol=v["abs_tol"], rel_tol=v["rel_tol"])
    main_hi = main_term(v["t_hi"], cfg, poly) if v["t_hi"] > 0.0 else 0.0
    main_lo = main_term(v["t_lo"], cfg, poly) if v["t_lo"] > 0.0 else 0.0
    error_term = quad.value - (main_hi - main_lo)
    row = {
        "integral": quad.value,
        "error_estimate": quad.error_estimate,
        "panels": quad.panels,
        "evaluations": quad.evaluations,
        "main_hi": main_hi,
        "main_lo": main_lo,
        "error_term": error_term,
        "passed": True,
    }
    return [row], {}, True, f"quadrature converged with error estimate {quad.error_estimate!r}"


def _theorem_inputs(v: dict) -> tuple[WindowConfig, StripConfig, DirichletPolynomial, dict]:
    """Window, strip, polynomial and keyword options shared by both theorem kinds."""
    cfg = StripConfig(v["sigma"])
    win = WindowConfig(v["c1"], v["c2"], v["y"], v["t"])
    options = {name: v[name] for name in ("sigma1_variant", "sigma2_variant", "abs_tol", "rel_tol")}
    return win, cfg, DirichletPolynomial(v["coefficients"]), options


def _run_theorem1(v: dict) -> tuple:
    win, cfg, poly, options = _theorem_inputs(v)
    report = theorem1_report(win, cfg, poly, **options)
    budget = max(
        v["residual_fraction"] * report.oscillatory_rms,
        v["error_multiple"] * report.quadrature_error,
        1e-12,
    )
    passed = abs(report.residual) <= budget
    row = {
        "quadrature_value": report.quadrature_value,
        "quadrature_error": report.quadrature_error,
        "block_difference": report.block_difference,
        "residual": report.residual,
        "oscillatory_rms": report.oscillatory_rms,
        "residual_budget": budget,
        "upper_main": report.upper.main,
        "upper_sigma1": report.upper.sigma1,
        "upper_sigma2": report.upper.sigma2,
        "lower_main": report.lower.main,
        "lower_sigma1": report.lower.sigma1,
        "lower_sigma2": report.lower.sigma2,
        "terms_used_upper_1": report.upper.terms_used_1,
        "terms_used_upper_2": report.upper.terms_used_2,
        "terms_used_lower_1": report.lower.terms_used_1,
        "terms_used_lower_2": report.lower.terms_used_2,
        "passed": passed,
    }
    detail = (
        f"|residual| {abs(report.residual)!r} vs budget {budget!r} "
        f"(fraction of oscillatory rms / quadrature error / floor)"
    )
    return [row], {}, passed, detail


def _run_theorem2(v: dict) -> tuple:
    win, cfg, poly, options = _theorem_inputs(v)
    report = theorem2_report(win, cfg, poly, v["alpha"], **options)
    budget = v["error_multiple"] * report.quadrature_error_total
    passed = abs(report.difference) <= budget
    row = {
        "levels": report.levels,
        "stub_upper": report.stub_upper,
        "direct_value": report.direct_value,
        "telescoped_value": report.telescoped_value,
        "difference": report.difference,
        "quadrature_error_total": report.quadrature_error_total,
        "difference_budget": budget,
        "passed": passed,
    }
    return [row], {}, passed, f"|path difference| {abs(report.difference)!r} vs budget {budget!r}"


#: Largest series work of one ``voronoi`` scenario, in Bessel-series terms
#: summed over its points: ``points × max(n_terms, VORONOI_POINT_TERMS)``.
#: A point's series set-up costs about as much as ``VORONOI_POINT_TERMS``
#: terms, so a short series does not make the point free.  The limit is two
#: points of the longest series the sieve forms (``voronoi.X_MAX``); such a
#: run takes about 4 s on one core of a 2-vCPU machine.
VORONOI_MAX_SERIES_TERMS = 2**21
VORONOI_POINT_TERMS = 1024


def _voronoi_twist(v: dict) -> str:
    """The series' twist ``h_bar``, named: ``direct`` where ``h_bar = h``, else ``inverse``."""
    return "direct" if TwistedSumSpec(v["a"], v["h"], v["k"]).h_bar == v["h"] else "inverse"


def _run_voronoi(v: dict) -> tuple:
    x_lo, x_hi, points = v["x_lo"], v["x_hi"], v["points"]
    if not (1.0 <= x_lo < x_hi <= X_MAX):
        raise ValidationError(f"voronoi evaluation range needs 1 <= x_lo < x_hi <= {X_MAX:g}")
    if points < 2:
        raise ValidationError("voronoi needs at least two evaluation points")
    n_terms = v["n_terms"]
    point_terms = max(n_terms, VORONOI_POINT_TERMS)
    if points * point_terms > VORONOI_MAX_SERIES_TERMS:
        raise ValidationError(
            f"scenario kind 'voronoi': parameters 'points' × max('n_terms', {VORONOI_POINT_TERMS}) = "
            f"{points} × {point_terms} exceed the series work limit {VORONOI_MAX_SERIES_TERMS}"
        )

    spec = TwistedSumSpec(v["a"], v["h"], v["k"])
    if v["twist"] == "direct" and spec.h_bar != spec.h:
        raise ValidationError(
            f"scenario kind 'voronoi': parameter 'twist' = 'direct' would twist the series by h = {spec.h}, but it "
            f"twists by h_bar = {spec.h_bar}, the inverse of h mod k = {spec.k_mod}; omit the key or write 'inverse'"
        )
    plan = truncation_plan(spec, (x_lo, x_hi), n_terms)  # refuses a negative n_terms before the fit
    calibration = calibrate(spec, x_lo=v["calibration_x_lo"], samples=v["calibration_samples"])
    tolerance = max(v["tolerance_floor"], v["tail_multiple"] * plan.tail_estimate + calibration.std_error)

    rows = []
    xs = np.geomspace(x_lo, x_hi, points)
    # One pass of the raw sum up to x_hi serves every point.
    for x_val, direct_val in zip(xs, delta_direct(spec, xs, calibration)):
        x, direct = float(x_val), complex(direct_val)
        bessel = delta_bessel(spec, x, plan)
        rows.append(
            {
                "x": x,
                "direct_re": direct.real,
                "direct_im": direct.imag,
                "bessel_re": bessel.real,
                "bessel_im": bessel.imag,
                "difference": abs(direct - bessel),
            }
        )
    max_difference = max(row["difference"] for row in rows)
    passed = max_difference <= tolerance
    scalars = {
        "power_exponent": calibration.power_exponent,
        "c0_re": calibration.c0.real,
        "c0_im": calibration.c0.imag,
        "fit_std_error": calibration.std_error,
        "oscillation_rms": calibration.oscillation_rms,
        "drift_ratio": calibration.drift_ratio,
        "tail_estimate": plan.tail_estimate,
        "terms_used": plan.n_terms,
        "tolerance": tolerance,
        "max_difference": max_difference,
        "passed": passed,
    }
    detail = f"max |direct - series| {max_difference!r} vs tolerance {tolerance!r} over {points} points"
    return rows, scalars, passed, detail


def _saddle_result(report, head: dict, tail: dict, suffix: str = "") -> tuple:
    """The row and verdict of a lemma-2 or lemma-4 comparison: ``head``'s
    columns, the comparison's, then ``tail``'s; ``suffix`` ends the detail."""
    row = {
        **head,
        "lhs_re": report.lhs.real,
        "lhs_im": report.lhs.imag,
        "saddle_re": report.saddle.real,
        "saddle_im": report.saddle.imag,
        "difference": report.difference,
        "quadrature_error": report.quadrature_error,
        **report.budgets,
        "budget_total": report.budget_total,
        "audit_constant": AUDIT_CONSTANT,
        **tail,
        "passed": report.passed,
    }
    detail = (
        f"|integral - saddle| {report.difference!r} vs "
        f"{AUDIT_CONSTANT!r} * budget {report.budget_total!r}{suffix}"
    )
    return [row], {}, report.passed, detail


def _run_saddle_l2(v: dict) -> tuple:
    spec = ExpIntegralSpec(
        v["alpha"], v["beta"], v["gamma"], v["a_lo"], v["b_hi"], k_freq=v["k"], T=v["t"], sign=v["sign"]
    )
    report = lemma2_compare(spec, abs_tol=v["abs_tol"], rel_tol=v["rel_tol"])
    return _saddle_result(report, {}, {"r_branch": report.r_branch})


def _run_saddle_l3(v: dict) -> tuple:
    report = lemma3_decay(v["alpha"], v["k"], v["t_grid"])
    rows = [
        {"t": t_val, "magnitude": mag, "ratio": ratio}
        for t_val, mag, ratio in zip(report.t_values, report.magnitudes, report.ratios)
    ]
    scalars = {
        "max_min_ratio": report.max_min_ratio,
        "ratio_cap": LEMMA3_RATIO_CAP,
        "passed": report.passed,
    }
    detail = f"decay-normalised ratio spread {report.max_min_ratio!r} vs cap {LEMMA3_RATIO_CAP!r}"
    return rows, scalars, report.passed, detail


def _run_saddle_l4(v: dict) -> tuple:
    report = lemma4_compare(
        v["alpha"], v["n"], v["a_lo"], v["b_hi"], v["t"], abs_tol=v["abs_tol"], rel_tol=v["rel_tol"]
    )
    tail = {"saddle_log_constant": LOG_CONSTANT}
    return _saddle_result(report, {"delta": report.delta}, tail, f" (delta = {report.delta})")


@dataclass(frozen=True)
class _Kind:
    """One scenario kind: its parameters and its runner.

    The report's ``config`` echoes the parsed parameter values and its
    ``columns`` are the keys of the runner's rows, so each parameter is
    stated once, here, and each column once, beside its value.
    """

    params: tuple[_Param, ...]
    run: Callable[[dict], tuple[list[dict], dict, bool, str]]


def _tolerances(abs_tol: float, rel_tol: float) -> tuple[_Param, ...]:
    return (_Param("abs_tol", default=abs_tol), _Param("rel_tol", default=rel_tol))


def _choice(name: str, choices: tuple[str, ...]) -> _Param:
    """A text key restricted to ``choices``, defaulting to the first."""
    return _Param(name, str.strip, choices[0], choices)


# One-choice keys for readings the library no longer has.  Report ``config``
# keeps echoing them, so committed reports keep their bytes, until report
# schema 2 re-records the reference reports without them.
_SECONDARY_WEIGHT = _choice("secondary_weight", ("coprime",))
_TWIST = _choice("twist", ("direct",))
_RADICAND = _choice("radicand", ("plus",))
_POWER_MODULUS_EXPONENT = _choice("power_modulus_exponent", ("residue",))
_LOG_CONSTANT = _choice("log_constant", ("two-pi",))
_COEFFICIENTS = _Param("coefficients", _list_of(_complex), (1 + 0j,))
# The keys both theorem kinds share.  Config and the CSV preamble are sorted by
# key, so a kind's key order shows only in which bad key is named first.
_THEOREM_KEYS = (
    _Param("sigma"),
    _Param("t"),
    _Param("y", default=lambda v: v["t"]),
    _Param("c1", default=0.5),
    _Param("c2", default=2.0),
    _COEFFICIENTS,
    _choice("sigma1_variant", SIGMA1_VARIANTS),
    _choice("sigma2_variant", SIGMA2_VARIANTS),
    _TWIST,
    _RADICAND,
    _SECONDARY_WEIGHT,
    *_tolerances(1e-6, 1e-8),
)

_KINDS: dict[str, _Kind] = {
    "mean-square": _Kind(
        (
            _Param("sigma"),
            _Param("t_lo", default=0.0),
            _Param("t_hi"),
            _COEFFICIENTS,
            _SECONDARY_WEIGHT,
            *_tolerances(1e-6, 1e-8),
        ),
        _run_mean_square,
    ),
    "theorem1": _Kind(
        (*_THEOREM_KEYS, _Param("residual_fraction", _positive, 0.2), _Param("error_multiple", _positive, 10.0)),
        _run_theorem1,
    ),
    "theorem2": _Kind(
        (*_THEOREM_KEYS, _Param("alpha", default=1.0), _Param("error_multiple", _positive, 3.0)),
        _run_theorem2,
    ),
    "voronoi": _Kind(
        (
            _Param("a"),
            _Param("h", _int),
            _Param("k", _int),
            _POWER_MODULUS_EXPONENT,
            _Param("twist", str.strip, _voronoi_twist, ("direct", "inverse")),
            _Param("x_lo", default=40.0),
            _Param("x_hi", default=400.0),
            _Param("points", _int, 50),
            _Param("n_terms", _int, 2000),
            _Param("calibration_x_lo", default=lambda v: calibration_x_lo(v["k"])),
            _Param("calibration_samples", _int, 640),
            _Param("tolerance_floor", _positive, 1e-3),
            _Param("tail_multiple", _positive, 3.0),
        ),
        _run_voronoi,
    ),
    "saddle-l2": _Kind(
        (
            _Param("alpha"),
            _Param("beta"),
            _Param("gamma"),
            _Param("a_lo"),
            _Param("b_hi"),
            _Param("k"),
            _Param("t"),
            _Param("sign", _int, 1),
            *_tolerances(1e-7, 1e-9),
        ),
        _run_saddle_l2,
    ),
    "saddle-l3": _Kind(
        (_Param("alpha"), _Param("k"), _Param("t_grid", _list_of(_float))),
        _run_saddle_l3,
    ),
    "saddle-l4": _Kind(
        (
            _Param("alpha"),
            _Param("n", _int),
            _Param("t"),
            _Param("a_lo", default=lambda v: math.sqrt(max(v["t"], 0.0))),
            _Param("b_hi", default=lambda v: 10.0 * math.sqrt(max(v["t"], 0.0))),
            _LOG_CONSTANT,
            *_tolerances(1e-8, 1e-9),
        ),
        _run_saddle_l4,
    ),
}
SCENARIO_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# Report assembly and serialisation
# ---------------------------------------------------------------------------


def _config_value(value):
    """JSON form of a parsed parameter: lists for tuples, ``[re, im]`` pairs for complex."""
    if isinstance(value, tuple):
        return [[item.real, item.imag] if isinstance(item, complex) else item for item in value]
    return value


def build_report(scenario: Scenario) -> dict:
    """Execute one scenario and return its full report payload."""
    kind = _KINDS[scenario.kind]
    values = _parse_section(kind.params, scenario.parameters, f"scenario kind '{scenario.kind}'")
    rows, scalars, passed, detail = kind.run(values)
    config = {name: _config_value(value) for name, value in values.items()}
    config["precision_bits"] = PRECISION_BITS
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": scenario.kind,
        "config": config,
        "columns": list(rows[0]),
        "rows": [list(row.values()) for row in rows],
        "scalars": scalars,
        "verdict": {"passed": bool(passed), "detail": detail},
    }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_json(report: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, no NaN/Inf."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_csv(report: dict) -> str:
    """CSV mirror of the JSON payload.

    Scalar context (configuration, run-level scalars, verdict) appears as
    ``# key = value`` preamble lines in sorted key order; the tabular part
    follows with the kind's fixed column header.
    """
    buffer = io.StringIO(newline="")
    buffer.write(f"# schema_version = {report['schema_version']}\n")
    buffer.write(f"# kind = {report['kind']}\n")
    for section in ("config", "scalars"):
        for key in sorted(report[section]):
            buffer.write(f"# {section}.{key} = {_format_cell(report[section][key])}\n")
    verdict = report["verdict"]
    buffer.write(f"# verdict.passed = {_format_cell(verdict['passed'])}\n")
    buffer.write(f"# verdict.detail = {verdict['detail']}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(report["columns"])
    for row in report["rows"]:
        writer.writerow([_format_cell(value) for value in row])
    return buffer.getvalue()


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it; an
    ``OSError`` becomes a :class:`ValidationError` that names ``path``."""
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", newline="", dir=path.parent, prefix=f".{path.name}.", delete=False
        )
        try:
            with handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(handle.name)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write report {path}: {exc.strerror or exc}") from exc


def _report_dir(out_dir: str | Path | None) -> Path:
    """``out_dir`` (default: the current directory), made if missing; an ``OSError`` names it."""
    target = Path(out_dir) if out_dir is not None else Path.cwd()
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create report directory {target}: {exc.strerror or exc}") from exc
    return target


def write_report(report: dict, out_dir: str | Path, stem: str, formats: Sequence[str]) -> list[str]:
    """Serialise a report into ``out_dir`` atomically; returns written paths."""
    out_dir = _report_dir(out_dir)
    renderers = {"json": render_json, "csv": render_csv}
    written = []
    for fmt in formats:
        path = out_dir / f"{stem}.{fmt}"
        _write_atomic(path, renderers[fmt](report))
        written.append(str(path))
    return written


def execute_scenario(path: str | Path, out_dir: str | Path | None = None) -> tuple[dict, list[str]]:
    """Load, run and serialise one scenario file; returns its outcome record,
    the entry a suite summary lists (``file``, ``kind``, ``stem``, ``passed``,
    ``detail``), and the paths written.  A file in the report directory's
    place is refused before the run, which creates nothing if it fails."""
    path = Path(path)
    scenario = load_scenario(path)
    target = Path(out_dir) if out_dir is not None else Path.cwd()
    if target.exists() and not target.is_dir():
        raise ValidationError(f"cannot create report directory {target}: a file of that name exists")
    report = build_report(scenario)
    outputs = write_report(report, target, scenario.stem, scenario.formats)
    return {"file": path.name, "kind": scenario.kind, "stem": scenario.stem, **report["verdict"]}, outputs


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def load_suite(path: str | Path) -> list[Path]:
    """Scenario paths listed by a suite file, resolved against its directory."""
    path = Path(path)
    parser = _read_ini(path, context="suite", required="suite")
    head = _parse_section((_Param("scenarios", str.strip),), parser["suite"], f"suite {path.name} [suite]")
    entries = [line.strip() for line in head["scenarios"].splitlines() if line.strip()]
    if not entries:
        raise ValidationError(f"suite {path.name}: 'scenarios' lists no files")
    resolved = [path.parent / entry for entry in entries]  # an absolute entry replaces the base
    for candidate in resolved:
        if not candidate.is_file():
            raise ValidationError(f"suite {path.name}: scenario file not found: {candidate}")
    return resolved


def run_suite(path: str | Path, out_dir: str | Path | None = None, *, workers: int = 1) -> dict:
    """Run every scenario of a suite and write a summary report.

    The scenarios run on a thread pool of ``min(workers, len(scenarios))``
    threads in the calling process, ``workers`` at once.  Only the
    Euler-Maclaurin zeta points and A(s) sums use more: each scenario thread
    runs one share of its ``dirichlet_sum`` and hands the others to the
    process's one pool of ``usable CPUs - 1`` threads, so at most ``workers
    + CPUs - 1`` threads evaluate zeta, and no bit depends on their count.
    The caller must have pinned BLAS to one thread before numpy loaded (the
    CLI does).  Results are collected in listing order, so the summary and
    every per-scenario report are byte-identical for any worker count.  A
    failing scenario does not stop the others: they all run and write their
    reports, then the first failure in listing order is raised and no
    summary is written.  An interrupt cancels every scenario not yet
    started; those already running finish.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    scenario_paths = load_suite(path)
    # The summary's own stem counts, so no scenario report can be overwritten by it.
    stems = [load_scenario(p).stem for p in scenario_paths] + ["suite_summary"]
    duplicates = sorted({s for s in stems if stems.count(s) > 1})
    if duplicates:
        raise ValidationError(f"suite: duplicate output stem(s) {duplicates}; reports would overwrite")
    target = _report_dir(out_dir)

    pool = ThreadPoolExecutor(max_workers=min(workers, len(scenario_paths)))
    try:
        futures = [pool.submit(execute_scenario, p, target) for p in scenario_paths]
        wait(futures)
    finally:
        pool.shutdown(cancel_futures=True)
    entries, outputs = zip(*(future.result() for future in futures))

    passed = sum(entry["passed"] for entry in entries)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "suite",
        "scenarios": list(entries),
        "verdict": {
            "passed": passed == len(entries),
            "detail": f"{passed} of {len(entries)} scenario verdicts passed",
        },
    }
    summary_path = target / "suite_summary.json"
    _write_atomic(summary_path, render_json(summary))
    summary["outputs"] = list(outputs)
    summary["summary_path"] = str(summary_path)
    return summary


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def load_tolerances(path: str | Path | None) -> dict[str, float]:
    """Per-field relative tolerances from a ``[tolerances]`` INI file."""
    if path is None:
        return {}
    parser = _read_ini(Path(path), context="tolerances", required="tolerances", optional=None)
    table = {}
    for key, text in parser["tolerances"].items():
        try:
            value = float(text)
        except ValueError as exc:
            raise ValidationError(f"tolerances: field {key!r} has a non-numeric tolerance {text!r}") from exc
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValidationError(f"tolerances: field {key!r} needs a finite tolerance >= 0, got {value!r}")
        table[key] = value
    return table


def _flatten(value, prefix: str = "") -> dict[str, object]:
    """Leaf values by dotted path (``config.sigma``, ``rows[3][2]``); an
    empty section or list has no leaves."""
    if isinstance(value, dict):
        children = ((f"{prefix}.{key}" if prefix else str(key), item) for key, item in value.items())
    elif isinstance(value, list):
        children = ((f"{prefix}[{index}]", item) for index, item in enumerate(value))
    else:
        return {prefix: value}
    flat: dict[str, object] = {}
    for name, item in children:
        flat.update(_flatten(item, name))
    return flat


def _tolerance_for(field: str, tolerances: Mapping[str, float]) -> float:
    base = field.split("[", 1)[0]
    return tolerances.get(field, tolerances.get(base, DEFAULT_COMPARE_REL_TOL))


def compare_reports(
    current: dict, baseline: dict, tolerances: Mapping[str, float] | None = None
) -> tuple[int, list[str]]:
    """Field-by-field drift check of a report against a stored baseline.

    Returns ``(exit_code, messages)``: structural differences (schema or
    kind mismatch, missing or extra sections or fields, type changes) give
    exit 1; numeric drift beyond tolerance or a changed string/boolean gives
    exit 2, the changed fields listed before the drifted ones; agreement
    gives exit 0.  Tolerances are relative, keyed by dotted field path
    (``rows[3][2]`` may be keyed exactly or as ``rows``).  Numbers that are
    not exactly equal agree only when their relative deviation is at most
    the tolerance, so a NaN or an infinity agrees with no other value.
    """
    for name in ("schema_version", "kind"):
        if current.get(name) != baseline.get(name):
            return EXIT_ERROR, [
                f"structural mismatch: {name} differs "
                f"(current {current.get(name)!r}, baseline {baseline.get(name)!r})"
            ]
    if set(current) != set(baseline):
        gone = sorted(set(baseline) - set(current))
        new = sorted(set(current) - set(baseline))
        return EXIT_ERROR, [f"structural mismatch: top-level sections differ (missing {gone}, extra {new})"]

    flat_current, flat_baseline = _flatten(current), _flatten(baseline)
    structural: list[str] = []
    changed: list[str] = []
    drifted: list[str] = []
    for name in sorted(flat_current.keys() | flat_baseline.keys()):
        if name not in flat_current or name not in flat_baseline:
            where = "absent from baseline" if name in flat_current else "missing from current report"
            structural.append(f"structural mismatch: field {name} {where}")
            continue
        a, b = flat_current[name], flat_baseline[name]
        a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
        b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
        if a_num != b_num:
            structural.append(
                f"structural mismatch: field {name} changed type ({type(a).__name__} vs {type(b).__name__})"
            )
        elif a == b:
            continue
        elif not a_num:
            changed.append(f"field {name} changed: current {a!r}, baseline {b!r}")
        else:
            a, b = float(a), float(b)
            scale = max(abs(a), abs(b))
            relative = abs(a - b) / scale if scale > 0.0 else math.inf
            tol = _tolerance_for(name, tolerances or {})
            if not relative <= tol:
                drifted.append(
                    f"field {name} drifted: current {a!r}, baseline {b!r}, "
                    f"relative deviation {relative:.3e} > tolerance {tol:.3e}"
                )

    if structural:
        return EXIT_ERROR, structural
    if changed or drifted:
        return EXIT_FAIL, changed + drifted
    return EXIT_PASS, [f"reports agree on all {len(flat_current)} fields"]


def load_report(path: str | Path) -> dict:
    """Read a JSON report, validating the framing fields; a NaN or an
    infinity (``NaN``, ``Infinity``, or a number past the float range) is
    refused, since ``render_json`` never writes one."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read report {path}: {exc.strerror or exc}") from exc

    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValidationError(f"report {path} holds the non-finite number {token}")
        return value

    try:
        payload = json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload or "kind" not in payload:
        raise ValidationError(f"report {path} lacks schema_version/kind framing")
    return payload
