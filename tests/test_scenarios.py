"""Scenario files, report payloads, serialisation, suites, baselines, CLI."""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import multiprocessing
import os
import pickle
import signal
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetastrip import cli, explicit, scenarios, voronoi
from zetastrip._env import PINNED_THREAD_VARS, pin_thread_env
from zetastrip.errors import CalibrationError, PrecisionError, QuadratureNonConvergence, ValidationError
from zetastrip.scenarios import (
    DEFAULT_COMPARE_REL_TOL,
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    REPORT_FORMATS,
    SCENARIO_KINDS,
    SCHEMA_VERSION,
    Scenario,
    build_report,
    compare_reports,
    execute_scenario,
    load_report,
    load_scenario,
    load_suite,
    load_tolerances,
    render_csv,
    render_json,
    run_suite,
    write_report,
)

# Cheap parameter sets, one per scenario kind, sized for sub-second runs.
CHEAP_PARAMETERS = {
    "mean-square": {"sigma": "0.35", "t_lo": "0", "t_hi": "2", "coefficients": "1"},
    "theorem1": {
        "sigma": "0.4",
        "t": "60",
        "coefficients": "1",
        "sigma1_variant": "resolved",
        "sigma2_variant": "halved",
    },
    "theorem2": {"sigma": "0.4", "t": "50", "alpha": "1.0", "coefficients": "1"},
    "voronoi": {
        "a": "-0.2",
        "h": "1",
        "k": "3",
        "power_modulus_exponent": "residue",
        "x_lo": "40",
        "x_hi": "80",
        "points": "3",
        "n_terms": "300",
    },
    "saddle-l2": {
        "alpha": "0.6",
        "beta": "0.6",
        "gamma": "1.0",
        "a_lo": "0.01",
        "b_hi": "200",
        "k": "1",
        "t": "100",
    },
    "saddle-l3": {"alpha": "1.5", "k": "1", "t_grid": "50, 100"},
    "saddle-l4": {"alpha": "1.5", "n": "3", "t": "200"},
}


def _scenario(kind: str, **overrides: str) -> Scenario:
    parameters = dict(CHEAP_PARAMETERS[kind])
    parameters.update(overrides)
    return Scenario(kind=kind, parameters=parameters, stem=f"{kind}-test", formats=("json", "csv"))


def _write_ini(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _scenario_text(kind: str, extra: str = "") -> str:
    lines = [f"[scenario]", f"kind = {kind}", "", "[parameters]"]
    lines += [f"{key} = {value}" for key, value in CHEAP_PARAMETERS[kind].items()]
    return "\n".join(lines) + ("\n" + extra if extra else "") + "\n"


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------


def test_load_scenario_defaults(tmp_path):
    path = _write_ini(tmp_path, "quick_decay.ini", _scenario_text("saddle-l3"))
    scenario = load_scenario(path)
    assert scenario.kind == "saddle-l3"
    assert scenario.stem == "quick_decay"
    assert scenario.formats == REPORT_FORMATS
    assert scenario.parameters["t_grid"] == "50, 100"


def test_load_scenario_output_section(tmp_path):
    text = _scenario_text("saddle-l3", "[output]\nstem = decay_bench\nformats = json")
    scenario = load_scenario(_write_ini(tmp_path, "any.ini", text))
    assert scenario.stem == "decay_bench"
    assert scenario.formats == ("json",)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[parameters]\nalpha = 1\n", "missing the [scenario] section"),
        ("[scenario]\nkind = waffle\n", "kind"),
        ("[scenario]\nkind = saddle-l3\nextra = 1\n", "extra"),
        ("[scenario]\nkind = saddle-l3\n[output]\nformats = yaml\n", "yaml"),
        ("[scenario]\nkind = saddle-l3\n[output]\nstem = a/b\n", "bare file name"),
        ("[scenario]\nkind = saddle-l3\n[extras]\nx = 1\n", "unknown section"),
        ("[scenario\nkind = saddle-l3\n", "malformed INI"),
    ],
)
def test_load_scenario_rejections(tmp_path, text, fragment):
    path = _write_ini(tmp_path, "bad.ini", text)
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert fragment in str(err.value)


def test_missing_scenario_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_scenario(tmp_path / "absent.ini")


def test_unknown_parameter_named_in_rejection():
    scenario = _scenario("saddle-l3", typo_key="1")
    with pytest.raises(ValidationError, match="typo_key"):
        build_report(scenario)


def test_missing_required_parameter_named():
    scenario = Scenario(
        kind="saddle-l3", parameters={"k": "1", "t_grid": "50, 100"}, stem="x", formats=("json",)
    )
    with pytest.raises(ValidationError, match="alpha"):
        build_report(scenario)


# Parameter text: valid values, edge-case numbers, lists and free text.
_FUZZ_FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
_FUZZ_VALUE = st.one_of(
    st.sampled_from(sorted({v for params in CHEAP_PARAMETERS.values() for v in params.values()})),
    st.sampled_from(
        ("inf", "-inf", "nan", "1e999", "-0", "0", "-1", "1e-320", "0x10", "1_0", "--1", "", ",", "1j", "nanj", "9" * 5000)
    ),
    st.sampled_from(("bundled", "rescaled", "minus", "lcm")),  # readings removed from the library
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.lists(st.complex_numbers().map(str), max_size=3).map(", ".join),
    _FUZZ_FREE_TEXT,
)


@st.composite
def _fuzzed_scenario_text(draw) -> str:
    """A kind's cheap scenario with up to three keys dropped or changed and
    perhaps one unknown key, plus perhaps an ``[output]`` section."""
    kind = draw(st.sampled_from(SCENARIO_KINDS + ("", "Voronoi")))
    parameters = dict(CHEAP_PARAMETERS.get(kind, {}))
    names = [param.name for param in scenarios._KINDS[kind].params] if kind in scenarios._KINDS else ["alpha"]
    for key in draw(st.sets(st.sampled_from(names), max_size=3)):
        value = draw(st.none() | _FUZZ_VALUE)
        if value is None:
            parameters.pop(key, None)
        else:
            parameters[key] = value
    extra = draw(st.none() | _FUZZ_FREE_TEXT)
    if extra is not None:
        parameters[extra] = draw(_FUZZ_VALUE)
    lines = ["[scenario]", f"kind = {kind}", "[parameters]"]
    lines += [f"{key} = {value}" for key, value in parameters.items()]
    if draw(st.booleans()):
        lines.append("[output]")
        for key in draw(st.lists(st.sampled_from(("stem", "formats")) | _FUZZ_FREE_TEXT, max_size=3)):
            value = draw(st.sampled_from(("json", "csv", "json, csv", "a/b", "yaml", " , ")) | _FUZZ_FREE_TEXT)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, database=None)
@given(text=_fuzzed_scenario_text())
def test_fuzzed_scenario_text_parses_or_names_its_error(text):
    # Framing and parameter parsing only: the kind itself is not run.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text, encoding="utf-8")
        try:
            scenario = load_scenario(path)
            scenarios._parse_section(
                scenarios._KINDS[scenario.kind].params, scenario.parameters, f"scenario kind '{scenario.kind}'"
            )
        except ValidationError:
            pass


# ---------------------------------------------------------------------------
# Runners and payload shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_every_kind_builds_a_consistent_report(kind):
    report = build_report(_scenario(kind))
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["kind"] == kind
    assert report["verdict"]["passed"] is True
    assert isinstance(report["verdict"]["detail"], str) and report["verdict"]["detail"]
    assert report["config"]["precision_bits"] == 53
    width = len(report["columns"])
    assert width > 0
    for row in report["rows"]:
        assert len(row) == width
    json.loads(render_json(report))  # canonical text is valid JSON
    render_csv(report)


def test_voronoi_report_writes_the_direct_column_of_its_own_fit():
    # The default window's fit of an equal spec, made first, must not serve
    # a scenario that names its own calibration window.
    default = build_report(_scenario("voronoi"))
    wider = build_report(_scenario("voronoi", calibration_x_lo="80"))
    spec = voronoi.TwistedSumSpec(-0.2, 1, 3)
    cal = voronoi.calibrate(spec, x_lo=80.0)
    columns = wider["columns"]
    xs = np.array([row[columns.index("x")] for row in wider["rows"]])

    def direct(report):
        return [complex(row[columns.index("direct_re")], row[columns.index("direct_im")]) for row in report["rows"]]

    assert direct(wider) == [complex(v) for v in voronoi.delta_direct(spec, xs, cal)]
    assert direct(wider) != direct(default)
    assert (wider["scalars"]["c0_re"], wider["scalars"]["c0_im"]) == (cal.c0.real, cal.c0.imag)


_REPO = Path(__file__).resolve().parent.parent
_REFERENCE_REPORTS = json.loads((_REPO / "bench" / "reference" / "suite.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "scenario_path", load_suite(_REPO / "scenarios" / "suite.ini"), ids=lambda path: path.stem
)
def test_committed_scenario_matches_reference_report(scenario_path):
    # The benchmark's recorded reports are the accepted baseline of every
    # committed scenario; a refactor must reproduce them within tolerance.
    scenario = load_scenario(scenario_path)
    report = json.loads(render_json(build_report(scenario)))
    code, messages = compare_reports(report, _REFERENCE_REPORTS[scenario.stem])
    assert code == EXIT_PASS, messages
    assert report["schema_version"] == 1
    assert report["config"]["precision_bits"] == 53


def test_render_json_round_trip_and_determinism():
    scenario = _scenario("saddle-l4")
    first = build_report(scenario)
    second = build_report(scenario)
    assert render_json(first) == render_json(second)
    assert render_csv(first) == render_csv(second)
    assert json.loads(render_json(first)) == first


def test_render_json_refuses_non_finite():
    report = build_report(_scenario("saddle-l3"))
    report["scalars"]["bad"] = float("nan")
    with pytest.raises(ValueError):
        render_json(report)


def test_csv_mirrors_json_payload():
    report = build_report(_scenario("saddle-l3"))
    text = render_csv(report)
    lines = text.splitlines()
    preamble = {}
    table_start = 0
    for index, line in enumerate(lines):
        if not line.startswith("# "):
            table_start = index
            break
        key, value = line[2:].split(" = ", 1)
        preamble[key] = value

    assert preamble["schema_version"] == str(SCHEMA_VERSION)
    assert preamble["kind"] == report["kind"]
    assert preamble["verdict.passed"] == "true"
    assert preamble["verdict.detail"] == report["verdict"]["detail"]
    for key, value in report["config"].items():
        if isinstance(value, float):
            assert float(preamble[f"config.{key}"]) == value
        else:
            assert preamble[f"config.{key}"] == str(value)
    for key, value in report["scalars"].items():
        cell = preamble[f"scalars.{key}"]
        if isinstance(value, bool):
            assert cell == ("true" if value else "false")
        elif isinstance(value, float):
            assert float(cell) == value
        else:
            assert cell == str(value)

    table = list(csv.reader(io.StringIO("\n".join(lines[table_start:]))))
    assert table[0] == report["columns"]
    assert len(table) == 1 + len(report["rows"])
    for cells, row in zip(table[1:], report["rows"]):
        for cell, value in zip(cells, row):
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                assert float(cell) == float(value)  # repr() round-trips exactly
            else:
                assert cell == str(value)


def test_strip_violation_is_a_named_input_error():
    with pytest.raises(ValidationError, match=r"\(1/4, 1/2\)"):
        build_report(_scenario("mean-square", sigma="0.6"))


# ---------------------------------------------------------------------------
# Writing and executing
# ---------------------------------------------------------------------------


def test_execute_scenario_writes_both_formats(tmp_path):
    path = _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3"))
    out_dir = tmp_path / "reports"
    entry, outputs = execute_scenario(path, out_dir)
    payload = load_report(out_dir / "decay.json")
    assert entry == {"file": "decay.ini", "kind": "saddle-l3", "stem": "decay", **payload["verdict"]}
    assert entry["passed"] is True
    assert [Path(p).name for p in outputs] == ["decay.json", "decay.csv"]
    assert (out_dir / "decay.csv").read_text(encoding="utf-8") == render_csv(payload)


def test_write_report_is_atomic_and_repeatable(tmp_path):
    report = build_report(_scenario("saddle-l4"))
    write_report(report, tmp_path, "bench", ("json",))
    first = (tmp_path / "bench.json").read_bytes()
    write_report(report, tmp_path, "bench", ("json",))
    assert (tmp_path / "bench.json").read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]  # no temp litter


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def l3_report():
    return build_report(_scenario("saddle-l3"))


def test_compare_identical_reports(l3_report):
    code, messages = compare_reports(l3_report, copy.deepcopy(l3_report))
    assert code == EXIT_PASS
    assert "agree" in messages[0]


def test_compare_numeric_drift_names_the_field(l3_report):
    drifted = copy.deepcopy(l3_report)
    drifted["rows"][0][1] *= 1.0 + 1e-6
    code, messages = compare_reports(drifted, l3_report)
    assert code == EXIT_FAIL
    assert any("rows[0][1]" in m and "drifted" in m for m in messages)

    # Exact-path tolerance admits the drift; so does the base-key fallback.
    assert compare_reports(drifted, l3_report, {"rows[0][1]": 1e-3})[0] == EXIT_PASS
    assert compare_reports(drifted, l3_report, {"rows": 1e-3})[0] == EXIT_PASS
    assert DEFAULT_COMPARE_REL_TOL == 1e-9


def test_compare_string_change_fails(l3_report):
    changed = copy.deepcopy(l3_report)
    changed["verdict"]["detail"] = "different wording"
    code, messages = compare_reports(changed, l3_report)
    assert code == EXIT_FAIL
    assert any("verdict.detail" in m for m in messages)


def test_compare_structural_mismatches(l3_report):
    missing_field = copy.deepcopy(l3_report)
    del missing_field["scalars"]["max_min_ratio"]
    code, messages = compare_reports(missing_field, l3_report)
    assert code == EXIT_ERROR
    assert any("scalars.max_min_ratio" in m for m in messages)

    missing_section = copy.deepcopy(l3_report)
    del missing_section["scalars"]
    code, messages = compare_reports(missing_section, l3_report)
    assert code == EXIT_ERROR
    assert "scalars" in messages[0]

    retyped = copy.deepcopy(l3_report)
    retyped["scalars"]["max_min_ratio"] = "high"
    assert compare_reports(retyped, l3_report)[0] == EXIT_ERROR

    rekinded = copy.deepcopy(l3_report)
    rekinded["kind"] = "saddle-l2"
    code, messages = compare_reports(rekinded, l3_report)
    assert code == EXIT_ERROR
    assert "kind" in messages[0]


@pytest.mark.parametrize(
    ("current", "baseline"),
    [(float("nan"), 1.25), (1.25, float("nan")), (math.inf, -math.inf), (math.inf, 1.25), (-1.25, -math.inf)],
    ids=["nan-vs-finite", "finite-vs-nan", "inf-vs-minus-inf", "inf-vs-finite", "finite-vs-minus-inf"],
)
def test_compare_non_finite_values_drift(l3_report, current, baseline):
    # A NaN or an infinity used to agree with any value: its relative
    # deviation is NaN, and "NaN > tol" is false.
    ours, theirs = copy.deepcopy(l3_report), copy.deepcopy(l3_report)
    ours["rows"][0][1], theirs["rows"][0][1] = current, baseline
    code, messages = compare_reports(ours, theirs)
    assert code == EXIT_FAIL
    assert len(messages) == 1 and messages[0].startswith("field rows[0][1] drifted: ")
    # Equal infinities agree; a NaN agrees with nothing, not even a NaN.
    assert compare_reports(ours, copy.deepcopy(ours))[0] == (EXIT_FAIL if math.isnan(current) else EXIT_PASS)


def test_compare_structural_mismatches_keep_their_first_message():
    square = build_report(_scenario("mean-square"))
    assert square["scalars"] == {}
    unscaled = copy.deepcopy(square)
    del unscaled["scalars"]
    assert compare_reports(unscaled, square) == (
        EXIT_ERROR,
        ["structural mismatch: top-level sections differ (missing ['scalars'], extra [])"],
    )
    assert compare_reports(square, unscaled)[1][0] == (
        "structural mismatch: top-level sections differ (missing [], extra ['scalars'])"
    )

    retyped = copy.deepcopy(square)
    retyped["rows"][0][0] = "large"  # integral
    retyped["rows"][0][1] *= 2.0  # error_estimate drifts too
    code, messages = compare_reports(retyped, square)
    assert code == EXIT_ERROR
    assert messages[0] == "structural mismatch: field rows[0][0] changed type (str vs float)"

    for name, value in (("schema_version", 2), ("kind", "theorem1")):
        other = {**copy.deepcopy(square), name: value}
        code, messages = compare_reports(other, square)
        assert code == EXIT_ERROR
        assert messages[0] == f"structural mismatch: {name} differs (current {value!r}, baseline {square[name]!r})"


def test_load_tolerances(tmp_path):
    assert load_tolerances(None) == {}
    path = _write_ini(tmp_path, "tol.ini", "[tolerances]\nrows = 1e-3\nscalars.max_min_ratio = 0.5\n")
    assert load_tolerances(path) == {"rows": 1e-3, "scalars.max_min_ratio": 0.5}
    with pytest.raises(ValidationError, match="tolerances"):
        load_tolerances(_write_ini(tmp_path, "none.ini", "[other]\nx = 1\n"))
    with pytest.raises(ValidationError, match="non-numeric"):
        load_tolerances(_write_ini(tmp_path, "text.ini", "[tolerances]\nrows = lots\n"))
    with pytest.raises(ValidationError, match=">= 0"):
        load_tolerances(_write_ini(tmp_path, "neg.ini", "[tolerances]\nrows = -1\n"))


def test_load_report_framing(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(render_json(build_report(_scenario("saddle-l3"))), encoding="utf-8")
    assert load_report(good)["kind"] == "saddle-l3"
    bad_json = _write_ini(tmp_path, "bad.json", "{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_report(bad_json)
    unframed = _write_ini(tmp_path, "unframed.json", json.dumps({"rows": []}))
    with pytest.raises(ValidationError, match="framing"):
        load_report(unframed)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_cli_compare_refuses_a_report_holding_a_non_finite_number(tmp_path, capsys, token):
    # render_json never writes these; Python's json module reads them, and a
    # baseline holding one used to agree with any current value.
    report = build_report(_scenario("saddle-l3"))
    good = tmp_path / "good.json"
    good.write_text(render_json(report), encoding="utf-8")
    text = render_json(report).replace(repr(report["scalars"]["max_min_ratio"]), token)
    bad = _write_ini(tmp_path, "bad.json", text)
    for argv in (["compare", str(good), str(bad)], ["compare", str(bad), str(good)]):
        assert cli.main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: report {bad} holds the non-finite number {token}\n"


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _write_suite(tmp_path: Path) -> Path:
    _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3"))
    _write_ini(tmp_path, "resonance.ini", _scenario_text("saddle-l4"))
    return _write_ini(tmp_path, "bench.ini", "[suite]\nscenarios =\n    decay.ini\n    resonance.ini\n")


def test_load_suite_resolves_relative_paths(tmp_path):
    suite_path = _write_suite(tmp_path)
    assert [p.name for p in load_suite(suite_path)] == ["decay.ini", "resonance.ini"]
    with pytest.raises(ValidationError, match="not found"):
        load_suite(_write_ini(tmp_path, "ghost.ini", "[suite]\nscenarios = nowhere.ini\n"))
    with pytest.raises(ValidationError, match="lists no files"):
        load_suite(_write_ini(tmp_path, "empty.ini", "[suite]\nscenarios =\n"))
    with pytest.raises(ValidationError, match=r"missing the \[suite\] section"):
        load_suite(_write_ini(tmp_path, "head.ini", "[scenario]\nkind = saddle-l3\n"))


def test_run_suite_is_worker_count_invariant(tmp_path):
    # The mean-square scenario runs zeta_line's threads, one per CPU, beside
    # one, two or three scenario threads; its bits must not depend on that.
    _write_suite(tmp_path)
    _write_ini(tmp_path, "square.ini", _scenario_text("mean-square"))
    suite_path = _write_ini(
        tmp_path, "mixed.ini", "[suite]\nscenarios =\n    decay.ini\n    square.ini\n    resonance.ini\n"
    )
    dir_one = tmp_path / "one"
    summary_one = run_suite(suite_path, dir_one, workers=1)

    assert summary_one["verdict"]["passed"] is True
    assert summary_one["verdict"]["detail"] == "3 of 3 scenario verdicts passed"
    assert [entry["stem"] for entry in summary_one["scenarios"]] == ["decay", "square", "resonance"]

    names = sorted(p.name for p in dir_one.iterdir())
    assert names == [
        "decay.csv",
        "decay.json",
        "resonance.csv",
        "resonance.json",
        "square.csv",
        "square.json",
        "suite_summary.json",
    ]
    for workers in (2, 3):
        other = tmp_path / f"w{workers}"
        assert run_suite(suite_path, other, workers=workers)["scenarios"] == summary_one["scenarios"]
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (other / name).read_bytes() == (dir_one / name).read_bytes(), (workers, name)

    summary_payload = load_report(dir_one / "suite_summary.json")
    assert summary_payload["kind"] == "suite"
    assert [entry["file"] for entry in summary_payload["scenarios"]] == ["decay.ini", "square.ini", "resonance.ini"]


def test_run_suite_summary_lists_the_records_execute_scenario_returns(tmp_path):
    suite_path = _write_suite(tmp_path)
    records = [execute_scenario(p, tmp_path / "single")[0] for p in load_suite(suite_path)]
    assert [record["file"] for record in records] == ["decay.ini", "resonance.ini"]
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        summary = run_suite(suite_path, out, workers=workers)
        assert summary["scenarios"] == records
        assert load_report(out / "suite_summary.json")["scenarios"] == records
        written = [[str(out / f"{stem}.{fmt}") for fmt in REPORT_FORMATS] for stem in ("decay", "resonance")]
        assert summary["outputs"] == written


def test_run_suite_starts_no_process_at_any_worker_count(tmp_path, monkeypatch):
    def no_process(self):
        raise AssertionError(f"a process was started: {self!r}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    suite_path = _write_suite(tmp_path)
    for workers in (1, 2, 4):
        assert run_suite(suite_path, tmp_path / f"w{workers}", workers=workers)["verdict"]["passed"] is True
    # The stub is reached when a process is started, so this test can fail.
    with pytest.raises(AssertionError, match="process was started"):
        multiprocessing.get_context("spawn").Process(target=print).start()


def test_run_suite_interrupt_cancels_the_scenarios_not_yet_started(tmp_path, monkeypatch):
    # An interrupt reaching the waiting thread stops the suite: the running
    # scenario may finish, the queued ones never start.
    for stem in ("first", "second", "third"):
        _write_ini(tmp_path, f"{stem}.ini", _scenario_text("saddle-l3"))
    suite_path = _write_ini(tmp_path, "abc.ini", "[suite]\nscenarios =\n    first.ini\n    second.ini\n    third.ini\n")
    started = []

    def fake_execute(path, out_dir=None):
        started.append(Path(path).stem)
        if len(started) == 1:
            time.sleep(0.1)  # the calling thread has queued every scenario and waits
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.2)  # it acts on the interrupt while this scenario runs

    monkeypatch.setattr(scenarios, "execute_scenario", fake_execute)
    with pytest.raises(KeyboardInterrupt):
        run_suite(suite_path, tmp_path / "out", workers=1)
    assert started[0] == "first"
    assert "third" not in started
    assert not (tmp_path / "out" / "suite_summary.json").exists()


@pytest.mark.parametrize(
    "failure",
    [
        ValidationError("sigma must lie strictly inside (1/4, 1/2), got 0.6"),
        PrecisionError("zeta remainder above tolerance"),
        CalibrationError("constant fit rejected"),
        QuadratureNonConvergence("panel budget 40000 exhausted on [0.0, 2.0]", 1.25, 3e-12),
    ],
    ids=lambda failure: type(failure).__name__,
)
def test_errors_survive_the_trip_back_from_a_suite_worker(failure):
    # A suite runs its scenarios on threads, but a library caller's own
    # process pool returns a scenario's exception pickled; one that cannot
    # be rebuilt breaks that pool.
    returned = pickle.loads(pickle.dumps(failure))
    assert type(returned) is type(failure)
    assert str(returned) == str(failure)
    assert vars(returned) == vars(failure)


def test_run_suite_rejects_duplicate_stems(tmp_path):
    _write_ini(tmp_path, "a.ini", _scenario_text("saddle-l3", "[output]\nstem = clash"))
    _write_ini(tmp_path, "b.ini", _scenario_text("saddle-l4", "[output]\nstem = clash"))
    suite_path = _write_ini(tmp_path, "dup.ini", "[suite]\nscenarios =\n    a.ini\n    b.ini\n")
    with pytest.raises(ValidationError, match="clash"):
        run_suite(suite_path, tmp_path / "out")
    with pytest.raises(ValidationError, match="workers"):
        run_suite(suite_path, tmp_path / "out", workers=0)


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_refuses_a_report_path_written_twice_before_any_work(tmp_path, capsys, monkeypatch, command):
    # A scenario stem of suite_summary used to have its JSON report overwritten
    # by the summary, and a format listed twice wrote its file twice.
    calls = []
    params = scenarios._KINDS["saddle-l3"].params
    monkeypatch.setitem(scenarios._KINDS, "saddle-l3", scenarios._Kind(params, lambda v: calls.append(v)))
    if command == "suite":
        _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3"))
        _write_ini(tmp_path, "summary.ini", _scenario_text("saddle-l3", "[output]\nstem = suite_summary"))
        path = _write_ini(tmp_path, "bench.ini", "[suite]\nscenarios =\n    decay.ini\n    summary.ini\n")
        refusal = "suite: duplicate output stem(s) ['suite_summary']; reports would overwrite"
    else:
        path = _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3", "[output]\nformats = json, csv, json"))
        refusal = "scenario decay.ini: output format 'json' is listed twice"
    code = cli.main([command, str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert calls == []
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Environment pinning
# ---------------------------------------------------------------------------


def test_pin_thread_env_forces_single_threaded_kernels(monkeypatch):
    for name in PINNED_THREAD_VARS:
        monkeypatch.setenv(name, "8")
    pin_thread_env()
    for name in PINNED_THREAD_VARS:
        assert os.environ[name] == "1"


def test_pytest_process_pins_blas_before_numpy_loads():
    # The repository's conftest.py pins the thread variables; OpenBLAS reads
    # them only once, when numpy first loads it.
    import conftest

    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert conftest.NUMPY_LOADED_BEFORE_PIN is False


def test_env_module_is_numpy_free():
    import zetastrip._env as env_module

    assert "numpy" not in env_module.__dict__
    source = Path(env_module.__file__).read_text(encoding="utf-8")
    assert "numpy" not in source.replace("free of numpy", "")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_run_pass(tmp_path, capsys):
    path = _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3"))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert captured.out.startswith("PASS saddle-l3 decay:")
    assert "wrote" in captured.out
    assert (tmp_path / "out" / "decay.json").is_file()


def test_cli_run_input_error(tmp_path, capsys):
    text = _scenario_text("mean-square").replace("sigma = 0.35", "sigma = 0.6")
    path = _write_ini(tmp_path, "bad.ini", text)
    code = cli.main(["run", str(path), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert "(1/4, 1/2)" in captured.err


def _run_with_parameter(tmp_path, kind: str, key: str, value: str) -> tuple[int, float]:
    """``zetastrip run`` on the cheap scenario of ``kind`` with ``key = value``."""
    text = _scenario_text(kind).replace(f"{key} = {CHEAP_PARAMETERS[kind].get(key, '')}\n", "")
    path = _write_ini(tmp_path, "bad.ini", text + f"{key} = {value}\n")
    start = time.perf_counter()
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    return code, time.perf_counter() - start


@pytest.mark.parametrize(
    ("kind", "key", "value"),
    [
        ("mean-square", "rel_tol", "inf"),
        ("saddle-l3", "alpha", "nan"),
        ("saddle-l3", "t_grid", "50, -inf"),
        ("mean-square", "coefficients", "1, nan"),
        ("voronoi", "power_modulus_exponent", "nan"),
        ("voronoi", "power_modulus_exponent", "inf"),
    ],
)
def test_cli_run_rejects_non_finite_parameter(tmp_path, capsys, kind, key, value):
    # A non-finite value used to run and then die in render_json with a
    # traceback; it must be a named input error before any work is done.
    code, _elapsed = _run_with_parameter(tmp_path, kind, key, value)
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert f"parameter '{key}'" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("kind", "key", "value"),
    [
        ("theorem1", "residual_fraction", "0"),
        ("theorem2", "error_multiple", "-1"),
        ("voronoi", "tolerance_floor", "0"),
        ("voronoi", "tail_multiple", "-3"),
    ],
)
def test_cli_run_rejects_non_positive_limit(tmp_path, capsys, kind, key, value):
    code, elapsed = _run_with_parameter(tmp_path, kind, key, value)
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert f"parameter '{key}' must be positive" in captured.err
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("key", "value", "constraint"),
    [
        ("calibration_samples", "641", "multiple of its 8 drift blocks"),
        ("calibration_x_lo", "1e306", "formed only up to x = 1.04858e+06"),
        ("x_hi", "1e306", "x_hi <= 1.04858e+06"),
        ("n_terms", "-1", "n_terms must satisfy 0 <= n_terms <= 1048576, got -1"),
        ("n_terms", "100000000", "'points' × max('n_terms', 1024) = 3 × 100000000 exceed the series work limit"),
        ("n_terms", "1048576", "'points' × max('n_terms', 1024) = 3 × 1048576 exceed the series work limit 2097152"),
        ("points", "100000", "'points' × max('n_terms', 1024) = 100000 × 1024 exceed the series work limit"),
        ("points", "1000000000000", "'points' × max('n_terms', 1024) = 1000000000000 × 1024 exceed"),
        ("calibration_samples", "65544", "calibration needs 256 to 65536 samples, a multiple of its 8 drift blocks, got 65544"),
        ("calibration_samples", "800000000000", "calibration needs 256 to 65536 samples"),
        ("k", "9" * 40, "k_mod must satisfy 1 <= k_mod <= 1048576, got 9999"),
        ("k", "9" * 400, "k_mod must satisfy 1 <= k_mod <= 1048576, got 9999"),
    ],
)
def test_cli_run_names_voronoi_input_beyond_its_limits(tmp_path, capsys, key, value, constraint):
    # These inputs used to end in a reshape ValueError, an IndexError or an
    # OverflowError traceback.
    code, elapsed = _run_with_parameter(tmp_path, "voronoi", key, value)
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert constraint in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    ("overrides", "block"),
    [
        ({"t": "1e300"}, "sigma1"),
        ({"t": "1e12"}, "sigma1"),
        ({"t": "1e8"}, "sigma1"),
        ({"y": "1e8", "c2": "1e7"}, "sigma1"),
        ({"t": "1e8", "y": "1e3", "c1": "1e-6"}, "sigma2"),
    ],
    ids=["t=1e300", "t=1e12", "t=1e8", "y=1e8", "t=1e8,y=1e3"],
)
def test_cli_run_names_a_theorem_window_beyond_the_divisor_sieve(tmp_path, capsys, overrides, block):
    # These used to end in a ValueError or memory-error traceback, or to
    # build a sieve of 2e8 entries for minutes.
    parameters = {**CHEAP_PARAMETERS["theorem1"], **overrides}
    text = "[scenario]\nkind = theorem1\n\n[parameters]\n"
    path = _write_ini(tmp_path, "big.ini", text + "".join(f"{k} = {v}\n" for k, v in parameters.items()))
    start = time.perf_counter()
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert f"the {block} inner sum at t = " in captured.err
    assert ", y = " in captured.err
    assert "the divisor sieve is formed only up to 1048576" in captured.err
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["saddle-l3", "saddle-l4"])
@pytest.mark.parametrize("alpha", ["1000", "-1000"])
def test_cli_run_names_a_saddle_alpha_outside_its_band(tmp_path, capsys, kind, alpha):
    # alpha = 1000 used to end in a ZeroDivisionError traceback (saddle-l3) or
    # a meaningless PASS of underflowed zeros (saddle-l4); -1000 failed late in
    # the quadrature with a NaN error estimate.
    code, elapsed = _run_with_parameter(tmp_path, kind, "alpha", alpha)
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert f"alpha must lie in (0, 10], got {float(alpha)}" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("k", "where"),
    [("1e300", "T = 100, k = 1e+300 needs at least 45821"), ("1e100", "T = 400, k = 1e+100 needs at least 60110")],
)
def test_cli_run_refuses_a_saddle_l3_grid_over_the_panel_budget(tmp_path, capsys, k, where):
    # Both used to spend 2.5-2.9 s in the initial-width loop before its error.
    parameters = {"alpha": "1.5", "k": k, "t_grid": "50, 100, 200, 400"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, elapsed, err = _run_cli(tmp_path, capsys, "saddle-l3", parameters)
    assert code == EXIT_ERROR
    assert err.startswith(f"error: lemma3_decay at {where} initial panels on [T, 2T]")
    assert err.endswith("above the panel budget 40000\n")
    assert elapsed < 0.25


@pytest.mark.parametrize("k", ["1e308", "1.797e308"])
def test_cli_run_names_a_saddle_l3_k_whose_2_pi_k_overflows(tmp_path, capsys, k):
    # Both used to print numpy's "invalid value encountered in scalar divide"
    # before the quadrature's error.
    parameters = {"alpha": "1.5", "k": k, "t_grid": "50, 100"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, elapsed, err = _run_cli(tmp_path, capsys, "saddle-l3", parameters)
    assert code == EXIT_ERROR
    assert err == f"error: k must keep 2 pi k finite, k <= 2.86112e+307, got {float(k):g}\n"
    assert elapsed < 0.25


_LEMMA2 = {"alpha": "0.6", "beta": "0.6", "gamma": "1.0", "a_lo": "0.01", "b_hi": "200", "k": "1", "t": "100"}


# Each row as the report recorded it before the two comparisons shared one record.
@pytest.mark.parametrize(
    ("kind", "parameters", "expected"),
    [
        (
            "saddle-l2",
            {**_LEMMA2, "sign": "-1"},
            {
                "lhs_re": -0.026243288157710248,
                "lhs_im": 0.04871289312323564,
                "saddle_re": 0.0,
                "saddle_im": 0.0,
                "difference": 0.05533223409337809,
                "quadrature_error": 9.12614161776822e-13,
                "budget_endpoint_a": 0.0015848931924611134,
                "budget_endpoint_b": 0.3465724215775733,
                "budget_saddle_r": 0.0,
                "budget_total": 0.3481573147700344,
                "audit_constant": 10.0,
                "r_branch": "omitted",
                "passed": True,
            },
        ),
        (
            "saddle-l2",
            {**_LEMMA2, "k": "50", "t": "20", "a_lo": "0.001", "b_hi": "60"},
            {
                "lhs_re": -0.005553342940784524,
                "lhs_im": 0.059221613938934485,
                "saddle_re": -0.006090838018374816,
                "saddle_im": 0.06100113455167202,
                "difference": 0.0018589229595632956,
                "quadrature_error": 2.401220452501212e-11,
                "budget_endpoint_a": 0.003154786722400966,
                "budget_endpoint_b": 0.008818602062217207,
                "budget_saddle_r": 0.007749594937741684,
                "budget_total": 0.01972298372235986,
                "audit_constant": 10.0,
                "r_branch": "k>=T",
                "passed": True,
            },
        ),
        (
            "saddle-l4",
            {"alpha": "1.5", "n": "40", "t": "200"},
            {
                "delta": 0,
                "lhs_re": -0.0002659218588150973,
                "lhs_im": 0.00024193467160311925,
                "saddle_re": 0.0,
                "saddle_im": 0.0,
                "difference": 0.0003595091380193078,
                "quadrature_error": 4.76554083635832e-14,
                "budget_saddle": 0.0,
                "budget_endpoint_a": 0.002161477373938882,
                "budget_endpoint_b": 7.683438625875471e-05,
                "budget_total": 0.0022383117601976364,
                "audit_constant": 10.0,
                "saddle_log_constant": 2.0,
                "passed": True,
            },
        ),
    ],
    ids=["l2-minus-sign", "l2-k-above-t", "l4-no-saddle"],
)
def test_cli_run_pins_the_saddle_branches_no_committed_scenario_reaches(tmp_path, capsys, kind, parameters, expected):
    text = f"[scenario]\nkind = {kind}\n\n[parameters]\n" + "".join(f"{k} = {v}\n" for k, v in parameters.items())
    path = _write_ini(tmp_path, "branch.ini", text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PASS
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "branch.json").read_text(encoding="utf-8"))
    assert report["columns"] == list(expected)
    (row,) = report["rows"]
    for name, value, want in zip(report["columns"], row, expected.values()):
        if isinstance(want, float):
            assert abs(value - want) <= 1e-12 * abs(want), name
        else:
            assert value == want, name
    total = 0.0
    for name, value in zip(report["columns"], row):
        if name.startswith("budget_") and name != "budget_total":
            total += value
    assert row[report["columns"].index("budget_total")] == total


@pytest.mark.parametrize(("h", "k"), [(1, 5), (2, 5), (1, 7), (3, 7)])
def test_cli_run_fits_the_voronoi_constant_at_moduli_from_five(tmp_path, capsys, h, k):
    # A window of [40, 160] for every modulus used to reject these fits with
    # "constant fit rejected"; the default window now grows with k.
    text = f"[scenario]\nkind = voronoi\n\n[parameters]\na = -0.2\nh = {h}\nk = {k}\ntwist = inverse\n"
    path = _write_ini(tmp_path, "modulus.ini", text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("PASS voronoi modulus:")
    report = json.loads((tmp_path / "out" / "modulus.json").read_text(encoding="utf-8"))
    assert report["config"]["calibration_x_lo"] == 40.0 * (k / 3.0) ** 2


@pytest.mark.parametrize(("h", "k", "echo"), [(2, 5, "inverse"), (1, 3, "direct"), (2, 3, "direct")])
def test_cli_run_echoes_the_one_voronoi_twist(tmp_path, capsys, h, k, echo):
    # The series twists by h_bar = h^-1 mod k; the key names that reading,
    # 'direct' where h_bar = h (every unit mod 3) and 'inverse' elsewhere.
    text = _scenario_text("voronoi").replace("h = 1\nk = 3\n", f"h = {h}\nk = {k}\n")
    path = _write_ini(tmp_path, "twist.ini", text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("PASS voronoi twist:")
    report = json.loads((tmp_path / "out" / "twist.json").read_text(encoding="utf-8"))
    assert report["config"]["twist"] == echo
    assert f"# config.twist = {echo}\n" in (tmp_path / "out" / "twist.csv").read_text(encoding="utf-8")


def test_cli_run_keeps_an_explicit_direct_twist_where_h_bar_is_h(tmp_path, capsys):
    text = _scenario_text("voronoi", "twist = direct")
    path = _write_ini(tmp_path, "twist.ini", text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "twist.json").read_text(encoding="utf-8"))
    assert report["config"]["twist"] == "direct"
    assert report == build_report(_scenario("voronoi"))


def test_cli_run_refuses_the_direct_twist_where_h_bar_is_not_h(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the constant was fitted before the twist was refused")

    monkeypatch.setattr(scenarios, "calibrate", no_fit)
    parameters = {**CHEAP_PARAMETERS["voronoi"], "h": "2", "k": "5", "twist": "direct"}
    code, _elapsed, err = _run_cli(tmp_path, capsys, "voronoi", parameters)
    assert code == EXIT_ERROR
    assert err.startswith("error: scenario kind 'voronoi': parameter 'twist' = 'direct' would twist the series by h = 2,")
    assert "but it twists by h_bar = 3, the inverse of h mod k = 5; omit the key or write 'inverse'" in err


@pytest.mark.parametrize(
    ("kind", "parameters", "refusal"),
    [
        # y <- t (theorem kinds)
        *[
            (kind, {"sigma": "0.4", "t": t}, f"WindowConfig requires t >= max(e, 1/c1) = 2.718281828459045; got t={t}.0")
            for kind in ("theorem1", "theorem2")
            for t in ("0", "-1")
        ],
        # calibration_x_lo <- k (the twist given, so its default reads nothing)
        *[
            ("voronoi", {"a": "-0.2", "h": "1", "k": k, "twist": "inverse"}, f"k_mod must satisfy 1 <= k_mod <= 1048576, got {k}")
            for k in ("0", "-1", "-3")
        ],
        # twist <- a, h, k
        *[
            ("voronoi", {"a": "-0.2", "h": "1", "k": k}, f"k_mod must satisfy 1 <= k_mod <= 1048576, got {k}")
            for k in ("0", "-1", "-3")
        ],
        ("voronoi", {"a": "-1", "h": "1", "k": "3"}, "exponent a must lie in (-1/2, 0], got -1.0"),
        ("voronoi", {"a": "0", "h": "1", "k": "3"}, "calibration requires a < 0"),
        ("voronoi", {"a": "-0.2", "h": "0", "k": "3"}, "h=0 and k_mod=3 must be coprime"),
        ("voronoi", {"a": "-0.2", "h": "-1", "k": "3"}, "h must satisfy 0 <= h < k_mod, got h=-1, k_mod=3"),
        ("voronoi", {"a": "-0.2", "h": "2", "k": "4"}, "h=2 and k_mod=4 must be coprime"),
        ("voronoi", {"a": "-0.2", "h": "5", "k": "3"}, "h must satisfy 0 <= h < k_mod, got h=5, k_mod=3"),
        # a_lo, b_hi <- t
        *[("saddle-l4", {"alpha": "1.5", "n": "3", "t": t}, f"T must be >= 10, got {t}.0") for t in ("0", "-1", "-5")],
    ],
)
def test_cli_run_leaves_a_callable_defaults_refusal_to_the_key_it_reads(tmp_path, capsys, kind, parameters, refusal):
    # A saddle-l4 scenario at t = -5 used to exit with "missing required
    # parameter 'a_lo'", although a_lo is optional and t is at fault.
    code, _elapsed, err = _run_cli(tmp_path, capsys, kind, parameters)
    assert code == EXIT_ERROR
    assert err.startswith("error: ")
    assert refusal in err
    assert "missing required parameter" not in err


@pytest.mark.parametrize(
    ("kind", "parameters", "need"),
    [
        ("theorem1", {**CHEAP_PARAMETERS["theorem1"], "t": "70000"}, "[70000.0, 140000.0] needs about 1.24e+09"),
        (
            "mean-square",
            {**CHEAP_PARAMETERS["mean-square"], "t_lo": "1e9", "t_hi": "1.000001e9"},
            "[1000000000.0, 1000001000.0] needs about 2.61e+09",
        ),
        ("mean-square", {**CHEAP_PARAMETERS["mean-square"], "t_hi": "1e307"}, "[0.0, 1e+307] needs about inf"),
        ("mean-square", {**CHEAP_PARAMETERS["mean-square"], "t_hi": "1.7e308"}, "[0.0, 1.7e+308] needs about inf"),
    ],
)
def test_cli_run_names_a_mean_square_beyond_the_zeta_work_limit(tmp_path, capsys, kind, parameters, need):
    # theorem1 at t = 4000 used to run 43 s.  With Riemann-Siegel above
    # t = 1000 its [4000, 8000] integral needs about 1.3e7 zeta terms and is
    # admitted; t = 70 000 is refused (4.1e6 initial evaluations at 2 x 149
    # terms).  Past about 7.6e305 the panel count leaves the float range; it
    # may not end in an OverflowError.
    text = f"[scenario]\nkind = {kind}\n\n[parameters]\n"
    path = _write_ini(tmp_path, "big.ini", text + "".join(f"{k} = {v}\n" for k, v in parameters.items()))
    start = time.perf_counter()
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert f"{need} zeta terms" in captured.err
    assert "above the limit MAX_ZETA_TERMS = 1073741824" in captured.err
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("kind", "key", "value", "choices"),
    [
        ("theorem1", "sigma1_variant", "bundled", "['canonical', 'resolved']"),
        ("theorem1", "radicand", "minus", "['plus']"),
        ("theorem1", "twist", "inverse", "['direct']"),
        ("theorem2", "twist", "inverse", "['direct']"),
        ("theorem1", "secondary_weight", "lcm", "['coprime']"),
        ("mean-square", "secondary_weight", "lcm", "['coprime']"),
        ("voronoi", "power_modulus_exponent", "printed", "['residue']"),
        ("voronoi", "power_modulus_exponent", "-0.8", "['residue']"),
        ("saddle-l4", "log_constant", "three-pi", "['two-pi']"),
    ],
)
def test_cli_run_names_a_removed_reading(tmp_path, capsys, kind, key, value, choices):
    code, elapsed = _run_with_parameter(tmp_path, kind, key, value)
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")
    assert f"parameter '{key}' must be one of {choices}, got '{value}'" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


def _run_cli(tmp_path, capsys, kind: str, parameters: dict) -> tuple[int, float, str]:
    text = f"[scenario]\nkind = {kind}\n\n[parameters]\n"
    path = _write_ini(tmp_path, "case.ini", text + "".join(f"{k} = {v}\n" for k, v in parameters.items()))
    start = time.perf_counter()
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()
    return code, elapsed, captured.err


@pytest.mark.parametrize(
    ("kind", "parameters", "need"),
    [
        ("theorem1", {"sigma": "0.4", "t": "80000", "coefficients": "1"}, "[80000.0, 160000.0] needs about"),
        ("theorem2", {"sigma": "0.4", "t": "400000", "coefficients": "1, 1"}, "[0.0, 400000.0] needs about"),
    ],
)
def test_cli_run_checks_the_zeta_work_before_forming_any_block(tmp_path, capsys, monkeypatch, kind, parameters, need):
    # Both reports used to form every sigma1/sigma2 block before the first
    # integral checked its zeta work, so a refused input first paid for them.
    def no_block(*args):
        raise AssertionError("a sigma1 block was formed before the zeta work check")

    monkeypatch.setattr(explicit, "_sigma1_sum", no_block)
    code, elapsed, err = _run_cli(tmp_path, capsys, kind, parameters)
    assert code == EXIT_ERROR
    assert err.startswith("error: mean-square integral on ")
    assert need in err
    assert "above the limit MAX_ZETA_TERMS = 1073741824" in err
    assert elapsed < 1.0


def test_cli_run_names_a_main_term_beyond_the_float_range(tmp_path, capsys):
    # T^(2 - 2 sigma) overflows from about T = 1e237 at sigma = 0.35; the
    # empty interval calls no zeta, so only main_term sees T.
    parameters = {**CHEAP_PARAMETERS["mean-square"], "t_lo": "1e307", "t_hi": "1e307"}
    code, elapsed, err = _run_cli(tmp_path, capsys, "mean-square", parameters)
    assert code == EXIT_ERROR
    assert err.startswith("error:")
    assert "leaves the float range at T = 1e+307, sigma = 0.35" in err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    ("kind", "parameters", "interval"),
    [
        ("mean-square", {**CHEAP_PARAMETERS["mean-square"], "coefficients": "1e200, 1"}, "[0.0, 2.0]"),
    ],
)
def test_cli_run_names_a_non_finite_integrand(tmp_path, capsys, kind, parameters, interval):
    # |zeta A|^2 overflows for coefficients near 1e200; the quadrature used to
    # report a NaN error estimate at floating-point panel resolution, and numpy
    # used to warn about the overflow before the one-line error.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, elapsed, err = _run_cli(tmp_path, capsys, kind, parameters)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == EXIT_ERROR
    assert err.startswith("error: integrand value inf at x = ")
    assert f"is not finite on {interval}" in err
    assert elapsed < 1.0


def test_cli_run_names_the_stage_of_a_width_policy_refusal(tmp_path, capsys):
    # The lemma-2 width policy yields a zero width at a_lo = 1e-300, T = 1e300;
    # the refusal used to name no stage, point or interval.
    parameters = {**CHEAP_PARAMETERS["saddle-l2"], "a_lo": "1e-300", "b_hi": "1e300", "t": "1e300"}
    code, elapsed, err = _run_cli(tmp_path, capsys, "saddle-l2", parameters)
    assert code == EXIT_ERROR
    assert err == (
        "error: lemma2 integral on [a_lo, b_hi] at T = 1e+300, k_freq = 1.0: initial_width must produce "
        "positive finite widths, got 0.0 at x = 1e-300 on [1e-300, 1e+300]\n"
    )
    assert elapsed < 1.0


def test_cli_run_names_coefficients_whose_window_blocks_leave_the_floats(tmp_path, capsys, monkeypatch):
    # At coefficient 1e200 the blocks used to come out nan, and the run failed
    # only later, naming the integrand on [60.0, 120.0]; it now stops at the
    # first window, before any quadrature.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran before the blocks were refused")

    monkeypatch.setattr(explicit, "integrate_mean_square", no_quadrature)
    parameters = {**CHEAP_PARAMETERS["theorem1"], "coefficients": "1e200"}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, elapsed, err = _run_cli(tmp_path, capsys, "theorem1", parameters)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == EXIT_ERROR
    assert err.startswith("error: the sigma1 and sigma2 blocks at t = ")
    assert err.rstrip().endswith("are nan and nan, not finite floats, for the coefficients ((1e+200+0j),)")
    assert elapsed < 1.0


def _assert_one_error_line(captured, *fragments: str) -> None:
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in captured.err


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_names_an_existing_file_given_as_out_before_any_work(tmp_path, capsys, monkeypatch, command):
    # The report directory is made ready before any scenario runs; a regular
    # file in its place used to end in a FileExistsError traceback after the run.
    calls = []
    params = scenarios._KINDS["saddle-l3"].params
    monkeypatch.setitem(scenarios._KINDS, "saddle-l3", scenarios._Kind(params, lambda v: calls.append(v)))
    path = _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3"))
    if command == "suite":
        path = _write_ini(tmp_path, "bench.ini", "[suite]\nscenarios = decay.ini\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    code = cli.main([command, str(path), "--out", str(taken)])
    assert code == EXIT_ERROR
    _assert_one_error_line(capsys.readouterr(), f"cannot create report directory {taken}")
    assert calls == []


@pytest.mark.parametrize(
    ("stem", "fragment"),
    [("a\0b", "output stem must be a bare file name"), ("x" * 300, "cannot write report ")],
    ids=["nul", "too-long"],
)
def test_cli_run_names_an_unusable_output_stem(tmp_path, capsys, stem, fragment):
    # A NUL byte is refused when the file is read; a name too long for the
    # file system is named with its path when the report is written.
    path = _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3", f"[output]\nstem = {stem}"))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    _assert_one_error_line(capsys.readouterr(), fragment)
    assert list((tmp_path / "out").glob("*")) == []


def _cli_fuzz_value(param, cheap: str | None) -> st.SearchStrategy[str]:
    """Text for ``param``, whose cheap value is ``cheap`` or its default: a
    choice, that value scaled by a small factor, or a malformed or
    out-of-range value."""
    bad = st.sampled_from(("", "x", "nan", "inf", "-inf", "1e999", "0", "-1", "9" * 40, "1, 2", "1j"))
    if param.choices is not None:
        return bad | st.sampled_from(param.choices + ("bundled", "other"))
    try:
        number = float(cheap if cheap is not None else param.default)
    except (TypeError, ValueError):  # a list, a callable default or a text key
        return bad | st.sampled_from(("50, 100", "50, 100, 200", "10, 20", "1, 0.5", "0.5+0.5j, -1", "residue"))
    as_int = param.parse is scenarios._int
    factors = st.sampled_from((-1.0, 0.0, 0.5, 1.5, 2.0))
    return bad | factors.map(lambda f: str(int(number * f)) if as_int else repr(number * f))


@st.composite
def _cli_fuzz_case(draw) -> tuple[str, str]:
    """Scenario text of any kind with up to three keys changed, perhaps an
    ``[output]`` section, and the kind of ``--out`` to pass."""
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    parameters = dict(CHEAP_PARAMETERS[kind])
    for param in draw(st.sets(st.sampled_from(scenarios._KINDS[kind].params), max_size=3)):
        parameters[param.name] = draw(_cli_fuzz_value(param, parameters.get(param.name)))
    lines = ["[scenario]", f"kind = {kind}", "[parameters]", *(f"{k} = {v}" for k, v in parameters.items())]
    if draw(st.booleans()):
        stem = draw(st.sampled_from(("report",) * 4 + ("a/b", "a\0b", "x" * 300, "é" * 128)))
        formats = draw(st.sampled_from(("json", "csv", "json, csv", "yaml")))
        lines += ["[output]", f"stem = {stem}", f"formats = {formats}"]
    return "\n".join(lines) + "\n", draw(st.sampled_from(("directory",) * 3 + ("file",)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_cli_fuzz_case())
def test_fuzzed_scenario_runs_through_the_cli_with_a_defined_exit(case):
    # Every generated scenario, run end to end by ``zetastrip run``, exits 0, 1
    # or 2; an exception escaping cli.main would be a traceback.
    text, out = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text, encoding="utf-8")
        target = Path(tmp) / "out"
        if out == "file":
            target.write_text("", encoding="utf-8")
        assert cli.main(["run", str(path), "--out", str(target)]) in (EXIT_PASS, EXIT_ERROR, EXIT_FAIL)


def test_cli_compare(tmp_path, capsys):
    report = build_report(_scenario("saddle-l3"))
    current, baseline = tmp_path / "current.json", tmp_path / "baseline.json"
    baseline.write_text(render_json(report), encoding="utf-8")

    current.write_text(render_json(report), encoding="utf-8")
    assert cli.main(["compare", str(current), str(baseline)]) == EXIT_PASS
    assert "agree" in capsys.readouterr().out

    drifted = copy.deepcopy(report)
    drifted["rows"][0][1] *= 1.0 + 1e-6
    current.write_text(render_json(drifted), encoding="utf-8")
    assert cli.main(["compare", str(current), str(baseline)]) == EXIT_FAIL
    assert "rows[0][1]" in capsys.readouterr().err

    tol = _write_ini(tmp_path, "tol.ini", "[tolerances]\nrows = 1e-3\n")
    assert cli.main(["compare", str(current), str(baseline), "--tol", str(tol)]) == EXIT_PASS
    capsys.readouterr()

    rekinded = copy.deepcopy(report)
    rekinded["kind"] = "saddle-l2"
    current.write_text(render_json(rekinded), encoding="utf-8")
    assert cli.main(["compare", str(current), str(baseline)]) == EXIT_ERROR
    assert "kind" in capsys.readouterr().err


def test_cli_suite(tmp_path, capsys):
    suite_path = _write_suite(tmp_path)
    code = cli.main(["suite", str(suite_path), "--out", str(tmp_path / "out"), "--workers", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert "PASS saddle-l3 decay:" in captured.out
    assert "PASS saddle-l4 resonance:" in captured.out
    assert "suite: 2 of 2 scenario verdicts passed" in captured.out


def test_cli_suite_failure_is_the_same_at_one_and_two_workers(tmp_path, capsys):
    # The scenarios after a failing one still run and write their reports;
    # then the first failure is reported and no summary is written.
    _write_suite(tmp_path)
    bad = _scenario_text("mean-square").replace("sigma = 0.35", "sigma = 0.6")
    _write_ini(tmp_path, "bad.ini", bad)
    suite_path = _write_ini(tmp_path, "mixed.ini", "[suite]\nscenarios =\n    decay.ini\n    bad.ini\n    resonance.ini\n")
    outcomes = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = cli.main(["suite", str(suite_path), "--out", str(out), "--workers", str(workers)])
        captured = capsys.readouterr()
        outcomes[workers] = (code, captured.err, sorted(p.name for p in out.iterdir()))
    assert outcomes[1] == outcomes[2]
    code, err, names = outcomes[1]
    assert code == EXIT_ERROR
    assert err.startswith("error:")
    assert "(1/4, 1/2)" in err
    assert names == ["decay.csv", "decay.json", "resonance.csv", "resonance.json"]


def test_cli_rejects_bad_worker_and_precision_values(tmp_path, capsys):
    # Usage errors exit 1 like any bad input (2 means a verdict failed) and
    # name the offending option; --help still exits 0.
    path = _write_ini(tmp_path, "decay.ini", _scenario_text("saddle-l3"))
    suite_path = _write_ini(tmp_path, "bench.ini", "[suite]\nscenarios = decay.ini\n")
    for argv, option in (
        (["run", str(path), "--precision", "80"], "--precision"),
        (["run", str(path), "--workers", "0"], "--workers"),
        (["suite", str(suite_path), "--workers", "0"], "--workers"),
        (["suite", str(suite_path), "--workers", "two"], "--workers"),
        (["frobnicate"], "frobnicate"),
    ):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == EXIT_ERROR, argv
        assert option in capsys.readouterr().err
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == EXIT_PASS
        assert "usage:" in capsys.readouterr().out
    assert not (tmp_path / "decay.json").exists()
