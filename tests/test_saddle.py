"""Stationary-phase benches: exponential-integral saddle comparison, the
no-saddle decay integral, and the phi-weighted resonance integral."""

from __future__ import annotations

import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest

from zetastrip import quadrature, saddle
from zetastrip.errors import QuadratureNonConvergence, ValidationError
from zetastrip.saddle import (
    AUDIT_CONSTANT,
    ExpIntegralSpec,
    _exp_integral_lhs,
    lemma2_compare,
    lemma3_decay,
    _lemma3_phase_derivative,
    lemma4_compare,
    _lemma4_delta,
    _phi_weight,
    _saddle_term,
)

mpmath.mp.prec = 120


def _spec(**overrides) -> ExpIntegralSpec:
    base = dict(alpha=0.6, beta=0.6, gamma=1.0, a_lo=0.01, b_hi=200.0, k_freq=1.0, T=100.0, sign=1)
    base.update(overrides)
    return ExpIntegralSpec(**base)


# ---------------------------------------------------------------------------
# Spec plumbing
# ---------------------------------------------------------------------------


def test_spec_validation_and_derived_quantities():
    spec = _spec(k_freq=1.0, T=2.0 * math.pi)
    assert spec.u_value == pytest.approx(math.sqrt(1.25), rel=1e-15)
    assert spec.v_value == pytest.approx(2.0 * math.asinh(0.5), rel=1e-15)
    with pytest.raises(ValidationError):
        _spec(alpha=1.0)  # removable singularity excluded
    with pytest.raises(ValidationError):
        _spec(sign=2)
    with pytest.raises(ValidationError):
        _spec(a_lo=0.5, b_hi=0.4)
    with pytest.raises(ValidationError):
        _spec(k_freq=0.0)
    with pytest.raises(ValidationError):
        _spec(gamma=11.0)


# ---------------------------------------------------------------------------
# Exponential integral vs saddle term
# ---------------------------------------------------------------------------


def test_exp_integral_against_mpmath():
    spec = _spec(a_lo=0.2, b_hi=3.0, T=40.0)
    mine = _exp_integral_lhs(spec, abs_tol=1e-10, rel_tol=1e-11).value

    def integrand(y):
        phase = spec.T * mpmath.log((1 + y) / y) + 2 * mpmath.pi * spec.k_freq * y
        mag = y ** (-spec.alpha) * (1 + y) ** (-spec.beta) * (mpmath.log((1 + y) / y)) ** (-spec.gamma)
        return mag * mpmath.e ** (1j * phase)

    ref = complex(mpmath.quad(integrand, [0.2, 1.0, 3.0]))
    assert abs(mine - ref) <= 1e-9


def test_non_convergence_names_the_saddle_stage(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 40)  # 40 initial panels
    with pytest.raises(QuadratureNonConvergence) as info:
        _exp_integral_lhs(_spec(a_lo=0.2, b_hi=3.0, T=40.0), abs_tol=1e-300, rel_tol=0.0)
    stage = r"lemma2 integral on \[a_lo, b_hi\] at T = 40\.0, k_freq = 1\.0"
    assert re.fullmatch(stage + r": panel budget 40 exhausted .* on \[0\.2, 3\.0\]", str(info.value))
    assert info.value.value > 0.0 and info.value.error_estimate > 0.0


def test_initial_panels_may_fill_the_whole_budget(monkeypatch):
    # 40 initial panels converge within a budget of exactly 40; one panel
    # less is refused before any evaluation.
    spec = _spec(a_lo=0.2, b_hi=3.0, T=40.0)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 40)
    result = _exp_integral_lhs(spec)
    assert (result.panels, result.evaluations) == (40, 40 * quadrature.NODES_PER_PANEL)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 39)
    stage = r"lemma2 integral on \[a_lo, b_hi\] at T = 40\.0, k_freq = 1\.0"
    with pytest.raises(ValidationError, match=rf"^{stage}: initial_width policy reached the panel budget 39 on \[0\.2, 3\.0\]$"):
        _exp_integral_lhs(spec)


def test_exp_integral_minus_sign_conjugates_frequency_only():
    # The minus case flips the linear frequency, not the whole phase: the
    # integral is NOT the conjugate of the plus case.
    plus = _exp_integral_lhs(_spec(a_lo=0.2, b_hi=3.0, T=40.0)).value
    minus = _exp_integral_lhs(_spec(a_lo=0.2, b_hi=3.0, T=40.0, sign=-1)).value
    assert abs(minus - plus.conjugate()) > 0.01
    assert abs(minus) < abs(plus)  # no interior stationary point survives


def test_saddle_term_closed_form():
    spec = _spec()
    term = _saddle_term(spec)
    U, V = spec.u_value, spec.v_value
    k, T = spec.k_freq, spec.T
    expected_mag = math.sqrt(T) / (
        2.0
        * k
        * math.sqrt(math.pi)
        * V**spec.gamma
        * math.sqrt(U)
        * (U - 0.5) ** spec.alpha
        * (U + 0.5) ** spec.beta
    )
    phase = T * V + 2.0 * math.pi * k * U - math.pi * k + 0.25 * math.pi
    expected = expected_mag * complex(math.cos(phase), math.sin(phase))
    assert term == pytest.approx(expected, rel=1e-13)


def test_lemma2_report_pins():
    report = lemma2_compare(_spec())
    assert report.lhs == pytest.approx(complex(-0.7284223281370131, -0.8058348253203957), abs=1e-9)
    assert report.saddle == pytest.approx(complex(-0.7577719429141538, -0.7547805089461632), abs=1e-12)
    assert report.r_branch == "k<=T"
    assert report.budgets["budget_endpoint_a"] == pytest.approx(0.0015848931924611134, rel=1e-12)
    assert report.budgets["budget_endpoint_b"] == pytest.approx(0.3465724215775733, rel=1e-12)
    assert report.budgets["budget_saddle_r"] == pytest.approx(0.19952623149688797, rel=1e-12)
    assert report.difference < report.budget_total  # well inside, pre-audit
    assert report.passed


def test_lemma2_minus_sign_compares_against_zero():
    report = lemma2_compare(_spec(sign=-1))
    assert report.saddle == 0j
    assert report.r_branch == "omitted"
    assert report.budgets["budget_saddle_r"] == 0.0
    assert abs(report.lhs) == report.difference
    assert report.passed


def test_lemma2_branch_switch_large_k():
    report = lemma2_compare(_spec(k_freq=20.0, T=15.0, b_hi=25.0))
    assert report.r_branch == "k>=T"
    assert report.passed


def test_lemma2_precondition_checks():
    with pytest.raises(ValidationError):
        lemma2_compare(_spec(a_lo=0.6, b_hi=200.0))  # a_lo must stay below 1/2
    with pytest.raises(ValidationError):
        lemma2_compare(_spec(b_hi=50.0))  # b_hi must dominate T, 1/k, U - 1/2


# ---------------------------------------------------------------------------
# No-saddle decay
# ---------------------------------------------------------------------------


def test_lemma3_phase_derivative_never_vanishes():
    xs = np.geomspace(0.05, 5000.0, 200)
    d = _lemma3_phase_derivative(xs, 1.0)
    assert np.all(np.abs(d) > 0.0)


def test_lemma3_decay_pins():
    report = lemma3_decay(1.5, 1.0, [50.0, 100.0, 200.0, 400.0])
    assert report.magnitudes == pytest.approx(
        (0.03723985827487017, 0.020922746045987296, 0.013140927299134578, 0.008511029574569905),
        rel=1e-9,
    )
    assert report.max_min_ratio == pytest.approx(1.1505577162442973, rel=1e-9)
    assert report.passed


def test_lemma3_grid_validation():
    with pytest.raises(ValidationError):
        lemma3_decay(1.5, 1.0, [50.0])
    with pytest.raises(ValidationError):
        lemma3_decay(1.5, 1.0, [50.0, 120.0])  # not doubling
    with pytest.raises(ValidationError):
        lemma3_decay(1.5, 1.0, [5.0, 10.0])  # T below 10
    with pytest.raises(ValidationError):
        lemma3_decay(1.5, 0.0, [50.0, 100.0])


def test_lemma3_phase_derivative_magnitude_decreases_in_x():
    # lemma3_decay's panel bound reads |phase'| at 2T as its least on [T, 2T].
    xs = np.geomspace(1.0, 1e7, 400)
    for k in np.geomspace(1e-6, 1e300, 200):
        assert np.all(np.diff(np.abs(_lemma3_phase_derivative(xs, float(k)))) < 0.0), k


def _no_integral(*args):
    raise AssertionError("an integral ran")


@pytest.mark.parametrize(
    ("k", "where"),
    [(1e100, "T = 400, k = 1e+100 needs at least 60110"), (1e300, "T = 100, k = 1e+300 needs at least 45821")],
)
def test_lemma3_refuses_a_grid_over_the_panel_budget_before_any_integral(monkeypatch, k, where):
    # Both used to spend 2.5-2.9 s in the initial-width loop before its error.
    monkeypatch.setattr(saddle, "_lemma3_integral", _no_integral)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"^lemma3_decay at {re.escape(where)} initial panels on "):
        lemma3_decay(1.5, k, [50.0, 100.0, 200.0, 400.0])
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("k", [5e307, 1e308, 1.797e308])
def test_lemma3_refuses_a_k_whose_2_pi_k_overflows_before_any_phase_derivative(monkeypatch, k):
    # 1e308 and 1.797e308 used to warn "invalid value encountered in scalar
    # divide" in the phase derivative; 5e307 reached the panel bound.
    monkeypatch.setattr(saddle, "_lemma3_phase_derivative", _no_integral)
    monkeypatch.setattr(saddle, "_lemma3_integral", _no_integral)
    message = f"k must keep 2 pi k finite, k <= 2.86112e+307, got {k:g}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            lemma3_decay(1.5, k, [50.0, 100.0])


@pytest.mark.parametrize("k", [5e-324, 1e-307])
def test_lemma3_refuses_a_k_whose_x_over_2_pi_k_overflows_before_any_phase_derivative(monkeypatch, k):
    # 5e-324 used to warn "overflow encountered in divide" in the phase derivative.
    monkeypatch.setattr(saddle, "_lemma3_phase_derivative", _no_integral)
    monkeypatch.setattr(saddle, "_lemma3_integral", _no_integral)
    message = f"k must keep 2 T / (2 pi k) finite at T = 100, got {k:g}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            lemma3_decay(1.5, k, [50.0, 100.0])


def test_lemma3_panel_bound_reads_the_budget_at_call_time(monkeypatch):
    # At k = 1 the bound is 16 panels up to T = 200 and 23.6 at T = 400.
    monkeypatch.setattr(saddle, "_lemma3_integral", _no_integral)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 20)
    with pytest.raises(ValidationError, match=r"at T = 400, k = 1 needs at least 24 .* panel budget 20$"):
        lemma3_decay(1.5, 1.0, [50.0, 100.0, 200.0, 400.0])
    # k = 1e30 needs at most 17 128 panels: inside the default budget.
    monkeypatch.undo()
    monkeypatch.setattr(saddle, "_lemma3_integral", lambda alpha, k, T: 1.0)
    assert lemma3_decay(1.5, 1e30, [50.0, 100.0, 200.0, 400.0]).magnitudes == (1.0,) * 4


# ---------------------------------------------------------------------------
# Phi-weighted resonance integral
# ---------------------------------------------------------------------------


def test_phi_weight_closed_form():
    alpha, T, x = 1.5, 200.0, 20.0
    expected = (
        x**-alpha
        / math.asinh(x * math.sqrt(math.pi / (2.0 * T)))
        / (math.sqrt(T / (2.0 * math.pi * x**2) + 0.25) + 0.5)
        / (T / (2.0 * math.pi * x**2) + 0.25) ** 0.25
    )
    assert _phi_weight(alpha, T, np.array([x]))[0] == pytest.approx(expected, rel=1e-13)


def test_lemma4_delta_saddle_membership():
    T = 200.0
    n_limit = T / (2.0 * math.pi)  # ~31.83
    a_lo, b_hi = math.sqrt(T), 10.0 * math.sqrt(T)
    assert _lemma4_delta(3, a_lo, b_hi, T) == 1
    assert _lemma4_delta(40, a_lo, b_hi, T) == 0  # n beyond T/(2 pi)
    # Saddle x0 = (T/2pi - n)/sqrt(n) must lie inside [a, b].
    n_outside = 7
    x0 = (T / (2.0 * math.pi) - n_outside) / math.sqrt(n_outside)
    assert x0 < a_lo or x0 > b_hi or _lemma4_delta(n_outside, a_lo, b_hi, T) == 1
    assert n_limit > 3


def test_lemma4_pins_and_log_constant_adjudication():
    T = 200.0
    a_lo, b_hi = math.sqrt(T), 10.0 * math.sqrt(T)
    two_pi = lemma4_compare(1.5, 3, a_lo, b_hi, T)
    assert two_pi.delta == 1
    assert saddle.LOG_CONSTANT == 2.0
    assert two_pi.lhs == pytest.approx(complex(0.012141308179507367, -0.035625007919350984), abs=1e-10)
    assert two_pi.saddle == pytest.approx(complex(0.005839143715812735, -0.0345212439008637), abs=1e-12)
    assert two_pi.difference == pytest.approx(0.006398091272869014, abs=1e-10)
    assert two_pi.passed
    # The 3 pi reading of the phase constant, formed here from the same
    # amplitude: -T log(T/(3 pi n)) = -T log(T/(2 pi n)) + T log(3/2).
    three_pi_saddle = two_pi.saddle * complex(math.cos(T * math.log(1.5)), math.sin(T * math.log(1.5)))
    three_pi_difference = abs(two_pi.lhs - three_pi_saddle)
    assert three_pi_difference == pytest.approx(0.026697279788470547, abs=1e-9)
    # The two-pi constant reconciles several times better at this node.
    assert three_pi_difference > 4.0 * two_pi.difference


def test_lemma4_no_saddle_case_compares_against_zero():
    # At T = 250, n = 7 the saddle sits left of the range: delta = 0 and the
    # saddle term is absent for either log constant.
    T = 250.0
    report = lemma4_compare(1.5, 7, math.sqrt(T), 10.0 * math.sqrt(T), T)
    assert report.delta == 0
    assert report.saddle == 0j
    assert report.passed


@pytest.mark.parametrize("T", [200.0, 800.0])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
def test_lemma4_endpoint_budget_follows_the_lower_endpoint(alpha, T):
    # At a_lo = 0.06 sqrt(T) the budget without the (a_lo/sqrt(T))^-alpha
    # factor was 30 to 1.5e5 times too small; with it each cell reads 0.114.
    report = lemma4_compare(alpha, 3, 0.06 * math.sqrt(T), 10.0 * math.sqrt(T), T)
    assert report.delta == 1
    assert 0.11 < report.difference / report.budget_total < 0.12
    assert report.passed


@pytest.mark.parametrize(
    ("run", "refusal"),
    [
        (
            lambda: lemma4_compare(1.5, 400, math.sqrt(200.0), 1000.0, 200.0),
            "lemma4 integral on [a_lo, b_hi] at n = 400, T = 200.0: initial_width policy reached the panel budget "
            "40000 on [14.142135623730951, 1000.0]",
        ),
        (
            lambda: lemma2_compare(_spec(b_hi=1e6)),
            "lemma2 integral on [a_lo, b_hi] at T = 100.0, k_freq = 1.0: initial_width policy reached the panel "
            "budget 40000 on [0.01, 1000000.0]",
        ),
    ],
    ids=["lemma4", "lemma2"],
)
def test_initial_panels_past_the_budget_are_refused_naming_the_lemma(run, refusal):
    # lemma4 counted 39 434 periods, under its former 40 000-period bound, and
    # then met the quadrature's refusal, which named neither lemma nor n.
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            run()
    assert str(info.value) == refusal
    assert time.perf_counter() - start < 1.0


def test_lemma4_endpoint_window_guard():
    with pytest.raises(ValidationError):
        lemma4_compare(1.5, 3, 0.1, 2000.0, 200.0)  # a_lo/sqrt(T) below window
    with pytest.raises(ValidationError):
        lemma4_compare(1.5, 0, 10.0, 200.0, 200.0)


def test_audit_constant_value():
    assert AUDIT_CONSTANT == 10.0


# ---------------------------------------------------------------------------
# Integrands from cos and sin, against the former complex exp
# ---------------------------------------------------------------------------


class _Captured(Exception):
    """Stops a saddle computation at its phase-adaptive integral."""


def _integrand_of(run, monkeypatch):
    """The integrand ``run()`` hands to ``saddle._phase_integral``."""
    captured = []

    def capture(integrand, derivative, lo, hi, abs_tol, rel_tol):
        captured.append((integrand, lo, hi))
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(saddle, "_phase_integral", capture)
        with pytest.raises(_Captured):
            run()
    return captured[0]


@pytest.mark.parametrize(
    "run",
    [
        lambda: _exp_integral_lhs(_spec()),
        lambda: _exp_integral_lhs(_spec(sign=-1, k_freq=5.0, T=400.0, b_hi=1000.0, alpha=0.55)),
        lambda: lemma3_decay(1.5, 1.0, [400.0, 800.0]),
        lambda: lemma4_compare(1.5, 3, math.sqrt(200.0), 10.0 * math.sqrt(200.0), 200.0),
    ],
    ids=["lemma2-plus", "lemma2-minus", "lemma3", "lemma4"],
)
def test_saddle_integrands_bit_identical_to_the_former_complex_exp(run, monkeypatch):
    integrand, lo, hi = _integrand_of(run, monkeypatch)
    nodes = np.linspace(lo, hi, 20_001)
    got = integrand(nodes)
    # The former integrand: the same magnitude times exp(1j * phase).
    monkeypatch.setattr(saddle, "cis", lambda phase: np.exp(1j * phase))
    former, _, _ = _integrand_of(run, monkeypatch)
    expected = former(nodes)
    assert got.dtype == expected.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "run",
    [
        lambda: _exp_integral_lhs(_spec()),
        lambda: lemma3_decay(1.5, 1.0, [400.0, 800.0]),
        lambda: lemma4_compare(1.5, 3, math.sqrt(200.0), 10.0 * math.sqrt(200.0), 200.0),
    ],
    ids=["lemma2", "lemma3", "lemma4"],
)
def test_phase_width_policy_bit_identical_to_the_former_max(run, monkeypatch):
    captured = {}
    phase_integral = saddle._phase_integral

    def spy(integrand, derivative, lo, hi, abs_tol, rel_tol):
        captured.update(derivative=derivative, lo=lo, hi=hi)
        return phase_integral(integrand, derivative, lo, hi, abs_tol, rel_tol)

    def stop(f, a, b, **kwargs):
        captured["width"] = kwargs["initial_width"]
        raise _Captured

    monkeypatch.setattr(saddle, "_phase_integral", spy)
    monkeypatch.setattr(saddle, "integrate_adaptive", stop)
    with pytest.raises(_Captured):
        run()
    derivative, lo, hi = captured["derivative"], captured["lo"], captured["hi"]
    floor = saddle.PHASE_RADIANS_PER_PANEL / ((hi - lo) / 16.0)
    ys = np.linspace(lo, hi, 20_001).tolist()
    got = [captured["width"](y) for y in ys]
    expected = [saddle.PHASE_RADIANS_PER_PANEL / max(abs(derivative(y)), floor) for y in ys]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
