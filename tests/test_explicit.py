"""Window identity blocks: cutoff map, phases, variant algebra, both reports."""

from __future__ import annotations

import math

import pytest

from zetastrip.arithmetic import DirichletPolynomial
from zetastrip.errors import ValidationError
from zetastrip.explicit import (
    WindowConfig,
    explicit_terms,
    f_phase,
    g_phase,
    sigma1,
    sigma2,
    theorem1_report,
    theorem2_report,
    xi,
)
from zetastrip.meansquare import StripConfig, main_term


# ---------------------------------------------------------------------------
# WindowConfig
# ---------------------------------------------------------------------------


def test_window_validation_and_scaling():
    win = WindowConfig(0.5, 2.0, 40.0, 40.0)
    assert win.c_star == math.e
    doubled = win.scaled(2.0)
    assert doubled.t == 80.0 and doubled.y == 80.0
    with pytest.raises(ValidationError):
        WindowConfig(2.0, 0.5, 40.0, 40.0)
    with pytest.raises(ValidationError):
        WindowConfig(0.5, 2.0, 100.0, 40.0)  # y >= c2*t
    with pytest.raises(ValidationError):
        WindowConfig(0.5, 2.0, 2.0, 2.0)  # t < c_star
    with pytest.raises(ValidationError):
        win.scaled(0.0)


# ---------------------------------------------------------------------------
# xi and phases
# ---------------------------------------------------------------------------


def test_xi_defining_identity_and_range():
    for T in (10.0, 250.0, 5000.0):
        a = T / (2.0 * math.pi)
        assert xi(T, 0.0) == pytest.approx(a, rel=1e-14)
        last = a
        for u in (0.1, 1.0, T, 10.0 * T):
            val = xi(T, u)
            assert 0.0 < val <= a
            lhs = (a + 0.5 * u - val) ** 2
            rhs = 0.25 * u * u + u * a
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert val < last  # strictly decreasing in u
            last = val
    with pytest.raises(ValidationError):
        xi(0.0, 1.0)
    with pytest.raises(ValidationError):
        xi(10.0, -1.0)


def test_f_phase_values_and_guards():
    T = 100.0
    assert f_phase(T, 0.0) == pytest.approx(-0.25 * math.pi)
    u = 7.3
    expected = (
        2.0 * T * math.asinh(math.sqrt(math.pi * u / (2.0 * T)))
        + math.sqrt(2.0 * math.pi * u * T + (math.pi * u) ** 2)
        - 0.25 * math.pi
    )
    assert f_phase(T, u) == pytest.approx(expected, rel=1e-15)
    minus = f_phase(T, u, radicand="minus")
    assert minus < f_phase(T, u)
    with pytest.raises(ValidationError):
        f_phase(T, 2.1 * T / math.pi, radicand="minus")
    with pytest.raises(ValidationError):
        f_phase(T, 1.0, radicand="times")
    with pytest.raises(ValidationError):
        f_phase(-1.0, 1.0)


def test_f_phase_derivative_closed_form():
    # For the plus radicand the derivative collapses:
    #   d/du [2T asinh sqrt(pi u/2T)] = T sqrt(pi / (u (2T + pi u))),
    #   d/du sqrt(pi u (2T + pi u))  = sqrt(pi) (T + pi u)/sqrt(u (2T + pi u)),
    # and the sum telescopes to sqrt(2 pi T/u + pi^2).  Central differences.
    T, u, h = 180.0, 11.0, 1e-5
    numeric = (f_phase(T, u + h) - f_phase(T, u - h)) / (2.0 * h)
    assert numeric == pytest.approx(math.sqrt(2.0 * math.pi * T / u + math.pi**2), rel=1e-9)


def test_g_phase_closed_form():
    T, u = 90.0, 4.2
    expected = T * math.log(T / (2.0 * math.pi * u)) - T + 2.0 * math.pi * u + 0.25 * math.pi
    assert g_phase(T, u) == pytest.approx(expected, rel=1e-15)
    # Stationary point of g in u is at u = T/(2 pi).
    h = 1e-6
    u0 = T / (2.0 * math.pi)
    numeric = (g_phase(T, u0 + h) - g_phase(T, u0 - h)) / (2.0 * h)
    assert abs(numeric) < 1e-6
    with pytest.raises(ValidationError):
        g_phase(T, 0.0)


# ---------------------------------------------------------------------------
# Variant algebra
# ---------------------------------------------------------------------------

_CFG = StripConfig(0.4)
_POLY2 = DirichletPolynomial((1.0, 1.0))


def test_sigma1_variant_scalings():
    T, Y = 60.0, 60.0
    canonical = sigma1(T, Y, _CFG, _POLY2)
    rescaled = sigma1(T, Y, _CFG, _POLY2, variant="rescaled")
    scale = (2.0 * math.pi) ** (0.4 - 0.5)
    assert rescaled == pytest.approx(scale * canonical, rel=1e-12)
    resolved = sigma1(T, Y, _CFG, _POLY2, variant="resolved")
    assert abs(resolved) <= scale * _sigma1_total_magnitude(T, Y) + 1e-12
    with pytest.raises(ValidationError):
        sigma1(T, Y, _CFG, _POLY2, variant="other")


def _sigma1_total_magnitude(T: float, Y: float) -> float:
    from zetastrip.explicit import _sigma1_sum

    total, _ = _sigma1_sum(T, Y, _CFG, _POLY2, "plus")
    return abs(total)


def test_sigma2_variant_scalings_and_twist_noop_small_moduli():
    T = 60.0
    ycut = xi(T, 60.0)
    canonical = sigma2(T, ycut, _CFG, _POLY2)
    halved = sigma2(T, ycut, _CFG, _POLY2, variant="halved")
    resolved = sigma2(T, ycut, _CFG, _POLY2, variant="resolved")
    assert halved == pytest.approx(0.5 * canonical, rel=1e-13)
    assert resolved == pytest.approx(halved * (2.0 * math.pi) ** (2 * 0.4 - 1.0), rel=1e-13)
    # For M = 2 every pair has lambda <= 2, where kappa_bar == kappa mod
    # lambda: the twist direction cannot matter.
    direct = sigma2(T, ycut, _CFG, _POLY2, twist="direct")
    inverse = sigma2(T, ycut, _CFG, _POLY2, twist="inverse")
    assert direct == inverse


def test_sigma2_rejects_nonpositive_log_cutoff():
    # Retained terms need kappa n / lambda < T/(2 pi) strictly; a cutoff
    # beyond that bound must refuse rather than fold in log of <= 0.
    with pytest.raises(ValidationError):
        sigma2(10.0, 3.0, _CFG, DirichletPolynomial((1.0,)))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_explicit_terms_block_total_consistency():
    win = WindowConfig(0.5, 2.0, 40.0, 40.0)
    terms = explicit_terms(win, _CFG, _POLY2)
    assert terms.block_total == pytest.approx(terms.main + terms.sigma1 + terms.sigma2)
    assert terms.terms_used_1 > 0 and terms.terms_used_2 > 0
    assert terms.main == pytest.approx(main_term(40.0, _CFG, _POLY2), rel=1e-13)


def test_theorem1_report_wiring():
    win = WindowConfig(0.5, 2.0, 40.0, 40.0)
    report = theorem1_report(win, _CFG, _POLY2, abs_tol=1e-5)
    assert report.quadrature_value > 0.0
    assert report.residual == pytest.approx(
        report.quadrature_value - (report.upper.block_total - report.lower.block_total)
    )
    assert report.oscillatory_rms > 0.0


def test_theorem2_report_consistency_small():
    T = 50.0
    win = WindowConfig(0.5, 2.0, T, T)
    report = theorem2_report(T, win, _CFG, DirichletPolynomial((1.0,)), 1.0, abs_tol=1e-6)
    assert report.levels >= 1
    assert report.stub_upper == pytest.approx(T / 2.0**report.levels)
    assert abs(report.difference) <= 3.0 * report.quadrature_error_total
    with pytest.raises(ValidationError):
        theorem2_report(60.0, win, _CFG, DirichletPolynomial((1.0,)), 1.0)


def test_dyadic_level_formula():
    from zetastrip.explicit import _dyadic_levels

    # floor((log T - log c* - alpha log log T)/log 2) at T=800, c*=e, alpha=1.
    expected = math.floor((math.log(800.0) - 1.0 - math.log(math.log(800.0))) / math.log(2.0))
    assert expected == 5
    assert _dyadic_levels(800.0, math.e, 1.0) == 5
    assert _dyadic_levels(3.0, math.e, 5.0) == 0  # clamped at zero
    with pytest.raises(ValidationError):
        _dyadic_levels(1.0, math.e, 1.0)
    with pytest.raises(ValidationError):
        _dyadic_levels(800.0, math.e, -1.0)
