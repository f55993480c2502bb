"""Mean-square integrand, adaptive integral and analytic main term."""

from __future__ import annotations

import contextlib
import math
import pickle
import re
import signal

import mpmath
import numpy as np
import pytest

from zetastrip import meansquare, quadrature, special
from zetastrip.arithmetic import DirichletPolynomial, pair_data
from zetastrip.errors import QuadratureNonConvergence, ValidationError
from zetastrip.meansquare import (
    StripConfig,
    integrand,
    integrate_mean_square,
    main_term,
)
from zetastrip.special import zeta_line

mpmath.mp.prec = 160


def test_strip_config_rejects_outside_strip():
    for bad in (0.25, 0.5, 0.6, 0.1):
        with pytest.raises(ValidationError) as info:
            StripConfig(bad)
        assert "(1/4, 1/2)" in str(info.value)
    assert StripConfig(0.3).sigma == 0.3


def test_integrand_against_mpmath():
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0, 0.5))
    ts = np.array([0.7, 12.0, 85.3])
    values = integrand(ts, cfg, poly)
    assert values.shape == (3,)
    for t, mine in zip(ts.tolist(), values):
        z = mpmath.zeta(mpmath.mpc(0.4, t))
        a = sum(mpmath.mpc(c) * mpmath.power(m, -mpmath.mpc(0.4, t)) for m, c in ((1, 1.0), (2, 0.5)))
        ref = float(abs(z * a) ** 2)
        assert mine == pytest.approx(ref, rel=1e-10)


def test_integrand_of_zero_polynomial_skips_zeta(monkeypatch):
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((0.0, 0.0, -0.0))
    t = np.linspace(250.0, 500.0, 31)
    computed = np.abs(zeta_line(cfg.sigma, t) * poly.evaluate(cfg.sigma, t)) ** 2

    def forbidden(*args):
        raise AssertionError("zeta_line called for A = 0")

    monkeypatch.setattr(meansquare, "zeta_line", forbidden)
    skipped = integrand(t, cfg, poly)
    # Same bits as |zeta * 0|^2 (+0.0 everywhere), same shape.
    assert np.array_equal(skipped.view(np.uint64), computed.view(np.uint64))


@contextlib.contextmanager
def _time_cap(seconds: float):
    """Raise ``TimeoutError`` inside the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tolerances", [{"abs_tol": math.nan}, {"rel_tol": math.inf}])
def test_non_finite_tolerance_fails_fast(tolerances):
    # abs_tol = nan was never met: refinement split one panel per pass up to
    # the panel budget and ran for minutes on [10, 20].
    with _time_cap(5.0), pytest.raises(ValidationError, match="finite"):
        integrate_mean_square(10.0, 20.0, StripConfig(0.4), DirichletPolynomial((1.0,)), **tolerances)


def _main_term_oracle(T: float, sigma: float, coeffs) -> float:
    z1 = mpmath.zeta(2 * sigma)
    z2 = mpmath.zeta(2 * sigma - 1)
    g = mpmath.gamma(2 * sigma - 1)
    secondary = mpmath.cos((sigma - 0.5) * mpmath.pi) / (1 - sigma) * g * z2 * mpmath.mpf(T) ** (2 - 2 * sigma)
    total = mpmath.mpf(0)
    M = len(coeffs)
    for k in range(1, M + 1):
        for l in range(1, M + 1):
            pd = pair_data(k, l)
            w = pd.kappa * pd.lam
            coeff = coeffs[k - 1] * mpmath.conj(mpmath.mpc(coeffs[l - 1]))
            total += (coeff / mpmath.mpf(pd.lcm) ** (2 * sigma) * (z1 * T + secondary * mpmath.mpf(w) ** (2 * sigma - 1))).real
    return float(total)


def test_main_term_against_independent_oracle():
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0, 1.0, 0.5))
    for T in (10.0, 250.0, 2000.0):
        mine = main_term(T, cfg, poly)
        ref = _main_term_oracle(T, 0.4, [1.0, 1.0, 0.5])
        assert mine == pytest.approx(ref, rel=1e-11)


def test_main_term_single_term_scaling():
    # For A(s) = m^{-s} the integrand is m^{-2 sigma} |zeta|^2 exactly, so the
    # main term must be m^{-2 sigma} times the one-term main term; only the
    # coprime weight satisfies this.
    cfg = StripConfig(0.35)
    one = main_term(500.0, cfg, DirichletPolynomial((1.0,)))
    for m in (2, 5):
        coeffs = [0.0] * m
        coeffs[m - 1] = 1.0
        scaled = main_term(500.0, cfg, DirichletPolynomial(tuple(coeffs)))
        assert scaled == pytest.approx(one * m ** (-2 * 0.35), rel=1e-12)


def test_main_term_guards():
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0,))
    with pytest.raises(ValidationError):
        main_term(0.0, cfg, poly)


def test_integral_matches_mpmath_short_range():
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0,))
    result = integrate_mean_square(0.0, 5.0, cfg, poly, abs_tol=1e-9)
    ref = float(
        mpmath.quad(lambda t: abs(mpmath.zeta(mpmath.mpc(0.4, t))) ** 2, [0, 5])
    )
    assert result.value == pytest.approx(ref, abs=5e-9)
    for t_lo, t_hi in ((-1.0, 5.0), (5.0, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValidationError, match="0 <= t_lo <= t_hi < inf"):
            integrate_mean_square(t_lo, t_hi, cfg, poly)


def test_integral_above_the_riemann_siegel_switch_runs(monkeypatch):
    # [4000, 8000] needed about 2.9e9 Euler-Maclaurin terms and was refused;
    # with Riemann-Siegel above special.RS_MIN_HEIGHT it needs about 1.3e7.
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0,))
    result = integrate_mean_square(4000.0, 8000.0, cfg, poly)
    assert result.error_estimate <= 1e-8 * result.value
    # The main term M(8000) - M(4000) = 70 205.2 leaves E(8000) - E(4000) = 5.3.
    assert abs(result.value - (main_term(8000.0, cfg, poly) - main_term(4000.0, cfg, poly))) < 10.0
    # On a short window the Euler-Maclaurin kernel is an independent oracle.
    short = integrate_mean_square(4000.0, 4010.0, cfg, poly).value
    monkeypatch.setattr(special, "RS_MIN_HEIGHT", math.inf)
    assert short == pytest.approx(integrate_mean_square(4000.0, 4010.0, cfg, poly).value, rel=1e-11)


def test_integral_just_above_the_switch_matches_euler_maclaurin(monkeypatch):
    # Criterion 6's [500, 1000] window starts at the switch; on its first 60
    # the Euler-Maclaurin kernel is the oracle, with the same panels.
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0, 1.0))
    window = (special.RS_MIN_HEIGHT, special.RS_MIN_HEIGHT + 60.0)
    rs = integrate_mean_square(*window, cfg, poly)
    monkeypatch.setattr(special, "RS_MIN_HEIGHT", math.inf)
    em = integrate_mean_square(*window, cfg, poly)
    assert rs.value == pytest.approx(em.value, rel=1e-12)
    assert (rs.panels, rs.evaluations) == (em.panels, em.evaluations)


def test_non_convergence_names_the_mean_square_stage(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    with pytest.raises(QuadratureNonConvergence) as info:
        integrate_mean_square(100.0, 100.5, StripConfig(0.4), DirichletPolynomial((1.0,)), abs_tol=1e-300, rel_tol=0.0)
    assert re.fullmatch(r"mean-square integral: panel budget 2 exhausted .* on \[100\.0, 100\.5\]", str(info.value))
    assert info.value.value > 0.0 and info.value.error_estimate > 0.0
    returned = pickle.loads(pickle.dumps(info.value))
    assert (str(returned), vars(returned)) == (str(info.value), vars(info.value))


def test_integral_rejects_zeta_work_above_the_limit_before_any_zeta_call(monkeypatch):
    # 1.04e5 initial evaluations at 25 230 Riemann-Siegel terms each.
    def no_zeta(*args):
        raise AssertionError("zeta evaluated before the work check")

    monkeypatch.setattr(meansquare, "zeta_line", no_zeta)
    cfg = StripConfig(0.4)
    with pytest.raises(ValidationError, match=r"\[1000000000\.0, 1000001000\.0\] needs about 2\.61e\+09 zeta terms"):
        integrate_mean_square(1e9, 1e9 + 1e3, cfg, DirichletPolynomial((1.0,)))
    with pytest.raises(ValidationError, match="MAX_ZETA_TERMS = 1073741824"):
        integrate_mean_square(2e9, 2e9 + 1e3, cfg, DirichletPolynomial((1.0, 0.5)))
    # Past the float range the estimate is inf, not an OverflowError.
    with pytest.raises(ValidationError, match=r"\[0\.0, 1\.7e\+308\] needs about inf zeta terms"):
        integrate_mean_square(0.0, 1.7e308, cfg, DirichletPolynomial((1.0,)))
    # An empty interval, at any height, and A = 0 call no zeta, so they are
    # not bounded by zeta work.
    assert integrate_mean_square(1.7e308, 1.7e308, cfg, DirichletPolynomial((1.0,))).value == 0.0
    assert integrate_mean_square(1e9, 1e9 + 1e3, cfg, DirichletPolynomial((0.0,))).value == 0.0

