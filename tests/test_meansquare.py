"""Mean-square integrand, adaptive integral and analytic main term."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from zetastrip.arithmetic import DirichletPolynomial, pair_data
from zetastrip.errors import ValidationError
from zetastrip.meansquare import (
    StripConfig,
    integrand,
    integrate_mean_square,
    main_term,
)

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
    for t in (0.7, 12.0, 85.3):
        mine = integrand(t, cfg, poly)
        z = mpmath.zeta(mpmath.mpc(0.4, t))
        a = sum(mpmath.mpc(c) * mpmath.power(m, -mpmath.mpc(0.4, t)) for m, c in ((1, 1.0), (2, 0.5)))
        ref = float(abs(z * a) ** 2)
        assert mine == pytest.approx(ref, rel=1e-10)
    vec = integrand(np.array([0.7, 12.0]), cfg, poly)
    assert vec.shape == (2,)


def _main_term_oracle(T: float, sigma: float, coeffs, weight: str) -> float:
    z1 = mpmath.zeta(2 * sigma)
    z2 = mpmath.zeta(2 * sigma - 1)
    g = mpmath.gamma(2 * sigma - 1)
    secondary = mpmath.cos((sigma - 0.5) * mpmath.pi) / (1 - sigma) * g * z2 * mpmath.mpf(T) ** (2 - 2 * sigma)
    total = mpmath.mpf(0)
    M = len(coeffs)
    for k in range(1, M + 1):
        for l in range(1, M + 1):
            pd = pair_data(k, l)
            w = pd.kappa * pd.lam if weight == "coprime" else pd.lcm
            coeff = coeffs[k - 1] * mpmath.conj(mpmath.mpc(coeffs[l - 1]))
            total += (coeff / mpmath.mpf(pd.lcm) ** (2 * sigma) * (z1 * T + secondary * mpmath.mpf(w) ** (2 * sigma - 1))).real
    return float(total)


@pytest.mark.parametrize("weight", ["coprime", "lcm"])
def test_main_term_against_independent_oracle(weight):
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0, 1.0, 0.5))
    for T in (10.0, 250.0, 2000.0):
        mine = main_term(T, cfg, poly, secondary_weight=weight)
        ref = _main_term_oracle(T, 0.4, [1.0, 1.0, 0.5], weight)
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
    with pytest.raises(ValidationError):
        main_term(10.0, cfg, poly, secondary_weight="mystery")


def test_integral_matches_mpmath_short_range():
    cfg = StripConfig(0.4)
    poly = DirichletPolynomial((1.0,))
    result = integrate_mean_square(0.0, 5.0, cfg, poly, abs_tol=1e-9)
    ref = float(
        mpmath.quad(lambda t: abs(mpmath.zeta(mpmath.mpc(0.4, t))) ** 2, [0, 5])
    )
    assert result.value == pytest.approx(ref, abs=5e-9)
    with pytest.raises(ValidationError):
        integrate_mean_square(-1.0, 5.0, cfg, poly)
    with pytest.raises(ValidationError):
        integrate_mean_square(5.0, 1.0, cfg, poly)

