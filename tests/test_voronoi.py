"""Twisted-divisor decomposition: partial sums, main terms, constant fit and
the three evaluations of the oscillating remainder.

High-precision oracles use mpmath at 200 bits; regression pins are values
frozen from audited runs (they guard against silent drift, the oracle tests
guard against being wrong in the first place).
"""

from __future__ import annotations

import math
import random

import mpmath
import numpy as np
import pytest

from zetastrip.errors import CalibrationError, ValidationError
from zetastrip.voronoi import (
    TruncationPlan,
    TwistedSumSpec,
    calibrate,
    delta_asymptotic,
    delta_bessel,
    delta_direct,
    delta_mean_square,
    exponent_from_sigma,
    sigma_from_exponent,
    term_envelope,
    truncation_plan,
    twisted_sum,
)
from zetastrip.voronoi import _main_values  # the main terms every Delta path subtracts

mpmath.mp.prec = 200


def _fresh_spec(a=-0.2, h=1, k=3) -> TwistedSumSpec:
    return TwistedSumSpec(a, h, k)


# ---------------------------------------------------------------------------
# Spec and adapters
# ---------------------------------------------------------------------------


def test_spec_validation():
    spec = _fresh_spec()
    assert spec.a == -0.2 and spec.h == 1 and spec.k_mod == 3
    assert TwistedSumSpec(0.0, 0, 1).a == 0.0  # plain divisor sums admitted
    with pytest.raises(ValidationError):
        TwistedSumSpec(-0.2, 2, 4)  # gcd(h, k) != 1
    with pytest.raises(ValidationError):
        TwistedSumSpec(-0.2, 3, 3)  # h out of range
    with pytest.raises(ValidationError):
        TwistedSumSpec(-0.6, 1, 3)  # a out of range
    with pytest.raises(ValidationError):
        TwistedSumSpec(0.1, 1, 3)
    with pytest.raises(ValidationError):
        TwistedSumSpec(-0.2, 1, 0)


def test_exponent_adapters_round_trip():
    for sigma in (0.26, 0.4, 0.49):
        a = exponent_from_sigma(sigma)
        assert a == pytest.approx(2.0 * sigma - 1.0)
        assert sigma_from_exponent(a) == pytest.approx(sigma)
    with pytest.raises(ValidationError):
        exponent_from_sigma(0.5)
    with pytest.raises(ValidationError):
        sigma_from_exponent(-0.6)


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------


def _twisted_sum_oracle(a: float, h: int, k: int, x: float) -> complex:
    total = mpmath.mpc(0)
    n = 1
    while n <= x:
        sig = mpmath.mpf(0)
        for d in range(1, n + 1):
            if n % d == 0:
                sig += mpmath.mpf(d) ** a
        weight = mpmath.mpf(0.5) if n == x else mpmath.mpf(1)
        total += weight * sig * mpmath.e ** (2j * mpmath.pi * h * n / k)
        n += 1
    return complex(total)


def test_twisted_sum_against_oracle():
    spec = _fresh_spec()
    for x in (1.0, 2.5, 10.0, 47.0, 203.7):
        mine = twisted_sum(spec, x)
        ref = _twisted_sum_oracle(-0.2, 1, 3, x)
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)), f"x={x}"
    # Frozen regression value (200-bit oracle, half-weight at the integer).
    pinned = complex(0.72066809503044939611, 0.03089157368653181691)
    assert abs(twisted_sum(spec, 10.0) - pinned) < 1e-13
    with pytest.raises(ValidationError):
        twisted_sum(spec, 0.5)


def test_twisted_sum_plain_divisor_case():
    spec = TwistedSumSpec(0.0, 0, 1)
    # sigma_0 of 1..5 = 1,2,2,3,2; half-weight on the last.
    assert twisted_sum(spec, 5.0) == pytest.approx(1 + 2 + 2 + 3 + 1, rel=1e-14)


# ---------------------------------------------------------------------------
# Main terms and calibration
# ---------------------------------------------------------------------------


def test_voronoi_main_against_zeta_oracle():
    spec = _fresh_spec()
    a, k, x = -0.2, 3, 100.0
    lin_ref = mpmath.mpf(k) ** (a - 1) * mpmath.zeta(1 - a) * x
    pow_ref = mpmath.mpf(k) ** (1 - a) * mpmath.zeta(1 + a) / (1 + a) * mpmath.mpf(x) ** (1 + a)
    main = _main_values(spec, np.array([x]), None)[0]
    assert main == pytest.approx(float(lin_ref + pow_ref), rel=1e-12)
    # Residue-derived modulus exponent flips k^(1-a) to k^(-1-a).
    pow_res = mpmath.mpf(k) ** (-1 - a) * mpmath.zeta(1 + a) / (1 + a) * mpmath.mpf(x) ** (1 + a)
    main_res = _main_values(spec, np.array([x]), -1 - a)[0]
    assert main_res == pytest.approx(float(lin_ref + pow_res), rel=1e-12)
    # Frozen regression values (linear + power terms).
    assert main == pytest.approx(149.61985405140373 - 825.2730145961475, rel=1e-13)
    assert main_res == pytest.approx(149.61985405140373 - 91.69700162179416, rel=1e-13)
    with pytest.raises(ValidationError):
        _main_values(TwistedSumSpec(0.0, 0, 1), np.array([10.0]), None)  # zeta(1+a) pole at a=0


def test_calibrate_accepts_residue_exponent_and_pins():
    spec = _fresh_spec()
    cal = calibrate(spec, power_modulus_exponent=-0.8)
    assert cal.c0.real == pytest.approx(0.25257798320141694, abs=1e-12)
    assert cal.c0.imag == pytest.approx(0.005753642286604849, abs=1e-12)
    assert cal.std_error == pytest.approx(0.2080721528729696, rel=1e-10)
    assert cal.oscillation_rms == pytest.approx(3.0504924922085883, rel=1e-10)
    assert cal.drift_ratio < 0.1
    assert cal.power_exponent == -0.8
    # Same parameters: stored result returned (identical object).
    again = calibrate(spec, power_modulus_exponent=-0.8)
    assert again is cal
    assert spec.calibration is cal
    # Different parameters after storage: refused.
    with pytest.raises(ValidationError):
        calibrate(spec, power_modulus_exponent=-0.8, x_lo=80.0)


def test_calibrate_rejects_printed_exponent_for_k_ge_2():
    spec = _fresh_spec()
    with pytest.raises(CalibrationError) as info:
        calibrate(spec)  # default exponent 1 - a drifts for k >= 2
    message = str(info.value)
    assert "residue-derived" in message and "-0.8" in message


def test_calibrate_printed_exponent_harmless_at_k_1():
    # At k = 1 the two candidate exponents give the same factor 1^E: the
    # printed form calibrates cleanly, isolating the drift to the modulus.
    spec = TwistedSumSpec(-0.2, 0, 1)
    cal = calibrate(spec)
    assert cal.drift_ratio < 0.1


def test_calibrate_rejects_a_zero():
    with pytest.raises(ValidationError):
        calibrate(TwistedSumSpec(0.0, 0, 1))


# ---------------------------------------------------------------------------
# Truncation plans and envelopes
# ---------------------------------------------------------------------------


def test_truncation_plan_pins_and_monotonicity():
    spec = _fresh_spec()
    plan = truncation_plan(spec, (40.0, 400.0), 2000)
    assert plan.n_terms == 2000
    assert plan.x_range == (40.0, 400.0)
    assert plan.tail_estimate == pytest.approx(7.439739075463656, rel=1e-12)
    # The estimate is driven by the envelope of the first omitted term, so it
    # inherits the divisor function's fluctuations in n_terms; in the range
    # endpoint it is exactly monotone.
    narrower = truncation_plan(spec, (40.0, 100.0), 2000)
    assert narrower.tail_estimate < plan.tail_estimate
    with pytest.raises(ValidationError):
        TruncationPlan(n_terms=-1, tail_estimate=1.0, x_range=(40.0, 400.0))
    with pytest.raises(ValidationError):
        TruncationPlan(n_terms=10, tail_estimate=0.0, x_range=(40.0, 400.0))
    with pytest.raises(ValidationError):
        TruncationPlan(n_terms=10, tail_estimate=1.0, x_range=(400.0, 40.0))


def test_term_envelope_positive_and_decaying():
    spec = _fresh_spec()
    values = term_envelope(spec, 100.0, np.arange(1, 2001))
    assert np.all(values > 0.0)
    # Pointwise values ride sigma_a(n); block means decay like n^(-(3+2a)/4)
    # times the slowly saturating divisor mean.
    assert np.mean(values[-200:]) < 0.2 * np.mean(values[:200])


# ---------------------------------------------------------------------------
# The three remainder evaluations
# ---------------------------------------------------------------------------


def test_delta_direct_and_bessel_pins():
    spec = _fresh_spec()
    calibrate(spec, power_modulus_exponent=-0.8)
    plan = truncation_plan(spec, (40.0, 400.0), 2000)
    dd = delta_direct(spec, 50.5)
    db = delta_bessel(spec, 50.5, plan)
    assert dd == pytest.approx(complex(-0.19516672524165662, -1.7701797311795424), abs=1e-12)
    assert db == pytest.approx(complex(-0.0861925834390897, -1.6641905691660974), abs=1e-12)


def test_delta_equivalence_random_points():
    spec = _fresh_spec()
    cal = calibrate(spec, power_modulus_exponent=-0.8)
    plan = truncation_plan(spec, (40.0, 400.0), 2000)
    tolerance = max(1e-3, 3.0 * plan.tail_estimate + cal.std_error)
    rng = random.Random(905)
    for _ in range(10):
        x = rng.uniform(40.0, 400.0)
        diff = abs(delta_direct(spec, x) - delta_bessel(spec, x, plan))
        assert diff <= tolerance, f"x={x} diff={diff}"


def test_delta_direct_auto_calibration_raises_on_drift():
    # Without a stored calibration the defaults (printed exponent) drift at
    # k = 3, so the definitional evaluation refuses too.
    spec = _fresh_spec()
    with pytest.raises(CalibrationError):
        delta_direct(spec, 50.0)


def test_delta_bessel_empty_plan_is_zero():
    spec = _fresh_spec()
    plan = truncation_plan(spec, (40.0, 400.0), 0)
    assert delta_bessel(spec, 50.5, plan) == 0j
    assert plan.tail_estimate > 0.0


def test_delta_asymptotic_matches_bessel_in_regime():
    spec = _fresh_spec()
    plan = truncation_plan(spec, (200.0, 400.0), 1500)
    da = delta_asymptotic(spec, 300.0, plan)
    db = delta_bessel(spec, 300.0, plan)
    assert abs(da - db) < 1e-4
    assert da == pytest.approx(complex(1.5113684203370614, -0.9554493453763266), abs=1e-12)


def test_delta_asymptotic_rejects_small_phase():
    spec = _fresh_spec()
    plan = truncation_plan(spec, (1.0, 4.0), 100)
    with pytest.raises(ValidationError):
        delta_asymptotic(spec, 1.0, plan)  # 4 pi sqrt(x)/k below the floor


def test_twist_direction_changes_series_for_large_moduli():
    spec = TwistedSumSpec(-0.2, 2, 5)
    # The default x_lo = 40 window is marginal for k = 5 (block scatter a
    # shade over the 10% gate from fit noise alone); a wider window settles
    # well inside it, while the wrong modulus exponent stays ~20x outside.
    calibrate(spec, power_modulus_exponent=-0.8, x_lo=80.0)
    plan = truncation_plan(spec, (40.0, 100.0), 1000)
    direct = delta_bessel(spec, 60.5, plan)
    inverse = delta_bessel(spec, 60.5, plan, twist="inverse")
    # inverse of 2 mod 5 is 3, so the two series genuinely differ.
    assert abs(direct - inverse) > 1e-3
    with pytest.raises(ValidationError):
        delta_bessel(spec, 60.5, plan, twist="sideways")


def test_delta_mean_square_pin_and_guard():
    spec = _fresh_spec()
    calibrate(spec, power_modulus_exponent=-0.8)
    value = delta_mean_square(spec, 64.0)
    assert value == pytest.approx(231.68259320622565, rel=1e-10)
    with pytest.raises(ValidationError):
        delta_mean_square(spec, 2.0)
