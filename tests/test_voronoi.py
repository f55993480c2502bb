"""Twisted-divisor decomposition: partial sums, main terms, constant fit and
the three evaluations of the oscillating remainder.

High-precision oracles use mpmath at 200 bits; regression pins are values
frozen from audited runs (they guard against silent drift, the oracle tests
guard against being wrong in the first place).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
import time
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from zetastrip import arithmetic, quadrature, voronoi
from zetastrip.arithmetic import divisor_sigma_range, unit_phase
from zetastrip.errors import CalibrationError, QuadratureNonConvergence, ValidationError
from zetastrip.special import zeta
from zetastrip.voronoi import (
    TruncationPlan,
    TwistedSumSpec,
    calibrate,
    calibration_x_lo,
    delta_asymptotic,
    delta_bessel,
    delta_direct,
    delta_mean_square,
    exponent_from_sigma,
    _term_envelope,
    truncation_plan,
    X_MAX,
)
from zetastrip.voronoi import _main_values, _smooth_coefficients  # the main terms every Delta path subtracts
from zetastrip.voronoi import _raw_sum  # the raw sum every D(x) path forms
from voronoi_twists import ESTERMANN_SPECS as _ESTERMANN_SPECS, twist_residuals
from voronoi_twists import delta_bessel_oracle as _delta_bessel_oracle, phases_oracle as _phases_oracle

mpmath.mp.prec = 200


@pytest.fixture(autouse=True)
def _cold_fits():
    """Each test starts with no memoised fit, so cold work is counted as cold."""
    voronoi._fit.cache_clear()


def _fresh_spec(a=-0.2, h=1, k=3) -> TwistedSumSpec:
    return TwistedSumSpec(a, h, k)


def _twisted_values(spec: TwistedSumSpec, xs: np.ndarray) -> np.ndarray:
    """``D(x)`` at every ``x`` of ``xs``, from one raw-sum pass up to the largest."""
    return _raw_sum(spec, float(np.max(xs)))(xs)


def twisted_sum(spec: TwistedSumSpec, x: float) -> complex:
    return complex(_twisted_values(spec, np.array([x]))[0])


# ---------------------------------------------------------------------------
# Spec and adapters
# ---------------------------------------------------------------------------


def test_spec_validation():
    spec = _fresh_spec()
    assert spec.a == -0.2 and spec.h == 1 and spec.k_mod == 3
    assert TwistedSumSpec(0.0, 0, 1).a == 0.0  # plain divisor sums admitted
    with pytest.raises(ValidationError):
        TwistedSumSpec(-0.2, 2, 4)  # gcd(h, k) != 1
    with pytest.raises(ValidationError, match="h=0 and k_mod=3 must be coprime"):
        TwistedSumSpec(-0.2, 0, 3)  # the untwisted sum is that of k = 1
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
    with pytest.raises(ValidationError):
        exponent_from_sigma(0.5)


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
    main = _main_values(a, *_smooth_coefficients(spec, 1.0 - a), np.array([x]))[0]
    assert main == pytest.approx(float(lin_ref + pow_ref), rel=1e-12)
    # Residue-derived modulus exponent flips k^(1-a) to k^(-1-a).
    pow_res = mpmath.mpf(k) ** (-1 - a) * mpmath.zeta(1 + a) / (1 + a) * mpmath.mpf(x) ** (1 + a)
    main_res = _main_values(a, *_smooth_coefficients(spec, -1 - a), np.array([x]))[0]
    assert main_res == pytest.approx(float(lin_ref + pow_res), rel=1e-12)
    # Frozen regression values (linear + power terms).
    assert main == pytest.approx(149.61985405140373 - 825.2730145961475, rel=1e-13)
    assert main_res == pytest.approx(149.61985405140373 - 91.69700162179416, rel=1e-13)
    with pytest.raises(ValidationError, match=r"a < 0"):
        delta_direct(TwistedSumSpec(0.0, 0, 1), 10.0)  # zeta(1+a) pole at a=0


def test_calibrate_accepts_residue_exponent_and_pins():
    spec = _fresh_spec()
    cal = calibrate(spec, power_modulus_exponent=-0.8)
    assert cal.c0.real == pytest.approx(0.25257798320141694, abs=1e-12)
    assert cal.c0.imag == pytest.approx(0.005753642286604849, abs=1e-12)
    assert cal.std_error == pytest.approx(0.2080721528729696, rel=1e-10)
    assert cal.oscillation_rms == pytest.approx(3.0504924922085883, rel=1e-10)
    assert cal.drift_ratio < 0.1
    assert cal.power_exponent == -0.8
    # Same parameters: the memoised fit returned (identical object, no refit).
    assert calibrate(spec, power_modulus_exponent=-0.8) is cal
    # Other parameters: their own fit, and the first one is unchanged.
    before = dataclasses.astuple(cal)
    wider = calibrate(spec, power_modulus_exponent=-0.8, x_lo=80.0)
    assert wider.c0 != cal.c0 and wider.std_error != cal.std_error
    assert dataclasses.astuple(cal) == before
    assert calibrate(spec, power_modulus_exponent=-0.8) is cal


def _estermann_at_zero(a: float, h: int, k: int) -> complex:
    """``E(0; h/k)`` of Estermann's ``E(s; h/k) = sum sigma_a(n) e(hn/k) n^-s``
    from ``E(s) = k^(a - 2s) sum_{alpha, beta <= k} e(h alpha beta/k)
    zeta(s - a, alpha/k) zeta(s, beta/k)`` with mpmath's Hurwitz zeta and
    ``zeta(0, x) = 1/2 - x``: the constant C0 of the decomposition of D(x)."""
    total = mpmath.mpc(0)
    for alpha in range(1, k + 1):
        hurwitz = mpmath.zeta(-a, mpmath.mpf(alpha) / k)
        for beta in range(1, k + 1):
            total += mpmath.expjpi(mpmath.mpf(2 * h * alpha * beta) / k) * hurwitz * (0.5 - mpmath.mpf(beta) / k)
    return complex(mpmath.mpf(k) ** a * total)


@pytest.mark.parametrize(("a", "h", "k"), _ESTERMANN_SPECS)
def test_calibrated_constant_lies_within_three_standard_errors_of_estermann(a, h, k):
    # k >= 5 passes the drift gate since the default window grows with k.
    cal = calibrate(_fresh_spec(a, h, k))
    assert cal is calibrate(_fresh_spec(a, h, k), x_lo=calibration_x_lo(k), samples=640)
    assert abs(cal.c0 - _estermann_at_zero(a, h, k)) <= 3.0 * cal.std_error


@pytest.mark.parametrize(("a", "h", "k"), _ESTERMANN_SPECS)
def test_printed_exponent_drifts_at_every_k_ge_2(a, h, k, monkeypatch):
    # The evidence for the residue exponent -1 - a: with the printed k^(1 - a)
    # on the power term, the drift test rejects the fit at every k >= 2
    # (drift ratio 2.52-2.98, limit 0.1), and at k = 1, where 1^E = 1, the
    # fit is the residue fit.
    residue = calibrate(_fresh_spec(a, h, k)) if k == 1 else None
    smooth = voronoi._smooth_coefficients
    monkeypatch.setattr(voronoi, "_smooth_coefficients", lambda spec, exponent: smooth(spec, 1.0 - spec.a))
    voronoi._fit.cache_clear()
    try:
        if k == 1:
            assert calibrate(_fresh_spec(a, h, k)) == residue
        else:
            with pytest.raises(CalibrationError, match=r"standard error is 2\.\d+ of the oscillation RMS \(limit 0\.1\)"):
                calibrate(_fresh_spec(a, h, k))
    finally:
        voronoi._fit.cache_clear()  # no fit of the printed exponent outlives the test


def test_calibrate_defaults_to_the_residue_exponent():
    spec = _fresh_spec()
    assert calibrate(spec) is calibrate(spec, power_modulus_exponent=-0.8)
    assert calibrate(spec).power_exponent == -0.8


def test_calibrate_rejects_a_zero():
    with pytest.raises(ValidationError):
        calibrate(TwistedSumSpec(0.0, 0, 1))


@pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
def test_calibrate_rejects_non_finite_exponent(exponent, no_new_arrays):
    # A NaN drift ratio used to pass the drift gate and store a NaN fit.
    spec = _fresh_spec()
    with pytest.raises(ValidationError, match="power_modulus_exponent"):
        calibrate(spec, power_modulus_exponent=exponent)


@pytest.mark.parametrize(
    ("k", "exponent"),
    [(3, 1000.0), (3, 1.2), (1, 1.2), (3, -0.7), (100000, 40.0)],
    ids=["overflowing", "printed", "printed-at-k-1", "another-a", "overflowing-squares"],
)
def test_calibrate_refuses_every_exponent_but_the_residue_value(k, exponent, no_new_arrays):
    # E = 1000 used to overflow k^E, and E = 40 at k = 1e5 the squares the fit
    # sums; the printed 1 - a = 1.2 used to fit at k = 1 and drift at k >= 2.
    spec = TwistedSumSpec(-0.2, 1 % k, k)
    message = f"residue value -1 - a = -0.8 as its power_modulus_exponent; omit it or pass that value, got {exponent!r}"
    with pytest.raises(ValidationError, match=f"^calibration uses the {re.escape(message)}$"):
        calibrate(spec, power_modulus_exponent=exponent, x_lo=40.0)


def test_calibrate_rejects_samples_off_the_block_grid():
    # 641 samples used to end in a reshape ValueError from the 8 drift blocks.
    spec = _fresh_spec()
    with pytest.raises(ValidationError, match="multiple of its 8 drift blocks"):
        calibrate(spec, samples=641)


def test_calibrate_bounds_its_samples_before_any_array(monkeypatch):
    def raw_sum(*args):
        raise AssertionError("the raw sum was formed")

    monkeypatch.setattr(voronoi, "_raw_sum", raw_sum)
    with pytest.raises(ValidationError, match="calibration needs 256 to 65536 samples, .* got 65544"):
        calibrate(_fresh_spec(), samples=2**16 + 8)


@pytest.mark.parametrize("samples", [64, 128, 248])
def test_calibrate_refuses_too_few_samples_for_its_drift_test(samples, no_new_arrays):
    # At 64 samples the drift test rejected correct fits (drift ratio 0.194
    # for a = -0.2, k = 1, x_lo = 40, where 640 samples fit).
    with pytest.raises(ValidationError, match=f"calibration needs 256 to 65536 samples, .* got {samples}$"):
        calibrate(_fresh_spec(), samples=samples)


@pytest.mark.parametrize("x", [2.0 * X_MAX, 1e306])
def test_twisted_sum_paths_reject_x_beyond_the_sieve_bound(x):
    # 1e306 used to overflow floor(x) to the int64 limit and end in an IndexError.
    for bad in (x, math.inf, math.nan):
        with pytest.raises(ValidationError, match="formed only up to"):
            _twisted_values(_fresh_spec(), np.array([40.0, bad]))
    with pytest.raises(ValidationError, match=r"formed only up to x = 1\.04858e\+06, got x = "):
        calibrate(_fresh_spec(), x_lo=x)
    spec = _fresh_spec()
    calibrate(spec, power_modulus_exponent=-0.8)
    for call in (delta_direct, delta_mean_square):
        with pytest.raises(ValidationError, match="formed only up to"):
            call(spec, x)
    # The series paths used to return nan+nanj at 1e306 (noise of 1e30 at 1e200),
    # and the plan to overflow into a misleading tail_estimate rejection.
    plan = truncation_plan(spec, (40.0, 400.0), 300)
    for call in (delta_bessel, delta_asymptotic):
        with pytest.raises(ValidationError, match="formed only up to"):
            call(spec, x, plan)
    with pytest.raises(ValidationError, match="formed only up to"):
        truncation_plan(spec, (40.0, x), 300)


@pytest.mark.parametrize("n_terms", [3_000_000, 100_000_000])
def test_series_length_is_bounded_by_the_sieve(n_terms):
    # 3e6 terms took 7 s in the divisor sieve; 1e8 had no bound at all.
    spec = _fresh_spec()
    with pytest.raises(ValidationError, match=r"n_terms <= 1048576, got "):
        truncation_plan(spec, (40.0, 400.0), n_terms)
    with pytest.raises(ValidationError, match=r"n_terms <= 1048576, got "):
        TruncationPlan(n_terms=n_terms, tail_estimate=1.0)


# ---------------------------------------------------------------------------
# Truncation plans and envelopes
# ---------------------------------------------------------------------------


def test_truncation_plan_pins_and_monotonicity():
    spec = _fresh_spec()
    plan = truncation_plan(spec, (40.0, 400.0), 2000)
    assert plan.n_terms == 2000
    assert plan.tail_estimate == pytest.approx(7.439739075463656, rel=1e-12)
    # The estimate is driven by the envelope of the first omitted term, so it
    # inherits the divisor function's fluctuations in n_terms; in the range
    # endpoint it is exactly monotone.
    narrower = truncation_plan(spec, (40.0, 100.0), 2000)
    assert narrower.tail_estimate < plan.tail_estimate
    with pytest.raises(ValidationError, match="n_terms must satisfy 0 <= n_terms <= 1048576, got -1"):
        truncation_plan(spec, (40.0, 400.0), -1)
    with pytest.raises(ValidationError):
        TruncationPlan(n_terms=-1, tail_estimate=1.0)
    with pytest.raises(ValidationError):
        TruncationPlan(n_terms=10, tail_estimate=0.0)
    with pytest.raises(ValidationError, match="x_range must satisfy 1 <= lo <= hi"):
        truncation_plan(spec, (400.0, 40.0), 10)


def test_term_envelope_positive_and_decaying():
    spec = _fresh_spec()
    values = _term_envelope(spec, 100.0, np.arange(1, 2001))
    assert np.all(values > 0.0)
    # Pointwise values ride sigma_a(n); block means decay like n^(-(3+2a)/4)
    # times the slowly saturating divisor mean.
    assert np.mean(values[-200:]) < 0.2 * np.mean(values[:200])


@pytest.mark.parametrize(
    ("call", "fragment"),
    [
        (lambda spec: delta_direct(spec, np.array([])), "delta_direct requires at least one x, got array([]"),
    ],
    ids=["delta_direct-empty-x"],
)
def test_voronoi_entry_points_refuse_a_bad_n_or_an_empty_x(call, fragment):
    # An empty x used to end in numpy's zero-size reduction ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(fragment)):
            call(_fresh_spec())


@pytest.mark.parametrize("k_mod", [0, -3, int(X_MAX) + 1])
def test_calibration_x_lo_refuses_a_modulus_no_spec_admits(k_mod):
    # k = 0 used to give 40.0, and a k beyond X_MAX the window of X_MAX.
    with pytest.raises(ValidationError, match=re.escape(f"k_mod must satisfy 1 <= k_mod <= 1048576, got {k_mod}")):
        calibration_x_lo(k_mod)


def test_delta_direct_refuses_an_x_of_two_dimensions():
    # It used to flatten [[100, 200]] into two values.
    with pytest.raises(ValidationError, match=re.escape("a float or a 1-d array of x, got shape (1, 2)")):
        delta_direct(_fresh_spec(), [[100.0, 200.0]])


def test_remainders_refuse_the_calibration_of_another_spec():
    # delta_direct used to return -42.9+0.30i here, against 0.69+0.27i from
    # the spec's own fit.
    spec, other = TwistedSumSpec(-0.3, 1, 3), TwistedSumSpec(-0.2, 1, 3)
    cal = calibrate(other)
    assert cal.spec == other
    named = re.escape(f"of {spec} was given a calibration fitted for {other}")
    with pytest.raises(ValidationError, match=f"^delta_direct {named}$"):
        delta_direct(spec, 100.0, cal)
    with pytest.raises(ValidationError, match=f"^delta_mean_square {named}$"):
        delta_mean_square(spec, 64.0, cal)
    assert delta_direct(spec, 100.0, calibrate(TwistedSumSpec(-0.3, 1, 3))) == delta_direct(spec, 100.0)


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
    # A fit on another window leaves the default remainder of this spec, and
    # of every equal spec, bit for bit as it was.
    calibrate(spec, power_modulus_exponent=-0.8, x_lo=80.0)
    xs = np.array([50.5, 100.0, 333.3])
    assert delta_direct(spec, 50.5) == dd
    assert delta_direct(spec, xs).tobytes() == delta_direct(_fresh_spec(), xs).tobytes()


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


def test_delta_direct_auto_calibration_raises_on_drift(monkeypatch):
    # Without a fit, a window of [40, 160] is marginal for k = 5 (block
    # scatter a shade over the 10% gate), so the definitional evaluation
    # refuses too, even after a fit on the default window of the rule.
    spec = TwistedSumSpec(-0.2, 2, 5)
    delta_direct(spec, 50.0)
    monkeypatch.setattr(voronoi, "calibration_x_lo", lambda k_mod: 40.0)
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


@pytest.mark.parametrize(("a", "h", "k"), _ESTERMANN_SPECS)
def test_h_bar_is_the_inverse_of_h(a, h, k):
    spec = TwistedSumSpec(a, h, k)
    assert 0 <= spec.h_bar < k and spec.h_bar * h % k == 1 % k


_TWISTS_DIFFER = [(a, h, k) for a, h, k in _ESTERMANN_SPECS if TwistedSumSpec(a, h, k).h_bar != h]


@pytest.mark.parametrize(("a", "h", "k"), _TWISTS_DIFFER)
def test_the_inverse_twist_fits_the_remainder_where_the_twists_differ(a, h, k):
    # The evidence for twisting by h_bar alone: on [40, 400] the series twisted
    # by h is farther from the remainder than zero is, and 4.25-6.37 times
    # farther than the one twisted by h_bar (tests/voronoi_twists.py).
    deleted, kept, zero = twist_residuals(TwistedSumSpec(a, h, k), (40.0, 400.0))
    assert kept < deleted / 3.0
    assert deleted > zero


def test_delta_mean_square_pin_and_guard(monkeypatch):
    spec = _fresh_spec()
    cal = calibrate(spec, power_modulus_exponent=-0.8)
    value = delta_mean_square(spec, 64.0)
    direct = delta_direct(spec, 50.5)
    assert value == pytest.approx(231.68259320622565, rel=1e-10)
    with pytest.raises(ValidationError):
        delta_mean_square(spec, 2.0)

    # Given its fit, neither remainder path forms zeta again.
    def no_zeta(s):
        raise AssertionError(f"zeta({s}) called")

    monkeypatch.setattr(voronoi, "zeta", no_zeta)
    voronoi._fit.cache_clear()
    assert delta_mean_square(spec, 64.0, cal) == value
    assert delta_direct(spec, 50.5, cal) == direct
    with pytest.raises(AssertionError, match="zeta"):
        delta_direct(spec, 50.5)  # without it, the fit is formed again


def test_delta_mean_square_keeps_the_bits_of_the_integer_breakpoints():
    # Values of the former integration, whose panels were seeded at the integers.
    spec = _fresh_spec()
    calibrate(spec, power_modulus_exponent=-0.8)
    pinned = {
        64.0: "0x1.cf5d7cdb526c0p+7",
        128.0: "0x1.34c5ed4e06fe8p+9",
        256.0: "0x1.98630830de364p+10",
        512.0: "0x1.0de8a6a6fbcdbp+12",
    }
    assert {u: delta_mean_square(spec, u).hex() for u in pinned} == pinned


def test_delta_mean_square_panels_are_bounded_by_the_budget(monkeypatch):
    # u = 1e5 needs 50 000 unit panels; they used to start unchecked.  With a
    # cold sieve the refusal comes before D(x) forms the divisor sieve up to
    # u (about 0.3 s), so only the calibration's 160 entries exist: about
    # 0.03 s, bounded loosely here for a shared host.
    monkeypatch.setattr(arithmetic, "_sigma_sieves", {})
    spec = _fresh_spec()
    calibrate(spec, power_modulus_exponent=-0.8)

    def no_integrand(*args):
        raise AssertionError("the integrand ran")

    monkeypatch.setattr(voronoi, "_delta", no_integrand)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"^Voronoi mean square: initial_width policy reached the panel budget 40000 on \[50000\.0, 100000\.0\]$"):
        delta_mean_square(spec, 1e5)
    assert time.perf_counter() - start < 0.25
    assert {a: sieve.size for a, sieve in arithmetic._sigma_sieves.items()} == {spec.a: 160}


def test_non_convergence_names_the_voronoi_stage(monkeypatch):
    spec = _fresh_spec()
    calibrate(spec, power_modulus_exponent=-0.8)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 3)  # 2 initial panels
    monkeypatch.setattr(voronoi, "_MEAN_SQUARE_ABS_TOL", 1e-300)
    monkeypatch.setattr(voronoi, "_MEAN_SQUARE_REL_TOL", 0.0)
    with pytest.raises(QuadratureNonConvergence) as info:
        delta_mean_square(spec, 4.0)
    assert re.fullmatch(r"Voronoi mean square: panel budget 3 exhausted .* on \[2\.0, 4\.0\]", str(info.value))
    assert info.value.value > 0.0 and info.value.error_estimate > 0.0


# ---------------------------------------------------------------------------
# Bit identity with the former per-function series loops and padded prefix sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _padded_prefix_oracle(spec: TwistedSumSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The former cached terms and cumsum, padded to a power of two >= 1024."""
    length = 1 << max(max(n_max, 1024) - 1, 1).bit_length()
    sig = divisor_sigma_range(spec.a, length)
    if spec.h == 0:
        terms = sig.astype(np.complex128)
    else:
        terms = sig * unit_phase(spec.h * np.arange(1, length + 1, dtype=np.int64), spec.k_mod)
    return terms, np.cumsum(terms)


def _twisted_values_oracle(spec: TwistedSumSpec, xs: np.ndarray) -> np.ndarray:
    floors = np.floor(xs).astype(np.int64)
    terms, cum = _padded_prefix_oracle(spec, int(floors.max()))
    vals = cum[floors - 1].astype(np.complex128)
    at_integer = xs == floors
    vals[at_integer] -= 0.5 * terms[floors[at_integer] - 1]
    return vals


def _delta_asymptotic_oracle(spec: TwistedSumSpec, x: float, n_terms: int, twist: str) -> complex:
    if n_terms == 0:
        return 0.0 + 0.0j
    a, k = spec.a, spec.k_mod
    n_int = np.arange(1, n_terms + 1, dtype=np.int64)
    n = n_int.astype(np.float64)
    root = np.sqrt(n * x)
    theta = (4.0 * math.pi / k) * root - 0.25 * math.pi
    correction = (4.0 * (1.0 + a) ** 2 - 1.0) * k / (32.0 * math.pi * root)
    sig = divisor_sigma_range(a, n_terms)
    prefactor = math.sqrt(k) / (math.sqrt(2.0) * math.pi) * x ** (0.25 * (2.0 * a + 1.0))
    amplitude = (
        prefactor
        * sig
        * n ** (-0.25 * (3.0 + 2.0 * a))
        * (np.cos(theta) - correction * np.sin(theta))
    )
    terms = amplitude * _phases_oracle(spec, n_int, twist)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


_BIT_GRID = list(itertools.product((-0.2, -0.003, -0.49), ((1, 3), (2, 5), (0, 1))))


@pytest.mark.parametrize(("a", "hk"), _BIT_GRID)
def test_series_bit_identical_to_the_former_loops(a, hk):
    spec = TwistedSumSpec(a, *hk)
    for n_terms, x in itertools.product((0, 2000), (41.0, 123.4, 400.0)):
        plan = truncation_plan(spec, (40.0, 400.0), n_terms)
        assert delta_bessel(spec, x, plan) == _delta_bessel_oracle(spec, x, n_terms, "inverse")
        assert delta_asymptotic(spec, x, plan) == _delta_asymptotic_oracle(spec, x, n_terms, "inverse")


@pytest.mark.parametrize(("a", "hk"), _BIT_GRID)
def test_raw_sum_bit_identical_to_the_padded_prefix_sums(a, hk):
    # A cumulative sum's prefix has the same bits at any length, so the
    # unpadded arrays must agree with the former power-of-two cache exactly.
    spec = TwistedSumSpec(a, *hk)
    xs = np.array([1.0, 1.5, 40.0, 123.4, 1024.0, 1025.0, 3000.7, 2047.0])
    assert np.array_equal(_twisted_values(spec, xs), _twisted_values_oracle(spec, xs))
    for x in xs:
        assert twisted_sum(spec, x) == complex(_twisted_values_oracle(spec, np.array([x]))[0])


def _delta_direct_values_oracle(spec, xs, cal):
    """The former array path of the direct column, with the smooth terms formed
    from zeta at every call, kept as a bitwise oracle."""
    a, k = spec.a, float(spec.k_mod)
    linear_coeff = k ** (a - 1.0) * zeta(complex(1.0 - a)).real
    power_coeff = k**cal.power_exponent * zeta(complex(1.0 + a)).real / (1.0 + a)
    main = linear_coeff * xs + power_coeff * xs ** (1.0 + a)
    return _twisted_values(spec, xs) - main - cal.c0


@pytest.mark.parametrize(("a", "hk"), _BIT_GRID)
def test_direct_column_bit_identical_to_single_points(a, hk):
    # A voronoi scenario forms its whole direct column from one pass of the
    # raw sum up to its largest x; every value must be delta_direct's.
    spec = TwistedSumSpec(a, *hk)
    cal = calibrate(spec, power_modulus_exponent=-1.0 - a, x_lo=400.0)
    xs = np.concatenate((np.geomspace(40.0, 3e4, 60), [41.0, 1024.0, 2047.0]))
    column = delta_direct(spec, xs, cal)
    assert [complex(v) for v in column] == [delta_direct(spec, float(x), cal) for x in xs]
    assert np.array_equal(column, _delta_direct_values_oracle(spec, xs, cal))
