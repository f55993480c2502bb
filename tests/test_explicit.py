"""Window identity blocks: cutoff map, phases, variant algebra, both reports."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from zetastrip.arithmetic import DirichletPolynomial, coefficient_pairs, divisor_sigma_range, fsum_complex, unit_phase
from zetastrip.errors import ValidationError
import zetastrip.explicit as explicit_module
from zetastrip.explicit import (
    SIGMA1_VARIANTS,
    SIGMA2_VARIANTS,
    ExplicitTerms,
    WindowConfig,
    _dyadic_levels,
    _sigma1_sum,
    _sigma2_sum,
    explicit_terms,
    _f_phase,
    _g_phase,
    theorem1_report,
    theorem2_report,
    _xi,
)
from zetastrip.meansquare import StripConfig, integrate_mean_square, main_term
from zetastrip.special import cis, gamma, zeta

from pair_residuals import cross_pair_residuals, sigma2_sum as _sigma2_sum_oracle


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
        assert _xi(T, 0.0) == pytest.approx(a, rel=1e-14)
        last = a
        for u in (0.1, 1.0, T, 10.0 * T):
            val = _xi(T, u)
            assert 0.0 < val <= a
            lhs = (a + 0.5 * u - val) ** 2
            rhs = 0.25 * u * u + u * a
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert val < last  # strictly decreasing in u
            last = val


def test_f_phase_values_and_guards():
    T = 100.0
    assert _f_phase(T, np.array([0.0]))[0] == pytest.approx(-0.25 * math.pi)
    u = 7.3
    expected = (
        2.0 * T * math.asinh(math.sqrt(math.pi * u / (2.0 * T)))
        + math.sqrt(2.0 * math.pi * u * T + (math.pi * u) ** 2)
        - 0.25 * math.pi
    )
    assert _f_phase(T, np.array([u]))[0] == pytest.approx(expected, rel=1e-15)
    with pytest.raises(TypeError):
        _f_phase(T, np.array([1.0]), radicand="plus")  # the radical has one sign only


def test_f_phase_derivative_closed_form():
    # For the plus radicand the derivative collapses:
    #   d/du [2T asinh sqrt(pi u/2T)] = T sqrt(pi / (u (2T + pi u))),
    #   d/du sqrt(pi u (2T + pi u))  = sqrt(pi) (T + pi u)/sqrt(u (2T + pi u)),
    # and the sum telescopes to sqrt(2 pi T/u + pi^2).  Central differences.
    T, u, h = 180.0, 11.0, 1e-5
    numeric = (_f_phase(T, np.array([u + h])) - _f_phase(T, np.array([u - h])))[0] / (2.0 * h)
    assert numeric == pytest.approx(math.sqrt(2.0 * math.pi * T / u + math.pi**2), rel=1e-9)


def test_g_phase_closed_form():
    T, u = 90.0, 4.2
    expected = T * math.log(T / (2.0 * math.pi * u)) - T + 2.0 * math.pi * u + 0.25 * math.pi
    assert _g_phase(T, np.array([u]))[0] == pytest.approx(expected, rel=1e-15)
    # Stationary point of g in u is at u = T/(2 pi).
    h = 1e-6
    u0 = T / (2.0 * math.pi)
    numeric = (_g_phase(T, np.array([u0 + h])) - _g_phase(T, np.array([u0 - h])))[0] / (2.0 * h)
    assert abs(numeric) < 1e-6


# ---------------------------------------------------------------------------
# Variant algebra
# ---------------------------------------------------------------------------

_CFG = StripConfig(0.4)
_POLY2 = DirichletPolynomial((1.0, 1.0))


_WIN60 = WindowConfig(0.5, 2.0, 60.0, 60.0)


def _sigma1(**flags) -> float:
    return explicit_terms(_WIN60, _CFG, _POLY2, **flags).sigma1


def _sigma2(**flags) -> float:
    return explicit_terms(_WIN60, _CFG, _POLY2, **flags).sigma2


def test_sigma1_variant_scalings():
    scale = (2.0 * math.pi) ** (0.4 - 0.5)
    resolved = _sigma1(sigma1_variant="resolved")
    total, _ = _sigma1_sum(60.0, 60.0, _CFG, _POLY2).total()
    assert abs(resolved) <= scale * abs(total) + 1e-12
    with pytest.raises(ValidationError):
        _sigma1(sigma1_variant="other")


def test_sigma2_variant_scalings():
    canonical = _sigma2()
    halved = _sigma2(sigma2_variant="halved")
    resolved = _sigma2(sigma2_variant="resolved")
    assert halved == pytest.approx(0.5 * canonical, rel=1e-13)
    assert resolved == pytest.approx(halved * (2.0 * math.pi) ** (2 * 0.4 - 1.0), rel=1e-13)


def test_sigma2_rejects_nonpositive_log_cutoff():
    # Retained terms need kappa n / lambda < T/(2 pi) strictly; a cutoff
    # beyond that bound must refuse rather than fold in log of <= 0.
    with pytest.raises(ValidationError):
        _sigma2_sum(10.0, 3.0, _CFG, DirichletPolynomial((1.0,)))


def test_the_kept_twist_leaves_a_fifth_of_the_other_twists_cross_pair_residual():
    # At sigma = 0.3, T = 1000 the cross pair (2, 5) has kappa_bar = 3 != kappa = 2
    # mod 5, so the two twists of Sigma_2 differ; |R| reads 0.348 against 6.284.
    residuals = cross_pair_residuals(0.3, 1000.0, 2, 5)
    assert abs(residuals["resolved", "direct"]) < abs(residuals["resolved", "inverse"]) / 5.0


# ---------------------------------------------------------------------------
# A = 1 against Matsumoto's explicit formula for E_sigma(T)
# ---------------------------------------------------------------------------


def _divisor_power_sum(e: float, n: int) -> float:
    """``sigma_e(n)``, the divisors found by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in small if d * d != n]
    return math.fsum(float(d) ** e for d in small + large)


def _matsumoto_blocks(sigma: float, T: float, Y: float) -> tuple[float, float]:
    """Sigma_1 and Sigma_2 of Matsumoto's explicit formula for E_sigma(T)
    (Japan. J. Math. 15, 1989; Ivic, Mean Values of the Riemann Zeta
    Function, ch. 2), term by term in Python floats, over the cutoffs
    ``explicit_terms`` uses at A = 1 (``n <= Y`` and ``n <= xi(T, Y)``)::

        Sigma_1 = 2^(sigma-1) (pi/T)^(sigma-1/2) sum (-1)^n sigma_{1-2 sigma}(n) n^(sigma-1)
                  arsinh(sqrt(pi n / 2T))^-1 (T/(2 pi n) + 1/4)^(-1/4) cos f(T, n)
        Sigma_2 = -2 (2 pi/T)^(sigma-1/2) sum sigma_{1-2 sigma}(n) n^(sigma-1)
                  log(T/(2 pi n))^-1 cos(T log(T/(2 pi n)) - T + pi/4)
    """
    e = 1.0 - 2.0 * sigma
    terms1 = []
    for n in range(1, math.floor(Y) + 1):
        root = math.asinh(math.sqrt(math.pi * n / (2.0 * T)))
        f = 2.0 * T * root + math.sqrt(2.0 * math.pi * n * T + (math.pi * n) ** 2) - 0.25 * math.pi
        weight = _divisor_power_sum(e, n) * n ** (sigma - 1.0) / root
        terms1.append((-1) ** n * weight * (T / (2.0 * math.pi * n) + 0.25) ** -0.25 * math.cos(f))
    terms2 = []
    for n in range(1, math.floor(_xi(T, Y)) + 1):
        log_ratio = math.log(T / (2.0 * math.pi * n))
        g = T * log_ratio - T + 0.25 * math.pi
        terms2.append(_divisor_power_sum(e, n) * n ** (sigma - 1.0) / log_ratio * math.cos(g))
    sigma1 = 2.0 ** (sigma - 1.0) * (math.pi / T) ** (sigma - 0.5) * math.fsum(terms1)
    sigma2 = -2.0 * (2.0 * math.pi / T) ** (sigma - 0.5) * math.fsum(terms2)
    return sigma1, sigma2


@pytest.mark.parametrize("T", [250.0, 1000.0])
@pytest.mark.parametrize("sigma", [0.3, 0.4, 0.45])
def test_resolved_blocks_at_a_equal_one_match_matsumoto(sigma, T):
    window, cfg, one = WindowConfig(0.5, 2.0, T, T), StripConfig(sigma), DirichletPolynomial((1.0,))
    sigma1, sigma2 = _matsumoto_blocks(sigma, T, T)
    resolved = explicit_terms(window, cfg, one, sigma1_variant="resolved", sigma2_variant="resolved")
    assert resolved.sigma1 == pytest.approx(sigma1, rel=1e-10)
    assert resolved.sigma2 == pytest.approx(sigma2, rel=1e-10)
    # Criterion 6's ``halved`` is (2 pi)^(1 - 2 sigma) times the formula's Sigma_2.
    halved = explicit_terms(window, cfg, one, sigma2_variant="halved").sigma2
    assert halved / resolved.sigma2 == pytest.approx((2.0 * math.pi) ** (1.0 - 2.0 * sigma), rel=1e-12)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_explicit_terms_block_total_consistency():
    win = WindowConfig(0.5, 2.0, 40.0, 40.0)
    terms = explicit_terms(win, _CFG, _POLY2)
    assert terms.block_total == pytest.approx(terms.main + terms.sigma1 + terms.sigma2)
    assert terms.terms_used_1 > 0 and terms.terms_used_2 > 0
    assert terms.main == pytest.approx(main_term(40.0, _CFG, _POLY2), rel=1e-13)


@pytest.mark.parametrize(
    ("coefficients", "blocks", "main"),
    [
        ((1e200,), "are nan and nan", "is nan"),
        ((1e154,), "are nan and -inf", "is inf"),  # |a|^2 = 1e308 is finite: a bound on it misses this
        ((1e153, 1e153), None, "is nan"),  # finite terms whose sum overflows
    ],
)
def test_blocks_that_leave_the_floats_are_refused_by_name(coefficients, blocks, main):
    # These blocks used to come out nan or inf with no refusal.
    A = DirichletPolynomial(coefficients)
    named = f"not a finite float, for the coefficients {A.coefficients}"
    with pytest.raises(ValidationError, match=re.escape(f"main_term at T = 60.0 {main}, {named}")):
        main_term(60.0, StripConfig(0.4), A)
    expected = f"sigma1 and sigma2 blocks at t = 60.0, y = 60.0 {blocks}, not finite floats" if blocks else named
    with pytest.raises(ValidationError, match=re.escape(expected)):
        explicit_terms(WindowConfig(0.5, 2.0, 60.0, 60.0), StripConfig(0.4), A)


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
    report = theorem2_report(win, _CFG, DirichletPolynomial((1.0,)), 1.0, abs_tol=1e-6)
    assert report.levels >= 1
    assert report.stub_upper == pytest.approx(T / 2.0**report.levels)
    assert abs(report.difference) <= 3.0 * report.quadrature_error_total


def _theorem2_two_reports_per_level(win, cfg, A, alpha, **flags) -> tuple:
    """Dyadic reconstruction through one :func:`theorem1_report` per level,
    which evaluates the blocks at every intermediate scale twice."""
    levels = _dyadic_levels(win.t, win.c_star, alpha)
    quad_direct = integrate_mean_square(0.0, win.t, cfg, A)
    direct_value = float(quad_direct.value) - explicit_terms(win, cfg, A, **flags).block_total
    error_total = quad_direct.error_estimate
    residuals = []
    for j in range(1, levels + 1):
        report = theorem1_report(win.scaled(2.0**-j), cfg, A, **flags)
        residuals.append(report.residual)
        error_total += report.quadrature_error
    stub_upper = win.t * 2.0**-levels
    stub_blocks = explicit_terms(win.scaled(2.0**-levels), cfg, A, **flags)
    quad_stub = integrate_mean_square(0.0, stub_upper, cfg, A)
    error_total += quad_stub.error_estimate
    telescoped = float(quad_stub.value) - stub_blocks.block_total + math.fsum(residuals)
    return levels, stub_upper, direct_value, telescoped, error_total


@pytest.mark.parametrize(
    ("coefficients", "T", "flags"),
    [
        ((1.0,), 50.0, {"sigma1_variant": "resolved", "sigma2_variant": "halved"}),
        ((1.0, 0.6 - 0.4j), 60.0, {}),
    ],
)
def test_theorem2_report_evaluates_each_scale_once(monkeypatch, coefficients, T, flags):
    A = DirichletPolynomial(coefficients)
    win = WindowConfig(0.5, 2.0, T, T)
    expected = _theorem2_two_reports_per_level(win, _CFG, A, 1.0, **flags)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].t)
        return explicit_terms(*args, **kwargs)

    monkeypatch.setattr(explicit_module, "explicit_terms", counted)
    report = theorem2_report(win, _CFG, A, 1.0, **flags)
    got = (
        report.levels,
        report.stub_upper,
        report.direct_value,
        report.telescoped_value,
        report.quadrature_error_total,
    )
    assert report.levels == 2
    assert got == expected  # exact: the same floating-point operations
    assert calls == [T, T / 2.0, T / 4.0]


def test_dyadic_level_formula():
    # floor((log T - log c* - alpha log log T)/log 2) at T=800, c*=e, alpha=1.
    expected = math.floor((math.log(800.0) - 1.0 - math.log(math.log(800.0))) / math.log(2.0))
    assert expected == 5
    assert _dyadic_levels(800.0, math.e, 1.0) == 5
    assert _dyadic_levels(3.0, math.e, 5.0) == 0  # clamped at zero
    with pytest.raises(ValidationError):
        _dyadic_levels(1.0, math.e, 1.0)
    with pytest.raises(ValidationError):
        _dyadic_levels(800.0, math.e, -1.0)


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_long_polynomial_blocks_match_benchmark_reference():
    # Mollifier-shaped coefficients mu(m) log(M/m) / log M reach M = 16, where
    # pairs with kappa, lambda > 1 exercise the twists and long divisor sieves.
    reference_path = Path(__file__).resolve().parent.parent / "bench" / "reference" / "blocks.json"
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    cfg = StripConfig(0.4)
    lower = WindowConfig(0.5, 2.0, 250.0, 250.0)
    for length in (1, 4, 16):
        if length == 1:
            coefficients = (1.0,)
        else:
            coefficients = tuple(_moebius(m) * math.log(length / m) / math.log(length) for m in range(1, length + 1))
        poly = DirichletPolynomial(coefficients)
        for end, window in (("lower", lower), ("upper", lower.scaled(2.0))):
            terms = explicit_terms(window, cfg, poly, sigma1_variant="resolved", sigma2_variant="halved")
            expected = reference[f"M={length}.{end}"]
            for name in ("sigma1", "sigma2", "main"):
                assert getattr(terms, name) == pytest.approx(expected[name], rel=1e-9), (length, end, name)


@pytest.mark.parametrize("length", [1, 4, 16])
def test_explicit_terms_bit_identical_to_the_former_complex_exp(length, monkeypatch):
    # The inner Sigma_1 and Sigma_2 sums form exp(i phase) by special.cis;
    # with cis patched back to np.exp(1j * phase) every block keeps its bits.
    if length == 1:
        coefficients = (1.0,)
    else:
        coefficients = tuple(_moebius(m) * math.log(length / m) / math.log(length) for m in range(1, length + 1))
    poly = DirichletPolynomial(coefficients)
    window = WindowConfig(0.5, 2.0, 250.0, 250.0)
    flag_sets = [{}, {"sigma1_variant": "resolved", "sigma2_variant": "halved"}]

    def blocks():
        return [explicit_terms(w, _CFG, poly, **flags) for w in (window, window.scaled(2.0)) for flags in flag_sets]

    got = blocks()
    monkeypatch.setattr(explicit_module, "cis", lambda phase: np.exp(1j * phase))
    for new, old in zip(got, blocks()):
        for name in ("sigma1", "sigma2", "main"):
            assert getattr(new, name).hex() == getattr(old, name).hex(), (length, name)
        assert (new.terms_used_1, new.terms_used_2) == (old.terms_used_1, old.terms_used_2)


# ---------------------------------------------------------------------------
# Former block sums, kept as bitwise oracles of the shared pair sum
# ---------------------------------------------------------------------------


def _sigma1_prefactor_oracle(variant: str, sigma: float) -> complex:
    if variant == "canonical":
        return 1.0 + 0.0j
    return (2.0 * math.pi) ** (sigma - 0.5) * cmath.exp(2j * math.pi * sigma)


def _sigma2_prefactor_oracle(variant: str, sigma: float) -> float:
    if variant == "canonical":
        return 1.0
    if variant == "halved":
        return 0.5
    return 0.5 * (2.0 * math.pi) ** (2.0 * sigma - 1.0)


def _sigma1_sum_oracle(T, Y, cfg, A):
    sigma = cfg.sigma
    exponent = 2.0 * sigma - 1.0
    base_rotation = cmath.exp(-2j * math.pi * sigma)
    t_power = T ** (0.5 - sigma)
    values = []
    terms = 0
    pairs = []
    for product, pd in coefficient_pairs(A):
        kl = pd.kappa * pd.lam
        n_max = math.floor(kl * Y)
        if n_max < 1:
            continue
        n = np.arange(1, n_max + 1, dtype=np.float64)
        sig = divisor_sigma_range(exponent, n_max)
        u = n / kl
        asc = np.arcsinh(np.sqrt(math.pi * n / (2.0 * T * kl)))
        amplitude = sig * n ** (-sigma) / asc * (1.0 + 2.0 * T * kl / (math.pi * n)) ** -0.25
        phase = _f_phase(T, u) - math.pi * u + 0.5 * math.pi
        twist = unit_phase(pd.kappa_bar * np.arange(1, n_max + 1, dtype=np.int64), pd.lam)
        inner = np.sum(amplitude * twist * cis(phase))
        coeff = product / pd.lcm ** (2.0 * sigma) * kl**sigma * base_rotation * t_power
        values.append(coeff * complex(inner))
        terms += n_max
        pairs.append((pd, coeff, complex(inner), n_max))
    return fsum_complex(values), terms, pairs


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _assert_pairs_bit_identical(block, oracle_pairs):
    """Each pair of a block value has the data, factor, terms' sum and term count of the oracle's pair."""
    assert len(block.pairs) == len(oracle_pairs)
    for (pd, factor, pair_sum, count), (oracle_pd, oracle_factor, oracle_sum, oracle_count) in zip(
        block.pairs, oracle_pairs
    ):
        assert pd == oracle_pd
        assert _bits(factor) == _bits(oracle_factor)
        assert _bits(pair_sum) == _bits(oracle_sum)
        assert count == oracle_count


def _main_term_oracle(T, cfg, A):
    sigma = cfg.sigma
    z1 = zeta(complex(2.0 * sigma)).real
    z2 = zeta(complex(2.0 * sigma - 1.0)).real
    g2 = gamma(2.0 * sigma - 1.0)
    secondary_scalar = math.cos((sigma - 0.5) * math.pi) / (1.0 - sigma) * g2 * z2 * T ** (2.0 - 2.0 * sigma)
    linear_scalar = z1 * T
    terms = []
    for product, pd in coefficient_pairs(A):
        bracket = linear_scalar + secondary_scalar * (pd.kappa * pd.lam) ** (2.0 * sigma - 1.0)
        terms.append(product / pd.lcm ** (2.0 * sigma) * bracket)
    return fsum_complex(terms).real


_READINGS = list(itertools.product(SIGMA1_VARIANTS, SIGMA2_VARIANTS))


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 16])
def test_blocks_bit_identical_to_the_former_block_sums(length, monkeypatch):
    # Random complex coefficients, every reading, sigma in {0.3, 0.4, 0.45}
    # and T in {60, 250, 1000} at Y = T: each block keeps the bits of the
    # former separate Sigma_1 and Sigma_2 loops and main-term pair loop, and
    # each Sigma_1 and Sigma_2 pair keeps the loops' factor, terms' sum and count.
    rng = np.random.default_rng(length)
    poly = DirichletPolynomial(tuple(rng.normal(size=length) + 1j * rng.normal(size=length)))
    for sigma, T in itertools.product((0.3, 0.4, 0.45), (60.0, 250.0, 1000.0)):
        cfg, window = StripConfig(sigma), WindowConfig(0.5, 2.0, T, T)
        y_cut = _xi(T, T)
        block1, block2 = _sigma1_sum(T, T, cfg, poly), _sigma2_sum(T, y_cut, cfg, poly)
        *oracle1, pairs1 = _sigma1_sum_oracle(T, T, cfg, poly)
        *oracle2, pairs2 = _sigma2_sum_oracle(T, y_cut, cfg, poly, "direct")
        sum1, sum2 = block1.total(), block2.total()
        assert sum1 == tuple(oracle1), (sigma, T)
        assert sum2 == tuple(oracle2), (sigma, T)
        _assert_pairs_bit_identical(block1, pairs1)
        _assert_pairs_bit_identical(block2, pairs2)
        main = _main_term_oracle(T, cfg, poly)
        # The readings apply scalar factors to the same sums.
        monkeypatch.setattr(explicit_module, "_sigma1_sum", lambda *args: block1)
        monkeypatch.setattr(explicit_module, "_sigma2_sum", lambda *args: block2)
        for s1, s2 in _READINGS:
            got = explicit_terms(window, cfg, poly, sigma1_variant=s1, sigma2_variant=s2)
            total1, terms1 = sum1
            total2, terms2 = sum2
            assert got == ExplicitTerms(
                sigma1=(_sigma1_prefactor_oracle(s1, sigma) * total1).imag,
                sigma2=_sigma2_prefactor_oracle(s2, sigma) * total2.real,
                main=main,
                terms_used_1=terms1,
                terms_used_2=terms2,
            ), (sigma, T, s1, s2)
        monkeypatch.undo()
