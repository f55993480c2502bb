"""High-precision oracle and branch-seam tests for the special-function kernels.

Oracles are computed with mpmath at 200 bits, independently of the library
code.  For J and Y the error is measured against the oscillation envelope
``sqrt(2/(pi x))`` instead of the pointwise value, since a relative error at
a zero crossing is meaningless; K has no zeros and uses plain relative error.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import re
import threading
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zetastrip import special
from zetastrip.arithmetic import DirichletPolynomial
from zetastrip.errors import PrecisionError, ValidationError
from zetastrip.scenarios import run_suite
from zetastrip.special import (
    _LINE_CHUNK,
    NU_BAND,
    X_SWITCH_ASYMPTOTIC,
    _zeta_em_f64,
    arcsinh,
    bessel,
    dirichlet_sum,
    gamma,
    zeta,
    zeta_line,
    zeta_terms,
)

mpmath.mp.prec = 200


# ---------------------------------------------------------------------------
# arcsinh
# ---------------------------------------------------------------------------


def test_arcsinh_against_oracle():
    xs = np.concatenate(
        [
            np.geomspace(1e-30, 1e6, 61),
            -np.geomspace(1e-30, 1e6, 61),
            np.array([0.0, 2.0**-20, -(2.0**-20), 2.0**-20 * (1 - 1e-9), 2.0**-20 * (1 + 1e-9)]),
        ]
    )
    ours = arcsinh(xs)
    for x, mine in zip(xs, ours):
        ref = float(mpmath.asinh(mpmath.mpf(float(x))))
        assert mine == pytest.approx(ref, rel=1e-14, abs=1e-300)


def test_arcsinh_at_huge_arguments_without_warnings():
    # x * x overflows from |x| ~ 1.34e154 and the series' x^3 from ~5.6e102:
    # 1e200 used to give nan after four RuntimeWarnings.
    xs = np.array([1e155, -1e155, 1e200, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = arcsinh(xs)
        scalars = [arcsinh(float(x)) for x in xs]
    for x, mine, scalar in zip(xs, ours, scalars):
        ref = float(mpmath.asinh(mpmath.mpf(float(x))))
        assert mine == pytest.approx(ref, rel=4e-16)
        assert scalar == mine


def test_arcsinh_below_two_to_the_minus_20_against_mpmath():
    # One log1p form down to the subnormals, with no series branch.
    xs = np.concatenate([np.geomspace(5e-324, 2.0**-20, 1000), np.geomspace(1e-300, 2.0**-20, 1000)])
    xs = np.concatenate([xs, -xs, [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = arcsinh(xs)
    for x, mine in zip(xs, ours):
        ref = mpmath.asinh(mpmath.mpf(float(x)))
        assert abs(mine - ref) <= 2e-16 * abs(ref), x


def test_arcsinh_scalar_and_odd():
    assert arcsinh(0.0) == 0.0
    assert isinstance(arcsinh(1.5), float)
    assert arcsinh(-1.5) == -arcsinh(1.5)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

_ZETA_SIGMAS = (-0.5, -0.2, 0.3, 0.4, 0.5, 0.8, 1.5, 2.0)
_ZETA_TS = (0.0, 0.5, 14.134725, 100.0, 1000.0, 10000.0)


def test_zeta_against_mpmath_grid():
    # Relative 1e-8 on the whole grid (with a tiny absolute floor, since the
    # grid contains a point within 5e-7 of a zeta zero where relative error
    # is meaningless), and a much tighter absolute contract away from the
    # negative-sigma phase-rounding regime.
    for sig in _ZETA_SIGMAS:
        for t in _ZETA_TS:
            s = complex(sig, t)
            if s == 1.0:
                continue
            mine = zeta(s)
            ref = complex(mpmath.zeta(mpmath.mpc(sig, t)))
            err = abs(mine - ref)
            assert err <= max(1e-8 * abs(ref), 1e-8), f"s={s}"
            if sig >= 0.3:
                assert err <= max(1e-11 * abs(ref), 1e-10), f"s={s}"


def test_zeta_doubled_cutoff_consistency():
    # Independent check without mpmath: the Euler-Maclaurin remainder bound
    # implies two very different cutoffs agree far below the target.
    from zetastrip.special import _zeta_em_f64

    for s in (complex(0.4, 37.0), complex(0.8, 500.0), complex(-0.2, 12.0)):
        n = max(20, math.ceil(2 * abs(s.imag)))
        v1, r1 = _zeta_em_f64(s, n)
        v2, r2 = _zeta_em_f64(s, 4 * n)
        assert abs(v1 - v2) <= 1e-10 * max(abs(v1), 1.0)
        assert r2 < r1


def _first_cutoff(t: float) -> int:
    """The first Euler--Maclaurin cutoff ``special._em_terms`` tries at height ``t``."""
    return max(20, math.ceil(2.0 * t))


def test_zeta_pole_and_remainder_guard():
    with pytest.raises(ValidationError):
        zeta(1.0)
    # Strongly negative real part defeats the Bernoulli tail at any feasible
    # cutoff: the guard must refuse rather than return garbage.
    with pytest.raises(PrecisionError):
        zeta(complex(-12.0, 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta(complex(-100.0, 2000.0)),
        lambda: zeta_line(-100.0, np.array([2000.0])),
        lambda: zeta_terms(-100.0, 0.0, 2000.0),
        lambda: zeta(complex(-100.0, 1e6)),
    ],
    ids=["zeta", "zeta_line", "zeta_terms", "zeta-1e6"],
)
def test_an_overflowing_remainder_bound_is_a_failed_bound(call, monkeypatch):
    # The bound N^(-sigma - 11) exceeds the floats at 4 N = 16 000 and sigma = -100:
    # these ended in OverflowError.
    for kernel in ("_zeta_em_f64", "dirichlet_sum", "_zeta_rs"):
        monkeypatch.setattr(special, kernel, _no_sum)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=re.escape("remainder bound inf exceeds ZETA_ABS_TOL")):
            call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    ("call", "constraint"),
    [
        (
            lambda: zeta_terms(1.5, 0.0, 1e308),
            "and a finite 2 t_hi, got sigma = 1.5, [t_lo, t_hi] = [0.0, 1e+308]",
        ),
        (lambda: zeta_line(1.5, np.array([1e308])), "zeta_line requires a finite 2 |t| at every t, got max |t| = 1e+308"),
        (lambda: zeta_terms(0.4, 100.0, math.inf), "got sigma = 0.4, [t_lo, t_hi] = [100.0, inf]"),
        (lambda: zeta_terms(math.nan, 100.0, 200.0), "zeta_terms requires a finite sigma"),
        (lambda: gamma(1e308), "gamma requires |z| <= 140, got z = 1e+308"),
        (lambda: gamma(complex(math.inf, 1.0)), "gamma requires |z| <= 140, got z = (inf+1j)"),
        (lambda: arcsinh(np.array([math.inf])), "arcsinh requires every x finite, got max |x| = inf"),
        (lambda: bessel(0.6, np.array([math.inf])), "bessel requires x <= 2**25, got max x = inf"),
        (lambda: bessel(0.6, np.array([1e308])), "bessel requires x <= 2**25, got max x = 1e+308"),
        (lambda: bessel(0.6, np.array([math.nan])), "bessel requires x >= 2**-20, got min x = nan"),
        (lambda: zeta_line(0.4, np.array([1e300])), "got sigma = 0.4, max |t| = 1e+300"),
        (lambda: zeta_line(1e308, np.array([1.0])), "zeta_line requires |sigma| <= 100 and at most 4194304 terms"),
        (lambda: zeta(complex(1e308, 1.0)), "and 2 |t = Im s| <= 4194304, got s = (1e+308+1j)"),
        (lambda: zeta_terms(-1e308, 0.0, 1.0), "zeta_terms requires a finite sigma, |sigma| <= 100"),
        # The cutoff 4 N where the remainder bound fails at N counts too.
        (lambda: zeta_line(-0.5, np.array([524289.0])), "at most 4194304 terms per point, got sigma = -0.5"),
        (
            lambda: zeta(complex(-0.5, 524289.0)),
            "zeta requires at most 4194304 terms, |sigma = Re s| <= 100 and 2 |t = Im s| <= 4194304, got s = (-0.5+524289j)",
        ),
    ],
    ids=[
        "zeta_terms-t_hi-1e308", "zeta_line-1e308", "zeta_terms-t_hi-inf", "zeta_terms-sigma-nan", "gamma-1e308", "gamma-inf+1j",
        "arcsinh-inf", "bessel-inf", "bessel-1e308", "bessel-nan", "zeta_line-1e300", "zeta_line-sigma", "zeta-sigma",
        "zeta_terms-sigma", "zeta_line-4N", "zeta-4N",
    ],
)
def test_special_refuses_by_name_before_forming_any_array(call, constraint, no_new_arrays):
    # These raised OverflowError or numpy's "Maximum allowed size exceeded",
    # warned in cos or of an overflow, or returned nan (gamma(inf + 1j),
    # arcsinh([inf]) returned inf, zeta_terms(nan, 100, 200) returned 400);
    # zeta_line and zeta at s = -0.5 + 524289 i summed 4 194 312 terms.
    with pytest.raises(ValidationError, match=re.escape(constraint)):
        call()


def _no_sum(*args):
    raise AssertionError("a sum was formed")


@pytest.mark.parametrize(
    ("call", "constraint"),
    [
        (lambda: zeta(complex(0.4, math.inf)), "zeta requires a finite t = Im s, got inf"),
        (lambda: zeta(complex(0.4, math.nan)), "zeta requires a finite t = Im s, got nan"),
        (lambda: zeta(complex(math.nan, 1.0)), "zeta requires a finite sigma = Re s, got nan"),
        (lambda: zeta(math.inf), "zeta requires a finite sigma = Re s, got inf"),
        (lambda: zeta_line(0.4, np.array([1.0, math.nan])), "zeta_line requires a finite 2 |t| at every t, got max |t| = nan"),
        (lambda: zeta_line(0.4, np.array([-math.inf])), "zeta_line requires a finite 2 |t| at every t, got max |t| = inf"),
        (lambda: zeta_line(math.nan, np.array([1.0])), "zeta_line requires a finite sigma, got nan"),
    ],
    ids=["t=inf", "t=nan", "sigma=nan", "s=inf", "line_t=nan", "line_t=-inf", "line_sigma=nan"],
)
def test_zeta_refuses_a_non_finite_argument_by_name(call, constraint, monkeypatch):
    # These raised OverflowError or ValueError, or returned NaN (s = inf with
    # a RuntimeWarning).  Every warning is an error here.
    for kernel in ("_zeta_em_f64", "dirichlet_sum", "_zeta_rs"):
        monkeypatch.setattr(special, kernel, _no_sum)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(constraint)):
            call()


def test_zeta_line_matches_scalar_and_folds_sign():
    t = np.array([-35.0, -1.0, 0.5, 14.134725, 250.0])
    line = zeta_line(0.4, t)
    for ti, vi in zip(t, line):
        ref = zeta(complex(0.4, ti))
        assert abs(vi - ref) <= 1e-11 * max(abs(ref), 1e-10)
    # The batch remainder bound guards the line path as it guards zeta().
    with pytest.raises(PrecisionError):
        zeta_line(-12.0, np.array([0.0, 1.0]))


def _main_sum_one_shot(sigma: float, t: np.ndarray, n_cut: int) -> np.ndarray:
    """The main sum as one ``exp`` outer product over all rows per column chunk.

    This is the kernel before row blocking and threads; the library's
    ``dirichlet_sum`` of ``log n`` and ``n^-sigma`` must reproduce its bits.
    """
    out = np.zeros(t.size, dtype=np.complex128)
    chunk = max(1, _LINE_CHUNK // max(1, t.size))
    for lo in range(1, n_cut, chunk):
        hi = min(n_cut, lo + chunk)
        n = np.arange(lo, hi, dtype=np.float64)
        log_n = np.log(n)
        amp = n ** (-sigma)
        out += np.exp(-1j * np.multiply.outer(t, log_n)) @ amp
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64))


_rng = np.random.default_rng(20231217)
_LINE_INPUTS = {
    "empty": np.array([]),
    "scalar": np.float64(14.134725),
    "one_point": np.array([250.0]),
    "zero_and_negative": np.array([0.0, -0.0, -35.0, 35.0, -1e-3, 7.5, -250.0]),
    # 65 rows: the one-row tail joins the block before it.
    "tail_of_one_row": _rng.uniform(-300.0, 300.0, 65),
    "ragged_2d": _rng.uniform(0.0, 120.0, (10, 13)),
    # 2 049 rows at N = 4 000 take three column chunks of 1 952 columns.
    "column_chunks": _rng.uniform(0.0, 2000.0, 2049),
    # 19 columns take blocks of 832 rows; the last row joins the block before.
    "short_sum_row_blocks": _rng.uniform(0.0, 9.5, 2 * 832 + 1),
}


@pytest.mark.parametrize("name", sorted(_LINE_INPUTS))
def test_zeta_line_main_sum_bit_identical_to_one_shot(name, monkeypatch):
    t = _LINE_INPUTS[name]
    flat = np.abs(np.ravel(t))
    n_cut = _first_cutoff(float(flat.max()) if flat.size else 0.0)
    if name == "column_chunks":
        assert n_cut - 1 > 2 * (_LINE_CHUNK // flat.size)
    expected = _main_sum_one_shot(0.4, flat, n_cut)
    n = np.arange(1, n_cut, dtype=np.float64)
    for threads in (1, 2):
        monkeypatch.setattr(special, "usable_cpus", lambda threads=threads: threads)
        assert _same_bits(dirichlet_sum(flat, np.log(n), n ** -0.4), expected), f"threads={threads}"
    # The whole line (Euler-Maclaurin tail, sign fold, shape) on top of the
    # one-shot sum gives the same bits as the library's.  "column_chunks"
    # reaches the Riemann-Siegel switch, so there only its points below it
    # take the main sum.
    below = np.abs(t) < special.RS_MIN_HEIGHT
    blocked = zeta_line(0.4, t)
    monkeypatch.setattr(special, "dirichlet_sum", lambda t, log_n, amp: _main_sum_one_shot(0.4, t, log_n.size + 1))
    assert _same_bits(blocked[below], zeta_line(0.4, t)[below])
    assert blocked.shape == np.shape(t)


def _zeta_line_em(sigma: float, t) -> np.ndarray:
    """``zeta_line`` as it was before the Riemann-Siegel kernel: Euler--
    Maclaurin at every height, one cutoff over the whole batch (four times
    the first where the remainder bound fails at the first, as in ``zeta``)."""
    t_arr = np.asarray(t, dtype=np.float64)
    flat = np.abs(t_arr.ravel())
    t_hi = float(flat.max()) if flat.size else 0.0
    n_cut = _first_cutoff(t_hi)
    remainder = special._em_bound(sigma + 1j * t_hi, n_cut)
    if remainder > special._ZETA_ABS_TOL:
        n_cut *= 4
        remainder = special._em_bound(sigma + 1j * t_hi, n_cut)
    if remainder > special._ZETA_ABS_TOL:
        raise PrecisionError(
            f"Euler-Maclaurin remainder bound {remainder:.2e} exceeds "
            f"ZETA_ABS_TOL {special._ZETA_ABS_TOL:.2e} on this ordinate batch"
        )
    n = np.arange(1, n_cut, dtype=np.float64)
    out = special._em_tail(dirichlet_sum(flat, np.log(n), n ** (-sigma)), sigma + 1j * flat, n_cut)
    out = np.where(np.ravel(t_arr) < 0.0, np.conj(out), out)
    return out.reshape(t_arr.shape)


_SWITCH = special.RS_MIN_HEIGHT
_SWITCH_INPUTS = {
    **_LINE_INPUTS,
    "just_below": np.nextafter(_SWITCH, 0.0) - np.array([0.0, 0.5, 3.0]),
    "straddling": np.concatenate(
        [_rng.uniform(-1.5 * _SWITCH, 1.5 * _SWITCH, 700), [-_SWITCH, _SWITCH, np.nextafter(_SWITCH, 0.0)]]
    ),
    "all_above": _rng.uniform(_SWITCH, 3.0 * _SWITCH, (4, 5)),
}


@pytest.mark.parametrize("sigma", [0.4, -0.2, 1.5])
@pytest.mark.parametrize("name", sorted(_SWITCH_INPUTS))
def test_zeta_line_below_the_switch_bit_identical_to_euler_maclaurin(name, sigma):
    t = _SWITCH_INPUTS[name]
    below = np.abs(np.asarray(t)) < special.RS_MIN_HEIGHT
    if not special.RS_SIGMA_BAND[0] <= sigma <= special.RS_SIGMA_BAND[1]:
        below = np.full(np.shape(t), True)  # Euler-Maclaurin at every height off the band
    # In a straddling batch only the sub-switch points take Euler-Maclaurin,
    # with the cutoff of the largest of them.
    try:
        expected = _zeta_line_em(sigma, t[below] if not below.all() else t)
    except PrecisionError as exc:  # short sums at sigma = -0.2
        with pytest.raises(PrecisionError, match=re.escape(str(exc))):
            zeta_line(sigma, t)
        return
    got = zeta_line(sigma, t)
    assert got.shape == np.shape(t)
    assert _same_bits(got[below] if not below.all() else got, expected)


def _em_former(total, s, n_cut: int):
    """The main sum ``total`` plus the Euler--Maclaurin tail, and the B12
    bound, as ``_zeta_em_f64`` (scalar ``s``) and ``zeta_line`` (array
    ``s``) each wrote them before they shared one helper; the library must
    reproduce their bits."""
    b2k = {2: 1.0 / 6.0, 4: -1.0 / 30.0, 6: 1.0 / 42.0, 8: -1.0 / 30.0, 10: 5.0 / 66.0}
    b12 = (-691.0 / 2730.0) / math.factorial(12)

    def rising(z, m):
        prod = 1.0 + 0.0j
        for j in range(m):
            prod *= z + j
        return prod

    if isinstance(s, np.ndarray):
        total = total.copy()
        total += n_cut ** (1.0 - s) / (s - 1.0)
        total += 0.5 * n_cut ** (-s)
        for order in (2, 4, 6, 8, 10):
            rise = np.ones_like(s)
            for j in range(order - 1):
                rise = rise * (s + j)
            total += b2k[order] / math.factorial(order) * rise * n_cut ** (1.0 - s - order)
        return total, None
    total += n_cut ** (1.0 - s) / (s - 1.0)
    total += 0.5 * n_cut ** (-s)
    for order in (2, 4, 6, 8, 10):
        total += b2k[order] / math.factorial(order) * rising(s, order - 1) * n_cut ** (1.0 - s - order)
    return total, float(abs(b12) * abs(rising(s, 11)) * n_cut ** (-s.real - 11.0))


def test_em_tail_bit_identical_to_the_former_scalar_and_array_tails():
    sigmas = (-0.5, -0.2, 0.0, 0.3, 0.4, 0.45, 0.9, 1.5, 2.0)
    heights = np.concatenate([[0.0, 1e-3, 0.5, 14.134725], np.geomspace(1.0, 4000.0, 40)])
    for sigma in sigmas:
        for t in heights:
            s = complex(sigma, t)
            n_cut = _first_cutoff(t)
            n = np.arange(1, n_cut, dtype=np.float64)
            expected, bound = _em_former(complex(np.sum(n ** (-s))), s, n_cut)
            got, remainder = _zeta_em_f64(s, n_cut)
            assert type(got) is complex and type(remainder) is float
            assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex()), f"s={s}"
            assert remainder.hex() == bound.hex(), f"s={s}"
        s_vec = sigma + 1j * heights
        n_cut = _first_cutoff(float(heights.max()))
        main = _main_sum_one_shot(sigma, heights, n_cut)
        expected, _ = _em_former(main, s_vec, n_cut)
        assert _same_bits(special._em_tail(main, s_vec, n_cut), expected), f"sigma={sigma}"


def test_zeta_line_checks_the_remainder_bound_before_the_main_sum(monkeypatch):
    def kernel(*args):
        raise AssertionError("main sum formed before the remainder check")

    monkeypatch.setattr(special, "dirichlet_sum", kernel)
    with pytest.raises(PrecisionError, match="remainder bound"):
        zeta_line(-12.0, [0.0, 1.0])
    with pytest.raises(AssertionError, match="main sum formed"):  # the stub is live
        zeta_line(0.4, [0.0, 1.0])


@functools.lru_cache(maxsize=None)
def _mp_zeta(sigma: float, t: float) -> complex:
    with mpmath.workprec(80):
        return complex(mpmath.zeta(mpmath.mpc(sigma, t)))


_HIGH_OFFSETS = np.array([0.0, 0.37, 1.1, 2.9, 7.3])


@pytest.mark.parametrize("T", [250.0, 1000.0, 4000.0, 1e4, 1e5])
def test_zeta_line_against_mpmath_at_large_height(T):
    # Phase rounding in the Euler-Maclaurin main sum grows the absolute
    # error like T times machine epsilon (measured: 9e-13 at T = 250, sigma =
    # 0.3; 1.3e-12 and 1.8e-11 at 1000 and 4000 before Riemann-Siegel took
    # them).  Riemann-Siegel measures 1.4e-14, 2.6e-14, 3.9e-13 and 3.8e-11
    # at T = 1000, 4000, 1e4 and 1e5.
    t = T + _HIGH_OFFSETS
    for sigma in (0.3, 0.4):
        for ti, vi in zip(t, zeta_line(sigma, t)):
            assert abs(vi - _mp_zeta(sigma, float(ti))) <= 2e-14 * T, f"sigma={sigma}, t={ti}"


# ---------------------------------------------------------------------------
# zeta_line above the Riemann-Siegel switch
# ---------------------------------------------------------------------------

_RS_SIGMAS = (0.26, 0.3, 0.4, 0.45, 0.49)


@pytest.mark.parametrize("T", [500.0, 750.0, 1000.0, 2000.0, 4000.0, 1e4, 1e5])
def test_riemann_siegel_against_mpmath(T):
    # Relative error measured at most 1.6e-15, 1.5e-14, 3e-15, 4e-14,
    # 1.9e-13, 2.2e-13 and 3.2e-12 on these points: the rounding of log t in
    # theta0 grows it like T.  At T = 500 and 1000 the band's ends and
    # sigma = 1/2 are checked too.
    t = T + _HIGH_OFFSETS[[0, 2, 4]]
    band_edges = (0.0, 0.5, 0.75, 1.0) if T in (500.0, 1000.0) else ()
    for sigma in _RS_SIGMAS + band_edges:
        ref = np.array([_mp_zeta(sigma, float(x)) for x in t])
        err = np.abs(zeta_line(sigma, t) - ref)
        assert np.all(err <= 1e-16 * T * np.maximum(np.abs(ref), 1.0)), f"sigma={sigma}"


@pytest.mark.parametrize("T", [500.0, 750.0, 1000.0, 2000.0, 4000.0])
def test_riemann_siegel_closer_to_mpmath_than_euler_maclaurin(T):
    # Measured 21 (T = 750) to 1 100 times closer on these points.
    t = T + _HIGH_OFFSETS[[0, 2, 4]]
    for sigma in _RS_SIGMAS:
        ref = np.array([_mp_zeta(sigma, float(x)) for x in t])
        rs = np.abs(zeta_line(sigma, t) - ref).max()
        em = np.abs(_zeta_line_em(sigma, t) - ref).max()
        assert rs <= 0.1 * em, f"sigma={sigma}: {rs:.2e} vs {em:.2e}"


@pytest.mark.parametrize("T", [500.0, 1000.0, 1e4, 1e5])
def test_riemann_siegel_functional_equation(T):
    # zeta(s) = chi(s) zeta(1 - s) with zeta(1 - s) = conj(zeta(1 - sigma +
    # i t)): both sides from the kernel, chi(s) from mpmath's Gamma.
    t = T + _HIGH_OFFSETS
    for sigma in (0.0, 0.26, 0.4, 0.49):
        left = zeta_line(sigma, t)
        right = np.conj(zeta_line(1.0 - sigma, t))
        for ti, lv, rv in zip(t, left, right):
            with mpmath.workprec(80):
                s = mpmath.mpc(sigma, float(ti))
                chi = complex(2**s * mpmath.pi ** (s - 1) * mpmath.sin(mpmath.pi * s / 2) * mpmath.gamma(1 - s))
            assert abs(lv - chi * rv) <= 1e-16 * T * max(abs(lv), 1.0), f"sigma={sigma}, t={ti}"


def test_riemann_siegel_coefficients_match_mpmath():
    from mpmath.functions import rszeta

    with mpmath.workprec(300):
        c, _ = rszeta.coef(mpmath.mp, 40, mpmath.mpf(2) ** -250)
        expected = [complex(c[2 * k]) for k in range(len(special._RS_F_TAYLOR))]
    assert [complex(*pair) for pair in special._RS_F_TAYLOR] == expected


def test_zeta_line_sends_the_points_at_or_above_the_switch_to_riemann_siegel(monkeypatch):
    seen = []
    kernel = special._zeta_rs

    def spy(sigma, t, terms):
        seen.append((sigma, t.tolist(), terms))
        return kernel(sigma, t, terms)

    monkeypatch.setattr(special, "_zeta_rs", spy)
    t = np.array([-_SWITCH, np.nextafter(_SWITCH, 0.0), _SWITCH, 5.0, -2.5 * _SWITCH])
    for sigma in (-0.01, 0.0, 0.4, 1.0, 1.01):
        zeta_line(sigma, t)
    # 16 correction terms at the band's ends, 15 inside, at t = 500.
    high = [_SWITCH, _SWITCH, 2.5 * _SWITCH]
    assert seen == [(sigma, high, terms) for sigma, terms in ((0.0, 16), (0.4, 15), (1.0, 16))]


def test_zeta_terms_counts_the_kernel_that_runs():
    assert special.zeta_terms(0.4, 0.0, _SWITCH - 0.5) == _first_cutoff(_SWITCH - 0.5) == 999
    assert special.zeta_terms(0.4, _SWITCH, 2.0 * _SWITCH) == 2 * 12
    assert special.zeta_terms(0.4, 0.5 * _SWITCH, 2.0 * _SWITCH) == _first_cutoff(_SWITCH) == 1000
    assert special.zeta_terms(1.5, _SWITCH, 2.0 * _SWITCH) == _first_cutoff(2.0 * _SWITCH)
    assert special.zeta_terms(0.4, 1e9, 1e9 + 1e3) == 2 * 12615
    # Where the remainder bound fails at N, Euler--Maclaurin sums 4 N terms.
    assert special.zeta_terms(-0.5, 0.0, 524289.0) == 4 * _first_cutoff(524289.0) == 4194312


def test_riemann_siegel_truncation_bound_failure_is_named(monkeypatch):
    def kernel(*args):
        raise AssertionError("main sum formed before the bound check")

    monkeypatch.setattr(special, "_zeta_rs", kernel)
    monkeypatch.setattr(special, "dirichlet_sum", kernel)
    monkeypatch.setattr(special, "RS_MIN_HEIGHT", 100.0)
    with pytest.raises(PrecisionError, match=r"^Riemann-Siegel correction bound .* at t = 150\.0, sigma = 0\.4$"):
        zeta_line(0.4, [5.0, -150.0, 300.0])
    with pytest.raises(AssertionError, match="main sum formed"):  # the stubs are live
        zeta_line(0.4, [5.0, 300.0])


def _siegel_rotation_before(t: np.ndarray) -> np.ndarray:
    """``special._siegel_rotation`` with both unit phases from cos and sin."""
    m, e = np.frexp(t)
    low = m < math.sqrt(0.5)
    m, e = np.where(low, 2.0 * m, m), (e - low).astype(np.float64)
    half = 0.5 * t
    k_hi = e * special._LN2_HI - special._LN2PI_E_HI
    k_lo = ((e * special._LN2_HI - k_hi) - special._LN2PI_E_HI) + (e * special._LN2_LO - special._LN2PI_E_LO)
    p_hi, p_lo = special._two_product(half, k_hi)
    q_hi, q_lo = special._two_product(half, np.log1p(m - 1.0))
    s_hi = p_hi + q_hi
    rest = (q_hi - (s_hi - p_hi)) + p_lo + q_lo + half * k_lo - math.pi / 8.0
    return special.cis(s_hi, -1) * special.cis(rest, -1)


def _zeta_rs_before(sigma: float, t: np.ndarray, terms: int) -> np.ndarray:
    """``special._zeta_rs`` as it was before prime columns, degree-40
    polynomials and tangent half-angles: every column ``exp(-i t log n)``
    from its exact phase through cos and sin, the correction polynomials at
    the Taylor table's full width and Horner in ``1/a`` per row, in blocks
    of 273 rows on the calling thread."""
    n = np.arange(1.0, np.floor(np.sqrt(t.max() / (2.0 * math.pi))) + 1.0)
    amp = np.stack([n**-sigma, n ** (sigma - 1.0)], axis=1)
    log_hi, log_lo = special._log_pair(n)
    series = np.concatenate([special._rs_series(sigma, terms), special._rs_series(1.0 - sigma, terms)], axis=0).T
    series = np.concatenate([series.real, series.imag], axis=1)
    width = series.shape[0]
    delta = sigma - 0.5
    out = np.empty(t.size, dtype=np.complex128)
    step = max(1, special._BLOCK_CELLS // max(n.size, width))
    for lo in range(0, t.size, step):
        tb = t[lo : lo + step]
        a = np.sqrt(tb / (2.0 * math.pi))
        m = np.floor(a)
        hi, rest = special._two_product(tb[:, None], log_hi)
        terms_n = special.cis(hi, -1) * (1.0 - 1j * (rest + tb[:, None] * log_lo))
        terms_n[n > m[:, None]] = 0.0
        sums = terms_n @ amp
        poly = (np.vander(1.0 - 2.0 * (a - m), width, increasing=True) @ series).reshape(-1, 4, terms)
        r = np.einsum("rjk,rk->rj", poly, np.vander(1.0 / a, terms, increasing=True))
        z, u = tb - 1j * delta, -1j * delta / tb
        d = -0.5j * delta * np.log(tb / (2.0 * math.pi)) + 1.0 / (48.0 * z) + 7.0 / (5760.0 * z**3)
        d = d + 31.0 / (80640.0 * z**5) + 0.5 * tb * (u**2 / 2.0 - u**3 / 6.0 + u**4 / 12.0 - u**5 / 20.0)
        tilt = np.exp(-2j * d)
        rotation = _siegel_rotation_before(tb)
        r_x, conj_r_y = r[:, 0] + 1j * r[:, 2], r[:, 1] - 1j * r[:, 3]
        correction = np.where(m % 2.0 == 1.0, 1.0, -1.0) * (a**-sigma * r_x + tilt * a ** (sigma - 1.0) * conj_r_y)
        out[lo : lo + step] = sums[:, 0] + rotation * (correction + rotation * tilt * np.conj(sums[:, 1]))
    return out


@pytest.mark.parametrize("T", [500.0, 1000.0, 2000.0, 1e4, 1e5])
def test_riemann_siegel_kernel_stays_near_the_former_kernel(T):
    # Measured at most 4.8e-18 T max(|zeta|, 1) apart on these points; the
    # limit is that of the mpmath tests above.
    t = np.random.default_rng(int(T)).uniform(T, 2.0 * T, 600)
    for sigma in (0.0, 0.26, 0.4, 0.49, 0.5, 0.75, 1.0):
        terms = special._rs_terms(sigma, float(t.min()))
        expected = _zeta_rs_before(sigma, t, terms)
        got = special._zeta_rs(sigma, t, terms)
        assert np.all(np.abs(got - expected) <= 1e-16 * T * np.maximum(np.abs(expected), 1.0)), f"sigma={sigma}"


def test_riemann_siegel_polynomials_omit_below_1e_17(monkeypatch):
    # The powers of p above _RS_DEGREE that the kernel drops, summed for |p|
    # <= 1, at the four lowest heights it serves (m = 8 at t = 500): at
    # most 4.6e-19 measured.  Formed at the Taylor table's full width; the
    # powers beyond it are below 1e-30.
    kept = special._RS_DEGREE
    monkeypatch.setattr(special, "_RS_DEGREE", special._RS_TAYLOR_WIDTH - 1)
    lowest = math.floor(math.sqrt(special.RS_MIN_HEIGHT / (2.0 * math.pi)))
    heights = np.arange(lowest, lowest + 4)
    worst = 0.0
    for sigma in np.linspace(*special.RS_SIGMA_BAND, 21):
        for terms in range(1, special._RS_MAX_TERMS + 1):
            coefficients = special._rs_polynomials(float(sigma), terms, heights)
            worst = max(worst, float(np.abs(coefficients[:, :, kept + 1 :]).sum(axis=2).max()))
    assert worst <= 1e-17


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_against_mpmath():
    points = [0.05, 0.2, 0.4999, 0.5001, 1.0, 2.5, 7.3, 20.0, -0.2, -1.5, -6.3]
    for x in points:
        mine = gamma(x)
        ref = float(mpmath.gamma(mpmath.mpf(x)))
        assert mine == pytest.approx(ref, rel=5e-12)
    for z in (complex(0.5, 3.0), complex(-0.3, 1.2), complex(2.0, -5.0)):
        mine = gamma(z)
        ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
        assert abs(mine - ref) <= 5e-12 * abs(ref)


def test_gamma_reflection_identity_and_poles():
    for x in (0.13, 0.37, 0.49):
        lhs = gamma(x) * gamma(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(ValidationError):
            gamma(bad)


def test_gamma_reflects_to_the_edge_of_its_domain_and_refuses_an_overflow_by_name():
    # The reflection's 1 - z reaches |1 - z| = 141 inside the Lanczos kernel's
    # domain: gamma(-139.5) was refused as "got z = (140.5+0j)".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-139.5, complex(-139.5, 0.5), -0.5 - 139.99j):
            ref = complex(mpmath.gamma(mpmath.mpc(complex(z).real, complex(z).imag)))
            assert abs(gamma(z) - ref) <= 1e-10 * abs(ref), z
        # gamma(5e-324) was inf and gamma(-1e-310) -inf.
        for z in (5e-324, -1e-310, complex(5e-324, 0.0)):
            with pytest.raises(ValidationError, match=re.escape(f"gamma overflows a float at z = {z!r}")):
                gamma(z)


# ---------------------------------------------------------------------------
# bessel
# ---------------------------------------------------------------------------


_ROW = {"K": 0, "Y": 1, "J": 2}  # the rows of bessel(nu, x)


def _bessel_ref(kind: str, nu: float, x: float) -> float:
    f = {"J": mpmath.besselj, "Y": mpmath.bessely, "K": mpmath.besselk}[kind]
    return float(f(mpmath.mpf(nu), mpmath.mpf(x)))


def _bessel_grid() -> np.ndarray:
    seams = [X_SWITCH_ASYMPTOTIC * (1 + eps) for eps in (-1e-3, 0.0, 1e-3)]
    return np.unique(np.concatenate([np.geomspace(0.05, 500.0, 40), np.array(seams)]))


@pytest.mark.parametrize("nu", [0.35, 0.55, 0.8, 0.95, 1.0, 1.002, 1.05, 1.15])
def test_bessel_against_mpmath(nu):
    xs = _bessel_grid()
    for kind in ("J", "Y", "K"):
        ours = bessel(nu, xs)[_ROW[kind]]
        for x, mine in zip(xs, ours):
            ref = _bessel_ref(kind, nu, float(x))
            if kind == "K":
                assert mine == pytest.approx(ref, rel=5e-9), f"K nu={nu} x={x}"
            else:
                envelope = math.sqrt(2.0 / (math.pi * float(x)))
                scale = max(abs(ref), envelope)
                assert abs(mine - ref) <= 5e-9 * scale, f"{kind} nu={nu} x={x}"


@pytest.mark.parametrize("nu", [0.35, 0.5, 0.8, 0.996, 0.999, 1.0, 1.001, 1.004, 1.15])
def test_bessel_integrals_against_mpmath_below_the_switch(nu):
    # The integral representations hold at every order: near the integer the
    # reflection formulas' continuation in the order was off by 1.08e-8.
    xs = np.concatenate([np.geomspace(1e-5, X_SWITCH_ASYMPTOTIC, 60), [2.0**-20]])
    ours = bessel(nu, xs)
    for kind in ("J", "Y", "K"):
        for x, mine in zip(xs, ours[_ROW[kind]]):
            ref = _bessel_ref(kind, nu, float(x))
            scale = abs(ref) if kind == "K" else max(abs(ref), math.sqrt(2.0 / (math.pi * float(x))))
            assert abs(mine - ref) <= 1e-12 * scale, f"{kind} nu={nu} x={x}"


def test_bessel_half_order_closed_forms():
    xs = np.geomspace(0.1, 60.0, 25)
    k, y, j = bessel(0.5, xs)
    pref = np.sqrt(2.0 / (np.pi * xs))
    assert np.max(np.abs(j - pref * np.sin(xs))) <= 5e-9 * np.max(pref)
    assert np.max(np.abs(y + pref * np.cos(xs))) <= 5e-9 * np.max(pref)
    kref = np.sqrt(np.pi / (2.0 * xs)) * np.exp(-xs)
    assert np.max(np.abs(k - kref) / kref) <= 5e-9


def test_bessel_domain_guards():
    with pytest.raises(ValidationError):
        bessel(NU_BAND[0] - 0.01, np.array([1.0]))
    with pytest.raises(ValidationError):
        bessel(0.8, np.array([1.0, 0.0]))
    # Below the floor the integration nodes would grow without bound.
    with pytest.raises(ValidationError, match=r"x >= 2\*\*-20, got min x = 4\.76"):
        bessel(0.8, np.array([1.0, 2.0**-21]))


def _k_large_loop(nu: float, x: np.ndarray) -> np.ndarray:
    """The large-x branch of ``bessel``'s K row as its own loop, kept as the
    oracle for the one pass that serves every kind."""
    mu = 4.0 * nu * nu
    total = np.ones_like(x)
    term = np.ones_like(x)
    prev_mag = np.full(x.shape, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 41):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / (k * 8.0 * x)
        mag = np.abs(term)
        active = active & (mag < prev_mag) & (mag > 1e-18)
        total = np.where(active, total + term, total)
        prev_mag = mag
        if not active.any():
            break
    return np.sqrt(0.5 * math.pi / x) * np.exp(-x) * total


def test_bessel_k_large_branch_bit_identical_to_its_own_loop():
    x = 13.0 + (1e5 - 13.0) * np.arange(1, 20_002) / 20_001
    for nu in np.linspace(NU_BAND[0], NU_BAND[1], 41):
        assert _same_bits(bessel(float(nu), x)[_ROW["K"]], _k_large_loop(float(nu), x)), f"nu={nu}"


def _jy_large_loop(kind: str, nu: float, x: np.ndarray) -> np.ndarray:
    """The large-x branch of ``bessel``'s J and Y rows as one kind
    per call over its own masked term loop: the oracle for the one pass that
    serves every kind."""
    mu = 4.0 * nu * nu
    p, q = np.ones_like(x), np.zeros_like(x)
    term = np.ones_like(x)
    prev_mag = np.full(x.shape, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 41):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / (k * 8.0 * x)
        mag = np.abs(term)
        active = active & (mag < prev_mag) & (mag > 1e-18)
        masked = np.where(active, term, 0.0)
        if k % 4 == 1:
            q += masked
        elif k % 4 == 2:
            p -= masked
        elif k % 4 == 3:
            q -= masked
        else:
            p += masked
        prev_mag = mag
        if not active.any():
            break
    omega = x - (0.5 * nu + 0.25) * math.pi
    c, s = np.cos(omega), np.sin(omega)
    amp = np.sqrt(2.0 / (math.pi * x))
    return amp * (p * c - q * s) if kind == "J" else amp * (p * s + q * c)


def _bessel_per_kind(kind: str, nu: float, x: np.ndarray) -> np.ndarray:
    """``bessel(nu, x)[_ROW[kind]]`` as it was formed one kind per call: the
    same integrals up to the switch, and the oracle loops above it."""
    out = np.empty_like(x)
    lo = x <= X_SWITCH_ASYMPTOTIC
    out[lo] = special._bessel_small(nu, x[lo])[_ROW[kind]]
    out[~lo] = _k_large_loop(nu, x[~lo]) if kind == "K" else _jy_large_loop(kind, nu, x[~lo])
    return out


# Orders across the band, the zero first term at nu = 0.5, and orders close to
# the integer on both sides.
_ONE_PASS_ORDERS = sorted(
    {*np.linspace(NU_BAND[0], NU_BAND[1], 17).tolist(), 0.5, 0.996, 0.9999, 1.0, 1.0001, 1.004, 1.006}
)


def test_bessel_one_pass_bit_identical_to_one_kind_per_call():
    seams = [X_SWITCH_ASYMPTOTIC * (1.0 + e) for e in (-1e-15, 0.0, 1e-15)]
    x = np.concatenate([np.geomspace(0.05, 5000.0, 401), np.linspace(10.0, 14.0, 97), seams])
    for nu in _ONE_PASS_ORDERS:
        stacked = bessel(nu, x)
        assert stacked.shape == (3, x.size)
        for kind in "KYJ":
            expected = _bessel_per_kind(kind, nu, x)
            assert _same_bits(np.ascontiguousarray(stacked[_ROW[kind]]), expected), f"{kind} nu={nu}"


def test_cis_bit_identical_to_complex_exp():
    rng = np.random.default_rng(20261018)
    theta = np.concatenate(
        [
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.pi, -math.pi, 1e5 * math.log(4000.0)],
            rng.uniform(0.0, 1e5 * math.log(4000.0), 200_000),
            rng.uniform(-2e5, 0.0, 100_000),
            rng.uniform(-10.0, 10.0, 100_000),
        ]
    )
    assert _same_bits(special.cis(theta), np.exp(1j * theta))
    assert _same_bits(special.cis(theta, -1), np.exp(-1j * theta))
    # Written into a caller's buffer of another shape, as the Dirichlet sum does.
    grid = theta[:300_000].reshape(600, 500)
    buffer = np.empty(grid.shape, dtype=np.complex128)
    assert special.cis(grid, -1, out=buffer) is buffer
    assert _same_bits(buffer, np.exp(grid * -1j))


@pytest.mark.parametrize("length", [1, 2, 16])
def test_dirichlet_sum_short_sums_bit_identical_to_one_shot(length, monkeypatch):
    # Short sums take blocks of many rows; the bits stay those of one product.
    rng = np.random.default_rng(length)
    log_n = np.log(np.arange(1, length + 1, dtype=np.float64))
    amp = rng.normal(size=length) + 1j * rng.normal(size=length)
    assert special._BLOCK_CELLS // (special._ROW_BLOCK * length) > 1
    for size in (1, 2, 65, 1025, 8193, 7680):
        t = rng.uniform(-300.0, 2000.0, size)
        expected = np.exp(-1j * np.multiply.outer(t, log_n)) @ amp
        for threads in (1, 2):
            monkeypatch.setattr(special, "usable_cpus", lambda threads=threads: threads)
            assert _same_bits(dirichlet_sum(t, log_n, amp), expected), f"size={size}, threads={threads}"


def test_dirichlet_sum_row_blocks_start_at_multiples_of_64(monkeypatch):
    # The rule that keeps every row on the same BLAS gemv path as in one
    # product.  A gemv that gives equal bits at any row offset lets the
    # oracle tests above pass with blocks that start elsewhere.
    row_blocks = special._row_blocks
    seen = []

    def spy(size, step):
        blocks = row_blocks(size, step)
        seen.append((size, blocks))
        return blocks

    monkeypatch.setattr(special, "_row_blocks", spy)
    rng = np.random.default_rng(64)
    for columns in (1, 2, 16, 19, 300, 4000):
        log_n = np.log(np.arange(1, columns + 1, dtype=np.float64))
        for size in (1, 2, 64, 65, 129, 7680, 8193):
            dirichlet_sum(rng.uniform(0.0, 100.0, size), log_n, np.ones(columns))
    assert len(seen) == 42
    for size, blocks in seen:
        assert [lo for lo, _ in blocks] == sorted({lo for lo, _ in blocks})
        assert all(lo % special._ROW_BLOCK == 0 for lo, _ in blocks), size
        assert blocks[0][0] == 0 and blocks[-1][1] == size
        assert all(hi - lo > 1 for lo, hi in blocks) or size == 1, size


# ---------------------------------------------------------------------------
# The Dirichlet-sum pool
# ---------------------------------------------------------------------------

# 7 000 ordinates below the Riemann-Siegel switch: 110 row blocks of zeta's
# Euler-Maclaurin main sum, dealt into two shares.
_POOL_BATCH = np.random.default_rng(7000).uniform(0.0, 400.0, 7000)
_SUITE = Path(__file__).resolve().parent.parent / "scenarios" / "suite.ini"


@pytest.fixture
def two_cpu_pool(monkeypatch):
    """Two shares per sum and a new pool of one worker, as on a 2-CPU host,
    so that the pool runs a share on any host."""
    monkeypatch.setattr(special, "usable_cpus", lambda: 2)
    pool = special._new_pool()
    monkeypatch.setattr(special, "_POOL", pool)
    yield pool
    pool.shutdown()


def _thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started from now on in this test."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def test_dirichlet_pool_starts_its_worker_once(two_cpu_pool, monkeypatch, tmp_path):
    started = _thread_starts(monkeypatch)
    zeta_line(0.4, _POOL_BATCH)
    assert started == ["dirichlet_sum_0"]
    started.clear()
    zeta_line(0.4, _POOL_BATCH)
    n = np.arange(1.0, 801.0)
    dirichlet_sum(_POOL_BATCH, np.log(n), n**-0.4)
    run_suite(_SUITE, tmp_path, workers=1)
    # Only the suite's one scenario thread.
    assert [name for name in started if name.startswith("dirichlet_sum")] == []
    assert len(started) == 1


def test_riemann_siegel_runs_on_the_calling_thread(two_cpu_pool, monkeypatch):
    # Its bits do not depend on the CPU count, and a batch of four blocks
    # starts no thread.
    t = np.random.default_rng(7680).uniform(1000.0, 2000.0, 7680)
    started = _thread_starts(monkeypatch)
    two = zeta_line(0.4, t)
    monkeypatch.setattr(special, "usable_cpus", lambda: 1)
    assert _same_bits(zeta_line(0.4, t), two)
    assert started == []


def test_no_committed_report_reaches_riemann_siegel(monkeypatch, tmp_path):
    # Every node of the committed scenarios lies below RS_MIN_HEIGHT, so no
    # report byte depends on _zeta_rs; its bits are free to change while its
    # mpmath tests hold.
    calls = []
    kernel = special._zeta_rs

    def spy(sigma, t, terms):
        calls.append(t.size)
        return kernel(sigma, t, terms)

    monkeypatch.setattr(special, "_zeta_rs", spy)
    run_suite(_SUITE, tmp_path, workers=1)
    assert calls == []


def test_no_committed_report_reaches_the_bessel_integrals(monkeypatch, tmp_path):
    # Every Voronoi argument of the committed scenarios lies above
    # X_SWITCH_ASYMPTOTIC, so no report byte depends on _bessel_small.
    calls = []
    kernel = special._bessel_small

    def spy(nu, x):
        calls.append(x.size)
        return kernel(nu, x)

    monkeypatch.setattr(special, "_bessel_small", spy)
    run_suite(_SUITE, tmp_path, workers=1)
    assert calls == []


def test_one_block_polynomial_starts_no_thread(two_cpu_pool, monkeypatch):
    started = _thread_starts(monkeypatch)
    # Two columns take blocks of 8 192 rows: the batch is one block.
    DirichletPolynomial((1.0, -0.5)).evaluate(0.4, _POOL_BATCH)
    assert started == []


def test_an_empty_dirichlet_sum_is_zero(two_cpu_pool, monkeypatch):
    # It used to raise ZeroDivisionError in the block-size division.
    started = _thread_starts(monkeypatch)
    out = dirichlet_sum(_POOL_BATCH, np.array([]), np.array([]))
    assert out.shape == _POOL_BATCH.shape and not out.any()
    assert started == []


def _send_zeta_line(conn) -> None:
    conn.send_bytes(zeta_line(0.4, _POOL_BATCH).tobytes())
    conn.close()


# Python 3.12 warns at os.fork() in a process with threads; the child here
# touches none of the parent's threads, only the pool the fork hook gives it.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_gets_a_new_dirichlet_pool(two_cpu_pool):
    # Without a new pool the child's first share waits for a worker that
    # was not forked with it.
    expected = zeta_line(0.4, _POOL_BATCH)
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_send_zeta_line, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(30.0), "the forked child gave no zeta_line within 30 s"
        got = np.frombuffer(receive.recv_bytes(), dtype=np.complex128)
    finally:
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child was still alive")
    assert _same_bits(got, expected)
