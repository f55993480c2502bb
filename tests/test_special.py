"""High-precision oracle and branch-seam tests for the special-function kernels.

Oracles are computed with mpmath at 200 bits, independently of the library
code.  For J and Y the error is measured against the oscillation envelope
``sqrt(2/(pi x))`` instead of the pointwise value, since a relative error at
a zero crossing is meaningless; K has no zeros and uses plain relative error.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from zetastrip import special
from zetastrip.errors import PrecisionError, ValidationError
from zetastrip.special import (
    _LINE_CHUNK,
    NEAR_INTEGER_DELTA,
    NU_BAND,
    X_SWITCH_JY,
    X_SWITCH_K,
    _em_cutoff,
    _main_sum,
    arcsinh,
    bessel,
    gamma,
    zeta,
    zeta_line,
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


def test_zeta_pole_and_remainder_guard():
    with pytest.raises(ValidationError):
        zeta(1.0)
    # Strongly negative real part defeats the Bernoulli tail at any feasible
    # cutoff: the guard must refuse rather than return garbage.
    with pytest.raises(PrecisionError):
        zeta(complex(-12.0, 0.0))


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
    ``_main_sum`` must reproduce its bits.
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
}


@pytest.mark.parametrize("name", sorted(_LINE_INPUTS))
def test_zeta_line_main_sum_bit_identical_to_one_shot(name, monkeypatch):
    t = _LINE_INPUTS[name]
    flat = np.abs(np.ravel(t))
    n_cut = _em_cutoff(float(flat.max()) if flat.size else 0.0)
    if name == "column_chunks":
        assert n_cut - 1 > 2 * (_LINE_CHUNK // flat.size)
    expected = _main_sum_one_shot(0.4, flat, n_cut)
    for threads in (1, 2):
        assert _same_bits(_main_sum(0.4, flat, n_cut, threads), expected), f"threads={threads}"
    # The whole line (Euler-Maclaurin tail, sign fold, shape) on top of the
    # one-shot sum gives the same bits as the library's.
    blocked = zeta_line(0.4, t)
    monkeypatch.setattr(special, "_main_sum", lambda sigma, t, n_cut, threads: _main_sum_one_shot(sigma, t, n_cut))
    assert _same_bits(blocked, zeta_line(0.4, t))
    assert blocked.shape == np.shape(t)


@pytest.mark.parametrize("T", [250.0, 1000.0, 4000.0])
def test_zeta_line_against_mpmath_at_large_height(T):
    # Phase rounding in the main sum grows the absolute error like T times
    # machine epsilon (measured: 9e-13, 1.3e-12, 1.8e-11 at sigma = 0.3).
    t = T + np.array([0.0, 0.37, 1.1, 2.9, 7.3])
    for sigma in (0.3, 0.4):
        line = zeta_line(sigma, t)
        for ti, vi in zip(t, line):
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, float(ti))))
            assert abs(vi - ref) <= 2e-14 * T, f"sigma={sigma}, t={ti}"


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


# ---------------------------------------------------------------------------
# bessel
# ---------------------------------------------------------------------------


def _bessel_ref(kind: str, nu: float, x: float) -> float:
    f = {"J": mpmath.besselj, "Y": mpmath.bessely, "K": mpmath.besselk}[kind]
    return float(f(mpmath.mpf(nu), mpmath.mpf(x)))


def _bessel_grid() -> np.ndarray:
    seams = [X_SWITCH_JY * (1 + eps) for eps in (-1e-3, 0.0, 1e-3)]
    seams += [X_SWITCH_K * (1 + eps) for eps in (-1e-3, 0.0, 1e-3)]
    return np.unique(np.concatenate([np.geomspace(0.05, 500.0, 40), np.array(seams)]))


@pytest.mark.parametrize("nu", [0.35, 0.55, 0.8, 0.95, 1.0, 1.0 + 0.4 * NEAR_INTEGER_DELTA, 1.05, 1.15])
def test_bessel_against_mpmath(nu):
    xs = _bessel_grid()
    for kind in ("J", "Y", "K"):
        ours = bessel(kind, nu, xs)
        for x, mine in zip(xs, ours):
            ref = _bessel_ref(kind, nu, float(x))
            if kind == "K":
                assert mine == pytest.approx(ref, rel=5e-9), f"K nu={nu} x={x}"
            else:
                envelope = math.sqrt(2.0 / (math.pi * float(x)))
                scale = max(abs(ref), envelope)
                assert abs(mine - ref) <= 5e-9 * scale, f"{kind} nu={nu} x={x}"


def test_bessel_half_order_closed_forms():
    xs = np.geomspace(0.1, 60.0, 25)
    j = bessel("J", 0.5, xs)
    y = bessel("Y", 0.5, xs)
    k = bessel("K", 0.5, xs)
    pref = np.sqrt(2.0 / (np.pi * xs))
    assert np.max(np.abs(j - pref * np.sin(xs))) <= 5e-9 * np.max(pref)
    assert np.max(np.abs(y + pref * np.cos(xs))) <= 5e-9 * np.max(pref)
    kref = np.sqrt(np.pi / (2.0 * xs)) * np.exp(-xs)
    assert np.max(np.abs(k - kref) / kref) <= 5e-9


def test_bessel_domain_guards():
    with pytest.raises(ValidationError):
        bessel("J", NU_BAND[0] - 0.01, 1.0)
    with pytest.raises(ValidationError):
        bessel("I", 0.8, 1.0)
    with pytest.raises(ValidationError):
        bessel("J", 0.8, 0.0)


def test_bessel_scalar_return():
    assert isinstance(bessel("J", 0.8, 2.0), float)


def _k_large_loop(nu: float, x: np.ndarray) -> np.ndarray:
    """The large-x branch of ``bessel("K")`` as its own loop, kept as the
    oracle for the shared term generator."""
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
        assert _same_bits(bessel("K", float(nu), x), _k_large_loop(float(nu), x)), f"nu={nu}"
