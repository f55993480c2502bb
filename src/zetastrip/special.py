"""Special functions on the exact domains the pipeline needs.

Everything here is implemented directly in binary64 (no scipy/mpmath at
runtime) so that accuracy contracts, branch switches, and failure modes are
explicit and testable:

* ``zeta``       -- Riemann zeta via Euler--Maclaurin with Bernoulli
                    corrections through B10 at a cutoff N, or 4 N where the
                    remainder bound fails at N; :class:`PrecisionError`
                    where it exceeds ``_ZETA_ABS_TOL`` at 4 N too.
* ``zeta_line``  -- vectorised ``zeta(sigma + i t)`` along a fixed real part,
                    the quadrature integrand workhorse: Euler--Maclaurin
                    under ``zeta``'s cutoff rule, bound and tail below
                    ``RS_MIN_HEIGHT`` = 500 (and off ``RS_SIGMA_BAND``),
                    Riemann--Siegel from there on, about ``2 sqrt(t / 2 pi)``
                    main-sum terms per point in place of ``2 t``.
                    ``zeta_terms`` counts either kernel for work limits.
                    The scalar ``zeta`` stays Euler--Maclaurin.
* ``dirichlet_sum`` -- ``sum_j amp[j] exp(-i t log_n[j])`` over a batch of
                    ``t``: zeta_line's main sum and the Dirichlet polynomial
                    ``A(sigma + i t)`` both run through it, in cache-sized
                    row blocks dealt over one thread per usable CPU, with
                    the bits of one ``exp`` outer product per column chunk.
* ``cis``        -- ``exp(+-1j theta)`` bit for bit from one cos and one sin,
                    for the Dirichlet sum and the saddle integrands.
* ``gamma``      -- Lanczos approximation (g = 7, 9 coefficients) with
                    reflection for ``Re z < 1/2``; relative accuracy ~1e-13.
* ``arcsinh``    -- log1p-based formula, and ``log 2|x|`` where ``x^2``
                    overflows.
* ``bessel``     -- rows K, Y, J of real order in the band [0.35, 1.15] on a
                    1-d array of x in [2**-20, 2**25]: up to one switch
                    point, x = 13, the integral representations (DLMF
                    10.32.9, 10.9.7, 10.9.6) by Gauss--Legendre rules, valid
                    at every order, integer orders included; above it the
                    Hankel expansions, one asymptotic pass serving all three.

Measured worst-case errors on the supported grids (see the test suite):
zeta relative error < 1e-9 for sigma in [-0.5, 2], |Im s| <= 1e4 away from
zeros of zeta (near a zero the absolute error is what matters: < 1e-10 for
sigma >= 0.3; phase rounding in the main sum grows it like |Im s| times
machine epsilon for negative sigma, reaching ~5e-7 absolute at
sigma = -0.5, |Im s| = 1e4); zeta_line's Riemann--Siegel kernel < 1e-16 |Im s|
relative for sigma in [0, 1] (2e-14 on [500, 1000], 3e-12 at 1e5); gamma < 5e-12
relative.  Bessel J and Y, against max(|J|, sqrt(2/(pi x))) (the
oscillation envelope), and K, relative: on x in [1e-5, 13] at most 2e-15
and 4e-15 for nu in {0.35, 0.5, 0.8, 0.996, 0.999, 1, 1.001, 1.004, 1.15};
on (13, 1e4] at most 9e-13 and 5e-13 across the band, growing like x times
machine epsilon for J and Y (the rounding of x in the phase).
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ._env import usable_cpus
from .errors import PrecisionError, ValidationError

__all__ = [
    "arcsinh",
    "zeta",
    "zeta_line",
    "dirichlet_sum",
    "cis",
    "zeta_terms",
    "RS_MIN_HEIGHT",
    "gamma",
    "bessel",
]


# ---------------------------------------------------------------------------
# arcsinh
# ---------------------------------------------------------------------------

# The largest float whose square is finite: sqrt(max) rounds down.
_SQUARE_MAX = math.sqrt(sys.float_info.max)
_LN2 = math.log(2.0)


def arcsinh(x):
    """Inverse hyperbolic sine, scalar or array.

    The cancellation-free form ``log1p(x + x^2/(1 + sqrt(1 + x^2)))``, or
    where ``x^2`` overflows ``log|x| + log 2`` (the rest is below one ulp
    there), both formed on ``|x|`` and restored by odd symmetry.  A
    non-finite ``x`` is refused.
    """
    arr = np.asarray(x, dtype=np.float64)
    ax = np.abs(arr)
    top = float(np.max(ax, initial=0.0))  # NaN if any x is NaN
    if not top < math.inf:
        raise ValidationError(f"arcsinh requires every x finite, got max |x| = {top!r}")
    huge = ax > _SQUARE_MAX  # where x^2 overflows
    ax_safe = np.where(huge, 1.0, ax)
    out = np.sign(arr) * np.log1p(ax_safe + ax_safe * ax_safe / (1.0 + np.sqrt(1.0 + ax_safe * ax_safe)))
    if top > _SQUARE_MAX:  # log branch on |x|, restored by symmetry
        out = np.where(huge, np.sign(arr) * (np.log(np.where(huge, ax, 1.0)) + _LN2), out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Riemann zeta via Euler--Maclaurin
# ---------------------------------------------------------------------------

# B_{2k} for 2k = 2..12; B12 only feeds the remainder estimate.
_B2K = {2: 1.0 / 6.0, 4: -1.0 / 30.0, 6: 1.0 / 42.0, 8: -1.0 / 30.0, 10: 5.0 / 66.0}
_B12_OVER_12FACT = (-691.0 / 2730.0) / math.factorial(12)
_EM_ORDERS = (2, 4, 6, 8, 10)
# Largest accepted Euler--Maclaurin remainder bound (absolute).
_ZETA_ABS_TOL = 1e-12
# Bounds of zeta and zeta_line: |sigma| (beyond, zeta is 1 or no cutoff meets the tolerance), terms per point.
_SIGMA_MAX = 100.0
_POINT_TERMS = 2**22


def zeta(s: complex) -> complex:
    """Riemann zeta at a complex point ``s != 1``.

    Euler--Maclaurin with Bernoulli corrections through B10, at the cutoff
    of :func:`_em_terms`.  A non-finite real part sigma or imaginary part t
    is refused, and so are ``|sigma| > _SIGMA_MAX`` and a cutoff above
    ``_POINT_TERMS``, before any sum is formed.
    """
    s = complex(s)
    for name, part in (("sigma = Re s", s.real), ("t = Im s", s.imag)):
        if not math.isfinite(part):
            raise ValidationError(f"zeta requires a finite {name}, got {part!r}")
    within = abs(s.real) <= _SIGMA_MAX and 2.0 * abs(s.imag) <= _POINT_TERMS
    if not (within and (n_cut := _em_terms(s)) <= _POINT_TERMS):
        raise ValidationError(f"zeta requires at most {_POINT_TERMS} terms, |sigma = Re s| <= {_SIGMA_MAX:g} "
                              f"and 2 |t = Im s| <= {_POINT_TERMS}, got s = {s!r}")
    if s == 1.0:
        raise ValidationError("zeta has a pole at s = 1")
    return _zeta_em_f64(s, n_cut)[0]


def _em_terms(s: complex) -> int:
    """The one Euler--Maclaurin cutoff rule, for :func:`zeta`, :func:`zeta_line`
    (at its largest ordinate) and :func:`zeta_terms`, at a finite ``2 |Im s|``:
    ``N = max(20, ceil(2 |Im s|))`` terms of the main sum, or ``4 N`` where
    the remainder bound :func:`_em_bound` exceeds ``_ZETA_ABS_TOL`` at ``N``;
    a bound that fails at ``4 N`` too raises :class:`PrecisionError`.  An
    ``N`` above ``_POINT_TERMS``, which every caller refuses, is returned
    unchecked."""
    n_cut = max(20, math.ceil(2.0 * abs(s.imag)))
    if n_cut > _POINT_TERMS:
        return n_cut
    if _em_bound(s, n_cut) > _ZETA_ABS_TOL:
        n_cut *= 4
    remainder = _em_bound(s, n_cut)
    if remainder > _ZETA_ABS_TOL:
        raise PrecisionError(
            f"Euler-Maclaurin remainder bound {remainder:.2e} exceeds ZETA_ABS_TOL {_ZETA_ABS_TOL:.2e} "
            f"at s = sigma + i t = {s}"
        )
    return n_cut


def _zeta_em_f64(s: complex, n_cut: int) -> tuple[complex, float]:
    n = np.arange(1, n_cut, dtype=np.float64)
    return _em_tail(complex(np.sum(n ** (-s))), s, n_cut), _em_bound(s, n_cut)


def _em_tail(total, s, n_cut: int):
    """``total`` plus the Euler--Maclaurin tail at cutoff ``n_cut``: the
    integral term, the half term and the B2..B10 corrections, added in that
    order.  ``s`` is one Python complex (for :func:`zeta`) or a complex
    array of the shape of ``total`` (for :func:`zeta_line`); Python's and
    numpy's complex arithmetic may differ in the last bit, so each caller
    keeps its own."""
    total = total + n_cut ** (1.0 - s) / (s - 1.0)
    total = total + 0.5 * n_cut ** (-s)
    rise = 1.0 + 0.0j  # the rising factorial s (s + 1) ... (s + order - 2)
    for order in _EM_ORDERS:
        for j in range(max(0, order - 3), order - 1):
            rise = rise * (s + j)
        total = total + _B2K[order] / math.factorial(order) * rise * n_cut ** (1.0 - s - order)
    return total


def _em_bound(s: complex, n_cut: int) -> float:
    """Size of the first omitted (B12) Euler--Maclaurin term at ``s``: the
    remainder bound checked against ``_ZETA_ABS_TOL``; inf where it
    overflows."""
    rise = 1.0 + 0.0j  # the rising factorial s (s + 1) ... (s + 10)
    for j in range(11):
        rise *= s + j
    try:
        return float(abs(_B12_OVER_12FACT) * abs(rise) * n_cut ** (-s.real - 11.0))
    except OverflowError:  # n_cut ** (...) beyond the floats
        return math.inf


# Complex elements per column chunk of a Dirichlet sum.  The chunk boundaries
# and the per-chunk accumulation order fix the result bits.
_LINE_CHUNK = 4_000_000
# Rows per cache block: 64, or for short sums a multiple of 64 up to about
# _BLOCK_CELLS elements.  Blocks start at multiples of 64, a multiple of the
# row unrolling of BLAS gemv kernels, so each row takes the same kernel path
# as in one product over all rows even where unrolled and remainder paths
# sum in different orders.
_ROW_BLOCK = 64
_BLOCK_CELLS = 16_384


def cis(theta: np.ndarray, sign: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(sign * 1j * theta)`` for real ``theta`` and ``sign = +-1``, bit
    for bit: the complex exp of ``0 + i y`` is ``cos y + i sin y``, and ``y``
    is ``theta + 0.0`` for ``1j * theta``, ``-theta`` for ``-1j * theta``.
    ``y``, its cos and its sin go straight into the halves of ``out`` (a new
    complex array by default), with no complex multiply and no exp;
    ``theta`` may be ``out.imag`` itself.  Unchecked: every caller hands it finite ``theta``."""
    out = np.empty(np.shape(theta), dtype=np.complex128) if out is None else out
    if sign > 0:
        np.add(theta, 0.0, out=out.imag)
    else:
        np.negative(theta, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _row_blocks(size: int, step: int) -> list[tuple[int, int]]:
    """Row ranges of ``step`` rows for ``size >= 1`` rows.

    A last block of one row joins the block before it: numpy sends a
    one-row product to BLAS ``dot``, which sums in another order than
    ``gemv``.
    """
    starts = list(range(0, size, step))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [size]))


def _new_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=max(1, usable_cpus() - 1), thread_name_prefix="dirichlet_sum")


# The one pool of every Dirichlet sum in the process.  Its threads start when
# a sum first hands it a share, and stay for the process; a forked child has
# none of them, so it gets a new pool.
_POOL = _new_pool()


def _renew_pool() -> None:
    global _POOL
    _POOL = _new_pool()


if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_renew_pool)


def dirichlet_sum(t: np.ndarray, log_n: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """``sum_j amp[j] exp(-i t log_n[j])`` for each entry of the 1-d ``t``.

    The Dirichlet sum ``sum_n c_n n^(-sigma - i t)`` of zeta's main sum
    (``amp = n^-sigma``) and of a Dirichlet polynomial (``amp = a(m)
    m^-sigma``).  The result is bit-identical to one ``exp(-1j * outer(t,
    log_n)) @ amp`` product over all rows per column chunk of ``_LINE_CHUNK
    // t.size`` columns, summed chunk by chunk, its ``exp`` formed by
    :func:`cis`.  The rows are cut into blocks (see :func:`_row_blocks`)
    whose results do not depend on the cut, and the blocks are dealt into
    one share per usable CPU (numpy releases the GIL in ``cos``, ``sin``
    and ``matmul``).  The calling thread runs the first share and the
    process's pool the others, so a sum of one block starts no thread, and
    an empty one (no ``t`` or no terms) is zeros.
    Each share holds one complex128 buffer of the largest block, the
    products ``t log_n`` written into its imaginary half for :func:`cis`:
    at most ``max(65 * columns, _BLOCK_CELLS + columns)`` elements for
    ``columns = min(chunk, log_n.size)`` and never more than
    ``_LINE_CHUNK``; for a 7 680-point batch that is under 1 MB.  Every
    caller hands it finite values, so none is checked.
    """
    out = np.zeros(t.size, dtype=np.complex128)
    if t.size == 0 or log_n.size == 0:
        return out
    chunk = max(1, _LINE_CHUNK // t.size)
    columns = [(log_n[lo : lo + chunk], amp[lo : lo + chunk]) for lo in range(0, log_n.size, chunk)]
    width = min(chunk, log_n.size)
    blocks = _row_blocks(t.size, _ROW_BLOCK * max(1, _BLOCK_CELLS // (_ROW_BLOCK * width)))
    cells = max(hi - lo for lo, hi in blocks) * width

    def run(share: list[tuple[int, int]]) -> None:
        terms = np.empty(cells, dtype=np.complex128)
        for lo, hi in share:
            for log_c, amp_c in columns:
                z = terms[: (hi - lo) * log_c.size].reshape(hi - lo, log_c.size)
                np.multiply.outer(t[lo:hi], log_c, out=z.imag)
                out[lo:hi] += cis(z.imag, -1, out=z) @ amp_c

    shares = min(usable_cpus(), len(blocks))
    futures = [_POOL.submit(run, blocks[k::shares]) for k in range(1, shares)]
    try:
        run(blocks[::shares])
    finally:
        wait(futures)  # the pool's shares write into out
    for future in futures:
        future.result()
    return out


def zeta_line(sigma: float, t) -> np.ndarray:
    """Vectorised ``zeta(sigma + i t)`` for an array of real ordinates ``t``.

    Negative ordinates are folded by conjugation symmetry.  Two kernels
    share a batch:

    * Points with ``|t| >= RS_MIN_HEIGHT`` and ``sigma`` in ``RS_SIGMA_BAND``
      take Riemann--Siegel (:func:`_zeta_rs`): about ``2 sqrt(t / 2 pi)``
      main-sum terms each and a correction series truncated where the bound
      of its omitted terms is at most ``RS_TRUNCATION_TOL``; a failing bound
      raises :class:`PrecisionError` naming Riemann--Siegel, ``t`` and
      ``sigma``.  Against mpmath its relative error is at most about 2e-14
      on [500, 1000] and 3e-12 at ``t = 1e5``, 20 to 1 000 times below
      Euler--Maclaurin's on [500, 4000].
    * The other points take Euler--Maclaurin with the shared cutoff of
      :func:`_em_terms` at their largest ``|t|``.

    Both bounds are checked before any main sum is formed.  The
    Euler--Maclaurin main sum is one :func:`dirichlet_sum` with the bits of
    the one-shot product, so a sub-switch point's value depends only on the
    number and largest ordinate of the sub-switch points in its batch, and
    a batch below the switch has the bits of Euler--Maclaurin alone.  A
    non-finite ``sigma`` or ``2 |t|`` is refused before any sum, and so are
    ``|sigma| > _SIGMA_MAX`` and ``zeta_terms(sigma, 0, max|t|) >
    _POINT_TERMS``.
    """
    if not math.isfinite(sigma):
        raise ValidationError(f"zeta_line requires a finite sigma, got {sigma!r}")
    t_arr = np.asarray(t, dtype=np.float64)
    flat = np.abs(t_arr.ravel())
    t_top = float(np.max(flat, initial=0.0))  # NaN if any t is NaN
    if not 2.0 * t_top < math.inf:
        raise ValidationError(f"zeta_line requires a finite 2 |t| at every t, got max |t| = {t_top!r}")
    if not (abs(sigma) <= _SIGMA_MAX and zeta_terms(sigma, 0.0, t_top) <= _POINT_TERMS):
        raise ValidationError(f"zeta_line requires |sigma| <= {_SIGMA_MAX:g} and at most {_POINT_TERMS} terms "
                              f"per point, got sigma = {sigma!r}, max |t| = {t_top!r}")
    high = _uses_rs(sigma, flat)
    low = flat[~high]
    n_cut = _em_terms(sigma + 1j * (float(low.max()) if low.size else 0.0))
    terms = _rs_terms(sigma, float(flat[high].min())) if high.any() else 0
    out = np.empty(flat.size, dtype=np.complex128)
    n = np.arange(1, n_cut, dtype=np.float64)
    out[~high] = _em_tail(dirichlet_sum(low, np.log(n), n ** (-sigma)), sigma + 1j * low, n_cut)
    if terms:
        out[high] = _zeta_rs(sigma, flat[high], terms)
    out = np.where(np.ravel(t_arr) < 0.0, np.conj(out), out)
    return out.reshape(t_arr.shape)


# ---------------------------------------------------------------------------
# Riemann--Siegel for zeta_line above RS_MIN_HEIGHT
# ---------------------------------------------------------------------------

#: Ordinates from which :func:`zeta_line` takes the Riemann--Siegel kernel.
#: At 500 its correction series needs 15 or 16 terms, and on [500, 1000] it
#: is 20 to 600 times closer to mpmath than Euler--Maclaurin.  Its truncation
#: bound alone would allow about 215, but below 500 the kernel would reach
#: the nodes of theorem1's [250, 500] window and move the last bits of its
#: report's detail strings, which the reference gate still compares exactly.
RS_MIN_HEIGHT = 500.0
#: Real parts for which it does (the band its mpmath tests cover).
RS_SIGMA_BAND = (0.0, 1.0)
#: Largest accepted bound of the omitted correction terms.
RS_TRUNCATION_TOL = 1e-15
_RS_MAX_TERMS = 20
# Taylor coefficients c_0, c_2, ..., c_58 of the even entire function
# F(z) = (exp(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z / 2)) / (2 cos(pi z))
# (Arias de Reyna, Math. Comp. 80 (2011), eq. (47)), rounded from mpmath's
# rszeta.coef at 300 bits; the next one is below 1e-32.
_RS_F_TAYLOR = (
    (0.1913417161825449, -0.24516701493090415), (0.21862023403876021, -0.036933834884962956),
    (0.06618828774017176, 0.06353439385614602), (-0.006802513023837094, 0.027223912663570066),
    (-0.0067838109850517905, 0.001385760877106652), (-0.0008118626615722327, -0.001189449446101378),
    (0.00014852676866689845, -0.00021269820192893323), (3.971650439760735e-05, 1.1171327401990151e-05),
    (2.3278062307252252e-07, 5.87285839865207e-06), (-7.163625815477553e-07, 2.498212552923518e-07),
    (-5.177423556156473e-08, -7.308700305101552e-08), (6.178963541930869e-09, -7.53679144816402e-09),
    (8.940541928977453e-10, 4.1044257973312284e-10), (-1.695707194963518e-11, 9.106559550294084e-11),
    (-8.163316951282953e-12, 4.3480990952496187e-13), (-1.8925546592706103e-13, -6.52091326154013e-13),
    (4.6637116296008625e-14, -2.574698839194822e-14), (2.6109215079890685e-15, 2.9783351960862874e-15),
    (-1.675336536372132e-16, 2.241756964196517e-16), (-1.7062132614058632e-17, -7.993661378773457e-18),
    (2.8756016707161996e-19, -1.1768943516467545e-18), (7.447650681605753e-20, 3.424141569957982e-21),
    (6.282686358510708e-22, 4.354432465678006e-21), (-2.360647625071713e-22, 8.042677010875067e-23),
    (-6.63453468151981e-24, -1.187404814328495e-23), (5.526719997560709e-25, -4.533873522499421e-25),
    (2.7498231887637325e-26, 2.3622132419636895e-26), (-9.115688251159012e-28, 1.524413235942887e-27),
    (-7.84470186886044e-29, -3.0537676963256187e-29), (7.919817544119006e-31, -3.7815907075540576e-30),
)
# Width of the Taylor table: derivatives of F up to order 3 (_RS_MAX_TERMS - 1)
# are formed from it exactly.
_RS_TAYLOR_WIDTH = 2 * len(_RS_F_TAYLOR)
# Degree at which the kernel cuts the correction R as a polynomial in p,
# |p| <= 1: from t = RS_MIN_HEIGHT the omitted powers add at most 5e-19 for
# every sigma in RS_SIGMA_BAND and every term count up to _RS_MAX_TERMS.
_RS_DEGREE = 40
# Rows per Riemann--Siegel block, and per piece of a block in which the main
# sums and R are formed: _RS_PIECE rows while the main sums have at most
# _BLOCK_CELLS / _RS_PIECE terms, fewer above.
_RS_ROWS = 2048
_RS_PIECE = 512


def _rs_derivatives() -> np.ndarray:
    """Row m: the coefficients in p of the m-th derivative F^(m)(p)."""
    c = np.zeros(_RS_TAYLOR_WIDTH, dtype=np.complex128)
    c[::2] = [complex(*pair) for pair in _RS_F_TAYLOR]
    rows = np.zeros((3 * _RS_MAX_TERMS, _RS_TAYLOR_WIDTH), dtype=np.complex128)
    for m, row in enumerate(rows):
        for j in range(_RS_TAYLOR_WIDTH - m):
            row[j] = c[j + m] * (math.factorial(j + m) // math.factorial(j))
    return rows


_RS_DERIVATIVES = _rs_derivatives()
# ln 2 split so that e * _LN2_HI is exact for |e| < 2**20 (fdlibm's split),
# and 1 + ln(2 pi) as a rounded value and its error.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LN2PI_E_HI, _LN2PI_E_LO = 2.8378770664093453, 1.4447872176368647e-16


def _uses_rs(sigma: float, t_abs: np.ndarray) -> np.ndarray:
    """Which of the ordinates ``|t|`` :func:`zeta_line` sends to Riemann--Siegel."""
    in_band = RS_SIGMA_BAND[0] <= sigma <= RS_SIGMA_BAND[1]
    return (t_abs >= RS_MIN_HEIGHT) & in_band


def zeta_terms(sigma: float, t_lo: float, t_hi: float) -> int:
    """Most main-sum terms :func:`zeta_line` spends on one point with
    ``t_lo <= |t| <= t_hi``: the Euler--Maclaurin cutoff of :func:`_em_terms`
    below the switch, ``2 floor(sqrt(t / 2 pi))`` (both Riemann--Siegel
    sums) at and above it."""
    if not (abs(sigma) <= _SIGMA_MAX and 0.0 <= t_lo <= t_hi and 2.0 * t_hi < math.inf):  # so that NaN fails too
        raise ValidationError(f"zeta_terms requires a finite sigma, |sigma| <= {_SIGMA_MAX:g}, 0 <= t_lo <= t_hi and "
                              f"a finite 2 t_hi, got sigma = {sigma!r}, [t_lo, t_hi] = [{t_lo!r}, {t_hi!r}]")
    if not _uses_rs(sigma, np.float64(t_hi)):
        return _em_terms(sigma + 1j * t_hi)
    rs = 2 * math.floor(math.sqrt(t_hi / (2.0 * math.pi)))
    return rs if t_lo >= RS_MIN_HEIGHT else max(rs, _em_terms(sigma + 1j * RS_MIN_HEIGHT))


def _rs_terms(sigma: float, t_min: float) -> int:
    """Correction terms for a batch whose lowest ordinate is ``t_min``: the
    fewest ``L`` whose omitted-term bound ``3 c Gamma(L/2) (2a)^-L``, ``a =
    sqrt(t / 2 pi)``, ``c = 9^max(sigma, 1 - sigma) / (pi sqrt 2)`` (mpmath's
    Rzeta_simul, for both halves of the formula) is at most
    ``RS_TRUNCATION_TOL``."""
    scale = 3.0 * 9.0 ** max(sigma, 1.0 - sigma) / (math.pi * math.sqrt(2.0))
    two_a = 2.0 * math.sqrt(t_min / (2.0 * math.pi))
    for terms in range(1, _RS_MAX_TERMS + 1):
        bound = scale * math.gamma(0.5 * terms) * two_a ** -terms
        if bound <= RS_TRUNCATION_TOL:
            return terms
    raise PrecisionError(
        f"Riemann-Siegel correction bound {bound:.2e} exceeds RS_TRUNCATION_TOL "
        f"{RS_TRUNCATION_TOL:.0e} after {_RS_MAX_TERMS} terms at t = {t_min!r}, sigma = {sigma!r}"
    )


def _rs_series(sigma: float, terms: int) -> np.ndarray:
    """Row k < ``terms``: the coefficients in p of the k-th correction term
    ``sum_l d_{k,l} F^(3k - 2l)(p) / (pi^(2k - l) (2i)^l)``, with the
    d_{k,l} of mpmath's Rzeta_simul for real part ``sigma``."""
    weights = np.zeros((terms, _RS_DERIVATIVES.shape[0]), dtype=np.complex128)
    weights[0, 0] = 1.0
    d = {(0, 0): 1.0}
    for n in range(1, terms):
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                d[n, k] = (
                    -(m + 1) * d.get((n - 1, k - 2), 0.0)
                    + d.get((n - 1, k), 0.0) / (4 * m)
                    + (1.0 - 2.0 * sigma) / (2 * m) * d.get((n - 1, k - 1), 0.0)
                )
            else:
                d[n, k] = -sum(
                    (-1) ** (k - r) * d[n, r] * (math.factorial(2 * k - 2 * r) // math.factorial(k - r))
                    for r in range(k)
                )
            weights[n, m] = d[n, k] / (math.pi ** (2 * n - k) * (2j) ** k)
    return weights @ _RS_DERIVATIVES


def _two_product(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` rounded, and its rounding error exactly (Dekker)."""
    product = a * b
    halves = []
    for x in (a, b):
        big = 134217729.0 * x
        hi = big - (big - x)
        halves.append((hi, x - hi))
    (a_hi, a_lo), (b_hi, b_lo) = halves
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _log_pair(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log n`` for integers ``1 <= n < 2**52`` as a double and its error, to
    about 2e-18: ``e ln 2 + 2 atanh(u)`` for ``n = f 2^e``, ``f`` in
    ``[sqrt(1/2), sqrt 2)``, with ``u = (n - 2^e) / (n + 2^e)`` (numerator
    and denominator exact) carried in two parts."""
    f, e = np.frexp(n)
    e = e - (f < math.sqrt(0.5))
    base = np.ldexp(1.0, e)
    num, den = n - base, n + base
    u = num / den
    product, error = _two_product(u, den)
    u_lo = ((num - product) - error) / den
    tail = np.zeros_like(u)  # atanh(u) / u - 1, through u^24 (|u| < 0.18)
    for k in range(25, 1, -2):
        tail = (tail + 1.0 / k) * (u * u)
    big, two_u = e * _LN2_HI, 2.0 * u
    hi = big + two_u
    lo = ((big - hi) + two_u) + e * _LN2_LO + 2.0 * u_lo + two_u * tail
    return hi + lo, lo - ((hi + lo) - hi)


def _turn(theta: np.ndarray) -> np.ndarray:
    """``exp(-i theta)`` from ``tau = tan(theta / 2)``: ``((1 - tau^2) - 2 i
    tau) / (1 + tau^2)``, within 3e-16 of it (absolute), since numpy's
    ``tan`` is within about 1/2 ulp at any size of ``theta``.  One ``tan``
    costs far less than :func:`cis`'s cos and sin: 2.2 ns per element
    against about 18 ns for each of them, measured with numpy 2.4 on an
    AVX-512 Xeon."""
    tau = np.tan(0.5 * theta)
    square = tau * tau
    scale = 1.0 / (1.0 + square)
    out = np.empty(theta.shape, dtype=np.complex128)
    np.multiply(1.0 - square, scale, out=out.real)
    np.multiply(-2.0 * tau, scale, out=out.imag)
    return out


def _siegel_rotation(t: np.ndarray) -> np.ndarray:
    """``exp(-i theta0(t))`` for ``theta0 = t/2 log(t / 2 pi) - t/2 - pi/8``.

    ``theta0`` is carried as a sum of doubles: with ``t = m 2^e``, ``m`` in
    ``[sqrt(1/2), sqrt 2)``, it is ``t/2 (e ln 2 - 1 - ln 2 pi) + t/2 log m -
    pi/8`` with both large products formed exactly, so its error is that of
    ``log1p(m - 1)`` times ``t/2``: about 3e-14 at ``t = 1000`` against 5e-13
    for the plain formula.
    """
    m, e = np.frexp(t)
    low = m < math.sqrt(0.5)
    m, e = np.where(low, 2.0 * m, m), (e - low).astype(np.float64)
    half = 0.5 * t
    k_hi = e * _LN2_HI - _LN2PI_E_HI  # |e ln 2| > 1 + ln 2 pi for t >= 32
    k_lo = ((e * _LN2_HI - k_hi) - _LN2PI_E_HI) + (e * _LN2_LO - _LN2PI_E_LO)
    p_hi, p_lo = _two_product(half, k_hi)
    q_hi, q_lo = _two_product(half, np.log1p(m - 1.0))
    s_hi = p_hi + q_hi
    rest = (q_hi - (s_hi - p_hi)) + p_lo + q_lo + half * k_lo - math.pi / 8.0
    return _turn(s_hi) * _turn(rest)


def _rs_tilt(t: np.ndarray, log_t: np.ndarray, delta: float) -> np.ndarray:
    """``chi(s) / U^2 = exp(-2 i D)`` at ``s = 1/2 + delta + i t``, with
    ``log_t = log(t / 2 pi)``.

    ``D = theta(t - i delta) - theta0(t)`` from ``theta(z) = z/2 log(z / 2
    pi) - z/2 - pi/8 + 1/(48 z) + 7/(5760 z^3) + 31/(80640 z^5)``: its large
    terms cancel analytically, leaving a series in ``u = -i delta / t``,
    whose even powers are real and odd powers imaginary.
    """
    w = 1.0 / (t - 1j * delta)
    w2 = w * w
    d = w * (1.0 / 48.0 + w2 * (7.0 / 5760.0 + w2 * (31.0 / 80640.0)))
    v = delta / t
    d_re = d.real + 0.5 * delta * v * (v * v / 12.0 - 0.5)
    d_im = d.imag + 0.5 * delta * (v * v * (v * v / 20.0 - 1.0 / 6.0) - log_t)
    return np.exp(2.0 * d_im) * _turn(2.0 * d_re)


def _prime_columns(size: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """How the columns ``n = 1 .. size`` of the main sums are formed: the
    primes ``n`` (indices ``n - 1``), and the composites in rounds by their
    number of prime factors, each round as indices of ``n``, of its smallest
    prime factor ``p`` and of ``n / p``, whose columns are made in earlier
    rounds."""
    spf = list(range(size + 1))
    for p in range(2, math.isqrt(size) + 1):
        if spf[p] == p:
            for q in range(p * p, size + 1, p):
                spf[q] = min(spf[q], p)
    factors = [0, 0]
    for n in range(2, size + 1):
        factors.append(factors[n // spf[n]] + 1)
    primes = np.array([n - 1 for n in range(2, size + 1) if spf[n] == n], dtype=np.intp)
    rounds = []
    for count in range(2, max(factors) + 1):
        ns = np.array([n for n in range(2, size + 1) if factors[n] == count], dtype=np.intp)
        ps = np.array([spf[n] for n in ns], dtype=np.intp)
        rounds.append((ns - 1, ps - 1, ns // ps - 1))
    return primes, rounds


def _rs_polynomials(sigma: float, terms: int, m: np.ndarray) -> np.ndarray:
    """Entry ``[i, x]``: the coefficients in p, through degree ``_RS_DEGREE``,
    of ``Re R_sigma``, ``Re R_(1-sigma)``, ``Im R_sigma`` and ``Im R_(1-sigma)``
    (``x`` = 0 .. 3) on the ordinates with ``floor(a) = m[i]``.

    There ``a = m + (1 - p)/2``, so ``R = sum_k a^-k P_k(p)``, with the
    ``P_k`` of :func:`_rs_series`, is a power series in p: by Horner's rule
    in ``1/a = (m + 1/2)^-1 sum_j (p / (2m + 1))^j``, each product cut at
    the degree kept.
    """
    width = _RS_DEGREE + 1
    series = np.concatenate([_rs_series(sigma, terms), _rs_series(1.0 - sigma, terms)])[:, :width]
    series = np.concatenate([series.real, series.imag]).reshape(4, terms, width)
    lag = np.arange(width) - np.arange(width)[:, None]  # [j, l]: p^j times p^lag is p^l
    ratio = (1.0 / (2.0 * m + 1.0))[:, None] ** np.arange(width)
    divide = np.where(lag >= 0, ratio[:, np.maximum(lag, 0)], 0.0) / (m + 0.5)[:, None, None]  # times 1/a
    out = np.broadcast_to(series[:, -1], (m.size, 4, width))
    for k in range(terms - 2, -1, -1):
        out = series[:, k] + out @ divide
    return out


def _zeta_rs(sigma: float, t: np.ndarray, terms: int) -> np.ndarray:
    """Riemann--Siegel ``zeta(sigma + i t)`` for ordinates ``t >= RS_MIN_HEIGHT``
    with ``terms`` correction terms (Arias de Reyna, Math. Comp. 80 (2011)):

        zeta(s) = sum_{n <= m} n^-s + chi(s) sum_{n <= m} n^(s-1)
                  + (-1)^(m-1) U [a^-sigma R_sigma + chi conj(a^(sigma-1) U R_(1-sigma))]

    with ``a = sqrt(t / 2 pi)``, ``m = floor(a)``, ``p = 1 - 2 (a - m)``, ``U
    = exp(-i theta0(t))`` and ``R_x = sum_k a^-k P_k(p)``, one polynomial
    in p per ``m`` from :func:`_rs_polynomials`.  ``chi(s) = exp(-2 i
    theta(t - i (sigma - 1/2)))`` from the Stirling series of log Gamma,
    split as ``U^2 exp(-2 i D)`` so that only ``theta0`` is large.

    Both main sums share the columns ``exp(-i t log n)``: a prime's column
    from the exact phase ``t log p`` (:func:`_two_product` of ``t`` and
    :func:`_log_pair`), a composite's as the product of the columns of its
    smallest prime factor and of its cofactor.  Every unit phase comes from
    :func:`_turn`.  The ordinates go in blocks of ``_RS_ROWS``, and a block
    forms its main sums and R in pieces of ``_RS_PIECE`` ordinates (fewer
    for long main sums), so that the arrays stay under about 0.6 MB.  It
    all runs on the calling thread: dealt over two threads like
    :func:`dirichlet_sum`'s blocks, its many short numpy calls made it
    slower, not faster, on a 2-vCPU host.
    """
    n = np.arange(1.0, np.floor(np.sqrt(t.max() / (2.0 * math.pi))) + 1.0)
    amp = np.stack([n ** -sigma, n ** (sigma - 1.0)])
    primes, rounds = _prime_columns(n.size)
    log_hi, log_lo = (part[:, None] for part in _log_pair(n[primes]))
    present = np.bincount(np.floor(np.sqrt(t / (2.0 * math.pi))).astype(np.intp), minlength=n.size + 1) > 0
    polynomials = _rs_polynomials(sigma, terms, np.flatnonzero(present))
    row_of = np.cumsum(present) - 1  # m -> its polynomials
    piece = max(1, min(_RS_PIECE, _BLOCK_CELLS // n.size))

    def main_sums(tb: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Rows: both main sums on a piece of ordinates."""
        # t log p as an exact product plus a small rest, so that
        # exp(-i t log p) = exp(-i phase) (1 - i rest) to O(rest^2).
        phase, rest = _two_product(log_hi, tb)
        rest += log_lo * tb
        prime = _turn(phase)
        real = prime.real.copy()
        prime.real += rest * prime.imag
        prime.imag -= rest * real
        columns = np.empty((n.size, tb.size), dtype=np.complex128)
        columns[0] = 1.0
        columns[primes] = prime
        for ns, ps, qs in rounds:
            columns[ns] = columns[ps] * columns[qs]
        low = int(m.min())  # columns n <= low are in every ordinate's sums
        columns[low:] *= n[low:, None] <= m
        return (amp @ columns.view(np.float64)).view(np.complex128)  # real and imaginary parts alike

    def corrections(m: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Rows: the four real parts of R on a piece of ordinates, from the
        polynomials of its heights at the powers of p."""
        powers = np.empty((_RS_DEGREE + 1, p.size))
        powers[0], powers[1] = 1.0, p
        done = 2
        while done <= _RS_DEGREE:  # p^done ... as p^(done - 1) times p^1 ...
            take = min(done - 1, _RS_DEGREE + 1 - done)
            np.multiply(powers[1 : 1 + take], powers[done - 1], out=powers[done : done + take])
            done += take
        rows = row_of[m.astype(np.intp)]
        first, last = rows.min(), rows.max()
        r = (polynomials[first : last + 1].reshape(-1, _RS_DEGREE + 1) @ powers).reshape(-1, 4, p.size)
        return r[0] if first == last else r[rows - first, :, np.arange(p.size)].T

    def block(tb: np.ndarray) -> np.ndarray:
        log_t = np.log(tb / (2.0 * math.pi))
        a = np.sqrt(tb / (2.0 * math.pi))
        m = np.floor(a)
        p = 1.0 - 2.0 * (a - m)
        sums = np.empty((2, tb.size), dtype=np.complex128)
        r = np.empty((4, tb.size))
        for lo in range(0, tb.size, piece):
            sums[:, lo : lo + piece] = main_sums(tb[lo : lo + piece], m[lo : lo + piece])
            r[:, lo : lo + piece] = corrections(m[lo : lo + piece], p[lo : lo + piece])
        tilt = _rs_tilt(tb, log_t, sigma - 0.5)
        rotation = _siegel_rotation(tb)
        sign = np.where(m % 2.0 == 1.0, 1.0, -1.0)
        correction = np.exp(-0.5 * sigma * log_t) * (r[0] + 1j * r[2])
        correction += tilt * np.exp(0.5 * (sigma - 1.0) * log_t) * (r[1] - 1j * r[3])
        return sums[0] + rotation * (sign * correction + rotation * tilt * np.conj(sums[1]))

    out = np.empty(t.size, dtype=np.complex128)
    for lo in range(0, t.size, _RS_ROWS):
        out[lo : lo + _RS_ROWS] = block(t[lo : lo + _RS_ROWS])
    return out


# ---------------------------------------------------------------------------
# gamma (Lanczos, g = 7)
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Gamma function for complex ``z`` (Lanczos g=7 with reflection).

    Raises :class:`ValidationError` at the poles (non-positive integers),
    for ``|z| > 140`` and where the value is not a finite float.  Returns a
    real float for real input.
    """
    zc = complex(z)
    if not abs(zc) <= 140.0:  # Lanczos's (z + 6.5)^(z - 1/2) overflows from z = 143; NaN fails too
        raise ValidationError(f"gamma requires |z| <= 140, got z = {z!r}")
    real_input = zc.imag == 0.0
    if real_input and zc.real <= 0.0 and zc.real == int(zc.real):
        raise ValidationError(f"gamma pole at z = {zc.real:g}")
    # below Re z = 1/2 by reflection, gamma(z) gamma(1 - z) = pi / sin(pi z), with |1 - z| <= 141
    value = math.pi / (_sinpi(zc) * _lanczos(1.0 - zc)) if zc.real < 0.5 else _lanczos(zc)
    if not cmath.isfinite(value):
        raise ValidationError(f"gamma overflows a float at z = {z!r}")
    return float(value.real) if real_input else value


def _lanczos(z: complex) -> complex:
    """The Lanczos sum for ``Re z >= 1/2``, ``|z| < 143``, as a Python
    complex: numpy's complex division would round the reflection's
    ``pi / (...)`` differently."""
    w = z - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (w + i)
    tt = w + _LANCZOS_G + 0.5
    return complex(math.sqrt(2.0 * math.pi) * tt ** (w + 0.5) * np.exp(-tt) * acc)


def _sinpi(z: complex) -> complex:
    """sin(pi z) with the argument reduced modulo 2 to keep accuracy for large Re z."""
    if z.imag == 0.0:
        r = math.remainder(z.real, 2.0)
        return complex(math.sin(math.pi * r))
    return complex(np.sin(np.pi * np.complex128(z)))


# ---------------------------------------------------------------------------
# Bessel J, Y, K on the order band [0.35, 1.15]
# ---------------------------------------------------------------------------

NU_BAND = (0.35, 1.15)
#: Arguments up to which :func:`bessel` integrates, and above which it takes
#: the large-argument expansions.
X_SWITCH_ASYMPTOTIC = 13.0
# Smallest x, so that the nodes stay bounded (190 at 2**-20); Voronoi's 4 pi sqrt(nx)/k >= 4 pi / X_MAX.
_X_FLOOR = 2.0**-20
_THETA_NODES = 32
_NODES_PER_UNIT = 10
_ASYMPTOTIC_MAX_TERMS = 40


def bessel(nu: float, x: np.ndarray) -> np.ndarray:
    """Rows ``K_nu``, ``Y_nu`` and ``J_nu`` at each entry of the 1-d ``x``.

    Supported: ``nu in [0.35, 1.15]`` (the band the Voronoi-series evaluators
    use, with margin) and ``2**-20 <= x <= 2**25``.  Up to ``X_SWITCH_ASYMPTOTIC``
    the integral representations (:func:`_bessel_small`) serve every order,
    integer orders included; above it the large-argument expansions
    (:func:`_bessel_large`).  Above ``x = 2**25`` the rounding of ``x`` alone
    moves the phase of J and Y by more than 1e-9, so such an ``x`` is refused.
    """
    if not (NU_BAND[0] <= nu <= NU_BAND[1]):
        raise ValidationError(
            f"bessel order nu = {nu} outside supported band [{NU_BAND[0]}, {NU_BAND[1]}]"
        )
    if not np.min(x, initial=1.0) >= _X_FLOOR:  # NaN if any x is NaN
        raise ValidationError(f"bessel requires x >= 2**-20, got min x = {float(np.min(x))!r}")
    if not np.max(x, initial=1.0) <= 2.0**25:
        raise ValidationError(f"bessel requires x <= 2**25, got max x = {float(np.max(x))!r}")
    out = np.empty((3, x.size))
    small = x <= X_SWITCH_ASYMPTOTIC
    if small.any():
        out[:, small] = _bessel_small(nu, x[small])
    large = ~small
    for row, values in zip(out, _bessel_large(nu, x[large])):  # row by row: no stacked copy
        row[large] = values
    return out


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``nodes``-point Gauss--Legendre rule on [0, 1]:
    six Newton steps on ``P_nodes(2u - 1)`` from ``x = cos(pi (i + 3/4) /
    (nodes + 1/2))``, weights ``1 / ((1 - x^2) P'(x)^2)``."""
    x = np.cos(math.pi * (np.arange(nodes) + 0.75) / (nodes + 0.5))
    for _ in range(6):
        before, p = np.ones_like(x), x  # P_(k-1) and P_k by the three-term recurrence
        for k in range(2, nodes + 1):
            before, p = p, ((2 * k - 1) * x * p - (k - 1) * before) / k
        slope = nodes * (x * p - before) / (x * x - 1.0)
        x = x - p / slope
    return 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope * slope)


def _bessel_small(nu: float, x: np.ndarray) -> np.ndarray:
    """Rows K, Y and J at ``x <= X_SWITCH_ASYMPTOTIC`` (DLMF 10.32.9, 10.9.7, 10.9.6):

        K = int_0^inf exp(-x cosh t) cosh(nu t) dt
        Y = (1/pi) [int_0^pi sin(x sin h - nu h) dh
                    - int_0^inf (e^(nu t) + cos(nu pi) e^(-nu t)) e^(-x sinh t) dt]
        J = (1/pi) [int_0^pi cos(x sin h - nu h) dh - sin(nu pi) int_0^inf e^(-x sinh t - nu t) dt]

    by Gauss--Legendre: ``_THETA_NODES`` nodes on [0, pi] and ``_NODES_PER_UNIT``
    per unit on [0, t_max], ``t_max = acosh(1 + 40 / min x)``, past which each
    integrand is below exp(-40) of its scale (``exp(-x)`` for K).  The points
    go in row blocks of about ``_BLOCK_CELLS`` node values."""
    u, w = _gauss_legendre(_THETA_NODES)
    theta, theta_weights = math.pi * u, math.pi * w
    t_max = math.acosh(1.0 + 40.0 / float(x.min()))
    u, w = _gauss_legendre(math.ceil(_NODES_PER_UNIT * t_max))
    t, weights = t_max * u, t_max * w
    decay = weights * np.exp(-nu * t)
    k_weights = weights * np.cosh(nu * t)
    y_weights = weights * np.exp(nu * t) + math.cos(math.pi * nu) * decay
    j_weights = math.sin(math.pi * nu) * decay
    sin_theta, sinh_t, cosh_t = np.sin(theta), np.sinh(t), np.cosh(t)
    out = np.empty((3, x.size))
    rows = max(1, _BLOCK_CELLS // t.size)
    for lo in range(0, x.size, rows):
        xb = x[lo : lo + rows, None]
        phase, tail = xb * sin_theta - nu * theta, np.exp(-xb * sinh_t)
        out[0, lo : lo + rows] = np.exp(-xb * cosh_t) @ k_weights
        out[1, lo : lo + rows] = (np.sin(phase) @ theta_weights - tail @ y_weights) / math.pi
        out[2, lo : lo + rows] = (np.cos(phase) @ theta_weights - tail @ j_weights) / math.pi
    return out


def _asymptotic_sums(nu: float, x: np.ndarray) -> np.ndarray:
    """Rows P, Q and S of the large-argument expansions at each ``x``.

    Term ``k >= 1`` is ``prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (8 j x)``;
    ``P = 1 - t2 + t4 - ...`` and ``Q = t1 - t3 + t5 - ...`` serve J and Y,
    ``S = 1 + t1 + t2 + ...`` serves K.  A point's sums stop before its
    first term that does not shrink or falls below 1e-18; stopped points are
    written out and dropped from the working arrays, so each term is formed
    only on the points still active.
    """
    mu = 4.0 * nu * nu
    sums = np.empty((3, x.size))
    index = np.arange(x.size)
    work = np.stack([np.ones_like(x), np.zeros_like(x), np.ones_like(x)])
    term = np.ones_like(x)
    prev_mag = np.full(x.shape, np.inf)
    for k in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        if not index.size:
            break
        term = term * (mu - (2.0 * k - 1.0) ** 2) / (k * 8.0 * x)
        mag = np.abs(term)
        keep = (mag < prev_mag) & (mag > 1e-18)
        if not keep.all():
            sums[:, index[~keep]] = work[:, ~keep]
            index, x, term, mag, work = index[keep], x[keep], term[keep], mag[keep], work[:, keep]
        work[k % 2] += term if k % 4 < 2 else -term  # even terms to P, odd to Q
        work[2] += term
        prev_mag = mag
    sums[:, index] = work
    return sums


def _bessel_large(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K, Y and J at ``x > X_SWITCH_ASYMPTOTIC`` from one :func:`_asymptotic_sums`:
    J and Y share its P and Q and one cos and sin, K takes its S."""
    p, q, total = _asymptotic_sums(nu, x)
    k = np.sqrt(0.5 * math.pi / x) * np.exp(-x) * total
    omega = x - (0.5 * nu + 0.25) * math.pi
    c, s = np.cos(omega), np.sin(omega)
    amp = np.sqrt(2.0 / (math.pi * x))
    return k, amp * (p * s + q * c), amp * (p * c - q * s)
