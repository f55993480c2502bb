"""Special functions on the exact domains the pipeline needs.

Everything here is implemented directly in binary64 (no scipy/mpmath at
runtime) so that accuracy contracts, branch switches, and failure modes are
explicit and testable:

* ``zeta``       -- Riemann zeta via Euler--Maclaurin with Bernoulli
                    corrections through B10; remainder is estimated and a
                    :class:`PrecisionError` is raised when it exceeds
                    ``ZETA_ABS_TOL``.
* ``zeta_line``  -- vectorised ``zeta(sigma + i t)`` along a fixed real part,
                    the quadrature integrand workhorse.  Below
                    ``RS_MIN_HEIGHT`` = 500 (and off ``RS_SIGMA_BAND``) it
                    is Euler--Maclaurin under the same remainder bound and
                    tail as ``zeta``, with the same bits as before the
                    switch existed; from there on it is Riemann--Siegel
                    (Arias de Reyna's general-sigma correction series),
                    about ``2 sqrt(t / 2 pi)`` main-sum terms per point in
                    place of ``2 t``.  ``zeta_terms`` counts either for work
                    limits.  The scalar ``zeta`` stays Euler--Maclaurin.
* ``dirichlet_sum`` -- ``sum_j amp[j] exp(-i t log_n[j])`` over a batch of
                    ``t``: zeta_line's main sum and the Dirichlet polynomial
                    ``A(sigma + i t)`` both run through it.  It works in
                    cache-sized row blocks, dealt into one share per usable
                    CPU: the calling thread runs the first share and one
                    process-wide pool of ``usable CPUs - 1`` threads the
                    others.  Its bits are those of one ``exp`` outer product
                    per column chunk over the whole batch, for any thread
                    count.  Each share holds one complex buffer of at most
                    65 rows of one column chunk (or about 16 384 elements):
                    under 1 MB for a 7 680-point batch, never more than 4e6
                    elements.
* ``cis``        -- ``exp(+-1j theta)`` bit for bit from one cos and one sin,
                    for the Dirichlet sum and the saddle integrands.
* ``gamma``      -- Lanczos approximation (g = 7, 9 coefficients) with
                    reflection for ``Re z < 1/2``; relative accuracy ~1e-13.
* ``arcsinh``    -- log1p-based formula with an odd Taylor series below
                    ``|x| < 2**-20`` (documented switch).
* ``bessel``     -- rows K, Y, J of real order in the band [0.35, 1.15] on a
                    1-d array of x > 0: ascending series below a per-kind
                    switch point and Hankel asymptotics above it, one
                    asymptotic pass serving all three; Y and K at non-integer
                    order come from reflection formulas, and a short
                    polynomial continuation in the order bridges the
                    removable singularity near integer order.

Measured worst-case errors on the supported grids (see the test suite):
zeta relative error < 1e-9 for sigma in [-0.5, 2], |Im s| <= 1e4 away from
zeros of zeta (near a zero the absolute error is what matters: < 1e-10 for
sigma >= 0.3; phase rounding in the main sum grows it like |Im s| times
machine epsilon for negative sigma, reaching ~5e-7 absolute at
sigma = -0.5, |Im s| = 1e4); zeta_line's Riemann--Siegel kernel < 1e-16 |Im s|
relative for sigma in [0, 1] (2e-14 on [500, 1000], 3e-12 at 1e5); gamma < 5e-12
relative; J/Y < 5e-9 of the oscillation envelope and K < 5e-9 relative,
including the branch-switch neighbourhoods.
"""

from __future__ import annotations

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
    "ZETA_ABS_TOL",
    "em_cutoff",
    "zeta_terms",
    "RS_MIN_HEIGHT",
    "gamma",
    "bessel",
    "X_SWITCH_JY",
    "X_SWITCH_K",
    "NEAR_INTEGER_DELTA",
]


# ---------------------------------------------------------------------------
# arcsinh
# ---------------------------------------------------------------------------

_ARCSINH_SERIES_CUT = 2.0 ** -20
# The largest float whose square is finite: sqrt(max) rounds down.
_SQUARE_MAX = math.sqrt(sys.float_info.max)
_LN2 = math.log(2.0)


def arcsinh(x):
    """Inverse hyperbolic sine, scalar or array.

    For ``|x| < 2**-20`` the odd Taylor series ``x - x^3/6`` is used (the
    next term is below one ulp there); where ``x^2`` overflows,
    ``log|x| + log 2`` (the rest is below one ulp there); otherwise the
    cancellation-free form ``log1p(x + x^2/(1 + sqrt(1 + x^2)))``.  The last
    two are formed on ``|x|`` and restored by odd symmetry.
    """
    arr = np.asarray(x, dtype=np.float64)
    ax = np.abs(arr)
    small = ax < _ARCSINH_SERIES_CUT
    huge = ax > _SQUARE_MAX  # where x^2 overflows, infinite x included
    # series branch, formed on the small entries only
    tiny = np.where(small, arr, 0.0)
    series = tiny - tiny * tiny * tiny / 6.0
    # log1p branch on |x|, restored by symmetry
    ax_safe = np.where(small | huge, 1.0, ax)
    big = np.sign(arr) * np.log1p(ax_safe + ax_safe * ax_safe / (1.0 + np.sqrt(1.0 + ax_safe * ax_safe)))
    out = np.where(small, series, big)
    if huge.any():  # log branch on |x|, restored by symmetry
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
ZETA_ABS_TOL = 1e-12


def em_cutoff(t_max: float) -> int:
    """Euler--Maclaurin cutoff ``max(20, ceil(2 t_max))`` of :func:`zeta` and
    :func:`zeta_line` at heights up to ``t_max``: the number of terms of the
    main sum."""
    return max(20, int(math.ceil(2.0 * t_max)))


def _rising(s: complex, m: int) -> complex:
    prod = 1.0 + 0.0j
    for j in range(m):
        prod *= s + j
    return prod


def zeta(s: complex) -> complex:
    """Riemann zeta at a complex point ``s != 1``.

    Euler--Maclaurin with cutoff ``N = max(20, ceil(2 |Im s|))`` and
    Bernoulli corrections through B10.  The first omitted correction term
    bounds the remainder; if it exceeds ``ZETA_ABS_TOL`` the cutoff is
    enlarged once (which only helps when ``Re s`` is not too negative) and
    a :class:`PrecisionError` is raised if the bound still fails.
    """
    s = complex(s)
    if s == 1.0:
        raise ValidationError("zeta has a pole at s = 1")
    value, remainder = _zeta_em_f64(s, em_cutoff(abs(s.imag)))
    if remainder > ZETA_ABS_TOL:
        # One retry with a larger cutoff before giving up.
        bigger = 4 * em_cutoff(abs(s.imag))
        value, remainder = _zeta_em_f64(s, bigger)
        if remainder > ZETA_ABS_TOL:
            raise PrecisionError(
                f"Euler-Maclaurin remainder {remainder:.2e} exceeds "
                f"ZETA_ABS_TOL {ZETA_ABS_TOL:.2e} at s = {s}"
            )
    return value


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
    remainder bound checked against ``ZETA_ABS_TOL``."""
    return float(abs(_B12_OVER_12FACT) * abs(_rising(s, 11)) * n_cut ** (-s.real - 11.0))


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
    ``theta`` may be ``out.imag`` itself."""
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
    process's pool the others, so a sum of one block starts no thread.
    Each share holds one complex128 buffer of the largest block, the
    products ``t log_n`` written into its imaginary half for :func:`cis`:
    at most ``max(65 * columns, _BLOCK_CELLS + columns)`` elements for
    ``columns = min(chunk, log_n.size)`` and never more than
    ``_LINE_CHUNK``; for a 7 680-point batch that is under 1 MB.
    """
    out = np.zeros(t.size, dtype=np.complex128)
    if t.size == 0:
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
    * The other points take Euler--Maclaurin with the shared cutoff ``N =
      max(20, ceil(2 max|t|))`` over them; a remainder bound above
      ``ZETA_ABS_TOL`` raises :class:`PrecisionError`.

    Both bounds are checked before any main sum is formed.  The
    Euler--Maclaurin main sum is one :func:`dirichlet_sum` with the bits of
    the one-shot product, so a sub-switch point's value depends only on the
    number and largest ordinate of the sub-switch points in its batch, and
    a batch below the switch has the bits of Euler--Maclaurin alone.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    flat = np.abs(t_arr.ravel())
    high = _uses_rs(sigma, flat)
    low = flat[~high]
    t_hi = float(low.max()) if low.size else 0.0
    n_cut = zeta_terms(sigma, 0.0, t_hi)
    remainder = _em_bound(sigma + 1j * t_hi, n_cut)
    if remainder > ZETA_ABS_TOL:
        raise PrecisionError(
            f"Euler-Maclaurin remainder bound {remainder:.2e} exceeds "
            f"ZETA_ABS_TOL {ZETA_ABS_TOL:.2e} on this ordinate batch"
        )
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
_RS_DEGREE = 2 * len(_RS_F_TAYLOR)


def _rs_derivatives() -> np.ndarray:
    """Row m: the coefficients in p of the m-th derivative F^(m)(p)."""
    c = np.zeros(_RS_DEGREE, dtype=np.complex128)
    c[::2] = [complex(*pair) for pair in _RS_F_TAYLOR]
    rows = np.zeros((3 * _RS_MAX_TERMS, _RS_DEGREE), dtype=np.complex128)
    for m, row in enumerate(rows):
        for j in range(_RS_DEGREE - m):
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
    ``t_lo <= |t| <= t_hi``: the Euler--Maclaurin cutoff below the switch,
    ``2 floor(sqrt(t / 2 pi))`` (both Riemann--Siegel sums) at and above it."""
    if not _uses_rs(sigma, np.float64(t_hi)):
        return em_cutoff(t_hi)
    rs = 2 * math.floor(math.sqrt(t_hi / (2.0 * math.pi)))
    return rs if t_lo >= RS_MIN_HEIGHT else max(rs, em_cutoff(RS_MIN_HEIGHT))


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
    return cis(s_hi, -1) * cis(rest, -1)


def _zeta_rs(sigma: float, t: np.ndarray, terms: int) -> np.ndarray:
    """Riemann--Siegel ``zeta(sigma + i t)`` for ordinates ``t >= RS_MIN_HEIGHT``
    with ``terms`` correction terms (Arias de Reyna, Math. Comp. 80 (2011)):

        zeta(s) = sum_{n <= m} n^-s + chi(s) sum_{n <= m} n^(s-1)
                  + (-1)^(m-1) U [a^-sigma R_sigma + chi conj(a^(sigma-1) U R_(1-sigma))]

    with ``a = sqrt(t / 2 pi)``, ``m = floor(a)``, ``p = 1 - 2 (a - m)``, ``U
    = exp(-i theta0(t))`` and ``R_x = sum_k a^-k P_k(p)`` from
    :func:`_rs_series`.  ``chi(s) = exp(-2 i theta(t - i (sigma - 1/2)))``
    from the Stirling series of log Gamma, split as ``U^2 exp(-2 i D)``
    so that only ``theta0`` is large.
    """
    n = np.arange(1.0, np.floor(np.sqrt(t.max() / (2.0 * math.pi))) + 1.0)
    amp = np.stack([n ** -sigma, n ** (sigma - 1.0)], axis=1)
    log_hi, log_lo = _log_pair(n)
    series = np.concatenate([_rs_series(sigma, terms), _rs_series(1.0 - sigma, terms)], axis=0).T
    series = np.concatenate([series.real, series.imag], axis=1)  # columns: Re R_x, Re R_y, Im R_x, Im R_y
    delta = sigma - 0.5
    out = np.empty(t.size, dtype=np.complex128)
    step = max(1, _BLOCK_CELLS // max(n.size, _RS_DEGREE))
    for lo in range(0, t.size, step):
        tb = t[lo : lo + step]
        a = np.sqrt(tb / (2.0 * math.pi))
        m = np.floor(a)
        # t log n as an exact product plus a small rest, so that
        # exp(-i t log n) = cis(-hi) (1 - i rest) to O(rest^2).
        hi, rest = _two_product(tb[:, None], log_hi)
        terms_n = cis(hi, -1) * (1.0 - 1j * (rest + tb[:, None] * log_lo))
        terms_n[n > m[:, None]] = 0.0
        sums = terms_n @ amp
        poly = (np.vander(1.0 - 2.0 * (a - m), _RS_DEGREE, increasing=True) @ series).reshape(-1, 4, terms)
        r = np.einsum("rjk,rk->rj", poly, np.vander(1.0 / a, terms, increasing=True))
        # D = theta(t - i delta) - theta0(t) from theta(z) = z/2 log(z / 2 pi)
        # - z/2 - pi/8 + 1/(48 z) + 7/(5760 z^3) + 31/(80640 z^5): its large
        # terms cancel analytically, leaving a series in u = -i delta / t.
        z, u = tb - 1j * delta, -1j * delta / tb
        d = -0.5j * delta * np.log(tb / (2.0 * math.pi)) + 1.0 / (48.0 * z) + 7.0 / (5760.0 * z**3)
        d = d + 31.0 / (80640.0 * z**5) + 0.5 * tb * (u**2 / 2.0 - u**3 / 6.0 + u**4 / 12.0 - u**5 / 20.0)
        tilt = np.exp(-2j * d)  # chi(s) / U^2
        rotation = _siegel_rotation(tb)
        r_x, conj_r_y = r[:, 0] + 1j * r[:, 2], r[:, 1] - 1j * r[:, 3]
        correction = np.where(m % 2.0 == 1.0, 1.0, -1.0) * (a**-sigma * r_x + tilt * a ** (sigma - 1.0) * conj_r_y)
        out[lo : lo + step] = sums[:, 0] + rotation * (correction + rotation * tilt * np.conj(sums[:, 1]))
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

    Raises :class:`ValidationError` at the poles (non-positive integers).
    Returns a real float for real input.
    """
    zc = complex(z)
    real_input = zc.imag == 0.0
    if real_input and zc.real <= 0.0 and zc.real == int(zc.real):
        raise ValidationError(f"gamma pole at z = {zc.real:g}")
    if zc.real < 0.5:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        value = math.pi / (_sinpi(zc) * gamma(1.0 - zc))
    else:
        w = zc - 1.0
        acc = _LANCZOS_COEF[0]
        for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
            acc += c / (w + i)
        tt = w + _LANCZOS_G + 0.5
        value = math.sqrt(2.0 * math.pi) * tt ** (w + 0.5) * np.exp(-tt) * acc
    if real_input:
        return float(value.real) if isinstance(value, complex) else float(value)
    return complex(value)


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
X_SWITCH_JY = 11.0
X_SWITCH_K = 5.0
X_SWITCH_K_ASYMPTOTIC = 13.0
NEAR_INTEGER_DELTA = 5e-3
_NEAR_INTEGER_NODES = (-0.0175, -0.0125, -0.0075, 0.0075, 0.0125, 0.0175)
_SERIES_MAX_TERMS = 220
_ASYMPTOTIC_MAX_TERMS = 40
# Fixed trapezoid grid for the K integral representation on (5, 13]:
# the integrand exp(-x cosh t) cosh(nu t) is even and entire, so the
# trapezoid rule converges geometrically; t_max covers the slowest decay
# (x = 5) beyond 1e-24 relative and h = 0.1 puts the discretisation error
# far below binary64 resolution.
_K_TRAP_STEP = 0.1
_K_TRAP_TMAX = 3.2


def bessel(nu: float, x: np.ndarray) -> np.ndarray:
    """Rows ``K_nu``, ``Y_nu`` and ``J_nu`` at each entry of the 1-d ``x > 0``.

    Supported order band: ``nu in [0.35, 1.15]`` (the band the
    Voronoi-series evaluators actually use, with margin).  Branches:

    * ``x <= X_SWITCH_JY`` (J, Y) or ``x <= X_SWITCH_K`` (K): ascending power
      series; Y and K by reflection from orders ``+nu`` and ``-nu``.
    * ``X_SWITCH_K < x <= X_SWITCH_K_ASYMPTOTIC`` (K): the integral
      representation on a fixed trapezoid grid.
    * above the switch: large-argument expansions, truncated at the
      smallest term per point.  One pass of their term recurrence serves
      all three kinds, and each term is formed only on the points whose
      expansion has not yet stopped.

    Within ``NEAR_INTEGER_DELTA`` of an integer order the reflection
    formulas lose meaning; there Y and K on the series branch are continued
    polynomially in the order through four nearby non-singular orders.
    """
    if not (NU_BAND[0] <= nu <= NU_BAND[1]):
        raise ValidationError(
            f"bessel order {nu} outside supported band [{NU_BAND[0]}, {NU_BAND[1]}]"
        )
    if np.any(x <= 0.0):
        raise ValidationError("bessel requires x > 0")
    out = np.empty((3, x.size))
    large = _bessel_large(nu, x[x > X_SWITCH_JY])
    for row, kind, values in zip(out, "KYJ", large):
        lo = x <= (X_SWITCH_K if kind == "K" else X_SWITCH_JY)
        hi = x > (X_SWITCH_K_ASYMPTOTIC if kind == "K" else X_SWITCH_JY)
        mid = ~(lo | hi)  # K's trapezoid range; empty for J and Y
        if lo.any():
            row[lo] = _bessel_small(kind, nu, x[lo])
        if mid.any():
            row[mid] = _k_trapezoid(nu, x[mid])
        row[hi] = values
    return out


def _k_trapezoid(nu: float, x: np.ndarray) -> np.ndarray:
    """K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt on a fixed grid.

    Free of the catastrophic I_{-nu} - I_nu cancellation that rules out the
    reflection formula for mid-range x, and uniformly accurate in the order
    (integer orders included).
    """
    t = np.arange(0.0, _K_TRAP_TMAX + 0.5 * _K_TRAP_STEP, _K_TRAP_STEP)
    weights = np.full(t.shape, _K_TRAP_STEP)
    weights[0] = 0.5 * _K_TRAP_STEP
    kernel = np.exp(-np.multiply.outer(x, np.cosh(t))) * np.cosh(nu * t)
    return kernel @ weights


def _bessel_small(kind: str, nu: float, x: np.ndarray) -> np.ndarray:
    near = round(nu)
    if kind != "J" and abs(nu - near) < NEAR_INTEGER_DELTA:
        # Polynomial continuation in the order across the removable
        # singularity of the reflection formula.  Node orders sit at least
        # 0.0075 from the integer, outside the NEAR_INTEGER_DELTA band, so
        # each evaluates directly.
        nodes = [near + d for d in _NEAR_INTEGER_NODES]
        values = [_bessel_small(kind, node, x) for node in nodes]
        out = np.zeros_like(x)
        for i, node_i in enumerate(nodes):
            weight = 1.0
            for j, node_j in enumerate(nodes):
                if i != j:
                    weight *= (nu - node_j) / (node_i - node_j)
            out += weight * values[i]
        return out
    if kind == "J":
        return _ascending_series(nu, x, alternating=True)
    # Y by reflection from J_{+nu} and J_{-nu}; K from I_{+nu} and I_{-nu}.
    plus, minus = (_ascending_series(order, x, alternating=kind == "Y") for order in (nu, -nu))
    s = math.sin(math.pi * nu)
    if kind == "Y":
        return (plus * math.cos(math.pi * nu) - minus) / s
    return 0.5 * math.pi * (minus - plus) / s


def _ascending_series(nu: float, x: np.ndarray, alternating: bool) -> np.ndarray:
    half = 0.5 * x
    quarter_sq = half * half
    if alternating:
        quarter_sq = -quarter_sq
    term = half ** nu / gamma(nu + 1.0)
    total = term.copy()
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, _SERIES_MAX_TERMS + 1):
        term = term * quarter_sq / (m * (nu + m))
        total = np.where(active, total + term, total)
        active = active & (np.abs(term) > 1e-17 * np.abs(total))
        if not active.any():
            break
    else:  # pragma: no cover - cap chosen far beyond need on the supported domain
        raise PrecisionError("bessel ascending series failed to converge")
    return total


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
    """K, Y and J above their switch points, from one :func:`_asymptotic_sums`
    over ``x > X_SWITCH_JY``: J and Y share its P and Q and one cos and sin on
    all of ``x``; K takes its S on ``x > X_SWITCH_K_ASYMPTOTIC``."""
    p, q, total = _asymptotic_sums(nu, x)
    top = x > X_SWITCH_K_ASYMPTOTIC
    k = np.sqrt(0.5 * math.pi / x[top]) * np.exp(-x[top]) * total[top]
    omega = x - (0.5 * nu + 0.25) * math.pi
    c, s = np.cos(omega), np.sin(omega)
    amp = np.sqrt(2.0 / (math.pi * x))
    return k, amp * (p * s + q * c), amp * (p * c - q * s)
