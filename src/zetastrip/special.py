"""Special functions on the exact domains the pipeline needs.

Everything here is implemented directly in binary64 (no scipy/mpmath at
runtime) so that accuracy contracts, branch switches, and failure modes are
explicit and testable:

* ``zeta``       -- Riemann zeta via Euler--Maclaurin with Bernoulli
                    corrections through B10; remainder is estimated and a
                    :class:`PrecisionError` is raised when it exceeds
                    ``ZETA_ABS_TOL``.
* ``zeta_line``  -- vectorised ``zeta(sigma + i t)`` along a fixed real part
                    under the same remainder bound; this is the quadrature
                    integrand workhorse.  Its main sum runs in cache-sized
                    row blocks on one thread per usable CPU, and its bits
                    are those of one ``exp`` outer product per column chunk
                    over the whole batch, for any thread count.  Each
                    thread's buffers hold at most 65 rows of one column
                    chunk: under 1 MB for a 7 680-point quadrature batch,
                    and never more than 4e6 elements.
* ``gamma``      -- Lanczos approximation (g = 7, 9 coefficients) with
                    reflection for ``Re z < 1/2``; relative accuracy ~1e-13.
* ``arcsinh``    -- log1p-based formula with an odd Taylor series below
                    ``|x| < 2**-20`` (documented switch).
* ``bessel``     -- J, Y, K of real order in the band [0.35, 1.15] for x > 0:
                    ascending series below a per-kind switch point and Hankel
                    asymptotics above it; Y and K at non-integer order come
                    from reflection formulas, and a short polynomial
                    continuation in the order bridges the removable
                    singularity near integer order.

Measured worst-case errors on the supported grids (see the test suite):
zeta relative error < 1e-9 for sigma in [-0.5, 2], |Im s| <= 1e4 away from
zeros of zeta (near a zero the absolute error is what matters: < 1e-10 for
sigma >= 0.3; phase rounding in the main sum grows it like |Im s| times
machine epsilon for negative sigma, reaching ~5e-7 absolute at
sigma = -0.5, |Im s| = 1e4); gamma < 5e-12 relative; J/Y < 5e-9 of the
oscillation envelope and K < 5e-9 relative, including the branch-switch
neighbourhoods.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._env import usable_cpus
from .errors import PrecisionError, ValidationError

__all__ = [
    "arcsinh",
    "zeta",
    "zeta_line",
    "ZETA_ABS_TOL",
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


def arcsinh(x):
    """Inverse hyperbolic sine, scalar or array.

    For ``|x| < 2**-20`` the odd Taylor series ``x - x^3/6`` is used (the
    next term is below one ulp there); otherwise the cancellation-free
    form ``log1p(x + x^2/(1 + sqrt(1 + x^2)))`` with odd symmetry.
    """
    arr = np.asarray(x, dtype=np.float64)
    ax = np.abs(arr)
    small = ax < _ARCSINH_SERIES_CUT
    # series branch
    series = arr - arr * arr * arr / 6.0
    # log1p branch on |x|, restored by symmetry
    ax_safe = np.where(small, 1.0, ax)
    big = np.sign(arr) * np.log1p(ax_safe + ax_safe * ax_safe / (1.0 + np.sqrt(1.0 + ax_safe * ax_safe)))
    out = np.where(small, series, big)
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


def _em_cutoff(t_max: float) -> int:
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
    value, remainder = _zeta_em_f64(s, _em_cutoff(abs(s.imag)))
    if remainder > ZETA_ABS_TOL:
        # One retry with a larger cutoff before giving up.
        bigger = 4 * _em_cutoff(abs(s.imag))
        value, remainder = _zeta_em_f64(s, bigger)
        if remainder > ZETA_ABS_TOL:
            raise PrecisionError(
                f"Euler-Maclaurin remainder {remainder:.2e} exceeds "
                f"ZETA_ABS_TOL {ZETA_ABS_TOL:.2e} at s = {s}"
            )
    return value


def _zeta_em_f64(s: complex, n_cut: int) -> tuple[complex, float]:
    n = np.arange(1, n_cut, dtype=np.float64)
    total = complex(np.sum(n ** (-s)))
    total += n_cut ** (1.0 - s) / (s - 1.0)
    total += 0.5 * n_cut ** (-s)
    for order in _EM_ORDERS:
        coeff = _B2K[order] / math.factorial(order)
        total += coeff * _rising(s, order - 1) * n_cut ** (1.0 - s - order)
    remainder = abs(_B12_OVER_12FACT) * abs(_rising(s, 11)) * n_cut ** (-s.real - 11.0)
    return total, float(remainder)


# Complex elements per column chunk of the main sum.  The chunk boundaries
# and the per-chunk accumulation order fix the result bits.
_LINE_CHUNK = 4_000_000
# Rows per cache block.  Blocks start at multiples of 64, a multiple of the
# row unrolling of BLAS gemv kernels, so each row takes the same kernel path
# as in one product over all rows even where unrolled and remainder paths
# sum in different orders.
_ROW_BLOCK = 64


def _row_blocks(size: int) -> list[tuple[int, int]]:
    """Row ranges of ``_ROW_BLOCK`` rows for ``size >= 1`` rows.

    A last block of one row joins the block before it: numpy sends a
    one-row product to BLAS ``dot``, which sums in another order than
    ``gemv``.
    """
    starts = list(range(0, size, _ROW_BLOCK))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [size]))


def _main_sum(sigma: float, t: np.ndarray, n_cut: int, threads: int) -> np.ndarray:
    """``sum_{n < n_cut} n^-sigma exp(-i t log n)`` for each entry of the 1-d ``t``.

    The result is bit-identical to one ``exp(-1j * outer(t, log n)) @ n^-sigma``
    product over all rows per column chunk of ``_LINE_CHUNK // t.size``
    columns, summed chunk by chunk: the rows are cut into blocks of
    ``_ROW_BLOCK`` (see :func:`_row_blocks`) whose results do not depend on
    the cut, and the blocks are shared among ``threads`` threads (numpy
    releases the GIL in ``exp`` and ``matmul``).  Each thread holds one
    float64 and one complex128 buffer of ``min(t.size, _ROW_BLOCK + 1) *
    min(chunk, n_cut - 1)`` elements, never more than ``_LINE_CHUNK``; for a
    quadrature batch of 7 680 points that is under 1 MB.
    """
    out = np.zeros(t.size, dtype=np.complex128)
    if t.size == 0:
        return out
    chunk = max(1, _LINE_CHUNK // t.size)
    columns = []
    for lo in range(1, n_cut, chunk):
        n = np.arange(lo, min(n_cut, lo + chunk), dtype=np.float64)
        columns.append((np.log(n), n ** (-sigma)))
    blocks = _row_blocks(t.size)
    cells = max(hi - lo for lo, hi in blocks) * min(chunk, n_cut - 1)

    def run(share: list[tuple[int, int]]) -> None:
        phase = np.empty(cells)
        terms = np.empty(cells, dtype=np.complex128)
        for lo, hi in share:
            for log_n, amp in columns:
                size = (hi - lo) * log_n.size
                x = phase[:size].reshape(hi - lo, log_n.size)
                z = terms[:size].reshape(x.shape)
                np.multiply.outer(t[lo:hi], log_n, out=x)
                np.multiply(x, -1j, out=z)
                out[lo:hi] += np.exp(z, out=z) @ amp

    threads = min(threads, len(blocks))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(run, blocks[k::threads]) for k in range(threads)]:
            future.result()
    return out


def zeta_line(sigma: float, t) -> np.ndarray:
    """Vectorised ``zeta(sigma + i t)`` for an array of real ordinates ``t``.

    Negative ordinates are folded by conjugation symmetry.  All points share
    the cutoff ``N = max(20, ceil(2 max|t|))``, which keeps the documented
    remainder bound for every point in the batch; a batch whose bound
    exceeds ``ZETA_ABS_TOL`` raises :class:`PrecisionError`.

    The main sum runs on one thread per usable CPU in cache-sized row
    blocks (:func:`_main_sum`); its bits are those of the one-shot product,
    for any thread count, so a point's value depends only on the batch's
    size and largest ordinate.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    flat = np.abs(t_arr.ravel())
    n_cut = _em_cutoff(float(flat.max()) if flat.size else 0.0)
    s_vec = sigma + 1j * flat

    out = _main_sum(sigma, flat, n_cut, usable_cpus())
    out += n_cut ** (1.0 - s_vec) / (s_vec - 1.0)
    out += 0.5 * n_cut ** (-s_vec)
    for order in _EM_ORDERS:
        coeff = _B2K[order] / math.factorial(order)
        rise = np.ones_like(s_vec)
        for j in range(order - 1):
            rise = rise * (s_vec + j)
        out += coeff * rise * n_cut ** (1.0 - s_vec - order)

    t_hi = float(flat.max()) if flat.size else 0.0
    remainder = (
        abs(_B12_OVER_12FACT)
        * abs(_rising(sigma + 1j * t_hi, 11))
        * n_cut ** (-sigma - 11.0)
    )
    if remainder > ZETA_ABS_TOL:
        raise PrecisionError(
            f"Euler-Maclaurin remainder bound {remainder:.2e} exceeds "
            f"ZETA_ABS_TOL {ZETA_ABS_TOL:.2e} on this ordinate batch"
        )

    out = np.where(np.ravel(t_arr) < 0.0, np.conj(out), out)
    return out.reshape(t_arr.shape)


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


def bessel(kind: str, nu: float, x):
    """Bessel function ``J_nu``, ``Y_nu`` or ``K_nu`` for ``x > 0``, vectorised in x.

    Supported order band: ``nu in [0.35, 1.15]`` (the band the Voronoi-series
    evaluators actually use, with margin).  Branches:

    * ``x <= X_SWITCH_JY`` (J, Y) or ``x <= X_SWITCH_K`` (K): ascending power
      series; Y and K by reflection from orders ``+nu`` and ``-nu``.
    * above the switch: Hankel-type asymptotic expansions, truncated at the
      smallest term per point.

    Within ``NEAR_INTEGER_DELTA`` of an integer order the reflection
    formulas lose meaning; there Y and K on the series branch are continued
    polynomially in the order through four nearby non-singular orders.
    """
    if kind not in ("J", "Y", "K"):
        raise ValidationError(f"bessel kind must be 'J', 'Y' or 'K', got {kind!r}")
    if not (NU_BAND[0] <= nu <= NU_BAND[1]):
        raise ValidationError(
            f"bessel order {nu} outside supported band [{NU_BAND[0]}, {NU_BAND[1]}]"
        )
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise ValidationError("bessel requires x > 0")
    flat = arr.ravel()
    out = np.empty_like(flat)
    if kind == "K":
        lo = flat <= X_SWITCH_K
        mid = (~lo) & (flat <= X_SWITCH_K_ASYMPTOTIC)
        hi = flat > X_SWITCH_K_ASYMPTOTIC
        if lo.any():
            out[lo] = _bessel_small(kind, nu, flat[lo])
        if mid.any():
            out[mid] = _k_trapezoid(nu, flat[mid])
        if hi.any():
            out[hi] = _bessel_large(kind, nu, flat[hi])
    else:
        lo = flat <= X_SWITCH_JY
        if lo.any():
            out[lo] = _bessel_small(kind, nu, flat[lo])
        if (~lo).any():
            out[~lo] = _bessel_large(kind, nu, flat[~lo])
    if np.isscalar(x) or arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


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


def _bessel_small(kind: str, nu: float, x: np.ndarray, force_direct: bool = False) -> np.ndarray:
    near = round(nu)
    if kind != "J" and not force_direct and abs(nu - near) < NEAR_INTEGER_DELTA:
        # Polynomial continuation in the order across the removable
        # singularity of the reflection formula.  Node orders sit well
        # outside the exclusion band, so they evaluate directly.
        nodes = [near + d for d in _NEAR_INTEGER_NODES]
        values = [_bessel_small(kind, node, x, force_direct=True) for node in nodes]
        out = np.zeros_like(x)
        for i, node_i in enumerate(nodes):
            weight = 1.0
            for j, node_j in enumerate(nodes):
                if i != j:
                    weight *= (nu - node_j) / (node_i - node_j)
            out += weight * values[i]
        return out
    if kind == "J":
        return _series_j(nu, x)
    if kind == "Y":
        s = math.sin(math.pi * nu)
        return (_series_j(nu, x) * math.cos(math.pi * nu) - _series_j(-nu, x)) / s
    # K via modified-Bessel reflection
    s = math.sin(math.pi * nu)
    return 0.5 * math.pi * (_series_i(-nu, x) - _series_i(nu, x)) / s


def _series_j(nu: float, x: np.ndarray) -> np.ndarray:
    return _ascending_series(nu, x, alternating=True)


def _series_i(nu: float, x: np.ndarray) -> np.ndarray:
    return _ascending_series(nu, x, alternating=False)


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


def _asymptotic_terms(nu: float, x: np.ndarray):
    """Terms ``k = 1, 2, ...`` of the large-argument expansions,
    ``prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (8 j x)``, truncated per point:
    from the first term that stops shrinking or falls below 1e-18, a point's
    terms are zero.  Yields ``(k, term)``."""
    mu = 4.0 * nu * nu
    term = np.ones_like(x)
    prev_mag = np.full(x.shape, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / (k * 8.0 * x)
        mag = np.abs(term)
        active = active & (mag < prev_mag) & (mag > 1e-18)
        yield k, np.where(active, term, 0.0)
        prev_mag = mag
        if not active.any():
            break


def _hankel_pq(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and Q sums of the large-argument expansion, truncated per point."""
    p = np.ones_like(x)
    q = np.zeros_like(x)
    for k, term in _asymptotic_terms(nu, x):
        if k % 4 == 1:
            q += term
        elif k % 4 == 2:
            p -= term
        elif k % 4 == 3:
            q -= term
        else:
            p += term
    return p, q


def _bessel_large(kind: str, nu: float, x: np.ndarray) -> np.ndarray:
    if kind == "K":
        total = np.ones_like(x)
        for _, term in _asymptotic_terms(nu, x):
            total += term
        return np.sqrt(0.5 * math.pi / x) * np.exp(-x) * total
    p, q = _hankel_pq(nu, x)
    omega = x - (0.5 * nu + 0.25) * math.pi
    c, s = np.cos(omega), np.sin(omega)
    amp = np.sqrt(2.0 / (math.pi * x))
    if kind == "J":
        return amp * (p * c - q * s)
    return amp * (p * s + q * c)
