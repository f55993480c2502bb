"""Twisted divisor sums and their smooth/oscillatory decomposition.

The object of study is the twisted summatory function

    D(x) = sum'_{n <= x} sigma_a(n) e(h n / k),

where ``sigma_a(n) = sum_{d | n} d^a`` with a signed exponent ``a`` in
``(-1/2, 0]``, ``e(t) = exp(2 pi i t)``, ``gcd(h, k) = 1``, and the prime on
the sum halves the last term when ``x`` is an integer.  For ``a < 0`` the sum
splits into two smooth main terms, a constant, and an oscillating remainder:

    D(x) = k^(a-1) zeta(1-a) x  +  k^E zeta(1+a)/(1+a) x^(1+a)  +  C0 + Delta(x).

The remainder ``Delta`` has three independent evaluations, and cross-checking
them is the point of this module:

* :func:`delta_direct` - the definition: ``D(x)`` minus the smooth terms minus
  a constant ``C0`` obtained by least-squares calibration (:func:`calibrate`),
  at one ``x`` or at an array of them from one pass of the raw sum, by
  default fitted on a window that grows with ``k`` (:func:`calibration_x_lo`);
* :func:`delta_bessel` - a Bessel-kernel series with terms
  ``sigma_a(n) e(-h_bar n/k) n^(-(1+a)/2)`` against the kernel
  ``-(2/pi) cos(pi a/2) [K_{a+1} + (pi/2) Y_{a+1}] - sin(pi a/2) J_{1+a}``
  evaluated at ``z = 4 pi sqrt(n x) / k``;
* :func:`delta_asymptotic` - the large-``z`` cosine form of the same series,
  with the first-order ``sin`` correction.

Exponent conventions
--------------------
The module stores one signed exponent ``a``.  Two other conventions are
common and both are adapted here explicitly:

* statements written for ``sigma_{-a}`` with ``0 < a < 1/2`` correspond to
  replacing ``a`` below by its negative;
* the mean-square application uses ``sigma_{2 sigma - 1}`` with
  ``1/4 < sigma < 1/2``; the adapter :func:`exponent_from_sigma` converts
  (``a = 2 sigma - 1``).

The endpoint ``a = 0`` (plain divisor function ``d(n)``) is admitted for the
raw sum; the smooth main terms have a zeta pole there and raise.

The twist of the series
-----------------------
Both series twist by ``e(-h_bar n/k)``, ``h h_bar = 1 (mod k)``, as Voronoi's formula
(Estermann 1930) does.  Where ``h_bar != h``, ``e(-hn/k)`` leaves the series farther from
``delta_direct`` than zero is (``test_the_inverse_twist_fits_the_remainder_where_the_twists_differ``).

The modulus exponent on the power term
--------------------------------------
The power term carries ``k^E`` with ``E = -1 - a``, the residue of the
Estermann series ``sum sigma_a(n) e(hn/k) n^(-s)`` at ``s = 1 + a``; it is
fixed, not an option of :func:`calibrate`.  The printed ``E = 1 - a`` agrees
only at ``k = 1``.  A wrong exponent shows up as a smooth drift of the
constant fit: at each of the Estermann oracle's 12 specs with ``k >= 2`` its
drift ratio is 2.52-2.98 (limit 0.1) where ``-1 - a`` reads 0.027-0.074
(``tests/test_voronoi.py::test_printed_exponent_drifts_at_every_k_ge_2``).

Determinism
-----------
Series terms are evaluated index-parallel (vectorised) and summed with
``math.fsum``, which is correctly rounded, so values do not depend on
batching or summation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arithmetic import SIEVE_MAX, divisor_sigma_range, fsum_complex, unit_phase
from .errors import CalibrationError, ValidationError
from .quadrature import integrate_adaptive
from .special import bessel, zeta

__all__ = [
    "TwistedSumSpec",
    "TruncationPlan",
    "Calibration",
    "exponent_from_sigma",
    "calibration_x_lo",
    "calibrate",
    "delta_direct",
    "delta_bessel",
    "delta_asymptotic",
    "delta_mean_square",
    "truncation_plan",
    "X_MAX",
]

#: Safety multiplier converting the last-term envelope times the local phase
#: coherence length into a truncation-tail estimate.  Calibrated against
#: measured |S(4N) - S(N)| over random (spec, x, N) draws; see the tests.
TAIL_SAFETY = 4.0

#: Number of blocks used by the calibration drift check.
_CALIBRATION_BLOCKS = 8
#: Smallest calibration sample count: below it the drift test rejects correct fits
#: (of the Estermann oracle's 13 specs, 5 at 64 samples, 1 at 128 and at 192, none from 256).
_CALIBRATION_MIN_SAMPLES = 256
#: Largest calibration sample count, about 100 times the default 640.
_CALIBRATION_MAX_SAMPLES = 2**16

#: Largest x at which the raw sum D(x) or the series is formed, and largest
#: series length: the divisor sieve has about x (or n_terms) entries.
X_MAX = SIEVE_MAX

#: Relative validity floor for the cosine asymptotics: the smallest phase
#: argument 4 pi sqrt(x) / k must be at least this large.
ASYMPTOTIC_PHASE_FLOOR = 10.0

#: Tolerances of the mean-square integral :func:`delta_mean_square`.
_MEAN_SQUARE_ABS_TOL = 1e-6
_MEAN_SQUARE_REL_TOL = 1e-8


def exponent_from_sigma(sigma: float) -> float:
    """Signed divisor exponent ``a = 2 sigma - 1`` for ``sigma in (1/4, 1/2)``."""
    if not 0.25 < sigma < 0.5:
        raise ValidationError(f"sigma must lie in (1/4, 1/2), got {sigma}")
    return 2.0 * sigma - 1.0


def calibration_x_lo(k_mod: int) -> float:
    """Default lower end of the calibration window: ``40 max(1, k/3)^2``.

    The kernel argument ``4 pi sqrt(x)/k`` then spans the same range on the
    window for every ``k >= 3``; a fixed ``x_lo = 40`` rejected the right fit
    for ``k >= 5`` (drift ratio 0.12-0.17 against the limit 0.1).  ``k_mod``
    must lie in ``[1, X_MAX]``, as in every spec.
    """
    _check_k_mod(k_mod)
    return 40.0 * max(1.0, k_mod / 3.0) ** 2


def _check_k_mod(k_mod: int) -> None:
    if not 1 <= k_mod <= X_MAX:  # so that every h n of a sum is exact in int64
        raise ValidationError(f"k_mod must satisfy 1 <= k_mod <= {X_MAX:.0f}, got {k_mod}", "k_mod")


@dataclass(frozen=True)
class Calibration:
    """The constant fit of a :class:`TwistedSumSpec`, made by :func:`calibrate`.

    ``spec`` is the sum it was fitted for, the only one whose remainders
    :func:`delta_direct` and :func:`delta_mean_square` form with it.  ``c0``
    is the fitted constant; ``std_error`` is the standard error of the
    block means around it (the drift detector); ``oscillation_rms`` is the
    within-block RMS of the oscillating part.  ``power_exponent`` is the
    modulus exponent on the power term, always the residue value ``-1 - a``
    (see the module docstring).  ``linear_coeff`` and ``power_coeff`` are the
    smooth terms' coefficients ``k^(a-1) zeta(1-a)`` and
    ``k^E zeta(1+a)/(1+a)``, which every remainder of the fit subtracts.
    """

    spec: TwistedSumSpec
    c0: complex
    std_error: float
    oscillation_rms: float
    power_exponent: float
    linear_coeff: float
    power_coeff: float

    @property
    def drift_ratio(self) -> float:
        """``std_error / oscillation_rms``; the fit rejects above 0.1."""
        if self.oscillation_rms == 0.0:
            return math.inf if self.std_error > 0.0 else 0.0
        return self.std_error / self.oscillation_rms


@dataclass(frozen=True)
class TwistedSumSpec:
    """A twisted divisor sum ``sum sigma_a(n) e(h n / k_mod)``.

    ``a`` is the signed exponent in ``(-1/2, 0]`` (zero gives the plain
    divisor function and is admitted for the raw sum only); ``h`` is reduced,
    ``0 <= h < k_mod``, and coprime to the modulus (``h = 0`` only at ``k_mod = 1``).
    """

    a: float
    h: int
    k_mod: int

    def __post_init__(self) -> None:
        if not isinstance(self.h, int) or not isinstance(self.k_mod, int):
            raise ValidationError("h and k_mod must be integers")
        _check_k_mod(self.k_mod)
        if not 0 <= self.h < self.k_mod:
            raise ValidationError(
                f"h must satisfy 0 <= h < k_mod, got h={self.h}, k_mod={self.k_mod}", "h"
            )
        if math.gcd(self.h, self.k_mod) != 1:
            raise ValidationError(
                f"h={self.h} and k_mod={self.k_mod} must be coprime", "h"
            )
        a = float(self.a)
        if not -0.5 < a <= 0.0:
            raise ValidationError(f"exponent a must lie in (-1/2, 0], got {self.a}", "a")
        object.__setattr__(self, "a", a)

    @property
    def h_bar(self) -> int:
        """``h``'s inverse mod ``k_mod`` (0 at ``k_mod = 1``), the twist of both series."""
        return pow(self.h, -1, self.k_mod)


@dataclass(frozen=True)
class TruncationPlan:
    """Truncation of the oscillating series at ``n_terms``.

    ``tail_estimate`` bounds the truncation error over the x range it was
    planned for; it is computed by :func:`truncation_plan` from the envelope
    of the last included term times the local phase-coherence length, and is
    positive even for the ``n_terms = 0`` sentinel (where it estimates the
    whole remainder's scale).
    """

    n_terms: int
    tail_estimate: float

    def __post_init__(self) -> None:
        _check_n_terms(self.n_terms)
        if not (self.tail_estimate > 0.0 and math.isfinite(self.tail_estimate)):
            raise ValidationError(
                f"tail_estimate must be positive and finite, got {self.tail_estimate}"
            )


def _check_n_terms(n_terms: int) -> None:
    if not 0 <= n_terms <= X_MAX:  # the series' divisor sieve has n_terms entries
        raise ValidationError(f"n_terms must satisfy 0 <= n_terms <= {X_MAX:.0f}, got {n_terms}")


def _check_x_max(x: float, source: str = "") -> None:  # source: the argument x comes from
    if not x <= X_MAX:  # written so that NaN fails too
        raise ValidationError(f"the twisted sum is formed only up to x = {X_MAX:g}, got x = {x!r}{source}")


def _check_x(name: str, x: float) -> None:
    """The point check of every single-x entry point: finite, >= 1, <= X_MAX."""
    if not (math.isfinite(x) and x >= 1.0):
        raise ValidationError(f"{name} requires x >= 1, got {x}")
    _check_x_max(x)


def _raw_sum(spec: TwistedSumSpec, x_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorised ``D(x)`` for ``1 <= x <= x_max``, half weight at integer x.

    The terms ``sigma_a(n) e(hn/k)`` up to ``floor(x_max)`` and their
    cumulative sums are formed once, when this is called; a cumulative sum's
    prefix has the same bits at any length.
    """
    _check_x_max(x_max)
    n = np.arange(1, math.floor(x_max) + 1, dtype=np.int64)
    terms = divisor_sigma_range(spec.a, n.size) * unit_phase(spec.h * n, spec.k_mod)
    cum = np.cumsum(terms)

    def values(xs: np.ndarray) -> np.ndarray:
        floors = np.floor(xs).astype(np.int64)
        vals = cum[floors - 1]
        at_integer = xs == floors
        if at_integer.any():
            vals[at_integer] -= 0.5 * terms[floors[at_integer] - 1]
        return vals

    return values


def _smooth_coefficients(spec: TwistedSumSpec, exponent: float) -> tuple[float, float]:
    """The smooth main terms' coefficients ``k^(a-1) zeta(1-a)`` and ``k^E zeta(1+a)/(1+a)``
    for ``a < 0``, with ``E`` the modulus ``exponent`` (see the module docstring)."""
    a = spec.a
    k = float(spec.k_mod)
    linear_coeff = k ** (a - 1.0) * zeta(complex(1.0 - a)).real
    power_coeff = k**exponent * zeta(complex(1.0 + a)).real / (1.0 + a)
    return linear_coeff, power_coeff


def _main_values(a: float, linear_coeff: float, power_coeff: float, xs: np.ndarray) -> np.ndarray:
    """Sum of the two smooth main terms ``linear_coeff x + power_coeff x^(1+a)`` at each ``x``."""
    return linear_coeff * xs + power_coeff * xs ** (1.0 + a)


def calibrate(
    spec: TwistedSumSpec,
    *,
    power_modulus_exponent: float | None = None,
    x_lo: float | None = None,
    samples: int = 640,
) -> Calibration:
    """Fit the constant ``C0`` of the decomposition over ``x in [x_lo, 4 x_lo]``.

    Least squares against the model ``C0 + oscillation`` on a uniform grid:
    ``C0`` is the grand mean, the oscillation RMS is measured within
    8 blocks, and the standard error of the block means around ``C0`` is the
    drift detector.  A smooth systematic error (wrong main terms, a window
    too short for the modulus) inflates the block-mean scatter far above the
    oscillation level; the fit rejects when the standard error exceeds 10% of
    the oscillation RMS.  ``power_modulus_exponent`` may only repeat the
    residue value ``-1.0 - spec.a`` (see the module docstring), ``x_lo``
    defaults to :func:`calibration_x_lo` of the modulus, and ``samples`` is a
    multiple of 8 from 256 to 65 536, all checked before any array is formed.

    Nothing is stored on the spec: the fit is returned, and a call whose
    resolved parameters (spec, ``x_lo``, samples) were fitted before returns
    that fit again.
    """
    if x_lo is None:
        x_lo = calibration_x_lo(spec.k_mod)
    if not (math.isfinite(x_lo) and x_lo >= 1.0):
        raise ValidationError(f"calibration requires x_lo >= 1, got {x_lo}")
    _check_x_max(4.0 * x_lo, f" from x_lo = {x_lo!r}")  # the window's top, before its grid is formed
    if not _CALIBRATION_MIN_SAMPLES <= samples <= _CALIBRATION_MAX_SAMPLES or samples % _CALIBRATION_BLOCKS:
        raise ValidationError(
            f"calibration needs {_CALIBRATION_MIN_SAMPLES} to {_CALIBRATION_MAX_SAMPLES} samples, "
            f"a multiple of its {_CALIBRATION_BLOCKS} drift blocks, got {samples}"
        )
    a = spec.a
    if a == 0.0:
        raise ValidationError("calibration requires a < 0 (no smooth main terms at a=0)", "a")
    if power_modulus_exponent is not None and power_modulus_exponent != -1.0 - a:
        raise ValidationError(
            f"calibration uses the residue value -1 - a = {-1.0 - a!r} as its power_modulus_exponent; "
            f"omit it or pass that value, got {power_modulus_exponent!r}"
        )
    return _fit(spec, x_lo, samples)


@functools.lru_cache(maxsize=64)
def _fit(spec: TwistedSumSpec, x_lo: float, samples: int) -> Calibration:
    """The fit of :func:`calibrate` on its checked, resolved parameters."""
    a = spec.a
    x_hi = 4.0 * x_lo
    exponent = -1.0 - a
    # No square the fit sums overflows: k^E <= 1, x_hi <= 2^20, |zeta(1+a)/(1+a)| < 1e16 (zeta
    # refuses the pole once 1 + a rounds to 1), samples <= 2^16: 4 samples (power term)^2 < 1e50.
    linear_coeff, power_coeff = _smooth_coefficients(spec, exponent)
    # Midpoint grid: sample offsets (j + 1/2)/samples never hit the window
    # edges, and for the default window land on no integers.
    xs = x_lo + (x_hi - x_lo) * (np.arange(samples) + 0.5) / samples
    residual = _raw_sum(spec, x_hi)(xs) - _main_values(a, linear_coeff, power_coeff, xs)
    c0 = complex(np.mean(residual))
    blocks = residual.reshape(_CALIBRATION_BLOCKS, -1)
    block_means = blocks.mean(axis=1)
    centered = blocks - block_means[:, None]
    oscillation_rms = float(np.sqrt(np.mean(np.abs(centered) ** 2)))
    block_scatter = float(
        np.sqrt(
            np.sum(np.abs(block_means - c0) ** 2) / (_CALIBRATION_BLOCKS - 1)
        )
    )
    std_error = block_scatter / math.sqrt(_CALIBRATION_BLOCKS)
    result = Calibration(
        spec=spec,
        c0=c0,
        std_error=std_error,
        oscillation_rms=oscillation_rms,
        power_exponent=exponent,
        linear_coeff=linear_coeff,
        power_coeff=power_coeff,
    )
    if not result.drift_ratio <= 0.1:  # written so that a NaN ratio fails
        raise CalibrationError(
            "constant fit rejected: block-mean standard error is "
            f"{result.drift_ratio:.3g} of the oscillation RMS (limit 0.1) on [{x_lo:g}, {x_hi:g}]. "
            "A smooth drift of this size usually means the window is too short "
            f"for the modulus k = {spec.k_mod} (see calibration_x_lo)."
        )
    return result


def _calibration_of(spec: TwistedSumSpec, calibration: Calibration | None, name: str) -> Calibration:
    """``calibration`` if it is a fit of ``spec``, ``calibrate(spec)`` if it is ``None``."""
    if calibration is None:
        return calibrate(spec)
    if calibration.spec != spec:
        raise ValidationError(f"{name} of {spec} was given a calibration fitted for {calibration.spec}")
    return calibration


def _delta(spec: TwistedSumSpec, raw: Callable, cal: Calibration, xs: np.ndarray) -> np.ndarray:
    """``D(x) - main terms - C0`` at each ``x`` of ``xs``; ``raw`` is from :func:`_raw_sum`."""
    return raw(xs) - _main_values(spec.a, cal.linear_coeff, cal.power_coeff, xs) - cal.c0


def delta_direct(
    spec: TwistedSumSpec, x: float | np.ndarray, calibration: Calibration | None = None
) -> complex | np.ndarray:
    """Oscillating remainder by definition: ``D(x) - main terms - C0``.

    ``x`` is a float, giving a complex, or a non-empty 1-d array, giving an
    array from one pass of the raw sum up to its largest x.  ``calibration``
    is a fit of this spec from :func:`calibrate` (a fit of another spec is
    refused); ``None`` means ``calibrate(spec)`` with default parameters (so
    a drifting decomposition raises :class:`~zetastrip.errors.CalibrationError`
    here too).
    """
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim > 1:
        raise ValidationError(f"delta_direct requires a float or a 1-d array of x, got shape {xs.shape}")
    if not xs.size:
        raise ValidationError(f"delta_direct requires at least one x, got {x!r}")
    _check_x("delta_direct", float(xs.min()))  # _raw_sum checks the largest against X_MAX
    cal = _calibration_of(spec, calibration, "delta_direct")
    values = _delta(spec, _raw_sum(spec, float(xs.max())), cal, xs.reshape(-1))
    return values if xs.ndim else complex(values[0])


def _term_envelope(spec: TwistedSumSpec, x: float, n) -> np.ndarray:
    """Envelope of the ``n``-th oscillating-series term at ``x``.

    In the oscillatory regime (``4 pi sqrt(nx)/k`` large) every kernel branch
    is bounded by ``sqrt(2/(pi z))``, giving

        envelope(n) = c(a, k) sigma_a(n) n^(-(1+a)/2) x^((1+a)/2) (n x)^(-1/4)

    with ``c = (|cos(pi a/2)| + |sin(pi a/2)|) sqrt(k) / (pi sqrt(2))``,
    for ``1 <= x <= X_MAX`` and integers ``n >= 1``.
    """
    a = spec.a
    half = 0.5 * (1.0 + a)
    const = (abs(math.cos(0.5 * math.pi * a)) + abs(math.sin(0.5 * math.pi * a))) * math.sqrt(spec.k_mod) / (
        math.pi * math.sqrt(2.0)
    )
    n_int = np.asarray(n)
    n_arr = n_int.astype(np.float64)
    sig = divisor_sigma_range(spec.a, int(n_int.max()))
    return const * sig[n_int - 1] * n_arr ** (-half) * x**half * (n_arr * x) ** -0.25


def truncation_plan(
    spec: TwistedSumSpec, x_range: tuple[float, float], n_terms: int
) -> TruncationPlan:
    """Build a :class:`TruncationPlan` with a calibrated tail estimate.

    The tail of the oscillating series past ``n_terms`` is estimated as the
    last included term's envelope times the local phase-coherence length
    ``max(1, k sqrt(n) / sqrt(x))`` (the number of consecutive terms whose
    phases ``4 pi sqrt(nx)/k`` still add constructively), times the safety
    factor :data:`TAIL_SAFETY`.  The envelope is taken at the large end of
    ``x_range`` and the coherence length at the small end, the worst case of
    each.  For the ``n_terms = 0`` sentinel the estimate uses ``n = 1`` and
    bounds the scale of the whole remainder.
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    # Checked before the sieve and the envelope's powers.
    if not (math.isfinite(lo) and math.isfinite(hi) and 1.0 <= lo <= hi):
        raise ValidationError(f"x_range must satisfy 1 <= lo <= hi, got {(lo, hi)}")
    _check_x_max(hi, f" from x_range = {x_range!r}")
    _check_n_terms(n_terms)
    n_edge = max(n_terms, 1)
    envelope = float(_term_envelope(spec, hi, n_edge))
    coherence = max(1.0, spec.k_mod * math.sqrt(n_edge) / math.sqrt(lo))
    tail = TAIL_SAFETY * envelope * coherence
    return TruncationPlan(n_terms=int(n_terms), tail_estimate=tail)


def _series(spec: TwistedSumSpec, plan: TruncationPlan, scale: float, power: float, kernel) -> complex:
    """``scale sum_{n <= N} sigma_a(n) n^power kernel(n) e(-h_bar n/k)``, formed left
    to right and summed correctly rounded; an empty plan gives zero."""
    if plan.n_terms == 0:
        return 0.0 + 0.0j
    n_int = np.arange(1, plan.n_terms + 1, dtype=np.int64)
    n = n_int.astype(np.float64)
    sig = divisor_sigma_range(spec.a, plan.n_terms)
    return fsum_complex(scale * sig * n**power * kernel(n) * unit_phase(-spec.h_bar * n_int, spec.k_mod))


def delta_bessel(spec: TwistedSumSpec, x: float, plan: TruncationPlan) -> complex:
    """Bessel-kernel series for the oscillating remainder, truncated per plan.

    ``x^((1+a)/2) sum_{n <= N} sigma_a(n) e(-h_bar n/k) n^(-(1+a)/2) kernel(z)``
    with ``h_bar`` = :attr:`TwistedSumSpec.h_bar`, ``z = 4 pi sqrt(nx)/k`` and

        kernel(z) = -(2/pi) cos(pi a/2) [K_{a+1}(z) + (pi/2) Y_{a+1}(z)]
                    - sin(pi a/2) J_{1+a}(z).

    The truncation error is bounded by ``plan.tail_estimate``.
    """
    _check_x("delta_bessel", x)
    a = spec.a
    nu = a + 1.0
    cos_half = math.cos(0.5 * math.pi * a)
    sin_half = math.sin(0.5 * math.pi * a)

    def kernel(n: np.ndarray) -> np.ndarray:
        k, y, j = bessel(nu, (4.0 * math.pi / spec.k_mod) * np.sqrt(n * x))
        return -(2.0 / math.pi) * cos_half * (k + (0.5 * math.pi) * y) - sin_half * j

    return _series(spec, plan, x ** (0.5 * (1.0 + a)), -0.5 * (1.0 + a), kernel)


def delta_asymptotic(spec: TwistedSumSpec, x: float, plan: TruncationPlan) -> complex:
    """Large-argument cosine form of the oscillating series.

    ``sqrt(k)/(sqrt(2) pi) x^((2a+1)/4) sum_{n <= N} sigma_a(n) e(-h_bar n/k)
    n^(-(3+2a)/4) [cos(theta) - c_n sin(theta)]`` with
    ``theta = 4 pi sqrt(nx)/k - pi/4`` and the first-order correction
    ``c_n = (4 (1+a)^2 - 1) k / (32 pi sqrt(nx))``.  The correction
    coefficient is ``(4 nu^2 - 1)/(8 z)`` from the standard large-``z``
    expansions of ``J_nu`` and ``Y_nu`` at ``nu = a + 1``; in the
    half-critical-line parametrisation ``a = 2 sigma - 1`` it reads
    ``16 sigma^2 - 1``.

    Requires the smallest phase argument ``4 pi sqrt(x)/k`` to be at least
    :data:`ASYMPTOTIC_PHASE_FLOOR`; below that the expansion is meaningless
    and a :class:`~zetastrip.errors.ValidationError` is raised.
    """
    _check_x("delta_asymptotic", x)
    k = spec.k_mod
    smallest_phase = 4.0 * math.pi * math.sqrt(x) / k
    if smallest_phase < ASYMPTOTIC_PHASE_FLOOR:
        raise ValidationError(
            f"asymptotic form invalid: 4 pi sqrt(x)/k = {smallest_phase:.3g} "
            f"is below the validity floor {ASYMPTOTIC_PHASE_FLOOR}"
        )
    a = spec.a

    def kernel(n: np.ndarray) -> np.ndarray:
        root = np.sqrt(n * x)
        theta = (4.0 * math.pi / k) * root - 0.25 * math.pi
        correction = (4.0 * (1.0 + a) ** 2 - 1.0) * k / (32.0 * math.pi * root)
        return np.cos(theta) - correction * np.sin(theta)

    prefactor = math.sqrt(k) / (math.sqrt(2.0) * math.pi) * x ** (0.25 * (2.0 * a + 1.0))
    return _series(spec, plan, prefactor, -0.25 * (3.0 + 2.0 * a), kernel)


def delta_mean_square(spec: TwistedSumSpec, u: float, calibration: Calibration | None = None) -> float:
    """``integral_{u/2}^{u} |delta_direct(x)|^2 dx`` by adaptive quadrature.

    The integrand has jump discontinuities at the integers (the raw sum
    steps), so each initial panel runs to the next integer, and inside the
    panels the integrand is smooth and low-frequency.  The quadrature's panel
    budget bounds these panels too.  ``calibration`` is read as by
    :func:`delta_direct`; without one, a
    :class:`~zetastrip.errors.CalibrationError` of the default fit propagates.
    """
    if not (math.isfinite(u) and u >= 4.0):
        raise ValidationError(f"delta_mean_square requires u >= 4, got {u}")
    lo, hi = 0.5 * u, float(u)
    _check_x_max(hi, f" from u = {u!r}")  # before the fit
    cal = _calibration_of(spec, calibration, "delta_mean_square")
    # Formed at the first integrand call, once the panel budget has passed
    # the initial panels, so a refused u pays for no sieve of u entries.
    raw = functools.cache(lambda: _raw_sum(spec, hi))

    result = integrate_adaptive(
        lambda xs: np.abs(_delta(spec, raw(), cal, xs)) ** 2,
        lo, hi, stage="Voronoi mean square", abs_tol=_MEAN_SQUARE_ABS_TOL, rel_tol=_MEAN_SQUARE_REL_TOL,
        # For x >= 1 this width is exact and x + width is the next
        # integer, so every jump of the raw sum is a panel edge.
        initial_width=lambda x: math.floor(x) + 1.0 - x,
    )
    return float(result.value)
