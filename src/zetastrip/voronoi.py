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
  at one ``x`` or at an array of them from one pass of the raw sum;
* :func:`delta_bessel` - a Bessel-kernel series with terms
  ``sigma_a(n) e(-hn/k) n^(-(1+a)/2)`` against the kernel
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
raw sum :func:`twisted_sum`; the smooth main terms have a zeta pole there and
raise.

The modulus exponent on the power term
--------------------------------------
Two values of the exponent ``E`` on ``k^E x^(1+a)`` are in circulation; they
agree at ``k = 1``.  The default here is ``E = 1 - a``.  Computing the residue
of the underlying Estermann series ``sum sigma_a(n) e(hn/k) n^(-s)`` at
``s = 1 + a`` gives ``E = -1 - a`` instead.  The module does not silently pick
one: :func:`calibrate` fits the constant ``C0`` block-wise over a window, and
a wrong exponent for ``k >= 2`` shows up as a smooth drift that fails the fit
(:class:`~zetastrip.errors.CalibrationError` reports the drift ratio).  Pass
``power_modulus_exponent=-1 - a`` to use the residue-derived value; every
calibration records which exponent it used.

Determinism
-----------
Series terms are evaluated index-parallel (vectorised) and summed with
``math.fsum``, which is correctly rounded, so values do not depend on
batching or summation order.
Calibration is a one-time phase per spec: the first call stores its result on
the spec, later calls must agree on the parameters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arithmetic import SIEVE_MAX, divisor_sigma_range, fsum_complex, unit_phase
from .errors import CalibrationError, ValidationError
from .quadrature import integrate_adaptive, stage
from .special import bessel, zeta

__all__ = [
    "TwistedSumSpec",
    "TruncationPlan",
    "Calibration",
    "exponent_from_sigma",
    "twisted_sum",
    "calibrate",
    "delta_direct",
    "delta_bessel",
    "delta_asymptotic",
    "delta_mean_square",
    "term_envelope",
    "truncation_plan",
    "TWIST_MODES",
    "X_MAX",
]

#: Safety multiplier converting the last-term envelope times the local phase
#: coherence length into a truncation-tail estimate.  Calibrated against
#: measured |S(4N) - S(N)| over random (spec, x, N) draws; see the tests.
TAIL_SAFETY = 4.0

#: Number of blocks used by the calibration drift check.
_CALIBRATION_BLOCKS = 8

#: Largest x at which the raw sum D(x) or the series is formed, and largest
#: series length: the divisor sieve has about x (or n_terms) entries.
X_MAX = SIEVE_MAX

#: Relative validity floor for the cosine asymptotics: the smallest phase
#: argument 4 pi sqrt(x) / k must be at least this large.
ASYMPTOTIC_PHASE_FLOOR = 10.0

#: Which unit twists the Voronoi series: ``h`` (``direct``) or its inverse
#: modulo ``k`` (``inverse``); the first is the default.
TWIST_MODES = ("direct", "inverse")


def exponent_from_sigma(sigma: float) -> float:
    """Signed divisor exponent ``a = 2 sigma - 1`` for ``sigma in (1/4, 1/2)``."""
    if not 0.25 < sigma < 0.5:
        raise ValidationError(f"sigma must lie in (1/4, 1/2), got {sigma}")
    return 2.0 * sigma - 1.0


@dataclass(frozen=True)
class Calibration:
    """Result of the one-time constant fit for a :class:`TwistedSumSpec`.

    ``c0`` is the fitted constant; ``std_error`` is the standard error of the
    block means around it (the drift detector); ``oscillation_rms`` is the
    within-block RMS of the oscillating part.  ``power_exponent`` records the
    modulus exponent that was used on the power term, since the fitted
    constant is only meaningful together with it.
    """

    c0: complex
    std_error: float
    oscillation_rms: float
    x_lo: float
    x_hi: float
    samples: int
    power_exponent: float

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
    ``0 <= h < k_mod``, and coprime to the modulus when nonzero.
    """

    a: float
    h: int
    k_mod: int
    _calibration: Calibration | None = field(
        default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.h, int) or not isinstance(self.k_mod, int):
            raise ValidationError("h and k_mod must be integers")
        if not 1 <= self.k_mod <= X_MAX:  # so that every h n of a sum is exact in int64
            raise ValidationError(f"k_mod must satisfy 1 <= k_mod <= {X_MAX:.0f}, got {self.k_mod}")
        if not 0 <= self.h < self.k_mod:
            raise ValidationError(
                f"h must satisfy 0 <= h < k_mod, got h={self.h}, k_mod={self.k_mod}"
            )
        if self.h != 0 and math.gcd(self.h, self.k_mod) != 1:
            raise ValidationError(
                f"h={self.h} and k_mod={self.k_mod} must be coprime"
            )
        a = float(self.a)
        if not -0.5 < a <= 0.0:
            raise ValidationError(f"exponent a must lie in (-1/2, 0], got {self.a}")
        object.__setattr__(self, "a", a)

    @property
    def calibration(self) -> Calibration | None:
        """The stored calibration, or ``None`` before :func:`calibrate`."""
        return self._calibration


@dataclass(frozen=True)
class TruncationPlan:
    """Truncation of the oscillating series at ``n_terms`` over ``x_range``.

    ``tail_estimate`` bounds the truncation error over the range; it is
    computed by :func:`truncation_plan` from the envelope of the last included
    term times the local phase-coherence length, and is positive even for the
    ``n_terms = 0`` sentinel (where it estimates the whole remainder's scale).
    """

    n_terms: int
    tail_estimate: float
    x_range: tuple[float, float]

    def __post_init__(self) -> None:
        _check_plan_limits(self.x_range, self.n_terms)
        if not (self.tail_estimate > 0.0 and math.isfinite(self.tail_estimate)):
            raise ValidationError(
                f"tail_estimate must be positive and finite, got {self.tail_estimate}"
            )


def _check_plan_limits(x_range: tuple[float, float], n_terms: int) -> None:
    lo, hi = x_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 1.0 <= lo <= hi):
        raise ValidationError(f"x_range must satisfy 1 <= lo <= hi, got {x_range}")
    _check_x_max(hi)
    if not 0 <= n_terms <= X_MAX:  # the series' divisor sieve has n_terms entries
        raise ValidationError(f"n_terms must satisfy 0 <= n_terms <= {X_MAX:.0f}, got {n_terms}")


def _check_x_max(x: float) -> None:
    if not x <= X_MAX:  # written so that NaN fails too
        raise ValidationError(f"the twisted sum is formed only up to x = {X_MAX:g}, got x = {x!r}")


def _check_x(name: str, x: float) -> None:
    """The point check of every single-x entry point: finite, >= 1, <= X_MAX."""
    if not (math.isfinite(x) and x >= 1.0):
        raise ValidationError(f"{name} requires x >= 1, got {x}")
    _check_x_max(x)


def _phases(m: int, n: np.ndarray, k: int) -> np.ndarray:
    """``e(m n / k)``, formed without exponentials when ``m = 0``."""
    return unit_phase(m * n, k) if m else np.ones(n.size, dtype=np.complex128)


def _raw_sum(spec: TwistedSumSpec, x_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorised ``D(x)`` for ``1 <= x <= x_max``, half weight at integer x.

    The terms ``sigma_a(n) e(hn/k)`` up to ``floor(x_max)`` and their
    cumulative sums are formed once, when this is called; a cumulative sum's
    prefix has the same bits at any length.
    """
    _check_x_max(x_max)
    n = np.arange(1, math.floor(x_max) + 1, dtype=np.int64)
    terms = divisor_sigma_range(spec.a, n.size) * _phases(spec.h, n, spec.k_mod)
    cum = np.cumsum(terms)

    def values(xs: np.ndarray) -> np.ndarray:
        floors = np.floor(xs).astype(np.int64)
        vals = cum[floors - 1]
        at_integer = xs == floors
        if at_integer.any():
            vals[at_integer] -= 0.5 * terms[floors[at_integer] - 1]
        return vals

    return values


def _twisted_values(spec: TwistedSumSpec, xs: np.ndarray) -> np.ndarray:
    """``D(x)`` at every ``x`` in ``xs``, from one pass up to the largest."""
    return _raw_sum(spec, float(np.max(xs)))(xs)


def twisted_sum(spec: TwistedSumSpec, x: float) -> complex:
    """``sum'_{n <= x} sigma_a(n) e(h n / k_mod)``, last term halved at integer x."""
    _check_x("twisted_sum", x)
    return complex(_twisted_values(spec, np.array([float(x)]))[0])


def _main_values(spec: TwistedSumSpec, xs: np.ndarray, exponent: float) -> np.ndarray:
    """Sum of the two smooth main terms of the twisted sum at each ``x``.

    ``k^(a-1) zeta(1-a) x + k^E zeta(1+a)/(1+a) x^(1+a)`` with ``E`` the
    modulus ``exponent`` (printed ``1 - a``; the Estermann-residue value is
    ``-1 - a`` -- see the module docstring).
    """
    a = spec.a
    if a == 0.0:
        raise ValidationError(
            "the smooth main terms require a < 0 (zeta(1+a) has a pole at a=0)"
        )
    k = float(spec.k_mod)
    linear_coeff = k ** (a - 1.0) * zeta(complex(1.0 - a)).real
    power_coeff = k**exponent * zeta(complex(1.0 + a)).real / (1.0 + a)
    return linear_coeff * xs + power_coeff * xs ** (1.0 + a)


def calibrate(
    spec: TwistedSumSpec,
    *,
    power_modulus_exponent: float | None = None,
    x_lo: float = 40.0,
    samples: int = 640,
) -> Calibration:
    """Fit the constant ``C0`` of the decomposition over ``x in [x_lo, 4 x_lo]``.

    Least squares against the model ``C0 + oscillation`` on a uniform grid:
    ``C0`` is the grand mean, the oscillation RMS is measured within
    8 blocks, and the standard error of the block means around ``C0`` is the
    drift detector.  A smooth systematic error (wrong main terms, wrong
    modulus exponent) inflates the block-mean scatter far above the
    oscillation level; the fit rejects when the standard error exceeds 10% of
    the oscillation RMS.

    The first successful call stores its result on the spec; repeated calls
    must use the same parameters and return the stored result.
    """
    if not (math.isfinite(x_lo) and x_lo >= 1.0):
        raise ValidationError(f"calibration requires x_lo >= 1, got {x_lo}")
    _check_x_max(4.0 * x_lo)  # the window's top, before its grid is formed
    if samples < 8 * _CALIBRATION_BLOCKS or samples % _CALIBRATION_BLOCKS:
        raise ValidationError(
            f"calibration needs >= {8 * _CALIBRATION_BLOCKS} samples, a multiple of its "
            f"{_CALIBRATION_BLOCKS} drift blocks, got {samples}"
        )
    a = spec.a
    if a == 0.0:
        raise ValidationError("calibration requires a < 0 (no smooth main terms at a=0)")
    exponent = (1.0 - a) if power_modulus_exponent is None else float(power_modulus_exponent)
    if not (math.isfinite(exponent) and exponent * math.log(spec.k_mod) < math.log(sys.float_info.max)):
        raise ValidationError(
            f"calibration requires a power_modulus_exponent E with k^E a finite float, got E = {exponent}"
        )
    stored = spec._calibration
    if stored is not None:
        if (
            stored.power_exponent == exponent
            and stored.x_lo == x_lo
            and stored.samples == samples
        ):
            return stored
        raise ValidationError(
            "spec already calibrated with different parameters "
            f"(stored exponent {stored.power_exponent}, window [{stored.x_lo}, "
            f"{stored.x_hi}], {stored.samples} samples)"
        )
    x_hi = 4.0 * x_lo
    # Midpoint grid: sample offsets (j + 1/2)/samples never hit the window
    # edges, and for the default window land on no integers.
    xs = x_lo + (x_hi - x_lo) * (np.arange(samples) + 0.5) / samples
    residual = _twisted_values(spec, xs) - _main_values(spec, xs, exponent)
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
        c0=c0,
        std_error=std_error,
        oscillation_rms=oscillation_rms,
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        samples=int(samples),
        power_exponent=exponent,
    )
    if not result.drift_ratio <= 0.1:  # written so that a NaN ratio fails
        raise CalibrationError(
            "constant fit rejected: block-mean standard error is "
            f"{result.drift_ratio:.3g} of the oscillation RMS (limit 0.1). "
            "A smooth drift of this size usually means the modulus exponent "
            f"on the power term is wrong (used {exponent:g}; the "
            f"residue-derived value is {-1.0 - a:g})."
        )
    object.__setattr__(spec, "_calibration", result)
    return result


def _delta(spec: TwistedSumSpec, raw: Callable, cal: Calibration, xs: np.ndarray) -> np.ndarray:
    """``D(x) - main terms - C0`` at each ``x`` of ``xs``; ``raw`` is from :func:`_raw_sum`."""
    return raw(xs) - _main_values(spec, xs, cal.power_exponent) - cal.c0


def delta_direct(spec: TwistedSumSpec, x: float | np.ndarray) -> complex | np.ndarray:
    """Oscillating remainder by definition: ``D(x) - main terms - C0``.

    ``x`` is a float, giving a complex, or a 1-d array, giving an array from
    one pass of the raw sum up to its largest x.  Uses the spec's stored
    calibration, running :func:`calibrate` with default parameters first if
    needed (so a drifting decomposition raises
    :class:`~zetastrip.errors.CalibrationError` here too).
    """
    arr = np.asarray(x, dtype=np.float64)
    xs = arr.reshape(-1)
    _check_x("delta_direct", float(xs.min()))  # _raw_sum checks the largest against X_MAX
    cal = spec._calibration or calibrate(spec)
    values = _delta(spec, _raw_sum(spec, float(xs.max())), cal, xs)
    return values if arr.ndim else complex(values[0])


def term_envelope(spec: TwistedSumSpec, x: float, n) -> np.ndarray | float:
    """Envelope of the ``n``-th oscillating-series term at ``x``.

    In the oscillatory regime (``4 pi sqrt(nx)/k`` large) every kernel branch
    is bounded by ``sqrt(2/(pi z))``, giving

        envelope(n) = c(a, k) sigma_a(n) n^(-(1+a)/2) x^((1+a)/2) (n x)^(-1/4)

    with ``c = (|cos(pi a/2)| + |sin(pi a/2)|) sqrt(k) / (pi sqrt(2))``.
    """
    a = spec.a
    half = 0.5 * (1.0 + a)
    const = (
        (abs(math.cos(0.5 * math.pi * a)) + abs(math.sin(0.5 * math.pi * a)))
        * math.sqrt(spec.k_mod)
        / (math.pi * math.sqrt(2.0))
    )
    n_arr = np.asarray(n, dtype=np.float64)
    n_max = int(np.max(n_arr))
    sig = divisor_sigma_range(spec.a, n_max)
    values = (
        const
        * sig[n_arr.astype(np.int64) - 1]
        * n_arr ** (-half)
        * x**half
        * (n_arr * x) ** -0.25
    )
    return float(values) if np.isscalar(n) else values


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
    _check_plan_limits((lo, hi), n_terms)  # before the sieve and the envelope's powers
    n_edge = max(n_terms, 1)
    envelope = float(term_envelope(spec, hi, n_edge))
    coherence = max(1.0, spec.k_mod * math.sqrt(n_edge) / math.sqrt(lo))
    tail = TAIL_SAFETY * envelope * coherence
    return TruncationPlan(n_terms=int(n_terms), tail_estimate=tail, x_range=(lo, hi))


def _series(
    spec: TwistedSumSpec, plan: TruncationPlan, twist: str, scale: float, power: float, kernel
) -> complex:
    """``scale sum_{n <= N} sigma_a(n) n^power kernel(n) e(-m n/k)``, the product
    formed left to right and summed correctly rounded; ``m`` is ``h`` or its
    inverse mod ``k`` as ``twist`` says, and an empty plan gives zero."""
    if plan.n_terms == 0:
        return 0.0 + 0.0j
    if twist not in TWIST_MODES:
        raise ValidationError(f"twist must be one of {TWIST_MODES}, got {twist!r}")
    m = spec.h if twist == "direct" or spec.h == 0 else pow(spec.h, -1, spec.k_mod)
    n_int = np.arange(1, plan.n_terms + 1, dtype=np.int64)
    n = n_int.astype(np.float64)
    sig = divisor_sigma_range(spec.a, plan.n_terms)
    return fsum_complex(scale * sig * n**power * kernel(n) * _phases(-m, n_int, spec.k_mod))


def delta_bessel(
    spec: TwistedSumSpec,
    x: float,
    plan: TruncationPlan,
    *,
    twist: str = "direct",
) -> complex:
    """Bessel-kernel series for the oscillating remainder, truncated per plan.

    ``x^((1+a)/2) sum_{n <= N} sigma_a(n) e(-hn/k) n^(-(1+a)/2) kernel(z)``
    with ``z = 4 pi sqrt(nx)/k`` and

        kernel(z) = -(2/pi) cos(pi a/2) [K_{a+1}(z) + (pi/2) Y_{a+1}(z)]
                    - sin(pi a/2) J_{1+a}(z).

    ``twist='inverse'`` replaces ``h`` by its inverse mod ``k``; both are kept
    because downstream applications are not consistent about which one enters.
    The truncation error is bounded by ``plan.tail_estimate``.
    """
    _check_x("delta_bessel", x)
    a = spec.a
    nu = a + 1.0
    cos_half = math.cos(0.5 * math.pi * a)
    sin_half = math.sin(0.5 * math.pi * a)

    def kernel(n: np.ndarray) -> np.ndarray:
        k, y, j = bessel("KYJ", nu, (4.0 * math.pi / spec.k_mod) * np.sqrt(n * x))
        return -(2.0 / math.pi) * cos_half * (k + (0.5 * math.pi) * y) - sin_half * j

    return _series(spec, plan, twist, x ** (0.5 * (1.0 + a)), -0.5 * (1.0 + a), kernel)


def delta_asymptotic(
    spec: TwistedSumSpec,
    x: float,
    plan: TruncationPlan,
    *,
    twist: str = "direct",
) -> complex:
    """Large-argument cosine form of the oscillating series.

    ``sqrt(k)/(sqrt(2) pi) x^((2a+1)/4) sum_{n <= N} sigma_a(n) e(-hn/k)
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
    return _series(spec, plan, twist, prefactor, -0.25 * (3.0 + 2.0 * a), kernel)


def delta_mean_square(
    spec: TwistedSumSpec,
    u: float,
    *,
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-8,
) -> float:
    """``integral_{u/2}^{u} |delta_direct(x)|^2 dx`` by adaptive quadrature.

    The integrand has jump discontinuities at the integers (the raw sum
    steps); those are passed to the quadrature as breakpoints, inside which
    the integrand is smooth and low-frequency.  Propagates
    :class:`~zetastrip.errors.CalibrationError` from the constant fit.
    """
    if not (math.isfinite(u) and u >= 4.0):
        raise ValidationError(f"delta_mean_square requires u >= 4, got {u}")
    lo, hi = 0.5 * u, float(u)
    raw = _raw_sum(spec, hi)  # checks u <= X_MAX before the fit and the breakpoints
    cal = spec._calibration or calibrate(spec)
    interior = np.arange(math.floor(lo) + 1, math.ceil(hi))
    breakpoints = [float(m) for m in interior if lo < m < hi]

    with stage("Voronoi mean square"):
        result = integrate_adaptive(
            lambda xs: np.abs(_delta(spec, raw, cal, xs)) ** 2,
            lo, hi, abs_tol=abs_tol, rel_tol=rel_tol, breakpoints=breakpoints,
        )
    return float(result.value)
