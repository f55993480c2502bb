"""Stationary-phase bench: oscillatory integrals versus their saddle terms.

Three families of exponential integrals are evaluated by phase-adaptive
quadrature and compared against the explicit expressions that stationary
phase predicts for them:

* :func:`lemma2_compare` - the logarithmic-kernel integral

      integral_a^b exp(+-i (T log((1+y)/y) + 2 pi k y))
                   / (y^alpha (1+y)^beta log^gamma((1+y)/y)) dy

  against the saddle term at ``y0 = U - 1/2`` (where the phase derivative
  ``2 pi k - T/(y(1+y))`` vanishes),

      T^(1/2) exp(i (T V + 2 pi k U - pi k + pi/4))
      / (2 k sqrt(pi) V^gamma U^(1/2) (U-1/2)^alpha (U+1/2)^beta),

  ``U = sqrt(1/4 + T/(2 pi k))``, ``V = 2 arcsinh sqrt(pi k/(2T))``, with an
  evaluated error budget (endpoint terms plus the saddle-remainder power).
  ``sign`` multiplies the linear frequency: ``sign=-1`` replaces ``k`` by
  ``-k``, the phase derivative ``-2 pi k - T/(y(1+y))`` then keeps one sign,
  no saddle exists, and the integral itself must be small against the
  endpoint budget.  (Conjugating the whole phase instead is not a separate
  case: it conjugates the value.)

* :func:`lemma3_decay` - the no-saddle integral over ``[T, 2T]`` whose phase
  derivative keeps one sign, checked to decay like ``T^(3/4 - alpha)``.

* :func:`lemma4_compare` - the Voronoi-side integral weighted by
  :func:`_phi_weight` with phase
  ``4 pi x sqrt(n) - 2 T arcsinh(x sqrt(pi/2T)) - sqrt(2 pi x^2 T + pi^2 x^4)
  + pi x^2``, against its saddle term at ``x0 = (T/(2 pi) - n)/sqrt(n)``
  (present exactly when the indicator :func:`_lemma4_delta` is 1).

Error budgets evaluate the power-scale terms of each comparison; genuinely
exponentially small contributions (``exp(-CT)`` with an unspecified absolute
constant) are not evaluated and are documented per operation.  Lemmas 2 and 4
return one record, :class:`SaddleComparison`: the integral, its saddle term and
the named budgets; it passes when the difference is within ``AUDIT_CONSTANT``
times their total, and the breakdown makes a failure diagnosable.

The ``log(T/(2 pi n))`` in lemma4's saddle term is printed inconsistently in
its sources (a ``3 pi`` appears in one place).  Only ``2 pi`` matches the
quadrature: on a grid of 24 cells it passes all 24 and ``3 pi`` passes 6, so
the phase uses :data:`LOG_CONSTANT` = 2.

Quadrature here is panel-adaptive with the *initial* panel width tied to the
local phase derivative (a fixed number of radians per panel); the shared
Gauss-Kronrod refinement then polices accuracy.  A single quadrature engine
serves the whole package; no Filon-type rule is used because every phase in
scope has at most one interior stationary point at desk scales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import ValidationError
from .quadrature import QuadratureResult, integrate_adaptive, stage
from .special import arcsinh, cis

__all__ = [
    "AUDIT_CONSTANT",
    "LEMMA3_RATIO_CAP",
    "ExpIntegralSpec",
    "SaddleComparison",
    "Lemma2Report",
    "Lemma3Report",
    "Lemma4Report",
    "lemma2_compare",
    "lemma3_decay",
    "lemma4_compare",
    "LOG_CONSTANT",
]

#: Pass threshold: |difference| <= AUDIT_CONSTANT * evaluated budget.
AUDIT_CONSTANT = 10.0

#: Lemma 3 pass threshold: largest over smallest decay-normalised magnitude.
LEMMA3_RATIO_CAP = 20.0

#: Target phase advance per initial quadrature panel, in radians.
PHASE_RADIANS_PER_PANEL = 1.5

#: Hypothesis window for lemma4's lower endpoint: a_lo / sqrt(T) must lie
#: inside [LEMMA4_ENDPOINT_LO, LEMMA4_ENDPOINT_HI].
LEMMA4_ENDPOINT_LO = 0.05
LEMMA4_ENDPOINT_HI = 100.0

#: The lemma-4 phase constant ``c`` of ``log(T/(c pi n))``.
LOG_CONSTANT = 2.0


def _check_exponent(name: str, value: float) -> None:
    """The band (0, 10] of every amplitude exponent of the three lemmas."""
    if not (0.0 < value <= 10.0):  # written so that NaN fails too
        raise ValidationError(f"{name} must lie in (0, 10], got {value}")


@dataclass(frozen=True)
class ExpIntegralSpec:
    """Parameters of the logarithmic-kernel exponential integral.

    ``sign`` is +1 or -1 and multiplies the linear part of the phase
    (``sign=-1`` is the ``k -> -k`` configuration, which has no interior
    saddle).  ``alpha``, ``beta`` and ``gamma`` must be positive and bounded
    (here: at most 10) with ``|alpha - 1| > 0.01``, the uniformity strip of
    the saddle expansion.
    """

    alpha: float
    beta: float
    gamma: float
    a_lo: float
    b_hi: float
    k_freq: float
    T: float
    sign: int = +1

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            _check_exponent(name, getattr(self, name))
        if abs(self.alpha - 1.0) <= 0.01:
            raise ValidationError(
                f"alpha must keep |alpha - 1| > 0.01, got {self.alpha}"
            )
        if not (0.0 < self.a_lo < self.b_hi < math.inf):
            raise ValidationError(
                f"need 0 < a_lo < b_hi, got a_lo={self.a_lo}, b_hi={self.b_hi}"
            )
        if not 0.0 < self.k_freq < math.inf:
            raise ValidationError(f"k_freq must be positive and finite, got {self.k_freq}")
        if not 1.0 <= self.T < math.inf:
            raise ValidationError(f"T must be finite and >= 1, got {self.T}")
        if self.sign not in (+1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def u_value(self) -> float:
        """``U = sqrt(1/4 + T/(2 pi k))``; the interior saddle is ``U - 1/2``."""
        return math.sqrt(0.25 + self.T / (2.0 * math.pi * self.k_freq))

    @property
    def v_value(self) -> float:
        """``V = 2 arcsinh sqrt(pi k / (2 T))``."""
        return 2.0 * arcsinh(math.sqrt(math.pi * self.k_freq / (2.0 * self.T)))


def _phase_integral(
    integrand, derivative, lo: float, hi: float, abs_tol: float, rel_tol: float
) -> QuadratureResult:
    """Integral over ``[lo, hi]`` whose initial panels each advance the phase
    by PHASE_RADIANS_PER_PANEL radians, and are at most ``(hi - lo)/16`` wide."""
    step = PHASE_RADIANS_PER_PANEL
    floor = step / ((hi - lo) / 16.0)

    def width(y: float) -> float:  # called once per initial edge
        rate = abs(derivative(y))
        return step / (floor if floor > rate else rate)  # max(rate, floor)

    return integrate_adaptive(integrand, lo, hi, abs_tol=abs_tol, rel_tol=rel_tol, initial_width=width)


def _exp_integral_lhs(
    spec: ExpIntegralSpec,
    *,
    abs_tol: float = 1e-7,
    rel_tol: float = 1e-9,
) -> QuadratureResult:
    """The logarithmic-kernel integral by phase-adaptive quadrature."""
    T, k = spec.T, spec.k_freq
    signed_freq = float(spec.sign) * 2.0 * math.pi * k

    def integrand(y: np.ndarray) -> np.ndarray:
        ratio = (1.0 + y) / y
        log_ratio = np.log(ratio)
        phase = T * log_ratio + signed_freq * y
        magnitude = y**-spec.alpha * (1.0 + y) ** -spec.beta * log_ratio**-spec.gamma
        return magnitude * cis(phase)

    def derivative(y: float) -> float:
        return signed_freq - T / (y * (1.0 + y))

    with stage(f"lemma2 integral on [a_lo, b_hi] at T = {T!r}, k_freq = {k!r}"):
        return _phase_integral(integrand, derivative, spec.a_lo, spec.b_hi, abs_tol, rel_tol)


def _saddle_term(spec: ExpIntegralSpec) -> complex:
    """The explicit stationary-phase term of the logarithmic-kernel integral.

    Defined for the plus sign and ``k > 0`` only (with the minus sign the
    phase derivative never vanishes inside the range and there is no saddle
    contribution); its one caller calls it only then.
    """
    T, k = spec.T, spec.k_freq
    U, V = spec.u_value, spec.v_value
    phase = T * V + 2.0 * math.pi * k * U - math.pi * k + 0.25 * math.pi
    denominator = (
        2.0 * k * math.sqrt(math.pi) * V**spec.gamma * math.sqrt(U)
        * (U - 0.5) ** spec.alpha * (U + 0.5) ** spec.beta
    )
    return math.sqrt(T) / denominator * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class SaddleComparison:
    """An integral against its saddle term, with the named budgets of their difference.

    ``budgets`` maps each budget's name to its value in report-column order,
    and ``budget_total`` adds them in that order.
    """

    lhs: complex
    saddle: complex
    quadrature_error: float
    budgets: dict[str, float]

    @property
    def difference(self) -> float:
        return abs(self.lhs - self.saddle)

    @property
    def budget_total(self) -> float:
        total = 0.0  # a left-to-right sum: sum() compensates on Python 3.12+
        for value in self.budgets.values():
            total += value
        return total

    @property
    def passed(self) -> bool:
        return self.difference <= AUDIT_CONSTANT * self.budget_total


@dataclass(frozen=True)
class Lemma2Report(SaddleComparison):
    """Comparison of the logarithmic-kernel integral with its saddle term.

    ``budget_endpoint_a`` is ``a^(1-alpha)/T``, ``budget_endpoint_b`` is
    ``b^(gamma-alpha-beta)/k`` and ``budget_saddle_r`` is the power-scale
    remainder (branch recorded in ``r_branch``: ``"k<=T"`` gives
    ``T^((g-a-b)/2 - 1/4) k^(-(g-a-b)/2 - 5/4)``, ``"k>=T"`` gives
    ``T^(-1/2-alpha) k^(alpha-1)``; with the minus sign the saddle term and
    its remainder are absent and compared against zero).
    """

    r_branch: str


def lemma2_compare(
    spec: ExpIntegralSpec,
    *,
    abs_tol: float = 1e-7,
    rel_tol: float = 1e-9,
) -> Lemma2Report:
    """Evaluate the integral, the saddle term and the error budget.

    Preconditions beyond the spec's own: ``a_lo < 1/2``,
    ``a_lo < T/(8 pi k)`` and
    ``b_hi >= max(T, 1/k, U - 1/2)`` (the saddle must be interior).
    Exponentially small contributions (``exp(-CT)`` and friends with
    unspecified absolute constants) are not evaluated; at the bench scales
    ``T >= 10`` they are far below the power-scale budget.
    """
    T, k = spec.T, spec.k_freq
    if not spec.a_lo < 0.5:
        raise ValidationError(f"lemma2 mode requires a_lo < 1/2, got {spec.a_lo}")
    if not spec.a_lo < T / (8.0 * math.pi * k):
        raise ValidationError(
            f"lemma2 mode requires a_lo < T/(8 pi k) = {T / (8.0 * math.pi * k):.4g}"
        )
    b_floor = max(T, 1.0 / k, spec.u_value - 0.5)
    if spec.b_hi < b_floor:
        raise ValidationError(
            f"lemma2 mode requires b_hi >= max(T, 1/k, U - 1/2) = {b_floor:.4g}"
        )
    result = _exp_integral_lhs(spec, abs_tol=abs_tol, rel_tol=rel_tol)
    exponent = spec.gamma - spec.alpha - spec.beta
    budgets = {
        "budget_endpoint_a": spec.a_lo ** (1.0 - spec.alpha) / T,
        "budget_endpoint_b": spec.b_hi**exponent / k,
    }
    if spec.sign == +1:
        saddle = _saddle_term(spec)
        if k <= T:
            r_branch = "k<=T"
            budgets["budget_saddle_r"] = T ** (0.5 * exponent - 0.25) * k ** (-0.5 * exponent - 1.25)
        else:
            r_branch = "k>=T"
            budgets["budget_saddle_r"] = T ** (-0.5 - spec.alpha) * k ** (spec.alpha - 1.0)
    else:
        # No saddle with the minus sign: the integral itself must sit inside
        # the endpoint budget, and the remainder power is dropped with it.
        saddle = 0.0 + 0.0j
        r_branch = "omitted"
        budgets["budget_saddle_r"] = 0.0
    return Lemma2Report(complex(result.value), saddle, float(result.error_estimate), budgets, r_branch)


def _lemma3_phase_derivative(x, k: float):
    """Derivative of the no-saddle phase; negative for all ``x > 0``.

    ``-2 arcsinh sqrt(pi k/2x) + sqrt(pi k)/sqrt(pi k + 2x)
    - (1/2)(1/4 + x/(2 pi k))^(-1/2)`` -- kept as a named helper so the
    no-interior-zero claim is directly testable.
    """
    arr = np.asarray(x, dtype=np.float64)
    value = (
        -2.0 * arcsinh(np.sqrt(math.pi * k / (2.0 * arr)))
        + math.sqrt(math.pi * k) / np.sqrt(math.pi * k + 2.0 * arr)
        - 0.5 * (0.25 + arr / (2.0 * math.pi * k)) ** -0.5
    )
    return float(value) if np.isscalar(x) else value


@dataclass(frozen=True)
class Lemma3Report:
    """Decay check of the no-saddle integral against ``T^(3/4 - alpha)``."""

    t_values: tuple[float, ...]
    magnitudes: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def max_min_ratio(self) -> float:
        return max(self.ratios) / min(self.ratios)

    @property
    def passed(self) -> bool:
        return self.max_min_ratio <= LEMMA3_RATIO_CAP


def _lemma3_integral(alpha: float, k: float, T: float) -> complex:
    pi_k = math.pi * k

    def integrand(x: np.ndarray) -> np.ndarray:
        root = np.sqrt(pi_k / (2.0 * x))
        asr = arcsinh(root)
        u_sq = 0.25 + x / (2.0 * pi_k)
        phase = -(2.0 * x * asr + 2.0 * pi_k * np.sqrt(u_sq) - pi_k + 0.25 * math.pi)
        magnitude = x**-alpha / (asr * u_sq**0.25)
        return magnitude * cis(phase)

    with stage(f"lemma3 integral on [T, 2T] at T = {T!r}, k = {k!r}"):
        result = _phase_integral(integrand, lambda x: _lemma3_phase_derivative(x, k), T, 2.0 * T, 1e-10, 1e-9)
    return complex(result.value)


def lemma3_decay(alpha: float, k: float, t_grid) -> Lemma3Report:
    """Magnitudes of the no-saddle integral over a doubling grid of ``T``.

    Each magnitude is divided by ``T^(3/4 - alpha)``; the verdict requires
    the ratios to agree within a factor of ``LEMMA3_RATIO_CAP`` across the
    grid.
    """
    t_values = tuple(float(t) for t in t_grid)
    if len(t_values) < 2:
        raise ValidationError("lemma3_decay needs at least two T values")
    if not all(10.0 <= t < math.inf for t in t_values):
        raise ValidationError(f"lemma3_decay requires T >= 10, finite, at each T of t_grid, got {t_values}")
    for earlier, later in zip(t_values, t_values[1:]):
        if not math.isclose(later, 2.0 * earlier, rel_tol=1e-12):
            raise ValidationError("t_grid must double at each step")
    if k <= 0.0:
        raise ValidationError(f"k must be positive, got {k}")
    if not math.isfinite(2.0 * math.pi * k):  # the phase and its derivative divide by 2 pi k
        limit = sys.float_info.max / (2.0 * math.pi)
        raise ValidationError(f"k must keep 2 pi k finite, k <= {limit:.6g}, got {k:g}")
    if not 2.0 * t_values[-1] / (2.0 * math.pi * k) < math.inf:  # x / (2 pi k) up to x = 2 T
        raise ValidationError(f"k must keep 2 T / (2 pi k) finite at T = {t_values[-1]:g}, got {k:g}")
    _check_exponent("alpha", alpha)
    for t in t_values:
        # |phase'| decreases in x: no initial panel on [T, 2T] is wider than at 2T.
        panels = max(t * abs(_lemma3_phase_derivative(2.0 * t, k)) / PHASE_RADIANS_PER_PANEL, 16.0)
        if panels > quadrature.MAX_PANELS:
            raise ValidationError(
                f"lemma3_decay at T = {t:g}, k = {k:g} needs at least {panels:.0f} initial "
                f"panels on [T, 2T], above the panel budget {quadrature.MAX_PANELS}"
            )
    magnitudes = tuple(abs(_lemma3_integral(alpha, k, t)) for t in t_values)
    ratios = tuple(
        magnitude / t ** (0.75 - alpha) for magnitude, t in zip(magnitudes, t_values)
    )
    return Lemma3Report(t_values=t_values, magnitudes=magnitudes, ratios=ratios)


def _phi_weight(alpha: float, T: float, x: np.ndarray) -> np.ndarray:
    """The shared saddle weight ``phi_alpha(T, x)`` at each entry of the 1-d
    float array ``x > 0``, for ``T > 0``.

    ``x^(-alpha) arcsinh^(-1)(x sqrt(pi/2T))
    (sqrt(T/(2 pi x^2) + 1/4) + 1/2)^(-1) (T/(2 pi x^2) + 1/4)^(-1/4)``.
    """
    core = T / (2.0 * math.pi * x**2) + 0.25
    return (
        x**-alpha
        / arcsinh(x * math.sqrt(math.pi / (2.0 * T)))
        / (np.sqrt(core) + 0.5)
        / core**0.25
    )


def _lemma4_delta(n: int, a_lo: float, b_hi: float, T: float) -> int:
    """Saddle indicator of an integer ``n >= 1``: 1 iff ``n <= T/(2 pi)`` and
    ``n a^2 <= (T/(2 pi) - n)^2 <= n b^2`` (the saddle
    ``x0 = (T/(2 pi) - n)/sqrt(n)`` lies inside ``[a, b]``)."""
    t_over = T / (2.0 * math.pi)
    return int(n <= t_over and n * a_lo**2 <= (t_over - n) ** 2 <= n * b_hi**2)


@dataclass(frozen=True)
class Lemma4Report(SaddleComparison):
    """Comparison of the phi-weighted integral with its saddle term.

    ``budget_saddle`` is ``delta n^((alpha-1)/2) (T/2pi - n)^(1-alpha)
    T^(-3/2)``; ``budget_endpoint_a`` is the resonance-endpoint bound
    ``T^(-alpha/2) (a/sqrt(T))^(-alpha)
    min(1, 1/|a - sqrt(a^2 + 2T/pi) +- 2 sqrt(n)|)``, the amplitude
    ``x^(-alpha)`` of the weight at ``x = a``, evaluated conservatively at
    the worse sign; ``budget_endpoint_b`` is ``b^(-alpha) / (sqrt(n) + T/b)``.
    Exponentially small terms are not evaluated.
    """

    delta: int


def lemma4_compare(
    alpha: float,
    n: int,
    a_lo: float,
    b_hi: float,
    T: float,
    *,
    abs_tol: float = 1e-8,
    rel_tol: float = 1e-9,
) -> Lemma4Report:
    """Quadrature of the phi-weighted oscillatory integral vs its saddle term.

    The phase is ``4 pi x sqrt(n) - 2 T arcsinh(x sqrt(pi/2T))
    - sqrt(2 pi x^2 T + pi^2 x^4) + pi x^2`` (plus sign of the double-signed
    family; the saddle indicator is defined for it).  The saddle term is

        4 pi delta T^(-1) n^((alpha-1)/2) log^(-1)(T/(2 pi n))
        (T/(2 pi) - n)^(3/2 - alpha)
        exp(i (T - T log(T/(c pi n)) - 2 pi n + pi/4))

    with ``c`` = :data:`LOG_CONSTANT` = 2 (see the module docstring).

    Requires ``a_lo/sqrt(T)`` inside ``[0.05, 100]`` (the fixed-constant
    window of the hypothesis ``A sqrt(T) < a < B sqrt(T)``).  Initial panels
    past the quadrature's panel budget are refused naming n, T, a_lo and b_hi.
    """
    _check_exponent("alpha", alpha)
    if not 1 <= n < math.inf:  # written so that NaN fails too
        raise ValidationError(f"n must be a positive integer, got {n}")
    if T < 10.0:
        raise ValidationError(f"T must be >= 10, got {T}")
    if not (0.0 < a_lo < b_hi < math.inf):
        raise ValidationError(f"need 0 < a_lo < b_hi < inf, got a_lo = {a_lo}, b_hi = {b_hi}")
    endpoint_scale = a_lo / math.sqrt(T)
    if not (LEMMA4_ENDPOINT_LO <= endpoint_scale <= LEMMA4_ENDPOINT_HI):
        raise ValidationError(
            f"a_lo/sqrt(T) = {endpoint_scale:.4g} outside "
            f"[{LEMMA4_ENDPOINT_LO}, {LEMMA4_ENDPOINT_HI}]"
        )
    root_n = math.sqrt(n)
    sqrt_half = math.sqrt(math.pi / (2.0 * T))

    def integrand(x: np.ndarray) -> np.ndarray:
        radical = np.sqrt(2.0 * math.pi * x**2 * T + math.pi**2 * x**4)
        phase = (
            4.0 * math.pi * x * root_n
            - 2.0 * T * arcsinh(x * sqrt_half)
            - radical
            + math.pi * x**2
        )
        return _phi_weight(alpha, T, x) * cis(phase)

    def derivative(x: float) -> float:
        core = 2.0 * math.pi * T + math.pi**2 * x**2
        radical_rate = x * (2.0 * math.pi * T + 2.0 * math.pi**2 * x**2) / math.sqrt(
            x**2 * core
        )
        asr_rate = 2.0 * T * sqrt_half / math.sqrt(1.0 + (x * sqrt_half) ** 2)
        return 4.0 * math.pi * root_n - asr_rate - radical_rate + 2.0 * math.pi * x

    with stage(f"lemma4 integral on [a_lo, b_hi] at n = {n}, T = {T!r}"):
        result = _phase_integral(integrand, derivative, a_lo, b_hi, abs_tol, rel_tol)

    delta = _lemma4_delta(n, a_lo, b_hi, T)
    t_over = T / (2.0 * math.pi)
    if delta == 1:
        gap = t_over - n
        amplitude = (
            4.0 * math.pi / T * n ** (0.5 * (alpha - 1.0))
            / math.log(T / (2.0 * math.pi * n)) * gap ** (1.5 - alpha)
        )
        phase = (
            T - T * math.log(T / (LOG_CONSTANT * math.pi * n)) - 2.0 * math.pi * n + 0.25 * math.pi
        )
        saddle = amplitude * complex(math.cos(phase), math.sin(phase))
        budget_saddle = n ** (0.5 * (alpha - 1.0)) * gap ** (1.0 - alpha) * T**-1.5
    else:
        saddle = 0.0 + 0.0j
        budget_saddle = 0.0

    # Endpoint-resonance bound, evaluated at the worse of the two printed
    # signs (the bound degrades as the denominator shrinks).  The factor
    # endpoint_scale^-alpha carries the weight's x^-alpha from a = sqrt(T)
    # to a_lo; it is exactly 1 at a_lo = sqrt(T).
    shifted = a_lo - math.sqrt(a_lo**2 + 2.0 * T / math.pi)
    denom = min(abs(shifted + 2.0 * root_n), abs(shifted - 2.0 * root_n))
    resonance = 1.0 if denom == 0.0 else min(1.0, 1.0 / denom)
    budget_a = T ** (-0.5 * alpha) * resonance * endpoint_scale**-alpha
    budget_b = b_hi**-alpha / (root_n + T / b_hi)

    budgets = {"budget_saddle": budget_saddle, "budget_endpoint_a": budget_a, "budget_endpoint_b": budget_b}
    return Lemma4Report(complex(result.value), saddle, float(result.error_estimate), budgets, delta)
