"""Oscillatory explicit expansion of the windowed mean square.

This module carries the analytic side of the two central identities of the
package ("theorem 1" and "theorem 2" in the API names):

* the *window identity* expresses the mean square of ``zeta * A`` over
  ``[T, 2T]`` as a difference of closed-form blocks::

      integral_T^{2T} |zeta(sigma+it) A(sigma+it)|^2 dt
          = [M + S1 + S2](2T, 2Y) - [M + S1 + S2](T, Y) + R(T, 2T)

  where ``M`` is the smooth main term (:func:`zetastrip.meansquare.main_term`),
  ``S1(T, Y)`` and ``S2(T, xi(T, Y))`` are finite
  oscillatory sums, ``Y`` is a free cutoff admissible when
  ``C1*T < Y < C2*T``, and the residual ``R`` is small (order
  ``T^{1-2*sigma} log T``);

* the *dyadic reconstruction* telescopes the window identity over the
  intervals ``[2^{-j} T, 2^{-j+1} T]`` down to a short stub near the origin,
  reproducing ``E(T) = I(0,T) - M(T)`` from window-sized pieces.

Phase functions
---------------

``_xi``, ``_f_phase`` and ``_g_phase`` are the saddle-point phase functions of
the two oscillatory sums::

    xi(T, u) = T/(2 pi) + u/2 - sqrt(u^2/4 + u T/(2 pi))
    f(T, u)  = 2 T arcsinh(sqrt(pi u / (2 T))) + sqrt(2 pi u T + pi^2 u^2) - pi/4
    g(T, u)  = T log(T / (2 pi u)) - T + 2 pi u + pi/4

``_xi`` is evaluated in the rationalised form ``A^2 / (A + u/2 + sqrt(...))``
with ``A = T/(2 pi)``, which is free of subtractive cancellation for large
``u``.  The ``+2 pi u`` term of ``g`` cancels exactly against the unit twist
``e(-kappa n / lambda)`` carried by the secondary sum, so for a trivial
polynomial the secondary phase reduces to the classical
``T log(T/(2 pi n)) - T + pi/4``.

Readings
--------

Two keywords of :func:`explicit_terms`, which both reports pass on, pick
how the sums are normalised.  Each names a key of one table, which holds its
factor as a function of sigma: ``_SIGMA1_PREFACTORS`` and
``_SIGMA2_FACTORS``.  Criterion 6 (the window identity at ``sigma = 0.4``,
``A = 1 + 2^{-s}``, ``T`` in {125, ..., 1000}) keeps each reading left:

* ``sigma1_variant``: ``canonical`` (unit prefactor, as printed; criterion
  6's baseline) or ``resolved``, which removes the printed
  ``e^{-2 i pi sigma}`` rotation.  Regressions of windowed quadrature pin
  this scalar within ~1% and ~0.5 degrees at sigma in {0.30, 0.40, 0.45}
  and M = 1, 2, 3; criterion 6 passes only with it.
* ``sigma2_variant``: ``canonical``, ``halved`` (the classical limiting
  coefficient at sigma = 1/2) or ``resolved`` (within 4% of the same
  regressions).  Criterion 6 records ``halved``; ``resolved`` meets its
  residual fraction gate too and misses only the looser spread gate.  At
  A = 1 both ``resolved`` readings are the blocks of Matsumoto's explicit
  formula for E_sigma(T), and ``halved`` is (2 pi)^(1 - 2 sigma) times it.

Defaults are the printed forms.  Sigma_2 twists by ``e(-kappa n / lambda)``
alone.  The other reading, ``e(-kappa_bar n / lambda)``, can differ only where
some ``lambda >= 5``; on five such cross pairs, over sigma in [0.27, 0.48]
and ``T`` in [1000, 8000], its worst window residual is 2 to 13 times this
one's (``tests/pair_residuals.py``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arithmetic import (
    SIEVE_MAX,
    DirichletPolynomial,
    PairData,
    coefficient_pairs,
    divisor_sigma_range,
    fsum_complex,
    pair_weights,
    unit_phase,
)
from .errors import ValidationError
from .meansquare import StripConfig, check_zeta_work, integrate_mean_square, main_term
from .quadrature import QuadratureResult
from .special import cis

__all__ = [
    "WindowConfig",
    "ExplicitTerms",
    "Theorem1Report",
    "Theorem2Report",
    "explicit_terms",
    "theorem1_report",
    "theorem2_report",
    "SIGMA1_VARIANTS",
    "SIGMA2_VARIANTS",
]

_SIGMA1_PREFACTORS = {
    "canonical": lambda sigma: 1.0 + 0.0j,
    "resolved": lambda sigma: (2.0 * math.pi) ** (sigma - 0.5) * cmath.exp(2j * math.pi * sigma),
}
_SIGMA2_FACTORS = {
    "canonical": lambda sigma: 1.0,
    "halved": lambda sigma: 0.5,
    "resolved": lambda sigma: 0.5 * (2.0 * math.pi) ** (2.0 * sigma - 1.0),
}
SIGMA1_VARIANTS = tuple(_SIGMA1_PREFACTORS)
SIGMA2_VARIANTS = tuple(_SIGMA2_FACTORS)


@dataclass(frozen=True)
class WindowConfig:
    """Admissible window ``(T, Y)`` with its constants ``C1 < C2``.

    Invariants (validated on construction):

    * ``0 < c1 < c2``;
    * ``c1 * t < y < c2 * t`` (strict);
    * ``t >= c_star = max(e, 1/c1)``.
    """

    c1: float
    c2: float
    y: float
    t: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "y", "t"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValidationError(f"WindowConfig.{name} must be a finite number")
        if not 0.0 < self.c1 < self.c2:
            raise ValidationError("WindowConfig requires 0 < c1 < c2")
        if self.t < self.c_star:
            raise ValidationError(
                f"WindowConfig requires t >= max(e, 1/c1) = {self.c_star!r}; got t={self.t!r}", "t"
            )
        if not self.c1 * self.t < self.y < self.c2 * self.t:
            raise ValidationError(
                "WindowConfig requires c1*t < y < c2*t; got "
                f"y={self.y!r} outside ({self.c1 * self.t!r}, {self.c2 * self.t!r})"
            )

    @property
    def c_star(self) -> float:
        """Smallest admissible ``t`` for these constants: ``max(e, 1/c1)``."""
        return max(math.e, 1.0 / self.c1)

    def scaled(self, factor: float) -> "WindowConfig":
        """Window at ``(factor*t, factor*y)`` with the same constants."""
        if not (factor > 0.0 and math.isfinite(factor)):
            raise ValidationError("scale factor must be positive and finite")
        return WindowConfig(self.c1, self.c2, self.y * factor, self.t * factor)


@dataclass(frozen=True)
class ExplicitTerms:
    """Snapshot of the closed-form blocks at one ``(T, Y)``.

    ``terms_used_1`` / ``terms_used_2`` count the inner-sum terms actually
    accumulated (pairs with a vanishing coefficient product contribute no
    terms).
    """

    sigma1: float
    sigma2: float
    main: float
    terms_used_1: int
    terms_used_2: int

    @property
    def block_total(self) -> float:
        """``main + sigma1 + sigma2`` -- one side of the window identity."""
        return self.main + self.sigma1 + self.sigma2


def _xi(T: float, u: float) -> float:
    """Secondary cutoff map ``T/(2 pi) + u/2 - sqrt(u^2/4 + u T/(2 pi))`` for finite ``T > 0``, ``u >= 0``.

    Evaluated in rationalised form; satisfies ``0 < xi <= T/(2 pi)`` and the
    defining radical identity ``(T/(2 pi) + u/2 - xi)^2 = u^2/4 + u T/(2 pi)``.
    """
    a = T / (2.0 * math.pi)
    return a * a / (a + 0.5 * u + math.sqrt(0.25 * u * u + u * a))


def _f_phase(T: float, u: np.ndarray) -> np.ndarray:
    """Primary-sum phase ``2T arcsinh sqrt(pi u/2T) + sqrt(2 pi u T + pi^2 u^2) - pi/4``
    at each entry of the 1-d float array ``u``, for finite ``T > 0`` and ``u >= 0``."""
    root = np.arcsinh(np.sqrt(math.pi * u / (2.0 * T)))
    rad = 2.0 * math.pi * u * T + (math.pi * u) ** 2
    return 2.0 * T * root + np.sqrt(rad) - 0.25 * math.pi


def _g_phase(T: float, u: np.ndarray) -> np.ndarray:
    """Secondary-sum phase ``T log(T/(2 pi u)) - T + 2 pi u + pi/4`` at each
    entry of the 1-d float array ``u``, for finite ``T > 0`` and ``u > 0``."""
    return T * np.log(T / (2.0 * math.pi * u)) - T + 2.0 * math.pi * u + 0.25 * math.pi


def _reading(table: dict, what: str, name: str):
    """The factor a reading table holds for ``name``; ``what`` names the reading."""
    if name not in table:
        raise ValidationError(f"{what} must be one of {tuple(table)}")
    return table[name]


# Inner length of a pair's sum in each block at the block's cutoff: ``kappa lambda Y``
# in Sigma_1 (cutoff ``Y``), ``lambda Ycut / kappa`` in Sigma_2 (``Ycut = xi(T, Y)``).
_INNER_LENGTHS = {
    "sigma1": lambda pd, cut: pd.kappa * pd.lam * cut,
    "sigma2": lambda pd, cut: pd.lam * cut / pd.kappa,
}


def _pair_sum(A: DirichletPolynomial, sigma: float, block: str, cut: float, m, terms, outer=()) -> tuple[complex, int]:
    """``(total, count)`` of the pair sum both blocks share: over the pairs of
    :func:`~zetastrip.arithmetic.pair_weights`, weight * ``(kappa lambda)^sigma`` * each
    ``outer`` factor * the sum of ``terms(pd, n, sigma_{2 sigma - 1}(n) n^{-sigma}, e(m(pd) n / lambda))``
    over the ``count`` integers ``n`` up to each ``block`` inner length at ``cut``; every
    product is formed left to right and the pairs are summed correctly rounded."""
    values: list[complex] = []
    count = 0
    for weight, pd in pair_weights(A, sigma):
        n_max = math.floor(_INNER_LENGTHS[block](pd, cut))
        if n_max < 1:
            continue
        n_int = np.arange(1, n_max + 1, dtype=np.int64)
        n = n_int.astype(np.float64)
        base = divisor_sigma_range(2.0 * sigma - 1.0, n_max) * n ** (-sigma)
        coeff = weight * (pd.kappa * pd.lam) ** sigma
        for factor in outer:
            coeff = coeff * factor
        values.append(coeff * complex(np.sum(terms(pd, n, base, unit_phase(m(pd) * n_int, pd.lam)))))
        count += n_max
    return fsum_complex(values), count


def _sigma1_sum(T: float, Y: float, cfg: StripConfig, A: DirichletPolynomial) -> tuple[complex, int]:
    """Primary oscillatory sum ``S1(T, Y)`` before the reading's prefactor and
    the final ``Im{}``: :func:`_pair_sum` over ``n <= kappa*lambda*Y`` with
    ``m = kappa_bar`` and outer factors ``e^{-2 i pi sigma} T^{1/2 - sigma}``,
    whose terms carry after ``sigma_{2 sigma - 1}(n) n^{-sigma}``::

        arcsinh(sqrt(pi n / (2 T kappa lambda)))^{-1}
            * (1 + 2 T kappa lambda/(pi n))^{-1/4}
            * e(kappa_bar n / lambda)
            * exp(i (f(T, n/(kappa lambda)) - pi n/(kappa lambda) + pi/2))

    ``S1`` is ``Im{prefactor * total}``.  Returns ``(total, terms)``.
    """
    sigma = cfg.sigma

    def terms(pd: PairData, n: np.ndarray, base: np.ndarray, unit: np.ndarray) -> np.ndarray:
        kl = pd.kappa * pd.lam
        u = n / kl
        asc = np.arcsinh(np.sqrt(math.pi * n / (2.0 * T * kl)))
        phase = _f_phase(T, u) - math.pi * u + 0.5 * math.pi
        return base / asc * (1.0 + 2.0 * T * kl / (math.pi * n)) ** -0.25 * unit * cis(phase)

    outer = (cmath.exp(-2j * math.pi * sigma), T ** (0.5 - sigma))
    return _pair_sum(A, sigma, "sigma1", Y, lambda pd: pd.kappa_bar, terms, outer)


def _sigma2_sum(T: float, y_cut: float, cfg: StripConfig, A: DirichletPolynomial) -> tuple[complex, int]:
    """Secondary oscillatory sum ``S2(T, Ycut)``, ``Ycut = xi(T, Y)``, before
    the reading's factor and the final ``Re{}``: ``-4 (2 pi T)^{1/2 - sigma}``
    times :func:`_pair_sum` over ``n <= (lambda/kappa) Ycut`` with
    ``m = -kappa``, whose terms carry after ``sigma_{2 sigma - 1}(n) n^{-sigma}``::

        e(-kappa n / lambda) * exp(i g(T, kappa n / lambda)) / log(lambda T/(2 pi kappa n))

    Every retained term must satisfy ``kappa n / lambda < T/(2 pi)`` strictly
    (positive logarithm); violating cutoffs raise :class:`ValidationError`.
    Returns ``(total, terms)``.
    """
    saddle_scale = T / (2.0 * math.pi)

    def terms(pd: PairData, n: np.ndarray, base: np.ndarray, unit: np.ndarray) -> np.ndarray:
        u = pd.kappa * n / pd.lam
        if u[-1] >= saddle_scale:
            raise ValidationError(
                "sigma2 retained a term with kappa*n/lambda >= T/(2 pi); the window cutoff is inadmissible"
            )
        return base * unit * cis(_g_phase(T, u)) / np.log(saddle_scale / u)

    total, count = _pair_sum(A, cfg.sigma, "sigma2", y_cut, lambda pd: -pd.kappa, terms)
    # -T^{1/2-sigma}/(pi^{1/2+sigma} 2^{sigma-1/2}) * 4 pi  ==  -4 (2 pi T)^{1/2-sigma}
    return -4.0 * (2.0 * math.pi * T) ** (0.5 - cfg.sigma) * total, count


def _check_inner_lengths(window: WindowConfig, A: DirichletPolynomial) -> None:
    """Reject a window whose longest Σ₁ or Σ₂ inner sum would outgrow the
    divisor sieve, before any array is formed."""
    pairs = [pd for _, pd in coefficient_pairs(A)]
    cutoffs = {"sigma1": window.y, "sigma2": _xi(window.t, window.y)}
    for block, cut in cutoffs.items():
        length = max((_INNER_LENGTHS[block](pd, cut) for pd in pairs), default=0.0)
        if not length < SIEVE_MAX + 1:  # floor(length) terms; written so that NaN fails too
            raise ValidationError(
                f"the {block} inner sum at t = {window.t!r}, y = {window.y!r} needs {length:.4g} "
                f"terms; the divisor sieve is formed only up to {SIEVE_MAX:.0f}"
            )


def explicit_terms(
    window: WindowConfig,
    cfg: StripConfig,
    A: DirichletPolynomial,
    *,
    sigma1_variant: str = SIGMA1_VARIANTS[0],
    sigma2_variant: str = SIGMA2_VARIANTS[0],
) -> ExplicitTerms:
    """All closed-form blocks of the window identity at one ``(T, Y)``; a block
    that is not a finite float raises :class:`ValidationError`."""
    _check_inner_lengths(window, A)
    prefactor1 = _reading(_SIGMA1_PREFACTORS, "sigma1 variant", sigma1_variant)(cfg.sigma)
    factor2 = _reading(_SIGMA2_FACTORS, "sigma2 variant", sigma2_variant)(cfg.sigma)
    total1, terms1 = _sigma1_sum(window.t, window.y, cfg, A)
    total2, terms2 = _sigma2_sum(window.t, _xi(window.t, window.y), cfg, A)
    sigma1, sigma2 = (prefactor1 * total1).imag, factor2 * total2.real
    if not (math.isfinite(sigma1) and math.isfinite(sigma2)):
        raise ValidationError(
            f"the sigma1 and sigma2 blocks at t = {window.t!r}, y = {window.y!r} are {sigma1!r} and {sigma2!r}, "
            f"not finite floats, for the coefficients {A.coefficients}"
        )
    return ExplicitTerms(sigma1, sigma2, main_term(window.t, cfg, A), terms1, terms2)


def _theorem_step(
    windows: Sequence[WindowConfig], intervals: Sequence[tuple[float, float]], cfg: StripConfig,
    A: DirichletPolynomial, readings: dict, abs_tol: float, rel_tol: float,
) -> tuple[list[ExplicitTerms], list[QuadratureResult]]:
    """The blocks at every window, then the integral over every interval; every window's
    sieve lengths and every integral's zeta work are checked before any block is formed."""
    for window in windows:
        _check_inner_lengths(window, A)
    for t_lo, t_hi in intervals:
        check_zeta_work(t_lo, t_hi, cfg, A)
    blocks = [explicit_terms(window, cfg, A, **readings) for window in windows]
    quads = [
        integrate_mean_square(t_lo, t_hi, cfg, A, abs_tol=abs_tol, rel_tol=rel_tol)
        for t_lo, t_hi in intervals
    ]
    return blocks, quads


@dataclass(frozen=True)
class Theorem1Report:
    """Window identity evaluated once: quadrature side, block sides, residual."""

    quadrature_value: float
    quadrature_error: float
    upper: ExplicitTerms
    lower: ExplicitTerms

    @property
    def block_difference(self) -> float:
        return self.upper.block_total - self.lower.block_total

    @property
    def residual(self) -> float:
        return self.quadrature_value - self.block_difference

    @property
    def oscillatory_rms(self) -> float:
        """Root mean square of the four oscillatory blocks entering the
        identity -- the natural yardstick for the residual."""
        values = (
            self.upper.sigma1,
            self.upper.sigma2,
            self.lower.sigma1,
            self.lower.sigma2,
        )
        return math.sqrt(math.fsum(v * v for v in values) / len(values))


def theorem1_report(
    win: WindowConfig,
    cfg: StripConfig,
    A: DirichletPolynomial,
    *,
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-8,
    **readings: str,
) -> Theorem1Report:
    """Evaluate both sides of the window identity over ``[T, 2T]``
    (:func:`_theorem_step`); ``readings`` go to :func:`explicit_terms`."""
    (upper, lower), (quad,) = _theorem_step(
        (win.scaled(2.0), win), [(win.t, 2.0 * win.t)], cfg, A, readings, abs_tol, rel_tol
    )
    return Theorem1Report(
        quadrature_value=float(quad.value),
        quadrature_error=quad.error_estimate,
        upper=upper,
        lower=lower,
    )


@dataclass(frozen=True)
class Theorem2Report:
    """Two-path evaluation of the dyadic reconstruction.

    ``direct_value`` and ``telescoped_value`` both compute
    ``E(T) - S1(T, Y) - S2(T, xi(T, Y))``; their difference is pure
    quadrature panelisation noise because every closed-form block cancels
    exactly between the two paths.  ``quadrature_error_total`` sums the
    error estimates of every quadrature consumed by either path.
    """

    levels: int
    stub_upper: float
    direct_value: float
    telescoped_value: float
    quadrature_error_total: float

    @property
    def difference(self) -> float:
        return self.direct_value - self.telescoped_value


def _dyadic_levels(T: float, c_star: float, alpha: float) -> int:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be positive and finite")
    if T < c_star:
        raise ValidationError("dyadic reconstruction requires T >= c_star")
    levels = math.floor(
        (math.log(T) - math.log(c_star) - alpha * math.log(math.log(T))) / math.log(2.0)
    )
    return max(levels, 0)


def theorem2_report(
    win: WindowConfig,
    cfg: StripConfig,
    A: DirichletPolynomial,
    alpha: float,
    *,
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-8,
    **readings: str,
) -> Theorem2Report:
    """Dyadic reconstruction consistency check (both paths, with errors).

    Path one evaluates ``I(0, T)`` with a single quadrature and subtracts the
    closed-form blocks at ``(T, Y) = (win.t, win.y)``.  Path two telescopes
    the window identity over ``L`` dyadic levels ``[2^{-j} T, 2^{-j+1} T]``
    (``L`` chosen from ``alpha`` and the window's ``c_star``) and adds the
    stub integral ``I(0, 2^{-L} T)``, subtracting the blocks at the stub
    scale.  Analytically the two paths are identical; numerically they differ
    only in how ``[0, T]`` was panelised.

    The blocks are evaluated once per scale ``2^{-j}``, ``j = 0..L``: each
    scale is the upper end of one level and the lower end of the next
    (:func:`_theorem_step`).  ``readings`` go to :func:`explicit_terms`.
    """
    levels = _dyadic_levels(win.t, win.c_star, alpha)
    # Scaling by a power of two is exact, so each window equals the doubled
    # window of the next scale bit for bit.
    windows = [win.scaled(2.0**-j) for j in range(levels + 1)]
    stub_upper = windows[-1].t
    # [0, T], then the level [2^{-j} T, 2^{-j+1} T] of each j = 1..L, then the stub.
    intervals = [(0.0, win.t), *((w.t, 2.0 * w.t) for w in windows[1:]), (0.0, stub_upper)]
    blocks, (quad_direct, *quad_levels, quad_stub) = _theorem_step(
        windows, intervals, cfg, A, readings, abs_tol, rel_tol
    )
    direct_value = float(quad_direct.value) - blocks[0].block_total
    error_total = quad_direct.error_estimate

    residual_sum: list[float] = []
    for j, quad in enumerate(quad_levels, start=1):
        block_difference = blocks[j - 1].block_total - blocks[j].block_total
        residual_sum.append(float(quad.value) - block_difference)
        error_total += quad.error_estimate
    error_total += quad_stub.error_estimate
    # Every closed-form block at an intermediate dyadic scale appears once
    # with each sign inside the chained residuals and cancels exactly; only
    # the stub-scale blocks need re-adding explicitly.
    telescoped_value = (
        float(quad_stub.value) - blocks[-1].block_total + math.fsum(residual_sum)
    )
    return Theorem2Report(
        levels=levels,
        stub_upper=stub_upper,
        direct_value=direct_value,
        telescoped_value=telescoped_value,
        quadrature_error_total=error_total,
    )
