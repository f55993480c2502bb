"""Mean square of ``zeta(s) A(s)`` on a vertical line in the strip
``1/4 < sigma < 1/2``: integrand, adaptive integral and analytic main term.

For the Dirichlet polynomial ``A(s) = sum_{m <= M} a(m) m^{-s}`` the object
of study is::

    I(T1, T2) = integral_{T1}^{T2} |zeta(sigma + i t) A(sigma + i t)|^2 dt

and the main term ``M(T, A)`` whose bracket combines a linear-in-T diagonal
piece with a ``T^{2 - 2 sigma}`` off-diagonal piece::

    M(T, A) = sum_{k, l <= M} a(k) conj(a(l)) / lcm(k,l)^{2 sigma} * [
        zeta(2 sigma) T
        + cos((sigma - 1/2) pi) / (1 - sigma)
          * Gamma(2 sigma - 1) zeta(2 sigma - 1)
          * W(k, l)^{2 sigma - 1} * T^{2 - 2 sigma} ]

The weight ``W(k, l)`` of the secondary piece is ``kappa * lambda =
lcm(k,l) / gcd(k,l)``.  This is what the derivation through the shifted
divisor sum produces (a Lerch-sum reduction yields the denominator
``gcd^{2 sigma - 1} lcm``, which is ``lcm^{2 sigma} / W^{2 sigma - 1}`` with
this W), and it is the only reading consistent with scaling: for a one-term
polynomial ``A(s) = m^{-s}`` the integrand is ``m^{-2 sigma} |zeta|^2``
exactly, so the diagonal pair ``(m, m)`` must carry weight 1, which a bare
``lcm(k, l)`` power does not.  Criterion 6's polynomial ``1 + 2^{-s}``
holds such a pair, ``(2, 2)``, and its window identity passes with this
weight and fails its residual gate with the lcm weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arithmetic import DirichletPolynomial, fsum_complex, pair_weights
from .errors import ValidationError
from .quadrature import NODES_PER_PANEL, QuadratureResult, integrate_adaptive, stage
from .special import gamma, zeta, zeta_line, zeta_terms

__all__ = [
    "StripConfig",
    "integrand",
    "integrate_mean_square",
    "main_term",
    "check_zeta_work",
]

_OSC_WIDTH_C = 3.0

#: Largest zeta work one mean-square integral may start: initial quadrature
#: evaluations times the most main-sum terms ``zeta_line`` spends on one
#: point of the interval (:func:`~zetastrip.special.zeta_terms`: the
#: Euler-Maclaurin cutoff below ``special.RS_MIN_HEIGHT``, both
#: Riemann-Siegel sums from there on).  [250, 500] needs about 8e6 terms,
#: [500, 1000] about 4e5 (3.5e7 while Euler-Maclaurin ran up to 1000) and
#: [4000, 8000] about 1.3e7; [1e9, 1e9 + 1e4] needs about 2.6e10 and is
#: refused.  From T of about 12 000 on, a window [T, 2T] meets the
#: quadrature's ``MAX_PANELS`` first.
_MAX_ZETA_TERMS = 2**30


@dataclass(frozen=True)
class StripConfig:
    """Vertical-line position.

    ``sigma`` must lie strictly inside ``(1/4, 1/2)``: the analysis this
    package certifies lives in that open strip, and both endpoints break the
    main-term formula (a Gamma-factor pole at ``sigma = 1/2``; a divergent
    secondary exponent balance at ``sigma = 1/4``).
    """

    sigma: float

    def __post_init__(self) -> None:
        if not (0.25 < self.sigma < 0.5):
            raise ValidationError(
                f"sigma must lie strictly inside (1/4, 1/2), got {self.sigma}"
            )


def integrand(t: np.ndarray, config: StripConfig, poly: DirichletPolynomial) -> np.ndarray:
    """``|zeta(sigma + i t) A(sigma + i t)|^2`` at each entry of the 1-d ``t``.

    For ``A = 0`` it is +0.0 at every node, so zeta is not evaluated.
    """
    if not any(poly.coefficients):
        return np.zeros(t.shape)
    z = zeta_line(config.sigma, t)
    a = poly.evaluate(config.sigma, t)
    with np.errstate(over="ignore", invalid="ignore"):  # the quadrature names a non-finite value
        return np.abs(z * a) ** 2


def _initial_width(poly: DirichletPolynomial) -> Callable[[float], float]:
    """Initial panel width at ``t``: ``c / log(2 + t)`` for zeta, capped by
    ``c / log(2 + M)`` for the Dirichlet polynomial."""
    m_cap = _OSC_WIDTH_C / math.log(2.0 + poly.length)
    return lambda t: min(_OSC_WIDTH_C / math.log(2.0 + abs(t)), m_cap)


def check_zeta_work(t_lo: float, t_hi: float, config: StripConfig, poly: DirichletPolynomial) -> None:
    """Reject an interval that is not ``0 <= t_lo <= t_hi < inf``, or whose
    initial panels would need more than :data:`_MAX_ZETA_TERMS` zeta terms,
    without calling zeta."""
    if not 0.0 <= t_lo <= t_hi < math.inf:  # written so that NaN fails too
        raise ValidationError(
            f"integrate_mean_square requires 0 <= t_lo <= t_hi < inf, got [{t_lo!r}, {t_hi!r}]"
        )
    if not any(poly.coefficients) or t_lo == t_hi:  # the integrand calls no zeta
        return
    # Widths shrink as t grows, so the width at t_hi never undercounts the
    # initial panels.  From _MAX_ZETA_TERMS panels on the limit is exceeded at
    # any cutoff, and the count may be inf, so the cutoff is not formed.
    panels = (t_hi - t_lo) / _initial_width(poly)(t_hi)
    if panels < _MAX_ZETA_TERMS:
        terms = NODES_PER_PANEL * math.ceil(panels) * zeta_terms(config.sigma, t_lo, t_hi)
    else:
        terms = math.inf
    if terms > _MAX_ZETA_TERMS:
        raise ValidationError(
            f"mean-square integral on [t_lo, t_hi] = [{t_lo!r}, {t_hi!r}] needs about {terms:.3g} zeta "
            f"terms (initial evaluations x zeta terms per point), above the limit "
            f"MAX_ZETA_TERMS = {_MAX_ZETA_TERMS}"
        )


def integrate_mean_square(
    t_lo: float,
    t_hi: float,
    config: StripConfig,
    poly: DirichletPolynomial,
    *,
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-8,
) -> QuadratureResult:
    """Adaptive integral of the mean-square integrand over ``[t_lo, t_hi]``.

    Initial panel widths are capped by the local oscillation scales of the
    two factors: ``c / log(2 + t)`` for zeta and ``c / log(2 + M)`` for the
    Dirichlet polynomial.  Before zeta is first called, the zeta work of the
    initial panels is bounded by :data:`_MAX_ZETA_TERMS` (:func:`check_zeta_work`).
    """
    check_zeta_work(t_lo, t_hi, config, poly)
    with stage("mean-square integral"):
        return integrate_adaptive(
            lambda x: integrand(x, config, poly),
            t_lo,
            t_hi,
            abs_tol=abs_tol,
            rel_tol=rel_tol,
            initial_width=_initial_width(poly),
        )


def main_term(T: float, config: StripConfig, poly: DirichletPolynomial) -> float:
    """Analytic main term ``M(T, A)`` (see module docstring).

    The pairwise sum is accumulated in lexicographic ``(k, l)`` order with
    compensated summation; the terms of ``(k, l)`` and ``(l, k)`` are exact
    conjugates, so the real part is the whole sum.  A ``T`` whose power
    ``T^(2 - 2 sigma)`` is not a finite float raises :class:`ValidationError`,
    and so do coefficients at which the sum is not.
    """
    if T <= 0.0:
        raise ValidationError("main_term requires T > 0")
    sigma = config.sigma
    z1 = zeta(complex(2.0 * sigma)).real
    z2 = zeta(complex(2.0 * sigma - 1.0)).real
    g2 = gamma(2.0 * sigma - 1.0)
    try:
        t_power = T ** (2.0 - 2.0 * sigma)
    except OverflowError:
        t_power = math.inf
    if not math.isfinite(t_power):
        raise ValidationError(
            f"main_term: T^(2 - 2 sigma) leaves the float range at T = {T!r}, sigma = {sigma!r}"
        )
    secondary_scalar = math.cos((sigma - 0.5) * math.pi) / (1.0 - sigma) * g2 * z2 * t_power
    linear_scalar = z1 * T

    terms = []
    for weight, pd in pair_weights(poly, sigma):
        bracket = linear_scalar + secondary_scalar * (pd.kappa * pd.lam) ** (2.0 * sigma - 1.0)
        terms.append(weight * bracket)
    total = fsum_complex(terms).real
    if not math.isfinite(total):
        raise ValidationError(
            f"main_term at T = {T!r} is {total!r}, not a finite float, for the coefficients {poly.coefficients}"
        )
    return total

