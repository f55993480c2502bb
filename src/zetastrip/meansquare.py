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

The weight ``W(k, l)`` in the secondary piece admits two readings that
coincide for M = 1 but differ for M >= 2:

* ``"coprime"`` (default): ``W = kappa * lambda = lcm(k,l) / gcd(k,l)``.
  This is what the derivation through the shifted divisor sum produces (a
  Lerch-sum reduction yields the denominator ``gcd^{2 sigma - 1} lcm``,
  which is ``lcm^{2 sigma} / W^{2 sigma - 1}`` with this W), and it is the
  only reading consistent with scaling: for a one-term polynomial
  ``A(s) = m^{-s}`` the integrand is ``m^{-2 sigma} |zeta|^2`` exactly, so
  the diagonal pair ``(m, m)`` must carry weight 1 -- which ``kappa lambda``
  does and a bare lcm power does not.  Numerically this variant is the one
  that tracks the quadrature for M >= 2 (see the regression tests).
* ``"lcm"``: ``W = lcm(k, l)``, selectable for sensitivity runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import DirichletPolynomial, pair_data
from .errors import ValidationError
from .quadrature import QuadratureResult, integrate_adaptive
from .special import gamma, zeta, zeta_line

__all__ = [
    "StripConfig",
    "integrand",
    "integrate_mean_square",
    "main_term",
]

_OSC_WIDTH_C = 3.0


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


def integrand(t, config: StripConfig, poly: DirichletPolynomial) -> np.ndarray | float:
    """``|zeta(sigma + i t) A(sigma + i t)|^2``, vectorised over ``t``."""
    t_arr = np.asarray(t, dtype=np.float64)
    z = zeta_line(config.sigma, t_arr)
    a = poly.evaluate(config.sigma, t_arr)
    out = np.abs(z * a) ** 2
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


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
    Dirichlet polynomial.
    """
    if t_lo < 0.0:
        raise ValidationError("integrate_mean_square requires t_lo >= 0")
    if t_hi < t_lo:
        raise ValidationError("integrate_mean_square requires t_hi >= t_lo")
    m_cap = _OSC_WIDTH_C / math.log(2.0 + poly.length)

    def width(t: float) -> float:
        return min(_OSC_WIDTH_C / math.log(2.0 + abs(t)), m_cap)

    return integrate_adaptive(
        lambda x: integrand(x, config, poly),
        t_lo,
        t_hi,
        abs_tol=abs_tol,
        rel_tol=rel_tol,
        initial_width=width,
    )


def main_term(
    T: float,
    config: StripConfig,
    poly: DirichletPolynomial,
    *,
    secondary_weight: str = "coprime",
) -> float:
    """Analytic main term ``M(T, A)`` (see module docstring).

    The pairwise sum is accumulated in lexicographic ``(k, l)`` order with
    compensated summation; the imaginary residue left by rounding must stay
    below ``1e-8`` of the real part, otherwise the coefficient bookkeeping
    is inconsistent and an :class:`ValidationError` is raised.
    """
    if T <= 0.0:
        raise ValidationError("main_term requires T > 0")
    if secondary_weight not in ("coprime", "lcm"):
        raise ValidationError("secondary_weight must be 'coprime' or 'lcm'")
    sigma = config.sigma
    z1 = zeta(complex(2.0 * sigma)).real
    z2 = zeta(complex(2.0 * sigma - 1.0)).real
    g2 = gamma(2.0 * sigma - 1.0)
    secondary_scalar = (
        math.cos((sigma - 0.5) * math.pi) / (1.0 - sigma) * g2 * z2 * T ** (2.0 - 2.0 * sigma)
    )
    linear_scalar = z1 * T

    real_parts: list[float] = []
    imag_parts: list[float] = []
    m_len = poly.length
    for k in range(1, m_len + 1):
        ak = poly.coefficient(k)
        if ak == 0:
            continue
        for l in range(1, m_len + 1):
            al = poly.coefficient(l)
            if al == 0:
                continue
            pd = pair_data(k, l)
            weight = pd.kappa * pd.lam if secondary_weight == "coprime" else pd.lcm
            coeff = ak * al.conjugate() / pd.lcm ** (2.0 * sigma)
            bracket = linear_scalar + secondary_scalar * weight ** (2.0 * sigma - 1.0)
            term = coeff * bracket
            real_parts.append(term.real)
            imag_parts.append(term.imag)
    total_re = math.fsum(real_parts)
    total_im = math.fsum(imag_parts)
    if abs(total_im) > 1e-8 * max(abs(total_re), 1e-300):
        raise ValidationError(
            f"main_term imaginary residue {total_im:.3e} exceeds 1e-8 of the "
            f"real part {total_re:.3e}; coefficient conjugation is inconsistent"
        )
    return total_re

