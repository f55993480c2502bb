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

``xi``, ``f_phase`` and ``g_phase`` are the saddle-point phase functions of
the two oscillatory sums::

    xi(T, u) = T/(2 pi) + u/2 - sqrt(u^2/4 + u T/(2 pi))
    f(T, u)  = 2 T arcsinh(sqrt(pi u / (2 T))) + sqrt(2 pi u T + pi^2 u^2) - pi/4
    g(T, u)  = T log(T / (2 pi u)) - T + 2 pi u + pi/4

``xi`` is evaluated in the rationalised form ``A^2 / (A + u/2 + sqrt(...))``
with ``A = T/(2 pi)``, which is free of subtractive cancellation for large
``u``.  ``f_phase`` takes the ``+`` sign under the radical as canonical (the
``-`` reading is only real for ``u < 2T/pi`` and is kept behind the
``radicand`` flag for sensitivity runs).  The ``+2 pi u`` term of ``g``
cancels exactly against the unit twist ``e(-kappa n / lambda)`` carried by
the secondary sum, so for a trivial polynomial the secondary phase reduces
to the classical ``T log(T/(2 pi n)) - T + pi/4``.

Documented reading variants
---------------------------

The primary sum ships four normalisation variants (selectable per call,
``canonical`` being the defining one):

* ``canonical``: unit prefactor (the defining normalisation);
* ``bundled``: prefactor ``-2^{sigma-3/2} pi^{sigma-1/2} e^{(1/2-sigma) i pi}``,
  an alternative constant bundling that circulates for the same sum;
* ``rescaled``: prefactor ``(2 pi)^{sigma-1/2}``, a pure-magnitude rescaling;
* ``resolved``: prefactor ``(2 pi)^{sigma-1/2} e^{2 i pi sigma}`` -- this
  multiplies the defining form by ``(2 pi)^{sigma-1/2}`` and removes its
  ``e^{-2 i pi sigma}`` rotation.  Least-squares regression of windowed
  quadrature against the sum's complex inner part pins the required complex
  scalar to this value within ~1% in magnitude and ~0.5 degrees in phase at
  sigma in {0.30, 0.40, 0.45} (M = 1) and confirms it at M = 2, 3.

The secondary sum ships ``canonical`` (unit), ``halved`` (factor 1/2, the
value suggested by matching the classical limiting coefficient at
sigma = 1/2), and ``resolved`` (factor ``(1/2) (2 pi)^{2 sigma - 1}``, which
turns the global scalar into ``-2 (T/(2 pi))^{1/2 - sigma}``; the same
regressions land within 4% of this value at every probed sigma and M, the
small deficit being consistent with the neglected ``1/log^2`` correction of
each term).  The ``twist`` flag chooses between ``e(-kappa n/lambda)``
(``direct``, canonical; cancels the ``2 pi u`` phase term exactly) and
``e(-kappa_bar n/lambda)`` (``inverse``).  The two coincide whenever every
``lambda <= 4`` (each unit is then its own inverse); a probe polynomial with
the pair ``(2, 5)`` active separates them and the regression prefers
``direct`` by a factor ~3.5 in residual norm.  Defaults everywhere are the
defining forms; regression tests pin which variants reproduce quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import (
    SIEVE_MAX,
    DirichletPolynomial,
    coefficient_pairs,
    divisor_sigma_range,
    fsum_complex,
    unit_phase,
)
from .errors import ValidationError
from .meansquare import StripConfig, integrate_mean_square, main_term

__all__ = [
    "WindowConfig",
    "ExplicitTerms",
    "Theorem1Report",
    "Theorem2Report",
    "xi",
    "f_phase",
    "g_phase",
    "explicit_terms",
    "theorem1_report",
    "theorem2_report",
    "SIGMA1_VARIANTS",
    "SIGMA2_VARIANTS",
    "TWIST_MODES",
    "RADICAND_MODES",
]

SIGMA1_VARIANTS = ("canonical", "bundled", "rescaled", "resolved")
SIGMA2_VARIANTS = ("canonical", "halved", "resolved")
TWIST_MODES = ("direct", "inverse")
RADICAND_MODES = ("plus", "minus")


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
                f"WindowConfig requires t >= max(e, 1/c1) = {self.c_star!r}; got t={self.t!r}"
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


def xi(T: float, u: float) -> float:
    """Secondary cutoff map ``T/(2 pi) + u/2 - sqrt(u^2/4 + u T/(2 pi))``.

    Evaluated in rationalised form; satisfies ``0 < xi <= T/(2 pi)`` and the
    defining radical identity ``(T/(2 pi) + u/2 - xi)^2 = u^2/4 + u T/(2 pi)``.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValidationError("xi requires T > 0")
    if not (u >= 0.0 and math.isfinite(u)):
        raise ValidationError("xi requires u >= 0")
    a = T / (2.0 * math.pi)
    return a * a / (a + 0.5 * u + math.sqrt(0.25 * u * u + u * a))


def f_phase(
    T: float, u: float | np.ndarray, *, radicand: str = "plus"
) -> float | np.ndarray:
    """Primary-sum phase ``2T arcsinh sqrt(pi u/2T) + sqrt(2 pi u T +- pi^2 u^2) - pi/4``.

    ``u`` is a scalar or an array.  ``radicand="plus"`` (canonical) keeps the
    radical real for every ``u >= 0``; ``"minus"`` flips the sign of the
    ``pi^2 u^2`` term and is only defined for ``u <= 2T/pi``.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValidationError("f_phase requires T > 0")
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all((u_arr >= 0.0) & (u_arr < math.inf)):
        raise ValidationError("f_phase requires finite u >= 0")
    if radicand not in RADICAND_MODES:
        raise ValidationError(f"radicand must be one of {RADICAND_MODES}")
    root = np.arcsinh(np.sqrt(math.pi * u_arr / (2.0 * T)))
    if radicand == "plus":
        rad = 2.0 * math.pi * u_arr * T + (math.pi * u_arr) ** 2
    else:
        rad = 2.0 * math.pi * u_arr * T - (math.pi * u_arr) ** 2
        if np.any(rad < 0.0):
            raise ValidationError(
                "f_phase with radicand='minus' requires u <= 2T/pi (radical is imaginary beyond)"
            )
    out = 2.0 * T * root + np.sqrt(rad) - 0.25 * math.pi
    return out if u_arr.ndim else float(out)


def g_phase(T: float, u: float | np.ndarray) -> float | np.ndarray:
    """Secondary-sum phase ``T log(T/(2 pi u)) - T + 2 pi u + pi/4``; ``u`` is
    a scalar or an array."""
    if not (T > 0.0 and math.isfinite(T)):
        raise ValidationError("g_phase requires T > 0")
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all((u_arr > 0.0) & (u_arr < math.inf)):
        raise ValidationError("g_phase requires finite u > 0")
    out = T * np.log(T / (2.0 * math.pi * u_arr)) - T + 2.0 * math.pi * u_arr + 0.25 * math.pi
    return out if u_arr.ndim else float(out)


def _sigma1_prefactor(variant: str, sigma: float) -> complex:
    if variant == "canonical":
        return 1.0 + 0.0j
    if variant == "bundled":
        magnitude = 2.0 ** (sigma - 1.5) * math.pi ** (sigma - 0.5)
        return -magnitude * cmath.exp(1j * (0.5 - sigma) * math.pi)
    if variant == "rescaled":
        return complex((2.0 * math.pi) ** (sigma - 0.5))
    if variant == "resolved":
        return (2.0 * math.pi) ** (sigma - 0.5) * cmath.exp(2j * math.pi * sigma)
    raise ValidationError(f"sigma1 variant must be one of {SIGMA1_VARIANTS}")


def _sigma2_prefactor(variant: str, sigma: float) -> float:
    if variant == "canonical":
        return 1.0
    if variant == "halved":
        return 0.5
    if variant == "resolved":
        return 0.5 * (2.0 * math.pi) ** (2.0 * sigma - 1.0)
    raise ValidationError(f"sigma2 variant must be one of {SIGMA2_VARIANTS}")


def _sigma1_sum(
    T: float,
    Y: float,
    cfg: StripConfig,
    A: DirichletPolynomial,
    radicand: str,
) -> tuple[complex, int]:
    """Primary oscillatory sum ``S1(T, Y)`` before the variant prefactor and
    the final ``Im{}``.  Returns ``(total, terms)``.

    For each index pair ``(k, l)`` with nonzero coefficient product the inner
    sum runs over ``n <= kappa*lambda*Y`` and accumulates::

        a(k) conj(a(l)) / lcm^{2 sigma} * (kappa lambda)^sigma
            * e^{-2 i pi sigma} * sigma_{2 sigma - 1}(n) n^{-sigma}
            * e(kappa_bar n / lambda) * T^{1/2 - sigma}
            * arcsinh(sqrt(pi n / (2 T kappa lambda)))^{-1}
            * (1 + 2 T kappa lambda/(pi n))^{-1/4}
            * exp(i (f(T, n/(kappa lambda)) - pi n/(kappa lambda) + pi/2))

    ``S1`` is ``Im{prefactor * total}`` with the variant prefactor of the
    module docstring.
    """
    if not (T > 0.0 and Y > 0.0):
        raise ValidationError("sigma1 requires T > 0 and Y > 0")
    sigma = cfg.sigma
    exponent = 2.0 * sigma - 1.0
    base_rotation = cmath.exp(-2j * math.pi * sigma)
    t_power = T ** (0.5 - sigma)
    values: list[complex] = []
    terms = 0
    for product, pd in coefficient_pairs(A):
        kl = pd.kappa * pd.lam
        n_max = math.floor(kl * Y)
        if n_max < 1:
            continue
        n = np.arange(1, n_max + 1, dtype=np.float64)
        sig = divisor_sigma_range(exponent, n_max)
        u = n / kl
        asc = np.arcsinh(np.sqrt(math.pi * n / (2.0 * T * kl)))
        amplitude = (
            sig
            * n ** (-sigma)
            / asc
            * (1.0 + 2.0 * T * kl / (math.pi * n)) ** -0.25
        )
        phase = f_phase(T, u, radicand=radicand) - math.pi * u + 0.5 * math.pi
        twist = unit_phase(
            pd.kappa_bar * np.arange(1, n_max + 1, dtype=np.int64), pd.lam
        )
        inner = np.sum(amplitude * twist * np.exp(1j * phase))
        coeff = product / pd.lcm ** (2.0 * sigma) * kl**sigma * base_rotation * t_power
        values.append(coeff * complex(inner))
        terms += n_max
    return fsum_complex(values), terms


def _sigma2_sum(
    T: float,
    y_cut: float,
    cfg: StripConfig,
    A: DirichletPolynomial,
    twist: str,
) -> tuple[complex, int]:
    """Secondary oscillatory sum ``S2(T, Ycut)``, ``Ycut = xi(T, Y)``, before
    the variant factor and the final ``Re{}``.  Returns ``(total, terms)``.

    For each pair the inner cutoff is ``n <= (lambda/kappa) Ycut`` and the
    accumulated term is::

        -4 (2 pi T)^{1/2 - sigma} * a(k) conj(a(l)) / lcm^{2 sigma}
            * (kappa lambda)^sigma * sigma_{2 sigma - 1}(n) n^{-sigma}
            * e(-kappa n / lambda)
            * exp(i g(T, kappa n / lambda)) / log(lambda T/(2 pi kappa n))

    (``e(-kappa_bar n / lambda)`` for the ``inverse`` twist).  Every retained
    term must satisfy ``kappa n / lambda < T/(2 pi)`` strictly (positive
    logarithm); violating cutoffs raise :class:`ValidationError`.
    """
    if not (T > 0.0 and y_cut >= 0.0):
        raise ValidationError("sigma2 requires T > 0 and Ycut >= 0")
    if twist not in TWIST_MODES:
        raise ValidationError(f"twist must be one of {TWIST_MODES}")
    sigma = cfg.sigma
    exponent = 2.0 * sigma - 1.0
    saddle_scale = T / (2.0 * math.pi)
    # -T^{1/2-sigma}/(pi^{1/2+sigma} 2^{sigma-1/2}) * 4 pi  ==  -4 (2 pi T)^{1/2-sigma}
    scalar = -4.0 * (2.0 * math.pi * T) ** (0.5 - sigma)
    values: list[complex] = []
    terms = 0
    for product, pd in coefficient_pairs(A):
        n_max = math.floor(pd.lam * y_cut / pd.kappa)
        if n_max < 1:
            continue
        n = np.arange(1, n_max + 1, dtype=np.float64)
        u = pd.kappa * n / pd.lam
        if u[-1] >= saddle_scale:
            raise ValidationError(
                "sigma2 retained a term with kappa*n/lambda >= T/(2 pi); "
                "the window cutoff is inadmissible"
            )
        sig = divisor_sigma_range(exponent, n_max)
        n_int = np.arange(1, n_max + 1, dtype=np.int64)
        multiplier = -pd.kappa if twist == "direct" else -pd.kappa_bar
        twist_values = unit_phase(multiplier * n_int, pd.lam)
        inner = np.sum(
            sig
            * n ** (-sigma)
            * twist_values
            * np.exp(1j * g_phase(T, u))
            / np.log(saddle_scale / u)
        )
        coeff = product / pd.lcm ** (2.0 * sigma) * (pd.kappa * pd.lam) ** sigma
        values.append(coeff * complex(inner))
        terms += n_max
    return scalar * fsum_complex(values), terms


def _check_inner_lengths(window: WindowConfig, A: DirichletPolynomial) -> None:
    """Reject a window whose longest Σ₁ or Σ₂ inner sum would outgrow the
    divisor sieve, before any array is formed."""
    pairs = [pd for _, pd in coefficient_pairs(A)]
    y_cut = xi(window.t, window.y)
    longest = {
        "sigma1": max((pd.kappa * pd.lam * window.y for pd in pairs), default=0.0),
        "sigma2": max((pd.lam * y_cut / pd.kappa for pd in pairs), default=0.0),
    }
    for block, length in longest.items():
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
    sigma1_variant: str = "canonical",
    sigma2_variant: str = "canonical",
    radicand: str = "plus",
    twist: str = "direct",
    secondary_weight: str = "coprime",
) -> ExplicitTerms:
    """All closed-form blocks of the window identity at one ``(T, Y)``."""
    _check_inner_lengths(window, A)
    prefactor1 = _sigma1_prefactor(sigma1_variant, cfg.sigma)
    factor2 = _sigma2_prefactor(sigma2_variant, cfg.sigma)
    total1, terms1 = _sigma1_sum(window.t, window.y, cfg, A, radicand)
    total2, terms2 = _sigma2_sum(window.t, xi(window.t, window.y), cfg, A, twist)
    return ExplicitTerms(
        sigma1=(prefactor1 * total1).imag,
        sigma2=factor2 * total2.real,
        main=main_term(window.t, cfg, A, secondary_weight=secondary_weight),
        terms_used_1=terms1,
        terms_used_2=terms2,
    )


@dataclass(frozen=True)
class Theorem1Report:
    """Window identity evaluated once: quadrature side, block sides, residual."""

    window: WindowConfig
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
    sigma1_variant: str = "canonical",
    sigma2_variant: str = "canonical",
    radicand: str = "plus",
    twist: str = "direct",
    secondary_weight: str = "coprime",
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-8,
) -> Theorem1Report:
    """Evaluate both sides of the window identity over ``[T, 2T]``."""
    flags = dict(
        sigma1_variant=sigma1_variant,
        sigma2_variant=sigma2_variant,
        radicand=radicand,
        twist=twist,
        secondary_weight=secondary_weight,
    )
    upper = explicit_terms(win.scaled(2.0), cfg, A, **flags)
    lower = explicit_terms(win, cfg, A, **flags)
    quad = integrate_mean_square(
        win.t, 2.0 * win.t, cfg, A, abs_tol=abs_tol, rel_tol=rel_tol
    )
    return Theorem1Report(
        window=win,
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
    sigma1_variant: str = "canonical",
    sigma2_variant: str = "canonical",
    radicand: str = "plus",
    twist: str = "direct",
    secondary_weight: str = "coprime",
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-8,
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
    scale is the upper end of one level and the lower end of the next.
    """
    flags = dict(
        sigma1_variant=sigma1_variant,
        sigma2_variant=sigma2_variant,
        radicand=radicand,
        twist=twist,
        secondary_weight=secondary_weight,
    )
    levels = _dyadic_levels(win.t, win.c_star, alpha)
    # Scaling by a power of two is exact, so each window equals the doubled
    # window of the next scale bit for bit.
    windows = [win.scaled(2.0**-j) for j in range(levels + 1)]
    blocks = [explicit_terms(w, cfg, A, **flags) for w in windows]

    def integral(t_lo: float, t_hi: float):
        return integrate_mean_square(t_lo, t_hi, cfg, A, abs_tol=abs_tol, rel_tol=rel_tol)

    quad_direct = integral(0.0, win.t)
    direct_value = float(quad_direct.value) - blocks[0].block_total
    error_total = quad_direct.error_estimate

    residual_sum: list[float] = []
    for j in range(1, levels + 1):
        quad = integral(windows[j].t, 2.0 * windows[j].t)
        block_difference = blocks[j - 1].block_total - blocks[j].block_total
        residual_sum.append(float(quad.value) - block_difference)
        error_total += quad.error_estimate
    stub_upper = windows[-1].t
    quad_stub = integral(0.0, stub_upper)
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
