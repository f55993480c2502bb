"""Elementary arithmetic helpers: gcd/lcm pair data, divisor power sums,
Dirichlet polynomials and exact unit phases.

Conventions used throughout the package:

* ``gcd(k, l)`` is written ``g``, ``lcm(k, l)`` is ``lcm``.
* ``kappa = k // g`` and ``lam = l // g`` are the coprime parts.
* ``kappa_bar`` is the inverse of ``kappa`` modulo ``lam``, reduced to the
  canonical residue in ``[0, lam - 1]``; when ``lam == 1`` it is ``0``.
* ``e(x)`` denotes ``exp(2*pi*i*x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ValidationError

__all__ = [
    "PairData",
    "DirichletPolynomial",
    "pair_data",
    "divisor_sigma_range",
    "unit_phase",
]


@dataclass(frozen=True)
class PairData:
    """Derived arithmetic data for an index pair ``(k, l)``."""

    k: int
    l: int
    gcd: int
    lcm: int
    kappa: int
    lam: int
    kappa_bar: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 1:
            raise ValidationError("pair indices must satisfy k >= 1 and l >= 1")


@dataclass(frozen=True)
class DirichletPolynomial:
    """Coefficients ``a(1), ..., a(M)`` of a Dirichlet polynomial
    ``A(s) = sum_{m <= M} a(m) m^{-s}``.

    ``coefficients`` may be real or complex; they are stored as a complex
    numpy vector.  ``length`` is ``M``.
    """

    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) < 1:
            raise ValidationError("a Dirichlet polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    @property
    def length(self) -> int:
        return len(self.coefficients)

    def coefficient(self, m: int) -> complex:
        """Return ``a(m)`` (zero outside ``1 <= m <= M``)."""
        if 1 <= m <= self.length:
            return self.coefficients[m - 1]
        return 0.0 + 0.0j

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=np.complex128)

    def evaluate(self, sigma: float, t: np.ndarray | float) -> np.ndarray | complex:
        """Evaluate ``A(sigma + i t)`` for scalar or vector ``t``."""
        t_arr = np.asarray(t, dtype=np.float64)
        m = np.arange(1, self.length + 1, dtype=np.float64)
        log_m = np.log(m)
        amp = self.as_array() * m ** (-sigma)
        phases = np.exp(-1j * np.multiply.outer(t_arr, log_m))
        out = phases @ amp
        if np.isscalar(t) or t_arr.ndim == 0:
            return complex(out)
        return out


def pair_data(k: int, l: int) -> PairData:
    """Compute gcd/lcm/coprime-part data for ``(k, l)``.

    The modular inverse ``kappa_bar`` satisfies
    ``kappa * kappa_bar == 1 (mod lam)`` and lies in ``[0, lam - 1]``;
    it is ``0`` exactly when ``lam == 1``.
    """
    if k < 1 or l < 1:
        raise ValidationError("pair indices must satisfy k >= 1 and l >= 1")
    g = math.gcd(k, l)
    lcm = k * l // g
    kappa = k // g
    lam = l // g
    kappa_bar = pow(kappa, -1, lam) if lam > 1 else 0
    return PairData(k=k, l=l, gcd=g, lcm=lcm, kappa=kappa, lam=lam, kappa_bar=kappa_bar)


# Per-process memo; suite workers are processes, so no lock is needed.
_sigma_range_cache: dict[tuple[float, int], np.ndarray] = {}


def divisor_sigma_range(a: float, n_max: int) -> np.ndarray:
    """Vector of ``sigma_a(n)`` for ``n = 1..n_max`` (index 0 holds ``sigma_a(1)``).

    Uses a divisor sieve: O(n_max log n_max) work, far cheaper than per-``n``
    factorisation when whole ranges are needed.
    """
    if n_max < 1:
        raise ValidationError("divisor_sigma_range requires n_max >= 1")
    key = (float(a), int(n_max))
    hit = _sigma_range_cache.get(key)
    if hit is not None:
        return hit
    out = np.zeros(n_max, dtype=np.float64)
    for d in range(1, n_max + 1):
        out[d - 1 :: d] += float(d) ** a
    out.setflags(write=False)
    if len(_sigma_range_cache) < 64:
        _sigma_range_cache[key] = out
    return out


def unit_phase(numerator: int | np.ndarray, modulus: int) -> complex | np.ndarray:
    """``e(numerator / modulus) = exp(2 pi i numerator / modulus)``.

    Accepts a scalar or integer array of numerators; the reduction modulo
    ``modulus`` is done in exact integer arithmetic before the complex
    exponential, which keeps distant terms of long sums phase-accurate.
    """
    if modulus < 1:
        raise ValidationError("unit_phase requires modulus >= 1")
    if isinstance(numerator, int):
        # Python integers reduce exactly at any magnitude.
        return complex(np.exp((2j * np.pi / modulus) * (numerator % modulus)))
    reduced = np.mod(numerator, modulus)
    out = np.exp((2j * np.pi / modulus) * reduced)
    if np.isscalar(numerator):
        return complex(out)
    return out
