"""Elementary arithmetic helpers: gcd/lcm pair data, divisor power sums from
a sieve memoised by its inputs, Dirichlet polynomials and exact unit phases.

Conventions used throughout the package:

* ``gcd(k, l)`` is written ``g``, ``lcm(k, l)`` is ``lcm``.
* ``kappa = k // g`` and ``lam = l // g`` are the coprime parts.
* ``kappa_bar`` is the inverse of ``kappa`` modulo ``lam``, reduced to the
  canonical residue in ``[0, lam - 1]``; when ``lam == 1`` it is ``0``.
* ``e(x)`` denotes ``exp(2*pi*i*x)``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .special import dirichlet_sum

__all__ = [
    "SIEVE_MAX",
    "PairData",
    "DirichletPolynomial",
    "coefficient_pairs",
    "pair_weights",
    "fsum_complex",
    "divisor_sigma_range",
    "unit_phase",
]


@dataclass(frozen=True)
class PairData:
    """Derived arithmetic data for an index pair ``(k, l)``."""

    lcm: int
    kappa: int
    lam: int
    kappa_bar: int


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
        if not all(cmath.isfinite(c) for c in self.coefficients):
            raise ValidationError(f"a Dirichlet polynomial needs finite coefficients, got {self.coefficients}")

    @property
    def length(self) -> int:
        return len(self.coefficients)

    def evaluate(self, sigma: float, t: np.ndarray) -> np.ndarray:
        """``A(sigma + i t)`` at each entry of the 1-d ``t``: one
        :func:`zetastrip.special.dirichlet_sum`, as for zeta's main sum."""
        m = np.arange(1, self.length + 1, dtype=np.float64)
        return dirichlet_sum(t, np.log(m), np.asarray(self.coefficients, dtype=np.complex128) * m ** (-sigma))


def _pair_data(k: int, l: int) -> PairData:
    """Compute gcd/lcm/coprime-part data for the indices ``k, l >= 1``.

    The modular inverse ``kappa_bar`` satisfies
    ``kappa * kappa_bar == 1 (mod lam)`` and lies in ``[0, lam - 1]``;
    it is ``0`` exactly when ``lam == 1``.
    """
    g = math.gcd(k, l)
    lcm = k * l // g
    kappa = k // g
    lam = l // g
    kappa_bar = pow(kappa, -1, lam) if lam > 1 else 0
    return PairData(lcm=lcm, kappa=kappa, lam=lam, kappa_bar=kappa_bar)


def coefficient_pairs(A: DirichletPolynomial) -> Iterator[tuple[complex, PairData]]:
    """``(a(k) conj(a(l)), _pair_data(k, l))`` for every pair ``(k, l)`` whose
    two coefficients are nonzero, ``k`` then ``l`` ascending.

    Every pair sum of the window identity (the main term and both
    oscillatory sums) runs over these pairs in this order.
    """
    nonzero = [(m, c) for m, c in enumerate(A.coefficients, start=1) if c != 0]
    for k, ak in nonzero:
        for l, al in nonzero:
            yield ak * al.conjugate(), _pair_data(k, l)


def pair_weights(A: DirichletPolynomial, sigma: float) -> Iterator[tuple[complex, PairData]]:
    """``(a(k) conj(a(l)) / lcm^{2 sigma}, _pair_data(k, l))`` over :func:`coefficient_pairs`:
    the pair weight of the main term and of both oscillatory sums, for a finite ``sigma``
    at which dividing by ``lcm^{2 sigma}`` keeps each finite ``a(k) conj(a(l))`` finite."""
    if not math.isfinite(sigma):
        raise ValidationError(f"pair_weights requires a finite sigma, got {sigma!r}")
    for product, pd in coefficient_pairs(A):
        try:
            weight = product / pd.lcm ** (2.0 * sigma)
        except (OverflowError, ZeroDivisionError):  # lcm^{2 sigma} overflows, or underflows to 0
            weight = math.inf
        if cmath.isfinite(product) and not cmath.isfinite(weight):
            raise ValidationError(f"pair_weights requires a finite a(k) conj(a(l)) / lcm^(2 sigma) at every pair, "
                                  f"got sigma = {sigma!r} at lcm = {pd.lcm}")
        yield weight, pd


def fsum_complex(values: list[complex] | np.ndarray) -> complex:
    """Correctly rounded sum of complex values, real and imaginary parts
    apart.  No term is checked: a sum that leaves the floats comes out
    inf or nan, for the caller to check."""
    parts = np.asarray(values, dtype=np.complex128)
    try:
        return complex(math.fsum(parts.real.tolist()), math.fsum(parts.imag.tolist()))
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return complex(math.nan, math.nan)


#: Longest divisor sieve any caller forms: 2^20 entries, about 0.2 s on one
#: core of a 2-vCPU machine.  Callers check their lengths against it before
#: forming any array, so that a too-long sum is a named input error.
SIEVE_MAX = 2.0**20


@functools.lru_cache(maxsize=64)
def _sieve(a: float, length: int) -> np.ndarray:
    """Read-only ``sigma_a(n)`` for ``n = 1..length``.  Entry ``n`` adds its
    divisors in ascending order whatever ``length`` is, so a prefix has the
    bits of a shorter sieve.  Each ``d <= sqrt(length)`` is one strided add;
    the larger ``d`` go, ascending, in groups of one ``j = length // d``, all
    ``j`` multiples of each ``d`` in one indexed add per group (no index
    repeats: ``m1 d1 = m2 d2`` needs ``m1 / m2 < (j + 1) / j``, ``m1 <= j``)."""
    sieve = np.zeros(length, dtype=np.float64)
    root = math.isqrt(length)
    for d in range(1, root + 1):
        sieve[d - 1 :: d] += float(d) ** a
    for j in range(length // (root + 1), 0, -1):
        lo, hi = max(root, length // (j + 1)) + 1, length // j + 1
        powers = np.fromiter((float(d) ** a for d in range(lo, hi)), np.float64, hi - lo)
        sieve[np.arange(lo, hi)[:, None] * np.arange(1, j + 1) - 1] += powers[:, None]
    sieve.setflags(write=False)
    return sieve


def divisor_sigma_range(a: float, n_max: int) -> np.ndarray:
    """Read-only vector of ``sigma_a(n)`` for ``n = 1..n_max`` (index 0 holds
    ``sigma_a(1)``).

    A view of the memoised sieve whose length is the power of two at or
    above ``n_max``: O(n log n) work over all calls, with the bits of a sieve
    of exactly ``n_max`` entries.  Needs ``|a| <= 1`` (no ``d^a`` over- or
    underflows) and an integer ``1 <= n_max <= SIEVE_MAX``.
    """
    if not -1.0 <= a <= 1.0:  # written so that NaN fails too
        raise ValidationError(f"divisor_sigma_range requires an exponent a in [-1, 1], got a = {a!r}")
    if not (isinstance(n_max, (int, np.integer)) and 1 <= n_max <= SIEVE_MAX):
        raise ValidationError(
            f"divisor_sigma_range requires an integer 1 <= n_max <= {SIEVE_MAX:.0f}, got n_max = {n_max!r}"
        )
    return _sieve(float(a), 1 << int(n_max - 1).bit_length())[:n_max]


def unit_phase(numerator: np.ndarray, modulus: int) -> np.ndarray:
    """``e(numerator / modulus) = exp(2 pi i numerator / modulus)``.

    Takes an integer array of numerators; the reduction modulo ``modulus``
    is done in exact integer arithmetic before the complex exponential,
    which keeps distant terms of long sums phase-accurate.  Only ``modulus``
    values occur: with at least ``modulus`` numerators, a table of their
    exps, indexed by the reduced numerators, has the bits of the elementwise
    exp, which fewer numerators take directly.
    """
    if not np.issubdtype(np.asarray(numerator).dtype, np.integer):
        raise ValidationError(f"unit_phase requires an integer numerator, got dtype {np.asarray(numerator).dtype}")
    if not (isinstance(modulus, (int, np.integer)) and 1 <= modulus <= SIEVE_MAX):
        raise ValidationError(
            f"unit_phase requires an integer 1 <= modulus <= {SIEVE_MAX:.0f}, got modulus = {modulus!r}"
        )
    reduced = np.mod(numerator, modulus)
    if reduced.size < modulus:
        return np.exp((2j * np.pi / modulus) * reduced)
    return np.exp((2j * np.pi / modulus) * np.arange(modulus))[reduced]
