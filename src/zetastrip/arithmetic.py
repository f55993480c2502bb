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
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError
from .special import dirichlet_sum

__all__ = [
    "SIEVE_MAX",
    "PairData",
    "DirichletPolynomial",
    "pair_data",
    "coefficient_pairs",
    "pair_weights",
    "fsum_complex",
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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=np.complex128)

    def evaluate(self, sigma: float, t: np.ndarray) -> np.ndarray:
        """``A(sigma + i t)`` at each entry of the 1-d ``t``: one
        :func:`zetastrip.special.dirichlet_sum`, as for zeta's main sum."""
        m = np.arange(1, self.length + 1, dtype=np.float64)
        return dirichlet_sum(t, np.log(m), self.as_array() * m ** (-sigma))


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


def coefficient_pairs(A: DirichletPolynomial) -> Iterator[tuple[complex, PairData]]:
    """``(a(k) conj(a(l)), pair_data(k, l))`` for every pair ``(k, l)`` whose
    two coefficients are nonzero, ``k`` then ``l`` ascending.

    Every pair sum of the window identity (the main term and both
    oscillatory sums) runs over these pairs in this order.
    """
    nonzero = [(m, c) for m, c in enumerate(A.coefficients, start=1) if c != 0]
    for k, ak in nonzero:
        for l, al in nonzero:
            yield ak * al.conjugate(), pair_data(k, l)


def pair_weights(A: DirichletPolynomial, sigma: float) -> Iterator[tuple[complex, PairData]]:
    """``(a(k) conj(a(l)) / lcm^{2 sigma}, pair_data(k, l))`` over :func:`coefficient_pairs`:
    the pair weight of the main term and of both oscillatory sums."""
    for product, pd in coefficient_pairs(A):
        yield product / pd.lcm ** (2.0 * sigma), pd


def fsum_complex(values: Iterable[complex] | np.ndarray) -> complex:
    """Correctly rounded sum of complex values, real and imaginary parts apart."""
    parts = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=np.complex128)
    return complex(math.fsum(parts.real.tolist()), math.fsum(parts.imag.tolist()))


#: Longest divisor sieve any caller forms: 2^20 entries, about 2 s on one
#: core of a 2-vCPU machine.  Callers check their lengths against it before
#: forming any array, so that a too-long sum is a named input error.
SIEVE_MAX = 2.0**20

# One divisor sieve per exponent, grown on demand and shared by the threads
# of a suite.  Each call returns a view of a sieve it read or built itself,
# and publishing a finished, read-only sieve is one dict store, so no call
# sees a partial sieve.  The lock makes the length check and the store one
# step, so a longer sieve is never replaced by a shorter one.
_sigma_sieves: dict[float, np.ndarray] = {}
_publish = threading.Lock()


def divisor_sigma_range(a: float, n_max: int) -> np.ndarray:
    """Read-only vector of ``sigma_a(n)`` for ``n = 1..n_max`` (index 0 holds
    ``sigma_a(1)``).

    A view of one divisor sieve per exponent, which doubles in length until
    it covers ``n_max``: O(n log n) work over all calls.  Entry ``n`` adds its
    divisors in ascending order whatever the sieve's length, so a prefix has
    the bits of a sieve of exactly ``n_max`` entries.
    """
    if n_max < 1:
        raise ValidationError("divisor_sigma_range requires n_max >= 1")
    a = float(a)
    sieve = _sigma_sieves.get(a)
    if sieve is None or sieve.size < n_max:
        length = n_max if sieve is None else max(n_max, 2 * sieve.size)
        sieve = np.zeros(length, dtype=np.float64)
        for d in range(1, length + 1):
            sieve[d - 1 :: d] += float(d) ** a
        sieve.setflags(write=False)
        with _publish:
            cached = _sigma_sieves.get(a)
            publish = cached.size < length if cached is not None else len(_sigma_sieves) < 64
            if publish:
                _sigma_sieves[a] = sieve
    return sieve[:n_max]


def unit_phase(numerator: np.ndarray, modulus: int) -> np.ndarray:
    """``e(numerator / modulus) = exp(2 pi i numerator / modulus)``.

    Takes an integer array of numerators; the reduction modulo ``modulus``
    is done in exact integer arithmetic before the complex exponential,
    which keeps distant terms of long sums phase-accurate.
    """
    if modulus < 1:
        raise ValidationError("unit_phase requires modulus >= 1")
    reduced = np.mod(numerator, modulus)
    if reduced.size > modulus:
        # Only ``modulus`` values occur: a table of their exps, indexed by
        # the reduced numerators, has the bits of the elementwise exp.
        return np.exp((2j * np.pi / modulus) * np.arange(modulus))[reduced]
    return np.exp((2j * np.pi / modulus) * reduced)
