"""Cross-pair residuals of the window identity under both Σ₂ twists.

The residual of the window identity over ``[T, 2T]`` at ``Y = T``,
``c1 = 0.5``, ``c2 = 2`` and Σ₁ ``resolved``::

    R(A) = I(T, 2T) - ([M + S1 + S2](2T, 2Y) - [M + S1 + S2](T, Y))

is a Hermitian form in the coefficients of ``A``: each block is linear in
the pair weight ``a(k) conj(a(l))``.  With ``A± = k^{-s} ± c l^{-s}`` the
diagonal pairs cancel from ``(R(A+) - R(A-)) / 4``, which is the residual of
the cross pairs ``(k, l)`` and ``(l, k)`` alone.  Where ``kappa_bar != kappa``
modulo ``lambda`` the two readings of Σ₂'s unit twist ``e(m n / lambda)``
differ: ``m = -kappa`` (``direct``, the one :mod:`zetastrip.explicit` keeps)
or ``m = -kappa_bar`` (``inverse``).  :func:`sigma2_sum` forms Σ₂ under
either, with the bits of the library's Σ₂ under ``direct``.

Run as a script, it prints the cross-pair residual, normalised by
``T^{1 - 2 sigma} log T``, of both twists over the grid of :data:`GRID`
(240 cells), then the worst cell of each pair and twist::

    PYTHONPATH=src python tests/pair_residuals.py
"""

from __future__ import annotations

import math
import time

import numpy as np

from zetastrip.arithmetic import DirichletPolynomial, coefficient_pairs, divisor_sigma_range, fsum_complex, unit_phase
from zetastrip.explicit import _SIGMA2_FACTORS, WindowConfig, _g_phase, _xi, explicit_terms
from zetastrip.meansquare import StripConfig, integrate_mean_square
from zetastrip.special import cis

TWISTS = ("direct", "inverse")
SIGMA2_READINGS = ("resolved", "halved")
#: sigma, T, and the pairs (k, l, c), each with kappa_bar != kappa mod lambda.
GRID = (
    (0.27, 0.3, 0.35, 0.4, 0.45, 0.48),
    (1000.0, 2000.0, 4000.0, 8000.0),
    ((2, 5, 1), (3, 5, 1), (2, 7, 1), (3, 7, 1), (2, 5, 1j)),
)


def sigma2_sum(T, y_cut, cfg, A, twist):
    """Σ₂ before its reading's factor, as ``(total, terms, pairs)``, under
    ``twist``: ``direct`` (``m = -kappa``) or ``inverse`` (``m = -kappa_bar``).
    ``pairs`` holds ``(pair data, factor, inner sum, term count)`` per pair with terms."""
    sigma = cfg.sigma
    exponent = 2.0 * sigma - 1.0
    saddle_scale = T / (2.0 * math.pi)
    scalar = -4.0 * (2.0 * math.pi * T) ** (0.5 - sigma)
    values = []
    terms = 0
    pairs = []
    for product, pd in coefficient_pairs(A):
        n_max = math.floor(pd.lam * y_cut / pd.kappa)
        if n_max < 1:
            continue
        n = np.arange(1, n_max + 1, dtype=np.float64)
        u = pd.kappa * n / pd.lam
        sig = divisor_sigma_range(exponent, n_max)
        n_int = np.arange(1, n_max + 1, dtype=np.int64)
        multiplier = -pd.kappa if twist == "direct" else -pd.kappa_bar
        twist_values = unit_phase(multiplier * n_int, pd.lam)
        inner = np.sum(sig * n ** (-sigma) * twist_values * cis(_g_phase(T, u)) / np.log(saddle_scale / u))
        coeff = product / pd.lcm ** (2.0 * sigma) * (pd.kappa * pd.lam) ** sigma
        values.append(coeff * complex(inner))
        terms += n_max
        pairs.append((pd, coeff, complex(inner), n_max))
    return scalar * fsum_complex(values), terms, pairs


def _polynomial(k: int, l: int, c: complex) -> DirichletPolynomial:
    coefficients = [0.0] * l
    coefficients[k - 1] = 1.0
    coefficients[l - 1] = c
    return DirichletPolynomial(tuple(coefficients))


def _residuals(sigma: float, T: float, A: DirichletPolynomial) -> dict[tuple[str, str], float]:
    """``R(A)`` under each (Σ₂ reading, twist)."""
    cfg = StripConfig(sigma)
    lower = WindowConfig(0.5, 2.0, T, T)
    rest = 0.0  # the Σ₂-free part of the block difference: M and Σ₁
    totals = dict.fromkeys(TWISTS, 0.0)
    for window, sign in ((lower.scaled(2.0), 1.0), (lower, -1.0)):
        blocks = explicit_terms(window, cfg, A, sigma1_variant="resolved")
        rest += sign * (blocks.main + blocks.sigma1)
        for twist in TWISTS:
            totals[twist] += sign * sigma2_sum(window.t, _xi(window.t, window.y), cfg, A, twist)[0].real
    integral = float(integrate_mean_square(T, 2.0 * T, cfg, A).value)
    return {
        (reading, twist): integral - rest - _SIGMA2_FACTORS[reading](sigma) * totals[twist]
        for reading in SIGMA2_READINGS
        for twist in TWISTS
    }


def cross_pair_residuals(sigma: float, T: float, k: int, l: int, c: complex = 1.0) -> dict[tuple[str, str], float]:
    """``(R(A+) - R(A-)) / 4`` with ``A± = k^{-s} ± c l^{-s}``, under each
    (Σ₂ reading, twist)."""
    plus = _residuals(sigma, T, _polynomial(k, l, c))
    minus = _residuals(sigma, T, _polynomial(k, l, -c))
    return {key: (plus[key] - minus[key]) / 4.0 for key in plus}


def _pair_label(k: int, l: int, c: complex) -> str:
    return f"({k}, {l})" if c == 1 else f"({k}, {l}, i)"


def main() -> None:
    start = time.perf_counter()
    sigmas, heights, pairs = GRID
    columns = [(pair, reading) for pair in pairs for reading in SIGMA2_READINGS]
    worst = {}
    not_smaller = []
    print("Normalised |cross-pair residual|, direct / inverse, Σ₁ resolved, Y = T:")
    print()
    print("| σ | T | " + " | ".join(f"{_pair_label(*pair)} {reading}" for pair, reading in columns) + " |")
    print("|---|---|" + "---|" * len(columns))
    for sigma in sigmas:
        for T in heights:
            scale = T ** (1.0 - 2.0 * sigma) * math.log(T)
            cells = []
            for pair in pairs:
                residuals = cross_pair_residuals(sigma, T, *pair)
                for reading in SIGMA2_READINGS:
                    direct, inverse = (abs(residuals[reading, twist]) / scale for twist in TWISTS)
                    cells.append(f"{direct:.3f} / {inverse:.3f}")
                    for twist, value in zip(TWISTS, (direct, inverse)):
                        key = (pair, reading, twist)
                        worst[key] = max(worst.get(key, 0.0), value)
                    if not direct < inverse:
                        not_smaller.append((sigma, T, _pair_label(*pair), reading, direct, inverse))
            print(f"| {sigma} | {T:.0f} | " + " | ".join(cells) + " |")
    print()
    print("Worst cell per pair, direct / inverse (ratio):")
    for reading in SIGMA2_READINGS:
        for pair in pairs:
            direct, inverse = worst[pair, reading, "direct"], worst[pair, reading, "inverse"]
            print(f"  {reading} {_pair_label(*pair)}: {direct:.3f} / {inverse:.3f} ({inverse / direct:.1f}x)")
    print()
    print(f"Cells where direct is not smaller: {len(not_smaller)}")
    for sigma, T, label, reading, direct, inverse in not_smaller:
        print(f"  sigma = {sigma}, T = {T:.0f}, {label} {reading}: {direct:.3f} / {inverse:.3f}")
    keep = all(
        2.0 * worst[pair, "resolved", "direct"] <= worst[pair, "resolved", "inverse"]
        and worst[pair, "halved", "direct"] < worst[pair, "halved", "inverse"]
        for pair in pairs
    )
    print()
    print(f"Direct's worst cell at least 2x below inverse's under resolved, and below it under halved, "
          f"for every pair: {keep}")
    print(f"({len(sigmas) * len(heights) * len(columns)} cells in {time.perf_counter() - start:.0f} s)")


if __name__ == "__main__":
    main()
