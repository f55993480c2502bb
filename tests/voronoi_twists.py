"""How far each reading of the Voronoi twist leaves the series from the remainder.

:func:`zetastrip.voronoi.delta_bessel` twists its series by ``e(-h_bar n/k)``
with ``h h_bar = 1 (mod k)``.  The other reading, ``e(-hn/k)``, is no longer
in the library; :func:`delta_bessel_oracle`, the former loop kept as a
bitwise oracle of the library's series (``inverse``), forms it too
(``direct``).  The two readings agree where ``h_bar = h``.

:func:`twist_residuals` returns, over 40 geometric points of a window, the
rms of ``delta_direct - S`` for ``S`` under each reading at 2 000 terms and
the default calibration, and the rms of ``delta_direct`` itself (what
predicting zero leaves).  Run as a script, it prints them over the
Estermann oracle's 13 specs on [40, 400] and [400, 4 000]::

    PYTHONPATH=src python tests/voronoi_twists.py
"""

from __future__ import annotations

import math
import time

import numpy as np

from zetastrip.arithmetic import divisor_sigma_range, unit_phase
from zetastrip.special import bessel
from zetastrip.voronoi import TwistedSumSpec, calibrate, delta_bessel, delta_direct, truncation_plan

#: The Estermann oracle's specs (a, h, k); five have h_bar != h.
ESTERMANN_SPECS = (
    (-0.2, 0, 1),
    (-0.2, 1, 2),
    (-0.2, 1, 3),
    (-0.2, 2, 3),
    (-0.35, 1, 4),
    (-0.35, 3, 4),
    (-0.45, 2, 3),
    (-0.2, 1, 5),
    (-0.2, 2, 5),
    (-0.35, 3, 7),
    (-0.2, 2, 7),
    (-0.45, 5, 11),
    (-0.2, 5, 13),
)
WINDOWS = ((40.0, 400.0), (400.0, 4000.0))
POINTS = 40
N_TERMS = 2000


def phases_oracle(spec: TwistedSumSpec, n_int: np.ndarray, twist: str) -> np.ndarray:
    """``e(-m n/k)`` with ``m = h`` (``direct``) or ``h_bar`` (``inverse``)."""
    multiplier = spec.h if twist == "direct" else (pow(spec.h, -1, spec.k_mod) if spec.h else 0)
    if multiplier == 0:
        return np.ones(n_int.size, dtype=np.complex128)
    return unit_phase(-multiplier * n_int, spec.k_mod)


def delta_bessel_oracle(spec: TwistedSumSpec, x: float, n_terms: int, twist: str) -> complex:
    """``delta_bessel``'s series at ``x`` under ``twist``, term by term."""
    if n_terms == 0:
        return 0.0 + 0.0j
    a, k = spec.a, spec.k_mod
    nu = a + 1.0
    n_int = np.arange(1, n_terms + 1, dtype=np.int64)
    n = n_int.astype(np.float64)
    z = (4.0 * math.pi / k) * np.sqrt(n * x)
    cos_half = math.cos(0.5 * math.pi * a)
    sin_half = math.sin(0.5 * math.pi * a)
    k_nu, y_nu, j_nu = bessel(nu, z)  # each row bit-identical to one kind per call (test_special)
    kernel = -(2.0 / math.pi) * cos_half * (k_nu + (0.5 * math.pi) * y_nu) - sin_half * j_nu
    sig = divisor_sigma_range(a, n_terms)
    amplitude = x ** (0.5 * (1.0 + a)) * sig * n ** (-0.5 * (1.0 + a)) * kernel
    terms = amplitude * phases_oracle(spec, n_int, twist)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _rms(values) -> float:
    return math.sqrt(math.fsum(abs(v) ** 2 for v in values) / len(values))


def twist_residuals(spec: TwistedSumSpec, window: tuple[float, float]) -> tuple[float, float, float]:
    """rms ``|delta_direct - S|`` with ``S`` twisted by ``h`` (deleted) and by
    ``h_bar`` (kept), and rms ``|delta_direct|``, over the window's points."""
    xs = np.geomspace(*window, POINTS)
    remainder = delta_direct(spec, xs, calibrate(spec))
    plan = truncation_plan(spec, window, N_TERMS)
    deleted = [r - delta_bessel_oracle(spec, float(x), N_TERMS, "direct") for x, r in zip(xs, remainder)]
    kept = [r - delta_bessel(spec, float(x), plan) for x, r in zip(xs, remainder)]
    return _rms(deleted), _rms(kept), _rms(remainder)


def main() -> None:
    start = time.perf_counter()
    print(f"rms |Δ − S|, S twisted by h (deleted) vs by h̄ (kept), (rms |Δ|); {POINTS} geometric points,")
    print(f"{N_TERMS} terms, default calibration:")
    print()
    print("| (a, h, k), h̄ | " + " | ".join(f"[{lo:g}, {hi:g}]" for lo, hi in WINDOWS) + " |")
    print("|---|" + "---|" * len(WINDOWS))
    ratios = []
    worse_than_zero = 0
    for a, h, k in ESTERMANN_SPECS:
        spec = TwistedSumSpec(a, h, k)
        cells = []
        for window in WINDOWS:
            deleted, kept, zero = twist_residuals(spec, window)
            cells.append(f"{deleted:.3g} vs {kept:.3g} ({zero:.3g})")
            if spec.h_bar != h:
                ratios.append((window, deleted / kept))
                worse_than_zero += deleted > zero
        print(f"| ({a}, {h}, {k}), {spec.h_bar} | " + " | ".join(cells) + " |")
    print()
    for window in WINDOWS:
        on_window = [ratio for w, ratio in ratios if w == window]
        print(f"[{window[0]:g}, {window[1]:g}], h̄ ≠ h: deleted / kept {min(on_window):.2f}–{max(on_window):.2f}")
    print(f"Cells with h̄ ≠ h where the deleted reading is farther than zero: {worse_than_zero} of {len(ratios)}")
    print(f"({len(ESTERMANN_SPECS) * len(WINDOWS)} cells in {time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
