"""Deterministic adaptive quadrature shared by every integral in the package.

One engine, one refinement policy: panels carry a Gauss(7)/Kronrod(15)
embedded pair; a panel's error indicator is ``|K15 - G7|``, which
overestimates the Kronrod error and therefore yields conservative totals.
Refinement bisects every panel whose indicator exceeds its fair share of the
tolerance, so the subdivision depends only on the integrand values, never on
timing or thread scheduling.  Totals are accumulated left-to-right with
compensated (exact-rounding) summation; results are bit-for-bit reproducible
for identical inputs.

Width policies let callers bound the initial panel length, either by a
constant or as a function of position (used to resolve oscillatory
integrands); explicit interior breakpoints let integrands with known jump
locations (divisor step functions) start panel-aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arithmetic import fsum_complex
from .errors import QuadratureNonConvergence, ValidationError

__all__ = ["QuadratureResult", "integrate_adaptive"]

# Gauss-Kronrod 7-15 pair on [-1, 1] (classical constants, full binary64).
_XGK_HALF = (
    0.99145537112081263921, 0.94910791234275852453, 0.86486442335976907279,
    0.74153118559939443986, 0.58608723546769113029, 0.40584515137739716691,
    0.20778495500789846760,
)
_WGK_HALF = (
    0.02293532201052922496, 0.06309209262997855329, 0.10479001032225018384,
    0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
    0.20443294007529889241,
)
_WGK_CENTER = 0.20948214108472782801
_WG_HALF = (0.12948496616886969327, 0.27970539148927666790, 0.38183005050511894495)
_WG_CENTER = 0.41795918367346938776

_XGK = np.array([-x for x in _XGK_HALF] + [0.0] + list(reversed(_XGK_HALF)))
_WGK = np.array(list(_WGK_HALF) + [_WGK_CENTER] + list(reversed(_WGK_HALF)))
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array(list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF)))

# Panels per integrand call.  ``special.zeta_line`` sizes its column chunks
# by the number of points it gets, so this is part of every mean-square value
# down to the last bit.
_PANEL_BATCH = 512


@dataclass(frozen=True)
class QuadratureResult:
    """Value, conservative error estimate, and work counters of one integral."""

    value: complex | float
    error_estimate: float
    panels: int
    evaluations: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0.0:
            raise ValidationError("error_estimate must be non-negative")


def _initial_edges(
    a: float,
    b: float,
    initial_width: float | Callable[[float], float] | None,
    breakpoints: Sequence[float] | None,
    max_panels: int,
) -> list[float]:
    seeds = [a, b]
    if breakpoints is not None:
        seeds.extend(p for p in breakpoints if a < p < b)
    seeds = sorted(set(seeds))
    if initial_width is None:
        return seeds
    edges: list[float] = [seeds[0]]
    for left, right in zip(seeds[:-1], seeds[1:]):
        x = left
        while x < right:
            w = initial_width(x) if callable(initial_width) else float(initial_width)
            if not (w > 0.0) or not math.isfinite(w):
                raise ValidationError("initial_width must produce positive finite widths")
            x = min(right, x + w)
            edges.append(x)
            if len(edges) > max_panels:
                raise ValidationError(
                    "initial_width policy produced more panels than max_panels"
                )
    return edges


def _evaluate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    lefts: np.ndarray,
    rights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    centers = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    nodes = centers[:, None] + halves[:, None] * _XGK[None, :]
    fv = np.asarray(f(nodes.ravel()))
    fv = fv.reshape(nodes.shape)
    kron = (fv @ _WGK) * halves
    gauss = (fv[:, _GAUSS_IDX] @ _WG) * halves
    return kron, np.abs(kron - gauss)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-8,
    rel_tol: float = 1e-8,
    initial_width: float | Callable[[float], float] | None = None,
    breakpoints: Sequence[float] | None = None,
    max_panels: int = 40_000,
) -> QuadratureResult:
    """Integrate vectorised ``f`` over ``[a, b]`` to the requested tolerance.

    ``f`` receives a flat numpy array of abscissae and must return values of
    the same shape (real or complex).  Raises
    :class:`QuadratureNonConvergence` (carrying the best value and its error
    estimate) if the panel budget is exhausted first.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration endpoints must be finite")
    if b < a:
        raise ValidationError("integration requires b >= a")
    if not (0.0 < abs_tol < math.inf and 0.0 <= rel_tol < math.inf):
        # Written so that NaN fails too: a NaN tolerance is never met, and
        # refinement would split one panel per pass up to max_panels.
        raise ValidationError(
            f"abs_tol must be positive and finite and rel_tol non-negative and finite, "
            f"got abs_tol={abs_tol!r}, rel_tol={rel_tol!r}"
        )
    if b == a:
        return QuadratureResult(value=0.0, error_estimate=0.0, panels=0, evaluations=0)

    edges = _initial_edges(a, b, initial_width, breakpoints, max_panels)
    lefts = np.array(edges[:-1])
    rights = np.array(edges[1:])
    values: list[complex] = []
    errors: list[float] = []
    panel_lr: list[tuple[float, float]] = []
    evaluations = 0

    def eval_batch(ls: np.ndarray, rs: np.ndarray) -> tuple[list[complex], list[float]]:
        nonlocal evaluations
        vals: list[complex] = []
        errs: list[float] = []
        for lo in range(0, ls.size, _PANEL_BATCH):
            kron, err = _evaluate_panels(f, ls[lo : lo + _PANEL_BATCH], rs[lo : lo + _PANEL_BATCH])
            evaluations += 15 * int(err.size)
            vals.extend(complex(v) for v in kron)
            errs.extend(float(e) for e in err)
        return vals, errs

    vals, errs = eval_batch(lefts, rights)
    values.extend(vals)
    errors.extend(errs)
    panel_lr.extend(zip(lefts.tolist(), rights.tolist()))

    while True:
        total = fsum_complex(values)
        if total.imag == 0.0:
            total = total.real
        total_err = math.fsum(errors)
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(
                value=total,
                error_estimate=total_err,
                panels=len(panel_lr),
                evaluations=evaluations,
            )
        n = len(panel_lr)
        if n >= max_panels:
            raise QuadratureNonConvergence(
                f"panel budget {max_panels} exhausted with error estimate "
                f"{total_err:.3e} above tolerance {tol:.3e}",
                value=total if isinstance(total, float) else abs(total),
                error_estimate=total_err,
            )
        share = 0.5 * tol / n
        split_idx = [i for i, e in enumerate(errors) if e > share]
        if not split_idx:
            # Cannot happen when total_err > tol, but guard against a
            # degenerate all-equal distribution under rounding.
            split_idx = [int(np.argmax(errors))]
        if n + len(split_idx) > max_panels:
            split_idx = split_idx[: max_panels - n]
        splittable: list[int] = []
        new_lefts: list[float] = []
        new_rights: list[float] = []
        for i in split_idx:
            l, r = panel_lr[i]
            mid = 0.5 * (l + r)
            if mid <= l or mid >= r:
                continue  # panel already at floating-point resolution
            splittable.append(i)
            new_lefts.extend((l, mid))
            new_rights.extend((mid, r))
        if not splittable:
            raise QuadratureNonConvergence(
                "refinement reached floating-point panel resolution with error "
                f"estimate {total_err:.3e} above tolerance {tol:.3e}",
                value=total if isinstance(total, float) else abs(total),
                error_estimate=total_err,
            )
        child_vals, child_errs = eval_batch(np.array(new_lefts), np.array(new_rights))
        # Replace each split panel by its two children in place, keeping the
        # panel list ordered left to right (indices shift as we insert).
        for offset, i in enumerate(splittable):
            j = i + offset
            pair = slice(2 * offset, 2 * offset + 2)
            panel_lr[j : j + 1] = list(zip(new_lefts[pair], new_rights[pair]))
            values[j : j + 1] = child_vals[pair]
            errors[j : j + 1] = child_errs[pair]
