"""Deterministic adaptive quadrature shared by every integral in the package.

One engine, one refinement policy: panels carry a Gauss(7)/Kronrod(15)
embedded pair; a panel's error indicator is ``|K15 - G7|``, which
overestimates the Kronrod error and therefore yields conservative totals.
The panels live in four arrays (left ends, right ends, values, indicators),
ordered left to right; each pass bisects, by one mask, every panel whose
indicator exceeds its fair share of the tolerance, so the subdivision depends
only on the integrand values, never on timing or thread scheduling.  Totals
are correctly rounded (``math.fsum``) and so independent of summation order;
results are bit-for-bit reproducible.  An integral uses at most
:data:`MAX_PANELS` panels; a caller names its stage in the error it raises
when they run out (:func:`stage`).

Every integral's width policy (a function of position) sets its initial
panel lengths, to resolve oscillatory integrands; a policy that steps to the
next integer lets integrands with jumps at the integers (divisor step
functions) start panel-aligned.  The panel budget bounds them too.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .arithmetic import fsum_complex
from .errors import PrecisionError, QuadratureNonConvergence, ValidationError

__all__ = ["QuadratureResult", "integrate_adaptive", "stage", "MAX_PANELS", "NODES_PER_PANEL"]

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

#: Integrand evaluations per panel: the Kronrod nodes, which include the
#: Gauss ones.
NODES_PER_PANEL = _XGK.size

# Panels per integrand call.  ``special.zeta_line`` sizes its column chunks
# by the number of points it gets, so this is part of every mean-square value
# down to the last bit.
_PANEL_BATCH = 512

#: Panel budget of one integral, for the initial width policy and for
#: refinement alike.
MAX_PANELS = 40_000


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


def _initial_edges(a: float, b: float, initial_width: Callable[[float], float]) -> list[float]:
    edges: list[float] = [a]
    append = edges.append
    x = a
    while x < b:
        w = initial_width(x)
        if not 0.0 < w < math.inf:  # also false for NaN
            raise ValidationError("initial_width must produce positive finite widths")
        x = x + w
        if not x < b:
            x = b
        if len(edges) > MAX_PANELS:  # edges so far = panels with this one
            raise ValidationError(
                f"initial_width policy reached the panel budget {MAX_PANELS} on [{a!r}, {b!r}]"
            )
        append(x)
    return edges


def _evaluate_panels(
    f: Callable[[np.ndarray], np.ndarray], lefts: np.ndarray, rights: np.ndarray, a: float, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and ``|K15 - G7|`` indicators, ``_PANEL_BATCH`` panels
    per call of ``f``.  A value of ``f`` that is not finite raises
    :class:`PrecisionError` naming its abscissa and the interval ``[a, b]``:
    no error estimate can be formed from it."""
    values = np.empty(lefts.size, dtype=np.complex128)
    errors = np.empty(lefts.size)
    for lo in range(0, lefts.size, _PANEL_BATCH):
        batch = slice(lo, lo + _PANEL_BATCH)
        centers = 0.5 * (lefts[batch] + rights[batch])
        halves = 0.5 * (rights[batch] - lefts[batch])
        nodes = centers[:, None] + halves[:, None] * _XGK[None, :]
        fv = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        finite = np.isfinite(fv)
        if not finite.all():
            first = np.flatnonzero(~finite)[0]
            raise PrecisionError(
                f"integrand value {fv.flat[first].item()!r} at x = {nodes.flat[first].item()!r} "
                f"is not finite on [{a!r}, {b!r}]"
            )
        kron = (fv @ _WGK) * halves
        values[batch] = kron
        errors[batch] = np.abs(kron - (fv[:, _GAUSS_IDX] @ _WG) * halves)
    return values, errors


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-8,
    rel_tol: float = 1e-8,
    initial_width: Callable[[float], float],
) -> QuadratureResult:
    """Integrate vectorised ``f`` over ``[a, b]`` to the requested tolerance.

    ``f`` receives a flat numpy array of abscissae and must return values of
    the same shape (real or complex).  The initial panels step from ``a`` by
    ``initial_width(x)`` at each left end ``x``.  Raises
    :class:`QuadratureNonConvergence` (carrying the best value and its error
    estimate) if the panel budget :data:`MAX_PANELS` is exhausted first,
    and :class:`PrecisionError` at the first value of ``f`` that is not
    finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration endpoints must be finite")
    if b < a:
        raise ValidationError("integration requires b >= a")
    if not (0.0 < abs_tol < math.inf and 0.0 <= rel_tol < math.inf):
        # Written so that NaN fails too: a NaN tolerance is never met, and
        # refinement would split one panel per pass up to MAX_PANELS.
        raise ValidationError(
            f"abs_tol must be positive and finite and rel_tol non-negative and finite, "
            f"got abs_tol={abs_tol!r}, rel_tol={rel_tol!r}"
        )
    a, b = float(a), float(b)
    if b == a:
        return QuadratureResult(0.0, 0.0, 0, 0)

    edges = np.array(_initial_edges(a, b, initial_width))
    lefts, rights = edges[:-1], edges[1:]
    values, errors = _evaluate_panels(f, lefts, rights, a, b)
    evaluations = NODES_PER_PANEL * lefts.size
    while True:
        total = fsum_complex(values)
        if total.imag == 0.0:
            total = total.real
        total_err = math.fsum(errors.tolist())
        tol = max(abs_tol, rel_tol * abs(total))
        n = lefts.size
        if total_err <= tol:
            return QuadratureResult(total, total_err, n, evaluations)
        unmet = f"error estimate {total_err:.3e} above tolerance {tol:.3e} on [{a!r}, {b!r}]"
        best = total if isinstance(total, float) else abs(total)
        if n >= MAX_PANELS:
            raise QuadratureNonConvergence(
                f"panel budget {MAX_PANELS} exhausted with {unmet}", best, total_err
            )
        split = errors > 0.5 * tol / n
        if not split.any():
            # Cannot happen when total_err > tol, but guard against a
            # degenerate all-equal distribution under rounding.
            split[np.argmax(errors)] = True
        split[np.cumsum(split) > MAX_PANELS - n] = False
        mids = 0.5 * (lefts + rights)
        split &= (lefts < mids) & (mids < rights)  # else at floating-point resolution
        if not split.any():
            raise QuadratureNonConvergence(
                f"refinement reached floating-point panel resolution with {unmet}", best, total_err
            )
        # Children interleaved left then right, so they reach ``f`` in panel order.
        child_lefts = np.column_stack((lefts[split], mids[split])).ravel()
        child_rights = np.column_stack((mids[split], rights[split])).ravel()
        child_values, child_errors = _evaluate_panels(f, child_lefts, child_rights, a, b)
        evaluations += NODES_PER_PANEL * child_lefts.size
        # Each split panel is repeated once, and its two slots take its children.
        repeats = 1 + split
        slots = np.repeat(split, repeats)
        lefts, rights, values, errors = (
            np.repeat(x, repeats) for x in (lefts, rights, values, errors)
        )
        lefts[slots], rights[slots] = child_lefts, child_rights
        values[slots], errors[slots] = child_values, child_errors


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Prefix ``name``, the caller's stage, to the message of a
    :class:`QuadratureNonConvergence` raised in the block; the interval, the
    best value and its error estimate stay as they were."""
    try:
        yield
    except QuadratureNonConvergence as exc:
        raise QuadratureNonConvergence(f"{name}: {exc}", exc.value, exc.error_estimate) from None
