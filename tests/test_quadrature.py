"""Adaptive Gauss-Kronrod engine against closed forms and failure modes."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from zetastrip.errors import QuadratureNonConvergence, ValidationError
from zetastrip.quadrature import integrate_adaptive

mpmath.mp.prec = 120


def test_polynomial_exact():
    result = integrate_adaptive(lambda x: x**2, 0.0, 1.0)
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert result.error_estimate >= 0.0
    assert result.panels >= 1
    assert result.evaluations % 15 == 0


def test_empty_and_reversed_interval():
    zero = integrate_adaptive(lambda x: x, 2.0, 2.0)
    assert zero.value == 0.0 and zero.panels == 0
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda x: x, 0.0, math.inf)
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, abs_tol=0.0)


@pytest.mark.parametrize(
    "tolerances",
    [{"abs_tol": math.nan}, {"rel_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.inf}],
)
def test_non_finite_tolerance_is_rejected_before_any_evaluation(tolerances):
    # A NaN tolerance passed the old `abs_tol <= 0` test; an infinite one
    # accepts any result.  Both are rejected before the integrand runs.
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    with pytest.raises(ValidationError, match="finite"):
        integrate_adaptive(f, 10.0, 20.0, **tolerances)
    with pytest.raises(ValidationError, match="finite"):
        integrate_adaptive(f, 10.0, 10.0, **tolerances)
    assert calls == []


def test_oscillatory_against_closed_form():
    # integral_0^{20 pi} cos(x) dx = 0 exactly; the panel layout must resolve
    # every oscillation when told the wavelength.
    result = integrate_adaptive(
        lambda x: np.cos(x), 0.0, 20.0 * math.pi, abs_tol=1e-12, initial_width=1.0
    )
    assert abs(result.value) <= 1e-11


def test_complex_fresnel_against_mpmath():
    # integral_0^L exp(i x^2) dx with a width policy tied to the local phase
    # derivative 2x.
    L = 12.0
    result = integrate_adaptive(
        lambda x: np.exp(1j * x**2),
        0.0,
        L,
        abs_tol=1e-11,
        rel_tol=1e-12,
        initial_width=lambda x: 1.0 / max(2.0 * abs(x), 0.5),
    )
    ref = complex(mpmath.quad(lambda x: mpmath.e ** (1j * x**2), [0, mpmath.mpf(L)]))
    assert abs(result.value - ref) <= 5e-11


def test_breakpoints_resolve_kinks():
    # |x - 1| on [0, 3]: exact value 0.5 + 2 = 2.5; the kink is declared.
    result = integrate_adaptive(
        lambda x: np.abs(x - 1.0), 0.0, 3.0, abs_tol=1e-13, breakpoints=[1.0]
    )
    assert result.value == pytest.approx(2.5, abs=1e-12)


def test_error_estimate_is_conservative():
    result = integrate_adaptive(
        lambda x: np.exp(-x) * np.sin(7.0 * x), 0.0, 10.0, abs_tol=1e-10
    )
    ref = float(mpmath.quad(lambda x: mpmath.exp(-x) * mpmath.sin(7 * x), [0, 10]))
    assert abs(result.value - ref) <= max(result.error_estimate, 1e-12)


def test_non_convergence_carries_best_value():
    # A needle the panel budget cannot resolve: must raise, with the partial
    # result attached rather than silently returning garbage.
    def needle(x):
        return 1.0 / (1e-14 + (x - 0.37) ** 2)

    with pytest.raises(QuadratureNonConvergence) as info:
        integrate_adaptive(needle, 0.0, 1.0, abs_tol=1e-12, max_panels=40)
    assert info.value.error_estimate > 0.0
    assert math.isfinite(info.value.value.real if isinstance(info.value.value, complex) else info.value.value)


def test_determinism_repeated_calls():
    def f(x):
        return np.sin(3.0 * x) / (1.0 + x**2)

    first = integrate_adaptive(f, 0.0, 30.0, abs_tol=1e-11, initial_width=0.7)
    second = integrate_adaptive(f, 0.0, 30.0, abs_tol=1e-11, initial_width=0.7)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.panels == second.panels


def test_width_policy_validation():
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, initial_width=-0.5)
    with pytest.raises(ValidationError):
        integrate_adaptive(lambda x: x, 0.0, 1.0e6, initial_width=1e-6, max_panels=100)
