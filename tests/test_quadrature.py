"""Adaptive Gauss-Kronrod engine against closed forms and failure modes."""

from __future__ import annotations

import math
import pickle
import re

import mpmath
import numpy as np
import pytest

from zetastrip import meansquare, quadrature, saddle, voronoi
from zetastrip.arithmetic import DirichletPolynomial
from zetastrip.errors import PrecisionError, QuadratureNonConvergence, ValidationError, ZetastripError
from zetastrip.quadrature import QuadratureResult, integrate_adaptive

mpmath.mp.prec = 120

#: The stage every direct call here names.
_STAGE = "probe stage"


def _integrate(f, a, b, **kwargs):
    """``integrate_adaptive`` at :data:`_STAGE`."""
    return integrate_adaptive(f, a, b, stage=_STAGE, **kwargs)


def test_polynomial_exact():
    result = _integrate(lambda x: x**2, 0.0, 1.0, initial_width=lambda x: 1.0)
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert result.error_estimate >= 0.0
    assert result.panels >= 1
    assert result.evaluations % 15 == 0


def test_empty_and_reversed_interval():
    zero = _integrate(lambda x: x, 2.0, 2.0, initial_width=lambda x: 1.0)
    assert zero.value == 0.0 and zero.panels == 0
    with pytest.raises(ValidationError):
        _integrate(lambda x: x, 1.0, 0.0, initial_width=lambda x: 1.0)
    with pytest.raises(ValidationError):
        _integrate(lambda x: x, 0.0, math.inf, initial_width=lambda x: 1.0)
    with pytest.raises(ValidationError):
        _integrate(lambda x: x, 0.0, 1.0, abs_tol=0.0, initial_width=lambda x: 1.0)


def test_panel_values_that_sum_past_the_floats_are_refused():
    # 100 panels of 1e307 each: the sum used to end in fsum's OverflowError.
    with pytest.raises(PrecisionError, match=re.escape("the sum of the panel values is not finite on [0.0, 100.0]")):
        _integrate(lambda x: np.full_like(x, 1e307), 0.0, 100.0, initial_width=lambda x: 1.0)


@pytest.mark.parametrize("value", [1e308, -1e308, 1e308 - 1e308j])
def test_panel_values_past_the_floats_are_refused_with_no_warning(value):
    # Finite integrand values near the float limit overflow a panel's Kronrod
    # product; under the suite's warnings-as-errors filter that used to end in
    # numpy's "overflow encountered in matmul" before the panel-sum refusal.
    with pytest.raises(PrecisionError, match=re.escape("the sum of the panel values is not finite on [0.0, 100.0]")):
        _integrate(lambda x: np.full_like(x, value, dtype=type(value)), 0.0, 100.0, initial_width=lambda x: 1.0)


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
        _integrate(f, 10.0, 20.0, initial_width=lambda x: 10.0, **tolerances)
    with pytest.raises(ValidationError, match="finite"):
        _integrate(f, 10.0, 10.0, initial_width=lambda x: 10.0, **tolerances)
    assert calls == []


def test_oscillatory_against_closed_form():
    # integral_0^{20 pi} cos(x) dx = 0 exactly; the panel layout must resolve
    # every oscillation when told the wavelength.
    result = _integrate(
        lambda x: np.cos(x), 0.0, 20.0 * math.pi, abs_tol=1e-12, initial_width=lambda x: 1.0
    )
    assert abs(result.value) <= 1e-11


def test_complex_fresnel_against_mpmath():
    # integral_0^L exp(i x^2) dx with a width policy tied to the local phase
    # derivative 2x.
    L = 12.0
    result = _integrate(
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
    # |x - 1| on [0, 3]: exact value 0.5 + 2 = 2.5; unit initial panels put
    # the kink on a panel edge.
    result = _integrate(
        lambda x: np.abs(x - 1.0), 0.0, 3.0, abs_tol=1e-13, initial_width=lambda x: 1.0
    )
    assert result.value == pytest.approx(2.5, abs=1e-12)


def test_error_estimate_is_conservative():
    result = _integrate(
        lambda x: np.exp(-x) * np.sin(7.0 * x), 0.0, 10.0, abs_tol=1e-10, initial_width=lambda x: 10.0
    )
    ref = float(mpmath.quad(lambda x: mpmath.exp(-x) * mpmath.sin(7 * x), [0, 10]))
    assert abs(result.value - ref) <= max(result.error_estimate, 1e-12)


def _needle(x):
    return 1.0 / (1e-14 + (x - 0.37) ** 2)


def _last_bit(x):
    # Noise at every scale: refinement only stops at floating-point resolution.
    return (x.view(np.int64) & 1).astype(float)


_ULP_WINDOW = (1.0, 1.0 + 2.0**-46)  # 64 units in the last place
# Width policies of one initial panel on [0, 1] and on the ULP window.
_UNIT_PANEL = {"initial_width": lambda x: 1.0}
_ULP_PANEL = {"initial_width": lambda x: 2.0**-46}


def test_non_convergence_carries_best_value(monkeypatch):
    # A needle the panel budget cannot resolve: must raise, with the partial
    # result attached rather than silently returning garbage.
    monkeypatch.setattr(quadrature, "MAX_PANELS", 40)
    with pytest.raises(QuadratureNonConvergence) as info:
        _integrate(_needle, 0.0, 1.0, abs_tol=1e-12, **_UNIT_PANEL)
    assert info.value.error_estimate > 0.0
    assert math.isfinite(info.value.value.real if isinstance(info.value.value, complex) else info.value.value)


def test_determinism_repeated_calls():
    def f(x):
        return np.sin(3.0 * x) / (1.0 + x**2)

    first = _integrate(f, 0.0, 30.0, abs_tol=1e-11, initial_width=lambda x: 0.7)
    second = _integrate(f, 0.0, 30.0, abs_tol=1e-11, initial_width=lambda x: 0.7)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.panels == second.panels


def test_width_policy_validation(monkeypatch):
    with pytest.raises(ValidationError):
        _integrate(lambda x: x, 0.0, 1.0, initial_width=lambda x: -0.5)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 100)
    with pytest.raises(ValidationError):
        _integrate(lambda x: x, 0.0, 1.0e6, initial_width=lambda x: 1e-6)


def test_failures_name_the_interval(monkeypatch):
    with pytest.raises(QuadratureNonConvergence, match=r"panel resolution .* on \[1\.0, 1\.0000000000000142\]$"):
        _integrate(_last_bit, *_ULP_WINDOW, abs_tol=1e-300, rel_tol=0.0, **_ULP_PANEL)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 40)
    with pytest.raises(QuadratureNonConvergence, match=r"budget 40 exhausted .* on \[0\.0, 1\.0\]$"):
        _integrate(_needle, 0.0, 1.0, abs_tol=1e-12, **_UNIT_PANEL)
    with pytest.raises(ValidationError, match=r"panel budget 40 on \[2\.0, 3\.5\]$"):
        _integrate(lambda x: x, 2.0, 3.5, initial_width=lambda x: 0.01)


# ---------------------------------------------------------------------------
# The array refinement against the list-splicing loop it replaced
# ---------------------------------------------------------------------------


def _oracle(f, a, b, *, abs_tol=1e-8, rel_tol=1e-8, initial_width, max_panels=40_000):
    """The list-splicing refinement loop, kept as the bitwise reference."""
    edges = [a]
    x = a
    while x < b:
        x = min(b, x + initial_width(x))
        edges.append(x)
    panel_lr, values, errors = [], [], []
    evaluations = 0

    def eval_batch(ls, rs):
        nonlocal evaluations
        vals, errs = [], []
        for lo in range(0, ls.size, quadrature._PANEL_BATCH):
            l, r = ls[lo : lo + quadrature._PANEL_BATCH], rs[lo : lo + quadrature._PANEL_BATCH]
            centers, halves = 0.5 * (l + r), 0.5 * (r - l)
            nodes = centers[:, None] + halves[:, None] * quadrature._XGK[None, :]
            fv = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
            kron = (fv @ quadrature._WGK) * halves
            gauss = (fv[:, quadrature._GAUSS_IDX] @ quadrature._WG) * halves
            evaluations += 15 * int(kron.size)
            vals.extend(complex(v) for v in kron)
            errs.extend(float(e) for e in np.abs(kron - gauss))
        return vals, errs

    lefts, rights = np.array(edges[:-1]), np.array(edges[1:])
    values, errors = eval_batch(lefts, rights)
    panel_lr = list(zip(lefts.tolist(), rights.tolist()))
    while True:
        total = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
        if total.imag == 0.0:
            total = total.real
        total_err = math.fsum(errors)
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(total, total_err, len(panel_lr), evaluations)
        n = len(panel_lr)
        best = total if isinstance(total, float) else abs(total)
        if n >= max_panels:
            raise QuadratureNonConvergence("budget", best, total_err)
        split_idx = [i for i, e in enumerate(errors) if e > 0.5 * tol / n]
        if not split_idx:
            split_idx = [int(np.argmax(errors))]
        split_idx = split_idx[: max_panels - n]
        splittable, new_lefts, new_rights = [], [], []
        for i in split_idx:
            l, r = panel_lr[i]
            mid = 0.5 * (l + r)
            if l < mid < r:
                splittable.append(i)
                new_lefts.extend((l, mid))
                new_rights.extend((mid, r))
        if not splittable:
            raise QuadratureNonConvergence("resolution", best, total_err)
        child_vals, child_errs = eval_batch(np.array(new_lefts), np.array(new_rights))
        for offset, i in enumerate(splittable):
            j = i + offset
            pair = slice(2 * offset, 2 * offset + 2)
            panel_lr[j : j + 1] = list(zip(new_lefts[pair], new_rights[pair]))
            values[j : j + 1] = child_vals[pair]
            errors[j : j + 1] = child_errs[pair]


def _same_bits(x, y) -> bool:
    return type(x) is type(y) and np.array(x).tobytes() == np.array(y).tobytes()


def _assert_matches_oracle(f, a, b, stage=_STAGE, **kwargs):
    # Same abscissae in the same calls too: ``special.zeta_line`` sizes its
    # chunks by the batch it gets, so that is part of the contract.
    batches = {"array": [], "list": []}

    def recording(name):
        def g(x):
            batches[name].append(x.copy())
            return f(x)

        return g

    result = integrate_adaptive(recording("array"), a, b, stage=stage, **kwargs)
    reference = _oracle(recording("list"), a, b, **kwargs)
    assert [x.tobytes() for x in batches["array"]] == [x.tobytes() for x in batches["list"]]
    assert _same_bits(result.value, reference.value)
    assert _same_bits(result.error_estimate, reference.error_estimate)
    assert (result.panels, result.evaluations) == (reference.panels, reference.evaluations)
    return result


_CLOSED_FORMS = [
    (lambda x: x**2, 0.0, 1.0, _UNIT_PANEL),
    (np.cos, 0.0, 20.0 * math.pi, {"abs_tol": 1e-12, "initial_width": lambda x: 1.0}),
    (np.cos, 0.0, 20.0 * math.pi, {"abs_tol": 1e-14, "initial_width": lambda x: 0.05}),  # 3 batches
    (
        lambda x: np.exp(1j * x**2),
        0.0,
        12.0,
        {"abs_tol": 1e-11, "rel_tol": 1e-12, "initial_width": lambda x: 1.0 / max(2.0 * abs(x), 0.5)},
    ),
    (lambda x: np.abs(x - 1.0), 0.0, 3.0, {"abs_tol": 1e-13, "initial_width": lambda x: 1.0}),
    (lambda x: np.exp(-x) * np.sin(7.0 * x), 0.0, 10.0, {"abs_tol": 1e-10, "initial_width": lambda x: 10.0}),
    (lambda x: np.sin(3.0 * x) / (1.0 + x**2), 0.0, 30.0, {"abs_tol": 1e-11, "initial_width": lambda x: 0.7}),
]


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    _CLOSED_FORMS,
    ids=["square", "cosine", "cosine-3-batches", "fresnel", "kink", "damped-sine", "sine-over-quadratic"],
)
def test_closed_forms_match_the_list_loop_bitwise(f, a, b, kwargs):
    _assert_matches_oracle(f, a, b, **kwargs)


@pytest.mark.parametrize(
    "f, window, kwargs, max_panels",
    [
        (_needle, (0.0, 1.0), {"abs_tol": 1e-12, **_UNIT_PANEL}, 40),
        (_last_bit, _ULP_WINDOW, {"abs_tol": 1e-300, "rel_tol": 0.0, **_ULP_PANEL}, 40_000),
    ],
    ids=["panel-budget", "resolution"],
)
def test_non_convergence_matches_the_list_loop_bitwise(f, window, kwargs, max_panels, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    with pytest.raises(QuadratureNonConvergence) as info:
        _integrate(f, *window, **kwargs)
    with pytest.raises(QuadratureNonConvergence) as reference:
        _oracle(f, *window, max_panels=max_panels, **kwargs)
    assert str(reference.value) in str(info.value)
    assert _same_bits(info.value.value, reference.value.value)
    assert _same_bits(info.value.error_estimate, reference.value.error_estimate)


def _calibrated_spec():
    spec = voronoi.TwistedSumSpec(-0.2, 1, 3)
    voronoi.calibrate(spec, power_modulus_exponent=-0.8)
    return spec


def _calls_through(module, monkeypatch, run):
    """Run ``run()`` and return the arguments of each quadrature it makes."""
    calls = []

    def recording(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return integrate_adaptive(f, a, b, **kwargs)

    monkeypatch.setattr(module, "integrate_adaptive", recording)
    run()
    assert calls
    return calls


@pytest.mark.parametrize(
    "module, run",
    [
        (
            meansquare,
            lambda: meansquare.integrate_mean_square(
                125.0, 250.0, meansquare.StripConfig(0.4), DirichletPolynomial((1.0, 1.0))
            ),
        ),
        (voronoi, lambda: voronoi.delta_mean_square(_calibrated_spec(), 256.0)),
        (
            saddle,
            lambda: saddle.lemma2_compare(
                saddle.ExpIntegralSpec(0.6, 0.6, 1.0, 0.01, 200.0, 1.0, 100.0)
            ),
        ),
    ],
    ids=["mean-square-window", "voronoi-integer-steps", "lemma2"],
)
def test_package_integrals_match_the_list_loop_bitwise(module, run, monkeypatch):
    for f, a, b, kwargs in _calls_through(module, monkeypatch, run):
        _assert_matches_oracle(f, a, b, **kwargs)


# ---------------------------------------------------------------------------
# The initial edges against the former per-edge loop
# ---------------------------------------------------------------------------


def _initial_edges_former(a, b, initial_width):
    """``quadrature._initial_edges`` with its former per-edge checks and ``min``."""
    edges = [a]
    x = a
    while x < b:
        w = initial_width(x)
        if not (w > 0.0) or not math.isfinite(w):
            raise ValidationError("initial_width must produce positive finite widths")
        x = min(b, x + w)
        edges.append(x)
        if len(edges) > quadrature.MAX_PANELS:
            raise ValidationError(
                f"initial_width policy reached the panel budget {quadrature.MAX_PANELS} on [{a!r}, {b!r}]"
            )
    return edges


@pytest.mark.parametrize(
    "module, run",
    [
        (
            meansquare,
            lambda: meansquare.integrate_mean_square(
                30.0, 60.0, meansquare.StripConfig(0.35), DirichletPolynomial((1.0, 0.5))
            ),
        ),
        (
            saddle,
            lambda: saddle.lemma2_compare(
                saddle.ExpIntegralSpec(0.6, 0.6, 1.0, 0.01, 1000.0, 5.0, 400.0, sign=-1)
            ),
        ),
    ],
    ids=["mean-square", "lemma2"],
)
def test_initial_edges_bit_identical_to_the_former_loop(module, run, monkeypatch):
    for _, a, b, kwargs in _calls_through(module, monkeypatch, run):
        policy = kwargs["initial_width"]
        for lo, hi in ((a, b), (a + 0.3 * (b - a), b), (0.5 * (a + b), b)):
            edges = quadrature._initial_edges(lo, hi, policy, kwargs["stage"])
            assert len(edges) > 2
            assert np.array(edges).tobytes() == np.array(_initial_edges_former(lo, hi, policy)).tobytes()


@pytest.mark.parametrize("u", [4.0, 5.0, 64.0, 129.5, 512.0, 777.25, 10000.5])
def test_integer_steps_give_the_former_integer_seeded_edges(u, monkeypatch):
    # delta_mean_square seeds its panels by stepping to the next integer; the
    # edges must be those it formerly got from the integers in (u/2, u).
    spec = _calibrated_spec()
    ((_, a, b, kwargs),) = _calls_through(voronoi, monkeypatch, lambda: voronoi.delta_mean_square(spec, u))
    assert (a, b) == (0.5 * u, u)
    former = sorted({a, b, *(float(m) for m in range(math.floor(a) + 1, math.ceil(b)) if a < m < b)})
    edges = quadrature._initial_edges(a, b, kwargs["initial_width"], kwargs["stage"])
    assert np.array(edges).tobytes() == np.array(former).tobytes()


@pytest.mark.parametrize("width", [0.0, -0.5, math.inf, -math.inf, math.nan])
def test_initial_edges_reject_widths_that_are_not_positive_and_finite(width):
    def policy(x):
        return width if x > 0.25 else 0.125

    with pytest.raises(ValidationError, match="^initial_width must produce positive finite widths$"):
        _initial_edges_former(0.0, 1.0, policy)
    # The refusal names the stage, the width, the point and the interval.
    message = f"initial_width must produce positive finite widths, got {width!r} at x = 0.375 on [0.0, 1.0]"
    with pytest.raises(ValidationError) as info:
        quadrature._initial_edges(0.0, 1.0, policy, "test stage")
    assert str(info.value) == f"test stage: {message}"


def test_initial_edges_panel_budget_error_unchanged(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 50)
    messages = []
    for edges in (lambda *args: quadrature._initial_edges(*args, _STAGE), _initial_edges_former):
        with pytest.raises(ValidationError, match=r"panel budget 50 on \[2\.0, 3\.5\]$") as info:
            edges(2.0, 3.5, lambda x: 0.01)
        messages.append(str(info.value))
    assert messages[0] == f"{_STAGE}: {messages[1]}"
    # 49 panels of 1/64 give 50 edges, the budget itself: no error.
    assert len(quadrature._initial_edges(2.0, 2.765625, lambda x: 0.015625, _STAGE)) == 50


# ---------------------------------------------------------------------------
# Every refusal the engine raises names the caller's stage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "error, max_panels, f, a, b, kwargs",
    [
        (ValidationError, 40_000, np.cos, 0.0, math.inf, _UNIT_PANEL),
        (ValidationError, 40_000, np.cos, 1.0, 0.0, _UNIT_PANEL),
        (ValidationError, 40_000, np.cos, 0.0, 1.0, {"rel_tol": math.nan, **_UNIT_PANEL}),
        (ValidationError, 40_000, np.cos, 0.0, 1.0, {"initial_width": lambda x: -0.5}),
        (ValidationError, 40, np.cos, 2.0, 3.5, {"initial_width": lambda x: 0.01}),
        (QuadratureNonConvergence, 40, _needle, 0.0, 1.0, {"abs_tol": 1e-12, **_UNIT_PANEL}),
        (QuadratureNonConvergence, 40_000, _last_bit, *_ULP_WINDOW, {"abs_tol": 1e-300, "rel_tol": 0.0, **_ULP_PANEL}),
        (PrecisionError, 40_000, lambda x: np.where(x > 0.5, np.inf, x), 0.0, 1.0, _UNIT_PANEL),
        (PrecisionError, 40_000, lambda x: np.full_like(x, 1e307), 0.0, 100.0, _UNIT_PANEL),
    ],
    ids=[
        "endpoints", "reversed", "tolerance", "bad-width", "width-budget", "panel-budget", "resolution",
        "non-finite-value", "non-finite-sum",
    ],
)
def test_every_engine_refusal_begins_with_the_stage(error, max_panels, f, a, b, kwargs, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    with pytest.raises(ZetastripError) as info:
        _integrate(f, a, b, **kwargs)
    assert type(info.value) is error
    message = str(info.value)
    assert message.startswith(f"{_STAGE}: ")
    assert not message.removeprefix(f"{_STAGE}: ").startswith(_STAGE)  # once, not twice
    if error is QuadratureNonConvergence:  # the prefixed refusal still carries its best value
        returned = pickle.loads(pickle.dumps(info.value))
        assert (str(returned), returned.value, returned.error_estimate) == (
            message, info.value.value, info.value.error_estimate
        )
        assert info.value.error_estimate > 0.0


def test_stage_has_no_default():
    with pytest.raises(TypeError, match="stage"):
        integrate_adaptive(np.cos, 0.0, 1.0, **_UNIT_PANEL)


def test_an_integrands_own_refusal_passes_through_unchanged():
    own = ValidationError("the integrand's own refusal", "t")

    def f(x):
        raise own

    with pytest.raises(ValidationError) as info:
        _integrate(f, 0.0, 1.0, **_UNIT_PANEL)
    assert info.value is own
    assert str(info.value) == "the integrand's own refusal"
