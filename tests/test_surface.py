"""The library surface: every function and constructor in a module's ``__all__``
returns finite numbers or refuses a bad numeric argument by name.

Each numeric argument in turn takes each of :data:`_BAD_FLOATS` (an integer
argument :data:`_BAD_INTS`) while the others keep the valid values of
:data:`_ENTRIES`.  A sequence or array argument takes each bad value in each
of its places in turn, a complex one as its real part and as its imaginary
part.  Under ``warnings`` as errors, the call must finish within
:data:`_CALL_SECONDS` and either return with no nan or inf in its numbers or
raise a :class:`~zetastrip.errors.ValidationError` whose message names the
argument (as a word, so the article "a" also names an argument ``a``).
"""

from __future__ import annotations

import cmath
import dataclasses
import importlib
import math
import re
import time
import warnings
from collections.abc import Iterator

import numpy as np
import pytest

from zetastrip.arithmetic import DirichletPolynomial
from zetastrip.errors import ValidationError
from zetastrip.explicit import WindowConfig
from zetastrip.meansquare import StripConfig
from zetastrip.saddle import ExpIntegralSpec
from zetastrip.voronoi import TruncationPlan, TwistedSumSpec

_MODULES = ("arithmetic", "explicit", "meansquare", "quadrature", "saddle", "special", "voronoi")
_BAD_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 1e154, 5e-324)
_BAD_INTS = (math.nan, math.inf, -math.inf, 0, -1, 10**30)
_CALL_SECONDS = 1.0

#: Record classes that public functions return: a caller reads them, and
#: builds none.
_RECORDS = {
    "PairData", "QuadratureResult", "ExplicitTerms", "Theorem1Report", "Theorem2Report",
    "SaddleComparison", "Lemma2Report", "Lemma3Report", "Lemma4Report", "Calibration",
}
#: Kernels of the zeta hot path, which every caller hands finite values
#: (their docstrings say so): a check there would run on every element.
_UNCHECKED = {"cis", "dirichlet_sum", "fsum_complex"}


def _poly():
    return DirichletPolynomial((1.0, 1.0))


def _window():
    return WindowConfig(0.5, 2.0, 10.0, 10.0)


def _voronoi_spec():
    # k = 1: the smallest default calibration window, so every fit is cheap.
    return TwistedSumSpec(-0.2, 0, 1)


def _plan():
    return TruncationPlan(200, 1.0)


def _integrand(x):
    return np.cos(x)


# name -> (module, valid arguments, {numeric argument: its kind}).  Kinds:
# "float", "int", "complex", "floats" (a sequence of floats) and the 1-d
# arrays "float_array" and "int_array".  The arguments are built afresh for
# each call.
_ENTRIES = {
    "DirichletPolynomial": ("arithmetic", lambda: dict(coefficients=(1.0, 1.0)), {"coefficients": "floats"}),
    "coefficient_pairs": ("arithmetic", lambda: dict(A=_poly()), {}),
    "pair_weights": ("arithmetic", lambda: dict(A=_poly(), sigma=0.4), {"sigma": "float"}),
    "divisor_sigma_range": ("arithmetic", lambda: dict(a=-0.2, n_max=100), {"a": "float", "n_max": "int"}),
    "unit_phase": (
        "arithmetic", lambda: dict(numerator=np.arange(5), modulus=7),
        {"numerator": "int_array", "modulus": "int"},
    ),
    "WindowConfig": (
        "explicit", lambda: dict(c1=0.5, c2=2.0, y=10.0, t=10.0),
        {"c1": "float", "c2": "float", "y": "float", "t": "float"},
    ),
    "explicit_terms": ("explicit", lambda: dict(window=_window(), cfg=StripConfig(0.4), A=_poly()), {}),
    "theorem1_report": (
        "explicit", lambda: dict(win=_window(), cfg=StripConfig(0.4), A=_poly(), abs_tol=1e-6, rel_tol=1e-8),
        {"abs_tol": "float", "rel_tol": "float"},
    ),
    "theorem2_report": (
        "explicit",
        lambda: dict(win=_window(), cfg=StripConfig(0.4), A=_poly(), alpha=1.0, abs_tol=1e-6, rel_tol=1e-8),
        {"alpha": "float", "abs_tol": "float", "rel_tol": "float"},
    ),
    "StripConfig": ("meansquare", lambda: dict(sigma=0.4), {"sigma": "float"}),
    "integrand": (
        "meansquare", lambda: dict(t=np.array([10.0, 11.0]), config=StripConfig(0.4), poly=_poly()),
        {"t": "float_array"},
    ),
    "integrate_mean_square": (
        "meansquare",
        lambda: dict(t_lo=10.0, t_hi=11.0, config=StripConfig(0.4), poly=_poly(), abs_tol=1e-6, rel_tol=1e-8),
        {"t_lo": "float", "t_hi": "float", "abs_tol": "float", "rel_tol": "float"},
    ),
    "main_term": ("meansquare", lambda: dict(T=10.0, config=StripConfig(0.4), poly=_poly()), {"T": "float"}),
    "check_zeta_work": (
        "meansquare", lambda: dict(t_lo=10.0, t_hi=11.0, config=StripConfig(0.4), poly=_poly()),
        {"t_lo": "float", "t_hi": "float"},
    ),
    "integrate_adaptive": (
        "quadrature",
        lambda: dict(
            f=_integrand, a=0.0, b=1.0, stage="probe", abs_tol=1e-8, rel_tol=1e-8, initial_width=lambda x: 0.25
        ),
        {"a": "float", "b": "float", "abs_tol": "float", "rel_tol": "float"},
    ),
    "ExpIntegralSpec": (
        "saddle",
        lambda: dict(alpha=0.6, beta=0.6, gamma=1.0, a_lo=0.01, b_hi=20.0, k_freq=1.0, T=10.0, sign=1),
        {
            "alpha": "float", "beta": "float", "gamma": "float", "a_lo": "float", "b_hi": "float",
            "k_freq": "float", "T": "float", "sign": "int",
        },
    ),
    "lemma2_compare": (
        "saddle",
        lambda: dict(
            spec=ExpIntegralSpec(0.6, 0.6, 1.0, 0.01, 20.0, 1.0, 10.0), abs_tol=1e-7, rel_tol=1e-9
        ),
        {"abs_tol": "float", "rel_tol": "float"},
    ),
    "lemma3_decay": (
        "saddle", lambda: dict(alpha=1.5, k=1.0, t_grid=(10.0, 20.0)),
        {"alpha": "float", "k": "float", "t_grid": "floats"},
    ),
    "lemma4_compare": (
        "saddle",
        lambda: dict(alpha=1.5, n=3, a_lo=math.sqrt(200.0), b_hi=10.0 * math.sqrt(200.0), T=200.0,
                     abs_tol=1e-8, rel_tol=1e-9),
        {
            "alpha": "float", "n": "int", "a_lo": "float", "b_hi": "float", "T": "float",
            "abs_tol": "float", "rel_tol": "float",
        },
    ),
    "arcsinh": ("special", lambda: dict(x=np.array([0.5, 3.0])), {"x": "float_array"}),
    "zeta": ("special", lambda: dict(s=0.4 + 10.0j), {"s": "complex"}),
    "zeta_line": (
        "special", lambda: dict(sigma=0.4, t=np.array([10.0, 600.0])), {"sigma": "float", "t": "float_array"}
    ),
    "zeta_terms": (
        "special", lambda: dict(sigma=0.4, t_lo=100.0, t_hi=200.0),
        {"sigma": "float", "t_lo": "float", "t_hi": "float"},
    ),
    "gamma": ("special", lambda: dict(z=0.3 + 0.5j), {"z": "complex"}),
    "bessel": ("special", lambda: dict(nu=0.6, x=np.array([1.0, 20.0])), {"nu": "float", "x": "float_array"}),
    "TwistedSumSpec": ("voronoi", lambda: dict(a=-0.2, h=1, k_mod=3), {"a": "float", "h": "int", "k_mod": "int"}),
    "TruncationPlan": (
        "voronoi", lambda: dict(n_terms=200, tail_estimate=1.0), {"n_terms": "int", "tail_estimate": "float"}
    ),
    "exponent_from_sigma": ("voronoi", lambda: dict(sigma=0.4), {"sigma": "float"}),
    "calibration_x_lo": ("voronoi", lambda: dict(k_mod=3), {"k_mod": "int"}),
    "calibrate": (
        "voronoi", lambda: dict(spec=_voronoi_spec(), power_modulus_exponent=-0.8, x_lo=40.0, samples=640),
        {"power_modulus_exponent": "float", "x_lo": "float", "samples": "int"},
    ),
    "delta_direct": ("voronoi", lambda: dict(spec=_voronoi_spec(), x=100.0), {"x": "float"}),
    "delta_bessel": ("voronoi", lambda: dict(spec=_voronoi_spec(), x=100.0, plan=_plan()), {"x": "float"}),
    "delta_asymptotic": ("voronoi", lambda: dict(spec=_voronoi_spec(), x=100.0, plan=_plan()), {"x": "float"}),
    "delta_mean_square": ("voronoi", lambda: dict(spec=_voronoi_spec(), u=16.0), {"u": "float"}),
    "truncation_plan": (
        "voronoi", lambda: dict(spec=_voronoi_spec(), x_range=(40.0, 400.0), n_terms=200),
        {"x_range": "floats", "n_terms": "int"},
    ),
}


#: Arguments valid alone whose refusal names the argument that bounds them
#: jointly: integrate_adaptive's initial panels are its width policy over
#: [a, b], and the panel-budget refusal names the policy and the interval.
_JOINT = {("integrate_adaptive", "b"): "initial_width"}


def _placed(kind: str, valid, bad):
    """``bad`` in each place of a valid argument of ``kind``."""
    if kind in ("float", "int"):
        return [bad]
    if kind == "complex":
        return [complex(bad, valid.imag), complex(valid.real, bad)]
    values = list(valid)
    placed = [tuple(values[:i] + [bad] + values[i + 1 :]) for i in range(len(values))]
    if kind == "floats":
        return placed
    return [np.array(p) for p in placed]  # int_array: nan, inf and 10**30 give another dtype


def _numbers(value) -> Iterator:
    """Every number held by a result: in arrays, containers and dataclass fields."""
    if isinstance(value, (bool, str)) or value is None:
        return
    if isinstance(value, (int, float, complex, np.number)):
        yield value
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "iufc":
            yield from value.ravel().tolist()
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)


def _finite(number) -> bool:
    return isinstance(number, int) or cmath.isfinite(complex(number))


def _call(func, kwargs: dict):
    result = func(**kwargs)
    return list(result) if isinstance(result, Iterator) else result


def _public_callables() -> set[str]:
    names = set()
    for module_name in _MODULES:
        module = importlib.import_module(f"zetastrip.{module_name}")
        names.update(name for name in module.__all__ if callable(getattr(module, name)))
    return names


def test_the_probe_table_covers_every_public_function_and_constructor():
    assert set(_ENTRIES) == _public_callables() - _RECORDS - _UNCHECKED


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_each_numeric_argument_returns_finite_or_is_refused_by_name(name):
    module_name, valid, numeric = _ENTRIES[name]
    func = getattr(importlib.import_module(f"zetastrip.{module_name}"), name)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call(func, valid())  # the valid arguments themselves run
        for arg, kind in numeric.items():
            for bad in _BAD_INTS if kind in ("int", "int_array") else _BAD_FLOATS:
                for value in _placed(kind, valid()[arg], bad):
                    kwargs = {**valid(), arg: value}
                    start = time.perf_counter()
                    try:
                        result = _call(func, kwargs)
                    except ValidationError as exc:
                        named = _JOINT.get((name, arg), arg)
                        if not re.search(rf"\b{re.escape(arg)}\b|\b{re.escape(named)}\b", str(exc)):
                            failures.append(f"{arg}={value!r}: refused without its name: {exc}")
                    except Exception as exc:  # noqa: BLE001 - every other outcome is a failure
                        failures.append(f"{arg}={value!r}: {type(exc).__name__}: {exc}")
                    else:
                        if not all(_finite(number) for number in _numbers(result)):
                            failures.append(f"{arg}={value!r}: returned a non-finite number")
                    seconds = time.perf_counter() - start
                    if seconds > _CALL_SECONDS:
                        failures.append(f"{arg}={value!r}: took {seconds:.2f} s")
    assert failures == []
