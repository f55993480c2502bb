"""Brute-force and identity tests for the arithmetic helpers."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from zetastrip.arithmetic import (
    DirichletPolynomial,
    divisor_sigma_range,
    pair_data,
    unit_phase,
)
from zetastrip.errors import ValidationError


def test_pair_data_identities():
    rng = random.Random(20260823)
    for _ in range(300):
        k = rng.randint(1, 400)
        l = rng.randint(1, 400)
        pd = pair_data(k, l)
        assert pd.gcd == math.gcd(k, l)
        assert pd.lcm == k * l // math.gcd(k, l)
        assert pd.kappa * pd.gcd == k and pd.lam * pd.gcd == l
        assert math.gcd(pd.kappa, pd.lam) == 1
        if pd.lam == 1:
            assert pd.kappa_bar == 0
        else:
            assert 0 <= pd.kappa_bar < pd.lam
            assert (pd.kappa * pd.kappa_bar) % pd.lam == 1
    with pytest.raises(ValidationError):
        pair_data(0, 3)


def _divisor_sigma(a: float, n: int) -> float:
    """Scalar reference: sum of d**a over the divisors d of n."""
    return sum(float(d) ** a for d in range(1, n + 1) if n % d == 0)


def test_divisor_sigma_brute_force():
    rng = random.Random(7)
    for a in (-0.2, -0.45, 0.0, 0.3):
        vec = divisor_sigma_range(a, 3000)
        for _ in range(40):
            n = rng.randint(1, 3000)
            assert vec[n - 1] == pytest.approx(_divisor_sigma(a, n), rel=1e-13)
    assert divisor_sigma_range(0.0, 12)[11] == 6.0  # number of divisors


def test_divisor_sigma_range_matches_scalar():
    for a in (-0.2, -0.49, 0.0):
        vec = divisor_sigma_range(a, 500)
        assert vec.shape == (500,)
        assert not vec.flags.writeable
        for n in (1, 2, 17, 360, 499, 500):
            assert vec[n - 1] == pytest.approx(_divisor_sigma(a, n), rel=1e-13)
    with pytest.raises(ValidationError):
        divisor_sigma_range(-0.2, 0)


def test_unit_phase_exactness():
    # Large numerators must not lose phase accuracy: reduction is integer-exact.
    big = 3**40 + 1
    k = 7
    direct = unit_phase(big, k)
    reduced = unit_phase(big % k, k)
    assert direct == reduced
    assert abs(unit_phase(k, k) - 1.0) < 1e-15
    arr = unit_phase(np.arange(14), 7)
    assert arr.shape == (14,)
    assert np.allclose(arr[:7], arr[7:], atol=1e-15)
    with pytest.raises(ValidationError):
        unit_phase(3, 0)


def test_dirichlet_polynomial_evaluate():
    poly = DirichletPolynomial((1.0, 0.5 + 0.25j, -0.75))
    assert poly.length == 3
    assert poly.coefficient(2) == 0.5 + 0.25j
    assert poly.coefficient(9) == 0.0
    sigma, t = 0.4, 13.7
    expected = sum(
        poly.coefficient(m) * m**-sigma * complex(math.cos(t * math.log(m)), -math.sin(t * math.log(m)))
        for m in (1, 2, 3)
    )
    assert poly.evaluate(sigma, t) == pytest.approx(expected, rel=1e-13)
    values = poly.evaluate(sigma, np.array([0.0, t]))
    assert values.shape == (2,)
    assert values[1] == pytest.approx(expected, rel=1e-13)
    assert values[0] == pytest.approx(sum(poly.coefficient(m) * m**-sigma for m in (1, 2, 3)))
    with pytest.raises(ValidationError):
        DirichletPolynomial(())
