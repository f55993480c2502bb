"""Brute-force and identity tests for the arithmetic helpers."""

from __future__ import annotations

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import zetastrip.arithmetic as arithmetic_module
from zetastrip import special
from zetastrip.arithmetic import (
    DirichletPolynomial,
    coefficient_pairs,
    divisor_sigma_range,
    fsum_complex,
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


def test_coefficient_pairs_skip_zeros_in_order():
    A = DirichletPolynomial((2.0, 0.0, 1.0 - 1.0j))
    pairs = list(coefficient_pairs(A))
    assert [(pd.k, pd.l) for _, pd in pairs] == [(1, 1), (1, 3), (3, 1), (3, 3)]
    assert [product for product, _ in pairs] == [4.0, 2.0 + 2.0j, 2.0 - 2.0j, 2.0]
    assert pairs[1][1] == pair_data(1, 3)
    assert fsum_complex(product for product, _ in pairs) == 10.0
    assert fsum_complex([1e16 + 1j, 1.0 - 1e16j, -1e16 + 1e16j]) == 1.0 + 1.0j


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


@pytest.mark.parametrize("lengths", [(1000, 4097), (4097, 1000), (7, 123457)])
def test_divisor_sigma_range_prefix_views_match_a_fresh_sieve(monkeypatch, lengths):
    # One sieve per exponent serves every length: a prefix view must have the
    # bits of a sieve of exactly that length, whichever length came first.
    a = -0.3

    def fresh(n_max: int) -> np.ndarray:
        monkeypatch.setattr(arithmetic_module, "_sigma_sieves", {})
        return divisor_sigma_range(a, n_max).copy()

    expected = {n: fresh(n) for n in lengths}
    monkeypatch.setattr(arithmetic_module, "_sigma_sieves", {})
    views = {n: divisor_sigma_range(a, n) for n in lengths}
    views[lengths[0]] = divisor_sigma_range(a, lengths[0])  # again, after the other
    for n, view in views.items():
        assert view.shape == (n,)
        assert not view.flags.writeable
        assert view.tobytes() == expected[n].tobytes()
    for n in (1, 7, 1000, min(max(lengths), 4097)):
        assert views[max(lengths)][n - 1] == _divisor_sigma(a, n)  # bitwise: same order of additions


def test_divisor_sigma_range_is_shared_by_threads(monkeypatch):
    # Scenario threads of a suite share the sieve cache.  A thread that read
    # a short sieve may finish its own after another thread published a
    # longer one: every view must still have the bits of a fresh sieve, and
    # the longer sieve must stay cached.  Each round has a few such overlaps.
    a = -0.3
    lengths = [3_000, 12_345, 2_000, 1_000, 10_000, 10_000, 10_000]

    def fresh(n_max: int) -> bytes:
        monkeypatch.setattr(arithmetic_module, "_sigma_sieves", {})
        return divisor_sigma_range(a, n_max).tobytes()

    expected = {n: fresh(n) for n in set(lengths)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            monkeypatch.setattr(arithmetic_module, "_sigma_sieves", {})
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(divisor_sigma_range, a, n) for n in lengths]
                views = [future.result(timeout=60) for future in futures]
            for n, view in zip(lengths, views):
                assert view.tobytes() == expected[n], n
            assert arithmetic_module._sigma_sieves[a].size >= max(lengths)
    finally:
        sys.setswitchinterval(interval)


def test_unit_phase_exactness():
    # Large numerators must not lose phase accuracy: reduction is integer-exact.
    big = np.array([3**39 + 1], dtype=np.int64)
    k = 7
    direct = unit_phase(big, k)
    reduced = unit_phase(big % k, k)
    assert np.array_equal(direct, reduced)
    assert abs(unit_phase(np.array([k]), k)[0] - 1.0) < 1e-15
    arr = unit_phase(np.arange(14), 7)
    assert arr.shape == (14,)
    assert np.allclose(arr[:7], arr[7:], atol=1e-15)
    with pytest.raises(ValidationError):
        unit_phase(np.arange(3), 0)


def test_unit_phase_table_bit_identical_to_the_elementwise_exp():
    # The former body: one exp per element of the reduced numerators.
    rng = np.random.default_rng(20261018)
    for modulus in range(1, 65):
        for numerators in (
            np.arange(-3 * modulus, 3 * modulus + 1, dtype=np.int64),
            rng.integers(-(2**40), 2**40, 4000, dtype=np.int64),
            rng.integers(2**31, 2**62, 3, dtype=np.int64),
        ):
            expected = np.exp((2j * np.pi / modulus) * np.mod(numerators, modulus))
            got = unit_phase(numerators, modulus)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), modulus


def test_dirichlet_polynomial_evaluate():
    poly = DirichletPolynomial((1.0, 0.5 + 0.25j, -0.75))
    assert poly.length == 3
    assert poly.coefficients[1] == 0.5 + 0.25j
    sigma, t = 0.4, 13.7
    expected = sum(
        poly.coefficients[m - 1] * m**-sigma * complex(math.cos(t * math.log(m)), -math.sin(t * math.log(m)))
        for m in (1, 2, 3)
    )
    values = poly.evaluate(sigma, np.array([0.0, t]))
    assert values.shape == (2,)
    assert values[1] == pytest.approx(expected, rel=1e-13)
    assert values[0] == pytest.approx(sum(poly.coefficients[m - 1] * m**-sigma for m in (1, 2, 3)))
    with pytest.raises(ValidationError):
        DirichletPolynomial(())


def _evaluate_one_product(poly: DirichletPolynomial, sigma: float, t):
    """``A(sigma + i t)`` as one ``exp`` outer product over all of ``t``.

    This is ``evaluate`` before it called ``special.dirichlet_sum``; the
    library must reproduce its bits.
    """
    m = np.arange(1, poly.length + 1, dtype=np.float64)
    log_m = np.log(m)
    amp = poly.as_array() * m ** (-sigma)
    phases = np.exp(-1j * np.multiply.outer(t, log_m))
    return phases @ amp


_rng = np.random.default_rng(20261018)
# ``evaluate`` takes the 1-d batch the quadrature passes; each input below is
# flattened to one (a scalar or 0-d input to a one-point batch).
_EVALUATE_INPUTS = {
    "scalar": 1234.5,
    "zero_d": np.array(17.25),
    "empty": np.array([]),
    # 65 rows: the one-row tail joins the block before it.
    "tail_of_one_row": _rng.uniform(0.0, 2000.0, 65),
    # 130 rows in three row blocks, so two threads share them.
    "two_d": _rng.uniform(0.0, 2000.0, (10, 13)),
    # A quadrature batch: one block of all rows at M <= 2, 1 024-row blocks at M = 16.
    "quadrature_batch": _rng.uniform(0.0, 2000.0, 7680),
    # One row past eight 1 024-row blocks: it joins the last of them.
    "tail_of_one_row_after_long_blocks": _rng.uniform(-50.0, 2000.0, 8 * 1024 + 1),
}


@pytest.mark.parametrize("name", sorted(_EVALUATE_INPUTS))
@pytest.mark.parametrize("length", [1, 2, 5, 16])
def test_evaluate_bit_identical_to_one_product(name, length, monkeypatch):
    t = np.ravel(_EVALUATE_INPUTS[name]).astype(np.float64)
    real = _rng.normal(size=length)
    for coefficients in (real, real + 1j * _rng.normal(size=length)):
        poly = DirichletPolynomial(tuple(coefficients))
        for sigma in (0.3, 0.45):
            expected = _evaluate_one_product(poly, sigma, t)
            for threads in (1, 2):
                monkeypatch.setattr(special, "usable_cpus", lambda threads=threads: threads)
                got = poly.evaluate(sigma, t)
                assert got.shape == expected.shape == t.shape
                bits = [v.view(np.uint64) for v in (got, expected)]
                assert np.array_equal(*bits), f"sigma={sigma}, threads={threads}"
