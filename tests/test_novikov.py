"""Series ring arithmetic: construction, valuation, inversion, exponential."""

import math
import random
from fractions import Fraction

import pytest

from toric_fiber_lab import (
    NegativeValuation,
    NotAUnit,
    SchemaError,
    TruncationMismatch,
    constant_series,
    monomial,
    nov_close,
    nov_exp,
    nov_inverse,
    nov_mul,
    nov_pow,
    one,
    series,
    series_from_json,
    series_to_json,
    val,
    zero_series,
)
from toric_fiber_lab.novikov import INF, monomial_eval
from test_properties import MIXED_STEPS, _random_series

F = Fraction


def test_val_of_zero_is_infinite():
    assert val(zero_series(3)) == INF


def test_val_reads_smallest_exponent():
    s = series([(0, 3.0), (F(1, 2), 1.0)], 3)
    assert val(s) == 0
    assert val(monomial(2.0, F(5, 3), 3)) == F(5, 3)


def test_series_merges_and_prunes():
    s = series([(F(1, 2), 1.0), (F(1, 2), -1.0), (1, 2.0)], 3)
    assert s.terms == ((F(1), 2.0 + 0j),)


def test_series_rejects_negative_exponents():
    with pytest.raises(NegativeValuation):
        series([(F(-1, 2), 1.0)], 3)


def test_mul_truncates():
    a = series([(0, 1.0), (1, 1.0)], 2)
    b = series([(0, 1.0), (1, -1.0)], 2)
    assert nov_mul(a, b).terms == ((F(0), 1.0 + 0j),)  # the q^2 term falls away
    q = monomial(1.0, 1, F(3, 2))
    assert nov_mul(q, q).is_zero()
    assert nov_mul(monomial(1.0, F(1, 2), 2), monomial(1.0, F(3, 4), 2)).terms == (
        (F(5, 4), 1.0 + 0j),
    )


def test_mul_requires_matching_truncation():
    with pytest.raises(TruncationMismatch):
        nov_mul(one(2), one(3))


def test_inverse_of_constant():
    assert nov_inverse(constant_series(2.0, 3)).terms == ((F(0), 0.5 + 0j),)


def test_inverse_geometric_series():
    a = series([(0, 1.0), (1, -1.0)], 3)
    inv = nov_inverse(a)
    assert inv.terms == ((F(0), 1 + 0j), (F(1), 1 + 0j), (F(2), 1 + 0j))
    assert nov_mul(a, inv).terms == ((F(0), 1 + 0j),)


def _geometric_inverse(a):
    """Reference: 1/a0 * sum_k (-tail)^k with tail = (a - a0)/a0, one product per power."""
    a0 = a.leading()
    tail = (a - constant_series(a0, a.truncation)) * (1.0 / a0)
    acc = one(a.truncation)
    power = one(a.truncation)
    while True:
        power = power * (-tail)
        if power.is_zero():
            return acc * (1.0 / a0)
        acc = acc + power


def test_inverse_matches_geometric_series():
    rng = random.Random(3)
    cases = [
        series([(0, 2.0), (F(1, 2), -1.0), (F(1, 3), 1 + 1j), (F(2, 5), 0.5)], 3),
        series([(0, -1j), (F(3, 4), 0.25)], F(7, 2)),
    ] + [_random_series(rng, F(3), True, steps=MIXED_STEPS) for _ in range(100)]
    for a in cases:
        got, ref = nov_inverse(a), _geometric_inverse(a)
        assert [e for e, _ in got.terms] == [e for e, _ in ref.terms]
        for (_, c), (_, d) in zip(got.terms, ref.terms):
            assert abs(c - d) <= 1e-12 * abs(d)


def test_inverse_requires_unit():
    with pytest.raises(NotAUnit):
        nov_inverse(monomial(1.0, F(1, 2), 3))
    with pytest.raises(NotAUnit):
        nov_inverse(zero_series(3))


def test_exp_of_zero_and_constant():
    assert nov_exp(zero_series(4)).terms == ((F(0), 1 + 0j),)
    e = nov_exp(constant_series(1j * math.pi, 4))
    assert abs(e.coefficient(0) - (-1)) < 1e-12
    assert len(e.terms) == 1


def test_exp_taylor_series():
    c, d = 2.0, F(1, 2)
    s = nov_exp(monomial(c, d, 2))
    # 1 + c q^d + c^2 q^{2d}/2 + c^3 q^{3d}/6, nothing at exponent >= 2
    assert abs(s.coefficient(0) - 1) < 1e-12
    assert abs(s.coefficient(d) - c) < 1e-12
    assert abs(s.coefficient(2 * d) - c * c / 2) < 1e-12
    assert abs(s.coefficient(3 * d) - c**3 / 6) < 1e-12
    assert val(s) == 0 and max(e for e, _ in s.terms) < 2


def test_exp_negative_valuation_guarded():
    # the canonical constructor refuses negative exponents, so smuggle one in
    # through the raw dataclass to exercise the exp-side guard
    from toric_fiber_lab import NovikovSeries

    bad = NovikovSeries(((F(-1), 1.0 + 0j),), F(2))
    with pytest.raises(NegativeValuation):
        nov_exp(bad)


def test_monomial_eval_unit_inverses():
    z = (constant_series(2.0, 3),)
    assert monomial_eval(z, (-1,)).terms == ((F(0), 0.5 + 0j),)
    z2 = (constant_series(-1.0, 3), constant_series(-1.0, 3))
    assert monomial_eval(z2, (-1, -1)).terms == ((F(0), 1 + 0j),)
    zq = (monomial(1.0, F(1, 2), 3),)
    assert monomial_eval(zq, (1,)).terms == ((F(1, 2), 1 + 0j),)


def test_pow_matches_repeated_mul():
    a = series([(0, 1.5), (F(1, 3), -0.5)], 2)
    assert nov_close(nov_pow(a, 3), nov_mul(nov_mul(a, a), a))
    assert nov_close(nov_mul(nov_pow(a, -2), nov_pow(a, 2)), one(2), 1e-9)


def test_shift_and_retruncate():
    s = monomial(1.0, 1, 4).shift(F(1, 2))
    assert s.terms == ((F(3, 2), 1 + 0j),)
    assert s.retruncate(1).is_zero()


def test_evaluate_numeric():
    s = series([(0, 2.0), (F(1, 2), 1.0)], 3)
    assert abs(s.evaluate(0.25) - 2.5) < 1e-12


def test_json_roundtrip():
    s = series([(F(1, 2), 1.0 + 2.0j), (F(3, 4), -1.0)], 2)
    back = series_from_json(series_to_json(s), 2)
    assert back.terms == s.terms
    assert series_from_json(3, 2).terms == ((F(0), 3 + 0j),)
    assert series_from_json({"re": 0.0, "im": 1.0}, 2).coefficient(0) == 1j


@pytest.mark.parametrize("obj", [[{"re": 1}], [1, 2], [{"exp": "x"}], None, {"re": None}])
def test_series_from_json_rejects_malformed_series(obj):
    with pytest.raises(SchemaError):
        series_from_json(obj, 2)
