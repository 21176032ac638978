"""Series ring arithmetic: construction, valuation, inversion, exponential."""

import cmath
import heapq
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from toric_fiber_lab import (
    NegativeValuation,
    NotAUnit,
    SchemaError,
    TruncationMismatch,
    constant_series,
    monomial,
    nov_exp,
    nov_inverse,
    nov_pow,
    one,
    series,
    series_from_json,
    series_to_json,
    val,
)
import toric_fiber_lab.novikov as novikov_mod
from toric_fiber_lab.novikov import INF, _shifted, _weighted_sums
from test_properties import MIXED_STEPS, _random_series
from conftest import nov_close, zero_series

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
    assert (a * b).terms == ((F(0), 1.0 + 0j),)  # the q^2 term falls away
    q = monomial(1.0, 1, F(3, 2))
    assert (q * q).is_zero()
    assert (monomial(1.0, F(1, 2), 2) * monomial(1.0, F(3, 4), 2)).terms == (
        (F(5, 4), 1.0 + 0j),
    )


def test_mul_requires_matching_truncation():
    with pytest.raises(TruncationMismatch):
        one(2) * one(3)


def test_inverse_of_constant():
    assert nov_inverse(constant_series(2.0, 3)).terms == ((F(0), 0.5 + 0j),)


def test_inverse_geometric_series():
    a = series([(0, 1.0), (1, -1.0)], 3)
    inv = nov_inverse(a)
    assert inv.terms == ((F(0), 1 + 0j), (F(1), 1 + 0j), (F(2), 1 + 0j))
    assert (a * inv).terms == ((F(0), 1 + 0j),)


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


def test_raw_series_needs_strictly_increasing_exponents():
    # the arithmetic reads the raw terms in order, so an unsorted or repeated
    # exponent would lose terms in a product
    from toric_fiber_lab import NovikovSeries

    for terms in [((F(1), 1.0), (F(0), 2.0)), ((F(0), 1.0), (F(0), 2.0))]:
        with pytest.raises(ValueError, match="strictly increasing"):
            NovikovSeries(terms, F(2))


def test_monomial_eval_unit_inverses():
    # a Laurent monomial is a product of powers nov_pow(z_j, v_j), negative ones through the inverse
    assert nov_pow(constant_series(2.0, 3), -1).terms == ((F(0), 0.5 + 0j),)
    minus = constant_series(-1.0, 3)
    assert (nov_pow(minus, -1) * nov_pow(minus, -1)).terms == ((F(0), 1 + 0j),)
    assert nov_pow(monomial(1.0, F(1, 2), 3), 1).terms == ((F(1, 2), 1 + 0j),)


def test_pow_matches_repeated_mul():
    a = series([(0, 1.5), (F(1, 3), -0.5)], 2)
    assert nov_close(nov_pow(a, 3), a * a * a)
    assert nov_close(nov_pow(a, -2) * nov_pow(a, 2), one(2), 1e-9)
    assert nov_pow(a, 0) == one(2)


def test_str_writes_each_term_with_its_exponent():
    assert str(zero_series(3)) == "0"
    assert str(constant_series(2.0, 3)) == "2"
    assert str(constant_series(1 - 0.5j, 3)) == "(1-0.5i)"
    assert str(series([(0, 1.5), (F(1, 3), -0.5 + 2j)], 2)) == "1.5 + (-0.5+2i)*q^1/3"


def test_shift_and_retruncate():
    m = monomial(1.0, 1, 4)
    s = _shifted(m, F(1, 2))
    assert s.terms == ((F(3, 2), 1 + 0j),)
    assert s.retruncate(1).is_zero()


def test_json_roundtrip():
    s = series([(F(1, 2), 1.0 + 2.0j), (F(3, 4), -1.0)], 2)
    back = series_from_json(series_to_json(s), 2)
    assert back.terms == s.terms
    assert series_from_json(3, 2).terms == ((F(0), 3 + 0j),)
    assert series_from_json({"re": 0.0, "im": 1.0}, 2).coefficient(0) == 1j


@pytest.mark.parametrize(
    "obj",
    [
        [{"re": 1}],
        [1, 2],
        [{"exp": "x"}],
        None,
        {"re": None},
        # json.load accepts NaN and Infinity; a non-finite coefficient is malformed too
        [{"exp": "0", "re": math.nan}],
        [{"exp": "1/2", "re": 1.0}, {"exp": "1", "im": -math.inf}],
        math.inf,
        {"re": 0.0, "im": math.nan},
        # JSON booleans are no numbers, and a bare object carries no exponent
        True,
        {"re": True},
        [{"exp": "0", "im": False}],
        {"exp": "1/2", "re": 1.0},
    ],
)
def test_series_from_json_rejects_malformed_series(obj):
    with pytest.raises(SchemaError):
        series_from_json(obj, 2)


def test_non_finite_residual_is_not_zero():
    # abs(nan) < PRUNE_THRESHOLD is False, so inf - inf stays as a NaN term
    s = series([(0, complex(math.inf, 1.0)), (F(1, 2), 1.0)], 2)
    r = s - s
    assert not r.is_zero()
    assert [e for e, _ in r.terms] == [F(0)] and cmath.isnan(r.coefficient(0))
    assert not series([(F(1, 3), math.nan)], 1).is_zero()


# -- grid arithmetic against a Fraction-keyed reference --------------------------
#
# The reference keys plain dicts by Fraction and runs each operation's loops in
# the order the integer-grid series layer runs them, so the coefficients must
# agree bit for bit, signs of zero included.


def _ref(pairs, D):
    acc = {}
    for e, c in pairs:
        if e < 0:
            raise NegativeValuation(f"exponent {e} < 0")
        acc[e] = acc.get(e, 0j) + complex(c)
    return sorted((e, c) for e, c in acc.items() if e < D and not abs(c) < 1e-12)


def _ref_add(a, b, D):
    acc = dict(a)
    for e, c in b:
        acc[e] = acc.get(e, 0j) + c
    return _ref(acc.items(), D)


def _ref_mul(a, b, D):
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            if ea + eb < D:
                acc[ea + eb] = acc.get(ea + eb, 0j) + ca * cb
    return _ref(acc.items(), D)


def _ref_inverse(a, D):
    inv0, tail, b = 1.0 / a[0][1], a[1:], {}
    heap, queued = [F(0)], {F(0)}
    while heap:
        e = heapq.heappop(heap)
        acc = 0j
        for t, c in tail:
            if t > e:
                break
            acc += c * b.get(e - t, 0j)
        b[e] = inv0 if e == 0 else -inv0 * acc
        for t, _ in tail:
            if e + t < D and e + t not in queued:
                queued.add(e + t)
                heapq.heappush(heap, e + t)
    return _ref(b.items(), D)


def _ref_pow(a, k, D):
    if k < 0:
        return _ref_pow(_ref_inverse(a, D), -k, D)
    acc = a if k else [(F(0), 1 + 0j)]
    for _ in range(k - 1):
        acc = _ref_mul(acc, a, D)
    return acc


def _bits(terms):
    """Exponents and coefficient parts with their signs, so -0.0 != 0.0."""
    return [
        (e, c.real, c.imag, math.copysign(1, c.real), math.copysign(1, c.imag))
        for e, c in terms
    ]


def _same(s, ref_terms):
    assert _bits(s.terms) == _bits(ref_terms)


GRID_CASES = [
    # (truncation, steps of the left operand, steps of the right operand)
    (F(3), MIXED_STEPS, MIXED_STEPS),
    (F(2), (F(1, 8),), (F(1, 8),)),
    (F(3), (F(1, 2),), (F(1, 3),)),  # dens 2 and 3 meet on the grid 1/6
    (F(5, 2), (F(1, 8),), (F(1, 3),)),
]


@pytest.mark.parametrize("D, left, right", GRID_CASES)
def test_grid_arithmetic_is_the_fraction_arithmetic(D, left, right):
    rng = random.Random(7)
    for _ in range(150):
        a = _random_series(rng, D, unit=rng.random() < 0.5, steps=left)
        b = _random_series(rng, D, unit=rng.random() < 0.5, steps=right)
        if rng.random() < 0.5:  # real and imaginary coefficients put exact zeros in play
            a = series([(e, c.real) for e, c in a.terms], D)
            b = series([(e, complex(0.0, c.imag)) for e, c in b.terms], D)
        ta, tb = list(a.terms), list(b.terms)
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _same(a + b, _ref_add(ta, tb, D))
        _same(a - b, _ref_add(ta, [(e, -c) for e, c in tb], D))
        _same(a * b, _ref_mul(ta, tb, D))
        _same(a * s, _ref(((e, c * s) for e, c in ta), D))
        _same(-1.5 * b, _ref(((e, c * -1.5) for e, c in tb), D))
        for d in (F(1, 3), F(3, 8), F(-1, 4)) + ((-val(a),) if ta else ()):
            if ta and ta[0][0] + d < 0:
                with pytest.raises(NegativeValuation):
                    _shifted(a, d)
            else:
                _same(_shifted(a, d), _ref(((e + d, c) for e, c in ta), D))
        for D2 in (D / 2, D + F(1, 5)):
            _same(a.retruncate(D2), _ref(ta, D2))
        weights = (2, 0, -3)
        ref = _ref([(e, c * float(w)) for w, t in zip(weights, (ta, tb, ta)) if w for e, c in t], D)
        pairs = [(i, float(w)) for i, w in enumerate(weights) if w]
        # rows of different shifts: 6/7's denominator 7 divides no grid of tv, whose
        # last two series have valuation at least 1
        tv = (a, b, a, _shifted(a, F(1)), _shifted(b, F(1)))
        m = F(6, 7)
        got = _weighted_sums([(pairs, 0), ([(3, -0.5), (4, 1.5)], m)], tv, F(D))
        _same(got[0], ref)
        _same(got[1], _ref([(e - m, c * w) for w, s in ((-0.5, tv[3]), (1.5, tv[4]))
                            for e, c in s.terms], D))
        assert got[0]._den == got[1]._den and got[0]._den % 7 == 0


@pytest.mark.parametrize("D, left, right", GRID_CASES)
def test_grid_inverse_and_powers_are_the_fraction_arithmetic(D, left, right):
    rng = random.Random(8)
    for _ in range(60):
        u = _random_series(rng, D, unit=True, steps=left)
        w = _random_series(rng, D, unit=True, steps=right)
        tu, tw = list(u.terms), list(w.terms)
        _same(nov_inverse(u), _ref_inverse(tu, D))
        for k in (-2, -1, 2, 3):
            _same(nov_pow(u, k), _ref_pow(tu, k, D))
        for v in ((1, -1), (-2, 1), (0, 2)):
            pu, pw = _ref_pow(tu, v[0], D), _ref_pow(tw, v[1], D)
            got = nov_pow(u, v[0]) * nov_pow(w, v[1]) if v[0] else nov_pow(w, v[1])
            _same(got, _ref_mul(pu, pw, D) if v[0] else pw)


def test_equal_series_on_different_grids_compare_and_hash_equal():
    rng = random.Random(9)
    D = F(3)
    third = monomial(1.0, F(1, 3), D)
    for _ in range(50):
        a = _random_series(rng, D, unit=True, steps=(F(1, 2),))
        a6 = a + (third - third)  # the zero series on the grid 1/3 moves a to a finer grid
        assert a6._den % 3 == 0 and a._den % 3 != 0
        assert a6 == a and hash(a6) == hash(a) and a6.terms == a.terms
        assert a6 != a * 2.0 and a6 != a.retruncate(F(5, 2))
    # a series never equals what is not a series, even one holding its terms
    assert a.__eq__(a.terms) is NotImplemented and a != a.terms and one(D) != 1


def test_grid_truncation_mismatch_still_raises():
    a = series([(0, 1.0), (F(1, 2), 2.0)], F(3, 2))
    b = series([(0, 1.0), (F(1, 4), 2.0)], F(7, 4))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(TruncationMismatch, match="3/2 and 7/4|7/4 and 3/2"):
            op()


# -- constant series on the grid ---------------------------------------------------


def _grid_bytes(s):
    """The stored grid of s, with every coefficient as its exact float bytes."""
    assert all(type(c) is complex for _, c in s._items)
    return s._den, s._top, [(k, struct.pack("dd", c.real, c.imag)) for k, c in s._items]


@pytest.mark.parametrize("c", [1, -0.0 - 0.0j, 1e-13, complex("nan+nanj"), np.complex128(0.5 - 2j)],
                         ids=["one", "negative-zero", "pruned", "nan", "numpy"])
@pytest.mark.parametrize("D", [Fraction(7, 3), 5, "7/2"], ids=["Fraction", "int", "str"])
def test_grid_constructors_match_the_canonical_constructor(c, D):
    assert _grid_bytes(constant_series(c, D)) == _grid_bytes(series(((Fraction(0), c),), D))
    assert _grid_bytes(zero_series(D)) == _grid_bytes(series((), D))
    assert _grid_bytes(one(D)) == _grid_bytes(series(((0, 1.0),), D))
    assert constant_series(c, D).terms == series(((0, c),), D).terms or c != c


@pytest.mark.parametrize("D", [0, Fraction(-1, 2), "-3"])
def test_grid_constructors_reject_a_nonpositive_truncation(D):
    for build in (lambda: constant_series(1.0, D), lambda: zero_series(D), lambda: one(D)):
        with pytest.raises(ValueError, match="truncation order must be positive"):
            build()
    with pytest.raises(ValueError):
        series(((0, 1.0),), D)


def test_integer_coefficient_lookup_builds_no_fraction(monkeypatch):
    s = series(((0, 2.0), (Fraction(1, 3), 3.0), (1, 5.0), (Fraction(5, 2), 7.0)), 4)
    expected = [s.coefficient(Fraction(e)) for e in range(4)]
    assert expected == [2.0, 5.0, 0j, 0j]

    def refuse(x):
        raise AssertionError("an int exponent needs no Fraction")

    monkeypatch.setattr(novikov_mod, "_frac", refuse)
    assert [s.coefficient(e) for e in range(4)] == expected
