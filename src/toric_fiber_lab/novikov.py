"""Truncated power series in one formal variable q with rational exponents.

Elements are finite sums sum_k c_k * q^{e_k} with complex coefficients c_k and
exact rational exponents 0 <= e_k < D, where D is the truncation order carried
by every series.  All arithmetic discards exponents >= D, so a series stands
for an element of the valuation ring known up to q^D.  Exponent bookkeeping is
exact; coefficients are complex floats.

Storage is an exact integer grid: each exponent e is the key e * den and D is
top = D * den, den a common denominator, and operands on different grids are
aligned to the lcm of their dens.  .terms is a (Fraction, complex) view built on
first read.  Only abs(c) < PRUNE_THRESHOLD prunes a coefficient, so a non-finite
one is kept and a NaN residual never reads as zero; a coefficient with finite
parts whose modulus is above the largest float raises OverflowError in abs.

The arithmetic lives in kernels on the sorted (key, coefficient) items of one
grid, with one prune rule (_pruned) and one product loop (_product), which
every operator shares.  No other module reads the grid; the potential's
term lists use _shifted and _weighted_sums, and every derived series, a
fiber's lift starts included (_constant_sums), comes from one row loop
(_row_sums).

A unit a = a_0 + (terms of positive exponent) is inverted in one pass over
the exponents of its inverse, which lie in the monoid generated by the
positive exponents of a (see nov_inverse).
"""

from __future__ import annotations

import cmath
import heapq
import math
from fractions import Fraction
from functools import cached_property, reduce

from .errors import NegativeValuation, NotAUnit, SchemaError, TruncationMismatch

PRUNE_THRESHOLD = 1e-12
INF = float("inf")

RationalLike = Fraction | int | str


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class NovikovSeries:
    """Finite sorted term list (exponent, coefficient) truncated at exponent < truncation."""

    def __init__(self, terms, truncation: RationalLike) -> None:
        D, self.terms = _frac(truncation), tuple((_frac(e), c) for e, c in terms)
        if D <= 0:
            raise ValueError("truncation order must be positive")
        if any(a >= b for (a, _), (b, _) in zip(self.terms, self.terms[1:])):
            raise ValueError("exponents must be strictly increasing")
        self._den = math.lcm(D.denominator, *(e.denominator for e, _ in self.terms))
        self._items = [(e.numerator * (self._den // e.denominator), c) for e, c in self.terms]
        self._top = D.numerator * (self._den // D.denominator)

    @cached_property
    def terms(self) -> tuple[tuple[Fraction, complex], ...]:
        return tuple((Fraction(k, self._den), c) for k, c in self._items)

    @cached_property
    def truncation(self) -> Fraction:
        return Fraction(self._top, self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        if self._den == other._den:
            return self._top == other._top and self._items == other._items
        return self.truncation == other.truncation and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms, self.truncation))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        a, b, den, top = _aligned(self, other)
        return _wrap(_sum(a, b), den, top)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-other)

    def __neg__(self) -> "NovikovSeries":
        return _wrap(_negated(self._items), self._den, self._top)

    def __mul__(self, other):
        if not isinstance(other, NovikovSeries):
            return _wrap(_scaled(self._items, other), self._den, self._top)
        a, b, den, top = _aligned(self, other)
        return _wrap(_product(a, b, top), den, top)

    __rmul__ = __mul__

    # -- accessors ----------------------------------------------------------

    def coefficient(self, exponent: RationalLike) -> complex:
        e = exponent if isinstance(exponent, int) else _frac(exponent)  # int: denominator 1
        k, off_grid = divmod(e.numerator * self._den, e.denominator)
        return 0j if off_grid else next((c for ki, c in self._items if ki == k), 0j)

    def is_zero(self) -> bool:
        return not self._items

    def leading(self) -> complex:
        """Coefficient of the smallest stored exponent (0 for the zero series)."""
        return self._items[0][1] if self._items else 0j

    def retruncate(self, truncation: RationalLike) -> "NovikovSeries":
        return series(self.terms, truncation)

    def __str__(self) -> str:
        if not self._items:
            return "0"
        parts = []
        for e, c in self.terms:
            cs = f"({c.real:.6g}{c.imag:+.6g}i)" if c.imag else f"{c.real:.6g}"
            parts.append(cs if e == 0 else f"{cs}*q^{e}")
        return " + ".join(parts)


def _pruned(pairs) -> list:
    """The sorted items a series keeps of (key, c) pairs with distinct keys.

    The one prune rule: 0j + c fixes the sign of zero, and c is dropped when
    abs(c) < PRUNE_THRESHOLD, so a non-finite c is kept.
    """
    out = [(k, v) for k, c in pairs if not abs(v := 0j + c) < PRUNE_THRESHOLD]
    out.sort()
    return out


def _sum(a: list, b: list) -> list:
    """Items of a + b; an empty operand gives the other back, which _pruned would not change."""
    if not a or not b:
        return a or b
    acc = dict(a)
    for k, c in b:
        acc[k] = acc.get(k, 0j) + c
    return _pruned(acc.items())


def _negated(a: list) -> list:
    return _pruned([(k, -c) for k, c in a])


def _scaled(a: list, w) -> list:
    """Items of the series a times the scalar w."""
    return _pruned([(k, complex(c * w)) for k, c in a])


def _product(a: list, b: list, top: int) -> list:
    """Items of a * b truncated at top: each coefficient summed from 0j over (k_a, k_b) in order."""
    acc: dict[int, complex] = {}
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            if k >= top:
                break
            acc[k] = acc.get(k, 0j) + ca * cb
    return _pruned(acc.items())


def _wrap(items: list, den: int, top: int) -> NovikovSeries:
    """The series with these kept, sorted items on grid (den, top)."""
    s = object.__new__(NovikovSeries)
    s._items, s._den, s._top = items, den, top
    return s


def _shifted(s: NovikovSeries, d: Fraction, m=None) -> NovikovSeries:
    """s times the scalar m if given, times q^d.

    In one pass, bit for bit s * m with every exponent then moved up by d.
    """
    den = math.lcm(s._den, d.denominator)
    f, dk, top = den // s._den, d.numerator * (den // d.denominator), s._top * (den // s._den)
    out = _pruned([(k * f + dk, c if m is None else complex(c * m))
                   for k, c in s._items if k * f + dk < top])
    if out and out[0][0] < 0:
        raise NegativeValuation(f"exponent {Fraction(out[0][0], den)} < 0")
    return _wrap(out, den, top)


def _aligned(a: NovikovSeries, b: NovikovSeries):
    """(items of a, items of b, den, top) on the lcm of their grids, at once on a shared grid."""
    if a._den == b._den and a._top == b._top:
        return a._items, b._items, a._den, a._top
    den = math.lcm(a._den, b._den)
    fa, fb = den // a._den, den // b._den
    if a._top * fa != b._top * fb:
        raise TruncationMismatch(
            f"series truncated at {a.truncation} and {b.truncation} cannot be combined")
    return [(k * fa, c) for k, c in a._items], [(k * fb, c) for k, c in b._items], den, a._top * fa


def series(pairs, truncation: RationalLike) -> NovikovSeries:
    """Canonical constructor: merge equal exponents, prune, sort, truncate."""
    d = _frac(truncation)
    acc: dict[Fraction, complex] = {}
    for e, c in pairs:
        e = _frac(e)
        if e < 0:
            raise NegativeValuation(f"exponent {e} < 0")
        acc[e] = acc.get(e, 0j) + complex(c)
    return NovikovSeries(_pruned((e, c) for e, c in acc.items() if e < d), d)


def _weighted_sums(rows, tv, D: Fraction) -> list[NovikovSeries]:
    """q^(-m) * sum_i w * tv[i] over the (i, w) of weights, for each (weights, m) of rows.

    All results share one grid, the lcm of the denominators of D, of every m and of every tv[i].
    """
    den = math.lcm(D.denominator, *(m.denominator for _, m in rows), *(s._den for s in tv))
    top = D.numerator * (den // D.denominator)
    return _row_sums(rows, [(den // s._den, s._items) for s in tv], den, top)


def _row_sums(rows, scaled, den: int, top: int) -> list[NovikovSeries]:
    """_weighted_sums' row loop on grid (den, top): tv[i] has keys k * f, (f, items) = scaled[i].

    Each coefficient is summed from 0j in order and pruned once; moving the keys by m before that
    prune gives the bytes of pruning first and shifting after (m is at most each term's valuation).
    """
    out = []
    for weights, m in rows:
        dk, acc = m.numerator * (den // m.denominator), {}
        for i, w in weights:
            f, items = scaled[i]
            for k, c in items:
                k = k * f - dk
                acc[k] = acc.get(k, 0j) + c * w
        out.append(_wrap(_pruned(acc.items()), den, top))
    return out


def _kept(c: complex) -> complex:
    """c as _pruned keeps it (0j + c), or 0j where _pruned drops it; a kept c is never 0j."""
    return 0j if abs(v := 0j + c) < PRUNE_THRESHOLD else v


def _constant_sums(rows, parts, scalars, D: Fraction) -> list:
    """(_weighted_sums(rows, tv, D), value_from_terms(tv)) for the term list tv of each root.

    tv is term_values' at a constant point: with x = scalars[r][i] and (T, m, one) = parts[i] (tail
    times q^{l_i}, multiplier, tail is 1), each coefficient t of T gives _kept(_kept(t * x) * m),
    _kept(x * m) for a tail of 1, and a zero x no term.  The value is a running _sum.
    """
    den = math.lcm(D.denominator, *(m.denominator for _, m in rows), *(T._den for T, _, _ in parts))
    top, out = D.numerator * (den // D.denominator), []
    terms = [([(k * (den // T._den), t) for k, t in T._items], m, one) for T, m, one in parts]
    for xs in scalars:
        tv = [[(k, y) for k, t in items if (y := x and _kept((x if one else _kept(t * x)) * m))]
              for x, (items, m, one) in zip(xs, terms)]
        out.append((_row_sums(rows, [(1, items) for items in tv], den, top),
                    _wrap(reduce(_sum, tv), den, top)))
    return out


def constant_series(c: complex, truncation: RationalLike) -> NovikovSeries:
    """series(((0, c),), truncation), built directly on the grid of D's denominator."""
    D = _frac(truncation)
    if D <= 0:
        raise ValueError("truncation order must be positive")
    return _wrap(_pruned(((0, complex(c)),)), D.denominator, D.numerator)


def monomial(c: complex, exponent: RationalLike, truncation: RationalLike) -> NovikovSeries:
    return series(((_frac(exponent), c),), truncation)


def one(truncation: RationalLike) -> NovikovSeries:
    return constant_series(1.0, truncation)


def val(s: NovikovSeries) -> Fraction | float:
    """Smallest stored exponent; +inf for the zero series."""
    return Fraction(s._items[0][0], s._den) if s._items else INF


def nov_inverse(a: NovikovSeries) -> NovikovSeries:
    """Multiplicative inverse of a unit (valuation 0, nonzero leading coefficient).

    With a = a_0 + sum_{t in T} a_t q^t (T the positive exponents of a), the
    inverse b solves a * b = 1 one exponent at a time, in increasing order:
    b_0 = 1/a_0 and b_e = -(1/a_0) * sum_{t in T, t <= e} a_t * b_{e-t}.
    Its exponents are the elements below the truncation of the monoid
    generated by T, produced in increasing order by a heap (of grid keys).
    """
    if val(a) != 0 or abs(a.leading()) <= PRUNE_THRESHOLD:
        raise NotAUnit(f"series with valuation {val(a)} is not invertible")
    top, inv0, tail = a._top, 1.0 / a.leading(), a._items[1:]
    b, heap, queued = {}, [0], {0}  # b: grid key -> coefficient of the inverse
    while heap:
        e = heapq.heappop(heap)
        acc = 0j
        for t, c in tail:
            if t > e:
                break
            acc += c * b.get(e - t, 0j)
        b[e] = inv0 if e == 0 else -inv0 * acc
        for t, _ in tail:
            f = e + t
            if f >= top:
                break
            if f not in queued:
                queued.add(f)
                heapq.heappush(heap, f)
    return _wrap(_pruned(b.items()), a._den, top)


def nov_exp(a: NovikovSeries) -> NovikovSeries:
    """exp(a) = e^{a0} * sum_k (a - a0)^k / k!, truncated."""
    if val(a) < 0:
        raise NegativeValuation("exp requires nonnegative valuation")
    a0 = a.coefficient(0)
    tail = a - constant_series(a0, a.truncation)
    acc = power = one(a.truncation)
    k = 0
    while True:
        k += 1
        power = power * tail * (1.0 / k)
        if power.is_zero():
            break
        acc = acc + power
    return acc * cmath.exp(a0)


def nov_pow(a: NovikovSeries, k: int) -> NovikovSeries:
    """a^k for integer k; negative powers go through nov_inverse."""
    if k < 0:
        return nov_pow(nov_inverse(a), -k)
    if k == 0:
        return one(a.truncation)
    acc = a
    for _ in range(k - 1):
        acc = acc * a
    return acc


def series_to_json(s: NovikovSeries) -> list[dict]:
    return [{"exp": str(e), "re": c.real, "im": c.imag} for e, c in s.terms]


def series_from_json(obj, truncation: RationalLike) -> NovikovSeries:
    """Accepts a term list [{"exp","re","im"},...], a bare number, or {"re","im"}.

    Raises SchemaError on anything else, such as a term without "exp", a bare
    object with one, a boolean, or a non-finite coefficient.
    """
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        obj = {"re": obj}
    terms = [{**obj, "exp": 0}] if isinstance(obj, dict) and "exp" not in obj else obj
    try:
        pairs = [(Fraction(str(t["exp"])), complex(t.get("re", 0), t.get("im", 0))) for t in terms]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a series: {obj!r}") from exc
    for t, (_, c) in zip(terms, pairs):
        if isinstance(t.get("re"), bool) or isinstance(t.get("im"), bool):
            raise SchemaError(f"coefficient of the term {t!r} is not a number")
        if not cmath.isfinite(c):
            raise SchemaError(f"coefficient of the term {t!r} is not finite")
    return series(pairs, truncation)
