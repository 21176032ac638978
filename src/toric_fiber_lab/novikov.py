"""Truncated power series in one formal variable q with rational exponents.

Elements are finite sums sum_k c_k * q^{e_k} with complex coefficients c_k and
exact rational exponents 0 <= e_k < D, where D is the truncation order carried
by every series.  All arithmetic discards exponents >= D, so a series stands
for an element of the valuation ring known up to q^D.  Exponent bookkeeping is
exact; coefficients are complex floats.

A unit a = a_0 + (terms of positive exponent) is inverted in one pass over
the exponents of its inverse, which lie in the monoid generated by the
positive exponents of a (see nov_inverse).  Laurent monomials z^v are formed
in one place, monomial_eval, from nonnegative powers of z_j and of z_j^{-1}.
"""

from __future__ import annotations

import cmath
import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeValuation, NotAUnit, SchemaError, TruncationMismatch

PRUNE_THRESHOLD = 1e-12
COMPARE_TOL = 1e-9
INF = float("inf")

RationalLike = Fraction | int | str


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class NovikovSeries:
    """Finite sorted term list (exponent, coefficient) truncated at exponent < truncation."""

    terms: tuple[tuple[Fraction, complex], ...]
    truncation: Fraction

    def __post_init__(self) -> None:
        if self.truncation <= 0:
            raise ValueError("truncation order must be positive")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        _check_truncation(self, other)
        acc: dict[Fraction, complex] = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0j) + c
        return series(acc.items(), self.truncation)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-other)

    def __neg__(self) -> "NovikovSeries":
        return NovikovSeries(tuple((e, -c) for e, c in self.terms), self.truncation)

    def __mul__(self, other):
        if isinstance(other, NovikovSeries):
            _check_truncation(self, other)
            acc: dict[Fraction, complex] = {}
            for ea, ca in self.terms:
                for eb, cb in other.terms:
                    e = ea + eb
                    if e < self.truncation:
                        acc[e] = acc.get(e, 0j) + ca * cb
            return series(acc.items(), self.truncation)
        return series(((e, c * other) for e, c in self.terms), self.truncation)

    __rmul__ = __mul__

    # -- accessors ----------------------------------------------------------

    def coefficient(self, exponent: RationalLike) -> complex:
        e = _frac(exponent)
        for ei, ci in self.terms:
            if ei == e:
                return ci
        return 0j

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> complex:
        """Coefficient of the smallest stored exponent (0 for the zero series)."""
        return self.terms[0][1] if self.terms else 0j

    def shift(self, offset: RationalLike) -> "NovikovSeries":
        """Multiply by q^offset; negative offsets must not push any exponent below 0."""
        d = _frac(offset)
        return series(((e + d, c) for e, c in self.terms), self.truncation)

    def retruncate(self, truncation: RationalLike) -> "NovikovSeries":
        return series(self.terms, _frac(truncation))

    def evaluate(self, q0: float) -> complex:
        """Numeric specialization at a real 0 < q0 < 1."""
        return sum((c * (q0 ** float(e)) for e, c in self.terms), 0j)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            cs = f"({c.real:.6g}{c.imag:+.6g}i)" if c.imag else f"{c.real:.6g}"
            parts.append(cs if e == 0 else f"{cs}*q^{e}")
        return " + ".join(parts)


def _check_truncation(a: NovikovSeries, b: NovikovSeries) -> None:
    if a.truncation != b.truncation:
        raise TruncationMismatch(
            f"series truncated at {a.truncation} and {b.truncation} cannot be combined"
        )


def series(pairs, truncation: RationalLike) -> NovikovSeries:
    """Canonical constructor: merge equal exponents, prune, sort, truncate."""
    d = _frac(truncation)
    acc: dict[Fraction, complex] = {}
    for e, c in pairs:
        e = _frac(e)
        if e < 0:
            raise NegativeValuation(f"exponent {e} < 0")
        acc[e] = acc.get(e, 0j) + complex(c)
    kept = [(e, c) for e, c in acc.items() if e < d and abs(c) >= PRUNE_THRESHOLD]
    kept.sort(key=lambda t: t[0])
    return NovikovSeries(tuple(kept), d)


def zero_series(truncation: RationalLike) -> NovikovSeries:
    return series((), truncation)


def constant_series(c: complex, truncation: RationalLike) -> NovikovSeries:
    return series(((Fraction(0), c),), truncation)


def monomial(c: complex, exponent: RationalLike, truncation: RationalLike) -> NovikovSeries:
    return series(((_frac(exponent), c),), truncation)


def one(truncation: RationalLike) -> NovikovSeries:
    return constant_series(1.0, truncation)


def val(s: NovikovSeries) -> Fraction | float:
    """Smallest stored exponent; +inf for the zero series."""
    return s.terms[0][0] if s.terms else INF


def nov_mul(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    return a * b


def nov_inverse(a: NovikovSeries) -> NovikovSeries:
    """Multiplicative inverse of a unit (valuation 0, nonzero leading coefficient).

    With a = a_0 + sum_{t in T} a_t q^t (T the positive exponents of a), the
    inverse b solves a * b = 1 one exponent at a time, in increasing order:
    b_0 = 1/a_0 and b_e = -(1/a_0) * sum_{t in T, t <= e} a_t * b_{e-t}.
    Its exponents are the elements below the truncation of the monoid
    generated by T, produced in increasing order by a heap.
    """
    if val(a) != 0 or abs(a.leading()) <= PRUNE_THRESHOLD:
        raise NotAUnit(f"series with valuation {val(a)} is not invertible")
    D = a.truncation
    inv0 = 1.0 / a.leading()
    tail = a.terms[1:]
    b: dict[Fraction, complex] = {}
    heap = [Fraction(0)]
    queued = {heap[0]}
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
            if f >= D:
                break
            if f not in queued:
                queued.add(f)
                heapq.heappush(heap, f)
    return series(b.items(), D)


def nov_exp(a: NovikovSeries) -> NovikovSeries:
    """exp(a) = e^{a0} * sum_k (a - a0)^k / k!, truncated."""
    if val(a) < 0:
        raise NegativeValuation("exp requires nonnegative valuation")
    a0 = a.coefficient(0)
    tail = a - constant_series(a0, a.truncation)
    acc = one(a.truncation)
    power = one(a.truncation)
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


def monomial_eval(z: tuple[NovikovSeries, ...], v: tuple[int, ...]) -> NovikovSeries:
    """prod_j z_j^{v_j}; components with negative exponent must be units.

    Components with exponent 0 are never read.  A caller that evaluates many
    monomials at one point passes (z, z^{-1}) with the exponents split into
    (max(v, 0), max(-v, 0)), so each z_j is inverted once for all of them.
    """
    if len(z) != len(v):
        raise ValueError("length mismatch between point and exponent vector")
    if not z:
        raise ValueError("empty point")
    acc = None
    for zj, vj in zip(z, v):
        if vj:
            p = nov_pow(zj, vj)
            acc = p if acc is None else acc * p
    return one(z[0].truncation) if acc is None else acc


def nov_close(a: NovikovSeries, b: NovikovSeries, tol: float = COMPARE_TOL) -> bool:
    """Term-wise coefficient comparison after aligning exponents."""
    exps = {e for e, _ in a.terms} | {e for e, _ in b.terms}
    return all(abs(a.coefficient(e) - b.coefficient(e)) <= tol for e in exps)


def series_to_json(s: NovikovSeries) -> list[dict]:
    return [{"exp": str(e), "re": c.real, "im": c.imag} for e, c in s.terms]


def series_from_json(obj, truncation: RationalLike) -> NovikovSeries:
    """Accepts a term list [{"exp","re","im"},...], a bare number, or {"re","im"}.

    Raises SchemaError on anything else, such as a term without "exp".
    """
    if isinstance(obj, (int, float)):
        obj = {"re": obj}
    terms = [{**obj, "exp": 0}] if isinstance(obj, dict) else obj
    try:
        pairs = [(Fraction(str(t["exp"])), complex(t.get("re", 0), t.get("im", 0))) for t in terms]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a series: {obj!r}") from exc
    return series(pairs, truncation)
