"""The gauged superpotential of a moment polytope fiber as an explicit term list.

For an interior fiber lam the potential is W(z) = sum_i m_i * t_i(q) * z^{v_i} * q^{l_i(lam)}
with one term per facet: v_i the facet normal, l_i(lam) the facet value, and
(m_i, t_i) = (e^{a_i0}, exp(a_i - a_i0)) the constant and tail factors of an
optional twist a_i per facet.  Variables are z_j = e^{b_j}; derivatives below
are with respect to b, so each z-power v_ij becomes a linear weight.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAUnit, TruncationMismatch, ValidationError
from .novikov import (
    PRUNE_THRESHOLD,
    NovikovSeries,
    _kept,
    _shifted,
    _weighted_sums,
    constant_series,
    nov_exp,
    nov_inverse,
    one,
    series_to_json,
    val,
)
from .polytope import MomentPolytope, interior_values

DEFAULT_TRUNCATION_FACTOR = 3


@dataclass(frozen=True)
class PotentialTerm:
    facet_index: int
    multiplier: complex
    bulk_tail: NovikovSeries  # unit with leading coefficient exactly 1
    exponent: tuple[int, ...]
    valuation: Fraction


@dataclass(frozen=True)
class _Plan:
    """What every evaluation of a potential reads, worked out once per potential."""

    inverse: tuple[bool, ...]  # per direction j: some term has a negative exponent in j
    splits: tuple[tuple[int, ...], ...]  # per term: (max(v, 0), max(-v, 0))
    gradient: tuple  # per direction j: (i, float(v_ij)) over the terms with v_ij != 0
    hessian: dict  # per j <= k: (i, float(v_ij v_ik)) over the terms where it is nonzero
    rows: tuple  # per direction j: (least valuation, the terms at it), None with no term
    constant: tuple  # per term: (bulk tail times q^{l_i}, multiplier, tail is exactly 1)


@dataclass(frozen=True)
class Potential:
    dimension: int
    fiber: tuple[Fraction, ...]
    terms: tuple[PotentialTerm, ...]
    truncation: Fraction

    # computed on first use; cached_property writes the instance __dict__,
    # which the frozen dataclass allows, and no field changes
    @functools.cached_property
    def _plan(self) -> _Plan:
        unit, n, E = one(self.truncation), self.dimension, [t.exponent for t in self.terms]
        gradient = tuple(tuple((i, float(e[j])) for i, e in enumerate(E) if e[j]) for j in range(n))
        rows = []
        for weights in gradient:
            vals = [(i, self.terms[i].valuation) for i, _ in weights]
            m = min((v for _, v in vals), default=None)
            rows.append(None if m is None else (m, tuple(i for i, v in vals if v == m)))
        return _Plan(
            tuple(any(e[j] < 0 for e in E) for j in range(n)),
            tuple(tuple(max(v, 0) for v in e) + tuple(max(-v, 0) for v in e) for e in E),
            gradient,
            {(j, k): tuple((i, float(e[j] * e[k])) for i, e in enumerate(E) if e[j] * e[k])
             for j in range(n) for k in range(j, n)},
            tuple(rows),
            tuple((_shifted(t.bulk_tail, t.valuation), t.multiplier, t.bulk_tail == unit)
                  for t in self.terms),
        )


def fiber_setup(P: MomentPolytope, lam, alpha=None, truncation=None):
    """Shared set-up of both potential builders.

    Returns the exact interior fiber, its facet values l_i(lam), the
    truncation order (default 3 * max_i l_i(lam)) and per facet the twist
    factors (e^{a_i0}, exp(a_i - a_i0)); an absent twist gives (1, 1) for
    every facet.
    """
    lam = tuple(Fraction(x) for x in lam)
    values = interior_values(P, lam)
    D = DEFAULT_TRUNCATION_FACTOR * max(values) if truncation is None else Fraction(truncation)
    if alpha is None:
        return lam, values, D, [(1.0 + 0j, one(D))] * len(P.facets)
    if len(alpha) != len(P.facets):
        raise ValueError("twist must supply one series per facet")
    factors = []
    for i, ai in enumerate(alpha):
        a = ai.retruncate(D)  # NegativeValuation for a twist of negative valuation
        a0 = a.coefficient(0)
        try:
            m = cmath.exp(a0)
        except OverflowError as exc:
            raise ValidationError(f"twist of facet {i}: e^{a0} overflows") from exc
        factors.append((m, nov_exp(a - constant_series(a0, D))))
    return lam, values, D, factors


def build_potential(
    P: MomentPolytope,
    lam,
    alpha: tuple[NovikovSeries, ...] | None = None,
    truncation=None,
) -> Potential:
    """One term per facet, in facet order; optional per-facet twist alpha."""
    lam, values, D, factors = fiber_setup(P, lam, alpha, truncation)
    terms = tuple(
        PotentialTerm(i, mult, tail, f.normal, v)
        for i, (f, v, (mult, tail)) in enumerate(zip(P.facets, values, factors))
    )
    return Potential(P.dimension, lam, terms, D)


def _require_units(W: Potential, z: tuple[NovikovSeries, ...]) -> None:
    if len(z) != W.dimension:
        raise ValueError("point has the wrong length")
    for zj in z:
        if zj.truncation != W.truncation:
            raise TruncationMismatch(
                f"point truncated at {zj.truncation}, potential at {W.truncation}")
        if val(zj) != 0:
            raise NotAUnit("potential evaluation needs unit components")


def term_values(W: Potential, z: tuple[NovikovSeries, ...]) -> list[NovikovSeries]:
    """Value of each summand at z, a point of units truncated at W's truncation, in facet order.

    z^v is a product of powers of the z_j and z_j^{-1} (v split into max(v, 0) and max(-v, 0)),
    each z_j inverted once and only when some term needs it; a tail of exactly 1 is not
    multiplied.  value_from_terms, gradient_from_terms and hessian_from_terms read this list.
    """
    _require_units(W, z)
    plan = W._plan
    point = tuple(z) + tuple(nov_inverse(zj) if inv else None for zj, inv in zip(z, plan.inverse))
    out = []
    for t, v, (_, _, tail_one) in zip(W.terms, _monomials(W, point, operator.mul), plan.constant):
        if not tail_one:  # an absent twist leaves the tail exactly 1
            v = v * t.bulk_tail
        out.append(_shifted(v, t.valuation, t.multiplier))
    return out


def _monomials(W: Potential, point, mul) -> list:
    """z^{v_i} per term from point = z + (z_j^{-1}): each power a left fold of mul (nov_pow's
    products), then the product of the powers in split order."""
    return [functools.reduce(mul, (functools.reduce(mul, [x] * e) for x, e in zip(point, split) if e))
            for split in W._plan.splits]


def constant_monomials(W: Potential, zeta) -> list[complex]:
    """zeta^{v_i} per term, 0j where pruned: term_values' products at the constant point zeta,
    each on one coefficient and pruned by _kept, as the series products and nov_inverse prune."""
    z = [_kept(complex(x)) for x in zeta]
    if len(z) != W.dimension:
        raise ValueError("point has the wrong length")
    if 0j in z or any(inv and abs(x) <= PRUNE_THRESHOLD for x, inv in zip(z, W._plan.inverse)):
        raise NotAUnit("potential evaluation needs unit components")
    point = z + [_kept(1.0 / x) if inv else 0j for x, inv in zip(z, W._plan.inverse)]
    return _monomials(W, point, lambda a, b: a and b and _kept(a * b))


def value_from_terms(tv: list[NovikovSeries]) -> NovikovSeries:
    """W at the point where tv = term_values(W, z) was taken.

    A running sum, unlike the derivatives: a partial sum that cancels is pruned to exactly 0.
    """
    return functools.reduce(operator.add, tv)


def gradient_from_terms(W: Potential, tv, shifts) -> tuple[NovikovSeries, ...]:
    """Component j: q^(-shifts[j]) * sum_i v_ij * tv[i]; shifts[j] <= its terms' valuations."""
    return tuple(_weighted_sums(list(zip(W._plan.gradient, shifts)), tv, W.truncation))


def hessian_rows(W: Potential, shifts):
    """(index, rows): entry (j, k) is q^(-shifts[j]) * sum_i v_ij v_ik * term i by the weights of
    rows[index[j][k]]; rows j and k of equal shift share their entries (j, k) and (k, j)."""
    n, hess = W.dimension, W._plan.hessian
    cells = [(j, k) for j in range(n) for k in range(n) if j <= k or shifts[j] != shifts[k]]
    at = {c: a for a, c in enumerate(cells)}
    index = [[at[(j, k) if (j, k) in at else (k, j)] for k in range(n)] for j in range(n)]
    return index, [(hess[min(c), max(c)], shifts[c[0]]) for c in cells]


def hessian_from_terms(W: Potential, tv, shifts) -> list[list[NovikovSeries]]:
    """Entry (j, k): q^(-shifts[j]) * sum_i v_ij v_ik * tv[i], tv = term_values(W, z)."""
    index, rows = hessian_rows(W, shifts)
    H = _weighted_sums(rows, tv, W.truncation)
    return [[H[a] for a in row] for row in index]


def eval_potential(W: Potential, z: tuple[NovikovSeries, ...]) -> NovikovSeries:
    return value_from_terms(term_values(W, z))


def eval_gradient(W: Potential, z: tuple[NovikovSeries, ...]) -> tuple[NovikovSeries, ...]:
    """Derivatives in b (z = e^b): component j is sum_i v_ij * (term i at z)."""
    return gradient_from_terms(W, term_values(W, z), (0,) * W.dimension)


def eval_hessian(W: Potential, z: tuple[NovikovSeries, ...]) -> list[list[NovikovSeries]]:
    """Symmetric matrix of second derivatives in b, entry (j,k) = sum_i v_ij v_ik term_i."""
    return hessian_from_terms(W, term_values(W, z), (0,) * W.dimension)


def term_table(W: Potential) -> list[dict]:
    """JSON-friendly summary of the term list."""
    return [
        {
            "facet": t.facet_index,
            "exponent": list(t.exponent),
            "valuation": str(t.valuation),
            "multiplier": {"re": t.multiplier.real, "im": t.multiplier.imag},
            "bulk_tail": series_to_json(t.bulk_tail),
        }
        for t in W.terms
    ]
