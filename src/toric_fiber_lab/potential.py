"""The gauged superpotential of a moment polytope fiber as an explicit term list.

For an interior fiber lam the potential is W(z) = sum_i m_i * t_i(q) * z^{v_i} * q^{l_i(lam)}
with one term per facet: v_i the facet normal, l_i(lam) the facet value, and
(m_i, t_i) = (e^{a_i0}, exp(a_i - a_i0)) the constant and tail factors of an
optional twist a_i per facet.  Variables are z_j = e^{b_j}; derivatives below
are with respect to b, so each z-power v_ij becomes a linear weight.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAUnit, ValidationError, ZeroComponent
from .novikov import (
    NovikovSeries,
    _grid,
    _shifted,
    _sum,
    _weighted_sum,
    _wrap,
    constant_series,
    monomial_eval,
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
class Potential:
    dimension: int
    fiber: tuple[Fraction, ...]
    terms: tuple[PotentialTerm, ...]
    truncation: Fraction


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
        a = ai.retruncate(D)
        if val(a) < 0:
            raise NotAUnit("twist coefficients must have nonnegative valuation")
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


def _require_units(z: tuple[NovikovSeries, ...], n: int) -> None:
    if len(z) != n:
        raise ValueError("point has the wrong length")
    for zj in z:
        if not zj._items or zj._items[0][0]:  # valuation 0: a first key of 0
            raise NotAUnit("potential evaluation needs unit components")


@dataclass(frozen=True)
class _Plan:
    """What every evaluation of a potential reads, worked out once per potential."""

    tails_one: tuple[bool, ...]  # per term: the bulk tail is exactly 1
    inverse: tuple[bool, ...]  # per direction j: some term has a negative exponent in j
    splits: tuple[tuple[int, ...], ...]  # per term: (max(v, 0), max(-v, 0))
    gradient: tuple  # per direction j: (i, float(v_ij)) over the terms with v_ij != 0
    hessian: dict  # per j <= k: (i, float(v_ij v_ik)) over the terms where it is nonzero


def _plan(W: Potential) -> _Plan:
    """W's _Plan, computed on first use and kept on W (whose fields it does not change)."""
    stored = W.__dict__.get("_plan")
    if stored is None:
        unit, n, E = one(W.truncation), W.dimension, [t.exponent for t in W.terms]
        W.__dict__["_plan"] = stored = _Plan(
            tuple(t.bulk_tail == unit for t in W.terms),
            tuple(any(e[j] < 0 for e in E) for j in range(n)),
            tuple(tuple(max(v, 0) for v in e) + tuple(max(-v, 0) for v in e) for e in E),
            tuple(tuple((i, float(e[j])) for i, e in enumerate(E) if e[j]) for j in range(n)),
            {(j, k): tuple((i, float(e[j] * e[k])) for i, e in enumerate(E) if e[j] * e[k])
             for j in range(n) for k in range(j, n)},
        )
    return stored


def term_values(W: Potential, z: tuple[NovikovSeries, ...]) -> list[NovikovSeries]:
    """Value of each summand at z, in facet order.

    Each z_j is inverted once, and only when some term has a negative
    exponent in direction j; a bulk tail that is exactly 1 is not multiplied.
    Callers that need several derivatives at z build this list once and pass
    it to gradient_from_terms, hessian_from_terms and value_from_terms.
    """
    _require_units(z, W.dimension)
    plan = _plan(W)
    point = tuple(z) + tuple(nov_inverse(zj) if inv else None for zj, inv in zip(z, plan.inverse))
    out = []
    for t, split, tail_one in zip(W.terms, plan.splits, plan.tails_one):
        v = monomial_eval(point, split)
        if not tail_one:  # an absent twist leaves the tail exactly 1
            v = v * t.bulk_tail
        out.append(_shifted(v._items, v._den, v._top, t.valuation, t.multiplier))
    return out


def value_from_terms(W: Potential, tv: list[NovikovSeries]) -> NovikovSeries:
    """W at the point where tv = term_values(W, z) was taken.

    A running sum, unlike the derivatives: a partial sum that cancels is pruned to exactly 0.
    """
    den, top = _grid(tv, W.truncation)
    acc = []
    for s in tv:
        f = den // s._den
        acc = _sum(acc, s._items if f == 1 else [(k * f, c) for k, c in s._items])
    return _wrap(acc, den, top)


def gradient_from_terms(W: Potential, tv: list[NovikovSeries]) -> tuple[NovikovSeries, ...]:
    """Component j: sum_i v_ij * tv[i]."""
    den, top = _grid(tv, W.truncation)
    return tuple(_weighted_sum(weights, tv, den, top) for weights in _plan(W).gradient)


def hessian_from_terms(W: Potential, tv: list[NovikovSeries]) -> list[list[NovikovSeries]]:
    """Symmetric matrix with entry (j,k) = sum_i v_ij v_ik tv[i]."""
    den, top = _grid(tv, W.truncation)
    n = W.dimension
    H = [[None] * n for _ in range(n)]
    for (j, k), weights in _plan(W).hessian.items():
        H[j][k] = H[k][j] = _weighted_sum(weights, tv, den, top)
    return H


def eval_potential(W: Potential, z: tuple[NovikovSeries, ...]) -> NovikovSeries:
    return value_from_terms(W, term_values(W, z))


def eval_gradient(W: Potential, z: tuple[NovikovSeries, ...]) -> tuple[NovikovSeries, ...]:
    """Derivatives in b (z = e^b): component j is sum_i v_ij * (term i at z)."""
    return gradient_from_terms(W, term_values(W, z))


def eval_hessian(W: Potential, z: tuple[NovikovSeries, ...]) -> list[list[NovikovSeries]]:
    """Symmetric matrix of second derivatives in b, entry (j,k) = sum_i v_ij v_ik term_i."""
    return hessian_from_terms(W, term_values(W, z))


def specialize_q(
    W: Potential, z0: tuple[complex, ...], q0: float
) -> tuple[complex, tuple[complex, ...]]:
    """Numeric (value, gradient) with q set to q0 in (0,1) and z fixed at z0."""
    if not 0 < q0 < 1:
        raise ValueError("q0 must lie in (0,1)")
    if len(z0) != W.dimension:
        raise ValueError("point has the wrong length")
    if any(zj == 0 for zj in z0):
        raise ZeroComponent("z0 components must be nonzero")
    value = 0j
    grad = [0j] * W.dimension
    for t in W.terms:
        mono = t.multiplier * t.bulk_tail.evaluate(q0) * (q0 ** float(t.valuation))
        for zj, vj in zip(z0, t.exponent):
            mono *= zj ** vj
        value += mono
        for j, vj in enumerate(t.exponent):
            if vj:
                grad[j] += vj * mono
    return value, tuple(grad)


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
