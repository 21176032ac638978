"""Exact rational model of a moment polytope given by facet inequalities.

A polytope in R^n is the set {x : l_i(x) >= 0} for facet functions
l_i(x) = <x, v_i> - c_i with integer normal v_i (inward, not necessarily
primitive) and rational offset c_i.  Everything in this module is exact
Fraction arithmetic; no floating point, so tropical equalities l_i = l_j
can be decided reliably downstream.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, EmptyInterior, NotInterior, SchemaError


@dataclass(frozen=True)
class Facet:
    """One inequality <x, normal> - offset >= 0 with inward integer normal."""

    normal: tuple[int, ...]
    offset: Fraction


@dataclass(frozen=True)
class MomentPolytope:
    dimension: int
    facets: tuple[Facet, ...]
    witness: tuple[Fraction, ...]  # validated rational interior point


# -- exact linear algebra helpers -------------------------------------------


def exact_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def exact_rank(rows: list[list[Fraction]]) -> int:
    _, pivots = exact_rref(rows)
    return len(pivots)


def exact_kernel(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of the null space of the (possibly empty) row system in R^n."""
    rref, pivots = exact_rref(rows)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis


def exact_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Unique solution of a square system, or None when singular.

    The solution is unique exactly when the augmented RREF pivots on every
    unknown and not on the constant column.
    """
    n = len(rows)
    rref, pivots = exact_rref([row + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return [rref[r][n] for r in range(n)]


# -- construction ------------------------------------------------------------


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {x!r}") from exc
    raise SchemaError(f"not a rational: {x!r}")


def make_polytope(
    dimension: int,
    facets: list[tuple[list[int], Fraction]],
    witness: list[Fraction] | None = None,
) -> MomentPolytope:
    """Validate facet data and locate a rational interior point."""
    if dimension < 1:
        raise SchemaError("dimension must be a positive integer")
    built = []
    for normal, offset in facets:
        if len(normal) != dimension:
            raise DimensionMismatch(
                f"normal {normal} has length {len(normal)}, expected {dimension}"
            )
        if any(int(x) != x for x in normal):
            raise SchemaError(f"normal {normal} must be integral")
        if all(x == 0 for x in normal):
            raise SchemaError("facet normal must be nonzero")
        built.append(Facet(tuple(int(x) for x in normal), Fraction(offset)))
    pre = MomentPolytope(dimension, tuple(built), tuple([Fraction(0)] * dimension))
    if witness is not None:
        w = tuple(Fraction(x) for x in witness)
        if len(w) != dimension:
            raise DimensionMismatch("interior witness has the wrong length")
        if not is_interior(pre, w):
            raise EmptyInterior("supplied interior witness is not interior")
        return MomentPolytope(dimension, tuple(built), w)
    return MomentPolytope(dimension, tuple(built), _find_witness(pre))


def _find_witness(P: MomentPolytope) -> tuple[Fraction, ...]:
    """The average of the vertices of P, first cut by the box |x_j| <= 2M + 1
    when P is unbounded.  M is the largest |coordinate| of a vertex of P, or
    max|c_i| when P has no vertex.  The box then holds every vertex in its
    interior, and the vertex average of a full-dimensional polytope is
    interior to it."""
    n = P.dimension
    cut = P
    if not is_bounded(P):
        coords = [abs(x) for v in enumerate_vertices(P) for x in v]
        half = 2 * max(coords or [abs(f.offset) for f in P.facets]) + 1
        axes = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        box = [Facet(tuple(s * x for x in e), -half) for e in axes for s in (1, -1)]
        cut = MomentPolytope(n, P.facets + tuple(box), P.witness)
    verts = enumerate_vertices(cut)
    if verts:
        avg = tuple(sum(v[j] for v in verts) / len(verts) for j in range(n))
        if is_interior(P, avg):
            return avg
    raise EmptyInterior("polytope has no interior point in the search box")


def parse_polytope(text: str) -> MomentPolytope:
    """Parse the JSON input document; see README for the schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    try:
        dimension = doc["dimension"]
        raw_facets = doc["facets"]
    except KeyError as exc:
        raise SchemaError(f"missing required key {exc}") from exc
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise SchemaError("dimension must be a positive integer")
    if not isinstance(raw_facets, list) or not raw_facets:
        raise SchemaError("facets must be a nonempty list")
    facets = []
    for item in raw_facets:
        if isinstance(item, dict):
            try:
                normal, offset = item["normal"], item["offset"]
            except KeyError as exc:
                raise SchemaError(f"facet missing key {exc}") from exc
        elif isinstance(item, list) and len(item) == 2:
            normal, offset = item  # shorthand [[...normal], offset]
        else:
            raise SchemaError(f"facet entry {item!r} not understood")
        if not isinstance(normal, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in normal
        ):
            raise SchemaError(f"facet normal {normal!r} must be a list of integers")
        facets.append((normal, parse_rational(offset)))
    witness = doc.get("interior_witness")
    if witness is not None:
        if not isinstance(witness, list):
            raise SchemaError("interior_witness must be a list of rationals")
        witness = [parse_rational(x) for x in witness]
    return make_polytope(dimension, facets, witness)


def polytope_to_json(P: MomentPolytope) -> dict:
    return {
        "dimension": P.dimension,
        "facets": [
            {"normal": list(f.normal), "offset": str(f.offset)} for f in P.facets
        ],
        "interior_witness": [str(x) for x in P.witness],
    }


# -- queries -----------------------------------------------------------------


def facet_values(P: MomentPolytope, lam) -> tuple[Fraction, ...]:
    """(l_1(lam), ..., l_N(lam)) exactly."""
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != P.dimension:
        raise DimensionMismatch(
            f"point {format_point(lam)} has length {len(lam)}, "
            f"but the polytope has dimension {P.dimension}"
        )
    return tuple(
        sum(a * b for a, b in zip(lam, f.normal)) - f.offset for f in P.facets
    )


def is_interior(P: MomentPolytope, lam) -> bool:
    return all(v > 0 for v in facet_values(P, lam))


def interior_values(P: MomentPolytope, lam) -> tuple[Fraction, ...]:
    """facet_values(P, lam), or NotInterior unless every value is positive."""
    values = facet_values(P, lam)
    if any(v <= 0 for v in values):
        raise NotInterior(f"fiber {format_point(lam)} is not interior")
    return values


def format_point(pt) -> str:
    return "(" + ", ".join(str(x) for x in pt) + ")"


def primitive_normal(f: Facet) -> tuple[int, ...]:
    g = math.gcd(*f.normal)
    return tuple(x // g for x in f.normal)


def enumerate_vertices(P: MomentPolytope) -> list[tuple[Fraction, ...]]:
    """All intersections of n facet hyperplanes satisfying every inequality."""
    n = P.dimension
    seen: set[tuple[Fraction, ...]] = set()
    for subset in itertools.combinations(range(len(P.facets)), n):
        rows = [[Fraction(x) for x in P.facets[i].normal] for i in subset]
        rhs = [P.facets[i].offset for i in subset]
        x = exact_solve(rows, rhs)
        if x is None:
            continue
        if all(v >= 0 for v in facet_values(P, x)):
            seen.add(tuple(x))
    return sorted(seen)


def is_bounded(P: MomentPolytope) -> bool:
    """True iff the recession cone {d : <v_i, d> >= 0 for all i} is {0}."""
    n = P.dimension
    normals = [[Fraction(x) for x in f.normal] for f in P.facets]
    if exact_rank(normals) < n:
        return False  # the polytope contains a line direction
    # any unbounded direction lies on an extreme ray cut out by n-1 normals
    for subset in itertools.combinations(range(len(normals)), n - 1):
        rows = [normals[i] for i in subset]
        kern = exact_kernel(rows, n)
        if len(kern) != 1:
            continue
        d = kern[0]
        for cand in (d, [-x for x in d]):
            if any(x != 0 for x in cand) and all(
                sum(a * b for a, b in zip(row, cand)) >= 0 for row in normals
            ):
                return False
    return True


def bounding_box(P: MomentPolytope) -> tuple[tuple[Fraction, Fraction], ...]:
    """Per-axis (min, max) over the vertex set; requires a bounded polytope."""
    verts = enumerate_vertices(P)
    if not verts:
        raise EmptyInterior("no vertices to bound")
    return tuple(
        (min(v[j] for v in verts), max(v[j] for v in verts))
        for j in range(P.dimension)
    )
