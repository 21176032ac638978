"""Exact rational model of a moment polytope given by facet inequalities.

A polytope in R^n is the set {x : l_i(x) >= 0} for facet functions
l_i(x) = <x, v_i> - c_i with integer normal v_i (inward, not necessarily
primitive) and rational offset c_i.  Nothing here uses floating point, so
tropical equalities l_i = l_j can be decided reliably downstream.  Facet
values are Fractions; vertices, boundedness and the interior witness come
from one pass of an integer kernel (_int_cross) over the extreme rays of the
homogenized cone of P, on the pivot columns of the normals' exact RREF and
so at the normals' rank; the kernel solves stacks of small square systems at
once with the offsets scaled to integers.  It runs in int64 when a bound on
every integer it forms is below 2**62 and on Python integers otherwise
(int_dtype): numpy's int64 arithmetic wraps without a warning.  The solver's
lower faces (through cramer_solve) and the probe kernel share both.

A polytope stores that pass's result the first time it is asked for, so
analyze, the probe scan and the SVG outline run the kernel at most once per
polytope, and make_polytope hands over the pass that found its witness.  The
stored result lives outside the dataclass fields: equality, hash and repr
depend on dimension, facets and witness only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch, EmptyInterior, NotInterior, SchemaError, UnboundedPolytope, ValidationError)


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

    # _cone's (vertices, bounded, witness or None), computed on first use; cached_property
    # writes the instance __dict__, which the frozen dataclass's __setattr__ does not guard
    @functools.cached_property
    def _geometry(self) -> tuple:
        return _cone(self)


CHUNK = 2**14  # integer systems solved per vectorized batch
# Most minors the geometry kernel may form, C(facets + 1, r) 2^(r+1) with r the rank
# of the normals: about 0.5 s.  The 8-cube needs C(17, 8) 2^9 = 1.2e7, the 10-cube
# C(21, 10) 2^11 = 7.2e8 (24 s).
MAX_KERNEL_MINORS = 2**24


# -- exact linear algebra ------------------------------------------------------


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


def int_dtype(top: int):
    """int64 if top, a bound on every integer formed, is below 2**62, else Python integers."""
    return np.int64 if top < 2**62 else object


def _int_cross(X: np.ndarray) -> np.ndarray:
    """w_i = (-1)^i det(X without column i) for the integer m x (m+1)
    matrices X stacked on the leading axis: X w = 0, and w != 0 exactly when
    X has rank m.  Laplace expansion along the first row, each minor of the
    last rows formed once per set of columns, exact in the dtype of X.
    """
    m, k = X.shape[-2:]
    minors = {(): np.ones(X.shape[:-2], dtype=X.dtype)}  # columns -> minor of the last rows
    for r in range(m - 1, -1, -1):
        minors = {
            cols: sum((-1) ** p * X[..., r, c] * minors[cols[:p] + cols[p + 1 :]]
                      for p, c in enumerate(cols))
            for cols in itertools.combinations(range(k), m - r)
        }
    return np.stack([(-1) ** i * minors[(*range(i), *range(i + 1, k))] for i in range(k)], -1)


def cramer_solve(M: np.ndarray, rhs: np.ndarray):
    """Solve the stacked square integer systems M[k] x = rhs[k] by Cramer's rule:
    (live, d, N) with live the k where det M[k] != 0, d = |det M[k]| and N = d x.
    With w = _int_cross([M | rhs]), x = -w[:n] / w[n] and w[n] = +-det M."""
    w = _int_cross(np.concatenate([M, rhs[..., None]], axis=-1))
    live = np.flatnonzero(w[:, -1] != 0)
    w = w[live]
    sign = np.where(w[:, -1] > 0, -1, 1)
    return live, -sign * w[:, -1], sign[:, None] * w[:, :-1]


def _subsets(count: int, k: int):
    """The k-subsets of range(count), in order, as arrays of CHUNK rows at most;
    ValidationError first when C(count, k) 2^(k+1) exceeds MAX_KERNEL_MINORS."""
    if (work := math.comb(count, k) * 2 ** (k + 1)) > MAX_KERNEL_MINORS:
        raise ValidationError(f"dimension {k}, {count - 1} facets: {work} minors, "
                              f"more than {MAX_KERNEL_MINORS}")
    combos = itertools.combinations(range(count), k)
    while block := list(itertools.islice(combos, CHUNK)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)


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
    if not facets:
        raise SchemaError("facets must be a nonempty list")
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
    w = pre._geometry[2]
    if w is None or not is_interior(pre, w):
        raise EmptyInterior("polytope has no interior point")
    P = MomentPolytope(dimension, tuple(built), w)
    P.__dict__["_geometry"] = pre._geometry
    return P


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
    if not isinstance(raw_facets, list):
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
    """All intersections of n facet hyperplanes satisfying every inequality,
    sorted, as a new list; P stores them when first asked."""
    return list(P._geometry[0])


def is_bounded(P: MomentPolytope) -> bool:
    """True iff the recession cone {d : <v_i, d> >= 0 for all i} is {0};
    P stores the answer when first asked."""
    return P._geometry[1]


def bounding_box(P: MomentPolytope) -> tuple[tuple[Fraction, Fraction], ...]:
    """Per-axis (min, max) over the vertex set; UnboundedPolytope unless P is bounded."""
    verts, bounded, _ = P._geometry
    if not bounded:
        raise UnboundedPolytope("no box holds an unbounded polytope")
    return tuple((min(v[j] for v in verts), max(v[j] for v in verts)) for j in range(P.dimension))


def _cone(P: MomentPolytope):
    """The geometry kernel: (sorted vertices, bounded, witness or None).

    With C = L c (L the lcm of the offset denominators), P is the slice s = 1/L
    of the cone K = {(y, s) : <v_i, y> >= C_i s, s >= 0}.  The exact RREF of
    the normals gives their pivot columns J, r = |J| of them; P is the
    polytope on the columns J plus the lineality space ker(v), and _rays
    finds K's extreme rays on J once, with the work cap at rank r: the
    vertices of P and its primitive recession directions when r = n, no
    vertex when r < n.  The witness (sum of vertices + sum of directions) /
    #vertices, zero off J, is a strictly positive combination of every
    extreme ray of K, so it is interior whenever P has an interior.
    """
    n = P.dimension
    L = math.lcm(*(f.offset.denominator for f in P.facets))
    C = [int(f.offset * L) for f in P.facets]
    normals = [f.normal for f in P.facets]
    _, cols = exact_rref([list(v) for v in normals])
    verts, dirs = _rays([[v[j] for j in cols] for v in normals], C, L)
    spans = len(cols) == n
    sums = dict(zip(cols, map(sum, zip(*verts, *dirs))))
    witness = tuple(Fraction(sums.get(j, 0)) / len(verts) for j in range(n)) if verts else None
    return tuple(sorted(verts)) if spans else (), spans and not dirs, witness


def _rays(normals: list, C: list[int], L: int):
    """(vertices, primitive directions) for the r columns of normals of rank r.

    Each r-subset of K's rows (v_i, -C_i) and (0, 1) gives one kernel vector
    w = (y, s), negated when it pairs <= 0 with every row; a nonzero w pairing
    >= 0 with every row is the vertex y / (L s) when s > 0 and the direction y
    when s = 0.
    """
    r, a = len(normals[0]), max(abs(x) for v in normals for x in v)
    # every minor is at most r! a^r max(1, |C|), each pairing (r+1) times that
    dtype = int_dtype((r + 1) * math.factorial(r) * a**r * max(1, *map(abs, C)))
    K = np.array([[*v, -c] for v, c in zip(normals, C)] + [[0] * r + [1]], dtype=dtype)
    verts, dirs = set(), set()
    for S in _subsets(len(K), r):
        w = _int_cross(K[S])
        pairs = w @ K.T
        flip = (pairs <= 0).all(axis=1)
        keep = (flip | (pairs >= 0).all(axis=1)) & (w != 0).any(axis=1)
        for *y, s in np.where(flip[:, None], -w, w)[keep].tolist():
            if s:
                verts.add(tuple(Fraction(x, s * L) for x in y))
            else:
                g = math.gcd(*y)
                dirs.add(tuple(x // g for x in y))
    return verts, dirs
