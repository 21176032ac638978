"""Displaceability certificates from straight-line probes.

A probe enters the polytope from a point on the relative interior of a facet,
along an integer direction that pairs to 1 with the facet's primitive inward
normal, and ends where it exits the polytope.  Fibers strictly inside the
first half of a probe are displaceable.  All arithmetic here is exact.

One block kernel tests coverage.  A direction table pairs each (facet i,
direction alpha) once, with the slopes s_g = <v_g, alpha> of every facet,
all from one integer product of normals and directions.  A fiber's facet
values are scaled by a common denominator L to the integers V_g = L l_g(lam);
on a grid lam = lo + k h they are V = A + K B^T with A and B computed once
per scan.  The probe from entry (i, alpha) covers the fiber when
V_g s_i > V_i W_g for every facet g, with W_g = |s_g| and W_i = 0.
_first_probes tests a block of fibers against every table entry one facet g
at a time: each step is one (fibers, entries) integer comparison, so no
(fibers, entries, facets) array is formed.  It runs in int64 when a bound on
max|V| * max|s| is below 2**62 and on Python integers otherwise, by the
polytope kernel's rule (polytope.int_dtype).  Fractions (base, exit
parameter) are built only for the probe that is returned.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, DimensionUnsupported, NotTransverse, UnboundedPolytope
from .polytope import (
    MomentPolytope,
    bounding_box,
    facet_values,
    int_dtype,
    is_bounded,
    primitive_normal,
)

DEFAULT_BOUND = 3  # direction sup-norm bound
DEFAULT_RESOLUTION = 16  # grid steps per axis in analyze
MAX_GRID_POINTS = 2**22  # largest (resolution + 1)**dimension a scan accepts


@dataclass(frozen=True)
class Probe:
    facet_index: int
    base: tuple[Fraction, ...]
    direction: tuple[int, ...]
    exit_parameter: Fraction | None  # None encodes an unbounded probe


@dataclass(frozen=True)
class Verdict:
    fiber: tuple[Fraction, ...]
    kind: str  # "displaceable" | "no_probe_found" | "critical"
    probe: Probe | None = None
    certificate: int | None = None  # index into a certificate list, set by reports


def integrally_transverse(f, alpha: tuple[int, ...]) -> bool:
    """True iff <primitive inward normal, alpha> = 1 (probe enters the polytope)."""
    if len(alpha) != len(f.normal):
        raise DimensionMismatch(
            f"direction {tuple(alpha)} has length {len(alpha)}, "
            f"but the polytope has dimension {len(f.normal)}"
        )
    if all(a == 0 for a in alpha):
        raise ValueError("direction must be nonzero")
    return sum(a * b for a, b in zip(primitive_normal(f), alpha)) == 1


def _slopes(P: MomentPolytope, alphas) -> np.ndarray:
    """s_g = <v_g, alpha> for each facet g (row) and direction alpha (column)."""
    normals = [f.normal for f in P.facets]
    big = max(map(abs, itertools.chain(*normals))) * max(map(abs, itertools.chain(*alphas)))
    dtype = int_dtype(P.dimension * big)
    return np.array(normals, dtype=dtype) @ np.array(alphas, dtype=dtype).T


def _direction_table(P: MomentPolytope, bound: int):
    """Every facet with primitive normal, in order, with each direction of
    sup-norm <= bound pairing to 1 with it, in lexicographic order.  A normal
    with gcd m pairs to multiples of m only, so s_i = 1 picks out both.

    Returns (facets, directions, slopes), one entry per position, with the
    slopes as an (entries, facets) array.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    box = itertools.product(range(-bound, bound + 1), repeat=P.dimension)
    alphas = [a for a in box if any(a)]
    S = _slopes(P, alphas)
    facets, cols = np.nonzero(S == 1)  # row-major: facet order, then direction order
    return facets.tolist(), [alphas[c] for c in cols], S[:, cols].T


def _stored_table(P: MomentPolytope, bound: int):
    """_direction_table(P, bound), kept on P like its vertices: one per bound."""
    tables = P.__dict__.setdefault("_direction_tables", {})
    if bound not in tables:
        tables[bound] = _direction_table(P, bound)
    return tables[bound]


def _value_dtype(vmax: int, table):
    """The kernel's dtype for facet values |V_g| <= vmax: its products are at
    most vmax * max|s|."""
    return int_dtype(vmax * int(np.abs(table[2]).max(initial=1)))


def _first_probes(V: np.ndarray, table) -> np.ndarray:
    """Index of the first table entry covering each row of V, or -1.

    Row p holds V_g = L l_g(lam_p).  With t = l_i(lam)/s_i the parameter from
    facet i to lam, entry (i, alpha) covers lam exactly when t > 0 and
    l_g(lam) > t|s_g| for every other facet g; scaled, V_g s_i > V_i W_g for
    every g, with W_g = |s_g| and W_i = 0.  These hold only if every V_g > 0,
    so a fiber off the open polytope is never covered.  Rows are taken in
    blocks of about 2**14 (row, entry) pairs, small enough for the block's
    arrays to stay in cache, and each facet g adds one (rows, entries)
    comparison to the block's coverage.
    """
    facets, _, S = table
    first = np.full(len(V), -1)
    if not facets:
        return first
    entries = np.arange(len(facets))
    si = S[entries, facets]
    W = np.abs(S)
    W[entries, facets] = 0
    step = max(1, 2**14 // len(facets))
    for lo in range(0, len(V), step):
        block = V[lo : lo + step]
        Vi = block[:, facets]
        covers = np.ones(Vi.shape, dtype=bool)
        for Vg, Wg in zip(block.T, W.T):
            covers &= Vg[:, None] * si > Vi * Wg
        first[lo : lo + step] = np.where(covers.any(axis=1), covers.argmax(axis=1), -1)
    return first


def _probes(lams, V: np.ndarray, scale: int, table) -> list[Probe | None]:
    """The probe of the first table entry covering each lam, or None.

    With d = L s_i, t = V_i/d; the base is lam - t alpha, the exit the least
    (V_g s_i - V_i s_g)/(-s_g d) over s_g < 0, found by cross-multiplying.
    Equal (numerator, denominator) pairs share one Fraction.
    """
    facets, alphas, S = table
    slopes = S.tolist()
    fraction = functools.cache(Fraction)
    out: list[Probe | None] = []
    for lam, row, e in zip(lams, V.tolist(), _first_probes(V, table).tolist()):
        if e < 0:
            out.append(None)
            continue
        i, alpha, s = facets[e], alphas[e], slopes[e]
        vi, si = row[i], s[i]
        d = scale * si
        base = tuple(
            fraction(x.numerator * d - vi * a * x.denominator, x.denominator * d)
            for x, a in zip(lam, alpha)
        )
        least = None
        for v, sg in zip(row, s):
            if sg < 0:
                num, den = v * si - vi * sg, -sg * d
                if least is None or num * least[1] < least[0] * den:
                    least = num, den
        out.append(Probe(i, base, alpha, None if least is None else fraction(*least)))
    return out


def _probe_at(P: MomentPolytope, lam, table) -> Probe | None:
    """_probes for one fiber, its facet values scaled to integers V = L l(lam)."""
    lam = tuple(Fraction(x) for x in lam)
    values = facet_values(P, lam)
    scale = math.lcm(*(v.denominator for v in values))
    row = [int(v * scale) for v in values]
    V = np.array([row], dtype=_value_dtype(max(map(abs, row)), table))
    return _probes([lam], V, scale, table)[0]


def probe_through(
    P: MomentPolytope, lam, facet_index: int, alpha: tuple[int, ...]
) -> Probe | None:
    """The probe from facet `facet_index` along alpha covering lam, if valid.

    With s_g = <v_g, alpha> and t = l_i(lam)/s_i the parameter from the facet
    to lam, the probe covers lam exactly when t > 0 and l_g(lam) > t|s_g| for
    every other facet g: for s_g > 0 this keeps the base lam - t alpha in the
    open facet i, for s_g < 0 it puts lam before the midpoint of the segment.
    Dividing by the full pairing s_i (the normal gcd) makes t independent of
    how the facet is presented.  Only a facet with primitive normal yields a
    displacing probe: near a facet with label m > 1 (the normal -2 of P(1,2))
    the reduced disk has a Z_m cone point that Hamiltonian isotopies fix, so
    displaceable_by_probe skips such facets.  A facet index outside
    range(len(P.facets)) raises ValueError.
    """
    if not 0 <= facet_index < len(P.facets):
        raise ValueError(f"facet index {facet_index} is out of range for {len(P.facets)} facets")
    f = P.facets[facet_index]
    if not integrally_transverse(f, alpha):
        raise NotTransverse(f"direction {alpha} is not transverse to facet {facet_index}")
    table = [facet_index], [tuple(alpha)], _slopes(P, [alpha]).T
    return _probe_at(P, lam, table)


def displaceable_by_probe(P: MomentPolytope, lam, bound: int = DEFAULT_BOUND) -> Probe | None:
    """First probe covering lam, scanning facets with primitive normal in
    order, then directions."""
    return _probe_at(P, lam, _stored_table(P, bound))


def probe_scan(
    P: MomentPolytope, resolution: int, bound: int = DEFAULT_BOUND
) -> dict[tuple[Fraction, ...], Probe | None]:
    """Probe verdicts on the interior lattice of the bounding box.

    Grid step per axis is (axis width)/resolution; points are exact rationals
    and the scan order is ascending, so results are deterministic.  Each
    point's verdict is displaceable_by_probe's.  Raises ValueError, before
    building the grid, when it would have more than MAX_GRID_POINTS points.
    """
    if P.dimension > 2:
        raise DimensionUnsupported("grid scans are limited to dimensions 1 and 2")
    if not is_bounded(P):
        raise UnboundedPolytope("grid scan needs a bounded polytope")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if (resolution + 1) ** P.dimension > MAX_GRID_POINTS:
        raise ValueError(
            f"resolution {resolution} gives {(resolution + 1) ** P.dimension} grid points, "
            f"more than the {MAX_GRID_POINTS} a scan accepts"
        )
    table = _stored_table(P, bound)
    box = bounding_box(P)
    steps = [(hi - lo) / resolution for lo, hi in box]
    axes = [[lo + k * h for k in range(resolution + 1)] for (lo, _), h in zip(box, steps)]
    # l_g(lo + k h) = l_g(lo) + sum_j k_j v_gj h_j, scaled to integers by L
    origin = facet_values(P, [lo for lo, _ in box])
    rates = [[v * h for v, h in zip(f.normal, steps)] for f in P.facets]
    scale = math.lcm(*(x.denominator for x in itertools.chain(origin, *rates)))
    A = [int(x * scale) for x in origin]
    B = [[int(x * scale) for x in row] for row in rates]
    # every V_g, and every partial sum of it, is at most |A_g| + R sum_j |B_gj|
    vmax = max(abs(a) + resolution * sum(map(abs, row)) for a, row in zip(A, B))
    dtype = _value_dtype(vmax, table)
    K = np.indices((resolution + 1,) * P.dimension).reshape(P.dimension, -1).T
    V = np.array(A, dtype=dtype) + K @ np.array(B, dtype=dtype).T
    inside = (V > 0).all(axis=1)
    lams = [tuple(axis[k] for axis, k in zip(axes, ks)) for ks in K[inside].tolist()]
    return dict(zip(lams, _probes(lams, V[inside], scale, table)))
