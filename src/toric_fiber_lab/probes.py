"""Displaceability certificates from straight-line probes.

A probe enters the polytope from a point on the relative interior of a facet,
along an integer direction that pairs to 1 with the facet's primitive inward
normal, and ends where it exits the polytope.  Fibers strictly inside the
first half of a probe are displaceable.  All arithmetic here is exact.

The covering test runs on Python integers.  A direction table pairs each
(facet i, direction alpha) once, with the slopes s_g = <v_g, alpha> of every
facet.  A fiber's facet values are scaled by a common denominator L to the
integers V_g = L l_g(lam); on a grid lam = lo + k h they are
V_g = A_g + sum_j k_j B_gj with A and B computed once per scan.  The fiber is
interior when every V_g > 0, and the probe from entry (i, alpha) covers it
when V_g s_i > V_i |s_g| for every other facet g.  Fractions (base, exit
parameter) are built only for the probe that is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionUnsupported, NotTransverse, UnboundedPolytope
from .polytope import (
    MomentPolytope,
    bounding_box,
    facet_values,
    is_bounded,
    primitive_normal,
)

DEFAULT_BOUND = 3


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
    if all(a == 0 for a in alpha):
        raise ValueError("direction must be nonzero")
    return sum(a * b for a, b in zip(primitive_normal(f), alpha)) == 1


def _slopes(P: MomentPolytope, alpha) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(f.normal, alpha)) for f in P.facets)


def _entry(facet_index: int, alpha, slopes: tuple[int, ...]):
    """One direction-table row: (i, alpha, slopes, others), where others lists
    (g, |s_g|) for the facets g != i with s_g != 0.  A facet with s_g = 0
    needs only V_g > 0, which the interior test already checks."""
    others = tuple((g, abs(s)) for g, s in enumerate(slopes) if g != facet_index and s)
    return facet_index, tuple(alpha), slopes, others


def _directions(n: int, bound: int):
    """Nonzero integer vectors with sup-norm <= bound, lexicographic order."""
    for alpha in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(alpha):
            yield alpha


def _direction_table(P: MomentPolytope, bound: int) -> list:
    """Every facet with primitive normal, in order, with each direction of
    sup-norm <= bound pairing to 1 with it, in lexicographic order.  A normal
    with gcd m pairs to multiples of m only, so s_i = 1 picks out both."""
    if bound < 1:
        raise ValueError("bound must be positive")
    paired = [(alpha, _slopes(P, alpha)) for alpha in _directions(P.dimension, bound)]
    return [
        _entry(i, alpha, slopes)
        for i in range(len(P.facets))
        for alpha, slopes in paired
        if slopes[i] == 1
    ]


def _first_probe(lam, values, scale: int, table) -> Probe | None:
    """The probe of the first table entry that covers lam, or None.

    values are the integers V_g = scale * l_g(lam).  With t = l_i(lam)/s_i the
    parameter from facet i to lam, the probe covers lam exactly when t > 0 and
    l_g(lam) > t|s_g| for every other facet g; scaled, that is V_i > 0 and
    V_g s_i > V_i |s_g|.  Together these hold only if every V_g > 0, so a
    fiber off the open polytope is never covered.
    """
    if min(values) <= 0:
        return None
    for i, alpha, slopes, others in table:
        vi, si = values[i], slopes[i]
        if all(values[g] * si > vi * w for g, w in others):
            # t = vi/d; the base is lam - t alpha, the exit the least
            # (l_g - t s_g)/(-s_g) = (V_g s_i - V_i s_g)/(-s_g d) over s_g < 0
            d = scale * si
            base = tuple(Fraction(x.numerator * d - vi * a * x.denominator, x.denominator * d)
                         for x, a in zip(lam, alpha))
            exits = [Fraction(v * si - vi * s, -s * d) for v, s in zip(values, slopes) if s < 0]
            return Probe(i, base, alpha, min(exits) if exits else None)
    return None


def _probe_at(P: MomentPolytope, lam, table) -> Probe | None:
    lam = tuple(Fraction(x) for x in lam)
    values = facet_values(P, lam)
    scale = math.lcm(*(v.denominator for v in values))
    return _first_probe(lam, [int(v * scale) for v in values], scale, table)


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
    displaceable_by_probe skips such facets.
    """
    f = P.facets[facet_index]
    if not integrally_transverse(f, alpha):
        raise NotTransverse(f"direction {alpha} is not transverse to facet {facet_index}")
    return _probe_at(P, lam, [_entry(facet_index, alpha, _slopes(P, alpha))])


def displaceable_by_probe(P: MomentPolytope, lam, bound: int = DEFAULT_BOUND) -> Probe | None:
    """First probe covering lam, scanning facets with primitive normal in
    order, then directions."""
    return _probe_at(P, lam, _direction_table(P, bound))


def probe_scan(
    P: MomentPolytope, resolution: int, bound: int = DEFAULT_BOUND
) -> dict[tuple[Fraction, ...], Probe | None]:
    """Probe verdicts on the interior lattice of the bounding box.

    Grid step per axis is (axis width)/resolution; points are exact rationals
    and the scan order is ascending, so results are deterministic.  Each
    point's verdict is displaceable_by_probe's.
    """
    if P.dimension > 2:
        raise DimensionUnsupported("grid scans are limited to dimensions 1 and 2")
    if not is_bounded(P):
        raise UnboundedPolytope("grid scan needs a bounded polytope")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    table = _direction_table(P, bound)
    box = bounding_box(P)
    steps = [(hi - lo) / resolution for lo, hi in box]
    axes = [[lo + k * h for k in range(resolution + 1)] for (lo, _), h in zip(box, steps)]
    # l_g(lo + k h) = l_g(lo) + sum_j k_j v_gj h_j, scaled to integers by L
    origin = facet_values(P, [lo for lo, _ in box])
    rates = [[v * h for v, h in zip(f.normal, steps)] for f in P.facets]
    scale = math.lcm(*(x.denominator for x in itertools.chain(origin, *rates)))
    A = [int(x * scale) for x in origin]
    B = [[int(x * scale) for x in row] for row in rates]
    out: dict[tuple[Fraction, ...], Probe | None] = {}
    for ks in itertools.product(range(resolution + 1), repeat=P.dimension):
        values = [a + sum(k * b for k, b in zip(ks, row)) for a, row in zip(A, B)]
        if min(values) > 0:
            lam = tuple(axis[k] for axis, k in zip(axes, ks))
            out[lam] = _first_probe(lam, values, scale, table)
    return out
