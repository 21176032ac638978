"""Displaceability certificates from straight-line probes.

A probe enters the polytope from a point on the relative interior of a facet,
along an integer direction that pairs to 1 with the facet's primitive inward
normal, and ends where it exits the polytope.  Fibers strictly inside the
first half of a probe are displaceable.  All arithmetic here is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionUnsupported, NotTransverse, UnboundedPolytope
from .polytope import (
    MomentPolytope,
    bounding_box,
    facet_values,
    is_bounded,
    is_interior,
    normal_gcd,
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
    values = facet_values(P, lam)
    slopes = [sum(a * b for a, b in zip(g.normal, alpha)) for g in P.facets]
    t = values[facet_index] / slopes[facet_index]
    if t <= 0 or any(
        v <= t * abs(s) for g, (v, s) in enumerate(zip(values, slopes)) if g != facet_index
    ):
        return None
    exits = [(v - t * s) / -s for v, s in zip(values, slopes) if s < 0]
    base = tuple(Fraction(x) - t * a for x, a in zip(lam, alpha))
    return Probe(facet_index, base, tuple(alpha), min(exits) if exits else None)


def _directions(n: int, bound: int):
    """Nonzero integer vectors with sup-norm <= bound, lexicographic order."""
    for alpha in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(alpha):
            yield alpha


def displaceable_by_probe(P: MomentPolytope, lam, bound: int = DEFAULT_BOUND) -> Probe | None:
    """First probe covering lam, scanning facets with primitive normal in
    order, then directions."""
    for facet_index, f in enumerate(P.facets):
        if normal_gcd(f) != 1:
            continue
        for alpha in _directions(P.dimension, bound):
            if not integrally_transverse(f, alpha):
                continue
            probe = probe_through(P, lam, facet_index, alpha)
            if probe is not None:
                return probe
    return None


def probe_scan(
    P: MomentPolytope, resolution: int, bound: int = DEFAULT_BOUND
) -> dict[tuple[Fraction, ...], Probe | None]:
    """Probe verdicts on the interior lattice of the bounding box.

    Grid step per axis is (axis width)/resolution; points are exact rationals
    and the scan order is ascending, so results are deterministic.
    """
    if P.dimension > 2:
        raise DimensionUnsupported("grid scans are limited to dimensions 1 and 2")
    if not is_bounded(P):
        raise UnboundedPolytope("grid scan needs a bounded polytope")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    box = bounding_box(P)
    axes = []
    for lo, hi in box:
        step = (hi - lo) / resolution
        axes.append([lo + k * step for k in range(resolution + 1)])
    out: dict[tuple[Fraction, ...], Probe | None] = {}
    for pt in itertools.product(*axes):
        if is_interior(P, pt):
            out[tuple(pt)] = displaceable_by_probe(P, pt, bound)
    return out
