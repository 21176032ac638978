"""Classification data for holomorphic disks bounded by a torus fiber.

A disk class is a vector of nonnegative degrees d, one per facet coordinate.
Index, area, and boundary class are linear in d; the actual maps are Blaschke
products per coordinate, with boundary modulus sqrt(l_j(lam)/pi).  The index-2
classes are exactly the unit vectors, and rebuilding the potential from them
must reproduce build_potential term for term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .novikov import NovikovSeries
from .polytope import MomentPolytope, facet_values, interior_values
from .potential import Potential, PotentialTerm, fiber_setup

DiskClass = tuple[int, ...]


def maslov_index(d: DiskClass) -> int:
    if any(x < 0 for x in d):
        raise ValueError("degrees must be nonnegative")
    return 2 * sum(d)


def disk_area(d: DiskClass, P: MomentPolytope, lam) -> Fraction:
    values = facet_values(P, lam)
    if len(d) != len(values):
        raise ValueError("degree vector must have one entry per facet")
    return sum((dj * lj for dj, lj in zip(d, values)), Fraction(0))


def boundary_class(d: DiskClass, P: MomentPolytope) -> tuple[int, ...]:
    if len(d) != len(P.facets):
        raise ValueError("degree vector must have one entry per facet")
    out = [0] * P.dimension
    for dj, f in zip(d, P.facets):
        for j, vj in enumerate(f.normal):
            out[j] += dj * vj
    return tuple(out)


def index_two_classes(P: MomentPolytope) -> list[DiskClass]:
    """The N unit degree vectors."""
    N = len(P.facets)
    return [tuple(int(i == j) for j in range(N)) for i in range(N)]


@dataclass(frozen=True)
class BlaschkeData:
    radii: tuple[float, ...]
    zeros: tuple[tuple[complex, ...], ...]
    phases: tuple[complex, ...]


def blaschke_data(
    P: MomentPolytope,
    lam,
    zeros: list[list[complex]],
    phases: list[complex] | None = None,
) -> BlaschkeData:
    """Package radii sqrt(l_j(lam)/pi) with per-coordinate zeros and phases."""
    values = interior_values(P, lam)
    if len(zeros) != len(values):
        raise ValueError("zeros must supply one list per facet coordinate")
    for zs in zeros:
        if any(abs(a) >= 1 for a in zs):
            raise ValueError("Blaschke zeros must lie strictly inside the unit disk")
    if phases is None:
        phases = [1.0 + 0j] * len(values)
    if any(not math.isclose(abs(p), 1.0, rel_tol=0, abs_tol=1e-12) for p in phases):
        raise ValueError("phases must have unit modulus")
    radii = tuple(math.sqrt(float(lj) / math.pi) for lj in values)
    return BlaschkeData(radii, tuple(tuple(zs) for zs in zeros), tuple(phases))


def blaschke_eval(b: BlaschkeData, z: complex) -> tuple[complex, ...]:
    """Component j: phase_j * r_j * prod_k (z - a_jk)/(1 - conj(a_jk) z)."""
    if abs(z) > 1 + 1e-9:
        raise ValueError("evaluation point must satisfy |z| <= 1")
    out = []
    for r, zs, phase in zip(b.radii, b.zeros, b.phases):
        w = phase * r
        for a in zs:
            w *= (z - a) / (1 - a.conjugate() * z)
        out.append(w)
    return tuple(out)


def potential_from_disks(
    P: MomentPolytope,
    lam,
    alpha: tuple[NovikovSeries, ...] | None = None,
    truncation=None,
) -> Potential:
    """Rebuild the potential from index-2 disk classes: term i has valuation
    disk_area(e_i) and exponent boundary_class(e_i).  Each area d . l(lam) is
    formed from the facet values fiber_setup computed."""
    lam, values, D, factors = fiber_setup(P, lam, alpha, truncation)
    terms = tuple(
        PotentialTerm(i, mult, tail, boundary_class(cls, P),
                      sum((dj * lj for dj, lj in zip(cls, values)), Fraction(0)))
        for i, (cls, (mult, tail)) in enumerate(zip(index_two_classes(P), factors))
    )
    return Potential(P.dimension, lam, terms, D)
