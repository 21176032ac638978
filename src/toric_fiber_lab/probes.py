"""Displaceability certificates from straight-line probes.

A probe enters the polytope from a point on the relative interior of a facet,
along an integer direction that pairs to 1 with the facet's primitive inward
normal, and ends where it exits the polytope.  Fibers strictly inside the
first half of a probe are displaceable.  All arithmetic here is exact.

One block kernel tests coverage.  A direction table pairs each (facet i,
direction alpha) once, with the slopes s_g = <v_g, alpha> of every facet,
all from one integer product of normals and directions, and keeps the
arrays every probe call reads (_Table).  A fiber is held as
integer numerators Lam over a common denominator Q, its facet values as the
integers V_g = L l_g(lam) for a common denominator L; on a grid
lam = lo + k h both are affine in k.  The probe from entry (i, alpha) covers
the fiber when V_g s_i > V_i W_g for every facet g, with W_g = |s_g| and
W_i = 0.  _first_probes tests a block of fibers against every table entry one
facet g at a time, so no (fibers, entries, facets) array is formed.  _probes
forms the covered fibers' bases and exits as integer numerators in the same
arrays and builds one Probe, with its Fractions, per distinct probe.  All of
it runs in int64 when a bound on every product formed is below 2**62 and on
Python integers otherwise, by the polytope kernel's rule (polytope.int_dtype).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
MAX_DIRECTIONS = 2**20  # largest (2 bound + 1)**dimension - 1 a direction table accepts


@dataclass(frozen=True)
class Probe:
    facet_index: int
    base: tuple[Fraction, ...]
    direction: tuple[int, ...]
    exit_parameter: Fraction | None  # None encodes an unbounded probe
    # base and exit parameter ("inf" if unbounded) as strings, formed with the probe
    strings: tuple[tuple[str, ...], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        exit_parameter = "inf" if self.exit_parameter is None else str(self.exit_parameter)
        object.__setattr__(self, "strings", (tuple(map(str, self.base)), exit_parameter))


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


def check_bound(bound: int, dimension: int) -> None:
    """Reject a bound below 1 or with more than MAX_DIRECTIONS nonzero directions."""
    if bound < 1:
        raise ValueError("bound must be positive")
    count = (2 * bound + 1) ** dimension - 1
    if count > MAX_DIRECTIONS:
        raise ValueError(
            f"bound {bound} gives {count} probe directions in dimension {dimension}, "
            f"more than the {MAX_DIRECTIONS} a table accepts"
        )


def _direction_table(P: MomentPolytope, bound: int):
    """Every facet with primitive normal, in order, with each direction of
    sup-norm <= bound pairing to 1 with it, in lexicographic order.  A normal
    with gcd m pairs to multiples of m only, so s_i = 1 picks out both.
    Returns the _Table of these entries."""
    check_bound(bound, P.dimension)
    box = itertools.product(range(-bound, bound + 1), repeat=P.dimension)
    alphas = [a for a in box if any(a)]
    S = _slopes(P, alphas)
    facets, cols = np.nonzero(S == 1)  # row-major: facet order, then direction order
    return _table(facets.tolist(), [alphas[c] for c in cols], S[:, cols].T)


class _Table(NamedTuple):
    """A direction table, one entry e = (facet i, direction alpha) per position.

    facets, alphas and C (C_e the lcm of entry e's -s_g < 0, 1 if none: its
    exit candidates' denominator) build the Probes.  The kernels read the
    same entries as arrays formed once with the table: facet_arr, alpha_arr
    and C_arr, the slopes S as (entries, facets), si = s_i, and W = |s_g|
    with W_i = 0.
    """

    facets: list[int]
    alphas: list[tuple[int, ...]]
    C: list[int]
    facet_arr: np.ndarray
    alpha_arr: np.ndarray
    C_arr: np.ndarray
    S: np.ndarray
    si: np.ndarray
    W: np.ndarray


def _table(facets: list[int], alphas: list[tuple[int, ...]], S: np.ndarray) -> _Table:
    """The _Table of the entries (facets[e], alphas[e]) with slopes S[e]."""
    C = [math.lcm(*(-s for s in row if s < 0)) for row in S.tolist()]
    entries, facet_arr = np.arange(len(facets)), np.array(facets, dtype=np.intp)
    W = np.abs(S)
    W[entries, facet_arr] = 0
    amax = max(map(abs, itertools.chain(*alphas)), default=1)
    return _Table(facets, alphas, C, facet_arr, np.array(alphas, dtype=int_dtype(amax)),
                  np.array(C, dtype=int_dtype(max(C, default=1))), S, S[entries, facet_arr], W)


def _stored_table(P: MomentPolytope, bound: int):
    """_direction_table(P, bound), kept on P like its vertices: one per bound."""
    tables = P.__dict__.setdefault("_direction_tables", {})
    if bound not in tables:
        tables[bound] = _direction_table(P, bound)
    return tables[bound]


def _row_dtype(lmax: int, Q: int, vmax: int, L: int, table: _Table):
    """The dtype for fibers Lam/Q, |Lam_j| <= lmax, with facet values V/L,
    |V_g| <= vmax.  The products formed, V_g s_i and V_i |s_g| (kernel),
    Lam_j L s_i and V_i alpha_j Q (bases), V_g s_i C_e/(-s_g) and V_i C_e
    (exits), are at most vmax smax cmax, lmax L smax or vmax amax Q; every
    integer formed is one, a factor of one, or a sum of two.  lam can be huge
    while V is small (a polytope far from the origin): vmax alone is no bound.
    """
    smax = int(np.abs(table.S).max(initial=1))
    amax = int(np.abs(table.alpha_arr).max(initial=1))
    lmax, vmax = max(lmax, 1), max(vmax, 1)
    return int_dtype(max(vmax * smax * max(table.C, default=1), lmax * L * smax, vmax * amax * Q))


def _first_probes(V: np.ndarray, table: _Table) -> np.ndarray:
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
    first = np.full(len(V), -1)
    if not table.facets:
        return first
    step = max(1, 2**14 // len(table.facets))
    for lo in range(0, len(V), step):
        block = V[lo : lo + step]
        Vi = block[:, table.facet_arr]
        covers = np.ones(Vi.shape, dtype=bool)
        for Vg, Wg in zip(block.T, table.W.T):
            covers &= Vg[:, None] * table.si > Vi * Wg
        first[lo : lo + step] = np.where(covers.any(axis=1), covers.argmax(axis=1), -1)
    return first


def _probes(Lam: np.ndarray, Q: int, V: np.ndarray, L: int, table: _Table) -> list[Probe | None]:
    """The probe of the first table entry covering each fiber Lam/Q, whose
    facet values are V/L, or None.

    With entry e = (i, alpha), d = L s_i and t = V_i/d, the base lam - t alpha
    is Lam d - V_i alpha Q over Q d, and the exit the least
    (V_g s_i - V_i s_g)/(-s_g d) over s_g < 0, over C_e d: V_i C_e plus the
    least V_g s_i C_e/(-s_g).  Rows with equal (e, base, exit) numerators
    share one Probe.
    """
    out: list[Probe | None] = [None] * len(V)
    first = _first_probes(V, table)
    rows = np.flatnonzero(first >= 0)
    if not len(rows):
        return out
    E, at, V = first[rows], np.arange(len(rows)), V[rows]
    S, i = table.S[E].astype(V.dtype), table.facet_arr[E]
    Vi, si, Ce = V[at, i], S[at, i], table.C_arr[E].astype(V.dtype)
    d = L * si
    base = Lam[rows] * d[:, None] - Vi[:, None] * (table.alpha_arr[E].astype(V.dtype) * Q)
    least = np.full(len(rows), -1, dtype=V.dtype)  # -1: no s_g < 0 yet
    for Vg, sg in zip(V.T, S.T):
        neg = sg < 0
        cand = Vg * (si * Ce // np.where(neg, -sg, 1))
        least = np.where(neg & ((least < 0) | (cand < least)), cand, least)
    exits = np.where(least < 0, -1, least + Vi * Ce)
    shared: dict[tuple[int, ...], Probe] = {}
    fraction = functools.cache(Fraction)  # equal (n, m) share one Fraction
    keys = zip(E.tolist(), d.tolist(), exits.tolist(), *base.T.tolist())
    for r, key in zip(rows.tolist(), keys):
        probe = shared.get(key)
        if probe is None:
            e, de, x, *b = key  # de = L s_i, the entry's d
            exit_parameter = None if x < 0 else fraction(x, table.C[e] * de)
            base_point = tuple(fraction(n, Q * de) for n in b)
            probe = Probe(table.facets[e], base_point, table.alphas[e], exit_parameter)
            shared[key] = probe
        out[r] = probe
    return out


def _probe_at(P: MomentPolytope, lam, table: _Table) -> Probe | None:
    """_probes for one fiber: Q is the lcm of lam's denominators, L that of
    its facet values'."""
    values, lam = facet_values(P, lam), [Fraction(x) for x in lam]
    Q, L = (math.lcm(*(x.denominator for x in xs)) for xs in (lam, values))
    Lam, V = [int(x * Q) for x in lam], [int(v * L) for v in values]
    dtype = _row_dtype(max(map(abs, Lam)), Q, max(map(abs, V)), L, table)
    return _probes(np.array([Lam], dtype=dtype), Q, np.array([V], dtype=dtype), L, table)[0]


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
    return _probe_at(P, lam, _table([facet_index], [tuple(alpha)], _slopes(P, [alpha]).T))


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
    lo = [a for a, _ in box]
    steps = [(b - a) / resolution for a, b in box]
    # lam = lo + k h scaled to integers by Q, and l_g(lam) = l_g(lo) + sum_j k_j v_gj h_j by L
    Q = math.lcm(*(x.denominator for x in lo + steps))
    origin = facet_values(P, lo)
    rates = [[v * h for v, h in zip(f.normal, steps)] for f in P.facets]
    L = math.lcm(*(x.denominator for x in itertools.chain(origin, *rates)))
    lo_Q, h_Q = [int(a * Q) for a in lo], [int(h * Q) for h in steps]
    A = [int(x * L) for x in origin]
    B = [[int(x * L) for x in row] for row in rates]
    # |Lam_j| <= |lo_j Q| + R |h_j Q|; V_g and its partial sums <= |A_g| + R sum_j |B_gj|
    lmax = max(abs(a) + resolution * abs(h) for a, h in zip(lo_Q, h_Q))
    vmax = max(abs(a) + resolution * sum(map(abs, row)) for a, row in zip(A, B))
    dtype = _row_dtype(lmax, Q, vmax, L, table)
    K = np.indices((resolution + 1,) * P.dimension).reshape(P.dimension, -1).T
    V = np.array(A, dtype=dtype) + K @ np.array(B, dtype=dtype).T
    inside = (V > 0).all(axis=1)
    Lam = np.array(lo_Q, dtype=dtype) + K[inside] * np.array(h_Q, dtype=dtype)
    axes = [[a + k * h for k in range(resolution + 1)] for a, h in zip(lo, steps)]
    lams = itertools.compress(itertools.product(*axes), inside.tolist())
    return dict(zip(lams, _probes(Lam, Q, V[inside], L, table)))
