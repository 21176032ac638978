"""Polytope parsing, exact facet arithmetic, vertices, boundedness."""

import itertools
import json
import math
import pickle
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

import toric_fiber_lab.polytope as polytope_mod
from toric_fiber_lab import (
    analyze,
    DimensionMismatch,
    EmptyInterior,
    NotInterior,
    SchemaError,
    UnboundedPolytope,
    ValidationError,
    bounding_box,
    enumerate_vertices,
    facet_values,
    is_bounded,
    is_interior,
    make_polytope,
    parse_polytope,
    polytope_to_json,
    primitive_normal,
    render_svg,
    report_to_json,
)
from toric_fiber_lab.polytope import Facet, MomentPolytope, format_point, interior_values
from conftest import (
    INTERVAL_JSON,
    MALFORMED_DOCUMENTS,
    corner_cut_polytope,
    fraction_solve,
    hexagon_polytope,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    strip_polytope,
    weighted_plane_polytope,
)

F = Fraction


def test_parse_interval():
    P = parse_polytope(INTERVAL_JSON)
    assert P.dimension == 1
    assert [f.normal for f in P.facets] == [(1,), (-1,)]
    assert [f.offset for f in P.facets] == [F(0), F(-1)]
    assert enumerate_vertices(P) == [(F(0),), (F(1),)]


def test_parse_shorthand_facets():
    P = parse_polytope(
        '{"dimension": 2, "facets": [[[1,0],0], [[0,1],0], [[1,1],1]]}'
    )
    assert [f.normal for f in P.facets] == [(1, 0), (0, 1), (1, 1)]
    assert P.facets[2].offset == F(1)


def test_parse_rejects_zero_normal():
    with pytest.raises(SchemaError):
        parse_polytope('{"dimension": 1, "facets": [[[0], 0], [[1], 0]]}')


def test_parse_rejects_wrong_normal_length():
    with pytest.raises(DimensionMismatch):
        parse_polytope('{"dimension": 2, "facets": [[[1], 0], [[1, 0], 0]]}')


def test_parse_rejects_malformed_documents():
    for text in ("not json", "[1,2]", '{"dimension": 2}', '{"facets": []}'):
        with pytest.raises(SchemaError):
            parse_polytope(text)
    with pytest.raises(SchemaError):
        parse_polytope('{"dimension": 1, "facets": [[[1], "x/y"], [[-1], -1]]}')


@pytest.mark.parametrize("text, message", MALFORMED_DOCUMENTS.values(),
                         ids=list(MALFORMED_DOCUMENTS))
def test_parse_names_what_is_malformed(text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_polytope(text)


def test_make_polytope_rejects_a_fractional_normal():
    with pytest.raises(SchemaError, match=re.escape("normal [1.5, 0] must be integral")):
        make_polytope(2, [([1.5, 0], F(0)), ([0, 1], F(0))])


def _cube(n):
    # [0, 1]^n: 2n facets
    facets = [[[s * (i == j) for i in range(n)], (s - 1) // 2] for j in range(n) for s in (1, -1)]
    return json.dumps({"dimension": n, "facets": facets})


def test_parse_rejects_kernel_work_past_the_bound():
    # the kernel would form C(21, 10) 2^11 = 7.2e8 minors (about 24 s)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="722362368 minors, more than"):
        parse_polytope(_cube(10))
    assert time.perf_counter() - start < 1


def test_parse_keeps_the_largest_kernel_work_below_the_bound():
    # C(17, 8) 2^9 = 1.2e7 minors, below polytope.MAX_KERNEL_MINORS
    P = parse_polytope(_cube(8))
    assert is_bounded(P) and P.witness == (F(1, 2),) * 8


_SLABS = [(s, -k) for k in range(1, 11) for s in (1, -1)]  # |x_1| <= k, k = 1..10


@pytest.mark.parametrize("n, pairs", [(9, [(1, 0)]), (12, [(1, 0)]), (16, [(1, 0)]), (12, _SLABS)],
                         ids=["half-space-9", "half-space-12", "half-space-16", "20-slabs-12"])
def test_half_space_parses_in_any_dimension(n, pairs):
    # facets s x_1 >= c have normals of rank 1, so the kernel runs on one
    # column; at rank 12 the 20 slab facets would need 2.4e9 minors
    facets = [[[s] + [0] * (n - 1), c] for s, c in pairs]
    start = time.perf_counter()
    P = parse_polytope(json.dumps({"dimension": n, "facets": facets}))
    assert time.perf_counter() - start < 0.5
    assert not is_bounded(P) and is_interior(P, P.witness)


# |x_j| <= 2 for j <= 4, |x_1 + x_j| <= 2 for j = 2, 3, 4 and |x_2 + x_3| <= 2 in R^8:
# 16 normals of rank 4, so P is a 4-D polytope Q on the first four coordinates times R^4
RANK_4_IN_8D = ('{"dimension":8,"facets":[[[1,0,0,0,0,0,0,0],-2],[[-1,0,0,0,0,0,0,0],-2],'
                '[[0,1,0,0,0,0,0,0],-2],[[0,-1,0,0,0,0,0,0],-2],[[0,0,1,0,0,0,0,0],-2],'
                '[[0,0,-1,0,0,0,0,0],-2],[[0,0,0,1,0,0,0,0],-2],[[0,0,0,-1,0,0,0,0],-2],'
                '[[1,1,0,0,0,0,0,0],-2],[[-1,-1,0,0,0,0,0,0],-2],[[1,0,1,0,0,0,0,0],-2],'
                '[[-1,0,-1,0,0,0,0,0],-2],[[1,0,0,1,0,0,0,0],-2],[[-1,0,0,-1,0,0,0,0],-2],'
                '[[0,1,1,0,0,0,0,0],-2],[[0,-1,-1,0,0,0,0,0],-2]]}')


def test_a_lower_rank_input_runs_the_ray_kernel_once(monkeypatch):
    # the normals' RREF picks the four pivot columns before any kernel work, so
    # _rays runs once, on those columns, and never at rank 8
    rays, calls = polytope_mod._rays, []
    monkeypatch.setattr(polytope_mod, "_rays",
                        lambda normals, C, L: calls.append(len(normals[0])) or rays(normals, C, L))
    P = parse_polytope(RANK_4_IN_8D)
    assert calls == [4]
    # every normal is 0 on x_5..x_8: no 8 facet hyperplanes meet in a point, and
    # e_8 is a recession direction
    assert all(f.normal[4:] == (0,) * 4 for f in P.facets)
    assert enumerate_vertices(P) == [] and not is_bounded(P)
    # Q lies in the box |x_j| <= 2, so it has no recession direction, and the
    # witness is the average of Q's vertices, zero off the pivot columns
    Q = MomentPolytope(4, tuple(Facet(f.normal[:4], f.offset) for f in P.facets), (F(0),) * 4)
    corners = _reference_vertices(Q)
    average = tuple(sum(v[j] for v in corners) / len(corners) for j in range(4))
    assert P.witness == average + (F(0),) * 4 and is_interior(P, P.witness)


def test_make_polytope_rejects_empty_facet_list():
    with pytest.raises(SchemaError, match="facets must be a nonempty list"):
        make_polytope(1, [])
    with pytest.raises(SchemaError, match="facets must be a nonempty list"):
        parse_polytope('{"dimension": 2, "facets": []}')


def test_make_polytope_rejects_a_nonpositive_dimension():
    with pytest.raises(SchemaError, match="dimension must be a positive integer"):
        make_polytope(0, [((), F(0))])


def test_witness_validation():
    with pytest.raises(EmptyInterior):
        make_polytope(1, [((1,), F(0)), ((-1,), F(-1))], witness=[F(2)])
    P = make_polytope(1, [((1,), F(0)), ((-1,), F(-1))], witness=[F(1, 4)])
    assert P.witness == (F(1, 4),)


def test_empty_interior_detected():
    # x >= 1 and x <= 0 simultaneously
    with pytest.raises(EmptyInterior):
        make_polytope(1, [((1,), F(1)), ((-1,), F(0))])


def test_facet_values_interval():
    P = parse_polytope(INTERVAL_JSON)
    assert facet_values(P, (F(1, 2),)) == (F(1, 2), F(1, 2))


def test_facet_values_weighted_plane():
    P = weighted_plane_polytope(3, 5)
    assert facet_values(P, (F(5, 3), F(5, 3))) == (F(5, 3), F(5, 3), F(5, 3))


def test_facet_values_orbifold_interval():
    P = orbifold_interval_polytope()
    assert facet_values(P, (F(2, 3),)) == (F(2, 3), F(2, 3))


def test_is_interior():
    P = parse_polytope(INTERVAL_JSON)
    assert is_interior(P, (F(1, 2),))
    assert not is_interior(P, (F(0),))
    B = plane_blowup_polytope()
    assert not is_interior(B, (F(1, 4), F(1, 4)))
    assert is_interior(B, (F(1), F(1)))


def test_interior_values():
    B = plane_blowup_polytope()
    assert interior_values(B, (F(1), F(1))) == facet_values(B, (F(1), F(1)))
    with pytest.raises(NotInterior, match=r"^fiber \(1/4, 1/4\) is not interior$"):
        interior_values(B, (F(1, 4), F(1, 4)))
    assert format_point((F(-1, 2), 3)) == "(-1/2, 3)"


def test_primitive_normal():
    P = orbifold_interval_polytope()
    assert primitive_normal(P.facets[1]) == (-1,)
    W = weighted_plane_polytope(3, 5)
    assert primitive_normal(W.facets[2]) == (-5, -3)
    assert primitive_normal(type(W.facets[0])((4, -6), F(0))) == (2, -3)


def test_vertices_weighted_plane():
    W = weighted_plane_polytope(3, 5)
    assert enumerate_vertices(W) == [(F(0), F(0)), (F(0), F(5)), (F(3), F(0))]


def test_vertices_of_unbounded_polytope():
    B = plane_blowup_polytope()
    assert enumerate_vertices(B) == [(F(0), F(1)), (F(1), F(0))]
    half = make_polytope(2, [((1, 0), F(0))], witness=[F(1), F(0)])
    assert enumerate_vertices(half) == []
    assert not is_bounded(half)


def test_boundedness():
    assert is_bounded(weighted_plane_polytope(1, 1))
    assert not is_bounded(plane_blowup_polytope())
    assert is_bounded(corner_cut_polytope(F(1, 2)))


def test_unbounded_witness_search():
    B = plane_blowup_polytope()
    assert is_interior(B, B.witness)
    assert B.witness == (F(1), F(1))
    # a strip only 1/16 wide
    strip = make_polytope(2, [((1, 0), F(0)), ((-1, 0), F(-1, 16)), ((0, 1), F(0))])
    assert is_interior(strip, strip.witness)
    assert strip.witness == (F(1, 32), F(1, 2))
    # the blow-up of C^3 at the origin, {x, y, z >= 0, x + y + z >= 3}
    C3 = make_polytope(
        3, [((1, 0, 0), F(0)), ((0, 1, 0), F(0)), ((0, 0, 1), F(0)), ((1, 1, 1), F(3))]
    )
    assert is_interior(C3, C3.witness)
    assert C3.witness == (F(4, 3),) * 3
    # a half-plane has no vertex: its witness comes from the column of x
    half = make_polytope(2, [((1, 0), F(0))])
    assert is_interior(half, half.witness)
    assert half.witness == (F(1), F(0))


def test_witness_reaches_far_vertices():
    # 1 <= x - 10y <= 2, y >= 5: the vertices (51, 5) and (52, 5) lie far
    # from every offset, and (10, 1) is the one recession direction
    P = make_polytope(2, [((1, -10), F(1)), ((-1, 10), F(-2)), ((0, 1), F(5))])
    assert is_interior(P, P.witness)
    assert P.witness == (F(113, 2), F(11, 2))


def test_bounding_box():
    W = weighted_plane_polytope(3, 5)
    assert bounding_box(W) == ((F(0), F(3)), (F(0), F(5)))


@pytest.mark.parametrize("make", [plane_blowup_polytope, strip_polytope],
                         ids=["plane_blowup", "strip"])
def test_bounding_box_of_an_unbounded_polytope_is_refused(make):
    # no box holds the blow-up, though it has vertices, nor the strip, which has none
    with pytest.raises(UnboundedPolytope):
        bounding_box(make())


def test_json_roundtrip():
    P = corner_cut_polytope(F(1, 2))
    doc = polytope_to_json(P)
    back = parse_polytope(json.dumps(doc))
    assert back.facets == P.facets
    assert back.witness == P.witness


def test_unimodular_invariance_of_facet_values():
    # normals transform by the inverse transpose, points by the matrix
    P = weighted_plane_polytope(3, 5)
    U = [[1, 1], [0, 1]]  # x' = x + y, y' = y; inverse transpose rows: (1,0),(-1,1)
    Uinvt = [[1, 0], [-1, 1]]
    moved = make_polytope(
        2,
        [
            (
                tuple(
                    sum(Uinvt[r][s] * f.normal[s] for s in range(2)) for r in range(2)
                ),
                f.offset,
            )
            for f in P.facets
        ],
        witness=[
            sum(U[r][s] * P.witness[s] for s in range(2)) for r in range(2)
        ],
    )
    for lam in [(F(1), F(1)), (F(5, 3), F(5, 3)), (F(1, 2), F(3, 2))]:
        ulam = tuple(sum(U[r][s] * lam[s] for s in range(2)) for r in range(2))
        assert facet_values(moved, ulam) == facet_values(P, lam)


def test_translation_invariance_of_facet_values():
    P = weighted_plane_polytope(3, 5)
    tau = (F(1, 3), F(-2, 7))
    moved = make_polytope(
        2,
        [
            (
                f.normal,
                f.offset + sum(t * v for t, v in zip(tau, f.normal)),
            )
            for f in P.facets
        ],
        witness=[w + t for w, t in zip(P.witness, tau)],
    )
    for lam in [(F(1), F(1)), (F(5, 3), F(5, 3))]:
        shifted = tuple(x + t for x, t in zip(lam, tau))
        assert facet_values(moved, shifted) == facet_values(P, lam)


def test_vertices_lie_on_boundary():
    for P in (weighted_plane_polytope(2, 3), corner_cut_polytope(F(1, 2))):
        for v in enumerate_vertices(P):
            values = facet_values(P, v)
            assert not is_interior(P, v)
            assert sum(1 for x in values if x == 0) >= P.dimension


def _pairing(normal, x):
    return sum(a * b for a, b in zip(normal, x))


def _reference_vertices(P):
    # solve every n-subset of facets; keep the points meeting every inequality
    found = set()
    for subset in itertools.combinations(P.facets, P.dimension):
        x = fraction_solve([[F(a) for a in f.normal] for f in subset], [f.offset for f in subset])
        if x is not None and all(_pairing(f.normal, x) >= f.offset for f in P.facets):
            found.add(tuple(x))
    return sorted(found)


def _reference_bounded(P):
    # every cofactor ray of n - 1 normals with entries in [-2, 2] has
    # |d_i| <= (n-1)! 2^(n-1), so a nonzero recession direction lies in this box
    r = math.factorial(P.dimension - 1) * 2 ** (P.dimension - 1)
    return not any(
        any(d) and all(_pairing(f.normal, d) >= 0 for f in P.facets)
        for d in itertools.product(range(-r, r + 1), repeat=P.dimension)
    )


def _box_cut_finds_a_witness(P, vertices, bounded):
    # an independent witness search on the references above: whether the
    # vertex average of P cut by the box |x_j| <= 2M + 1 is interior, M the
    # largest |coordinate| of a vertex, or max|c_i| without one
    n, cut = P.dimension, P
    if not bounded:
        half = 2 * max([abs(x) for v in vertices for x in v]
                       or [abs(f.offset) for f in P.facets]) + 1
        box = [Facet(tuple(s * (i == j) for i in range(n)), -half)
               for j in range(n) for s in (1, -1)]
        cut = MomentPolytope(n, P.facets + tuple(box), P.witness)
    corners = _reference_vertices(cut)
    return bool(corners) and is_interior(
        P, tuple(sum(v[j] for v in corners) / len(corners) for j in range(n)))


def _random_facets(rng, n, basis=None):
    # 1 to 3n + 1 facets; each normal is nonzero with entries in [-2, 2], or a
    # combination of the basis vectors with coefficients in [-1, 1]
    facets, m = [], rng.randint(1, 3 * n + 1)
    while len(facets) < m:
        if basis is None:
            normal = tuple(rng.randint(-2, 2) for _ in range(n))
        else:
            cs = [rng.randint(-1, 1) for _ in basis]
            normal = tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n))
        if any(normal):
            facets.append(Facet(normal, F(rng.randint(-6, 6), rng.randint(1, 3))))
    return facets


def test_vertices_and_boundedness_match_the_definitions():
    # random inequality systems, empty and lower-dimensional ones included,
    # and in dimensions 2 and 3 twenty more whose normals have rank below n
    rng, low = random.Random(2), random.Random(3)
    for n in (1, 2, 3):
        seen = {"bounded": 0, "unbounded": 0, "vertices": 0, "interior": 0, "empty": 0}
        systems = [_random_facets(rng, n) for _ in range(40)]
        for _ in range(20 if n > 1 else 0):
            rank, basis = low.randint(1, n - 1), []
            while len(basis) < rank:
                if any(b := tuple(low.randint(-1, 1) for _ in range(n))):
                    basis.append(b)
            systems.append(_random_facets(low, n, basis))
        for facets in systems:
            P = MomentPolytope(n, tuple(facets), (F(0),) * n)
            vertices, bounded = enumerate_vertices(P), is_bounded(P)
            assert vertices == _reference_vertices(P)
            assert bounded == _reference_bounded(P)
            seen["bounded" if bounded else "unbounded"] += 1
            seen["vertices"] += bool(vertices)
            pairs = [(f.normal, f.offset) for f in facets]
            if _box_cut_finds_a_witness(P, vertices, bounded):
                Q = make_polytope(n, pairs)
                assert is_interior(Q, Q.witness)
                seen["interior"] += 1
            else:
                with pytest.raises(EmptyInterior):
                    make_polytope(n, pairs)
                seen["empty"] += 1
        assert min(seen.values()) >= 10  # every kind is exercised in every dimension


@pytest.mark.parametrize("c, dtype", [(2**61 - 1, np.int64), (2**61, object)])
def test_vertex_dtype_follows_overflow_bound(c, dtype, monkeypatch):
    # on the interval [0, c] the kernel's bound (n+1) n! a^n max|C| is 2c:
    # just below 2**62 in the first case and equal to it in the second
    P = make_polytope(1, [((1,), F(0)), ((-1,), F(-c))])
    kernel, seen = polytope_mod._int_cross, set()

    def recorded(M):
        seen.add(M.dtype)
        return kernel(M)

    monkeypatch.setattr(polytope_mod, "_int_cross", recorded)
    # make_polytope already stored the geometry, so run the kernel itself
    polytope_mod._cone(P)
    assert enumerate_vertices(P) == _reference_vertices(P) == [(F(0),), (F(c),)]
    assert seen == {np.dtype(dtype)}
    assert P.witness == (F(c, 2),)


# -- stored geometry -----------------------------------------------------------


def test_enumerate_vertices_returns_a_fresh_list():
    P = weighted_plane_polytope(3, 5)
    first = enumerate_vertices(P)
    expected = list(first)
    first.append((F(9), F(9)))
    first[0] = (F(-1), F(-1))
    assert enumerate_vertices(P) == expected == _reference_vertices(P)
    assert enumerate_vertices(P) is not enumerate_vertices(P)
    assert bounding_box(P) == ((F(0), F(3)), (F(0), F(5)))


@pytest.mark.parametrize("P", [weighted_plane_polytope(3, 5), plane_blowup_polytope()],
                         ids=["bounded", "unbounded"])
def test_stored_geometry_leaves_equality_hash_and_repr_alone(P):
    computed = MomentPolytope(P.dimension, P.facets, P.witness)
    blank = MomentPolytope(P.dimension, P.facets, P.witness)  # nothing computed
    before = repr(computed), hash(computed)
    enumerate_vertices(computed), is_bounded(computed)
    assert (repr(computed), hash(computed)) == (repr(blank), hash(blank)) == before
    assert computed == blank and blank == computed and computed == P
    assert len({computed, blank}) == 1


def test_pickle_round_trip_keeps_the_polytope():
    P = weighted_plane_polytope(2, 3)
    assert pickle.loads(pickle.dumps(P)) == P  # nothing computed yet
    verts, bounded = enumerate_vertices(P), is_bounded(P)
    back = pickle.loads(pickle.dumps(P))
    assert back == P and hash(back) == hash(P) and repr(back) == repr(P)
    assert enumerate_vertices(back) == verts and is_bounded(back) == bounded


def _count_kernel_runs(monkeypatch):
    kernel, runs = polytope_mod._cone, []

    def counted(Q):
        runs.append(Q)
        return kernel(Q)

    monkeypatch.setattr(polytope_mod, "_cone", counted)
    return runs


def test_parse_and_analysis_run_each_geometry_kernel_once(monkeypatch):
    # make_polytope hands the geometry it computed for the witness to the
    # polytope it returns
    doc = polytope_to_json(hexagon_polytope())
    del doc["interior_witness"]  # so that parsing searches for one
    text = json.dumps(doc)
    runs = _count_kernel_runs(monkeypatch)
    report = analyze(parse_polytope(text), seed=0)
    report_to_json(report)
    render_svg(report)
    assert len(runs) == 1


@pytest.mark.parametrize("make", [hexagon_polytope, plane_blowup_polytope],
                         ids=["bounded", "unbounded"])
def test_handed_over_geometry_matches_a_fresh_computation(make):
    P = make()
    assert "_geometry" in P.__dict__
    blank = MomentPolytope(P.dimension, P.facets, (Fraction(0),) * P.dimension)
    assert P._geometry == polytope_mod._cone(blank)
    assert P.witness == P._geometry[2]  # the witness is the kernel's


def test_one_analysis_runs_the_vertex_kernel_at_most_once(monkeypatch):
    # a supplied witness leaves the kernel to the first question asked
    P = parse_polytope(json.dumps(polytope_to_json(hexagon_polytope())))
    runs = _count_kernel_runs(monkeypatch)
    report = analyze(P, seed=0)
    report_to_json(report)
    render_svg(report)
    assert len(runs) == 1
    assert enumerate_vertices(P) == _reference_vertices(P)
    assert len(runs) == 1
