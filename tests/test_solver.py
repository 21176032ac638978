"""Candidate enumeration, leading roots, and both lifting routes.

Lifted solutions are cross-checked against the self-contained brute-force
solver in oracles.py, which shares no arithmetic with the package.
"""

import cmath
import itertools
import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

import toric_fiber_lab.solver as solver_mod
from toric_fiber_lab import (
    DegenerateDirection,
    Inconsistent,
    LeadingSystem,
    NoConvergence,
    Potential,
    PotentialTerm,
    SingularLeadingHessian,
    ToricFiberError,
    ValidationError,
    build_potential,
    certificates_at_fiber,
    constant_series,
    eval_gradient,
    eval_hessian,
    facet_values,
    find_critical_fibers,
    graded_lift,
    is_bounded,
    leading_system,
    make_polytope,
    newton_lift,
    one,
    probe_scan,
    series,
    solve_leading,
    tropical_candidates,
)
from toric_fiber_lab.novikov import INF, _shifted
import toric_fiber_lab.polytope as polytope_mod
from conftest import (
    BENCH_CASES,
    COMPARE_TOL,
    corner_cut_polytope,
    fraction_solve,
    hexagon_polytope,
    interval_polytope,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    weighted_plane_polytope,
    zero_series,
)
from oracles import (
    d_add,
    d_mul,
    dict_of_series,
    is_critical,
    oracle_lift,
    series_match,
    terms_of_potential,
)

F = Fraction


# benchmark case -> (polytope, number of certificates find_critical_fibers
# ships), for every case but the hexagon, whose leading system is not binomial
FIXTURES = {
    name: (BENCH_CASES[name], count)
    for name, count in {
        "interval": 2,
        "plane_blowup": 1,
        "P111": 3,
        "P123": 6,
        "P135": 9,
        "orbifold_P12": 3,
        "square": 4,
        "corner_cut_0": 4,
        "corner_cut_1/2": 5,
        "cube": 8,
        "P3": 4,
    }.items()
}


# -- tropical candidates -------------------------------------------------------


def test_candidates_interval():
    cands = tropical_candidates(interval_polytope())
    assert [c.fiber for c in cands] == [(F(1, 2),)]
    assert cands[0].per_direction_minima == ((0, 1),)


def test_candidates_plane_blowup():
    cands = tropical_candidates(plane_blowup_polytope())
    assert [c.fiber for c in cands] == [(F(1), F(1))]


def test_candidates_weighted_planes():
    for n1, n2 in ((1, 1), (2, 3), (3, 5)):
        cands = tropical_candidates(weighted_plane_polytope(n1, n2))
        lam = F(n1 * n2, n1 + n2 + 1)
        assert [c.fiber for c in cands] == [(lam, lam)]


def test_candidates_orbifold_interval():
    cands = tropical_candidates(orbifold_interval_polytope())
    assert [c.fiber for c in cands] == [(F(2, 3),)]


def test_candidates_corner_cut():
    assert [c.fiber for c in tropical_candidates(corner_cut_polytope(0))] == [
        (F(0), F(0))
    ]
    assert [c.fiber for c in tropical_candidates(corner_cut_polytope(F(1, 2)))] == [
        (F(0), F(0)),
        (F(1, 2), F(1, 2)),
    ]



def _pair_solutions(P, minimal):
    """Tie points from the definition: one Fraction solve per pair choice.

    Keeps each interior solution where every direction's least facet value
    is attained at least twice, with the per-direction minimal facets; with
    minimal=True only when a pair choice solved by it picks minimal pairs only.
    """
    normals = [f.normal for f in P.facets]
    supports = [[i for i, v in enumerate(normals) if v[j] != 0] for j in range(P.dimension)]
    choices = {}
    for pairs in itertools.product(*(itertools.combinations(s, 2) for s in supports)):
        rows = [[F(a - b) for a, b in zip(normals[i], normals[k])] for i, k in pairs]
        lam = fraction_solve(rows, [P.facets[i].offset - P.facets[k].offset for i, k in pairs])
        if lam is not None:
            choices.setdefault(tuple(lam), []).append(pairs)
    found = {}
    for lam, pair_choices in choices.items():
        values = facet_values(P, lam)
        if any(v <= 0 for v in values):
            continue
        least = [min(values[i] for i in s) for s in supports]
        minima = tuple(tuple(i for i in s if values[i] == m) for s, m in zip(supports, least))
        if any(len(S) < 2 for S in minima):
            continue
        if minimal and not any(
            all(values[i] == values[k] == m for (i, k), m in zip(pairs, least))
            for pairs in pair_choices
        ):
            continue
        found[lam] = minima
    return sorted(found.items())


def _sixteen_gon():
    # the primitive normals v with max |v_j| <= 2, offsets -round(10 |v|)
    normals = [v for v in itertools.product(range(-2, 3), repeat=2) if math.gcd(*v) == 1]
    return make_polytope(2, [(v, F(-round(10 * math.hypot(*v)))) for v in normals])


@pytest.mark.parametrize(
    "make",
    list(BENCH_CASES.values()) + [lambda: _twelve_line_polytope(), _sixteen_gon],
    ids=list(BENCH_CASES) + ["12-line", "16-gon"],
)
def test_candidates_are_the_tie_points_of_minimal_pair_choices(make):
    P = make()
    found = [(c.fiber, c.per_direction_minima) for c in tropical_candidates(P)]
    assert found == _pair_solutions(P, minimal=True)


def _lower_face_fibers(P):
    """Each lower face's fiber, in face order, and the facets of each direction's row."""
    rows = [[i for i, f in enumerate(P.facets) if f.normal[j] != 0] for j in range(P.dimension)]
    L = math.lcm(*(f.offset.denominator for f in P.facets))
    _, d, N, _ = solver_mod._lower_faces(
        [[P.facets[i].normal for i in row] for row in rows],
        [[int(-L * P.facets[i].offset) for i in row] for row in rows],
    )
    return [tuple(F(x, dk * L) for x in Nk) for dk, Nk in zip(d.tolist(), N.tolist())], rows


def _lower_face_points(P):
    """Candidates by re-evaluating each distinct lower-face point with facet_values.

    Keeps each interior point where every direction's least facet value is
    attained at least twice, with the per-direction minimal facets.
    """
    fibers, rows = _lower_face_fibers(P)
    found = {}
    for lam in set(fibers):
        values = facet_values(P, lam)
        if any(v <= 0 for v in values):
            continue
        least = [min(values[i] for i in row) for row in rows]
        minima = tuple(tuple(i for i in row if values[i] == m) for row, m in zip(rows, least))
        if all(len(S) >= 2 for S in minima):
            found[lam] = minima
    return sorted(found.items())


@pytest.mark.parametrize(
    "make",
    list(BENCH_CASES.values())
    + [lambda: _twelve_line_polytope(), lambda: _twelve_line_polytope(F(-23, 8)), _sixteen_gon],
    ids=list(BENCH_CASES) + ["12-line", "twisted-hexagon", "16-gon"],
)
def test_candidates_read_off_their_faces_match_facet_values(make):
    P = make()
    found = [(c.fiber, c.per_direction_minima) for c in tropical_candidates(P)]
    assert found and found == _lower_face_points(P)


def test_candidates_read_off_their_faces_match_facet_values_on_random_polytopes():
    # half the polytopes share one offset over all facets, so that many lower
    # faces tie at one fiber and collapse before their candidate is read off
    rng = random.Random(3)
    kinds = {(n, bounded, common): 0 for n in (1, 2, 3) for bounded in (True, False)
             for common in (True, False)}
    with_candidates, tied = set(), set()
    while min(kinds.values()) < 4:
        n, common = rng.randint(1, 3), rng.random() < 0.5
        facets = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, n + 4))]
        offset = F(-rng.randint(0, 8), rng.randint(1, 3))
        offsets = [offset if common else F(-rng.randint(0, 8), rng.randint(1, 3)) for _ in facets]
        try:
            P = make_polytope(n, [(v, c) for v, c in zip(facets, offsets) if any(v)])
        except ToricFiberError:
            continue
        kinds[n, is_bounded(P), common] += 1
        found = [(c.fiber, c.per_direction_minima) for c in tropical_candidates(P)]
        assert found == _lower_face_points(P)
        if found:
            with_candidates.add(is_bounded(P))
        fibers, _ = _lower_face_fibers(P)
        if common and len(set(fibers)) < len(fibers):
            tied.add(n)
    assert with_candidates == {True, False}
    assert tied == {1, 2, 3}


def test_points_only_a_non_minimal_pair_isolates_have_no_leading_root():
    rng = random.Random(0)
    tested, extra = 0, 0
    while tested < 30:
        normals = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(4, 6))}
        normals.discard((0, 0))
        try:
            P = make_polytope(2, [(v, F(-rng.randint(1, 4))) for v in sorted(normals)])
        except ToricFiberError:
            continue
        if not is_bounded(P):
            continue
        tested += 1
        candidates = {c.fiber for c in tropical_candidates(P)}
        for lam, _ in _pair_solutions(P, minimal=False):
            if lam not in candidates:
                extra += 1
                assert solve_leading(leading_system(build_potential(P, lam))) == []
    assert extra > 40


@pytest.mark.parametrize(
    "facets",
    [
        # all offsets positive, so every height -L c_i is negative: a bound on
        # the largest height instead of the largest |height| would pick int64
        [((1, 0), 2**61), ((0, 1), 2**61), ((1, 1), 2**62 + 1)],
        # offsets whose denominators have an lcm near 10^30
        [((1, 0), F(1, 1000003)), ((0, 1), F(1, 1000033)), ((-1, 0), F(-1) + F(1, 1000037)),
         ((0, -1), F(-1) + F(1, 1000039)), ((-1, -1), F(-3, 2) + F(1, 999983))],
    ],
    ids=["large-positive-offsets", "large-lcm-denominator"],
)
def test_candidates_with_heights_past_int64_use_python_integers(facets, monkeypatch):
    P = make_polytope(2, [(v, F(c)) for v, c in facets])
    dtypes = set()
    kernel = polytope_mod._int_cross

    def recorded(M):
        dtypes.add(M.dtype)
        return kernel(M)

    monkeypatch.setattr(polytope_mod, "_int_cross", recorded)
    found = [(c.fiber, c.per_direction_minima) for c in tropical_candidates(P)]
    assert dtypes == {np.dtype(object)}
    assert found and found == _pair_solutions(P, minimal=True)


# -- leading systems -----------------------------------------------------------


def test_leading_system_interval():
    W = build_potential(interval_polytope(), (F(1, 2),))
    sys = leading_system(W)
    assert sys.equations == ((((1 + 0j), (1,)), ((-1 + 0j), (-1,))),)
    assert solver_mod._row_data(W) == ((F(1, 2), (0, 1)),)


def test_leading_system_plane_blowup():
    W = build_potential(plane_blowup_polytope(), (F(1), F(1)))
    sys = leading_system(W)
    assert sys.equations[0] == (((1 + 0j), (1, 0)), ((1 + 0j), (1, 1)))
    assert sys.equations[1] == (((1 + 0j), (0, 1)), ((1 + 0j), (1, 1)))


def test_leading_system_weighted_plane():
    n1, n2 = 3, 5
    lam = F(n1 * n2, n1 + n2 + 1)
    W = build_potential(weighted_plane_polytope(n1, n2), (lam, lam))
    sys = leading_system(W)
    assert sys.equations[0] == (((1 + 0j), (1, 0)), ((-n2 + 0j), (-n2, -n1)))
    assert sys.equations[1] == (((1 + 0j), (0, 1)), ((-n1 + 0j), (-n2, -n1)))


def test_leading_system_keys_terms_by_position():
    # a hand-built potential may repeat a facet index: only the two terms of
    # least valuation form the row, not every term sharing their index
    D = F(3)
    terms = tuple(
        PotentialTerm(i, 1 + 0j, one(D), e, F(v))
        for i, e, v in [(0, (1,), 0), (1, (-1,), 0), (0, (2,), 1)]
    )
    sys = leading_system(Potential(1, (F(0),), terms, D))
    assert sys.equations == ((((1 + 0j), (1,)), ((-1 + 0j), (-1,))),)


def test_leading_system_rejects_unbalanced_fiber():
    W = build_potential(interval_polytope(), (F(1, 3),))
    with pytest.raises(DegenerateDirection):
        leading_system(W)


def test_a_direction_with_no_term_is_degenerate():
    # the half-plane {x >= 0}: no term involves direction 1, so the plan has no row for it
    P = make_polytope(2, [((1, 0), F(0))])
    W = build_potential(P, (F(1), F(0)))
    assert W._plan.rows == ((F(1), (0,)), None)
    for call in (leading_system, lambda W: newton_lift(W, (1.0, 1.0)),
                 lambda W: graded_lift(W, (1.0, 1.0))):
        with pytest.raises(DegenerateDirection, match="no term involves direction 1"):
            call(W)
    assert certificates_at_fiber(P, (1, 0)) == []


# -- leading roots ---------------------------------------------------------------


def test_leading_roots_interval():
    W = build_potential(interval_polytope(), (F(1, 2),))
    roots = solve_leading(leading_system(W))
    assert len(roots) == 2
    assert sorted(round(z[0].real) for z in roots) == [-1, 1]
    assert all(abs(z[0].imag) < 1e-9 for z in roots)


def test_real_binomial_roots_have_exact_phases():
    # zeta^2 = 1 at the interval's centre: the phase pi of -1 is carried
    # exactly, so no rounding noise such as -1.2246e-16j survives
    W = build_potential(interval_polytope(), (F(1, 2),))
    roots = solve_leading(leading_system(W))
    assert [z[0] for z in roots] == [-1, 1]
    assert all(z[0].imag == 0.0 for z in roots)
    # quarter turns: zeta^2 = -1 gives +-i with real part exactly 0
    assert sorted(solver_mod._binomial_roots([[2]], [-1.0]), key=solver_mod._root_key) == [
        (-1j,),
        (1j,),
    ]
    assert all(z[0].real == 0.0 for z in solver_mod._binomial_roots([[2]], [-4.0]))
    # corner cut 1/2 on the diagonal: the real root (-1, -1)
    P = corner_cut_polytope(F(1, 2))
    (diag,) = solve_leading(leading_system(build_potential(P, (F(1, 2), F(1, 2)))))
    assert diag == (-1, -1) and all(x.imag == 0.0 for x in diag)


def test_leading_roots_plane_blowup():
    W = build_potential(plane_blowup_polytope(), (F(1), F(1)))
    roots = solve_leading(leading_system(W))
    assert len(roots) == 1
    assert abs(roots[0][0] + 1) < 1e-9 and abs(roots[0][1] + 1) < 1e-9


def test_leading_roots_weighted_35():
    # the binomial system zeta1^6 zeta2^3 = 5, zeta1^5 zeta2^4 = 3 has
    # |det [[6,3],[5,4]]| = 9 torus solutions
    lam = F(5, 3)
    W = build_potential(weighted_plane_polytope(3, 5), (lam, lam))
    roots = solve_leading(leading_system(W))
    assert len(roots) == 9
    for z1, z2 in roots:
        assert abs(z1**6 * z2**3 - 5) < 1e-8
        assert abs(z1**5 * z2**4 - 3) < 1e-8


def test_leading_roots_orbifold_interval():
    W = build_potential(orbifold_interval_polytope(), (F(2, 3),))
    roots = solve_leading(leading_system(W))
    assert len(roots) == 3
    for (z,) in roots:
        assert abs(z**3 - 2) < 1e-9


def test_leading_roots_deterministic():
    # one system on each route: closed form, and the homotopy
    for P, lam in (
        (weighted_plane_polytope(3, 5), (F(5, 3), F(5, 3))),
        (hexagon_polytope(), (F(0), F(0))),
    ):
        sys = leading_system(build_potential(P, lam))
        assert solve_leading(sys) == solve_leading(sys)


def _no_homotopy(sys):
    raise AssertionError("leading system was sent to the homotopy")


def _satisfies(sys, zeta, rel=1e-10) -> bool:
    """Every row's residual is within rel of its largest term."""
    for eq in sys.equations:
        terms = []
        for c, e in eq:
            for zj, k in zip(zeta, e):
                c *= zj**k
            terms.append(c)
        if abs(sum(terms)) > rel * max(abs(t) for t in terms):
            return False
    return True


def _distinct(roots) -> bool:
    keys = {tuple((round(x.real, 8), round(x.imag, 8)) for x in z) for z in roots}
    return len(keys) == len(roots)


def _det(M) -> int:
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** k * M[0][k] * _det([row[:k] + row[k + 1 :] for row in M[1:]])
        for k in range(len(M))
    )


@pytest.mark.parametrize("name", list(FIXTURES))
def test_binomial_roots_count_det_exponents(name, monkeypatch):
    # every fixture's leading system is one binomial per row; its torus roots
    # number |det E| for E the exponent differences
    monkeypatch.setattr(solver_mod, "_homotopy_roots", _no_homotopy)
    P = FIXTURES[name][0]()
    for cand in tropical_candidates(P):
        sys = leading_system(build_potential(P, cand.fiber))
        assert all(len(eq) == 2 for eq in sys.equations)
        E = [[a - b for a, b in zip(eq[0][1], eq[1][1])] for eq in sys.equations]
        roots = solve_leading(sys)
        assert len(roots) == abs(_det(E)) > 0
        assert _distinct(roots)
        assert all(_satisfies(sys, z) for z in roots)
        assert solve_leading(sys) == roots


def test_fixture_pipelines_never_reach_multistart(monkeypatch):
    monkeypatch.setattr(solver_mod, "_homotopy_roots", _no_homotopy)
    for make, count in FIXTURES.values():
        assert len(find_critical_fibers(make(), seed=0)) == count


# points of the hexagon's (and the 12-line input's) positive-dimensional tie
# families: every direction ties there, but no pair choice isolates them
FAMILY_POINTS = [
    (F(-1), F(1, 2)),
    (F(-1, 2), F(-1, 2)),
    (F(-1, 2), F(1)),
    (F(-1, 4), F(1, 2)),
    (F(1, 4), F(-1, 2)),
    (F(1, 2), F(-1)),
    (F(1, 2), F(1, 2)),
    (F(1), F(-1, 2)),
]


@pytest.mark.parametrize("make", [hexagon_polytope, lambda: _twelve_line_polytope()],
                         ids=["hexagon", "12-line"])
def test_only_isolated_tie_points_are_candidates(make):
    # each family point ties in every direction, yet its minimal pairs have
    # singular difference matrices: mixed volume 0, so no isolated leading root
    P = make()
    assert [c.fiber for c in tropical_candidates(P)] == [(F(0), F(0))]
    for lam in FAMILY_POINTS:
        leading_system(build_potential(P, lam))  # interior, and every direction ties
        assert certificates_at_fiber(P, lam) == []


@pytest.mark.parametrize(
    "make",
    [hexagon_polytope, lambda: corner_cut_polytope(F(1, 2)), lambda: weighted_plane_polytope(3, 5)],
    ids=["hexagon", "corner_cut_1/2", "P135"],
)
def test_grid_fibers_off_the_candidates_carry_no_certificate(make):
    P = make()
    candidates = {c.fiber for c in tropical_candidates(P)}
    grid = [lam for lam in probe_scan(P, 16, 3) if lam not in candidates]
    assert len(grid) > 100
    assert all(certificates_at_fiber(P, lam) == [] for lam in grid)


def test_twisted_binomial_roots(monkeypatch):
    monkeypatch.setattr(solver_mod, "_homotopy_roots", _no_homotopy)
    P = weighted_plane_polytope(3, 5)
    D = F(3)
    alpha = tuple(constant_series(a, D) for a in (0.3 + 1.1j, -0.2 + 0.7j, 0.5 - 0.4j))
    sys = leading_system(build_potential(P, (F(5, 3), F(5, 3)), alpha, truncation=D))
    assert all(c.imag != 0 for eq in sys.equations for c, _ in eq)
    roots = solve_leading(sys)
    assert len(roots) == 9
    assert _distinct(roots)
    assert all(_satisfies(sys, z) for z in roots)


def test_singular_binomial_system_reaches_homotopy(monkeypatch):
    # rows 2 z1^2 z2 + z1 and 3 z1^3 z2^3 + z1 z2 are binomials with exponent
    # differences (1, 1) and (2, 2): det E = 0, so no closed form applies
    sys = LeadingSystem(
        2,
        (
            ((2 + 0j, (2, 1)), (1 + 0j, (1, 0))),
            ((3 + 0j, (3, 3)), (1 + 0j, (1, 1))),
        ),
    )
    # z1 z2 = -1/2 and (z1 z2)^2 = -1/3 have no common root, and the
    # supports have mixed volume 0: no cell, no path
    assert solver_mod._homotopy_roots(sys) == []
    calls = []
    monkeypatch.setattr(solver_mod, "_homotopy_roots", lambda s: calls.append(s) or [])
    assert solve_leading(sys) == []
    assert calls == [sys]


def test_a_repeated_inequality_takes_the_merged_row_route(monkeypatch):
    # the square with x >= -1 listed twice: the first row holds the exponent
    # (1, 0) twice, so solve_leading hands the system to the homotopy, which merges
    # the pair into 2 z1 - 1/z1 = 0; the roots are z1 = +-1/sqrt(2), z2 = +-1
    P = make_polytope(2, [((1, 0), F(-1)), ((0, 1), F(-1)), ((-1, 0), F(-1)),
                          ((0, -1), F(-1)), ((1, 0), F(-1))])
    W = build_potential(P, (F(0), F(0)))
    sys = leading_system(W)
    assert [e for _, e in sys.equations[0]].count((1, 0)) == 2
    calls = []
    homotopy = solver_mod._homotopy_roots
    monkeypatch.setattr(solver_mod, "_homotopy_roots", lambda s: calls.append(s) or homotopy(s))
    certs = certificates_at_fiber(P, (F(0), F(0)))
    assert calls == [sys]
    leads = sorted((c.z[0].leading().real, c.z[1].leading().real) for c in certs)
    assert leads == pytest.approx([(-0.5**0.5, -1), (-0.5**0.5, 1), (0.5**0.5, -1), (0.5**0.5, 1)])
    terms = terms_of_potential(W)
    assert all(is_critical(terms, [dict_of_series(zj) for zj in c.z], W.truncation) for c in certs)


def test_solve_paths_falls_back_per_path_on_a_singular_matrix():
    # one singular J in the stack makes the batched solve raise; that path
    # gets nan and every other path np.linalg.solve's own answer
    J = np.array([[[2, 1j], [0.5, 3]], [[1, 2], [2, 4]], [[0, 1], [-1, 1 + 1j]]], dtype=complex)
    b = np.array([[1, -1j], [2, 1], [0.5, 3]], dtype=complex)
    x = solver_mod._solve_paths(J, b)
    assert np.isnan(x[1]).all()
    for p in (0, 2):
        assert np.array_equal(x[p], np.linalg.solve(J[p], b[p]))


def test_homotopy_residual_is_relative_to_largest_term():
    # at (1/2, 1/2) the hexagon's leading system 2a + b = 0, a + 2b = 0 in two
    # monomials has no torus root; a point drifting to tiny or huge zeta makes
    # every term, and so the absolute residual, small
    P = hexagon_polytope()
    half = leading_system(build_potential(P, (F(1, 2), F(1, 2))))
    assert solver_mod._homotopy_roots(half) == []
    centre = leading_system(build_potential(P, (F(0), F(0))))
    roots = solver_mod._homotopy_roots(centre)
    assert len(roots) == 18
    assert all(_satisfies(centre, z) for z in roots)


def _hull_area2(points) -> int:
    """Twice the area of the convex hull of integer points (monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])
    return sum(
        a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])
    )


def _mixed_volume2(supports) -> int:
    """Twice the mixed volume of two planar supports, from hull areas."""
    S, T = supports
    minkowski = [(a[0] + b[0], a[1] + b[1]) for a in S for b in T]
    return _hull_area2(minkowski) - _hull_area2(S) - _hull_area2(T)


def test_hexagon_centre_root_count_is_the_mixed_volume():
    # BKK: the mixed volume MV = area(P + Q) - area(P) - area(Q) of the two
    # row supports bounds the isolated torus roots; the centre attains it
    P = hexagon_polytope()
    centre = leading_system(build_potential(P, (F(0), F(0))))
    assert _mixed_volume2([e for _, e in eq] for eq in centre.equations) == 2 * 18
    assert len(solve_leading(centre)) == 18


def _twelve_line_polytope(extra=F(-3)):
    # extra = -23/8 gives the twisted hexagon (delta = 7/8)
    normals = [(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)]
    more = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    return make_polytope(2, [(v, F(-3)) for v in normals] + [(v, extra) for v in more])


def test_hexagon_centre_tracks_one_path_per_unit_of_mixed_volume(monkeypatch):
    centre = leading_system(build_potential(hexagon_polytope(), (F(0), F(0))))
    supports, _ = solver_mod._row_supports(centre)
    cells = solver_mod._generic_cells(supports)
    assert 2 * sum(d for _, d, _ in cells) == _mixed_volume2(supports) == 2 * 18
    paths = []
    track = solver_mod._track

    def counted(E, R, c, theta, w, pw, k):
        paths.append(len(w))
        return track(E, R, c, theta, w, pw, k)

    monkeypatch.setattr(solver_mod, "_track", counted)
    roots = solver_mod._homotopy_roots(centre)
    assert paths == [18] and len(roots) == 18
    assert _distinct(roots) and all(_satisfies(centre, z) for z in roots)


def test_cells_give_the_mixed_volume_and_reject_a_non_generic_lifting():
    # the 12-line centre: ten support points per row, a non-isolated root set
    centre = leading_system(build_potential(_twelve_line_polytope(), (F(0), F(0))))
    supports, _ = solver_mod._row_supports(centre)
    assert [len(S) for S in supports] == [10, 10]
    cells = solver_mod._generic_cells(supports)
    assert 2 * sum(d for _, d, _ in cells) == _mixed_volume2(supports)
    for pairs, d, heights in cells:
        for (a, b), s in zip(pairs, heights):
            assert s[a] == s[b] == 0 and sum(x == 0 for x in s) == 2
            assert min(s) == 0
    # a flat or an affine lifting makes every lower face a tie
    flat = [[0] * len(S) for S in supports]
    affine = [[3 * a[0] - a[1] + j for a in S] for j, S in enumerate(supports)]
    assert solver_mod._mixed_cells(supports, flat) is None
    assert solver_mod._mixed_cells(supports, affine) is None


def _generic_system(support, n):
    """Every row on the same support, with fixed complex coefficients in general position."""
    eqs = []
    for j in range(n):
        row = []
        for i, e in enumerate(support):
            k = j * len(support) + i + 1
            row.append((cmath.exp(1j * k * k) * (1 + (k * 0.618034) % 1), e))
        eqs.append(tuple(row))
    return LeadingSystem(n, tuple(eqs))


@pytest.mark.parametrize(
    "support, n, volume",
    [
        ([(0, 0), (1, 0), (0, 1), (1, 1)], 2, 2),  # unit square: 2! area
        (list(itertools.product((0, 1), repeat=3)), 3, 6),  # unit cube: 3! volume
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 3, 8),
    ],
    ids=["square", "cube", "cross-polytope"],
)
def test_homotopy_finds_every_root_of_a_generic_system(support, n, volume):
    sys = _generic_system(support, n)
    supports, _ = solver_mod._row_supports(sys)
    assert sum(d for _, d, _ in solver_mod._generic_cells(supports)) == volume
    # rows with a term constant in z_j are no leading system of a potential,
    # so the homotopy is called directly
    roots = solver_mod._homotopy_roots(sys)
    assert len(roots) == volume
    assert _distinct(roots)
    assert all(_satisfies(sys, z) for z in roots)


def _one_call_path_field(E, R, c, theta, w, tau, pw, k):
    """The homotopy field in one call, every factor formed at every evaluation:
    the reference that the split into _tau_part and _path_field must match bit
    for bit."""
    P, T = pw.shape
    n = E.shape[1]
    mono = np.exp(w @ E.T)
    tk = tau**k
    rot = c * np.exp(1j * np.outer(1.0 - tk, theta))
    tp = tau[:, None] ** pw
    terms = rot * tp * mono
    RE = (R[:, :, None] * E[:, None, :]).reshape(T, n * n)
    J = (terms @ RE).reshape(P, n, n)
    dtp = np.where(pw > 0, pw * tau[:, None] ** np.maximum(pw - 1.0, 0.0), 0.0)
    dk = (k * tau ** np.maximum(k - 1.0, 0.0))[:, None]
    Ht = (rot * mono * (dtp - 1j * dk * theta * tp)) @ R
    return terms @ R, J, Ht


def _hexagon_centre_system():
    return leading_system(build_potential(hexagon_polytope(), (F(0), F(0))))


def _cross_polytope_system():
    return _generic_system([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 3)


def _track_arguments(sys, monkeypatch):
    """The (E, R, c, theta, w, pw, k) that _homotopy_roots hands to _track."""
    seen = []
    track = solver_mod._track

    def recorded(*args):
        seen.append(args)
        return track(*args)

    monkeypatch.setattr(solver_mod, "_track", recorded)
    solver_mod._homotopy_roots(sys)
    return seen[0]


@pytest.mark.parametrize("make", [_hexagon_centre_system, _cross_polytope_system],
                         ids=["hexagon-centre", "cross-polytope"])
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("target", [False, True], ids=["tracked", "polish"])
def test_split_path_field_is_the_one_call_formula_bit_for_bit(make, t, target, monkeypatch):
    E, R, c, theta, w, pw, k = _track_arguments(make(), monkeypatch)
    w = w + 0.25 - 0.5j  # off the start points, so no factor is exactly 1
    if target:  # the polish's powers: the target system at every tau
        pw, k = np.zeros_like(pw), np.ones_like(k)
    tau = np.full(len(w), t)
    H, J, Ht = _one_call_path_field(E, R, c, theta, w, tau, pw, k)
    part = solver_mod._tau_part(c, theta, tau, pw, k)
    RE = solver_mod._jacobian_pattern(E, R)
    J_pred, Ht_split = solver_mod._path_field(E, R, RE, w, part, True)
    J_corr, H_split = solver_mod._path_field(E, R, RE, w, part, False)
    # tobytes: a sign of zero or a last bit that differs counts
    assert J_pred.tobytes() == J_corr.tobytes() == J.tobytes()
    assert Ht_split.tobytes() == Ht.tobytes()
    assert H_split.tobytes() == H.tobytes()


def test_hexagon_centre_forms_three_tau_parts_per_round(monkeypatch):
    # one round: RK4 stages at t0, t0 + h/2 (twice) and t1, then three
    # correctors at t1; the polish then takes POLISH_STEPS steps at tau = 1
    calls = {"tau": 0, True: 0, False: 0}
    tau_part, path_field = solver_mod._tau_part, solver_mod._path_field

    def counted_tau(*args):
        calls["tau"] += 1
        return tau_part(*args)

    def counted_field(E, R, RE, w, part, dtau):
        calls[dtau] += 1
        return path_field(E, R, RE, w, part, dtau)

    monkeypatch.setattr(solver_mod, "_tau_part", counted_tau)
    monkeypatch.setattr(solver_mod, "_path_field", counted_field)
    assert len(solver_mod._homotopy_roots(_hexagon_centre_system())) == 18
    rounds, rest = divmod(calls[True], 4)
    assert rest == 0 and rounds > 0
    assert calls[False] == 3 * rounds + solver_mod.POLISH_STEPS
    assert calls["tau"] == 3 * rounds + 1


def _twelve_line_centre_system():
    return leading_system(build_potential(_twelve_line_polytope(), (F(0), F(0))))


@pytest.mark.parametrize("make", [_hexagon_centre_system, _twelve_line_centre_system,
                                  _cross_polytope_system],
                         ids=["hexagon-centre", "12-line-centre", "cross-polytope"])
def test_real_exponent_product_is_the_complex_matmul_bit_for_bit(make, monkeypatch):
    # every w the field sees while tracking and polishing, down to the
    # 12-line centre's rounds with a single live path, and the settled roots
    seen = []
    exponents = solver_mod._exponents

    def recorded(w, E):
        out = exponents(w, E)
        seen.append((w.copy(), E, out))
        return out

    monkeypatch.setattr(solver_mod, "_exponents", recorded)
    solver_mod._homotopy_roots(make())
    assert seen
    for w, E, out in seen:
        assert out.tobytes() == (w @ E.T).tobytes()


class _MatmulDtypes(np.ndarray):
    """An array that records the operand dtypes of each matmul it enters."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.seen.append(tuple(np.asarray(x).dtype for x in inputs))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_exponent_product_passes_only_real_operands_to_matmul(monkeypatch):
    E, _, _, _, w, _, _ = _track_arguments(_hexagon_centre_system(), monkeypatch)
    monkeypatch.setattr(_MatmulDtypes, "seen", [])
    w = w.view(_MatmulDtypes)
    _ = w @ E.T  # the complex product the helper replaces: the recorder sees it
    assert _MatmulDtypes.seen == [(np.dtype(complex), np.dtype(float))]
    _MatmulDtypes.seen.clear()
    solver_mod._exponents(w, E)
    assert _MatmulDtypes.seen == [(np.dtype(float), np.dtype(float))] * 2


def _double_root_system():
    # (z - 1)^2: both of its paths end at the double root z = 1
    return LeadingSystem(1, (((1 + 0j, (2,)), (-2 + 0j, (1,)), (1 + 0j, (0,))),))


@pytest.mark.parametrize(
    "make, dropped",
    [(_hexagon_centre_system, 0), (_twelve_line_centre_system, 0),
     (_cross_polytope_system, 0), (_double_root_system, 1)],
    ids=["hexagon-centre", "12-line-centre", "cross-polytope", "double-root"],
)
def test_homotopy_root_filters_keep_the_roots_of_a_loop_over_path_ends(make, dropped, monkeypatch):
    # the residual and dedupe tests run on all settled path ends at once; the
    # reference runs them end by end on the same ends, whose exponent product
    # is the last one the homotopy forms.  How many 12-line ends settle
    # depends on the BLAS kernel; none of them is dropped
    seen = []
    exponents = solver_mod._exponents

    def recorded(w, E):
        seen.append(w.copy())
        return exponents(w, E)

    monkeypatch.setattr(solver_mod, "_exponents", recorded)
    sys = make()
    roots = solver_mod._homotopy_roots(sys)
    w = seen[-1]
    supports, coeffs = solver_mod._row_supports(sys)
    E = np.array([a for S in supports for a in S], dtype=float)
    R = np.array([[float(i == j) for j in range(sys.dimension)]
                  for i, S in enumerate(supports) for _ in S])
    c = np.array([x for row in coeffs for x in row], dtype=complex)
    reference = []
    for zeta, row_terms in zip(np.exp(w), c * np.exp(exponents(w, E))):
        scale = (np.abs(row_terms)[:, None] * R).max(axis=0)
        if np.any(np.abs(row_terms @ R) > solver_mod.ROOT_RESIDUAL_TOL * scale):
            continue
        if any(np.max(np.abs(zeta - r)) < solver_mod.ROOT_DEDUP_TOL for r in reference):
            continue
        reference.append(zeta)
    assert len(w) - len(roots) == dropped
    assert roots == sorted((tuple(map(complex, r)) for r in reference), key=solver_mod._root_key)


def test_exponent_product_keeps_an_infinite_part_in_its_own_part():
    # 1j * inf is nan + inf j, so the parts must not be joined as a + 1j * b
    w = np.array([[complex(1.0, np.inf), 2.0]])
    out = solver_mod._exponents(w, np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert out.real.tolist() == [[3.0, 5.0]]
    assert out.imag.tolist() == [[np.inf, np.inf]]


# -- newton lifting --------------------------------------------------------------


def test_newton_lift_exact_roots():
    cases = [
        (interval_polytope(), (F(1, 2),), (1.0 + 0j,)),
        (interval_polytope(), (F(1, 2),), (-1.0 + 0j,)),
        (plane_blowup_polytope(), (F(1), F(1)), (-1.0 + 0j, -1.0 + 0j)),
        (orbifold_interval_polytope(), (F(2, 3),), (2 ** (1 / 3) + 0j,)),
    ]
    for P, lam, zeta in cases:
        W = build_potential(P, lam, truncation=3)
        cert = newton_lift(W, zeta)
        assert cert.method == "newton"
        assert cert.iterations == 0  # already exact: gradient vanishes as-is
        assert cert.residual_valuation == INF
        for zj, zj0 in zip(cert.z, zeta):
            assert zj.terms == ((F(0), zj0),)


def test_newton_lift_corrects_higher_levels():
    # at the uncut-corner square the fifth facet only enters above the leading
    # level, so the lift genuinely iterates
    P = corner_cut_polytope(0)
    W = build_potential(P, (F(0), F(0)))
    cert = newton_lift(W, (-1.0 + 0j, 1.0 + 0j))
    assert cert.method == "newton"
    assert cert.iterations > 0
    assert cert.residual_valuation == INF
    assert cert.z[0].coefficient(0) == -1
    assert len(cert.z[0].terms) > 1  # corrections were applied


def test_newton_lift_matches_oracle():
    # gradient rows have valuation 1 here, so coefficients are pinned down
    # below 4 - 1 = 3; above that any correction is invisible mod q^4
    P = corner_cut_polytope(0)
    W = build_potential(P, (F(0), F(0)), truncation=4)
    for zeta in [(-1.0 + 0j, 1.0 + 0j), (1.0 + 0j, 1.0 + 0j), (-1.0 + 0j, -1.0 + 0j)]:
        cert = newton_lift(W, zeta)
        ref = oracle_lift(terms_of_potential(W), zeta, F(4))
        assert ref is not None
        for zj, rj in zip(cert.z, ref):
            assert series_match(dict_of_series(zj), rj, 1e-9, below=F(3))


def test_newton_residual_history_doubles():
    P = corner_cut_polytope(0)
    W = build_potential(P, (F(0), F(0)))
    cert = newton_lift(W, (-1.0 + 0j, 1.0 + 0j))
    hist = cert.residual_history
    assert all(b >= min(2 * a, W.truncation) for a, b in zip(hist, hist[1:]))


def test_newton_lift_refuses_singular_leading_jacobian():
    P = corner_cut_polytope(F(1, 2))
    W = build_potential(P, (F(1, 2), F(1, 2)))
    with pytest.raises(SingularLeadingHessian):
        newton_lift(W, (-1.0 + 0j, -1.0 + 0j))


def _leading_matrix(W, zeta):
    # H0 as both lifts read it: the q^0 part of the start's normalized b-Hessian
    *_, H0, _, _ = solver_mod._lift_start(W, zeta)
    return H0


@pytest.mark.parametrize(
    "make",
    list(BENCH_CASES.values())
    + [lambda: _twelve_line_polytope(), lambda: _twelve_line_polytope(F(-23, 8)), _sixteen_gon],
    ids=list(BENCH_CASES) + ["12-line", "twisted-hexagon", "16-gon"],
)
def test_leading_matrix_is_the_z_jacobian_times_zeta(make):
    # H0, read off the term list, equals J0 diag(zeta) with J0 the leading
    # z-Jacobian built here from the raw terms: row j sums
    # v_ij v_ik m_i zeta^{v_i} / zeta_k over the terms of least valuation
    # among those with v_ij != 0
    P = make()
    for cand in tropical_candidates(P):
        W = build_potential(P, cand.fiber)
        n = W.dimension
        for zeta in solve_leading(leading_system(W)):
            J0 = np.zeros((n, n), dtype=complex)
            for j in range(n):
                least = min(t.valuation for t in W.terms if t.exponent[j])
                for t in W.terms:
                    if t.exponent[j] and t.valuation == least:
                        mono = t.multiplier * np.prod([x**v for x, v in zip(zeta, t.exponent)])
                        for k in range(n):
                            J0[j, k] += t.exponent[j] * t.exponent[k] * mono / zeta[k]
            H0 = _leading_matrix(W, zeta)
            assert np.allclose(H0, J0 * np.array(zeta), rtol=1e-12, atol=1e-12)


def test_corner_cut_diagonal_leading_matrix_keeps_a_zero_diagonal():
    W = build_potential(corner_cut_polytope(F(1, 2)), (F(1, 2), F(1, 2)))
    H0 = _leading_matrix(W, (-1.0 + 0j, -1.0 + 0j))
    assert H0.tolist() == [[0, 1], [1, 0]]
    *_, invertible, startable = solver_mod._lift_start(W, (-1.0 + 0j, -1.0 + 0j))
    assert invertible and not startable


def test_series_solve_matches_the_system():
    # Hhat = H0 + (positive valuation), the shape Newton hands the refinement:
    # the in-place residual must leave Hhat delta + ghat zero below q^D
    D = F(4)
    rng = np.random.default_rng(3)
    steps = [F(1, 2), F(2, 3), F(1), F(3, 2)]

    def rand_series(lead):
        pairs = [(F(0), lead)] + [
            (e, complex(*rng.normal(size=2))) for e in steps if rng.random() < 0.8
        ]
        return series(pairs, D)

    H0 = np.array([[2.0, 0.5 - 1j], [0.3j, -1.5]])
    Hhat = [[rand_series(H0[j, k]) for k in range(2)] for j in range(2)]
    ghat = tuple(rand_series(complex(*rng.normal(size=2))) for _ in range(2))
    delta = solver_mod._solve_series_system(Hhat, ghat, np.linalg.inv(H0))
    for j in range(2):
        acc = dict_of_series(ghat[j])
        for k in range(2):
            acc = d_add(acc, d_mul(dict_of_series(Hhat[j][k]), dict_of_series(delta[k]), D), D)
        assert all(abs(c) < 1e-10 for c in acc.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_solve_cancels_the_gradient_on_random_systems(n):
    # grids 1/2, 1/3 and 1/4 meet on 1/12; coefficients that repeat across
    # the components, with H0^{-1} rows of equal and opposite entries, make
    # partial sums cancel to exactly zero; 1e-7-sized ones make products
    # fall below the prune threshold; and parts of -0.0 test the sign fix.
    # ghat + Hhat delta, formed by the dict oracle, must vanish below q^D
    D = F(3)
    rng = random.Random(n)
    pool = [1.0, -1.0, 0.5j, complex(-0.0, 2.0), complex(1.5, -0.0), 1e-7, -1e-7j, 3e-7 + 0j]
    steps = [F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(5, 4), F(2)]

    def rand_series(lead, grid):
        pairs = [(F(0), lead)] if lead is not None else []
        pairs += [(e, rng.choice(pool)) for e in steps
                  if e.denominator in grid and rng.random() < 0.6]
        return series(pairs, D)

    checked = 0
    for _ in range(40):
        grids = [rng.choice([(2,), (3,), (4,), (2, 3), (1,)]) for _ in range(n * n + n)]
        H0 = np.eye(n) + np.triu(np.ones((n, n)), 1) * rng.choice([0.0, 1.0])
        if rng.random() < 0.5:
            H0 = H0 + np.diag([0.5j] * n)
        Hhat = [[rand_series(complex(H0[j, k]), grids[j * n + k]) for k in range(n)]
                for j in range(n)]
        ghat = tuple(rand_series(rng.choice([None, 1.0, complex(-0.0, -1.0)]), grids[n * n + j])
                     for j in range(n))
        if n > 1 and rng.random() < 0.5:
            ghat = (ghat[1],) + ghat[1:]  # equal components cancel in a partial sum
        delta = solver_mod._solve_series_system(Hhat, ghat, np.linalg.inv(H0))
        assert all(d.truncation == D for d in delta)
        for j in range(n):
            acc = dict_of_series(ghat[j])
            for k in range(n):
                acc = d_add(acc, d_mul(dict_of_series(Hhat[j][k]), dict_of_series(delta[k]), D), D)
            assert all(abs(c) <= COMPARE_TOL for c in acc.values())
        checked += sum(len(d.terms) for d in delta)
    assert checked


# -- graded lifting ---------------------------------------------------------------


@pytest.mark.parametrize(
    "make, lam, zeta, startable",
    [
        (lambda: corner_cut_polytope(F(1, 2)), (F(1, 2), F(1, 2)), (-1.0 + 0j, -1.0 + 0j), False),
        (interval_polytope, (F(1, 2),), (1.0 + 0j,), True),
    ],
    ids=["zero-diagonal", "clear-diagonal"],
)
def test_graded_lift_takes_one_condition_number(make, lam, zeta, startable, monkeypatch):
    # the condition number comes from one SVD of the start's H0, which
    # newton_lift and then graded_lift at the same root share
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda A, **kw: svds.append(A) or svd(A, **kw))
    W = build_potential(make(), lam)
    try:
        newton_lift(W, zeta)
    except SingularLeadingHessian:
        pass
    cert = graded_lift(W, zeta)
    assert cert.method == "graded" and len(svds) == 1
    assert svds[0] is _leading_matrix(W, zeta)
    assert cert.leading_jacobian_nondegenerate is startable


def test_lifts_evaluate_each_point_once(monkeypatch):
    """Each lift point builds one term list and inverts each z_j at most once."""
    import toric_fiber_lab.novikov as novikov_mod
    import toric_fiber_lab.potential as potential_mod

    calls = {"term_values": 0, "nov_inverse": 0}
    for name, home in (("term_values", potential_mod), ("nov_inverse", novikov_mod)):
        original = getattr(home, name)

        def counted(*args, _name=name, _f=original):
            calls[_name] += 1
            return _f(*args)

        for mod in (novikov_mod, potential_mod, solver_mod):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    P = corner_cut_polytope(F(1, 2))
    seen = []
    for fiber in ((F(0), F(0)), (F(1, 2), F(1, 2))):
        W = build_potential(P, fiber)
        for zeta in solve_leading(leading_system(W)):
            try:
                newton_lift(W, zeta)
                lift = newton_lift
            except SingularLeadingHessian:
                lift = graded_lift
            calls.update(term_values=0, nov_inverse=0)
            cert = lift(W, zeta)
            points = cert.iterations + 1
            # the start is the one newton_lift above built: only the steps evaluate
            assert calls["term_values"] == points - 1
            assert calls["nov_inverse"] <= W.dimension * points
            seen.append((cert.method, cert.iterations))
    assert sorted(m for m, _ in seen) == ["graded"] + ["newton"] * 4
    assert all(it >= 1 for _, it in seen)


def test_a_newton_refused_root_is_started_once(monkeypatch):
    # corner-cut 1/2's diagonal fiber has the one leading root (-1, -1), whose
    # H0 has a zero diagonal: Newton refuses it and graded_lift lifts it from
    # the same start, with no second term list at the constant point or SVD
    starts, svds = [], []
    evaluate, svd = solver_mod.term_values, np.linalg.svd

    def counted(W, z):
        if all(len(zj._items) == 1 and zj._items[0][0] == 0 for zj in z):
            starts.append(tuple(zj.leading() for zj in z))
        return evaluate(W, z)

    monkeypatch.setattr(solver_mod, "term_values", counted)
    monkeypatch.setattr(np.linalg, "svd", lambda A, **kw: svds.append(A) or svd(A, **kw))
    certs = certificates_at_fiber(corner_cut_polytope(F(1, 2)), (F(1, 2), F(1, 2)))
    assert [c.method for c in certs] == ["graded"]
    assert starts == [(-1 + 0j, -1 + 0j)]
    assert len(svds) == 1


def test_graded_lift_cut_corner_diagonal_fiber():
    P = corner_cut_polytope(F(1, 2))
    W = build_potential(P, (F(1, 2), F(1, 2)))
    cert = graded_lift(W, (-1.0 + 0j, -1.0 + 0j))
    assert cert.method == "graded"
    assert not cert.leading_jacobian_nondegenerate
    assert cert.residual_valuation == INF
    for zj in cert.z:
        assert abs(zj.coefficient(0) + 1) < 1e-12
        assert abs(zj.coefficient(1) + 1) < 1e-9  # first correction at level 1
        assert abs(zj.coefficient(2) + 3) < 1e-9


def _cut_rectangle():
    # [-1,1] x [-2,2] cut by x + y <= 4: rows of least valuation 1 and 2 at (0, 0)
    facets = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 2), ((0, -1), 2), ((1, 1), 4)]
    return make_polytope(2, [(list(v), F(-c)) for v, c in facets])


@pytest.mark.parametrize(
    "polytope, fiber, minima",
    [(lambda: corner_cut_polytope(F(1, 2)), (F(1, 2), F(1, 2)), [F(1, 2), F(1, 2)]),
     (_cut_rectangle, (F(0), F(0)), [F(1), F(2)])],
    ids=["corner_cut_1/2-diagonal", "cut-rectangle"],
)
def test_normalized_rows_times_q_to_the_row_minimum_are_the_eval_rows(polytope, fiber, minima):
    # the lifts' normalized forms and eval_gradient / eval_hessian share one formula:
    # row j of each, times q^{m_j}, is the same series, at a certificate's z and at a
    # point cut off below it where the gradient is not zero; equal minima share the
    # Hessian's entries (j, k) and (k, j), unequal ones do not
    P = polytope()
    W = build_potential(P, fiber)
    assert [mj for mj, _ in W._plan.rows] == minima
    cert = certificates_at_fiber(P, fiber)[0]
    cut = tuple(zj.retruncate(2).retruncate(W.truncation) for zj in cert.z)
    for z in (cert.z, cut):
        tv, ghat, _ = solver_mod._normalized_state(W, z)
        Hhat = solver_mod._normalized_hessian(W, tv)
        g, H = eval_gradient(W, z), eval_hessian(W, z)
        assert any(not gj.is_zero() for gj in g) == (z is cut)
        for j in range(2):
            assert _shifted(ghat[j], minima[j]) == g[j]
            assert all(_shifted(Hhat[j][k], minima[j]) == H[j][k] for k in range(2))


def test_graded_lift_matches_oracle():
    P = corner_cut_polytope(F(1, 2))
    D = F(9, 2)
    W = build_potential(P, (F(1, 2), F(1, 2)), truncation=D)
    cert = graded_lift(W, (-1.0 + 0j, -1.0 + 0j))
    ref = oracle_lift(terms_of_potential(W), (-1.0 + 0j, -1.0 + 0j), D)
    assert ref is not None
    for zj, rj in zip(cert.z, ref):
        assert series_match(dict_of_series(zj), rj, 1e-9)


def test_graded_lift_agrees_with_newton_when_both_apply():
    P = corner_cut_polytope(0)
    W = build_potential(P, (F(0), F(0)), truncation=4)
    zeta = (-1.0 + 0j, 1.0 + 0j)
    a = newton_lift(W, zeta)
    b = graded_lift(W, zeta)
    for zj, wj in zip(a.z, b.z):
        assert series_match(dict_of_series(zj), dict_of_series(wj), 1e-9, below=F(3))


def _obstructed_data():
    """A double leading root whose lift is blocked one level up.

    Facet data (one-dimensional): l = (x, 2-x, 2x-1, x+1) at x=1 with constant
    twists turning the multipliers into (-3, -1, 1, 1).  The leading equation
    2 zeta^3 - 3 zeta^2 + 1 = 0 has the double root zeta = 1, where the true
    solution continues as z = 1 +- i sqrt(q/3): a half-integer level that no
    correction on the valuation grid can reach.  Returns (P, alpha, D).
    """
    P = make_polytope(
        1, [((1,), F(0)), ((-1,), F(-2)), ((2,), F(1)), ((1,), F(-1))]
    )
    D = F(3)
    alpha = (
        constant_series(math.log(3) + 1j * math.pi, D),
        constant_series(1j * math.pi, D),
        zero_series(D),
        zero_series(D),
    )
    return P, alpha, D


def _obstructed_setup():
    P, alpha, D = _obstructed_data()
    return build_potential(P, (F(1),), alpha, truncation=D)


def test_graded_lift_reports_inconsistency():
    # H0 = 6 zeta^3 - 6 zeta^2 vanishes at zeta = 1 up to rounding (about 5e-16):
    # its condition number is 1, so only the floor on its size rejects it
    W = _obstructed_setup()
    with pytest.raises(SingularLeadingHessian):
        newton_lift(W, (1.0 + 0j,))
    with pytest.raises(Inconsistent, match="singular"):
        graded_lift(W, (1.0 + 0j,))
    assert oracle_lift(terms_of_potential(W), (1.0 + 0j,), F(3)) is None


def test_obstructed_fiber_keeps_its_simple_root():
    # the simple root zeta = -1/2 of the same system lifts fine
    W = _obstructed_setup()
    cert = newton_lift(W, (-0.5 + 0j,))
    assert cert.residual_valuation == INF
    ref = oracle_lift(terms_of_potential(W), (-0.5 + 0j,), F(3))
    assert ref is not None
    assert series_match(dict_of_series(cert.z[0]), ref[0], 1e-9, below=F(2))


def test_pipeline_drops_the_obstructed_double_root(monkeypatch):
    # the two homotopy paths into the double root end only near it (zeta
    # about 1 - 1e-8), where H0 is small but startable: a Newton step fails
    # to double the residual level, the graded lift reports Inconsistent and
    # the root is dropped; the simple root -1/2 survives
    failures = []
    for name in ("newton_lift", "graded_lift"):
        original = getattr(solver_mod, name)

        def recorded(W, zeta, _name=name, _f=original):
            try:
                return _f(W, zeta)
            except Exception as exc:
                failures.append((_name, type(exc).__name__))
                raise

        monkeypatch.setattr(solver_mod, name, recorded)
    P, alpha, D = _obstructed_data()
    certs = certificates_at_fiber(P, (1,), alpha, D)
    assert len(certs) == 1
    assert certs[0].method == "newton"
    assert abs(certs[0].z[0].leading() + 0.5) < 1e-9
    assert failures == [("newton_lift", "NoConvergence"), ("graded_lift", "Inconsistent")]


# -- full pipeline ----------------------------------------------------------------


def test_pipeline_interval():
    certs = find_critical_fibers(interval_polytope(), seed=0)
    assert [c.fiber for c in certs] == [(F(1, 2),), (F(1, 2),)]
    leads = sorted(c.z[0].leading().real for c in certs)
    assert abs(leads[0] + 1) < 1e-9 and abs(leads[1] - 1) < 1e-9


def test_pipeline_plane_blowup():
    certs = find_critical_fibers(plane_blowup_polytope(), seed=0)
    assert len(certs) == 1
    assert certs[0].fiber == (F(1), F(1))
    assert abs(certs[0].z[0].leading() + 1) < 1e-9
    assert abs(certs[0].z[1].leading() + 1) < 1e-9


def test_pipeline_weighted_planes():
    for n1, n2, count in ((1, 1, 3), (2, 3, 6), (3, 5, 9)):
        certs = find_critical_fibers(weighted_plane_polytope(n1, n2), seed=0)
        lam = F(n1 * n2, n1 + n2 + 1)
        assert {c.fiber for c in certs} == {(lam, lam)}
        assert len(certs) == count


def test_pipeline_orbifold_interval():
    certs = find_critical_fibers(orbifold_interval_polytope(), seed=0)
    assert {c.fiber for c in certs} == {(F(2, 3),)}
    assert len(certs) == 3


def test_pipeline_corner_cut():
    certs0 = find_critical_fibers(corner_cut_polytope(0), seed=0)
    assert {c.fiber for c in certs0} == {(F(0), F(0))}
    certs = find_critical_fibers(corner_cut_polytope(F(1, 2)), seed=0)
    assert {c.fiber for c in certs} == {(F(0), F(0)), (F(1, 2), F(1, 2))}
    diag = [c for c in certs if c.fiber == (F(1, 2), F(1, 2))]
    assert len(diag) == 1
    assert diag[0].method == "graded"
    assert not diag[0].leading_jacobian_nondegenerate


def test_pipeline_certificates_verified_independently():
    for make in BENCH_CASES.values():
        P = make()
        certs = find_critical_fibers(P, seed=0)
        assert certs
        for cert in certs:
            W = build_potential(P, cert.fiber)
            terms = terms_of_potential(W)
            z = [dict_of_series(zj) for zj in cert.z]
            assert is_critical(terms, z, W.truncation)
            assert cert.intersection_lower_bound == 2**P.dimension



def _nan_tail_potential():
    # W = z q^(1/2) + z^-1 q^(1/2) (1 + NaN q^(1/2))
    D = F(3, 2)
    tail = series([(0, 1.0), (F(1, 2), math.nan)], D)
    return Potential(
        1,
        (F(1, 2),),
        (
            PotentialTerm(0, 1 + 0j, one(D), (1,), F(1, 2)),
            PotentialTerm(1, 1 + 0j, tail, (-1,), F(1, 2)),
        ),
        D,
    )


def test_a_nan_gradient_is_never_certified():
    # at z = 1 the gradient is a NaN term at q^1, which would certify the
    # point if it were pruned as zero
    W = _nan_tail_potential()
    g = eval_gradient(W, (constant_series(1.0, W.truncation),))
    assert not g[0].is_zero()
    with pytest.raises(NoConvergence):
        newton_lift(W, (1.0,))
    with pytest.raises(Inconsistent):
        graded_lift(W, (1.0,))


# The oracle finds a nonzero gradient at q^122 (residual 6-7 against z
# coefficients near 2.5e15) for the graded certificates at these fibers: the
# absolute zero test at truncation 126, ROADMAP item 1, cause 2.
SIXTEEN_GON_ORACLE_REJECTS = [(F(-8), F(4)), (F(4), F(-8))]


@pytest.fixture(scope="module")
def sixteen_gon_certificates():
    P = _sixteen_gon()
    return P, find_critical_fibers(P)


def _oracle_accepts(P, cert):
    W = build_potential(P, cert.fiber)
    z = [dict_of_series(zj) for zj in cert.z]
    return is_critical(terms_of_potential(W), z, W.truncation)


def test_sixteen_gon_certificates_are_candidates_and_deterministic(sixteen_gon_certificates):
    P, certs = sixteen_gon_certificates
    assert certs
    candidates = {c.fiber for c in tropical_candidates(P)}
    assert all(c.fiber in candidates for c in certs)
    assert find_critical_fibers(P) == certs


def test_sixteen_gon_certificates_pass_the_oracle(sixteen_gon_certificates):
    P, certs = sixteen_gon_certificates
    for cert in certs:
        if cert.fiber not in SIXTEEN_GON_ORACLE_REJECTS:
            assert _oracle_accepts(P, cert), cert.fiber


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, cause 2: absolute zero test at D = 126")
@pytest.mark.parametrize("fiber", SIXTEEN_GON_ORACLE_REJECTS, ids=lambda f: ",".join(map(str, f)))
def test_sixteen_gon_high_order_certificates_pass_the_oracle(sixteen_gon_certificates, fiber):
    P, certs = sixteen_gon_certificates
    at_fiber = [c for c in certs if c.fiber == fiber]
    assert at_fiber and all(_oracle_accepts(P, c) for c in at_fiber)

def test_certificates_at_fiber_is_empty_off_the_interior():
    P = interval_polytope()
    assert certificates_at_fiber(P, (2,)) == []
    assert certificates_at_fiber(P, (0,)) == []
    assert certificates_at_fiber(P, (F(1, 3),)) == []


def test_a_root_the_series_ring_cannot_hold_fails_its_lift_once(monkeypatch):
    # e^60 on one facet of the plane puts a leading-root component near
    # 4.2e-18, which constant_series prunes to the zero series: that root's
    # Newton lift fails, graded_lift is not tried, and the search goes on
    P = weighted_plane_polytope(1, 1)
    alpha = (constant_series(60.0, 1), zero_series(1), zero_series(1))
    graded = []
    monkeypatch.setattr(solver_mod, "graded_lift", lambda W, zeta: graded.append(zeta))
    assert find_critical_fibers(P, alpha) == []
    assert graded == []

def test_pipeline_deterministic():
    P = weighted_plane_polytope(3, 5)
    a = find_critical_fibers(P, seed=3)
    b = find_critical_fibers(P, seed=3)
    assert [c.fiber for c in a] == [c.fiber for c in b]
    assert all(x.z == y.z for x, y in zip(a, b))


# per benchmark case, runs of equal certificates in shipping order:
# (fiber, "method iterations nondegenerate residual_history", count)
LIFT_ROUTES = {
    "interval": [("1/2", "newton 0 True inf", 2)],
    "plane_blowup": [("1,1", "newton 0 False inf", 1)],
    "P111": [("1/3,1/3", "newton 0 True inf", 3)],
    "P123": [("1,1", "newton 0 True inf", 6)],
    "P135": [("5/3,5/3", "newton 0 True inf", 9)],
    "orbifold_P12": [("2/3", "newton 0 True inf", 3)],
    "square": [("0,0", "newton 0 True inf", 4)],
    "corner_cut_0": [("0,0", "newton 3 True 1 2 4 inf", 4)],
    "corner_cut_1/2": [
        ("0,0", "newton 3 True 1/2 1 2 inf", 4),
        ("1/2,1/2", "graded 3 False 1 2 3 inf", 1),
    ],
    "cube": [("0,0,0", "newton 0 True inf", 8)],
    "P3": [("1/4,1/4,1/4", "newton 0 True inf", 4)],
    "hexagon": [("0,0", "newton 0 True inf", 18)],
}


@pytest.mark.parametrize("name", list(LIFT_ROUTES))
def test_lift_routes_of_the_benchmark_cases(name):
    # these fields hold no floats, so they do not move with the BLAS build
    certs = find_critical_fibers(BENCH_CASES[name](), seed=0)
    routes = [
        (
            ",".join(map(str, c.fiber)),
            " ".join(
                [c.method, str(c.iterations), str(c.leading_jacobian_nondegenerate)]
                + ["inf" if v == INF else str(v) for v in c.residual_history]
            ),
        )
        for c in certs
    ]
    assert routes == [(f, r) for f, r, k in LIFT_ROUTES[name] for _ in range(k)]
    # one certificate per distinct leading root, ordered by fiber
    assert [c.fiber for c in certs] == sorted(c.fiber for c in certs)
    for a, b in itertools.combinations(certs, 2):
        if a.fiber == b.fiber:
            gap = max(abs(x.leading() - y.leading()) for x, y in zip(a.z, b.z))
            assert gap > solver_mod.ROOT_DEDUP_TOL


def _evaluations(monkeypatch):
    # counts the points a lift evaluates: its start and one per step
    seen = []
    original = solver_mod._normalized_state

    def counted(*args):
        seen.append(None)
        return original(*args)

    monkeypatch.setattr(solver_mod, "_normalized_state", counted)
    return seen


def test_newton_ends_at_its_first_step_that_does_not_double(monkeypatch):
    # the NaN stays at level 1/2 after the step, so the first step breaks
    # the law and Newton evaluates only its start and that step
    seen = _evaluations(monkeypatch)
    with pytest.raises(NoConvergence, match="step 1 took the residual level from 1/2 to 1/2"):
        newton_lift(_nan_tail_potential(), (1.0,))
    assert len(seen) == 2


def test_newton_ends_at_a_step_that_raises_the_level_without_doubling_it(monkeypatch):
    # each step cut to its lowest term cancels one level, like a graded
    # correction: the level goes 1 -> 2 (doubled), then 2 -> 3, short of 4
    W = build_potential(corner_cut_polytope(0), (F(0), F(0)))
    step = solver_mod._solve_series_system

    def lowest_term(*args):
        return tuple(series(d.terms[:1], d.truncation) for d in step(*args))

    monkeypatch.setattr(solver_mod, "_solve_series_system", lowest_term)
    with pytest.raises(NoConvergence, match="step 2 took the residual level from 2 to 3"):
        newton_lift(W, (-1.0 + 0j, 1.0 + 0j))


def test_a_point_that_is_not_a_leading_root_ends_at_once(monkeypatch):
    # at z = 2 the interval's gradient keeps a residual at level 0, which
    # neither a Newton step nor a graded correction can raise
    W = build_potential(interval_polytope(), (F(1, 2),))
    seen = _evaluations(monkeypatch)
    with pytest.raises(NoConvergence, match="step 1 took the residual level from 0 to 0"):
        newton_lift(W, (2.0 + 0j,))
    assert len(seen) == 2
    with pytest.raises(Inconsistent, match="nonpositive level 0"):
        graded_lift(W, (2.0 + 0j,))
    assert len(seen) == 2  # graded_lift reads Newton's start


def test_graded_lift_ends_at_its_first_repeated_level(monkeypatch):
    # with every correction made zero the frontier repeats at once
    W = build_potential(corner_cut_polytope(0), (F(0), F(0)))
    assert graded_lift(W, (-1.0 + 0j, 1.0 + 0j)).residual_history[0] == 1
    monkeypatch.setattr(solver_mod, "monomial", lambda c, e, D: zero_series(D))
    seen = _evaluations(monkeypatch)
    with pytest.raises(Inconsistent, match="correction at level 1 left the frontier at 1"):
        graded_lift(W, (-1.0 + 0j, 1.0 + 0j))
    assert len(seen) == 1  # the start is the first call's: only the correction evaluates


@pytest.mark.parametrize(
    "make, D",
    [(make, None) for make in BENCH_CASES.values()]
    + [
        (lambda: _twelve_line_polytope(), None),
        (lambda: _twelve_line_polytope(F(-23, 8)), 3),
        (_sixteen_gon, 12),
    ],
    ids=list(BENCH_CASES) + ["12-line", "twisted-hexagon-D3", "16-gon-D12"],
)
def test_lift_histories_obey_the_convergence_law(make, D):
    # every Newton step at least doubles the residual level and every graded
    # correction raises it; a lift that breaks the law ships no certificate
    certs = find_critical_fibers(make(), truncation=D)
    assert certs
    for cert in certs:
        hist = cert.residual_history
        assert all(b > a for a, b in zip(hist, hist[1:]))
        if cert.method == "newton":
            assert all(b >= 2 * a for a, b in zip(hist, hist[1:]))


def test_certificates_at_fiber():
    P = interval_polytope()
    assert len(certificates_at_fiber(P, (F(1, 2),))) == 2
    assert certificates_at_fiber(P, (F(1, 3),)) == []
    assert certificates_at_fiber(P, (F(2),)) == []  # not interior
    B = plane_blowup_polytope()
    assert len(certificates_at_fiber(B, (F(1), F(1)))) == 1


@pytest.mark.parametrize("D", [F(1, 3), F(1)])
def test_a_truncation_at_or_below_a_leading_valuation_is_refused(D):
    # every term of the square's potential at (0, 0) sits at q^1: for D <= 1
    # the gradient is 0 mod q^D, and a lift would certify any point
    P = BENCH_CASES["square"]()
    message = (f"truncation D = {D} at fiber (0, 0) is at or below the largest leading "
               "valuation max_j m_j = 1")
    with pytest.raises(ValidationError, match=re.escape(message)):
        certificates_at_fiber(P, (F(0), F(0)), truncation=D)
    with pytest.raises(ValidationError, match=re.escape(message)):
        find_critical_fibers(P, truncation=D)
    assert len(certificates_at_fiber(P, (F(0), F(0)), truncation=F(9, 8))) == 4


# -- kernels against the code they replaced, bit for bit ---------------------------


_FRACTION_QUARTER_TURNS = {F(0): 1, F(1, 2): 1j, F(1): -1, F(3, 2): -1j}


def _fraction_phase_roots(E, r):
    """_binomial_roots with the phases held as Fractions, as it was written before."""
    n = len(E)
    Hc = [list(c) for c in zip(*E)]
    Vc = [[int(i == k) for i in range(n)] for k in range(n)]
    for i in range(n):
        while True:
            live = [k for k in range(i, n) if Hc[k][i] != 0]
            if not live:
                return None
            p = min(live, key=lambda k: abs(Hc[k][i]))
            Hc[i], Hc[p] = Hc[p], Hc[i]
            Vc[i], Vc[p] = Vc[p], Vc[i]
            if len(live) == 1:
                break
            for k in range(i + 1, n):
                q = Hc[k][i] // Hc[i][i]
                Hc[k] = [x - q * y for x, y in zip(Hc[k], Hc[i])]
                Vc[k] = [x - q * y for x, y in zip(Vc[k], Vc[i])]
        if Hc[i][i] < 0:
            Hc[i] = [-x for x in Hc[i]]
            Vc[i] = [-x for x in Vc[i]]
    V = np.array(Vc, dtype=float).T
    logs = np.log(np.array(r, dtype=complex))
    real = all(complex(x).imag == 0 for x in r)
    roots = []
    for k in itertools.product(*(range(Hc[i][i]) for i in range(n))):
        u = np.zeros(n, dtype=complex)
        turns = []
        for i in range(n):
            lower = sum(Hc[l][i] * u[l] for l in range(i))
            u[i] = (logs[i] + 2j * np.pi * k[i] - lower) / Hc[i][i]
            if real:
                lower_turns = sum(Hc[l][i] * turns[l] for l in range(i))
                turns.append(F(int(r[i].real < 0) + 2 * k[i] - lower_turns, Hc[i][i]))
        w = V @ u
        zeta = [complex(x) for x in np.exp(w)]
        if real:
            for j in range(n):
                unit = _FRACTION_QUARTER_TURNS.get(sum(Vc[i][j] * turns[i] for i in range(n)) % 2)
                if unit is not None:
                    zeta[j] = math.exp(w[j].real) * unit
        roots.append(tuple(complex(x) for x in zeta))
    return roots


def _root_bytes(roots):
    return None if roots is None else [
        [struct.pack("dd", x.real, x.imag) for x in zeta] for zeta in roots
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_root_phases_match_the_fraction_phases_bit_for_bit(n):
    # random integer E (unimodular column operations reduce it to H) and
    # unimodular E, real right-hand sides of either sign, and some complex
    # ones for the other branch
    rng = random.Random(100 + n)
    checked = 0
    for _ in range(60):
        E = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.25:  # a product of elementary row operations: det E = +-1
            E = [[int(i == j) * rng.choice([-1, 1]) for j in range(n)] for i in range(n)]
            for _ in range(4 * n * (n > 1)):
                a, b = rng.sample(range(n), 2)
                q = rng.randint(-2, 2)
                E[a] = [x + q * y for x, y in zip(E[a], E[b])]
        if rng.random() < 0.2:
            E[-1] = list(E[0])  # det E = 0: both give None
        r = [rng.choice([-1.0, 1.0]) * rng.choice([1.0, 0.25, 4.0, 3.0]) for _ in range(n)]
        if rng.random() < 0.2:
            r[0] = complex(r[0], 0.5)
        got = solver_mod._binomial_roots(E, r)
        assert _root_bytes(got) == _root_bytes(_fraction_phase_roots(E, r))
        checked += len(got or ())
    assert checked


def _cond_decision(H0):
    """_well_conditioned as written with np.linalg.cond."""
    if np.max(np.abs(H0)) <= solver_mod.DIAG_TOL:
        return False
    cond = np.linalg.cond(H0)
    return bool(np.isfinite(cond) and cond < solver_mod.COND_LIMIT)


@pytest.mark.parametrize(
    "H0",
    [
        [[2.0, 1.0], [0.5, -1.0]],
        [[0, 1], [1, 0]],
        [[0, 0], [0, 0]],
        [[1e-9, 0], [0, 1e-9]],
        [[1, 1], [1, 1]],
        [[1, 0], [0, 1e-8]],
        [[1, 0], [0, 1.0000001e-8]],
        [[1, 0], [0, 0.9999999e-8]],
        [[math.inf, 0], [0, 1]],
        [[math.inf, math.inf], [1, 1]],
        [[math.nan, 0], [0, 1]],
        [[1, 2j], [0.5 + 1j, 3]],
    ],
    ids=["plain", "zero-diagonal", "zero", "below-tol", "singular", "cond-1e8", "just-above",
         "just-below", "infinite", "infinite-row", "nan", "complex"],
)
def test_one_svd_decides_as_np_linalg_cond_bit_for_bit(H0):
    H0 = np.array(H0, dtype=complex)
    try:
        want = _cond_decision(H0)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            solver_mod._well_conditioned(H0)
        return
    assert solver_mod._well_conditioned(H0) is want
    s = np.linalg.svd(H0, compute_uv=False)
    if s[-1] > 0:  # the quotient the decision reads is np.linalg.cond's, to the bit
        assert struct.pack("d", s[0] / s[-1]) == struct.pack("d", np.linalg.cond(H0))
