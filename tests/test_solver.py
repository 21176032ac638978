"""Candidate enumeration, leading roots, and both lifting routes.

Lifted solutions are cross-checked against the self-contained brute-force
solver in oracles.py, which shares no arithmetic with the package.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import toric_fiber_lab.solver as solver_mod
from toric_fiber_lab import (
    DegenerateDirection,
    Inconsistent,
    LeadingSystem,
    SingularLeadingHessian,
    build_potential,
    certificates_at_fiber,
    constant_series,
    find_critical_fibers,
    graded_lift,
    leading_system,
    make_polytope,
    newton_lift,
    probe_scan,
    series,
    solve_leading,
    tropical_candidates,
    zero_series,
)
from toric_fiber_lab.novikov import INF
from toric_fiber_lab.potential import term_values
from conftest import (
    BENCH_CASES,
    corner_cut_polytope,
    hexagon_polytope,
    interval_polytope,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    weighted_plane_polytope,
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


# -- leading systems -----------------------------------------------------------


def test_leading_system_interval():
    W = build_potential(interval_polytope(), (F(1, 2),))
    sys = leading_system(W)
    assert sys.equations == ((((1 + 0j), (1,)), ((-1 + 0j), (-1,))),)
    assert sys.row_valuations == (F(1, 2),)


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


def test_leading_system_rejects_unbalanced_fiber():
    W = build_potential(interval_polytope(), (F(1, 3),))
    with pytest.raises(DegenerateDirection):
        leading_system(W)


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
        assert solver_mod._candidate_minima(P, lam) is not None
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
        (F(0), F(0)),
    )
    # z1 z2 = -1/2 and (z1 z2)^2 = -1/3 have no common root, and the
    # supports have mixed volume 0: no cell, no path
    assert solver_mod._homotopy_roots(sys) == []
    calls = []
    monkeypatch.setattr(solver_mod, "_homotopy_roots", lambda s: calls.append(s) or [])
    assert solve_leading(sys) == []
    assert calls == [sys]


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


def _twelve_line_polytope():
    normals = [(2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1)]
    normals += [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    return make_polytope(2, [(v, F(-3)) for v in normals])


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
    return LeadingSystem(n, tuple(eqs), (F(0),) * n)


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
    row_vals, _ = solver_mod._row_data(W)
    z = tuple(constant_series(x, W.truncation) for x in zeta)
    tv = term_values(W, z)
    return solver_mod._constant_part(solver_mod._normalized_hessian(W, row_vals, tv))


@pytest.mark.parametrize("name", list(BENCH_CASES))
def test_leading_matrix_is_the_z_jacobian_times_zeta(name):
    # H0, read off the normalized b-Hessian, equals J0 diag(zeta) with J0 the
    # leading z-Jacobian built here from the raw terms: row j sums
    # v_ij v_ik m_i zeta^{v_i} / zeta_k over the terms of least valuation
    # among those with v_ij != 0
    P = BENCH_CASES[name]()
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
    assert solver_mod._well_conditioned(H0)
    assert not solver_mod._newton_startable(H0)


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


# -- graded lifting ---------------------------------------------------------------


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
            assert calls["term_values"] == points
            assert calls["nov_inverse"] <= W.dimension * points
            seen.append((cert.method, cert.iterations))
    assert sorted(m for m, _ in seen) == ["graded"] + ["newton"] * 4
    assert all(it >= 1 for _, it in seen)


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
    # about 1 - 1e-8), where H0 is small but startable: Newton stalls, the
    # graded lift reports Inconsistent and the root is dropped; the simple
    # root -1/2 survives
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


def test_certificates_at_fiber_is_empty_off_the_interior():
    P = interval_polytope()
    assert certificates_at_fiber(P, (2,)) == []
    assert certificates_at_fiber(P, (0,)) == []
    assert certificates_at_fiber(P, (F(1, 3),)) == []


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


def test_stall_rule():
    stalled = solver_mod._stalled
    # monotone: three frontiers in a row no better than the best before them
    assert not stalled([1, 2, 2, 2])
    assert stalled([1, 2, 2, 2, 2])
    # a Newton-style dip that recovers past the best never stalls
    history = [1, 3, 2, 2, 4]
    assert not any(stalled(history[:k]) for k in range(1, len(history) + 1))
    # one that climbs back only to the best does
    assert stalled([1, 3, 2, 2, 3])
    # on nondecreasing histories (graded_lift's) it is the rule "each of the
    # last three frontiers no better than the one before it"
    for length in (4, 5, 6):
        for history in itertools.product((1, 2, 3), repeat=length):
            h = list(history)
            if h == sorted(h):
                previous_rule = all(a >= b for a, b in zip(h[-4:], h[-3:]))
                assert stalled(h) == previous_rule


def test_certificates_at_fiber():
    P = interval_polytope()
    assert len(certificates_at_fiber(P, (F(1, 2),))) == 2
    assert certificates_at_fiber(P, (F(1, 3),)) == []
    assert certificates_at_fiber(P, (F(2),)) == []  # not interior
    B = plane_blowup_polytope()
    assert len(certificates_at_fiber(B, (F(1), F(1)))) == 1
