"""Potential construction and derivatives."""

import math
from fractions import Fraction

import pytest

from toric_fiber_lab import (
    NotAUnit,
    NotInterior,
    TruncationMismatch,
    ValidationError,
    blaschke_data,
    build_potential,
    constant_series,
    eval_gradient,
    eval_hessian,
    eval_potential,
    monomial,
    potential_from_disks,
    series,
    val,
)
from toric_fiber_lab.potential import term_values
from conftest import (
    hexagon_polytope,
    interval_polytope,
    nov_close,
    plane_blowup_polytope,
    weighted_plane_polytope,
    zero_series,
)

F = Fraction


def zpoint(D, *vals):
    return tuple(constant_series(complex(v), D) for v in vals)


def test_build_interval_potential():
    P = interval_polytope()
    W = build_potential(P, (F(1, 2),))
    assert W.truncation == F(3, 2)  # three times the largest facet value
    assert [(t.exponent, t.valuation) for t in W.terms] == [
        ((1,), F(1, 2)),
        ((-1,), F(1, 2)),
    ]
    assert all(t.multiplier == 1 for t in W.terms)
    assert all(t.bulk_tail.terms == ((F(0), 1 + 0j),) for t in W.terms)


def test_build_plane_blowup_potential():
    W = build_potential(plane_blowup_polytope(), (F(1), F(1)))
    assert [(t.exponent, t.valuation) for t in W.terms] == [
        ((1, 0), F(1)),
        ((0, 1), F(1)),
        ((1, 1), F(1)),
    ]


def test_build_rejects_boundary_fiber():
    with pytest.raises(NotInterior):
        build_potential(interval_polytope(), (F(0),))


def test_not_interior_message_prints_the_fiber_plainly():
    P = interval_polytope()
    for build in (build_potential, potential_from_disks):
        with pytest.raises(NotInterior, match=r"^fiber \(2\) is not interior$"):
            build(P, (F(2),))
    with pytest.raises(NotInterior, match=r"^fiber \(-1/2\) is not interior$"):
        blaschke_data(P, (F(-1, 2),), [[], []])


def test_constant_twist_becomes_multiplier():
    P = interval_polytope()
    D = build_potential(P, (F(1, 2),)).truncation
    alpha = (constant_series(1j * math.pi, D), zero_series(D))
    W = build_potential(P, (F(1, 2),), alpha)
    assert abs(W.terms[0].multiplier + 1) < 1e-12
    assert abs(W.terms[1].multiplier - 1) < 1e-12


def test_overflowing_twist_is_a_validation_error():
    # e^1000 overflows a float: the twist is bad input, named by its facet
    P = weighted_plane_polytope(1, 1)
    D = build_potential(P, (F(1, 3), F(1, 3))).truncation
    alpha = (zero_series(D), constant_series(1000.0, D), zero_series(D))
    with pytest.raises(ValidationError, match="facet 1"):
        build_potential(P, (F(1, 3), F(1, 3)), alpha)


def test_positive_valuation_twist_keeps_leading_data():
    P = weighted_plane_polytope(3, 5)
    lam = (F(1), F(1))
    D = build_potential(P, lam).truncation
    alpha = (monomial(0.7, F(1, 3), D), zero_series(D), monomial(2.0, F(1, 2), D))
    plain = build_potential(P, lam)
    twisted = build_potential(P, lam, alpha)
    for a, b in zip(plain.terms, twisted.terms):
        assert a.multiplier == b.multiplier
        assert a.valuation == b.valuation
        assert a.exponent == b.exponent
    assert twisted.terms[0].bulk_tail.coefficient(F(1, 3)) == pytest.approx(0.7)


def test_eval_potential_interval():
    P = interval_polytope()
    W = build_potential(P, (F(1, 2),))
    v1 = eval_potential(W, zpoint(W.truncation, 1))
    assert v1.terms == ((F(1, 2), 2 + 0j),)
    v2 = eval_potential(W, zpoint(W.truncation, -1))
    assert v2.terms == ((F(1, 2), -2 + 0j),)


def test_eval_potential_plane_blowup():
    W = build_potential(plane_blowup_polytope(), (F(1), F(1)))
    v = eval_potential(W, zpoint(W.truncation, -1, -1))
    assert v.terms == ((F(1), -1 + 0j),)


def test_eval_gradient_interval():
    P = interval_polytope()
    W = build_potential(P, (F(1, 2),))
    (g,) = eval_gradient(W, zpoint(W.truncation, 1))
    assert g.is_zero()
    (gi,) = eval_gradient(W, zpoint(W.truncation, 1j))
    assert gi.terms == ((F(1, 2), 2j),)


def test_eval_gradient_plane_blowup():
    W = build_potential(plane_blowup_polytope(), (F(1), F(1)))
    g = eval_gradient(W, zpoint(W.truncation, -1, -1))
    assert all(gj.is_zero() for gj in g)


def test_eval_hessian_values():
    P = interval_polytope()
    W = build_potential(P, (F(1, 2),))
    H = eval_hessian(W, zpoint(W.truncation, 1))
    assert H[0][0].terms == ((F(1, 2), 2 + 0j),)
    H = eval_hessian(W, zpoint(W.truncation, -1))
    assert H[0][0].terms == ((F(1, 2), -2 + 0j),)
    B = build_potential(plane_blowup_polytope(), (F(1), F(1)))
    HB = eval_hessian(B, zpoint(B.truncation, -1, -1))
    assert HB[0][1].terms == ((F(1), 1 + 0j),)  # only the mixed term contributes
    assert HB[0][1].terms == HB[1][0].terms


def test_eval_requires_units():
    P = interval_polytope()
    W = build_potential(P, (F(1, 2),))
    with pytest.raises(NotAUnit):
        eval_potential(W, (monomial(1.0, F(1, 2), W.truncation),))


def test_eval_refuses_a_point_of_another_truncation():
    # W is truncated at 3/2.  At z = 2 truncated at 1/2 the gradient (2 - 1/2) q^{1/2}
    # read as zero, and at z = 1 + q^2 truncated at 5 the value held q^{9/2}
    W = build_potential(interval_polytope(), (F(1, 2),))
    for z in (zpoint(F(1, 2), 2), (series([(0, 1.0), (2, 1.0)], 5),)):
        for evaluate in (term_values, eval_potential, eval_gradient, eval_hessian):
            with pytest.raises(TruncationMismatch, match=f"at {z[0].truncation}, potential at 3/2"):
                evaluate(W, z)


def test_gradient_is_termwise_weighting():
    # summing gradient components with weights mu recovers the mu-directional
    # derivative assembled directly from the term list
    W = build_potential(weighted_plane_polytope(2, 3), (F(1, 2), F(1, 2)))
    z = zpoint(W.truncation, 1.3 + 0.2j, -0.7 + 1j)
    g = eval_gradient(W, z)
    mu = (3, -2)
    combo = g[0] * float(mu[0]) + g[1] * float(mu[1])
    from toric_fiber_lab.potential import term_values

    direct = zero_series(W.truncation)
    for t, tv in zip(W.terms, term_values(W, z)):
        weight = sum(m * v for m, v in zip(mu, t.exponent))
        if weight:
            direct = direct + tv * float(weight)
    assert nov_close(combo, direct, 1e-9)


def test_derivatives_match_running_sums():
    # one series() pass per entry equals the term-by-term running sum
    P = weighted_plane_polytope(3, 5)
    lam = (F(1), F(1))
    D = build_potential(P, lam).truncation
    alpha = (monomial(0.7, F(1, 3), D), zero_series(D), monomial(2.0 - 1j, F(1, 2), D))
    W = build_potential(P, lam, alpha)
    z = tuple(
        constant_series(c, D) + monomial(0.3 - 0.4j, F(2, 3), D)
        for c in (1.3 + 0.2j, -0.7 + 1j)
    )
    tv = term_values(W, z)
    g, H = eval_gradient(W, z), eval_hessian(W, z)
    for j in range(2):
        ref = zero_series(D)
        for t, v in zip(W.terms, tv):
            ref = ref + v * float(t.exponent[j])
        assert nov_close(g[j], ref, 1e-12)
        for k in range(2):
            ref = zero_series(D)
            for t, v in zip(W.terms, tv):
                ref = ref + v * float(t.exponent[j] * t.exponent[k])
            assert nov_close(H[j][k], ref, 1e-12)
    assert H[0][1] == H[1][0]


def test_gradient_vanishing_series_valuation():
    # a q-dependent point: z = -1 - q on the interval at 1/2 is not critical,
    # and the residual's valuation reflects the first uncancelled level
    P = interval_polytope()
    W = build_potential(P, (F(1, 2),), truncation=3)
    z = (constant_series(-1.0, W.truncation) + monomial(-1.0, 1, W.truncation),)
    (g,) = eval_gradient(W, z)
    assert val(g) == F(3, 2)


# -- term values at constant and twisted points ------------------------------------


@pytest.mark.parametrize(
    "z, zero_terms",
    [((1e-7, 1.0), [0]), ((1e13, 1.0), [2, 3, 4]), ((1.0, 1e-12 + 0j), [])],
    ids=["power-prunes-to-zero", "inverse-prunes-to-zero", "smallest-unit"],
)
def test_constant_points_prune_to_zero_terms(z, zero_terms):
    # hexagon normals (2,1) (1,2) (-1,1) (-2,-1) (-1,-2) (1,-1) at its centre:
    # z_1^2 z_2 = 1e-14 and z_1^{-1} = 1e-13 prune to the zero series
    W = build_potential(hexagon_polytope(), (F(0), F(0)))
    if not zero_terms:
        # 1e-12 is a unit, but too small to invert
        with pytest.raises(NotAUnit, match="valuation 0 is not invertible"):
            term_values(W, zpoint(W.truncation, *z))
        return
    got = term_values(W, zpoint(W.truncation, *z))
    assert [i for i, s in enumerate(got) if s.is_zero()] == zero_terms


def test_a_twisted_potential_reaches_its_tails():
    P = weighted_plane_polytope(3, 5)
    lam = (F(1), F(1))
    D = build_potential(P, lam).truncation
    alpha = (monomial(0.7, F(1, 3), D), zero_series(D), monomial(2.0, F(1, 2), D))
    W = build_potential(P, lam, alpha)
    got = term_values(W, zpoint(D, 0.5 + 1j, -2.0))
    assert any(len(s._items) > 1 for s in got)  # the tails reach the values


def test_a_zero_component_is_not_a_unit():
    W = build_potential(hexagon_polytope(), (F(0), F(0)))
    with pytest.raises(NotAUnit, match="unit components"):
        term_values(W, (constant_series(1.0, W.truncation), zero_series(W.truncation)))
