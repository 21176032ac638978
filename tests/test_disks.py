"""Disk classes: index, area, boundary, Blaschke models, potential rebuild."""

import cmath
import math
from fractions import Fraction

import pytest

import toric_fiber_lab.disks as disks_mod
import toric_fiber_lab.polytope as polytope_mod
from toric_fiber_lab import (
    blaschke_data,
    blaschke_eval,
    boundary_class,
    build_potential,
    disk_area,
    index_two_classes,
    maslov_index,
    monomial,
    potential_from_disks,
)
from conftest import (
    corner_cut_polytope,
    interval_polytope,
    nov_close,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    square_polytope,
    weighted_plane_polytope,
)

F = Fraction

ALL_EXAMPLES = [
    (interval_polytope(), (F(1, 4),)),
    (plane_blowup_polytope(), (F(2), F(3))),
    (weighted_plane_polytope(3, 5), (F(1), F(1))),
    (orbifold_interval_polytope(), (F(1, 3),)),
    (corner_cut_polytope(F(1, 2)), (F(1, 4), F(-1, 4))),
]


# -- index, area, boundary -------------------------------------------------------


def test_maslov_index():
    assert maslov_index((0, 0, 0)) == 0
    assert maslov_index((1, 0, 0)) == 2
    assert maslov_index((2, 1, 0)) == 6
    with pytest.raises(ValueError):
        maslov_index((1, -1, 0))


def test_disk_area_interval():
    P = interval_polytope()
    assert disk_area((1, 0), P, (F(1, 2),)) == F(1, 2)
    assert disk_area((0, 1), P, (F(1, 2),)) == F(1, 2)
    assert disk_area((1, 1), P, (F(1, 4),)) == F(1)  # full sphere class


def test_disk_area_weighted():
    P = weighted_plane_polytope(3, 5)
    assert disk_area((0, 0, 1), P, (F(5, 3), F(5, 3))) == F(5, 3)
    assert disk_area((0, 0, 1), P, (F(1), F(1))) == F(7)


def test_disk_area_rejects_wrong_length():
    with pytest.raises(ValueError):
        disk_area((1, 0), weighted_plane_polytope(3, 5), (F(1), F(1)))


def test_boundary_class():
    P = weighted_plane_polytope(3, 5)
    assert boundary_class((1, 0, 0), P) == (1, 0)
    assert boundary_class((0, 1, 0), P) == (0, 1)
    assert boundary_class((0, 0, 1), P) == (-5, -3)
    assert boundary_class((1, 2, 1), P) == (-4, -1)  # additivity in the degrees
    with pytest.raises(ValueError, match="one entry per facet"):
        boundary_class((1, 0), P)


def test_index_two_classes_are_unit_vectors():
    for P, _ in ALL_EXAMPLES:
        classes = index_two_classes(P)
        assert len(classes) == len(P.facets)
        for i, d in enumerate(classes):
            assert maslov_index(d) == 2
            assert d == tuple(int(i == j) for j in range(len(P.facets)))


# -- Blaschke models ---------------------------------------------------------------


def test_blaschke_boundary_modulus():
    P = weighted_plane_polytope(3, 5)
    lam = (F(1), F(1))
    b = blaschke_data(P, lam, [[0.5 + 0j], [], [0.2 - 0.1j, -0.3j]])
    values = (F(1), F(1), F(7))
    for k in range(16):
        z = cmath.exp(2j * math.pi * k / 16)
        w = blaschke_eval(b, z)
        for wj, lj in zip(w, values):
            assert abs(abs(wj) - math.sqrt(float(lj) / math.pi)) < 1e-12


def test_blaschke_zero_is_hit():
    P = interval_polytope()
    b = blaschke_data(P, (F(1, 2),), [[0.5 + 0j], []])
    w = blaschke_eval(b, 0.5 + 0j)
    assert abs(w[0]) < 1e-15
    assert abs(w[1]) > 0  # degree-zero coordinate is a nonzero constant


def test_blaschke_rejects_bad_zeros():
    P = interval_polytope()
    with pytest.raises(ValueError):
        blaschke_data(P, (F(1, 2),), [[1.0 + 0j], []])
    with pytest.raises(ValueError):
        blaschke_data(P, (F(1, 2),), [[0.5 + 0j]])  # one list per facet


def test_blaschke_rejects_nonunit_phase():
    P = interval_polytope()
    with pytest.raises(ValueError):
        blaschke_data(P, (F(1, 2),), [[], []], phases=[2.0 + 0j, 1.0 + 0j])


def test_blaschke_eval_domain():
    P = interval_polytope()
    b = blaschke_data(P, (F(1, 2),), [[], []])
    with pytest.raises(ValueError):
        blaschke_eval(b, 2.0 + 0j)


# -- potential rebuild ---------------------------------------------------------------


def test_disk_potential_matches_facet_potential():
    for P, lam in ALL_EXAMPLES:
        a = build_potential(P, lam)
        b = potential_from_disks(P, lam)
        assert a.truncation == b.truncation
        assert len(a.terms) == len(b.terms)
        for ta, tb in zip(a.terms, b.terms):
            assert ta.facet_index == tb.facet_index
            assert ta.exponent == tb.exponent
            assert ta.valuation == tb.valuation
            assert abs(ta.multiplier - tb.multiplier) < 1e-12
            assert nov_close(ta.bulk_tail, tb.bulk_tail)


def test_disk_potential_computes_the_facet_values_once(monkeypatch):
    # the areas d . l(lam) come from the values fiber_setup computed, not
    # from one disk_area (one facet_values) per class
    calls = []
    facet_values = polytope_mod.facet_values

    def counted(P, lam):
        calls.append(lam)
        return facet_values(P, lam)

    for mod in (polytope_mod, disks_mod):
        monkeypatch.setattr(mod, "facet_values", counted)
    for P, lam in ALL_EXAMPLES:
        calls.clear()
        W = potential_from_disks(P, lam)
        assert len(calls) <= 1
        assert [t.valuation for t in W.terms] == [
            disk_area(cls, P, lam) for cls in index_two_classes(P)
        ]


def test_disk_potential_matches_with_twist():
    P = weighted_plane_polytope(2, 3)
    lam = (F(1), F(1))
    D = F(6)
    alpha = tuple(
        monomial(0.1j * (i + 1), F(i + 1, 2), D) for i in range(len(P.facets))
    )
    a = build_potential(P, lam, alpha, truncation=D)
    b = potential_from_disks(P, lam, alpha, truncation=D)
    for ta, tb in zip(a.terms, b.terms):
        assert ta.exponent == tb.exponent
        assert ta.valuation == tb.valuation
        assert abs(ta.multiplier - tb.multiplier) < 1e-12
        assert nov_close(ta.bulk_tail, tb.bulk_tail)
    for build in (build_potential, potential_from_disks):
        with pytest.raises(ValueError, match="one series per facet"):
            build(P, lam, alpha[:-1], truncation=D)
