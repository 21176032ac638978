"""Randomized invariants: algebra roundtrips, gradients, histories, symmetry."""

import cmath
import math
import random
from fractions import Fraction

from toric_fiber_lab import (
    blaschke_data,
    blaschke_eval,
    build_potential,
    constant_series,
    eval_gradient,
    eval_potential,
    facet_values,
    find_critical_fibers,
    is_interior,
    make_polytope,
    nov_close,
    nov_exp,
    nov_inverse,
    one,
    series,
)
from toric_fiber_lab.novikov import INF
from conftest import (
    corner_cut_polytope,
    interval_polytope,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    weighted_plane_polytope,
)

F = Fraction

ROUNDTRIP_TOL = 1e-9
GRADIENT_REL_TOL = 1e-5
MODULUS_TOL = 1e-9
LEAD_TOL = 1e-6
MIXED_STEPS = (F(1, 2), F(1, 3), F(2, 5))


def _random_series(rng: random.Random, D, unit: bool, max_terms=6, steps=(F(1, 4),)):
    """Random series whose positive exponents are multiples below D of the given steps."""
    terms = []
    if unit:
        r = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0, 2 * math.pi)
        terms.append((F(0), r * cmath.exp(1j * theta)))
    for _ in range(rng.randrange(max_terms)):
        # a single step draws no choice, so the quarter draws stay as they were
        step = steps[0] if len(steps) == 1 else rng.choice(steps)
        e = step * rng.randrange(1, math.ceil(D / step))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((e, c))
    return series(terms, D)


def test_inverse_roundtrip_random():
    D = F(3)
    # quarter exponents, then mixed denominators
    for steps in ((F(1, 4),), MIXED_STEPS):
        rng = random.Random(0)
        for _ in range(500):
            u = _random_series(rng, D, unit=True, steps=steps)
            assert nov_close(u * nov_inverse(u), one(D), tol=ROUNDTRIP_TOL)


def test_exp_additivity_random():
    rng = random.Random(1)
    D = F(3)
    for _ in range(500):
        a = _random_series(rng, D, unit=False)
        b = _random_series(rng, D, unit=False)
        lhs = nov_exp(a) * nov_exp(b)
        rhs = nov_exp(a + b)
        assert nov_close(lhs, rhs, tol=ROUNDTRIP_TOL)
        assert nov_close(nov_exp(a) * nov_exp(-a), one(D), tol=ROUNDTRIP_TOL)


def test_gradient_matches_finite_differences():
    rng = random.Random(2)
    P = weighted_plane_polytope(3, 5)
    h = 1e-6
    for _ in range(100):
        lam = (F(rng.randrange(1, 12), 8), F(rng.randrange(1, 12), 8))
        if not is_interior(P, lam):
            continue
        W = build_potential(P, lam)
        z = tuple(
            constant_series(
                rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                W.truncation,
            )
            for _ in range(2)
        )
        q0 = rng.uniform(0.05, 0.5)
        grads = eval_gradient(W, z)
        for j in range(2):
            zp = list(z)
            zm = list(z)
            zp[j] = z[j] * constant_series(cmath.exp(h), W.truncation)
            zm[j] = z[j] * constant_series(cmath.exp(-h), W.truncation)
            fd = (
                eval_potential(W, tuple(zp)).evaluate(q0)
                - eval_potential(W, tuple(zm)).evaluate(q0)
            ) / (2 * h)
            g = grads[j].evaluate(q0)
            assert abs(g - fd) <= GRADIENT_REL_TOL * max(1.0, abs(g))


def test_newton_histories_double_the_frontier():
    examples = [
        (interval_polytope(), (F(1, 2),)),
        (plane_blowup_polytope(), (F(1), F(1))),
        (weighted_plane_polytope(2, 3), (F(1), F(1))),
        (orbifold_interval_polytope(), (F(2, 3),)),
        (corner_cut_polytope(0), (F(0), F(0))),
        (corner_cut_polytope(F(1, 2)), (F(0), F(0))),
    ]
    saw_nontrivial = False
    for P, _ in examples:
        for cert in find_critical_fibers(P, seed=0):
            if cert.method != "newton":
                continue
            W = build_potential(P, cert.fiber)
            # m_j: the least valuation among the terms that involve direction j
            m = [min(t.valuation for t in W.terms if t.exponent[j]) for j in range(W.dimension)]
            cap = W.truncation - max(m)
            hist = cert.residual_history
            assert all(b > a for a, b in zip(hist, hist[1:]))
            for prev, nxt in zip(hist, hist[1:]):
                assert nxt >= min(2 * prev, cap)
            if len(hist) > 1:
                saw_nontrivial = True
    assert saw_nontrivial  # the cut squares genuinely iterate
    # every history ends in a fully vanished residual
    for P, _ in examples:
        for cert in find_critical_fibers(P, seed=0):
            assert cert.residual_valuation == INF


def test_blaschke_modulus_random():
    rng = random.Random(3)
    P = weighted_plane_polytope(3, 5)
    for _ in range(100):
        lam = (F(rng.randrange(1, 12), 8), F(rng.randrange(1, 12), 8))
        if not is_interior(P, lam):
            continue
        zeros = []
        for _ in P.facets:
            zs = [
                rng.uniform(0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                for _ in range(rng.randrange(4))
            ]
            zeros.append(zs)
        phases = [
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in P.facets
        ]
        b = blaschke_data(P, lam, zeros, phases)
        values = facet_values(P, lam)
        for k in range(16):
            w = blaschke_eval(b, cmath.exp(2j * math.pi * k / 16))
            for wj, lj in zip(w, values):
                assert abs(abs(wj) - math.sqrt(float(lj) / math.pi)) < MODULUS_TOL


def _lead_multiset(certs):
    leads = [tuple(zj.leading() for zj in c.z) for c in certs]
    return sorted(leads, key=lambda t: tuple((round(w.real, 6), round(w.imag, 6)) for w in t))


def _values_multiset(certs):
    vals = [c.critical_value.leading() if c.critical_value.terms else 0j for c in certs]
    return sorted(vals, key=lambda w: (round(w.real, 6), round(w.imag, 6)))


def test_scaling_equivariance():
    for P, s in [
        (interval_polytope(), F(3)),
        (weighted_plane_polytope(1, 1), F(1, 2)),
    ]:
        scaled = make_polytope(
            P.dimension, [(f.normal, s * f.offset) for f in P.facets]
        )
        base = find_critical_fibers(P, seed=0)
        image = find_critical_fibers(scaled, seed=0)
        assert len(base) == len(image)
        assert {tuple(s * x for x in c.fiber) for c in base} == {
            c.fiber for c in image
        }
        for a, b in zip(_lead_multiset(base), _lead_multiset(image)):
            assert all(abs(x - y) < LEAD_TOL for x, y in zip(a, b))


def test_translation_equivariance():
    cases = [
        (interval_polytope(), (F(2),)),
        (weighted_plane_polytope(2, 3), (F(1), F(-5))),
        (corner_cut_polytope(F(1, 2)), (F(-3), F(7))),
    ]
    for P, tau in cases:
        moved = make_polytope(
            P.dimension,
            [
                (f.normal, f.offset + sum(t * v for t, v in zip(tau, f.normal)))
                for f in P.facets
            ],
        )
        base = find_critical_fibers(P, seed=0)
        image = find_critical_fibers(moved, seed=0)
        assert len(base) == len(image)
        assert {tuple(x + t for x, t in zip(c.fiber, tau)) for c in base} == {
            c.fiber for c in image
        }
        # facet values are untouched, so the solutions agree exactly
        for a, b in zip(_lead_multiset(base), _lead_multiset(image)):
            assert all(abs(x - y) < LEAD_TOL for x, y in zip(a, b))


def test_unimodular_equivariance():
    # U = [[1,1],[0,1]]; normals transform by the inverse transpose so that
    # facet values at U lambda match facet values at lambda
    P = weighted_plane_polytope(1, 1)
    uinvt = ((1, 0), (-1, 1))
    sheared = make_polytope(
        2,
        [
            (
                tuple(sum(uinvt[r][s] * f.normal[s] for s in range(2)) for r in range(2)),
                f.offset,
            )
            for f in P.facets
        ],
    )
    base = find_critical_fibers(P, seed=0)
    image = find_critical_fibers(sheared, seed=0)
    assert len(base) == len(image)
    assert {(c.fiber[0] + c.fiber[1], c.fiber[1]) for c in base} == {
        c.fiber for c in image
    }
    for x, y in zip(_values_multiset(base), _values_multiset(image)):
        assert abs(x - y) < LEAD_TOL
