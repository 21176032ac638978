"""Shared example polytopes and series helpers.

The recurring cast: the interval [0,1], the blow-up of the affine plane, the
weighted projective planes P(1,n1,n2), the orbifold interval P(1,2), the
square, the square with one corner cut at depth a (the blow-up family), and
the hexagon with normals (2,1), (1,2), (-1,1) and their negatives, the
cube [-1,1]^3 and projective 3-space.  BENCH_CASES builds the benchmark's
twelve input polytopes from these, under the benchmark's names.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from toric_fiber_lab import constant_series, make_polytope

F = Fraction
COMPARE_TOL = 1e-9


def nov_close(a, b, tol: float = COMPARE_TOL) -> bool:
    """Term-wise coefficient comparison of two series after aligning exponents."""
    exps = {e for e, _ in a.terms} | {e for e, _ in b.terms}
    return all(abs(a.coefficient(e) - b.coefficient(e)) <= tol for e in exps)


def evaluate(s, q0: float) -> complex:
    """The series s at a real 0 < q0 < 1."""
    return sum((c * (q0 ** float(e)) for e, c in s.terms), 0j)


def zero_series(truncation):
    return constant_series(0j, truncation)


def fraction_solve(rows, rhs):
    """The unique solution of a square Fraction system by Gauss-Jordan
    elimination, or None when it is singular."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(len(m)):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[-1] / row[i] for i, row in enumerate(m)]


def interval_polytope():
    return make_polytope(1, [((1,), F(0)), ((-1,), F(-1))])


def plane_blowup_polytope():
    # {x >= 0, y >= 0, x + y >= 1}: unbounded, vertices (1,0) and (0,1)
    return make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0)), ((1, 1), F(1))])


def quadrant_polytope():
    # {x >= 0, y >= 0}: one vertex, so no box around the vertices
    return make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0))])


def strip_polytope():
    # {0 <= x <= 1}: no vertex at all
    return make_polytope(2, [((1, 0), F(0)), ((-1, 0), F(-1))])


def weighted_plane_polytope(n1: int, n2: int):
    return make_polytope(
        2, [((1, 0), F(0)), ((0, 1), F(0)), ((-n2, -n1), F(-n1 * n2))]
    )


def orbifold_interval_polytope():
    # [0,1] presented with the non-primitive outer normal (-2)
    return make_polytope(1, [((1,), F(0)), ((-2,), F(-2))])


def square_polytope():
    return make_polytope(
        2, [((1, 0), F(-1)), ((0, 1), F(-1)), ((-1, 0), F(-1)), ((0, -1), F(-1))]
    )


def corner_cut_polytope(a):
    # [-1,1]^2 with the (1,1) corner cut by x + y <= 2 - a
    a = F(a)
    return make_polytope(
        2,
        [
            ((1, 0), F(-1)),
            ((0, 1), F(-1)),
            ((-1, 0), F(-1)),
            ((0, -1), F(-1)),
            ((-1, -1), -(2 - a)),
        ],
    )


def hexagon_polytope():
    normals = ((2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1))
    return make_polytope(2, [(v, F(-3)) for v in normals])


def cube_polytope():
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    opposite = tuple(tuple(-x for x in e) for e in axes)
    return make_polytope(3, [(v, F(-1)) for v in axes + opposite])


def projective_space_polytope():
    facets = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]
    return make_polytope(3, [(v, F(c)) for v, c in facets])


BENCH_CASES = {
    "interval": interval_polytope,
    "plane_blowup": plane_blowup_polytope,
    "P111": lambda: weighted_plane_polytope(1, 1),
    "P123": lambda: weighted_plane_polytope(2, 3),
    "P135": lambda: weighted_plane_polytope(3, 5),
    "orbifold_P12": orbifold_interval_polytope,
    "square": square_polytope,
    "corner_cut_0": lambda: corner_cut_polytope(0),
    "corner_cut_1/2": lambda: corner_cut_polytope(F(1, 2)),
    "cube": cube_polytope,
    "P3": projective_space_polytope,
    "hexagon": hexagon_polytope,
}


@pytest.fixture
def interval():
    return interval_polytope()


@pytest.fixture
def plane_blowup():
    return plane_blowup_polytope()


@pytest.fixture
def weighted_35():
    return weighted_plane_polytope(3, 5)


@pytest.fixture
def orbifold_interval():
    return orbifold_interval_polytope()


@pytest.fixture
def square():
    return square_polytope()


INTERVAL_JSON = (
    '{"dimension": 1, "facets": ['
    '{"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "-1"}]}'
)

# malformed input documents, with the start of the message each is rejected with
MALFORMED_DOCUMENTS = {
    "bool-offset": ('{"dimension": 1, "facets": [[[1], true], [[-1], -1]]}',
                    "not a rational: True"),
    "float-offset": ('{"dimension": 1, "facets": [[[1], 0.5], [[-1], -1]]}',
                     "not a rational: 0.5"),
    "string-dimension": ('{"dimension": "1", "facets": [[[1], 0], [[-1], -1]]}',
                         "dimension must be a positive integer"),
    "bool-dimension": ('{"dimension": true, "facets": [[[1], 0], [[-1], -1]]}',
                       "dimension must be a positive integer"),
    "facets-not-a-list": ('{"dimension": 1, "facets": {"normal": [1], "offset": 0}}',
                          "facets must be a nonempty list"),
    "facet-without-offset": ('{"dimension": 1, "facets": [{"normal": [1]}, [[-1], -1]]}',
                             "facet missing key 'offset'"),
    "facet-of-three": ('{"dimension": 1, "facets": [[[1], 0, 0], [[-1], -1]]}',
                       "facet entry [[1], 0, 0] not understood"),
    "float-normal": ('{"dimension": 1, "facets": [[[1.0], 0], [[-1], -1]]}',
                     "facet normal [1.0] must be a list of integers"),
    "bool-normal": ('{"dimension": 1, "facets": [[[true], 0], [[-1], -1]]}',
                    "facet normal [True] must be a list of integers"),
    "witness-not-a-list": ('{"dimension": 1, "facets": [[[1], 0], [[-1], -1]], '
                           '"interior_witness": "1/2"}',
                           "interior_witness must be a list of rationals"),
    "witness-wrong-length": ('{"dimension": 1, "facets": [[[1], 0], [[-1], -1]], '
                             '"interior_witness": ["1/2", "1/2"]}',
                             "interior witness has the wrong length"),
    "float-witness": ('{"dimension": 1, "facets": [[[1], 0], [[-1], -1]], '
                      '"interior_witness": [0.5]}',
                      "not a rational: 0.5"),
}

WEIGHTED_35_JSON = (
    '{"dimension": 2, "facets": ['
    '{"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0}, '
    '{"normal": [-5, -3], "offset": -15}]}'
)
