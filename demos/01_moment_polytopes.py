"""Moment polytopes from facet data.

A polytope is {lambda : <lambda, v_i> - c_i >= 0} with integer inward normals
v_i and rational offsets c_i.  Normals need not be primitive: the weighted
projective line below uses (-2).  Everything here is exact rational arithmetic.
"""

from fractions import Fraction as F

from toric_fiber_lab import (
    enumerate_vertices,
    facet_values,
    is_bounded,
    is_interior,
    make_polytope,
    parse_polytope,
    primitive_normal,
)

# the triangle of P(1,3,5): x >= 0, y >= 0, -5x - 3y >= -15
triangle = make_polytope(
    2, [((1, 0), F(0)), ((0, 1), F(0)), ((-5, -3), F(-15))]
)
print("P(1,3,5) triangle")
print("  bounded:", is_bounded(triangle))
print("  vertices:", enumerate_vertices(triangle))
print("  witness:", triangle.witness)
print("  facet values at (1,1):", facet_values(triangle, (F(1), F(1))))
print("  (1,1) interior?", is_interior(triangle, (F(1), F(1))))

# the same data as a JSON document, as the CLI reads it
doc = """
{"dimension": 1,
 "facets": [{"normal": [1], "offset": "0"}, {"normal": [-2], "offset": "-2"}]}
"""
segment = parse_polytope(doc)
print("\nP(1,2) segment [0,1] with a non-primitive facet normal")
print("  normals:", [f.normal for f in segment.facets])
print("  primitive normals:", [primitive_normal(f) for f in segment.facets])
print("  vertices:", enumerate_vertices(segment))

# unbounded is fine: the blow-up of the plane at a point
blowup = make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0)), ((1, 1), F(1))])
print("\nblow-up of C^2")
print("  bounded:", is_bounded(blowup))
print("  vertices:", enumerate_vertices(blowup))
print("  witness ((vertices + recession directions) / #vertices):", blowup.witness)
