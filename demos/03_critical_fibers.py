"""Finding the non-displaceable fibers.

The pipeline: tropical candidate fibers (each gradient direction must attain
its minimal valuation twice) -> complex leading-order roots -> lift to the
truncated Novikov ring.  Leading systems that reduce to binomials, such as
P(1,3,5)'s zeta1^6 zeta2^3 = 5, zeta1^5 zeta2^4 = 3, are solved in closed
form: exactly |det E| = 9 roots for the exponent matrix E.  Other systems are
solved by a polyhedral homotopy with one path per unit of mixed volume.
Roots lift by Newton, each step at least doubling the residual level, when the
leading b-Hessian H0 (the constant part of the b-Hessian at the root, each row
divided by its least power of q) has a nonzero diagonal; otherwise (or when a
Newton step fails to double it) they lift by level-by-level graded
corrections, one solve against H0 per level, each raising the level, which
need only H0 invertible.
"""

from fractions import Fraction as F

from toric_fiber_lab import (
    build_potential,
    find_critical_fibers,
    leading_system,
    make_polytope,
    solve_leading,
    tropical_candidates,
)

triangle = make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0)), ((-5, -3), F(-15))])

print("P(1,3,5): tropical candidates")
for cand in tropical_candidates(triangle):
    print("  fiber", cand.fiber, "minima per direction", cand.per_direction_minima)

W = build_potential(triangle, (F(5, 3), F(5, 3)))
roots = solve_leading(leading_system(W))
print(f"leading system has {len(roots)} roots; the first:", roots[0])

certs = find_critical_fibers(triangle, seed=0)
print(f"\n{len(certs)} certificates, all at (5/3, 5/3):")
for c in certs[:3]:
    lead = ", ".join(f"{zj.leading():.4f}" for zj in c.z)
    print(f"  z = [{lead}]  method={c.method}  residual >= q^{c.residual_valuation}")
print("  ...")

# the blown-up product square routes one fiber through the graded fallback
cut = make_polytope(
    2,
    [
        ((1, 0), F(-1)),
        ((-1, 0), F(-1)),
        ((0, 1), F(-1)),
        ((0, -1), F(-1)),
        ((-1, -1), F(-3, 2)),
    ],
)
print("\nblown-up square (cut parameter 1/2):")
for c in find_critical_fibers(cut, seed=0):
    print(
        f"  fiber {c.fiber}  method={c.method}  "
        f"leading Jacobian nondegenerate: {c.leading_jacobian_nondegenerate}  "
        f"residual history {c.residual_history}"
    )
print(
    "the diagonal fiber needs graded lifting: its leading b-Hessian [[0, 1], [1, 0]]"
    " is invertible but has a zero diagonal, which plain Newton refuses"
)
