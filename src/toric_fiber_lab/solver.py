"""Critical fiber search over the truncated series ring.

Pipeline: enumerate the fibers where every gradient direction has its
minimal term valuation attained at least twice and one minimal pair per
direction isolates the fiber (tropical candidates: the lower faces of the
facet lifting, found by the integer kernel that also finds the homotopy's
mixed cells, tied faces collapsed per fiber, and each fiber and its minimal
facets read off its first face; any other tie point has leading supports of
mixed volume 0 and so no isolated leading root).  Per candidate,
certificates_at_fiber, gated by the potential alone, solves the complex
leading-coefficient system (in closed form when it reduces exactly to
binomials, otherwise by a polyhedral homotopy with one path per unit of
mixed volume; nothing on either route is random), then lifts each leading
root to a series solution of grad W = 0 by series Newton iteration, each
step of which must double the residual level, or, when H0 has a zero
diagonal entry or Newton breaks that law, by cancelling residual levels one
valuation at a time, which needs only H0 invertible and must raise the level.

Both lifts work in b with z = e^b: row j of the b-Hessian, divided by
q^{m_j} (m_j the row's least term valuation), is the normalized b-Hessian,
and its constant part at the leading root zeta is H0.  Every step solves
with it and moves z_k by z_k db_k, so no step needs a series inverse.  Each
point a lift visits is evaluated once: its term list gives the normalized
gradient, the critical value and, at the start and at each Newton iterate
that keeps the law, the normalized series Hessian, whose q^0 part at the
start is H0 (both normalized forms are eval_gradient's and eval_hessian's
formulas with row j shifted by q^{-m_j}).  Each leading root gets one start,
kept on the potential and shared by both lifts, and one SVD of its H0.  The
row valuations are read off the potential's plan, which is computed once per
potential.
Newton's series solve is a refinement written with the series operators.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDirection,
    Inconsistent,
    NoConvergence,
    NotAUnit,
    NotInterior,
    SingularLeadingHessian,
    ToricFiberError,
    ValidationError,
)
from .novikov import (
    INF,
    NovikovSeries,
    constant_series,
    monomial,
    val,
)
from .polytope import (
    CHUNK,
    MomentPolytope,
    cramer_solve,
    exact_rref,
    format_point,
    int_dtype,
)
from .potential import (
    Potential,
    build_potential,
    gradient_from_terms,
    hessian_from_terms,
    term_values,
    value_from_terms,
)

COND_LIMIT = 1e8
DIAG_TOL = 1e-8  # floor for leading-matrix entries (diagonal: relative)
ROOT_RESIDUAL_TOL = 1e-10
ROOT_DEDUP_TOL = 1e-6
MAX_LIFTINGS = 8
GOLDEN_FRACTION = (5**0.5 - 1) / 2  # spreads the fixed homotopy angles theta_a
PATH_TOL = 1e-9
PATH_MAX_STEP = 0.1
PATH_MIN_STEP = 1e-12
PATH_END_GAP = 1e-9
PATH_MAX_ROUNDS = 1000
POLISH_STEPS = 16
MAX_GRADED_LEVELS = 400


@dataclass(frozen=True)
class TropicalCandidate:
    fiber: tuple[Fraction, ...]
    per_direction_minima: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LeadingSystem:
    dimension: int
    # per direction j: ((v_ij * m_i, v_i), ...) over the minimal-valuation terms i,
    # m_i = e^{a_i0} the term's multiplier
    equations: tuple[tuple[tuple[complex, tuple[int, ...]], ...], ...]


@dataclass(frozen=True)
class CriticalCertificate:
    fiber: tuple[Fraction, ...]
    z: tuple[NovikovSeries, ...]
    residual_valuation: Fraction | float
    leading_jacobian_nondegenerate: bool
    critical_value: NovikovSeries
    intersection_lower_bound: int
    method: str  # "newton" | "graded"
    iterations: int
    residual_history: tuple  # normalized residual valuations per step


# -- tropical candidate enumeration ------------------------------------------


def tropical_candidates(P: MomentPolytope) -> list[TropicalCandidate]:
    """Isolated fibers where leading-order cancellation is possible in every direction.

    Row j lifts each facet i with v_ij != 0 to (v_i, h_i), h = -L c with L
    the lcm of the offset denominators.  A lower face (_lower_faces, ties
    included) with pairs (a_j, b_j), d = |det| and N = d L lam picks one facet
    pair per direction that is minimal at lam: d L l_i(lam) = <v_i, N> + d h_i,
    so row j's minimal facets are those at height s = 0.  Tied faces share
    their fiber, and what is read off a face depends on its fiber alone, so
    the faces collapse per fiber before any Fraction is built: two match when
    their (d, N) agree after dividing by gcd(d, N), exact in int64 and on
    Python integers alike.  The first face of each fiber gives its candidate
    if lam is interior, that is if every
    <v_{a_j}, N> + d h_{a_j} > 0 (every facet lies in some row).  Twists never
    move valuations, so the candidates depend on P alone.

    These are exactly the tie points whose leading supports have positive
    mixed volume.  At a tie point lam that no choice of one minimal pair per
    direction isolates, every such choice has a singular difference matrix,
    since otherwise lam would be its unique solution.  By Rado's theorem the
    pair differences of the row supports S_j (the exponents of direction j's
    minimal terms) then have no independent transversal; by Minkowski's
    criterion MV(conv S_1, ..., conv S_n) = 0; and by Bernstein's bound
    (1975) the leading system has no isolated torus root.  Merging or
    cancelling coefficients only shrinks the supports, so the bound holds
    for every twist.  A pair choice that is not minimal at its solution is
    no lower face, so points only such choices isolate are never tested.
    """
    rows = [[i for i, f in enumerate(P.facets) if f.normal[j] != 0] for j in range(P.dimension)]
    L = math.lcm(*(f.offset.denominator for f in P.facets))
    h = [int(-L * f.offset) for f in P.facets]
    v = [f.normal for f in P.facets]
    ab, d, N, s = _lower_faces([[v[i] for i in r] for r in rows], [[h[i] for i in r] for r in rows])
    fiber = np.column_stack([d, N])
    fiber //= np.gcd.reduce(fiber, axis=1)[:, None]
    first = {}
    for c, key in enumerate(map(tuple, fiber.tolist())):
        first.setdefault(key, c)
    found = []
    for (dc, *Nc), c in first.items():
        least = (r[a] for r, a in zip(rows, ab[c, :, 0].tolist()))
        if all(sum(x * y for x, y in zip(Nc, v[i])) + dc * h[i] > 0 for i in least):
            minima = tuple(
                tuple(i for i, x in zip(r, sj[c].tolist()) if x == 0) for r, sj in zip(rows, s)
            )
            found.append(TropicalCandidate(tuple(Fraction(x, dc * L) for x in Nc), minima))
    return sorted(found, key=lambda cand: cand.fiber)


# -- leading system -----------------------------------------------------------


def _row_data(W: Potential):
    """Per direction: (min term valuation, the positions in W.terms attaining it).

    Read off W's plan; raises DegenerateDirection when no term involves some
    direction, and ValidationError when the truncation D is at or below some
    row's least valuation m_j, where that row is 0 mod q^D at every point.
    """
    rows = W._plan.rows
    if None in rows:
        raise DegenerateDirection(f"no term involves direction {rows.index(None)}")
    if W.truncation <= (m := max(v for v, _ in rows)):
        raise ValidationError(f"truncation D = {W.truncation} at fiber {format_point(W.fiber)}"
                              f" is at or below the largest leading valuation max_j m_j = {m}")
    return rows


def leading_system(W: Potential) -> LeadingSystem:
    """Per-direction minimal-valuation equations sum v_ij m_i zeta^{v_i} = 0."""
    equations = []
    for j, (_, S) in enumerate(_row_data(W)):
        if len(S) < 2:
            raise DegenerateDirection(
                f"direction {j}: minimal valuation attained once (term {S[0]})"
            )
        terms = [W.terms[i] for i in S]
        equations.append(tuple((t.exponent[j] * t.multiplier, t.exponent) for t in terms))
    return LeadingSystem(W.dimension, tuple(equations))


# -- leading roots ------------------------------------------------------------


def _root_key(zeta) -> tuple:
    return tuple((round(x.real, 9), round(x.imag, 9)) for x in zeta)


def solve_leading(sys: LeadingSystem) -> list[tuple[complex, ...]]:
    """Roots of the leading system on the complex torus, sorted.

    Row j is sum_i v_ij m_i zeta^{v_i}: the multipliers m_i only scale the
    columns of the integer weight matrix B[j, v_i] = v_ij, so the zero pattern
    of its exact reduced row echelon form picks the route with no tolerance.
    A reduced row with one term has no torus root, and the result is [].
    When the reduced rows are n binomials zeta^{e_r} = r_r whose exponent
    differences E have det E != 0, the result is the |det E| roots in closed
    form (_binomial_roots).  Anything else (rows of three or more terms,
    rank < n, det E = 0, or two terms of a row sharing an exponent) goes to
    the polyhedral homotopy (_homotopy_roots).  Neither route is random.
    """
    n = sys.dimension
    if any(len({e for _, e in eq}) < len(eq) for eq in sys.equations):
        return _homotopy_roots(sys)
    monos = sorted({e for eq in sys.equations for _, e in eq})
    col = {e: k for k, e in enumerate(monos)}
    B = [[Fraction(0)] * len(monos) for _ in range(n)]
    mult: dict[tuple[int, ...], complex] = {}
    for j, eq in enumerate(sys.equations):
        for c, e in eq:
            B[j][col[e]] = Fraction(e[j])
            mult.setdefault(e, c / e[j])
    R, pivots = exact_rref(B)
    supports = [[k for k, x in enumerate(row) if x != 0] for row in R]
    if any(len(s) == 1 for s in supports):
        return []
    if len(pivots) == n and all(len(s) == 2 for s in supports):
        # reduced row r: zeta^a + R[r][b] (m_b / m_a) zeta^b = 0, pivot R[r][a] = 1
        E, rhs = [], []
        for row, (a, b) in zip(R, supports):
            ma, mb = monos[a], monos[b]
            E.append([x - y for x, y in zip(ma, mb)])
            rhs.append(-float(row[b]) * mult[mb] / mult[ma])
        roots = _binomial_roots(E, rhs)
        if roots is not None:
            return sorted(roots, key=_root_key)
    return _homotopy_roots(sys)


def _binomial_roots(E: list[list[int]], r: list[complex]):
    """All |det E| torus solutions of zeta^E = r, or None when det E = 0.

    Integer column operations give E V = H with V unimodular and H lower
    triangular with H_ii > 0.  With zeta = exp(V u), row i reads
    sum_{l <= i} H_il u_l = log r_i + 2 pi i k_i, solved downward for
    k_i in range(H_ii): prod H_ii = |det E| distinct roots.  When every r_i
    is real, Im u_i / pi is the exact rational p_i solving
    sum_{l <= i} H_il p_l = [r_i < 0] + 2 k_i, so each zeta_j has the exact
    phase pi sum_i V_ji p_i, and a real or purely imaginary zeta_j comes out
    with an exact zero part.  The phases are held as the integers
    T_i = p_i det over det = prod H_ii, each an exact division; a quarter
    turn is a multiple of det / 2 modulo 2 det.
    """
    n = len(E)
    Hc = [list(c) for c in zip(*E)]  # columns of H
    Vc = [[int(i == k) for i in range(n)] for k in range(n)]  # columns of V
    for i in range(n):
        while True:  # Euclid on row i across columns i..n-1
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
    det = math.prod(Hc[i][i] for i in range(n))
    roots = []
    for k in itertools.product(*(range(Hc[i][i]) for i in range(n))):
        u = np.zeros(n, dtype=complex)
        T: list[int] = []
        for i in range(n):
            lower = sum(Hc[l][i] * u[l] for l in range(i))
            u[i] = (logs[i] + 2j * np.pi * k[i] - lower) / Hc[i][i]
            if real:
                lower_turns = sum(Hc[l][i] * T[l] for l in range(i))
                T.append(((int(r[i].real < 0) + 2 * k[i]) * det - lower_turns) // Hc[i][i])
        w = V @ u
        zeta = [complex(x) for x in np.exp(w)]
        if real:
            for j in range(n):
                quarter, off = divmod(2 * sum(Vc[i][j] * T[i] for i in range(n)) % (4 * det), det)
                if not off:
                    zeta[j] = math.exp(w[j].real) * (1, 1j, -1, -1j)[quarter]
        roots.append(tuple(complex(x) for x in zeta))
    return roots


def _lifting(supports, attempt: int) -> list[list[int]]:
    """Fixed integer heights in [0, 2^(4 + attempt)) for every support point.

    The height of exponent a in row j is the top bits of an integer hash of
    (attempt, j, a), nonlinear in a so that no row is lifted affinely, and
    different per row so that rows with equal supports are lifted apart.
    """
    heights = []
    for j, S in enumerate(supports):
        row = []
        for a in S:
            x = attempt * 1000003 + j * 8191 + sum(v * p for v, p in zip(a, (131, 257, 521)))
            for _ in range(2):
                x = ((x % 2**32) ^ (x % 2**32 >> 16)) * 0x45D9F3B % 2**32
            row.append(x >> (28 - attempt))
        heights.append(row)
    return heights


def _lower_faces(supports, lifting):
    """Every choice of one pair per row that is a lower face of every lifted row.

    supports[j] lists the exponents of row j and lifting[j] their integer
    heights h.  A pair (a_j, b_j) per row fixes the inner normal (alpha, 1)
    by <a_j - b_j, alpha> = h(b_j) - h(a_j); the choice is a lower face when
    no point a of row j lies below the pair.  With M the integer matrix of
    rows a_j - b_j and d = |det M| > 0, cramer_solve gives N = d alpha in
    integers, and the height of a above the face, times d, is the integer
    s = <a - a_j, N> + d (h(a) - h(a_j)) >= 0.  The pair choices are tested
    CHUNK at a time, in the dtype int_dtype picks for the bound below.
    Returns the lower faces, ties (a zero s off the pair) included, stacked
    in choice order: pairs (faces, n, 2), d (faces,), N (faces, n) and per
    row j the heights s[j] (faces, len(supports[j])).
    """
    n = len(supports)
    big = max(abs(x) for S in supports for a in S for x in a)
    top = max(abs(x) for hj in lifting for x in hj)
    # |d| <= n! (2 big)^n, |N_i| <= n! (2 big)^(n-1) 2 top, |s| <= 2 (n+1) n! (2 big)^n top
    dtype = int_dtype(2 * (n + 1) * math.factorial(n) * (2 * big) ** n * (top + 1))
    S = [np.array(Sj, dtype=dtype) for Sj in supports]
    h = [np.array(hj, dtype=dtype) for hj in lifting]
    pairs = [np.array(list(itertools.combinations(range(len(Sj)), 2))) for Sj in supports]
    shape = [len(p) for p in pairs]
    total = math.prod(shape)
    if not total:
        return (np.zeros((0, n, 2), dtype=int), np.zeros(0, dtype=dtype),
                np.zeros((0, n), dtype=dtype), [np.zeros((0, len(Sj)), dtype=dtype) for Sj in S])
    chunks = []
    for first in range(0, total, CHUNK):
        grid = np.unravel_index(np.arange(first, min(first + CHUNK, total)), shape)
        ab = np.stack([p[g] for p, g in zip(pairs, grid)], axis=1)  # (choices, n, 2)
        M = np.stack([S[j][ab[:, j, 0]] - S[j][ab[:, j, 1]] for j in range(n)], axis=1)
        rhs = np.stack([h[j][ab[:, j, 1]] - h[j][ab[:, j, 0]] for j in range(n)], axis=1)
        live, d, N = cramer_solve(M, rhs)
        ab = ab[live]
        choice = np.arange(len(d))
        above = []
        face = np.ones(len(d), dtype=bool)
        for j in range(n):
            v = (N[:, None, :] * S[j][None, :, :]).sum(axis=-1) + d[:, None] * h[j][None, :]
            sj = v - v[choice, ab[:, j, 0]][:, None]
            face &= (sj >= 0).all(axis=1)
            above.append(sj)
        chunks.append((ab[face], d[face], N[face], *(sj[face] for sj in above)))
    ab, d, N, *s = (np.concatenate(part) for part in zip(*chunks))
    return ab, d, N, s


def _mixed_cells(supports, lifting):
    """Fine mixed cells of the lifted supports, or None if the lifting is not generic.

    A cell is a lower face (_lower_faces) whose pair is the whole lower face
    of every row.  A lower face with a zero s off its pair means the lifting
    is not generic: the cells would then miss part of the mixed volume.
    Returns one (pairs, d, s) per cell; the d summed over the cells is the
    mixed volume.
    """
    ab, d, _, s = _lower_faces(supports, lifting)
    if any(((sj == 0).sum(axis=1) > 2).any() for sj in s):
        return None
    return [(tuple(map(tuple, ab[c])), int(d[c]), [sj[c] for sj in s]) for c in range(len(d))]


def _tau_part(c, theta, tau, pw, k):
    """The tau-only factors (rot tau^pw, rot, X) of the cell homotopies, one row per path.

    Path p tracks H_j = sum_a rot_a tau^pw[p, a] exp(<a, w>) over the terms a
    of row j, rot_a = c_a exp(i theta_a (1 - tau^k_p)), and dH/dtau is
    (rot exp(<a, w>) X) @ R with X = d(tau^pw)/dtau - i (d tau^k/dtau) theta tau^pw.
    """
    tk = tau**k
    rot = c * np.exp(1j * np.outer(1.0 - tk, theta))
    tp = tau[:, None] ** pw
    dtp = np.where(pw > 0, pw * tau[:, None] ** np.maximum(pw - 1.0, 0.0), 0.0)
    dk = (k * tau ** np.maximum(k - 1.0, 0.0))[:, None]
    return rot * tp, rot, dtp - 1j * dk * theta * tp


def _jacobian_pattern(E, R):
    """Complex RE[a] = R[a] (x) E[a] for term exponents E and R[a, j] = 1 on a term of row j."""
    return (R[:, :, None] * E[:, None, :]).reshape(len(E), -1).astype(complex)


def _exponents(w, E):
    """w @ E.T for complex w, real E, as two real products with the complex GEMM's bytes.

    After a complex GEMM, some OpenBLAS kernels (SkylakeX) slow scalar libm code, such as
    the complex exp's cexp loop, several times over until the next vectorized op; a real
    GEMM does not.  The parts are written in place: a + 1j*b makes b = inf nan + inf j.
    """
    out = np.empty((len(w), len(E)), dtype=complex)
    out.real = w.real @ E.T
    out.imag = w.imag @ E.T
    return out


def _path_field(E, R, RE, w, part, dtau: bool):
    """(dH/dw, dH/dtau if dtau else H) at the points w from their _tau_part.

    The exponent product is real (_exponents).  The products with RE and R
    stay complex: split, their sums over all terms change last bits, and
    the solve or vectorized op after each ends the slow libm state.
    """
    rtp, rot, X = part
    mono = np.exp(_exponents(w, E))
    terms = rtp * mono
    J = (terms @ RE).reshape(len(w), E.shape[1], E.shape[1])
    return J, ((rot * mono * X) @ R if dtau else terms @ R)


def _solve_paths(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve J[p] x[p] = b[p] for every path; a singular J[p] gives nan."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan, dtype=complex)
        for p in range(len(b)):
            try:
                out[p] = np.linalg.solve(J[p], b[p])
            except np.linalg.LinAlgError:
                pass
        return out


def _track(E, R, c, theta, w, pw, k) -> np.ndarray:
    """Carry every start point w at tau = 0 along its path to tau = 1.

    Each round gives every live path one RK4 predictor step of its own size
    and at most three Newton corrector steps.  A step is accepted when the
    last correction is below PATH_TOL; the step size then doubles, up to
    PATH_MAX_STEP, and is halved otherwise.  A path is done once tau is
    within PATH_END_GAP of 1.  A path whose step falls below PATH_MIN_STEP
    (a diverging path overflows and stalls there) is dropped (nan), and so
    is every path still running after PATH_MAX_ROUNDS rounds.

    The tau-only factors (_tau_part) are formed once per distinct tau of a
    round (t0; t0 + h/2 for RK4 stages 2 and 3; t1 for stage 4 and the
    correctors), RE once per track.  Products keep the one-call order,
    (rot tau^pw) mono and ((rot mono) X) @ R: a last-bit change moves reports.
    """
    RE = _jacobian_pattern(E, R)
    P = len(w)
    w = w.copy()
    tau = np.zeros(P)
    step = np.full(P, PATH_MAX_STEP / 8)
    live = np.ones(P, dtype=bool)

    def velocity(wi, part):
        J, Ht = _path_field(E, R, RE, wi, part, True)
        return -_solve_paths(J, Ht)

    for _ in range(PATH_MAX_ROUNDS):
        idx = np.flatnonzero(live & (tau < 1.0 - PATH_END_GAP))
        if not idx.size:
            break
        t0, w0 = tau[idx], w[idx]
        h = np.minimum(step[idx], 1.0 - t0)
        t1 = np.where(h >= 1.0 - t0, 1.0, t0 + h)
        hh = (h / 2)[:, None]
        pwi, ki = pw[idx], k[idx]
        at0, mid, at1 = (_tau_part(c, theta, t, pwi, ki) for t in (t0, t0 + h / 2, t1))
        k1 = velocity(w0, at0)
        k2 = velocity(w0 + hh * k1, mid)
        k3 = velocity(w0 + hh * k2, mid)
        k4 = velocity(w0 + h[:, None] * k3, at1)
        wi = w0 + (h / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
        for _ in range(3):
            J, H = _path_field(E, R, RE, wi, at1, False)
            dw = -_solve_paths(J, H)
            wi = wi + dw
        size = np.max(np.abs(dw), axis=1)
        ok = size < PATH_TOL  # nan compares False
        acc, rej = idx[ok], idx[~ok]
        w[acc], tau[acc] = wi[ok], t1[ok]
        step[acc] = np.minimum(2 * step[acc], PATH_MAX_STEP)
        step[rej] /= 2
        live[rej[step[rej] < PATH_MIN_STEP]] = False
    live &= tau >= 1.0 - PATH_END_GAP
    w[~live] = np.nan
    return w


def _row_supports(sys: LeadingSystem):
    """Per row: the sorted exponents with a nonzero coefficient, and those coefficients.

    Terms of a row that share an exponent are merged first.
    """
    supports, coeffs = [], []
    for eq in sys.equations:
        row: dict[tuple[int, ...], complex] = {}
        for c, e in eq:
            row[e] = row.get(e, 0j) + c
        S = sorted(e for e, c in row.items() if c != 0)
        supports.append(S)
        coeffs.append([row[e] for e in S])
    return supports, coeffs


def _generic_cells(supports):
    """Mixed cells under the first generic lifting in the fixed sequence."""
    for attempt in range(MAX_LIFTINGS):
        cells = _mixed_cells(supports, _lifting(supports, attempt))
        if cells is not None:
            return cells
    raise ToricFiberError("no generic lifting of the leading supports found")


def _homotopy_roots(sys: LeadingSystem) -> list[tuple[complex, ...]]:
    """Torus roots of a leading system by the polyhedral homotopy, sorted.

    Huber-Sturmfels (Math. Comp. 1995).  Row j is sum_a c_a zeta^a over its
    support A_j (_row_supports).  One homotopy
    H_j(x, t) = sum_a c_a exp(i theta_a (1 - t)) t^{h_j(a)} x^a, with the
    heights h of the first generic lifting and fixed angles theta_a, is the
    target system at t = 1; the rotating coefficients keep its paths apart
    even when the c_a are real.  Near t = 0, in y = x t^{-alpha} for a mixed
    cell with normal alpha, H is the cell's binomial face system, and
    _binomial_roots gives its |det| start roots.  The start roots of all
    cells number the mixed volume of the supports, which bounds the isolated
    torus roots (Bernstein 1975), so each isolated root ends one path.  With
    t = tau^k, k >= 1 chosen per cell so that every nonzero power of tau is
    at least 1, all paths are tracked together in log y (_track).  Each end
    point then takes POLISH_STEPS Newton steps on the target system, with
    its tau = 1 factors formed once and _track's order of products.  It is
    kept when the last step moved it by less than ROOT_DEDUP_TOL (a path
    escaping to infinity keeps moving), every row passes the relative
    residual test of ROOT_RESIDUAL_TOL, and no kept root of an earlier path
    lies within ROOT_DEDUP_TOL (paths meeting at a multiple root end
    together); both tests run on all settled ends at once.  Exponent
    products, the residual's too, are real (see _path_field).
    """
    n = sys.dimension
    supports, coeffs = _row_supports(sys)
    if any(len(S) < 2 for S in supports):
        return []
    cells = _generic_cells(supports)
    if not cells:
        return []
    E = np.array([a for S in supports for a in S], dtype=float)
    R = np.array([[float(i == j) for j in range(n)] for i, S in enumerate(supports) for _ in S])
    c = np.array([x for row in coeffs for x in row], dtype=complex)
    theta = 2 * np.pi * ((np.arange(len(c)) + 1) * GOLDEN_FRACTION % 1.0)
    start = c * np.exp(1j * theta)
    offsets = np.cumsum([0] + [len(S) for S in supports])
    starts, powers, ks = [], [], []
    for pairs, d, above in cells:
        Ecell, r = [], []
        for j, (a, b) in enumerate(pairs):
            Ecell.append([x - y for x, y in zip(supports[j][a], supports[j][b])])
            r.append(-start[offsets[j] + b] / start[offsets[j] + a])
        s = np.concatenate(above).astype(float) / d
        k = max(1.0, 1.0 / s[s > 0].min()) if (s > 0).any() else 1.0
        for y in _binomial_roots(Ecell, r):
            starts.append(np.log(np.array(y)))
            powers.append(k * s)
            ks.append(k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = _track(E, R, c, theta, np.array(starts), np.array(powers), np.array(ks))
        w = w[np.all(np.isfinite(w), axis=1)]
        one = np.ones(len(w))
        target = _tau_part(c, theta, one, np.zeros(w.shape[:1] + c.shape), one)
        RE = _jacobian_pattern(E, R)
        for _ in range(POLISH_STEPS):
            J, H = _path_field(E, R, RE, w, target, False)
            dw = -_solve_paths(J, H)
            w = w + dw
        w = w[np.max(np.abs(dw), axis=1) < ROOT_DEDUP_TOL]
        zeta = np.exp(w)
        terms = c * np.exp(_exponents(w, E))
        scale = (np.abs(terms)[:, :, None] * R).max(axis=1)
        zeta = zeta[~np.any(np.abs(terms @ R) > ROOT_RESIDUAL_TOL * scale, axis=1)]
        close = np.abs(zeta[:, None, :] - zeta[None, :, :]).max(axis=2) < ROOT_DEDUP_TOL
    kept = np.ones(len(zeta), dtype=bool)
    for a in range(len(zeta)):
        if kept[a]:  # a kept root drops every later end close to it
            kept[a + 1 :] &= ~close[a, a + 1 :]
    return sorted(map(tuple, zeta[kept].tolist()), key=_root_key)


# -- lifting infrastructure ---------------------------------------------------


def _diagonal_clear(H0: np.ndarray) -> bool:
    """No diagonal entry is within DIAG_TOL of zero, relative to its row (at least 1).

    A row with a NaN counts as size 1, as max(1.0, nan) does.
    """
    A = np.abs(H0)
    return not (A.diagonal() <= DIAG_TOL * np.fmax(1.0, A.max(axis=1))).any()


def _well_conditioned(H0: np.ndarray) -> bool:
    """Invertible in floats: not numerically zero, condition number < 1e8.

    The condition number is s_max / s_min from one SVD, as np.linalg.cond forms
    it: a zero s_min (inf or nan there) fails, and a NaN entry raises LinAlgError.
    """
    if np.max(np.abs(H0)) <= DIAG_TOL:
        return False
    s = np.linalg.svd(H0, compute_uv=False).tolist()
    return s[-1] > 0 and s[0] / s[-1] < COND_LIMIT


def _normalized_state(W: Potential, z):
    """Term list at z, normalized gradient q^{-m_j} grad_j, and frontier min_j val of it."""
    tv = term_values(W, z)
    ghat = gradient_from_terms(W, tv, [m for m, _ in _row_data(W)])
    return tv, ghat, min(map(val, ghat))


def _normalized_hessian(W: Potential, tv) -> list[list[NovikovSeries]]:
    """Series matrix q^{-m_j} * dgrad_j/db_k from a term list (valuations >= 0)."""
    return hessian_from_terms(W, tv, [m for m, _ in _row_data(W)])


def _lift_start(W: Potential, zeta):
    """The start both lifts share at the constant point zeta, built once per root.

    Returns the constant series z, its term list, normalized gradient and
    frontier, the normalized Hessian Hhat, H0 (Hhat's q^0 coefficients),
    whether H0 is invertible in floats (one SVD) and whether it is also fit
    for plain Newton (_diagonal_clear).  The start is kept on W for the last
    zeta, keyed by its complex bytes, so graded_lift after a Newton refusal
    at the same root builds nothing again.
    """
    key = np.array(zeta, dtype=complex).tobytes()
    stored = W.__dict__.get("_lift_start")
    if stored is not None and stored[0] == key:
        return stored[1]
    z = tuple(constant_series(zj, W.truncation) for zj in zeta)
    tv, ghat, front = _normalized_state(W, z)
    Hhat = _normalized_hessian(W, tv)
    H0 = np.array([[h.coefficient(0) for h in row] for row in Hhat], dtype=complex)
    invertible = _well_conditioned(H0)
    start = z, tv, ghat, front, Hhat, H0, invertible, invertible and _diagonal_clear(H0)
    W.__dict__["_lift_start"] = key, start
    return start


def _dot(a, b):
    """sum_k a_k * b_k, summed left to right from the first product."""
    return functools.reduce(operator.add, map(operator.mul, a, b))


def _solve_series_system(Hhat, ghat, H0inv: np.ndarray):
    """delta with Hhat * delta = -ghat, by refinement with the leading inverse.

    The residual r starts at -ghat; each step adds H0inv * r to delta and
    subtracts Hhat * step from r.  Hhat - H0 has positive valuation, so every
    correction gains valuation and the loop ends when one is the zero series;
    the partial sums are those of the Neumann series of (H0 (I + E))^{-1}.
    """
    inv = H0inv.tolist()
    delta = None
    r = [-gj for gj in ghat]
    for _ in range(MAX_GRADED_LEVELS):
        step = [_dot(r, row) for row in inv]
        if delta is not None and all(s.is_zero() for s in step):
            break
        delta = step if delta is None else [d + s for d, s in zip(delta, step)]
        r = [rj - _dot(Hj, step) for rj, Hj in zip(r, Hhat)]
    return tuple(delta)


def _certificate(W, z, tv, method, nondegenerate, iterations, history) -> CriticalCertificate:
    """Package the lifted point z, whose gradient is zero, from its term list tv."""
    return CriticalCertificate(
        fiber=W.fiber,
        z=tuple(z),
        residual_valuation=INF,
        leading_jacobian_nondegenerate=nondegenerate,
        critical_value=value_from_terms(tv),
        intersection_lower_bound=2**W.dimension,
        method=method,
        iterations=iterations,
        residual_history=tuple(history),
    )


def newton_lift(W: Potential, zeta: tuple[complex, ...]) -> CriticalCertificate:
    """Series Newton iteration from the constant series zeta.

    Each iterate evaluates the term list once: it gives the gradient, the
    Hessian for the next step and, at the last iterate, the critical value.
    The step solves Hhat db = -ghat in b = log z with the normalized
    b-Hessian, refined with the inverse of its constant part H0 at zeta, and
    moves z_k by z_k db_k: the Newton step in z with no series inverse.
    With H0 invertible each step at least doubles the normalized residual
    level f, so about log2((D - min m_j) / f_0) + 1 steps reach truncation D.
    Raises SingularLeadingHessian when H0 has a vanishing diagonal entry or
    condition number >= 1e8, and NoConvergence at the first step that does
    not take f above and to at least twice its last value; the pipeline then
    tries graded_lift, which asks only that H0 be invertible.
    """
    z, tv, ghat, front, Hhat, H0, _, startable = _lift_start(W, zeta)
    history = [front]
    if all(gj.is_zero() for gj in ghat):
        return _certificate(W, z, tv, "newton", startable, 0, history)
    if not startable:
        raise SingularLeadingHessian("H0 is unfit for plain Newton at this root")
    H0inv = np.linalg.inv(H0)
    for it in itertools.count(1):
        db = _solve_series_system(Hhat, ghat, H0inv)
        z = tuple(zj + zj * dj for zj, dj in zip(z, db))
        tv, ghat, front = _normalized_state(W, z)
        history.append(front)
        if all(gj.is_zero() for gj in ghat):
            return _certificate(W, z, tv, "newton", startable, it, history)
        if front <= history[-2] or front < 2 * history[-2]:
            raise NoConvergence(f"step {it} took the residual level from {history[-2]} to {front}")
        Hhat = _normalized_hessian(W, tv)


def graded_lift(W: Potential, zeta: tuple[complex, ...]) -> CriticalCertificate:
    """Cancel gradient residual levels one valuation at a time.

    At frontier level f the correction solves H0 db = -r, with r the level-f
    coefficients of the normalized gradient, and moves z_k by
    zeta_k db_k q^f.  Corrections only enter at positive levels, so H0 is
    fixed by zeta; it must be invertible, though its diagonal may vanish.
    A correction at q^f cancels level f and leaves lower levels untouched, so
    it must raise the frontier.  Raises Inconsistent when H0 is singular, the
    first frontier is nonpositive, a correction does not raise it, or
    MAX_GRADED_LEVELS corrections do not reach the truncation.
    """
    z, tv, ghat, front, _, H0, invertible, startable = _lift_start(W, zeta)
    if not invertible:
        raise Inconsistent("H0 is singular at this root")
    if front <= 0:
        raise Inconsistent(f"residual at nonpositive level {front}")
    history = [front]
    while not all(gj.is_zero() for gj in ghat):
        if len(history) > MAX_GRADED_LEVELS:
            raise Inconsistent("level budget exhausted before the truncation")
        r = np.array([gj.coefficient(front) for gj in ghat], dtype=complex)
        db = np.linalg.solve(H0, -r)
        z = tuple(
            zj + monomial(complex(zk * dk), front, W.truncation)
            for zj, zk, dk in zip(z, zeta, db)
        )
        tv, ghat, front = _normalized_state(W, z)
        if front <= history[-1]:
            raise Inconsistent(f"correction at level {history[-1]} left the frontier at {front}")
        history.append(front)
    return _certificate(W, z, tv, "graded", startable, len(history) - 1, history)


# -- pipeline -----------------------------------------------------------------


def find_critical_fibers(
    P: MomentPolytope, alpha=None, truncation=None, seed: int = 0
) -> list[CriticalCertificate]:
    """All certified critical fibers: certificates_at_fiber over the candidates.

    One certificate per lifted leading root, ordered by fiber, then by root.
    The seed is accepted for the reports' config and changes no output: no
    step is random.
    """
    fibers = [cand.fiber for cand in tropical_candidates(P)]
    return [cert for lam in fibers for cert in certificates_at_fiber(P, lam, alpha, truncation)]


def certificates_at_fiber(
    P: MomentPolytope, lam, alpha=None, truncation=None
) -> list[CriticalCertificate]:
    """Certificates for the leading roots at lam that a lift carries to grad W = 0.

    [] on build_potential's NotInterior and leading_system's DegenerateDirection.
    Each lift returns only once the gradient at its last point is zero.  A
    root with a component the series ring prunes to zero (NotAUnit from
    newton_lift) fails, and graded_lift is not tried at it.
    """
    try:
        W = build_potential(P, lam, alpha, truncation)
        sys = leading_system(W)
    except (NotInterior, DegenerateDirection):
        return []
    certs = []
    for zeta in solve_leading(sys):
        try:
            certs.append(newton_lift(W, zeta))
        except NotAUnit:
            pass
        except (SingularLeadingHessian, NoConvergence):
            try:
                certs.append(graded_lift(W, zeta))
            except Inconsistent:
                pass
    return certs
