"""Critical fiber search over the truncated series ring.

Pipeline: enumerate the isolated fibers where every gradient direction has
its minimal term valuation attained at least twice (tropical candidates; a
tie point that is not isolated has no isolated leading root), solve the
complex leading-coefficient system (in closed form when it reduces exactly to
binomials, otherwise by a polyhedral homotopy with one path per unit of mixed
volume; nothing on either route is random), then lift each leading root
to a series solution of grad W = 0 by series Newton iteration or, when the
leading matrix H0 has a zero diagonal entry or Newton stalls, by cancelling
residual levels one valuation at a time, which needs only H0 invertible.

Both lifts work in b with z = e^b: row j of the b-Hessian, divided by
q^{m_j} (m_j the row's least term valuation), is the normalized b-Hessian,
and its constant part at the leading root zeta is H0.  Every step solves
with it and moves z_k by z_k db_k, so no step needs a series inverse.  Each
point a lift visits is evaluated once: its term list gives the gradient,
the Hessian and the critical value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDirection,
    Inconsistent,
    NoConvergence,
    SingularLeadingHessian,
    ToricFiberError,
)
from .novikov import (
    INF,
    NovikovSeries,
    constant_series,
    monomial,
    val,
)
from .polytope import (
    MomentPolytope,
    exact_rref,
    exact_solve,
    facet_values,
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
CELL_CHUNK = 2**14  # pair choices tested per vectorized batch
GOLDEN_FRACTION = (5**0.5 - 1) / 2  # spreads the fixed homotopy angles theta_a
PATH_TOL = 1e-9
PATH_MAX_STEP = 0.1
PATH_MIN_STEP = 1e-12
PATH_END_GAP = 1e-9
PATH_MAX_ROUNDS = 1000
POLISH_STEPS = 16
MAX_NEWTON_ITER = 60
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
    row_valuations: tuple[Fraction, ...]


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


def _direction_minima(entries, n: int):
    """(least value per direction, indices attaining it per direction).

    Direction j ranges over the entries (index, exponent, value) with
    exponent[j] != 0; raises DegenerateDirection when there are none.
    """
    mins, argmins = [], []
    for j in range(n):
        support = [(i, v) for i, e, v in entries if e[j] != 0]
        if not support:
            raise DegenerateDirection(f"no term involves direction {j}")
        m = min(v for _, v in support)
        mins.append(m)
        argmins.append(tuple(i for i, v in support if v == m))
    return tuple(mins), tuple(argmins)


def _candidate_minima(P: MomentPolytope, lam) -> tuple[tuple[int, ...], ...] | None:
    """Per direction, the facets of minimal value among those with v_ij != 0.

    Returns None unless lam is interior (every facet value positive) and
    every direction attains its minimum at least twice.
    """
    values = facet_values(P, lam)
    if any(v <= 0 for v in values):
        return None
    entries = [(i, f.normal, v) for i, (f, v) in enumerate(zip(P.facets, values))]
    try:
        _, minima = _direction_minima(entries, P.dimension)
    except DegenerateDirection:
        return None
    return minima if all(len(S) >= 2 for S in minima) else None


def tropical_candidates(P: MomentPolytope) -> list[TropicalCandidate]:
    """Isolated fibers where leading-order cancellation is possible in every direction.

    For each direction a pair of facets is forced to share the minimal
    valuation.  Each choice whose exact linear system has a unique solution
    gives one fiber, and each distinct fiber is tested once.  Twists never
    move valuations, so the candidates depend on P alone.

    A tie point lam that no pair choice isolates is never a candidate,
    because its leading system has no isolated torus root.  Every choice of
    one minimal pair per direction has a singular difference matrix there,
    since otherwise lam would be that system's unique solution.  By Rado's
    theorem the pair differences of the row supports S_j (the exponents of
    direction j's minimal terms) then have no independent transversal; by
    Minkowski's criterion MV(conv S_1, ..., conv S_n) = 0; and by Bernstein's
    bound (1975) the leading system has no isolated torus root.  Merging or
    cancelling coefficients only shrinks the supports, so the bound holds
    for every twist.
    """
    n = P.dimension
    supports = [
        [i for i, f in enumerate(P.facets) if f.normal[j] != 0] for j in range(n)
    ]
    found: dict[tuple[Fraction, ...], tuple | None] = {}
    for pairs in itertools.product(*(itertools.combinations(s, 2) for s in supports)):
        rows = []
        rhs = []
        for i, k in pairs:
            fi, fk = P.facets[i], P.facets[k]
            rows.append([Fraction(a - b) for a, b in zip(fi.normal, fk.normal)])
            rhs.append(fi.offset - fk.offset)
        lam = exact_solve(rows, rhs)
        if lam is not None and tuple(lam) not in found:
            found[tuple(lam)] = _candidate_minima(P, lam)
    return [
        TropicalCandidate(lam, minima)
        for lam, minima in sorted(found.items())
        if minima is not None
    ]


# -- leading system -----------------------------------------------------------


def _row_data(W: Potential):
    """Per direction: min term valuation, and the facet indices attaining it."""
    entries = [(t.facet_index, t.exponent, t.valuation) for t in W.terms]
    return _direction_minima(entries, W.dimension)


def leading_system(W: Potential) -> LeadingSystem:
    """Per-direction minimal-valuation equations sum v_ij m_i zeta^{v_i} = 0."""
    row_vals, minima = _row_data(W)
    equations = []
    for j, S in enumerate(minima):
        if len(S) < 2:
            raise DegenerateDirection(
                f"direction {j}: minimal valuation attained once (facet {S[0]})"
            )
        eq = tuple(
            (t.exponent[j] * t.multiplier, t.exponent)
            for t in W.terms
            if t.facet_index in S
        )
        equations.append(eq)
    return LeadingSystem(W.dimension, tuple(equations), row_vals)


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


_QUARTER_TURNS = {Fraction(0): 1, Fraction(1, 2): 1j, Fraction(1): -1, Fraction(3, 2): -1j}


def _binomial_roots(E: list[list[int]], r: list[complex]):
    """All |det E| torus solutions of zeta^E = r, or None when det E = 0.

    Integer column operations give E V = H with V unimodular and H lower
    triangular with H_ii > 0.  With zeta = exp(V u), row i reads
    sum_{l <= i} H_il u_l = log r_i + 2 pi i k_i, solved downward for
    k_i in range(H_ii): prod H_ii = |det E| distinct roots.  When every r_i
    is real, Im u_i / pi is the exact rational p_i solving
    sum_{l <= i} H_il p_l = [r_i < 0] + 2 k_i, so each zeta_j has the exact
    phase pi sum_i V_ji p_i, and a real or purely imaginary zeta_j comes out
    with an exact zero part.
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
    roots = []
    for k in itertools.product(*(range(Hc[i][i]) for i in range(n))):
        u = np.zeros(n, dtype=complex)
        turns: list[Fraction] = []
        for i in range(n):
            lower = sum(Hc[l][i] * u[l] for l in range(i))
            u[i] = (logs[i] + 2j * np.pi * k[i] - lower) / Hc[i][i]
            if real:
                lower_turns = sum(Hc[l][i] * turns[l] for l in range(i))
                turns.append(
                    Fraction(int(r[i].real < 0) + 2 * k[i] - lower_turns, Hc[i][i])
                )
        w = V @ u
        zeta = [complex(x) for x in np.exp(w)]
        if real:
            for j in range(n):
                unit = _QUARTER_TURNS.get(sum(Vc[i][j] * turns[i] for i in range(n)) % 2)
                if unit is not None:
                    zeta[j] = math.exp(w[j].real) * unit
        roots.append(tuple(complex(x) for x in zeta))
    return roots


def _int_det(M: np.ndarray) -> np.ndarray:
    """Determinants of the integer matrices stacked on the leading axis.

    Cofactor expansion, exact in the dtype of M (int64 or Python integers).
    """
    if M.shape[-1] == 1:
        return M[..., 0, 0]
    return sum(
        (-1) ** k * M[..., 0, k] * _int_det(np.delete(M[..., 1:, :], k, axis=-1))
        for k in range(M.shape[-1])
    )


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


def _mixed_cells(supports, lifting):
    """Fine mixed cells of the lifted supports, or None if the lifting is not generic.

    supports[j] lists the exponents of row j and lifting[j] their integer
    heights h.  A cell picks one pair (a_j, b_j) per row whose inner normal
    (alpha, 1) makes the pair the strict lower face of every lifted row:
    <a_j - b_j, alpha> = h(b_j) - h(a_j), and every other point a of row j
    lies above it.  With M the integer matrix of rows a_j - b_j and d = det M,
    Cramer's rule gives N = d alpha in integers, and the height of a above the
    face, times |d|, is the integer s = sign(d) (<a - a_j, N> + d (h(a) - h(a_j))).
    The pair choices are tested CELL_CHUNK at a time in int64, or in Python
    integers when the entries could overflow it.  A zero s off the pair means the lifting is
    not generic: the cells would then miss part of the mixed volume.  Returns
    one (pairs, |d|, s) per cell, with s[j] listed over supports[j]; the |d|
    summed over the cells is the mixed volume.
    """
    n = len(supports)
    big = max(abs(x) for S in supports for a in S for x in a)
    top = max(x for h in lifting for x in h)
    bound = 2 * n * math.factorial(n) * (2 * big) ** n * (top + 1)
    dtype = np.int64 if bound < 2**62 else object
    S = [np.array(Sj, dtype=dtype) for Sj in supports]
    h = [np.array(hj, dtype=dtype) for hj in lifting]
    pairs = [np.array(list(itertools.combinations(range(len(Sj)), 2))) for Sj in supports]
    shape = [len(p) for p in pairs]
    total = math.prod(shape)
    cells = []
    for first in range(0, total, CELL_CHUNK):
        grid = np.unravel_index(np.arange(first, min(first + CELL_CHUNK, total)), shape)
        ab = np.stack([p[g] for p, g in zip(pairs, grid)], axis=1)  # (choices, n, 2)
        M = np.stack([S[j][ab[:, j, 0]] - S[j][ab[:, j, 1]] for j in range(n)], axis=1)
        rhs = np.stack([h[j][ab[:, j, 1]] - h[j][ab[:, j, 0]] for j in range(n)], axis=1)
        d = _int_det(M)
        live = d != 0
        ab, M, rhs, d = ab[live], M[live], rhs[live], d[live]
        cramer = (
            np.concatenate([M[..., :i], rhs[..., None], M[..., i + 1 :]], axis=-1)
            for i in range(n)
        )
        N = np.stack([_int_det(Mi) for Mi in cramer], axis=1)
        sign = np.where(d > 0, 1, -1)
        choice = np.arange(len(d))
        above = []
        cell = np.ones(len(d), dtype=bool)
        for j in range(n):
            v = (N[:, None, :] * S[j][None, :, :]).sum(axis=-1) + d[:, None] * h[j][None, :]
            sj = sign[:, None] * (v - v[choice, ab[:, j, 0]][:, None])
            cell &= (sj >= 0).all(axis=1)
            above.append(sj)
        if any(((sj == 0).sum(axis=1) > 2)[cell].any() for sj in above):
            return None
        cells += [
            (tuple(map(tuple, ab[c])), int(abs(d[c])), [sj[c] for sj in above])
            for c in np.flatnonzero(cell)
        ]
    return cells


def _path_field(E, R, c, theta, w, tau, pw, k):
    """H, dH/dw and dH/dtau of the cell homotopies, one row per path.

    Path p tracks H_j(w, tau) = sum_a c_a exp(i theta_a (1 - tau^k_p))
    tau^pw[p, a] exp(<a, w>) over the terms a of row j; E holds the term
    exponents, R[a, j] = 1 for a term of row j, and RE[a] = R[a] (x) E[a].
    """
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
    """
    P = len(w)
    w = w.copy()
    tau = np.zeros(P)
    step = np.full(P, PATH_MAX_STEP / 8)
    live = np.ones(P, dtype=bool)

    def velocity(idx, wi, ti):
        _, J, Ht = _path_field(E, R, c, theta, wi, ti, pw[idx], k[idx])
        return -_solve_paths(J, Ht)

    for _ in range(PATH_MAX_ROUNDS):
        idx = np.flatnonzero(live & (tau < 1.0 - PATH_END_GAP))
        if not idx.size:
            break
        t0, w0 = tau[idx], w[idx]
        h = np.minimum(step[idx], 1.0 - t0)
        t1 = np.where(h >= 1.0 - t0, 1.0, t0 + h)
        hh = (h / 2)[:, None]
        k1 = velocity(idx, w0, t0)
        k2 = velocity(idx, w0 + hh * k1, t0 + h / 2)
        k3 = velocity(idx, w0 + hh * k2, t0 + h / 2)
        k4 = velocity(idx, w0 + h[:, None] * k3, t1)
        wi = w0 + (h / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
        for _ in range(3):
            H, J, _ = _path_field(E, R, c, theta, wi, t1, pw[idx], k[idx])
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
    point then takes POLISH_STEPS Newton steps on the target system.  It is
    kept when the last step moved it by less than ROOT_DEDUP_TOL (a path
    escaping to infinity keeps moving), every row passes the relative
    residual test of ROOT_RESIDUAL_TOL, and no kept root lies within
    ROOT_DEDUP_TOL (paths meeting at a multiple root end together).
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
        for _ in range(POLISH_STEPS):
            H, J, _ = _path_field(E, R, c, theta, w, one, np.zeros(w.shape[:1] + c.shape), one)
            dw = -_solve_paths(J, H)
            w = w + dw
        settled = np.max(np.abs(dw), axis=1) < ROOT_DEDUP_TOL
        terms = c * np.exp(w[settled] @ E.T)
    roots: list[np.ndarray] = []
    for zeta, row_terms in zip(np.exp(w[settled]), terms):
        resid = np.abs(row_terms @ R)
        scale = (np.abs(row_terms)[:, None] * R).max(axis=0)
        if np.any(resid > ROOT_RESIDUAL_TOL * scale):
            continue
        if any(np.max(np.abs(zeta - r)) < ROOT_DEDUP_TOL for r in roots):
            continue
        roots.append(zeta)
    return sorted((tuple(complex(x) for x in r) for r in roots), key=_root_key)


# -- lifting infrastructure ---------------------------------------------------


def _newton_startable(H0: np.ndarray) -> bool:
    """Plain Newton needs nonvanishing diagonal and moderate conditioning."""
    for j in range(H0.shape[0]):
        scale = max(1.0, float(np.max(np.abs(H0[j]))))
        if abs(H0[j, j]) <= DIAG_TOL * scale:
            return False
    return _well_conditioned(H0)


def _well_conditioned(H0: np.ndarray) -> bool:
    """Invertible in floats: not numerically zero, condition number < 1e8."""
    if np.max(np.abs(H0)) <= DIAG_TOL:
        return False
    cond = np.linalg.cond(H0)
    return bool(np.isfinite(cond) and cond < COND_LIMIT)


def _normalized_state(W: Potential, row_vals, z):
    """Term list at z, raw gradient, and normalized frontier min_j (val(g_j) - m_j)."""
    tv = term_values(W, z)
    g = gradient_from_terms(W, tv)
    fronts = [val(gj) - m if gj.terms else INF for gj, m in zip(g, row_vals)]
    return tv, g, min(fronts)


def _normalized_hessian(W: Potential, row_vals, tv) -> list[list[NovikovSeries]]:
    """Series matrix q^{-m_j} * dgrad_j/db_k from a term list (valuations >= 0)."""
    H = hessian_from_terms(W, tv)
    return [[Hjk.shift(-m) for Hjk in row] for row, m in zip(H, row_vals)]


def _constant_part(Hhat) -> np.ndarray:
    """H0: the q^0 coefficients of a normalized b-Hessian."""
    return np.array([[Hjk.coefficient(0) for Hjk in row] for row in Hhat], dtype=complex)


def _solve_series_system(Hhat, ghat, H0inv: np.ndarray):
    """delta with Hhat * delta = -ghat, by refinement with the leading inverse.

    The residual r starts at -ghat; each step adds H0inv * r to delta and
    subtracts Hhat * step from r.  Hhat - H0 has positive valuation, so every
    correction gains valuation and the loop ends when one is the zero series;
    the partial sums are those of the Neumann series of (H0 (I + E))^{-1}.
    """
    n = len(ghat)
    zero = ghat[0] * 0.0
    delta = (zero,) * n
    r = [-gj for gj in ghat]
    for _ in range(MAX_GRADED_LEVELS):
        step = tuple(
            sum((r[k] * complex(H0inv[j, k]) for k in range(n)), zero) for j in range(n)
        )
        if all(c.is_zero() for c in step):
            break
        delta = tuple(d + c for d, c in zip(delta, step))
        r = [rj - sum((Hj[k] * step[k] for k in range(n)), zero) for rj, Hj in zip(r, Hhat)]
    return delta


def _certificate(W, z, tv, g, method, nondegenerate, iterations, history) -> CriticalCertificate:
    """Package the lifted point z from the term list tv and gradient g last taken at z."""
    res = min((val(gj) for gj in g), default=INF)
    return CriticalCertificate(
        fiber=W.fiber,
        z=tuple(z),
        residual_valuation=res,
        leading_jacobian_nondegenerate=nondegenerate,
        critical_value=value_from_terms(W, tv),
        intersection_lower_bound=2**W.dimension,
        method=method,
        iterations=iterations,
        residual_history=tuple(history),
    )


def _stalled(history) -> bool:
    """True when none of the last three frontiers passes the best one before them."""
    return len(history) > 3 and max(history[-3:]) <= max(history[:-3])


def newton_lift(W: Potential, zeta: tuple[complex, ...]) -> CriticalCertificate:
    """Series Newton iteration from the constant series zeta.

    Each iterate evaluates the term list once: it gives the gradient, the
    Hessian for the next step and, at the last iterate, the critical value.
    The step solves Hhat db = -ghat in b = log z with the normalized
    b-Hessian, refined with the inverse of its constant part H0 at zeta, and
    moves z_k by z_k db_k: the Newton step in z with no series inverse.
    Raises SingularLeadingHessian when H0 has a vanishing diagonal entry or
    condition number >= 1e8, and NoConvergence when the frontier stalls
    (_stalled: none of the last three frontiers passes the best one before
    them) or the iteration budget runs out; the pipeline then tries
    graded_lift, which asks only that H0 be invertible.
    """
    row_vals, _ = _row_data(W)
    z = tuple(constant_series(zj, W.truncation) for zj in zeta)
    tv, g, front = _normalized_state(W, row_vals, z)
    Hhat = _normalized_hessian(W, row_vals, tv)
    H0 = _constant_part(Hhat)
    startable = _newton_startable(H0)
    history = [front]
    if all(gj.is_zero() for gj in g):
        return _certificate(W, z, tv, g, "newton", startable, 0, history)
    if not startable:
        raise SingularLeadingHessian("H0 is unfit for plain Newton at this root")
    H0inv = np.linalg.inv(H0)
    for it in range(1, MAX_NEWTON_ITER + 1):
        ghat = tuple(gj.shift(-m) for gj, m in zip(g, row_vals))
        db = _solve_series_system(Hhat, ghat, H0inv)
        z = tuple(zj + zj * dj for zj, dj in zip(z, db))
        tv, g, front = _normalized_state(W, row_vals, z)
        history.append(front)
        if all(gj.is_zero() for gj in g):
            return _certificate(W, z, tv, g, "newton", startable, it, history)
        if _stalled(history):
            raise NoConvergence(
                f"residual valuation stalled at {front} after {it} iterations"
            )
        Hhat = _normalized_hessian(W, row_vals, tv)
    raise NoConvergence("iteration budget exhausted before reaching the truncation")


def graded_lift(W: Potential, zeta: tuple[complex, ...]) -> CriticalCertificate:
    """Cancel gradient residual levels one valuation at a time.

    At frontier level f the correction solves H0 db = -r, with r the level-f
    coefficients of the normalized gradient, and moves z_k by
    zeta_k db_k q^f.  Corrections only enter at positive levels, so H0 is
    fixed by zeta; it must be invertible, though its diagonal may vanish.
    Raises Inconsistent when H0 is singular or the frontier stalls, turns
    nonpositive or runs out.  The stall rule is newton_lift's (_stalled); a
    correction at q^f leaves every lower level untouched, so here it means
    four equal frontiers in a row.
    """
    row_vals, _ = _row_data(W)
    z = tuple(constant_series(zj, W.truncation) for zj in zeta)
    tv, g, front = _normalized_state(W, row_vals, z)
    H0 = _constant_part(_normalized_hessian(W, row_vals, tv))
    if not _well_conditioned(H0):
        raise Inconsistent("H0 is singular at this root")
    startable = _newton_startable(H0)
    history = [front]
    levels = 0
    while not all(gj.is_zero() for gj in g):
        levels += 1
        if levels > MAX_GRADED_LEVELS:
            raise Inconsistent("level budget exhausted before the truncation")
        if front <= 0:
            raise Inconsistent(f"residual at nonpositive level {front}")
        if _stalled(history):
            raise Inconsistent(f"frontier stalled at level {front}")
        r = np.array(
            [gj.coefficient(front + m) for gj, m in zip(g, row_vals)], dtype=complex
        )
        db = np.linalg.solve(H0, -r)
        z = tuple(
            zj + monomial(complex(zk * dk), front, W.truncation)
            for zj, zk, dk in zip(z, zeta, db)
        )
        tv, g, front = _normalized_state(W, row_vals, z)
        history.append(front)
    return _certificate(W, z, tv, g, "graded", startable, levels, history)


# -- pipeline -----------------------------------------------------------------


def _lift_candidate(P, lam, alpha, truncation):
    """Certificates for the leading roots at lam that a lift carries to grad W = 0.

    Each lift returns only once the gradient at its last point is zero.
    """
    W = build_potential(P, lam, alpha, truncation)
    certs = []
    for zeta in solve_leading(leading_system(W)):
        try:
            certs.append(newton_lift(W, zeta))
        except (SingularLeadingHessian, NoConvergence):
            try:
                certs.append(graded_lift(W, zeta))
            except Inconsistent:
                pass
    return certs


def find_critical_fibers(
    P: MomentPolytope, alpha=None, truncation=None, seed: int = 0
) -> list[CriticalCertificate]:
    """All certified critical fibers: candidates -> leading roots -> lifts.

    One certificate per lifted leading root, ordered by fiber, then by root.
    The seed is accepted for the reports' config and changes no output: no
    step is random.
    """
    certs = []
    for cand in tropical_candidates(P):
        certs.extend(_lift_candidate(P, cand.fiber, alpha, truncation))
    return certs


def certificates_at_fiber(
    P: MomentPolytope, lam, alpha=None, truncation=None
) -> list[CriticalCertificate]:
    """Run the lifting pipeline at one user-supplied fiber only."""
    lam = tuple(Fraction(x) for x in lam)
    if _candidate_minima(P, lam) is None:
        return []
    return _lift_candidate(P, lam, alpha, truncation)
