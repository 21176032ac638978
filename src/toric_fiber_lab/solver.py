"""Critical fiber search over the truncated series ring.

Pipeline: enumerate fibers where every gradient direction has its minimal
term valuation attained at least twice (tropical candidates), solve the
complex leading-coefficient system (in closed form when it reduces exactly to
binomials, otherwise by seeded multistart Newton), then lift each leading root
to a series solution of grad W = 0 by series Newton iteration or, when the
leading Jacobian J0 has a zero diagonal entry or Newton stalls, by cancelling
residual levels one valuation at a time, which needs only J0 invertible.

Derivatives of W are taken in b with z = e^b, so the Jacobian of the
gradient in the z variables is the b-Hessian times diag(1/z_k); the leading
complex matrix used for startability tests and level solves includes that
factor.  Newton steps are solved in b with the b-Hessian itself and moved to
z by dz_k = z_k db_k, so they need no series inverse.  Each point a lift
visits is evaluated once: its term list gives the gradient, the Hessian and
the critical value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDirection,
    Inconsistent,
    NoConvergence,
    SingularLeadingHessian,
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
    exact_affine_solve,
    exact_rref,
    facet_values,
    is_interior,
)
from .potential import (
    Potential,
    build_potential,
    eval_gradient,
    gradient_from_terms,
    hessian_from_terms,
    term_values,
    value_from_terms,
)

COND_LIMIT = 1e8
DIAG_TOL = 1e-8  # floor for leading-Jacobian entries (diagonal: relative)
ROOT_RESIDUAL_TOL = 1e-10
ROOT_MODULUS_RANGE = (1e-6, 1e6)
ROOT_DEDUP_TOL = 1e-6
CERT_DEDUP_TOL = 1e-6
DEFAULT_STARTS_BASE = 64
MAX_NEWTON_ITER = 60
MAX_GRADED_LEVELS = 400
FAMILY_SAMPLES = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
)


@dataclass(frozen=True)
class TropicalCandidate:
    fiber: tuple[Fraction, ...]
    per_direction_minima: tuple[tuple[int, ...], ...]
    isolated: bool = True


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

    Returns None unless every direction attains its minimum at least twice.
    """
    values = facet_values(P, lam)
    entries = [(i, f.normal, v) for i, (f, v) in enumerate(zip(P.facets, values))]
    try:
        _, minima = _direction_minima(entries, P.dimension)
    except DegenerateDirection:
        return None
    return minima if all(len(S) >= 2 for S in minima) else None


def tropical_candidates(P: MomentPolytope) -> list[TropicalCandidate]:
    """Fibers where leading-order cancellation is possible in every direction.

    For each direction a pair of facets is forced to share the minimal
    valuation; the resulting exact linear systems are solved and filtered.
    Twists never move valuations, so the candidates depend on P alone.
    """
    n = P.dimension
    supports = [
        [i for i, f in enumerate(P.facets) if f.normal[j] != 0] for j in range(n)
    ]
    if any(len(s) < 2 for s in supports):
        return []
    found: dict[tuple[Fraction, ...], TropicalCandidate] = {}

    def consider(lam, isolated):
        lam = tuple(lam)
        if not is_interior(P, lam):
            return
        minima = _candidate_minima(P, lam)
        if minima is None:
            return
        prev = found.get(lam)
        if prev is None or (isolated and not prev.isolated):
            found[lam] = TropicalCandidate(lam, minima, isolated)

    for pairs in itertools.product(*(itertools.combinations(s, 2) for s in supports)):
        rows = []
        rhs = []
        for i, k in pairs:
            fi, fk = P.facets[i], P.facets[k]
            rows.append([Fraction(a - b) for a, b in zip(fi.normal, fk.normal)])
            rhs.append(fi.offset - fk.offset)
        part, kern = exact_affine_solve(rows, rhs)
        if part is None:
            continue
        if not kern:
            consider(part, True)
        else:
            # positive-dimensional family: sample along the first kernel direction
            k0 = kern[0]
            for t in FAMILY_SAMPLES:
                consider([p + t * k for p, k in zip(part, k0)], False)
    return [found[key] for key in sorted(found)]


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


def solve_leading(sys: LeadingSystem, seed: int = 0) -> list[tuple[complex, ...]]:
    """Roots of the leading system on the complex torus, sorted.

    Row j is sum_i v_ij m_i zeta^{v_i}: the multipliers m_i only scale the
    columns of the integer weight matrix B[j, v_i] = v_ij, so the zero pattern
    of its exact reduced row echelon form picks the route with no tolerance.
    A reduced row with one term has no torus root, and the result is [].
    When the reduced rows are n binomials zeta^{e_r} = r_r whose exponent
    differences E have det E != 0, the result is the |det E| roots in closed
    form (_binomial_roots).  Anything else (rows of three or more terms,
    rank < n, det E = 0, or two terms of a row sharing an exponent) goes to
    random multistart Newton (_multistart_roots), the only route the seed
    affects.
    """
    n = sys.dimension
    if any(len({e for _, e in eq}) < len(eq) for eq in sys.equations):
        return _multistart_roots(sys, seed)
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
    return _multistart_roots(sys, seed)


def _binomial_roots(E: list[list[int]], r: list[complex]):
    """All |det E| torus solutions of zeta^E = r, or None when det E = 0.

    Integer column operations give E V = H with V unimodular and H lower
    triangular with H_ii > 0.  With zeta = exp(V u), row i reads
    sum_{l <= i} H_il u_l = log r_i + 2 pi i k_i, solved downward for
    k_i in range(H_ii): prod H_ii = |det E| distinct roots.
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
    roots = []
    for k in itertools.product(*(range(Hc[i][i]) for i in range(n))):
        u = np.zeros(n, dtype=complex)
        for i in range(n):
            lower = sum(Hc[l][i] * u[l] for l in range(i))
            u[i] = (logs[i] + 2j * np.pi * k[i] - lower) / Hc[i][i]
        roots.append(tuple(complex(x) for x in np.exp(V @ u)))
    return roots


def _multistart_roots(sys: LeadingSystem, seed: int) -> list[tuple[complex, ...]]:
    """Torus roots of a leading system by random multistart Newton.

    Damped Newton in logarithmic coordinates from 64 * 3^n random points with
    log-uniform modulus in [1/4, 4] and uniform phase; a converged point is
    kept when every row satisfies |f_j| <= 1e-10 * max_i |c_i zeta^{v_i}|
    and every |zeta_j| lies in [1e-6, 1e6], then deduplicated to 1e-6.
    """
    n = sys.dimension
    starts = DEFAULT_STARTS_BASE * 3**n
    coeffs = [np.array([c for c, _ in eq], dtype=complex) for eq in sys.equations]
    expos = [np.array([e for _, e in eq], dtype=float) for eq in sys.equations]

    def f_at(w: np.ndarray) -> np.ndarray:
        return np.array([c @ np.exp(E @ w) for c, E in zip(coeffs, expos)])

    def jac_at(w: np.ndarray) -> np.ndarray:
        return np.array([(c * np.exp(E @ w)) @ E for c, E in zip(coeffs, expos)])

    rng = np.random.default_rng(seed)
    roots: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergent starts overflow; guarded below
        for _ in range(starts):
            mod = rng.uniform(np.log(0.25), np.log(4.0), n)
            phase = rng.uniform(0.0, 2.0 * np.pi, n)
            w = mod + 1j * phase
            fw = f_at(w)
            nf = np.max(np.abs(fw))
            for _ in range(MAX_NEWTON_ITER):
                if nf < 1e-14:
                    break
                try:
                    delta = np.linalg.solve(jac_at(w), -fw)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(delta)):
                    break
                for k in range(11):
                    step = 0.5**k
                    w2 = w + step * delta
                    f2 = f_at(w2)
                    n2 = np.max(np.abs(f2))
                    if np.isfinite(n2) and (n2 < nf * (1 - 0.25 * step) or n2 < 1e-14):
                        w, fw, nf = w2, f2, n2
                        break
                else:
                    break
            scale = [np.abs(c * np.exp(E @ w)).max() for c, E in zip(coeffs, expos)]
            if not all(abs(f) <= ROOT_RESIDUAL_TOL * m for f, m in zip(fw, scale)):
                continue
            zeta = np.exp(w)
            mods = np.abs(zeta)
            if mods.min() < ROOT_MODULUS_RANGE[0] or mods.max() > ROOT_MODULUS_RANGE[1]:
                continue
            if any(np.max(np.abs(zeta - r)) < ROOT_DEDUP_TOL for r in roots):
                continue
            roots.append(zeta)
    return sorted((tuple(complex(x) for x in r) for r in roots), key=_root_key)


# -- lifting infrastructure ---------------------------------------------------


def _leading_jacobian(W: Potential, minima, zeta: tuple[complex, ...]) -> np.ndarray:
    """Constant part of the normalized z-Jacobian of the gradient at zeta."""
    n = W.dimension
    J0 = np.zeros((n, n), dtype=complex)
    for t in W.terms:
        mono = t.multiplier
        for zj, vj in zip(zeta, t.exponent):
            mono *= zj**vj
        for j in range(n):
            if t.exponent[j] and t.facet_index in minima[j]:
                for k in range(n):
                    if t.exponent[k]:
                        J0[j, k] += t.exponent[j] * t.exponent[k] * mono / zeta[k]
    return J0


def _newton_startable(J0: np.ndarray) -> bool:
    """Plain Newton needs nonvanishing diagonal and moderate conditioning."""
    for j in range(J0.shape[0]):
        scale = max(1.0, float(np.max(np.abs(J0[j]))))
        if abs(J0[j, j]) <= DIAG_TOL * scale:
            return False
    return _well_conditioned(J0)


def _well_conditioned(J0: np.ndarray) -> bool:
    """Invertible in floats: not numerically zero, condition number < 1e8."""
    if np.max(np.abs(J0)) <= DIAG_TOL:
        return False
    cond = np.linalg.cond(J0)
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


def _solve_series_system(Jhat, ghat, J0inv: np.ndarray):
    """delta with Jhat * delta = -ghat, by refinement with the leading inverse.

    Each step adds J0inv * (-ghat - Jhat * delta).  Jhat - J0 has positive
    valuation, so every correction gains valuation and the loop ends when one
    is the zero series; the partial sums are those of the Neumann series of
    (J0 (I + E))^{-1}.
    """
    n = len(ghat)
    zero = ghat[0] * 0.0
    delta = (zero,) * n
    for _ in range(MAX_GRADED_LEVELS):
        r = [
            -ghat[j] - sum((Jhat[j][k] * delta[k] for k in range(n)), zero)
            for j in range(n)
        ]
        step = tuple(
            sum((r[k] * complex(J0inv[j, k]) for k in range(n)), zero) for j in range(n)
        )
        if all(c.is_zero() for c in step):
            break
        delta = tuple(d + c for d, c in zip(delta, step))
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


def newton_lift(W: Potential, zeta: tuple[complex, ...]) -> CriticalCertificate:
    """Series Newton iteration from the constant series zeta.

    Each iterate evaluates the term list once: it gives the gradient, the
    Hessian for the next step and, at the last iterate, the critical value.
    The step solves Hhat db = -ghat in b = log z with the normalized
    b-Hessian and moves z_k by z_k db_k, which is the Newton step
    J dz = -g in z (J = H diag(1/z)) with no series inverse.
    Raises SingularLeadingHessian when the leading Jacobian has a vanishing
    diagonal entry or condition number >= 1e8, and NoConvergence when the
    residual valuation stalls for three iterations; the pipeline then tries
    graded_lift, which asks only that the leading Jacobian be invertible.
    """
    row_vals, minima = _row_data(W)
    z = tuple(constant_series(zj, W.truncation) for zj in zeta)
    J0 = _leading_jacobian(W, minima, zeta)
    startable = _newton_startable(J0)
    tv, g, front = _normalized_state(W, row_vals, z)
    history = [front]
    if all(gj.is_zero() for gj in g):
        return _certificate(W, z, tv, g, "newton", startable, 0, history)
    if not startable:
        raise SingularLeadingHessian(
            "leading Jacobian is unfit for plain Newton at this root"
        )
    # leading part of the normalized b-Hessian: J0 diag(zeta)
    H0inv = np.linalg.inv(J0 * np.array(zeta))
    stall = 0
    best = front
    for it in range(1, MAX_NEWTON_ITER + 1):
        Hhat = _normalized_hessian(W, row_vals, tv)
        ghat = tuple(gj.shift(-m) for gj, m in zip(g, row_vals))
        db = _solve_series_system(Hhat, ghat, H0inv)
        z = tuple(zj + zj * dj for zj, dj in zip(z, db))
        tv, g, front = _normalized_state(W, row_vals, z)
        history.append(front)
        if all(gj.is_zero() for gj in g):
            return _certificate(W, z, tv, g, "newton", startable, it, history)
        if front <= best:
            stall += 1
            if stall >= 3:
                raise NoConvergence(
                    f"residual valuation stalled at {front} after {it} iterations"
                )
        else:
            best = front
            stall = 0
    raise NoConvergence("iteration budget exhausted before reaching the truncation")


def graded_lift(W: Potential, zeta: tuple[complex, ...]) -> CriticalCertificate:
    """Cancel gradient residual levels one valuation at a time.

    At frontier level f the correction delta q^f solves J0 delta = -r.
    Corrections only enter at positive levels, so J0 is fixed by zeta; it must
    be invertible, though its diagonal may vanish.  Raises Inconsistent when
    J0 is singular or the frontier stalls, turns nonpositive or runs out.
    """
    row_vals, minima = _row_data(W)
    J0 = _leading_jacobian(W, minima, zeta)
    if not _well_conditioned(J0):
        raise Inconsistent("leading Jacobian is singular at this root")
    startable = _newton_startable(J0)
    z = tuple(constant_series(zj, W.truncation) for zj in zeta)
    tv, g, front = _normalized_state(W, row_vals, z)
    history = [front]
    levels = 0
    stall = 0
    prev_front = None
    while not all(gj.is_zero() for gj in g):
        levels += 1
        if levels > MAX_GRADED_LEVELS:
            raise Inconsistent("level budget exhausted before the truncation")
        if front <= 0:
            raise Inconsistent(f"residual at nonpositive level {front}")
        if prev_front is not None and front <= prev_front:
            stall += 1
            if stall >= 3:
                raise Inconsistent(f"frontier stalled at level {front}")
        else:
            stall = 0
        prev_front = front
        r = np.array(
            [gj.coefficient(front + m) for gj, m in zip(g, row_vals)], dtype=complex
        )
        delta = np.linalg.solve(J0, -r)
        z = tuple(
            zj + monomial(complex(dj), front, W.truncation) for zj, dj in zip(z, delta)
        )
        tv, g, front = _normalized_state(W, row_vals, z)
        history.append(front)
    return _certificate(W, z, tv, g, "graded", startable, levels, history)


# -- pipeline -----------------------------------------------------------------


def _lift_candidate(P, cand, alpha, truncation, seed):
    W = build_potential(P, cand.fiber, alpha, truncation)
    try:
        sys = leading_system(W)
    except DegenerateDirection:
        return []
    certs = []
    for zeta in solve_leading(sys, seed=seed):
        try:
            cert = newton_lift(W, zeta)
        except (SingularLeadingHessian, NoConvergence):
            try:
                cert = graded_lift(W, zeta)
            except Inconsistent:
                continue
        # independent recheck of the certificate invariant
        g = eval_gradient(W, cert.z)
        if not all(gj.is_zero() for gj in g):
            continue
        certs.append(cert)
    return certs


def _dedup_certificates(certs: list[CriticalCertificate]) -> list[CriticalCertificate]:
    certs = sorted(
        certs, key=lambda c: (c.fiber, _root_key([zj.leading() for zj in c.z]))
    )
    kept: list[CriticalCertificate] = []
    for cert in certs:
        dup = False
        for other in kept:
            if other.fiber != cert.fiber:
                continue
            dist = max(
                abs(a.leading() - b.leading()) for a, b in zip(cert.z, other.z)
            )
            if dist < CERT_DEDUP_TOL:
                dup = True
                break
        if not dup:
            kept.append(cert)
    return kept


def find_critical_fibers(
    P: MomentPolytope, alpha=None, truncation=None, seed: int = 0
) -> list[CriticalCertificate]:
    """All certified critical fibers: candidates -> leading roots -> lifts."""
    certs = []
    for cand in tropical_candidates(P):
        certs.extend(_lift_candidate(P, cand, alpha, truncation, seed))
    return _dedup_certificates(certs)


def certificates_at_fiber(
    P: MomentPolytope, lam, alpha=None, truncation=None, seed: int = 0
) -> list[CriticalCertificate]:
    """Run the lifting pipeline at one user-supplied fiber only."""
    lam = tuple(Fraction(x) for x in lam)
    if not is_interior(P, lam):
        return []
    minima = _candidate_minima(P, lam)
    if minima is None:
        return []
    cand = TropicalCandidate(lam, minima, True)
    return _dedup_certificates(_lift_candidate(P, cand, alpha, truncation, seed))
