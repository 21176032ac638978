"""Probe displaceability: transversality, hit/exit parameters, grid scans."""

import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import toric_fiber_lab.probes as probes_mod
import toric_fiber_lab.report as report_mod
from toric_fiber_lab import (
    DimensionMismatch,
    DimensionUnsupported,
    NotTransverse,
    Probe,
    UnboundedPolytope,
    analyze,
    bounding_box,
    displaceable_by_probe,
    facet_values,
    integrally_transverse,
    is_interior,
    make_polytope,
    polytope_to_json,
    probe_scan,
    probe_through,
)
from toric_fiber_lab.cli import main
from toric_fiber_lab.probes import MAX_GRID_POINTS
from conftest import (
    corner_cut_polytope,
    cube_polytope,
    hexagon_polytope,
    interval_polytope,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    square_polytope,
    weighted_plane_polytope,
)

F = Fraction


# -- transversality ------------------------------------------------------------


def test_transverse_square_facet():
    f = square_polytope().facets[0]  # inward normal (1, 0)
    assert integrally_transverse(f, (1, 0))
    assert integrally_transverse(f, (1, 7))
    assert not integrally_transverse(f, (2, 1))
    assert not integrally_transverse(f, (-1, 0))
    assert not integrally_transverse(f, (0, 1))


def test_transverse_uses_primitive_normal():
    f = orbifold_interval_polytope().facets[1]  # normal (-2), primitive (-1)
    assert integrally_transverse(f, (-1,))
    assert not integrally_transverse(f, (-2,))


def test_transverse_rejects_zero_direction():
    f = square_polytope().facets[0]
    with pytest.raises(ValueError):
        integrally_transverse(f, (0, 0))


# -- single probes ---------------------------------------------------------------


def test_probe_through_interval():
    P = interval_polytope()
    probe = probe_through(P, (F(3, 10),), 0, (1,))
    assert probe is not None
    assert probe.base == (F(0),)
    assert probe.exit_parameter == F(1)
    # the fiber sits at parameter 3/10 < 1/2 = half of the exit parameter


def test_probe_refuses_midpoint():
    P = interval_polytope()
    assert probe_through(P, (F(1, 2),), 0, (1,)) is None
    assert probe_through(P, (F(1, 2),), 1, (-1,)) is None
    assert displaceable_by_probe(P, (F(1, 2),), bound=5) is None


def test_probe_refuses_fibers_off_the_open_interval():
    # behind the facet (t < 0) and on it (t = 0) no probe covers the fiber
    P = interval_polytope()
    assert probe_through(P, (F(-1, 4),), 0, (1,)) is None
    assert probe_through(P, (F(0),), 0, (1,)) is None


@functools.lru_cache(maxsize=None)
def _unit_step(P, alpha):
    """Change of each facet value over one step along alpha (they are affine)."""
    origin = facet_values(P, [0] * P.dimension)
    return [b - a for a, b in zip(origin, facet_values(P, alpha))]


def _definition_holds(P, lam, at_lam, i, alpha):
    """The probe definition checked from facet values along the segment;
    at_lam is facet_values(P, lam).

    Returns (covers lam, base, exit parameter) with the base lam - t alpha on
    facet i's hyperplane and the exit where base + tau alpha leaves P.
    """
    slope = _unit_step(P, tuple(alpha))
    t = at_lam[i] / slope[i]
    base = tuple(x - t * a for x, a in zip(lam, alpha))
    at_base = facet_values(P, base)
    leaving = [v / -s for v, s in zip(at_base, slope) if s < 0]
    exit_t = min(leaving) if leaving else None
    open_facet = at_base[i] == 0 and all(v > 0 for g, v in enumerate(at_base) if g != i)
    covers = open_facet and 0 < t and (exit_t is None or t < exit_t / 2)
    return covers, base, exit_t


@pytest.mark.parametrize(
    "P",
    [square_polytope(), weighted_plane_polytope(3, 5), orbifold_interval_polytope()],
    ids=["square", "P135", "P12"],
)
def test_probe_through_matches_definition(P):
    # fibers on a grid over the bounding box widened by a quarter of its width,
    # so points outside P and on its boundary are included
    axes = [[lo + k * (hi - lo) / 8 for k in range(-2, 11)] for lo, hi in bounding_box(P)]
    directions = [
        a for a in itertools.product(range(-2, 3), repeat=P.dimension) if any(a)
    ]
    for lam in itertools.product(*axes):
        at_lam = facet_values(P, lam)
        for i, f in enumerate(P.facets):
            for alpha in directions:
                if not integrally_transverse(f, alpha):
                    continue
                covers, base, exit_t = _definition_holds(P, lam, at_lam, i, alpha)
                probe = probe_through(P, lam, i, alpha)
                assert (probe is not None) == covers, (lam, i, alpha)
                if probe is None:
                    continue
                assert probe.base == base
                assert probe.exit_parameter == exit_t
                if exit_t is not None:
                    end = [x + exit_t * a for x, a in zip(base, alpha)]
                    assert min(facet_values(P, end)) == 0
                    beyond = [x + a for x, a in zip(end, alpha)]
                    assert not is_interior(P, beyond)


def test_probe_through_takes_a_direction_past_int64():
    # the slopes, the base and the kernel's products of the direction entry
    # 2**64 need Python integers, and the probe is the one the definition gives
    c = 2**66
    P = make_polytope(2, [((1, 0), F(0)), ((-1, 0), F(-1)), ((0, 1), F(-c)), ((0, -1), F(-c))])
    lam, alpha = (F(1, 8), F(0)), (1, 2**64)
    covers, base, exit_t = _definition_holds(P, lam, facet_values(P, lam), 0, alpha)
    assert covers and probe_through(P, lam, 0, alpha) == Probe(0, base, alpha, exit_t)


@pytest.mark.parametrize("alpha", [(1,), (1, 0, 5)])
def test_probe_rejects_direction_of_wrong_length(alpha):
    # zip would truncate (1, 0, 5) to (1, 0) and pad nothing onto (1,)
    P = square_polytope()
    message = f"has length {len(alpha)}, but the polytope has dimension 2"
    with pytest.raises(DimensionMismatch, match=message):
        probe_through(P, (F(-1, 2), F(0)), 0, alpha)
    with pytest.raises(DimensionMismatch, match=message):
        integrally_transverse(P.facets[0], alpha)


@pytest.mark.parametrize("index", [-1, 4, 5])
def test_probe_rejects_a_facet_index_out_of_range(index):
    # -1 would wrap to the last facet, 4 would raise a bare IndexError
    P = square_polytope()
    with pytest.raises(ValueError, match=f"facet index {index} is out of range for 4 facets"):
        probe_through(P, (F(0), F(0)), index, (0, -1))


def test_probe_rejects_non_transverse_direction():
    P = square_polytope()
    with pytest.raises(NotTransverse):
        probe_through(P, (F(0), F(0)), 0, (0, 1))
    with pytest.raises(NotTransverse):
        probe_through(P, (F(0), F(0)), 0, (2, 0))


def test_probe_hit_parameter_is_presentation_invariant():
    # the same segment [0, 1] cut out by (-2)x >= -2 or by (-1)x >= -1:
    # probes from the right endpoint agree because the hit parameter divides
    # the facet value by the pairing with the full normal, not the primitive
    doubled = orbifold_interval_polytope()  # facet 1 has normal (-2)
    reduced = make_polytope(1, [((1,), F(0)), ((-1,), F(-1))])
    a = probe_through(doubled, (F(3, 4),), 1, (-1,))
    b = probe_through(reduced, (F(3, 4),), 1, (-1,))
    assert a is not None and b is not None
    assert a.base == b.base == (F(1),)
    assert a.exit_parameter == b.exit_parameter == F(1)


def test_probe_can_be_unbounded():
    P = plane_blowup_polytope()
    probe = probe_through(P, (F(2), F(1)), 1, (0, 1))
    assert probe is not None
    assert probe.base == (F(2), F(0))
    assert probe.exit_parameter is None  # the ray never leaves the polytope


def test_probe_base_on_open_facet_only():
    # aiming through a corner of the square lands the base on two facets
    P = square_polytope()
    assert probe_through(P, (F(-1, 2), F(-1, 2)), 0, (1, 1)) is None


def test_probe_interior_along_segment():
    P = weighted_plane_polytope(3, 5)
    probe = displaceable_by_probe(P, (F(1, 4), F(1, 4)))
    assert probe is not None
    assert probe.exit_parameter is not None
    for k in range(1, 9):
        t = probe.exit_parameter * F(k, 9)
        pt = tuple(b + t * a for b, a in zip(probe.base, probe.direction))
        assert is_interior(P, pt)


def test_square_center_survives_all_probes():
    assert displaceable_by_probe(square_polytope(), (F(0), F(0)), bound=3) is None


def test_interval_deciles():
    P = interval_polytope()
    for k in range(1, 10):
        lam = (F(k, 10),)
        probe = displaceable_by_probe(P, lam, bound=1)
        if k == 5:
            assert probe is None
        else:
            assert probe is not None


def test_probe_existence_monotone_in_bound():
    P = weighted_plane_polytope(3, 5)
    pts = [(F(1, 4), F(1, 4)), (F(1, 2), F(3)), (F(5, 2), F(1, 4))]
    for lam in pts:
        if displaceable_by_probe(P, lam, bound=1) is not None:
            assert displaceable_by_probe(P, lam, bound=3) is not None


def test_probe_equivariance_under_shear():
    # shear U = [[1,1],[0,1]] maps the square onto a parallelogram; displaceable
    # fibers map to displaceable fibers once the direction budget is doubled to
    # absorb the operator norm of U
    square = square_polytope()
    sheared = make_polytope(
        2,
        [
            ((1, -1), F(-1)),
            ((-1, 1), F(-1)),
            ((0, 1), F(-1)),
            ((0, -1), F(-1)),
        ],
    )
    for lam in [(F(0), F(1, 2)), (F(1, 2), F(0)), (F(-1, 2), F(-1, 4))]:
        if displaceable_by_probe(square, lam, bound=1) is not None:
            image = (lam[0] + lam[1], lam[1])
            assert is_interior(sheared, image)
            assert displaceable_by_probe(sheared, image, bound=2) is not None


# -- grid scans -------------------------------------------------------------------


def test_scan_square():
    grid = probe_scan(square_polytope(), 8)
    assert len(grid) == 49  # 7x7 interior lattice
    survivors = [lam for lam, probe in grid.items() if probe is None]
    assert survivors == [(F(0), F(0))]


def test_scan_interval():
    grid = probe_scan(interval_polytope(), 10)
    assert len(grid) == 9
    survivors = [lam for lam, probe in grid.items() if probe is None]
    assert survivors == [(F(1, 2),)]


def test_scan_weighted_35():
    grid = probe_scan(weighted_plane_polytope(3, 5), 16)
    survivors = [lam for lam, probe in grid.items() if probe is None]
    assert len(survivors) == 12


def test_scan_rejects_unbounded():
    with pytest.raises(UnboundedPolytope):
        probe_scan(plane_blowup_polytope(), 4)


def test_scan_rejects_high_dimension():
    cube = make_polytope(
        3,
        [
            ((1, 0, 0), F(0)),
            ((0, 1, 0), F(0)),
            ((0, 0, 1), F(0)),
            ((-1, 0, 0), F(-1)),
            ((0, -1, 0), F(-1)),
            ((0, 0, -1), F(-1)),
        ],
    )
    with pytest.raises(DimensionUnsupported):
        probe_scan(cube, 4)


def test_scan_rejects_bad_resolution():
    with pytest.raises(ValueError):
        probe_scan(square_polytope(), 0)


def _scan_must_not_start(monkeypatch):
    # the direction table is built before the grid: a scan that gets this far
    # stops here instead of allocating the grid
    class Started(Exception):
        pass

    def refuse(P, bound):
        raise Started

    monkeypatch.setattr(probes_mod, "_direction_table", refuse)
    return Started


def test_scan_rejects_a_grid_above_the_cap(monkeypatch):
    started = _scan_must_not_start(monkeypatch)
    side = math.isqrt(MAX_GRID_POINTS)  # the cap is a square number of points
    assert side**2 == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="grid points"):
        probe_scan(square_polytope(), side)  # (side + 1)**2 points
    with pytest.raises(ValueError, match="grid points"):
        probe_scan(interval_polytope(), MAX_GRID_POINTS)
    with pytest.raises(ValueError, match="grid points"):
        probe_scan(square_polytope(), 100_000)
    with pytest.raises(started):  # exactly at the cap the scan goes ahead
        probe_scan(square_polytope(), side - 1)
    with pytest.raises(started):
        probe_scan(interval_polytope(), MAX_GRID_POINTS - 1)


def test_analyze_rejects_a_grid_above_the_cap_before_searching(monkeypatch, tmp_path, capsys):
    _scan_must_not_start(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("the critical-fiber search ran")

    monkeypatch.setattr(report_mod, "find_critical_fibers", refuse)
    with pytest.raises(ValueError, match="grid points"):
        analyze(square_polytope(), resolution=100_000)
    path = tmp_path / "square.json"
    path.write_text(json.dumps(polytope_to_json(square_polytope())))
    assert main(["analyze", "--input", str(path), "--resolution", "100000"]) == 2
    captured = capsys.readouterr()
    assert "grid points" in captured.err and captured.out == ""


@pytest.mark.parametrize("bound", [0, -1])
def test_probes_reject_empty_direction_set(bound):
    # no nonzero direction has sup-norm below 1, so no verdict would mean anything
    P = interval_polytope()
    with pytest.raises(ValueError):
        displaceable_by_probe(P, (F(1, 4),), bound)
    with pytest.raises(ValueError):
        probe_scan(P, 4, bound)


def test_direction_cap_admits_exactly_the_bounds_it_names():
    # 2**20 directions: bound 2**19 in dimension 1, 511 in 2 and 50 in 3
    assert probes_mod.MAX_DIRECTIONS == 2**20
    for dimension, bound in ((1, 2**19), (2, 511), (3, 50)):
        probes_mod.check_bound(bound, dimension)
        count = (2 * bound + 3) ** dimension - 1
        with pytest.raises(ValueError, match=f"bound {bound + 1} gives {count} probe directions"):
            probes_mod.check_bound(bound + 1, dimension)


def _table_must_not_be_built(monkeypatch):
    # every direction table forms its slopes: a call that gets this far stops
    class Built(Exception):
        pass

    def refuse(P, alphas):
        raise Built

    monkeypatch.setattr(probes_mod, "_slopes", refuse)
    return Built


def test_probes_reject_a_bound_above_the_direction_cap(monkeypatch):
    # read the cap first: without one the calls below would build about 10**6
    # directions
    assert probes_mod.MAX_DIRECTIONS == 2**20
    built = _table_must_not_be_built(monkeypatch)
    square, centre = square_polytope(), (F(0), F(0))
    with pytest.raises(ValueError, match="1050624 probe directions"):
        displaceable_by_probe(square, centre, 512)
    with pytest.raises(ValueError, match="1050624 probe directions"):
        probe_scan(square, 4, 512)
    with pytest.raises(built):  # at the cap the table is built
        displaceable_by_probe(square, centre, 511)


def test_probes_run_up_to_the_direction_cap(monkeypatch):
    # with the cap at 24 directions, bound 2 (5**2 - 1 = 24) runs on the
    # square and bound 3 (48) does not
    monkeypatch.setattr(probes_mod, "MAX_DIRECTIONS", 24)
    square = square_polytope()
    assert displaceable_by_probe(square, (F(1, 2), F(0)), 2) is not None
    assert len(probe_scan(square, 4, 2)) == 9
    with pytest.raises(ValueError, match="bound 3 gives 48 probe directions"):
        displaceable_by_probe(square, (F(1, 2), F(0)), 3)


def test_analyze_rejects_a_bound_above_the_direction_cap_before_searching(
    monkeypatch, tmp_path, capsys
):
    assert probes_mod.MAX_DIRECTIONS == 2**20
    _table_must_not_be_built(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("the critical-fiber search ran")

    monkeypatch.setattr(report_mod, "find_critical_fibers", refuse)
    with pytest.raises(ValueError, match="probe directions"):
        analyze(square_polytope(), bound=512)
    with pytest.raises(ValueError, match="bound 51 gives 1092726 probe directions"):
        analyze(cube_polytope(), bound=51)  # no grid scan in dimension 3
    path = tmp_path / "square.json"
    path.write_text(json.dumps(polytope_to_json(square_polytope())))
    assert main(["analyze", "--input", str(path), "--bound", "512"]) == 2
    captured = capsys.readouterr()
    assert "1050624 probe directions" in captured.err and captured.out == ""


# -- the scan against the definition -------------------------------------------------


def _reference_probe(P, lam, bound):
    """First facet with primitive normal, then first direction in
    lexicographic order, whose probe covers lam by the definition."""
    at_lam = facet_values(P, lam)
    for i, f in enumerate(P.facets):
        if math.gcd(*f.normal) != 1:
            continue
        for alpha in itertools.product(range(-bound, bound + 1), repeat=P.dimension):
            if sum(a * b for a, b in zip(f.normal, alpha)) != 1:
                continue
            covers, base, exit_t = _definition_holds(P, lam, at_lam, i, alpha)
            if covers:
                return Probe(i, base, alpha, exit_t)
    return None


def _reference_scan(P, resolution, bound):
    axes = [[lo + k * (hi - lo) / resolution for k in range(resolution + 1)]
            for lo, hi in bounding_box(P)]
    return {
        lam: _reference_probe(P, lam, bound)
        for lam in itertools.product(*axes)
        if min(facet_values(P, lam)) > 0
    }


REFERENCE_POLYTOPES = {
    "interval": interval_polytope,
    "P12": orbifold_interval_polytope,
    "square": square_polytope,
    "P135": lambda: weighted_plane_polytope(3, 5),
    "corner_cut_0": lambda: corner_cut_polytope(0),
    "corner_cut_1/2": lambda: corner_cut_polytope(F(1, 2)),
    "hexagon": hexagon_polytope,
    # no facet normal is primitive, so the direction table is empty
    "P22": lambda: make_polytope(1, [((2,), F(0)), ((-2,), F(-2))]),
}


@pytest.mark.parametrize("bound", [1, 3])
@pytest.mark.parametrize("resolution", [16, 32])
@pytest.mark.parametrize("name", REFERENCE_POLYTOPES)
def test_scan_matches_reference(name, resolution, bound):
    P = REFERENCE_POLYTOPES[name]()
    grid = probe_scan(P, resolution, bound)
    expected = _reference_scan(P, resolution, bound)
    assert list(grid) == list(expected)  # same points in the same order
    assert grid == expected


def _beyond_64_bits():
    # the offset's denominator 10^20 exceeds 2^63, so the scaled facet values
    # overflow any fixed-width integer type
    c = F(10**20 + 1, 10**20)
    return make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), -c)])


@pytest.mark.parametrize("name", REFERENCE_POLYTOPES)
def test_scan_shares_one_probe_per_distinct_probe(name):
    probes = [p for p in probe_scan(REFERENCE_POLYTOPES[name](), 32, 3).values() if p is not None]
    assert len({id(p) for p in probes}) == len(set(probes))


@pytest.mark.parametrize("name", [*REFERENCE_POLYTOPES, "beyond_64_bits"])
def test_single_fiber_probes_match_scan(name):
    P = _beyond_64_bits() if name == "beyond_64_bits" else REFERENCE_POLYTOPES[name]()
    for lam, probe in probe_scan(P, 16, 3).items():
        assert displaceable_by_probe(P, lam, 3) == probe
        if probe is not None:
            assert probe_through(P, lam, probe.facet_index, probe.direction) == probe


@pytest.mark.parametrize("c, dtype", [(2**61 - 16, np.int64), (2**61, object)])
def test_scan_dtype_follows_overflow_bound(c, dtype, monkeypatch):
    # on [0, c]^2 at resolution 16 (c a multiple of 16) the scaled facet values
    # are the integers A_g + sum_j k_j B_gj, bounded by |A_g| + 16 sum_j |B_gj| = 2c,
    # and bound 1 keeps every slope, direction entry and C_e within 1, with
    # Q = L = 1 and fiber numerators at most c: the bound 2c on every product
    # is just below 2**62 in the first case and equal to it in the second
    P = make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0)), ((-1, 0), F(-c)), ((0, -1), F(-c))])
    kernel, seen = probes_mod._first_probes, []

    def spy(V, table):
        seen.append(V.dtype)
        return kernel(V, table)

    monkeypatch.setattr(probes_mod, "_first_probes", spy)
    assert probe_scan(P, 16, 1) == _reference_scan(P, 16, 1)
    assert seen == [np.dtype(dtype)]


def test_scan_exact_beyond_64_bits():
    P = _beyond_64_bits()
    grid = probe_scan(P, 8)
    assert max(x.denominator for lam in grid for x in lam) > 2**63
    assert grid == _reference_scan(P, 8, 3)


def test_scan_exact_far_from_the_origin():
    # on [c, c + 2]^2 with c = 2^61 the facet values stay small, but the fiber
    # numerators over Q = 4 pass 2^63: a bound on the facet values alone would
    # pick int64, which cannot hold them
    c = 2**61
    P = make_polytope(
        2, [((1, 0), c), ((0, 1), c), ((-1, 0), -(c + 2)), ((0, -1), -(c + 2))]
    )
    grid = probe_scan(P, 8, 3)
    expected = _reference_scan(P, 8, 3)
    assert list(grid) == list(expected)
    assert grid == expected
    for lam, probe in grid.items():
        assert displaceable_by_probe(P, lam, 3) == probe


# Unknown points and SHA-256 of `probes --scan 64 --bound 3 --json` (without
# the final newline), the same pins as the probe_grid benchmark workload's
# PROBE_ORACLE in perfbench/cases.py.
SCAN_64_PINS = {
    "P135": (
        lambda: weighted_plane_polytope(3, 5),
        186,
        "7977128058e9a38944d74619a12d85d264be090c424c3c36b079ff92a9c90046",
    ),
    "square": (
        square_polytope,
        1,
        "acd9fe59a201165da59ba5990f93f9af0406bb57635a5b9a12eb77851359d634",
    ),
    "corner_cut_1/2": (
        lambda: corner_cut_polytope(F(1, 2)),
        2,
        "8b49bb0fa44363ad0c156704c599c6250bd70d388fcc270d123ec00a4142f244",
    ),
}


@pytest.mark.parametrize("name", SCAN_64_PINS)
def test_scan_64_output_is_pinned(name, tmp_path, capsys):
    build, unknown, digest = SCAN_64_PINS[name]
    path = tmp_path / "polytope.json"
    path.write_text(json.dumps(polytope_to_json(build())))
    rc = main(["probes", "--input", str(path), "--scan", "64", "--bound", "3", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == digest
    assert sum(entry["probe"] is None for entry in json.loads(out)) == unknown
