"""Workload definitions and the answer oracle.

Inputs are fixed polytopes written as the library's JSON input documents.
Their answers do not depend on the workload seed, which is passed to the
library as ``seed=``.  This module imports nothing from the library, so the
harness can read it without paying the library's import.
"""

from __future__ import annotations

from fractions import Fraction


def _doc(dimension: int, facets) -> dict:
    return {
        "dimension": dimension,
        "facets": [{"normal": list(v), "offset": str(c)} for v, c in facets],
    }


def weighted_plane(n1: int, n2: int) -> dict:
    return _doc(2, [((1, 0), 0), ((0, 1), 0), ((-n2, -n1), -n1 * n2)])


def corner_cut(a: str) -> dict:
    # [-1,1]^2 with the (1,1) corner cut by x + y <= 2 - a
    cut = -(2 - Fraction(a))
    return _doc(
        2,
        [((1, 0), -1), ((0, 1), -1), ((-1, 0), -1), ((0, -1), -1), ((-1, -1), cut)],
    )


SQUARE = _doc(2, [((1, 0), -1), ((0, 1), -1), ((-1, 0), -1), ((0, -1), -1)])
HEXAGON = _doc(
    2, [(v, -3) for v in ((2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1))]
)

POLYTOPES = {
    "interval": _doc(1, [((1,), 0), ((-1,), -1)]),
    "plane_blowup": _doc(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]),
    "P111": weighted_plane(1, 1),
    "P123": weighted_plane(2, 3),
    "P135": weighted_plane(3, 5),
    "orbifold_P12": _doc(1, [((1,), 0), ((-2,), -2)]),
    "square": SQUARE,
    "corner_cut_0": corner_cut("0"),
    "corner_cut_1/2": corner_cut("1/2"),
    "cube": _doc(3, [(v, -1) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (-1, 0, 0), (0, -1, 0), (0, 0, -1))]),
    "P3": _doc(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]),
    "hexagon": HEXAGON,
}

# Exact critical-fiber set (fibers as strings) and certificate count.
ANALYZE_ORACLE = {
    "interval": ({("1/2",)}, 2),
    "plane_blowup": ({("1", "1")}, 1),
    "P111": ({("1/3", "1/3")}, 3),  # lambda = n1 n2 / (n1 + n2 + 1)
    "P123": ({("1", "1")}, 6),
    "P135": ({("5/3", "5/3")}, 9),
    "orbifold_P12": ({("2/3",)}, 3),
    "square": ({("0", "0")}, 4),
    "corner_cut_0": ({("0", "0")}, 4),
    "corner_cut_1/2": ({("0", "0"), ("1/2", "1/2")}, 5),
    "cube": ({("0", "0", "0")}, 8),
    "P3": ({("1/4", "1/4", "1/4")}, 4),
    "hexagon": ({("0", "0")}, 18),
}

# probe_scan(P, 64, 3): grid points with no probe, and the SHA-256 of the scan
# as `toric-fiber-lab probes --scan 64 --bound 3 --json` prints it (without
# the final newline).  The probe layer is exact, so these never move.
PROBE_RESOLUTION = 64
PROBE_BOUND = 3
PROBE_ORACLE = {
    "P135": (186, "7977128058e9a38944d74619a12d85d264be090c424c3c36b079ff92a9c90046"),
    "square": (1, "acd9fe59a201165da59ba5990f93f9af0406bb57635a5b9a12eb77851359d634"),
    "corner_cut_1/2": (2, "8b49bb0fa44363ad0c156704c599c6250bd70d388fcc270d123ec00a4142f244"),
}

WORKLOADS = {
    "fixtures": {
        "kind": "analyze",
        "cases": ["interval", "plane_blowup", "P111", "P123", "P135", "orbifold_P12",
                  "square", "corner_cut_0", "corner_cut_1/2", "cube", "P3"],
        "trace_cli": True,
    },
    "probe_grid": {
        "kind": "probe_scan",
        "cases": ["P135", "square", "corner_cut_1/2"],
        "trace_cli": False,
    },
    "hexagon": {
        "kind": "analyze",
        "cases": ["hexagon"],
        "trace_cli": False,
        # its one case runs about a minute: spread the fresh-process samples
        # over that minute rather than over the first --seconds of it
        "sample_window_s": 60,
    },
}

# The README example that the fresh-process CLI timing runs.
CLI_CASE = "P135"
