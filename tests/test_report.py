"""End-to-end analysis reports: classification, JSON/text/SVG determinism."""

import collections
import dataclasses
import enum
import hashlib
import json
import math
from fractions import Fraction

import pytest

import toric_fiber_lab.probes as probes_mod
import toric_fiber_lab.report as report_mod
from toric_fiber_lab import (
    BULK_CAVEAT,
    TOOL_VERSION,
    DimensionUnsupported,
    InternalInconsistency,
    Probe,
    UnboundedPolytope,
    Verdict,
    analyze,
    certificate_to_json,
    constant_series,
    make_polytope,
    polytope_to_json,
    probe_to_json,
    render_svg,
    report_to_json,
    report_to_text,
)
from toric_fiber_lab.report import _scan_text, json_text
from conftest import (
    BENCH_CASES,
    corner_cut_polytope,
    cube_polytope,
    hexagon_polytope,
    interval_polytope,
    orbifold_interval_polytope,
    plane_blowup_polytope,
    quadrant_polytope,
    square_polytope,
    strip_polytope,
    weighted_plane_polytope,
)

F = Fraction


def test_analyze_weighted_35():
    rep = analyze(weighted_plane_polytope(3, 5), seed=0)
    assert len(rep.certificates) == 9
    assert {c.fiber for c in rep.certificates} == {(F(5, 3), F(5, 3))}
    assert rep.unknown_count == 12
    assert len(rep.unknown_examples) == 10  # examples are capped at ten
    kinds = {v.kind for v in rep.grid}
    assert kinds == {"displaceable", "no_probe_found"}
    assert BULK_CAVEAT in rep.notes
    assert rep.version == TOOL_VERSION
    assert rep.config["resolution"] == 16 and rep.config["bound"] == 3


def test_a_twisted_report_drops_the_plain_potential_caveat():
    # the caveat speaks of the plain potential: a report under a twist leaves it out
    P = weighted_plane_polytope(1, 1)
    alpha = tuple(constant_series(c, 1) for c in (0.5, 0.1 - 0.2j, 0))
    rep = analyze(P, seed=0, alpha=alpha)
    assert len(rep.certificates) == 3 and rep.config["bulk"]
    assert BULK_CAVEAT not in rep.notes
    assert json.loads(report_to_json(rep))["notes"] == []
    assert BULK_CAVEAT not in report_to_text(rep)
    assert BULK_CAVEAT in analyze(P, seed=0).notes


def test_analyze_marks_critical_grid_points():
    rep = analyze(corner_cut_polytope(F(1, 2)), seed=0)
    assert {c.fiber for c in rep.certificates} == {(F(0), F(0)), (F(1, 2), F(1, 2))}
    marked = {v.fiber: v for v in rep.grid if v.kind == "critical"}
    assert set(marked) == {(F(0), F(0)), (F(1, 2), F(1, 2))}
    for fiber, verdict in marked.items():
        assert verdict.probe is None
        assert rep.certificates[verdict.certificate].fiber == fiber


def test_analyze_orbifold_interval_probes_only_primitive_facets():
    # a probe from the facet with normal (-2) would displace the critical
    # fiber 2/3; probes start only on facets with primitive normal
    rep = analyze(orbifold_interval_polytope(), seed=0)
    assert {c.fiber for c in rep.certificates} == {(F(2, 3),)}
    assert len(rep.grid) == 15
    for v in rep.grid:
        (x,) = v.fiber
        if x < F(1, 2):
            assert v.kind == "displaceable" and v.probe.facet_index == 0
        else:
            assert v.kind == "no_probe_found"


def test_analyze_unbounded_skips_grid():
    rep = analyze(plane_blowup_polytope(), seed=0)
    assert len(rep.certificates) == 1
    assert rep.grid == ()
    assert rep.unknown_count == 0
    assert any("skipped" in note for note in rep.notes)


def test_analyze_rejects_bound_below_one_without_probes():
    # the quadrant has no critical fiber and no grid, so no probe search runs
    quadrant = make_polytope(2, [((1, 0), F(0)), ((0, 1), F(0))])
    assert analyze(quadrant, seed=0).config["bound"] == 3
    with pytest.raises(ValueError, match="bound must be positive"):
        analyze(quadrant, seed=0, bound=0)


def test_analyze_rejects_resolution_below_one_without_a_scan():
    # the cube is 3-D, so the probe grid is skipped and no scan checks the value
    with pytest.raises(ValueError, match="resolution must be positive"):
        analyze(cube_polytope(), seed=0, resolution=0)


def test_analyze_consistency_guard(monkeypatch):
    # force the probe search to claim every fiber is displaced; a certified
    # critical fiber must then trip the internal consistency check
    probe = Probe(0, (F(0),), (1,), None)
    monkeypatch.setattr(report_mod, "displaceable_by_probe", lambda P, lam, bound: probe)
    with pytest.raises(InternalInconsistency, match="certified critical and displaced"):
        analyze(interval_polytope(), seed=0)


def test_analysis_builds_one_direction_table(monkeypatch):
    # corner cut 1/2 certifies two fibers; the scan and the check at each of
    # them share the table of (polytope, bound)
    built = []
    table = probes_mod._direction_table

    def counted(P, bound):
        built.append(bound)
        return table(P, bound)

    monkeypatch.setattr(probes_mod, "_direction_table", counted)
    P = corner_cut_polytope(F(1, 2))
    report = analyze(P, seed=0)
    assert len({c.fiber for c in report.certificates}) == 2
    assert built == [3]
    analyze(P, seed=0, bound=2)
    assert built == [3, 2]


def test_report_json_roundtrip():
    rep = analyze(square_polytope(), seed=0, resolution=8)
    doc = json.loads(report_to_json(rep))
    assert doc["version"] == rep.version
    assert doc["unknown"]["count"] == 0
    assert len(doc["certificates"]) == 4
    assert all(cert["fiber"] == ["0", "0"] for cert in doc["certificates"])
    assert BULK_CAVEAT in doc["notes"]
    grid_kinds = {row["verdict"] for row in doc["grid"]}
    assert grid_kinds == {"displaceable", "critical"}
    for row in doc["grid"]:
        if row["verdict"] == "displaceable":
            assert row["probe"]["direction"] is not None
            assert row["probe"]["exit_parameter"] != "inf"


def test_certificate_json_fields():
    rep = analyze(corner_cut_polytope(F(1, 2)), seed=0)
    diag = next(c for c in rep.certificates if c.fiber == (F(1, 2), F(1, 2)))
    doc = certificate_to_json(diag)
    assert doc["method"] == "graded"
    assert doc["residual_valuation"] == "inf"
    assert doc["leading_jacobian_nondegenerate"] is False
    assert doc["intersection_lower_bound"] == 4
    assert doc["fiber"] == ["1/2", "1/2"]
    # one normalized residual valuation per step, the last one exact
    assert doc["residual_history"] == ["1", "2", "3", "inf"]
    assert len(doc["residual_history"]) == diag.iterations + 1


def test_probe_json():
    assert probe_to_json(None) is None
    doc = probe_to_json(Probe(2, (F(1, 3), F(0)), (0, 1), None))
    assert doc == {
        "facet": 2,
        "base": ["1/3", "0"],
        "direction": [0, 1],
        "exit_parameter": "inf",
    }


def test_report_text():
    rep = analyze(square_polytope(), seed=0, resolution=8)
    text = report_to_text(rep)
    assert "critical fibers: 4" in text
    assert "lambda = (0, 0)" in text
    assert "intersections >= 4" in text
    assert "grid: critical=1, displaceable=48 (of 49 interior points)" in text


def test_outputs_deterministic():
    a = analyze(square_polytope(), seed=0, resolution=8)
    b = analyze(square_polytope(), seed=0, resolution=8)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_text(a) == report_to_text(b)
    assert render_svg(a) == render_svg(b)


def test_seed_changes_only_the_config():
    # the hexagon centre runs the polyhedral homotopy, the one route that
    # used to be seeded: nothing in the search is random any more
    docs = {}
    for seed in (0, 7):
        docs[seed] = json.loads(report_to_json(analyze(hexagon_polytope(), seed=seed)))
        assert docs[seed]["config"].pop("seed") == seed
    assert len(docs[0]["certificates"]) == 18
    assert docs[0] == docs[7]


def test_svg_contents():
    rep = analyze(square_polytope(), seed=0, resolution=8)
    svg = render_svg(rep)
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 4  # one dot per certificate
    assert "<polygon" in svg
    assert svg.count("<rect") == 1 + 49  # backdrop plus one cell per grid point


def test_svg_requires_dimension_two():
    rep = analyze(interval_polytope(), seed=0)
    with pytest.raises(DimensionUnsupported):
        render_svg(rep)


@pytest.mark.parametrize("make", [quadrant_polytope, plane_blowup_polytope, strip_polytope],
                         ids=["quadrant", "plane_blowup", "strip"])
def test_svg_requires_a_bounded_polytope(make):
    # no box holds an unbounded polygon: the quadrant's box is one point,
    # the blow-up's outline a segment, and the strip has no vertex at all
    rep = analyze(make(), seed=0)
    with pytest.raises(UnboundedPolytope, match="unbounded"):
        render_svg(rep)


# -- the JSON writer against the standard library -------------------------------


def _stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _report_doc(rep) -> dict:
    """The report's whole JSON document, built field by field from the report."""
    return {
        "polytope": polytope_to_json(rep.polytope),
        "certificates": [certificate_to_json(c) for c in rep.certificates],
        "grid": [
            {
                "fiber": [str(x) for x in v.fiber],
                "verdict": v.kind,
                "probe": probe_to_json(v.probe),
                "certificate": v.certificate,
            }
            for v in rep.grid
        ],
        "unknown": {
            "count": rep.unknown_count,
            "examples": [[str(x) for x in lam] for lam in rep.unknown_examples],
        },
        "config": rep.config,
        "version": rep.version,
        "notes": list(rep.notes),
    }


@pytest.mark.parametrize("name", BENCH_CASES)
def test_json_text_writes_every_bench_report_as_json_does(name):
    # the grid is written from a template, the rest by json_text: the whole
    # text must still be the standard library's text of the whole document
    rep = analyze(BENCH_CASES[name](), seed=0)
    assert report_to_json(rep) == _stdlib_text(_report_doc(rep))


def _unbounded_probe_report():
    # analyze scans bounded polytopes only, so no scanned probe is unbounded;
    # one unbounded probe shared by every cell, as grid cells share probes
    rep = analyze(square_polytope(), seed=0, resolution=4)
    probe = Probe(0, (F(-1), F(1, 2)), (1, 0), None)
    return dataclasses.replace(
        rep, grid=tuple(Verdict(v.fiber, "displaceable", probe) for v in rep.grid)
    )


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda: analyze(cube_polytope(), seed=0), '"grid": [],'),
        (lambda: analyze(corner_cut_polytope(F(1, 2)), seed=0),
         '"certificate": 4,\n      "fiber": [\n        "1/2",\n        "1/2"\n      ],\n'
         '      "probe": null,\n      "verdict": "critical"'),
        (lambda: analyze(interval_polytope(), seed=0), '"fiber": [\n        "1/16"\n      ],'),
        (_unbounded_probe_report, '"exit_parameter": "inf",'),
    ],
    ids=["empty-grid", "critical-cells", "1-D", "unbounded-probe"],
)
def test_report_json_writes_each_grid_shape_as_json_does(build, shape):
    rep = build()
    text = report_to_json(rep)
    assert shape in text
    assert text == _stdlib_text(_report_doc(rep))


@pytest.mark.parametrize(
    "build, resolution, shape",
    [
        (interval_polytope, 1, "[]"),
        (interval_polytope, 16, '"fiber": [\n      "1/16"\n    ],'),
        (lambda: weighted_plane_polytope(3, 5), 16, '"probe": null\n  }'),
    ],
    ids=["empty", "1-D", "2-D"],
)
def test_scan_text_writes_each_scan_as_json_does(build, resolution, shape):
    # probes --scan --json writes its list from one template; the text must
    # still be the standard library's text of the probe_to_json documents
    scan = probes_mod.probe_scan(build(), resolution, probes_mod.DEFAULT_BOUND)
    text = _scan_text(scan)
    assert shape in text
    doc = [{"fiber": [str(x) for x in lam], "probe": probe_to_json(p)} for lam, p in scan.items()]
    assert text == _stdlib_text(doc)


# SHA-256 of report_to_json and render_svg (None: no picture) at seed 0 for
# the benchmark's fixture inputs.  Their roots take the binomial route, which
# reads the same under every OpenBLAS kernel tried, so a digest that moves is
# an output that moved.
FIXTURE_DIGESTS = {
    "interval": ("6167b009ce427353ccc428244736310a4dffc6cb0dbd2d0e8bb563bbbc451ff0", None),
    "plane_blowup": ("0f052e181b3e72b7fb3e9d27bd993f8fd25b50a8e2ceb11bb130d0ff7a65e0c0", None),
    "P111": ("a0bc44a4e1aad9d9132f7774a55d23ff47870d858b6c7f1df0a84a331aaaab1d",
             "d8394635f262bf8087753ad252c6d39ad3ed410ad50cdc7747d84678604380f1"),
    "P123": ("6fde7ac9742f35fd5e52e6cbdd6e5b1822ac4253acedc8727f2d3b10a10fab48",
             "dc45d2c543f2a6c7dfd1312ab1a1a10492ce40e0413e9d016f30ef8624c80c5e"),
    "P135": ("c16cfdf9b75d25aa46a235c9c1a8d74bb50d47b8fd9f75f63bff9b15e449d9c1",
             "438fd746c08ace215d127e41304e3a262f25bffe12b65ac8317176a27d1b386f"),
    "orbifold_P12": ("3a5fa53253207ac54c459a7dba05180bf38c1b8761dd86028e11f47fba7dd0df", None),
    "square": ("22419674d7bff6bc749d8e636f030c3f6288f28b73450160e7fb859ae1120947",
               "6999261f54ceb9f236f92872ab7b04f831058b53f0d56e56c837c42e1c52cea3"),
    "corner_cut_0": ("e268ac32ad0e92089b4e7fe7762f52b86b7131ef649a5eb1559d89516d888668",
                     "6999261f54ceb9f236f92872ab7b04f831058b53f0d56e56c837c42e1c52cea3"),
    "corner_cut_1/2": ("c1d1c8d09db88e19eeced2f8d0785640c833a8a9fd7706a208b2acc7501f4bcb",
                       "d938073d5d17a05552b6b9cd2ed8511f9fb70e36b3479303c81ce31949e7cc24"),
    "cube": ("8aeb8cb193fcd5b3bc29e3328a834b29201e4cd2c706a79ba20ab39a4db0d442", None),
    "P3": ("7960af2ca75346b805fcac1b038268dc087550589852f7fe5d9e895916641872", None),
}


@pytest.mark.parametrize("name", FIXTURE_DIGESTS)
def test_fixture_outputs_are_pinned(name):
    rep = analyze(BENCH_CASES[name](), seed=0)
    json_digest, svg_digest = FIXTURE_DIGESTS[name]
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == json_digest
    if svg_digest is None:
        with pytest.raises((DimensionUnsupported, UnboundedPolytope)):
            render_svg(rep)
    else:
        assert hashlib.sha256(render_svg(rep).encode()).hexdigest() == svg_digest


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Text(str):
    pass


class _Real(float):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}], "d": [{"e": []}]},
        [[[]]],
        (1, (2, ("x",)), []),
        [True, 1, False, 0, None, 1.0, 0.0],
        {"true": True, "one": 1, "zero": 0, "false": False},
        2**100,
        -7,
        "",
        'quote " backslash \\ slash / controls \n\r\t\b\f\x00\x1f\x7f',
        "non-ASCII: \u00e9 \u03bb \u2028 \U0001f600",
        {"\u00e9": 1, "e": 2, "E": 3, "": 4, "\n": 5},
        [0.1, -0.0, 1e300, -2.5e-300, 5e-324, 1e16, 123456789.0],
        [math.nan, math.inf, -math.inf],
        {"z": [{"re": math.nan, "im": -math.inf}], "a": {"b": {"c": [1, "2", 3.0]}}},
        # subclasses of the scalar and container types, found by isinstance
        [_Level.HIGH, _Text("a\nb"), _Real(0.25), {"k": _Level.LOW}],
        collections.OrderedDict([("b", _Text("x")), ("a", [_Real(-1.5)])]),
        _Text("top"),
    ],
)
def test_json_text_matches_json(doc):
    assert json_text(doc) == _stdlib_text(doc)


@pytest.mark.parametrize(
    "doc",
    [{1, 2}, b"bytes", Fraction(1, 2), object(), [1, {"a": {2}}], {("a",): "tuple key"},
     {"a": 1, 2: "mixed keys"}, {"a": [1j]}, {frozenset({"a"}): "frozenset key"}],
)
def test_json_text_rejects_what_it_cannot_write(doc):
    with pytest.raises(TypeError):
        json_text(doc)
