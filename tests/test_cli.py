"""Command line surface: exit codes, JSON payloads, determinism, seeding."""

import json
from fractions import Fraction

import pytest

from toric_fiber_lab import polytope_to_json
from toric_fiber_lab.cli import main
from conftest import (
    INTERVAL_JSON,
    WEIGHTED_35_JSON,
    corner_cut_polytope,
    cube_polytope,
    square_polytope,
)


@pytest.fixture
def interval_file(tmp_path):
    p = tmp_path / "interval.json"
    p.write_text(INTERVAL_JSON)
    return str(p)


@pytest.fixture
def weighted_file(tmp_path):
    p = tmp_path / "weighted.json"
    p.write_text(WEIGHTED_35_JSON)
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(polytope_to_json(square_polytope())))
    return str(p)


@pytest.fixture
def corner_cut_file(tmp_path):
    p = tmp_path / "corner_cut.json"
    p.write_text(json.dumps(polytope_to_json(corner_cut_polytope(Fraction(1, 2)))))
    return str(p)


def test_validate(interval_file, capsys):
    assert main(["validate", "--input", interval_file]) == 0
    out = capsys.readouterr().out
    assert "dimension: 1" in out
    assert "facets: 2" in out
    assert "bounded: True" in out


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_malformed_document(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dimension": 1, "facets": [{"normal": [0], "offset": "0"}]}')
    assert main(["validate", "--input", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_potential_table(interval_file, capsys):
    assert main(["potential", "--input", interval_file, "--lambda", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "truncation q^3/2" in out


def test_potential_json(interval_file, capsys):
    rc = main(
        ["potential", "--input", interval_file, "--lambda", "1/4", "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fiber"] == ["1/4"]
    assert len(doc["terms"]) == 2


def test_potential_requires_fiber(interval_file):
    with pytest.raises(SystemExit):
        main(["potential", "--input", interval_file])


def test_potential_rejects_boundary_fiber(interval_file, capsys):
    assert main(["potential", "--input", interval_file, "--lambda", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_critical_full_search(weighted_file, capsys):
    rc = main(["critical", "--input", weighted_file, "--json"])
    assert rc == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 9
    assert all(d["fiber"] == ["5/3", "5/3"] for d in docs)
    assert all(d["residual_valuation"] == "inf" for d in docs)


def test_critical_single_fiber(interval_file, capsys):
    rc = main(["critical", "--input", interval_file, "--lambda", "1/2", "--json"])
    assert rc == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 2


@pytest.mark.parametrize("command", ["potential", "critical", "probes", "disks"])
def test_exterior_fiber_is_rejected_plainly(interval_file, capsys, command):
    assert main([command, "--input", interval_file, "--lambda", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: fiber (2) is not interior\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["potential", "critical", "probes", "disks"])
def test_wrong_length_fiber_names_point_and_dimension(interval_file, capsys, command):
    assert main([command, "--input", interval_file, "--lambda", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: point (1, 2) has length 2, but the polytope has dimension 1\n"
    )
    assert captured.out == ""


def test_critical_reports_empty(interval_file, capsys):
    rc = main(["critical", "--input", interval_file, "--lambda", "1/3"])
    assert rc == 0
    assert "no critical fibers" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra", [[], ["--truncation", "2"]], ids=["default", "truncation2"]
)
def test_critical_text_names_the_lift_route(corner_cut_file, capsys, extra):
    assert main(["critical", "--input", corner_cut_file] + extra) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all("method=newton" in line for line in lines[:4])
    assert lines[4].startswith("lambda = (1/2, 1/2)  method=graded  z leading = [")
    assert lines[4].endswith("residual >= q^inf  intersections >= 4")


def test_critical_with_bulk_twist(interval_file, tmp_path, capsys):
    bulk = tmp_path / "bulk.json"
    bulk.write_text(json.dumps({"alpha": [[{"exp": "1/2", "re": 0.25}], 0.0]}))
    argv = ["critical", "--input", interval_file, "--lambda", "1/2",
            "--bulk", str(bulk), "--json"]
    for extra, D in (([], Fraction(3, 2)), (["--truncation", "2"], Fraction(2))):
        assert main(argv + extra) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2  # a small twist deforms but keeps both solutions
        # the twist feeds the critical value at every level below the
        # truncation (default 3 * 1/2), and no series reaches past it
        for d in docs:
            top = max(Fraction(t["exp"]) for t in d["critical_value"])
            assert top == D - Fraction(1, 2)
            assert all(Fraction(t["exp"]) < D for zj in d["z"] for t in zj)


def test_critical_rejects_wrong_bulk_length(interval_file, tmp_path, capsys):
    bulk = tmp_path / "bulk.json"
    bulk.write_text(json.dumps([0.0, 0.0, 0.0]))
    rc = main(
        ["critical", "--input", interval_file, "--bulk", str(bulk)]
    )
    assert rc == 2
    assert "2 facets" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [{"beta": [0, 0]}, [[{"re": 1}], 0], [[1, 2], 0], {"alpha": 5}],
    ids=["no-alpha-key", "term-without-exp", "bare-number-terms", "alpha-not-a-list"],
)
@pytest.mark.parametrize("extra", [[], ["--truncation", "2"]], ids=["default", "truncated"])
def test_critical_rejects_malformed_bulk(interval_file, tmp_path, capsys, doc, extra):
    bulk = tmp_path / "bulk.json"
    bulk.write_text(json.dumps(doc))
    assert main(["critical", "--input", interval_file, "--bulk", str(bulk)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_probes_single(interval_file, capsys):
    rc = main(["probes", "--input", interval_file, "--lambda", "1/4", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["probe"] is not None
    assert main(["probes", "--input", interval_file, "--lambda", "1/4"]) == 0
    out = capsys.readouterr().out
    assert out == "(1/4): displaceable by probe from facet 0 along [1]\n"


def test_probes_center_unknown(interval_file, capsys):
    rc = main(["probes", "--input", interval_file, "--lambda", "1/2"])
    assert rc == 0
    assert "no probe found" in capsys.readouterr().out


def test_probes_scan(square_file, capsys):
    rc = main(["probes", "--input", square_file, "--scan", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scanned 49 interior grid points" in out
    assert "displaceable: 48" in out
    assert "unknown: (0, 0)" in out


def test_probes_flags_are_exclusive(interval_file, capsys):
    assert main(["probes", "--input", interval_file]) == 2
    assert (
        main(["probes", "--input", interval_file, "--lambda", "1/4", "--scan", "4"])
        == 2
    )
    err = capsys.readouterr().err
    assert "exactly one" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["probes", "--scan", "4", "--bound", "-1"],
        ["probes", "--scan", "4", "--bound", "0"],
        ["probes", "--lambda", "1/4", "--bound", "0"],
        ["analyze", "--bound", "0"],
    ],
    ids=["scan-1", "scan0", "lambda0", "analyze0"],
)
def test_probe_bound_below_one_is_rejected(interval_file, capsys, argv):
    assert main(argv + ["--input", interval_file]) == 2
    captured = capsys.readouterr()
    assert "bound must be positive" in captured.err
    assert captured.out == ""


def test_analyze_bound_below_one_is_rejected_without_probes(tmp_path, capsys):
    # the quadrant reaches no probe search, so only analyze's own check can fire
    quadrant = tmp_path / "quadrant.json"
    quadrant.write_text(
        json.dumps(
            {
                "dimension": 2,
                "facets": [
                    {"normal": [1, 0], "offset": "0"},
                    {"normal": [0, 1], "offset": "0"},
                ],
            }
        )
    )
    assert main(["analyze", "--input", str(quadrant), "--bound", "0"]) == 2
    captured = capsys.readouterr()
    assert "bound must be positive" in captured.err
    assert captured.out == ""


def test_analyze_resolution_below_one_is_rejected_without_a_scan(tmp_path, capsys):
    # the cube is 3-D, so no probe scan runs and only analyze's own check can fire
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(polytope_to_json(cube_polytope())))
    assert main(["analyze", "--input", str(cube), "--resolution", "0", "--json"]) == 2
    captured = capsys.readouterr()
    assert "resolution must be positive" in captured.err
    assert captured.out == ""


def test_disks(weighted_file, capsys):
    rc = main(["disks", "--input", weighted_file, "--lambda", "1,1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    areas = [row["area"] for row in doc["classes"]]
    assert areas == ["1", "1", "7"]
    assert all(row["maslov_index"] == 2 for row in doc["classes"])
    assert main(["disks", "--input", weighted_file, "--lambda", "1,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index-2 disk classes at lambda = (1, 1)"
    assert [line.split("area=")[1].split()[0] for line in lines[1:]] == areas


def test_disks_rejects_exterior_fiber(interval_file, capsys):
    assert main(["disks", "--input", interval_file, "--lambda", "2"]) == 2
    assert "not interior" in capsys.readouterr().err


def test_analyze_json_deterministic(weighted_file, capsys):
    assert main(["analyze", "--input", weighted_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--input", weighted_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["config"]["seed"] == 0
    assert len(doc["certificates"]) == 9


def test_seed_resolution(weighted_file, capsys):
    assert main(["analyze", "--input", weighted_file, "--json", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 4


def test_analyze_writes_svg(square_file, tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    rc = main(
        [
            "analyze",
            "--input",
            square_file,
            "--resolution",
            "8",
            "--svg",
            str(svg_path),
        ]
    )
    assert rc == 0
    assert svg_path.read_text().startswith("<svg ")


def test_render(square_file, tmp_path, capsys):
    out_path = tmp_path / "picture.svg"
    rc = main(
        ["render", "--input", square_file, "--resolution", "8", "--output", str(out_path)]
    )
    assert rc == 0
    text = out_path.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_render_byte_stable(square_file, tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        rc = main(
            [
                "render",
                "--input",
                square_file,
                "--resolution",
                "8",
                "--seed",
                "0",
                "--output",
                str(path),
            ]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
