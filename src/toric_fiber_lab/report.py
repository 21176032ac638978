"""Full-polytope analysis: critical fibers, probe verdicts, JSON and SVG output.

analyze() combines the critical-fiber pipeline with a probe grid scan and
classifies every grid fiber as critical, displaceable, or unknown.  Outputs
are deterministic for a fixed configuration: grid order is ascending, floats
are formatted identically, and no timestamps are embedded.

Every JSON document the package prints is json_text(doc), that is
json.dumps(doc, indent=2, sort_keys=True).  json.dumps writes indented JSON
in pure Python, so the two long lists of one-shape entries, a report's grid
and the probes --scan list, are written from one template each in about a
fifth of its time; each distinct Probe's block is written once per document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionUnsupported, InternalInconsistency, UnboundedPolytope
from .novikov import series_to_json
from .polytope import (
    MomentPolytope,
    bounding_box,
    enumerate_vertices,
    format_point,
    is_bounded,
    polytope_to_json,
)
from .probes import DEFAULT_BOUND, DEFAULT_RESOLUTION, Probe, Verdict
from .probes import check_bound, displaceable_by_probe, probe_scan
from .solver import CriticalCertificate, find_critical_fibers

TOOL_VERSION = "0.1.0"
SVG_SIZE = 640
SVG_MARGIN = 0.05
COLOR_DISPLACEABLE = "#bbbbbb"
COLOR_CRITICAL = "#d62728"
COLOR_UNKNOWN = "#ffffff"
CELL_COLOR = {
    "displaceable": COLOR_DISPLACEABLE,
    "no_probe_found": COLOR_UNKNOWN,
    "critical": COLOR_UNKNOWN,
}

# Plain potentials miss fibers that only become critical after a bulk twist;
# stated in every report made without a twist so an empty critical list is not over-read.
BULK_CAVEAT = (
    "Critical fibers are certified for the plain potential only. Fibers that "
    "become critical only after a bulk twist (for example in blown-up product "
    "families with negative blow-up parameter) are reported as unknown unless "
    "a twist is supplied."
)


@dataclass(frozen=True)
class AnalysisReport:
    polytope: MomentPolytope
    certificates: tuple[CriticalCertificate, ...]
    grid: tuple[Verdict, ...]
    unknown_count: int
    unknown_examples: tuple[tuple[Fraction, ...], ...]
    config: dict
    version: str
    notes: tuple[str, ...]


def analyze(
    P: MomentPolytope,
    seed: int = 0,
    truncation=None,
    bound: int = DEFAULT_BOUND,
    resolution: int = DEFAULT_RESOLUTION,
    alpha=None,
) -> AnalysisReport:
    """Run the critical-fiber search and the probe scan, then classify.

    Raises ValueError for a direction bound or a grid resolution below 1 and
    for a bound above MAX_DIRECTIONS directions, whether or not any probe
    search runs, and for a scanned grid above MAX_GRID_POINTS before the
    critical-fiber search starts.
    """
    check_bound(bound, P.dimension)
    if resolution < 1:
        raise ValueError("resolution must be positive")
    scan = probe_scan(P, resolution, bound) if P.dimension <= 2 and is_bounded(P) else None
    certs = tuple(find_critical_fibers(P, alpha=alpha, truncation=truncation, seed=seed))
    cert_fibers = {c.fiber: i for i, c in enumerate(certs)}
    notes = [BULK_CAVEAT] if alpha is None else []
    for lam in filter(lambda x: displaceable_by_probe(P, x, bound), cert_fibers):
        raise InternalInconsistency(f"fiber {lam} is certified critical and displaced by a probe")
    grid: list[Verdict] = []
    if scan is not None:
        # a dict copy keeps the scan's stored hashes, so only the certified
        # fibers are hashed; each on the grid gets its certificate index in
        # place of its probe, which the guard above found to be None
        cells = dict(scan)
        cells.update((lam, i) for lam, i in cert_fibers.items() if lam in cells)
        grid = [Verdict(lam, "no_probe_found") if v is None else
                Verdict(lam, "critical", None, v) if isinstance(v, int) else
                Verdict(lam, "displaceable", v) for lam, v in cells.items()]
    else:
        notes.append("Probe grid scan skipped: needs a bounded polytope of dimension <= 2.")
    unknown = [v.fiber for v in grid if v.kind == "no_probe_found"]
    config = {
        "seed": seed,
        "truncation": None if truncation is None else str(Fraction(truncation)),
        "bound": bound,
        "resolution": resolution,
        "bulk": alpha is not None,
    }
    return AnalysisReport(
        polytope=P,
        certificates=certs,
        grid=tuple(grid),
        unknown_count=len(unknown),
        unknown_examples=tuple(unknown[:10]),
        config=config,
        version=TOOL_VERSION,
        notes=tuple(notes),
    )


# -- serialization ------------------------------------------------------------


def json_text(doc) -> str:
    """The one JSON format the package prints: json.dumps(doc, indent=2, sort_keys=True)."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _point_json(pt) -> list[str]:
    return [str(x) for x in pt]


def certificate_to_json(cert: CriticalCertificate) -> dict:
    return {
        "fiber": _point_json(cert.fiber),
        "z": [series_to_json(zj) for zj in cert.z],
        "residual_valuation": str(cert.residual_valuation),
        "residual_history": [str(v) for v in cert.residual_history],
        "leading_jacobian_nondegenerate": cert.leading_jacobian_nondegenerate,
        "critical_value": series_to_json(cert.critical_value),
        "intersection_lower_bound": cert.intersection_lower_bound,
        "method": cert.method,
        "iterations": cert.iterations,
    }


def probe_to_json(probe: Probe | None):
    if probe is None:
        return None
    base, exit_parameter = probe.strings
    return {
        "facet": probe.facet_index,
        "base": list(base),
        "direction": list(probe.direction),
        "exit_parameter": exit_parameter,
    }


def _probe_text(probe: Probe | None, nl: str, blocks: dict) -> str:
    """json_text(probe_to_json(probe)) with nl before its closing brace.

    blocks keeps each probe's text by identity, so a probe shared by many
    grid cells is written once.
    """
    if probe is None:
        return "null"
    text = blocks.get(id(probe))
    if text is None:
        base, exit_parameter = probe.strings
        i1, i2 = nl + "  ", nl + "    "
        text = blocks[id(probe)] = (
            "{" + i1 + '"base": [' + i2 + '"' + ('",' + i2 + '"').join(base) + '"' + i1
            + "]," + i1 + '"direction": [' + i2 + ("," + i2).join(map(str, probe.direction))
            + i1 + "]," + i1 + '"exit_parameter": "' + exit_parameter + '",' + i1
            + '"facet": ' + str(probe.facet_index) + nl + "}"
        )
    return text


def _grid_text(grid: tuple[Verdict, ...]) -> str:
    """The report's "grid" list as json_text writes it at depth 1.

    Every entry has the same keys at the same depth, so each is written from
    one template; fiber, base and exit strings are str(Fraction) and need no
    escaping.
    """
    if not grid:
        return "[]"
    blocks: dict[int, str] = {}
    entry = ('{\n      "certificate": %s,\n      "fiber": [\n        "%s"\n      ],'
             '\n      "probe": %s,\n      "verdict": "%s"\n    }')
    entries = [
        entry % ("null" if v.certificate is None else v.certificate,
                 '",\n        "'.join(map(str, v.fiber)),
                 _probe_text(v.probe, "\n      ", blocks), v.kind)
        for v in grid
    ]
    return "[\n    " + ",\n    ".join(entries) + "\n  ]"


def _scan_text(scan: dict) -> str:
    """The probes --scan list of {"fiber", "probe"} entries as json_text writes it."""
    if not scan:
        return "[]"
    blocks: dict[int, str] = {}
    entry = '{\n    "fiber": [\n      "%s"\n    ],\n    "probe": %s\n  }'
    entries = [entry % ('",\n      "'.join(map(str, lam)), _probe_text(p, "\n    ", blocks))
               for lam, p in scan.items()]
    return "[\n  " + ",\n  ".join(entries) + "\n]"


def report_to_json(report: AnalysisReport) -> str:
    doc = {
        "polytope": polytope_to_json(report.polytope),
        "certificates": [certificate_to_json(c) for c in report.certificates],
        "grid": "\0grid",  # no report string holds a NUL: replaced below by the grid's text
        "unknown": {
            "count": report.unknown_count,
            "examples": [_point_json(x) for x in report.unknown_examples],
        },
        "config": report.config,
        "version": report.version,
        "notes": list(report.notes),
    }
    return json_text(doc).replace('"\\u0000grid"', _grid_text(report.grid), 1)


def report_to_text(report: AnalysisReport) -> str:
    lines = []
    P = report.polytope
    lines.append(f"polytope: dimension {P.dimension}, {len(P.facets)} facets")
    lines.append(f"critical fibers: {len(report.certificates)}")
    for c in report.certificates:
        lead = ", ".join(f"{zj.leading():.6g}" for zj in c.z)
        lines.append(
            f"  lambda = {format_point(c.fiber)}"
            f"  method={c.method}  z leading = [{lead}]"
            f"  intersections >= {c.intersection_lower_bound}"
        )
    if report.grid:
        counts: dict[str, int] = {}
        for v in report.grid:
            counts[v.kind] = counts.get(v.kind, 0) + 1
        lines.append(
            "grid: "
            + ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
            + f" (of {len(report.grid)} interior points)"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# -- SVG rendering -------------------------------------------------------------


def _ordered_outline(P: MomentPolytope) -> list[tuple[float, float]]:
    verts = [(float(v[0]), float(v[1])) for v in enumerate_vertices(P)]
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    verts.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    return verts


def render_svg(report: AnalysisReport) -> str:
    """Deterministic 640x640 picture: shaded grid cells, outline, critical dots."""
    P = report.polytope
    if P.dimension != 2:
        raise DimensionUnsupported("SVG rendering requires a 2-dimensional polytope")
    if not is_bounded(P):
        raise UnboundedPolytope("SVG rendering needs a bounded polytope; this one is unbounded")
    (xmin, xmax), (ymin, ymax) = bounding_box(P)
    wx, wy = float(xmax - xmin), float(ymax - ymin)
    avail = SVG_SIZE * (1 - 2 * SVG_MARGIN)
    scale = min(avail / wx, avail / wy)
    ox = (SVG_SIZE - scale * wx) / 2
    oy = (SVG_SIZE - scale * wy) / 2
    x0, y0 = float(xmin), float(ymin)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (ox + scale * (x - x0), SVG_SIZE - oy - scale * (y - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff" />',
    ]
    resolution = report.config.get("resolution") or DEFAULT_RESOLUTION
    cw = scale * wx / resolution
    ch = scale * wy / resolution
    # a cell's x depends only on its first coordinate and its y only on its
    # second: each is formatted once per grid value (one object per axis value)
    tail = f'" width="{cw:.2f}" height="{ch:.2f}" fill="'
    tails = {kind: tail + color + '" />' for kind, color in CELL_COLOR.items()}
    xs: dict[int, str] = {}
    ys: dict[int, str] = {}
    for v in report.grid:
        x, y = v.fiber
        sx = xs.get(id(x)) or xs.setdefault(id(x), f"{ox + scale * (float(x) - x0) - cw / 2:.2f}")
        sy = ys.get(id(y)) or ys.setdefault(
            id(y), f"{SVG_SIZE - oy - scale * (float(y) - y0) - ch / 2:.2f}")
        out.append('<rect x="' + sx + '" y="' + sy + tails[v.kind])
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(*v) for v in _ordered_outline(P)))
    out.append(f'<polygon points="{pts}" fill="none" stroke="#000000" stroke-width="2" />')
    for cert in report.certificates:
        px, py = to_px(float(cert.fiber[0]), float(cert.fiber[1]))
        out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="6" fill="{COLOR_CRITICAL}" />')
        out.append(
            f'<text x="{px + 10:.2f}" y="{py - 8:.2f}" font-family="monospace" '
            f'font-size="14" fill="#000000">{format_point(cert.fiber)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(report: AnalysisReport, path: str) -> None:
    svg = render_svg(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
