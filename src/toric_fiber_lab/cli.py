"""Command line interface.

Subcommands: validate, potential, critical, probes, disks, analyze, render.
All take --input pointing at a polytope JSON document.  Exit codes: 0 success,
2 validation problem, 3 internal inconsistency.  analyze and render take
--seed (default 0), which is recorded in the report's config and changes no
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .disks import boundary_class, disk_area, index_two_classes, maslov_index
from .errors import InternalInconsistency, ToricFiberError, ValidationError
from .novikov import series_from_json
from .polytope import (
    enumerate_vertices,
    format_point,
    interior_values,
    is_bounded,
    parse_polytope,
)
from .potential import build_potential, term_table
from .probes import displaceable_by_probe, probe_scan
from .report import (
    TOOL_VERSION,
    analyze,
    certificate_to_json,
    probe_to_json,
    report_to_json,
    report_to_text,
    write_svg,
)
from .solver import certificates_at_fiber, find_critical_fibers


def _load_polytope(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polytope(fh.read())


def _parse_lambda(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse fiber {text!r}: {exc}") from exc


def _interior_fiber(P, text: str) -> tuple[Fraction, ...]:
    """The parsed fiber; NotInterior (exit 2) unless it lies inside P."""
    lam = _parse_lambda(text)
    interior_values(P, lam)
    return lam


def _load_bulk(path: str | None, n_facets: int, truncation=None):
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("alpha") if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ValidationError('bulk file must hold a list of series or an "alpha" list')
    if len(entries) != n_facets:
        raise ValidationError(
            f"bulk file supplies {len(entries)} series for {n_facets} facets"
        )
    out = []
    for e in entries:
        if truncation is not None:
            D = truncation
        elif isinstance(e, list):
            # keep every term the file specifies; potentials retruncate later
            try:
                D = max((Fraction(str(t["exp"])) for t in e), default=Fraction(0)) + 1
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f'bulk term without a rational "exp" in {e!r}') from exc
        else:
            D = Fraction(1)
        out.append(series_from_json(e, D))
    return tuple(out)


def _truncation(args):
    if getattr(args, "truncation", None) is None:
        return None
    return Fraction(args.truncation)


def cmd_validate(args) -> int:
    P = _load_polytope(args.input)
    verts = enumerate_vertices(P)
    print(f"dimension: {P.dimension}")
    print(f"facets: {len(P.facets)}")
    print(f"bounded: {is_bounded(P)}")
    print(f"vertices: {len(verts)}")
    for v in verts:
        print(f"  {format_point(v)}")
    print(f"interior witness: {format_point(P.witness)}")
    return 0


def cmd_potential(args) -> int:
    P = _load_polytope(args.input)
    lam = _parse_lambda(args.fiber)
    D = _truncation(args)
    alpha = _load_bulk(args.bulk, len(P.facets), D)
    W = build_potential(P, lam, alpha, truncation=D)
    if args.json:
        print(json.dumps({"fiber": [str(x) for x in lam], "truncation": str(W.truncation),
                          "terms": term_table(W)}, indent=2, sort_keys=True))
        return 0
    print(f"potential at lambda = {format_point(lam)}, truncation q^{W.truncation}")
    print(f"{'facet':>5}  {'exponent':>12}  {'valuation':>9}  multiplier")
    for t in W.terms:
        mult = f"{t.multiplier.real:.6g}"
        if abs(t.multiplier.imag) > 1e-12:
            mult += f"{t.multiplier.imag:+.6g}i"
        print(f"{t.facet_index:>5}  {str(list(t.exponent)):>12}  {str(t.valuation):>9}  {mult}")
    return 0


def cmd_critical(args) -> int:
    P = _load_polytope(args.input)
    D = _truncation(args)
    alpha = _load_bulk(args.bulk, len(P.facets), D)
    if args.fiber is not None:
        certs = certificates_at_fiber(P, _interior_fiber(P, args.fiber), alpha, D)
    else:
        certs = find_critical_fibers(P, alpha, D)
    if args.json:
        print(json.dumps([certificate_to_json(c) for c in certs], indent=2, sort_keys=True))
        return 0
    if not certs:
        print("no critical fibers found")
        return 0
    for c in certs:
        lead = ", ".join(f"{zj.leading():.6g}" for zj in c.z)
        print(
            f"lambda = {format_point(c.fiber)}  method={c.method}  "
            f"z leading = [{lead}]  residual >= q^{c.residual_valuation}  "
            f"intersections >= {c.intersection_lower_bound}"
        )
    return 0


def cmd_probes(args) -> int:
    P = _load_polytope(args.input)
    if (args.fiber is None) == (args.scan is None):
        raise ValidationError("provide exactly one of --lambda or --scan")
    if args.fiber is not None:
        lam = _interior_fiber(P, args.fiber)
        probe = displaceable_by_probe(P, lam, args.bound)
        if args.json:
            print(json.dumps({"fiber": [str(x) for x in lam], "probe": probe_to_json(probe)},
                             indent=2, sort_keys=True))
        elif probe is None:
            print(f"{format_point(lam)}: no probe found (bound {args.bound})")
        else:
            print(
                f"{format_point(lam)}: displaceable by probe from facet {probe.facet_index} "
                f"along {list(probe.direction)}"
            )
        return 0
    grid = probe_scan(P, args.scan, args.bound)
    if args.json:
        doc = [
            {"fiber": [str(x) for x in lam], "probe": probe_to_json(p)}
            for lam, p in grid.items()
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    hit = sum(1 for p in grid.values() if p is not None)
    print(f"scanned {len(grid)} interior grid points at resolution {args.scan}")
    print(f"displaceable: {hit}, no probe found: {len(grid) - hit}")
    for lam, p in grid.items():
        if p is None:
            print(f"  unknown: {format_point(lam)}")
    return 0


def cmd_disks(args) -> int:
    P = _load_polytope(args.input)
    lam = _interior_fiber(P, args.fiber)
    rows = []
    for cls in index_two_classes(P):
        rows.append(
            {
                "degrees": list(cls),
                "maslov_index": maslov_index(cls),
                "area": str(disk_area(cls, P, lam)),
                "boundary_class": list(boundary_class(cls, P)),
            }
        )
    if args.json:
        print(json.dumps({"fiber": [str(x) for x in lam], "classes": rows},
                         indent=2, sort_keys=True))
        return 0
    print(f"index-2 disk classes at lambda = {format_point(lam)}")
    for r in rows:
        print(
            f"  d={r['degrees']}  area={r['area']}  boundary={r['boundary_class']}"
        )
    return 0


def _run_analysis(args):
    P = _load_polytope(args.input)
    D = _truncation(args)
    alpha = _load_bulk(args.bulk, len(P.facets), D)
    return analyze(
        P,
        seed=args.seed,
        truncation=D,
        bound=args.bound,
        resolution=args.resolution,
        alpha=alpha,
    )


def cmd_analyze(args) -> int:
    report = _run_analysis(args)
    if args.svg:
        write_svg(report, args.svg)
    if args.json:
        print(report_to_json(report))
    else:
        print(report_to_text(report), end="")
    return 0


def cmd_render(args) -> int:
    write_svg(_run_analysis(args), args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-fiber-lab",
        description="Critical toric fibers and displaceability probes from moment-polytope data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="polytope JSON document")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the input document and report geometry")

    p = add("potential", cmd_potential, "print the potential's term table at a fiber")
    p.add_argument("--lambda", dest="fiber", required=True, help="fiber, e.g. 1/2,1/3")
    p.add_argument("--bulk", help="JSON file with per-facet twist series")
    p.add_argument("--truncation", help="truncation order p/q")
    p.add_argument("--json", action="store_true")

    p = add("critical", cmd_critical, "find critical fibers (or test one fiber)")
    p.add_argument("--lambda", dest="fiber", help="restrict to one fiber")
    p.add_argument("--bulk", help="JSON file with per-facet twist series")
    p.add_argument("--truncation", help="truncation order p/q")
    p.add_argument("--json", action="store_true")

    p = add("probes", cmd_probes, "probe displaceability of one fiber or a grid")
    p.add_argument("--lambda", dest="fiber", help="fiber to test")
    p.add_argument("--scan", type=int, help="grid resolution")
    p.add_argument("--bound", type=int, default=3, help="direction sup-norm bound")
    p.add_argument("--json", action="store_true")

    p = add("disks", cmd_disks, "list index-2 disk classes at a fiber")
    p.add_argument("--lambda", dest="fiber", required=True)
    p.add_argument("--json", action="store_true")

    def add_analysis_flags(p):
        p.add_argument("--bulk", help="JSON file with per-facet twist series")
        p.add_argument("--truncation", help="truncation order p/q")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bound", type=int, default=3)
        p.add_argument("--resolution", type=int, default=16)

    p = add("analyze", cmd_analyze, "full analysis: critical fibers + probe grid")
    add_analysis_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", help="also write the picture to this path")

    p = add("render", cmd_render, "run the analysis and write only the SVG")
    add_analysis_flags(p)
    p.add_argument("--output", required=True, help="SVG output path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ToricFiberError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
