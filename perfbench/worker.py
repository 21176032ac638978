"""Benchmark worker: runs one case at a time on request (closed loop).

Started by ``run.py`` as ``python3 perfbench/worker.py --root DIR --seed N``.
Requests arrive on stdin and replies leave on stdout, one JSON object per
line.  Requests:

  {"op": "case", "name": ..., "kind": ..., "traced": bool}
                                run one case, check its answer
  {"op": "cli", "argv": [...]}  run the CLI in-process (traced)
  {"op": "stats", "spans": path}
                                per-layer metrics of the traced work
  {"op": "quit"}

Only the library calls of a case are timed; the reply gives the duration and
the perf_counter readings at both ends, so the harness can take out any time
it kept the worker stopped.  Answer checks run afterwards with tracing
paused, so they add neither time nor spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import cases
from tracer import Tracer, call_cost

MODULES = ("polytope", "novikov", "potential", "solver", "probes", "disks", "report", "cli")

# Functions wrapped in the traced run, by the module that defines them.
TRACED = {
    "novikov": ("series", "nov_pow", "nov_inverse"),
    "potential": ("term_values", "eval_gradient", "eval_hessian", "build_potential"),
    "solver": ("find_critical_fibers", "tropical_candidates", "leading_system",
               "solve_leading", "newton_lift", "graded_lift"),
    "polytope": ("facet_values", "is_interior"),
    "probes": ("probe_scan", "displaceable_by_probe", "probe_through"),
    "disks": ("potential_from_disks",),
    "report": ("analyze", "report_to_json", "render_svg"),
    "cli": ("main",),
}
LIFTS = ("solver.newton_lift", "solver.graded_lift")
LIFT_ERRORS = ("SingularLeadingHessian", "NoConvergence", "Inconsistent")


def span_names() -> list[str]:
    names = ["novikov.mul"]
    for mod, funcs in TRACED.items():
        names.extend(f"{mod}.{f}" for f in funcs)
    return names


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s", f"{name}.fail"]
    for lift in LIFTS:
        out += [f"{lift}.fail.{err}" for err in LIFT_ERRORS]
    out += [
        "solver.candidates",
        "solver.leading_roots",
        "solver.leading_roots_max_per_candidate",
        "solver.certificates",
        "solver.root_yield",
        "probes.grid_points",
        "probes.s_per_point",
        "probes.hit_rate",
        "report.json_bytes",
        "trace.overhead_frac",
    ]
    return out


class Worker:
    def __init__(self, root: str, seed: int):
        self.seed = seed
        sys.path.insert(0, os.path.join(root, "src"))
        import toric_fiber_lab as tfl

        self.tfl = tfl
        self.modules = {m: importlib.import_module(f"toric_fiber_lab.{m}") for m in MODULES}
        self.tracer = Tracer()
        self.traced_s = 0.0  # seconds of library work done with tracing on
        # warm-up, untimed: first-call costs inside numpy and the library
        tfl.analyze(tfl.parse_polytope(json.dumps(cases.POLYTOPES["interval"])), seed=seed)

    # -- tracing --------------------------------------------------------------

    def _set_tracing(self, on: bool) -> None:
        tr = self.tracer
        if on and not tr.installed:
            targets = [
                (f"{mod}.{f}", getattr(self.modules[mod], f))
                for mod, funcs in TRACED.items()
                for f in funcs
            ]
            tr.install(
                [self.tfl, *self.modules.values()],
                targets,
                observers={
                    "solver.tropical_candidates": len,
                    "solver.solve_leading": len,
                    "solver.find_critical_fibers": len,
                    "probes.probe_scan": lambda grid: (
                        len(grid), sum(p is not None for p in grid.values())
                    ),
                    "report.report_to_json": len,
                },
            )
            series_cls = self.tfl.NovikovSeries
            tr.install_method(series_cls, "__mul__", "novikov.mul")
            tr.install_method(series_cls, "__rmul__", "novikov.mul")
        elif not on and tr.installed:
            tr.uninstall()
        tr.enabled = on

    @contextlib.contextmanager
    def _paused(self):
        was = self.tracer.enabled
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = was

    # -- cases ----------------------------------------------------------------

    def run_case(self, name: str, kind: str) -> dict:
        text = json.dumps(cases.POLYTOPES[name])
        work = self._analyze if kind == "analyze" else self._probe_scan
        start = time.perf_counter()
        try:
            out = work(text)
        except Exception as exc:  # one failed case must not stop the loop
            end = time.perf_counter()
            self._count(end - start)
            traceback.print_exc(file=sys.stderr)
            return {"status": "error", "error": type(exc).__name__,
                    "detail": str(exc)[:300], "seconds": end - start, "t0": start, "t1": end}
        end = time.perf_counter()
        self._count(end - start)
        with self._paused():
            problems = self._check(name, kind, out)
        digest = hashlib.sha256("\n".join(out["texts"]).encode()).hexdigest()
        return {"status": "wrong" if problems else "ok", "detail": "; ".join(problems),
                "seconds": end - start, "t0": start, "t1": end, "digest": digest}

    def _analyze(self, text: str) -> dict:
        tfl = self.tfl
        P = tfl.parse_polytope(text)
        report = tfl.analyze(P, seed=self.seed)
        texts = [tfl.report_to_json(report)]
        if P.dimension == 2 and tfl.is_bounded(P):
            texts.append(tfl.render_svg(report))
        disks_agree = True
        for fiber in sorted({c.fiber for c in report.certificates}):
            a = tfl.build_potential(P, fiber)
            b = tfl.potential_from_disks(P, fiber)
            disks_agree &= a.terms == b.terms and a.truncation == b.truncation
        return {"P": P, "report": report, "texts": texts, "disks_agree": disks_agree}

    def _probe_scan(self, text: str) -> dict:
        tfl = self.tfl
        P = tfl.parse_polytope(text)
        grid = tfl.probe_scan(P, cases.PROBE_RESOLUTION, cases.PROBE_BOUND)
        doc = [
            {"fiber": [str(x) for x in lam], "probe": tfl.probe_to_json(p)}
            for lam, p in grid.items()
        ]
        return {"grid": grid, "texts": [json.dumps(doc, indent=2, sort_keys=True)]}

    def _check(self, name: str, kind: str, out: dict) -> list[str]:
        """Answer oracle; returns the list of problems found."""
        tfl = self.tfl
        problems = []
        if kind == "probe_scan":
            unknown = sum(p is None for p in out["grid"].values())
            want_unknown, want_digest = cases.PROBE_ORACLE[name]
            if unknown != want_unknown:
                problems.append(f"{unknown} unknown grid points, expected {want_unknown}")
            digest = hashlib.sha256(out["texts"][0].encode()).hexdigest()
            if digest != want_digest:
                problems.append(f"probe JSON digest {digest} differs from the pinned one")
            return problems
        certs = out["report"].certificates
        fibers = {tuple(str(x) for x in c.fiber) for c in certs}
        want_fibers, want_count = cases.ANALYZE_ORACLE[name]
        if fibers != want_fibers or len(certs) != want_count:
            problems.append(
                f"certified fibers {sorted(fibers)} x{len(certs)}, "
                f"expected {sorted(want_fibers)} x{want_count}"
            )
        P = out["P"]
        for c in certs:
            W = tfl.build_potential(P, c.fiber)
            if not all(g.is_zero() for g in tfl.eval_gradient(W, c.z)):
                problems.append(f"certificate at {c.fiber}: gradient does not vanish")
        if not out["disks_agree"]:
            problems.append("disk potential differs from the facet potential")
        doc = json.loads(out["texts"][0])
        if len(doc["certificates"]) != len(certs):
            problems.append("report JSON lost certificates")
        if len(out["texts"]) > 1 and not out["texts"][1].startswith("<svg"):
            problems.append("SVG output is malformed")
        return problems

    def _count(self, seconds: float) -> None:
        if self.tracer.enabled:
            self.traced_s += seconds

    def run_cli(self, argv: list[str]) -> dict:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.modules["cli"].main(argv)
        self._count(time.perf_counter() - start)
        return {"exit": code}

    # -- per-layer metrics ----------------------------------------------------

    def stats(self) -> dict:
        tr = self.tracer
        m: dict[str, float] = {}
        for name in span_names():
            m[f"{name}.calls"] = tr.calls(name)
            m[f"{name}.self_s"] = tr.self_s(name)
            m[f"{name}.fail"] = tr.fail_count(name)
        for lift in LIFTS:
            for err in LIFT_ERRORS:
                m[f"{lift}.fail.{err}"] = tr.fail_count(lift, err)
        roots = tr.results.get("solver.solve_leading", [])
        m["solver.candidates"] = sum(tr.results.get("solver.tropical_candidates", []))
        m["solver.leading_roots"] = sum(roots)
        m["solver.leading_roots_max_per_candidate"] = max(roots, default=0)
        m["solver.certificates"] = sum(tr.results.get("solver.find_critical_fibers", []))
        m["solver.root_yield"] = (
            m["solver.certificates"] / m["solver.leading_roots"] if roots and sum(roots) else 0.0
        )
        scans = tr.results.get("probes.probe_scan", [])
        points = sum(n for n, _ in scans)
        m["probes.grid_points"] = points
        m["probes.s_per_point"] = tr.total_s("probes.probe_scan") / points if points else 0.0
        m["probes.hit_rate"] = sum(h for _, h in scans) / points if points else 0.0
        m["report.json_bytes"] = sum(tr.results.get("report.report_to_json", []))
        # What the wrappers added, over the traced seconds without it.  A second,
        # untraced pass would measure this too, but two hexagon passes do not
        # fit in one run's time limit, and the difference of two passes is
        # mostly host noise.
        added_s = sum(tr.calls(name) for name in span_names()) * call_cost()
        m["trace.overhead_frac"] = added_s / (self.traced_s - added_s)
        return {"metrics": m, "roots_per_candidate": roots,
                "spans_kept": len(tr.spans), "spans_dropped": tr.dropped}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    # replies go to the real stdout; anything the library prints goes to stderr
    reply_stream = os.fdopen(os.dup(1), "w", encoding="utf-8")
    sys.stdout = sys.stderr
    worker = Worker(args.root, args.seed)

    def reply(obj: dict) -> None:
        obj["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply_stream.write(json.dumps(obj) + "\n")
        reply_stream.flush()

    import numpy

    reply({"status": "ready", "numpy": numpy.__version__})
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "quit":
            break
        if op == "case":
            worker._set_tracing(req["traced"])
            reply(worker.run_case(req["name"], req["kind"]))
        elif op == "cli":
            worker._set_tracing(True)
            reply(worker.run_cli(req["argv"]))
        elif op == "stats":
            worker._set_tracing(False)
            out = worker.stats()
            worker.tracer.write_spans(req["spans"])
            reply(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
