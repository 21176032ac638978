"""toric-fiber-lab benchmark: run one workload, check its answers, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixtures --seed 0 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):

  fixtures    analyze() at the defaults on eleven fixed polytopes
  probe_grid  probe_scan(P, 64, 3) on three polygons
  hexagon     analyze() on the hexagon

Load is a closed loop: one worker process (perfbench/worker.py) runs one case
after another with BLAS threads pinned to 1.  The untraced run (--trace 0)
measures whole passes over the workload's cases until --seconds is used up
(at least one pass), takes fresh-process samples for setup_s and cli_s spread
over that time, and reports the end-to-end metrics.  The traced run
(--trace 1) runs one pass with every layer wrapped by perfbench/tracer.py,
then fresh-process set-up samples, and reports the per-layer metrics.

A case that runs past its time limit is stopped, counted as failed and
charged the limit.  A case also fails when it raises or when its output
differs from an earlier run of the same workload, seed and library code in
this checkout.  A wrong answer sets "correct" to false and the exit code to 1.
A traced run whose pass loses its worker prints no result and exits 3.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
from worker import per_layer_names  # noqa: E402

CASE_LIMIT_S = 150.0  # per case
RUN_LIMIT_S = 170.0  # whole run; a case never gets more than what is left
CAL_PERIOD_S = 0.5  # host-speed probe cadence while the worker runs a case
REF_KERNEL_S = 0.005  # speed-probe seconds on the reference host
SETUP_REPEATS = 5  # fresh-interpreter samples per run
CLI_REPEATS = 11  # fresh-process CLI samples per untraced run
OUT_DIR = ".perfbench"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import toric_fiber_lab
t1 = time.perf_counter()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        toric_fiber_lab.parse_polytope(fh.read())
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def speed_probe() -> float:
    """Median seconds of three runs of a fixed pure-Python kernel.

    The kernel mixes what the library spends its time on: small Fractions,
    dict lookups and complex arithmetic.  It never touches the library.
    """
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        acc: dict = {}
        q = Fraction(3, 7)
        for i in range(1, 700):
            e = Fraction(i % 11, i % 5 + 1) + q
            acc[e] = acc.get(e, 0j) + complex(i, -i) * 0.5
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


class WorkerGone(Exception):
    """The worker exceeded its time limit or exited; it has been reaped."""


class Unmeasured(Exception):
    """The traced pass lost its worker; the run reports no result."""


class WorkerProcess:
    """One worker subprocess, spoken to in JSON lines."""

    def __init__(self, root: str, seed: int, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root,
        )
        self._buf = b""
        self.ready = self._read(60.0)

    def request(self, obj: dict, timeout: float, sampler=None,
                hard_deadline: float = math.inf) -> dict:
        """Send one request and wait up to `timeout` seconds of worker time.

        With a `sampler`, fresh-process samples that fall due while the worker
        is busy are taken with the worker stopped (SIGSTOP), so they never
        share the CPU with it; the stopped intervals are kept in `pauses`.
        Stopped time extends the wait, but never past `hard_deadline`
        (time.monotonic).
        """
        self.pauses: list[tuple[float, float]] = []
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            raise WorkerGone("worker exited") from None
        return self._read(timeout, sampler, hard_deadline)

    def _read(self, timeout: float, sampler=None, hard_deadline: float = math.inf) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            now = time.monotonic()
            if now >= deadline:
                self.kill()
                raise WorkerGone("time limit")
            wait = deadline - now
            if sampler is not None:
                wait = min(wait, max(sampler.next_due() - now, 0.0))
            if not select.select([fd], [], [], wait)[0]:
                if sampler is not None and sampler.next_due() <= time.monotonic():
                    deadline = min(deadline + self._paused(sampler.take_due),
                                   hard_deadline)
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.kill()
                raise WorkerGone("worker exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def _paused(self, work) -> float:
        start = time.perf_counter()
        self.proc.send_signal(signal.SIGSTOP)
        try:
            work()
        finally:
            self.proc.send_signal(signal.SIGCONT)
            end = time.perf_counter()
            self.pauses.append((start, end))
        return end - start

    def paused_within(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] (perf_counter, shared by all processes) spent stopped."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.pauses)

    def kill(self) -> None:
        self.proc.kill()  # no-op once the process has exited
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def close(self) -> None:
        try:
            self.proc.stdin.write(b'{"op": "quit"}\n')
            self.proc.stdin.flush()
            self.proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        self.kill()


class Harness:
    def __init__(self, root: str, workload: str, seed: int, src_key: str):
        self.root = root
        self.name = workload
        self.spec = cases.WORKLOADS[workload]
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_PIN)
        self.out = os.path.join(root, OUT_DIR)
        os.makedirs(os.path.join(self.out, "inputs"), exist_ok=True)
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("setup_s", "setup.import_s", "setup.parse_s", "cli_s")
        }
        self.setup_argv: list[str] | None = None
        self.plan: list[tuple[float, str]] = []
        self.plan_start = time.monotonic()
        self.speed: list[tuple[float, float]] = []  # (perf_counter, probe seconds)
        self.last_probe = time.monotonic()
        self.raw: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "cli_s": []}
        self.worker: WorkerProcess | None = None
        self.worker_info: dict = {}
        self.worker_lost = False  # a worker was killed or exited mid-run
        self.results: list[dict] = []  # every case run, traced or not
        self.problems: list[str] = []  # wrong answers
        # Digests are compared only between runs of identical library code,
        # so a change that moves a root by one ulp is not "nondeterministic".
        digest_file = f"digests-{workload}-seed{seed}-src{src_key}.json"
        self.digest_path = os.path.join(self.out, digest_file)
        self.digests = {}
        if os.path.exists(self.digest_path):
            with open(self.digest_path, encoding="utf-8") as fh:
                self.digests = json.load(fh)

    def left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def input_file(self, name: str) -> str:
        path = os.path.join(self.out, "inputs", name.replace("/", "_") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cases.POLYTOPES[name], fh)
        return path

    # -- fresh-process timings ------------------------------------------------

    def _timed_process(self, argv: list[str]):
        """(seconds, reference seconds, completed process or None past the limit)."""
        self.probe_speed()
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=max(min(60.0, self.left()), 1.0))
        except subprocess.TimeoutExpired:
            proc = None
        end = time.perf_counter()
        self.probe_speed()
        return end - start, self.to_reference(end - start, start, end), proc

    def plan_samples(self, seconds: float, cli: bool) -> None:
        """Spread the fresh-process samples evenly over the next `seconds`
        (or the workload's longer sample window).

        Host speed drifts over tens of seconds; spreading the samples across
        the run keeps their medians from landing in one slow or fast spell.
        """
        seconds = max(seconds, self.spec.get("sample_window_s", 0))
        plan = [(i / SETUP_REPEATS, "setup") for i in range(SETUP_REPEATS)]
        if cli:
            plan += [((i + 0.5) / CLI_REPEATS, "cli") for i in range(CLI_REPEATS)]
        self.plan = sorted((frac * seconds, kind) for frac, kind in plan)
        self.plan_start = time.monotonic()

    # -- host speed ------------------------------------------------------------

    def probe_speed(self) -> None:
        self.speed.append((time.perf_counter(), speed_probe()))

    def to_reference(self, seconds: float, t0: float, t1: float) -> float:
        """Rescale `seconds` measured over [t0, t1] to the reference host speed.

        The host's speed drifts by tens of percent within seconds, so every
        timing is divided by the speed probes taken around and during it.
        """
        probes = [k for t, k in self.speed
                  if t0 - CAL_PERIOD_S <= t <= t1 + CAL_PERIOD_S]
        if not probes:  # none close enough: take the nearest one
            probes = [min(self.speed, key=lambda p: abs(p[0] - t0))[1]]
        return seconds * REF_KERNEL_S / statistics.fmean(probes)

    def next_due(self) -> float:
        """Monotonic time of the next speed probe or planned sample."""
        probe_at = self.last_probe + CAL_PERIOD_S
        return min(probe_at, self.plan_start + self.plan[0][0] if self.plan else math.inf)

    def take_due(self) -> None:
        """Run with the worker stopped: a speed probe, then any samples due."""
        if self.last_probe + CAL_PERIOD_S <= time.monotonic():
            self.last_probe = time.monotonic()
            self.probe_speed()
        self.take_due_samples()

    def take_due_samples(self, everything: bool = False) -> None:
        while self.plan and (
            everything or self.plan[0][0] <= time.monotonic() - self.plan_start
        ):
            _, kind = self.plan.pop(0)
            if kind == "setup":
                self.setup_sample()
            else:
                self.cli_sample()

    def setup_sample(self) -> None:
        """Fresh interpreter: import the library and parse the workload's inputs."""
        if self.setup_argv is None:
            paths = [self.input_file(c) for c in self.spec["cases"]]
            self.setup_argv = [sys.executable, "-c", SETUP_PROBE, *paths]
            self._timed_process(self.setup_argv)  # compiles bytecode; untimed
        seconds, ref, proc = self._timed_process(self.setup_argv)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc and proc.stderr}")
        imp, parse = map(float, proc.stdout.split())
        self.raw["setup_s"].append(seconds)
        self.samples["setup_s"].append(ref)
        self.samples["setup.import_s"].append(imp * ref / seconds)
        self.samples["setup.parse_s"].append(parse * ref / seconds)

    def cli_sample(self) -> None:
        """Fresh-process `toric-fiber-lab analyze --json --svg` on the README example."""
        svg = os.path.join(self.out, "cli.svg")
        argv = [sys.executable, "-m", "toric_fiber_lab.cli", "analyze",
                "--input", self.input_file(cases.CLI_CASE), "--json", "--svg", svg,
                "--seed", str(self.seed)]
        seconds, ref, proc = self._timed_process(argv)
        self.raw["cli_s"].append(seconds)
        self.samples["cli_s"].append(ref)
        fibers, count = cases.ANALYZE_ORACLE[cases.CLI_CASE]
        try:
            got = [tuple(c["fiber"]) for c in json.loads(proc.stdout)["certificates"]]
            with open(svg, encoding="utf-8") as fh:
                svg_ok = fh.read().startswith("<svg")
        except (AttributeError, ValueError, KeyError, OSError):
            got, svg_ok = None, False
        code = "timeout" if proc is None else proc.returncode
        if code != 0 or got is None or set(got) != fibers or len(got) != count \
                or not svg_ok:
            self.problems.append(f"CLI analyze on {cases.CLI_CASE}: exit {code}, "
                                 f"output {str(got)[:200]}")

    # -- the closed loop ------------------------------------------------------

    def _worker(self) -> WorkerProcess:
        if self.worker is None:
            self.worker = WorkerProcess(self.root, self.seed, self.env)
            self.worker_info = self.worker.ready
        return self.worker

    def run_case(self, name: str, traced: bool) -> dict:
        limit = min(CASE_LIMIT_S, self.left())
        req = {"op": "case", "name": name, "kind": self.spec["kind"], "traced": traced}
        worker = self._worker()
        self.probe_speed()
        self.last_probe = time.monotonic()
        start = time.perf_counter()
        try:
            # no stops during a traced case: they would land in its spans
            res = worker.request(req, limit, sampler=None if traced else self,
                                 hard_deadline=self.start + RUN_LIMIT_S)
            t0, t1 = res.pop("t0"), res.pop("t1")
            res["seconds"] -= worker.paused_within(t0, t1)
        except WorkerGone as exc:
            self.worker = None
            self.worker_lost = True
            t0, t1 = start, time.perf_counter()
            timed_out = str(exc) == "time limit"
            res = {"status": "timeout" if timed_out else "error", "error": str(exc),
                   "seconds": limit if timed_out else t1 - t0}
        self.probe_speed()
        res["raw_seconds"] = res["seconds"]
        res["seconds"] = self.to_reference(res["seconds"], t0, t1)
        res.update(case=name, traced=traced)
        if res["status"] == "wrong":
            self.problems.append(f"{name}: {res['detail']}")
        digest = res.get("digest")
        if digest is not None:
            known = self.digests.setdefault(name, digest)
            if known != digest:
                res["status"] = "nondeterministic"
        self.results.append(res)
        return res

    def run_pass(self, traced: bool) -> float:
        """Reference seconds for one pass; time-limited cases count their limit."""
        wall = raw = 0.0
        for name in self.spec["cases"]:
            res = self.run_case(name, traced)
            wall += res["seconds"]
            raw += res["raw_seconds"]
            self.take_due_samples()
        if not traced:
            self.raw["wall_s"].append(raw)
        return wall

    def timed_passes(self, budget: float) -> list[float]:
        """Untraced passes until `budget` seconds have gone (at least one pass).

        No pass starts that would likely run into the run's time limit.
        """
        begin = time.monotonic()
        walls = []
        while not walls or (
            time.monotonic() - begin < budget and statistics.median(walls) < self.left()
        ):
            walls.append(self.run_pass(traced=False))
        self.take_due_samples(everything=True)
        return walls

    def traced_pass(self) -> dict:
        """One pass with every layer wrapped; returns the worker's per-layer stats.

        Counts from a pass that lost its worker would be partial, so such a
        pass raises Unmeasured instead.
        """
        self.run_pass(traced=True)
        try:
            if self.spec["trace_cli"] and not self.worker_lost:
                argv = ["analyze", "--input", self.input_file(cases.CLI_CASE), "--json",
                        "--svg", os.path.join(self.out, "cli-traced.svg"),
                        "--seed", str(self.seed)]
                reply = self.worker.request({"op": "cli", "argv": argv},
                                            max(self.left(), 1.0))
                if reply["exit"] != 0:
                    self.problems.append(f"traced CLI analyze exited {reply['exit']}")
            if not self.worker_lost:
                spans = os.path.join(self.out, f"spans-{self.name}-seed{self.seed}.jsonl")
                return self.worker.request({"op": "stats", "spans": spans}, 60.0)
        except WorkerGone:
            self.worker = None
        raise Unmeasured("the traced pass lost its worker (time limit or exit), "
                         "so its per-layer counts would be partial")

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None
        with open(self.digest_path, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh, indent=1, sort_keys=True)


# -- metadata -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_files(root: str) -> list[str]:
    """The library's .py files, in a fixed order."""
    out = []
    for dirpath, dirs, files in os.walk(os.path.join(root, "src", "toric_fiber_lab")):
        dirs.sort()
        out += [os.path.join(dirpath, f) for f in sorted(files) if f.endswith(".py")]
    return out


def src_hash(root: str) -> str:
    """First 16 hex digits of a SHA-256 over the library's paths and contents."""
    h = hashlib.sha256()
    for path in src_files(root):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(f"{os.path.relpath(path, root)}\0{len(data)}\0".encode() + data)
    return h.hexdigest()[:16]


def src_lines(root: str) -> int:
    total = 0
    for path in src_files(root):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def metadata(root: str, args, worker_info: dict, src_key: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker_info.get("numpy", "unknown"),
        "blas_pin": BLAS_PIN,
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
        "src_sha256": src_key,
        "load": "closed loop, 1 worker process",
        "case_limit_s": CASE_LIMIT_S,
    }


# -- main -----------------------------------------------------------------------


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last.startswith("s_per_"):
        return "s"
    if last.endswith(("_frac", "_rate", "_yield")):
        return "ratio"
    if last.endswith("_bytes"):
        return "bytes"
    return "count"


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q[0]:.4f} q3={q[2]:.4f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toric_fiber_lab", "__init__.py")):
        print("error: src/toric_fiber_lab not found; run from the root of a "
              "toric-fiber-lab checkout", file=sys.stderr)
        return 2

    src_key = src_hash(root)
    h = Harness(root, args.workload, args.seed, src_key)
    try:
        if args.trace:
            stats = h.traced_pass()
            for _ in range(SETUP_REPEATS):
                h.setup_sample()
        else:
            h.plan_samples(args.seconds, cli=True)
            walls = h.timed_passes(args.seconds)
    except Unmeasured as exc:
        print(f"error: traced run not measured: {exc}", file=sys.stderr)
        return 3
    finally:
        h.close()
    median = {k: statistics.median(v) for k, v in h.samples.items() if v}

    meta = metadata(root, args, h.worker_info, src_key)
    print("# meta " + json.dumps(meta, sort_keys=True))
    untraced = [r for r in h.results if not r["traced"]]
    for r in h.results:
        if r["status"] != "ok":
            print(f"# case {r['case']} (traced={r['traced']}): {r['status']} "
                  f"{r.get('error', '')} {r.get('detail', '')}".rstrip())
    if not args.trace:
        print(f"# wall_s per pass: {_quartiles(walls)} median={statistics.median(walls):.4f}")
    for k, v in h.samples.items():
        if v:
            print(f"# {k} fresh-process samples: {_quartiles(v)}")
    speed = [REF_KERNEL_S / k for _, k in h.speed]
    print(f"# host speed vs reference: {_quartiles(speed)} over {len(speed)} probes")
    for k, v in h.raw.items():
        if v:
            print(f"# unscaled {k}: median={statistics.median(v):.4f} {_quartiles(v)}")
    if args.trace:
        m = dict(stats["metrics"])
        m["setup.import_s"] = median["setup.import_s"]
        m["setup.parse_s"] = median["setup.parse_s"]
        print(f"# leading roots per candidate: {stats['roots_per_candidate']}")
        print(f"# spans kept {stats['spans_kept']}, dropped {stats['spans_dropped']}")
        metrics = {}
        for name in per_layer_names() + ["setup.import_s", "setup.parse_s"]:
            metrics[name] = {"value": m[name], "unit": unit_of(name)}
        trace_path = os.path.join(h.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "metrics": metrics,
                       "roots_per_candidate": stats["roots_per_candidate"]},
                      fh, indent=1, sort_keys=True)
    else:
        failed = sum(r["status"] != "ok" for r in untraced)
        # a worker that was killed never reported its peak, so the figure
        # falls back on the ready worker's and is then a lower bound
        rss_kb = max([h.worker_info["rss_kb"]] + [r["rss_kb"] for r in untraced
                                                  if "rss_kb" in r])
        if h.worker_lost:
            print("# peak_rss_mb is a lower bound: a case lost its worker")
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": median["setup_s"], "unit": "s"},
            "cli_s": {"value": median["cli_s"], "unit": "s"},
            "completed_frac": {"value": 1.0 - failed / len(untraced), "unit": "ratio"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    for name, mv in metrics.items():
        print(f"# {name} = {mv['value']} {mv['unit']}")
    for p in h.problems:
        print(f"# WRONG ANSWER: {p}")
    scored = h.results if args.trace else untraced
    result = {
        "correct": not h.problems,
        "attempted": len(scored),
        "failed": sum(r["status"] != "ok" for r in scored),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
