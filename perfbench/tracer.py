"""Outside-in span tracer for toric_fiber_lab.

The tracer replaces library functions with timing wrappers from outside the
package: every module attribute that *is* a traced function is swapped, so
both the defining module and each module that imported the function by name
(``solver.eval_gradient``, ``probes.facet_values``, ``report.find_critical_fibers``)
call the wrapper.  ``src/`` is never edited.

Each call becomes a span (name, start, end, parent).  Self time is the span's
duration minus the part of it covered by its child spans; it is accumulated
as spans close, since calls on one thread nest properly.  Spans are kept in
memory up to ``MAX_SPANS`` and written out by ``write_spans``; spans past the
cap still count towards calls, self time and failures.  ``call_cost`` times
what one wrapped call adds, which prices the tracing overhead of a run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

_clock = time.perf_counter
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []
        self._stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.fails: Counter = Counter()  # (name, exception class) -> count
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.results: dict[str, list] = {}  # name -> observed return values
        self._stack: list[list] = []  # open spans: [span id, child-covered s]
        self.dropped = 0
        self._next_id = 0

    def calls(self, name: str) -> int:
        return self._stats[name][0] if name in self._stats else 0

    def total_s(self, name: str) -> float:
        return self._stats[name][1] if name in self._stats else 0.0

    def self_s(self, name: str) -> float:
        return self._stats[name][2] if name in self._stats else 0.0

    # -- patching -------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self, modules, targets, observers=None) -> None:
        """Wrap each ``(name, function)`` in every module that binds it.

        ``observers`` maps a span name to a function of the return value; its
        results are collected in ``results[name]`` (leading roots per
        candidate, for instance).
        """
        observers = observers or {}
        for name, fn in targets:
            wrapper = self._wrap(name, fn, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def install_method(self, cls, attr: str, name: str) -> None:
        fn = cls.__dict__[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, None))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn, observe):
        tracer = self
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, fails = self._stack, self.spans, self.fails
        results = self.results.setdefault(name, []) if observe else None

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                fails[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_id = parent[0]
                else:
                    parent_id = -1
                if len(spans) < MAX_SPANS:
                    spans.append((frame[0], name, start, end, parent_id))
                else:
                    tracer.dropped += 1
            if observe is not None:
                results.append(observe(out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output ---------------------------------------------------------------

    def fail_count(self, name: str, exc_name: str | None = None) -> int:
        if exc_name is not None:
            return self.fails[(name, exc_name)]
        return sum(n for (key, _), n in self.fails.items() if key == name)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent id (-1 at the root)."""
        keys = ("id", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def call_cost() -> float:
    """Seconds a wrapped call adds to a bare one: median of 5 rounds of 20 000.

    Times a throwaway tracer's span-recording path, which costs a little more
    than the path taken past ``MAX_SPANS``.
    """
    tracer = Tracer()
    tracer.enabled = True

    def bare():
        return None

    wrapped = tracer._wrap("calibration", bare, None)
    calls = 20_000
    costs = []
    for _ in range(5):
        t0 = _clock()
        for _ in range(calls):
            bare()
        t1 = _clock()
        for _ in range(calls):
            wrapped()
        t2 = _clock()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)
