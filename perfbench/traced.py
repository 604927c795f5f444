"""Run one workload entry point with spans recorded around the package's calls.

    PYTHONPATH=src python3 perfbench/traced.py SPANS RUN_ID cli ARGS...
    PYTHONPATH=src python3 perfbench/traced.py SPANS RUN_ID bounded ARGS...

Before the entry point runs, every public function named in TRACED is
replaced, in this process only, by a wrapper under each name any loaded
`deadends` module binds it to (`cli.ball`, `heis.depth`, `geolang.depth`,
...), so calls are timed from outside the package whichever caller makes
them.  Spans stay in memory and are written to SPANS as JSON at exit:
`{"run_id": ..., "spans": [[id, parent_id, name, start, end, counts], ...]}`
with parent_id -1 for a root span and `counts` null or a dict of work
counts taken from the call's arguments and result after its end time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path


def _peak_rss_bytes() -> int:
    """Peak RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also carry the peak of the
    parent that spawned this interpreter.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024  # kB
    raise OSError("no VmHWM in /proc/self/status")


def _ball_counts(call, result, rss0):
    return {"elements": len(result), "rss_bytes": _peak_rss_bytes() - rss0}


def _scan_counts(call, result, rss0):
    index = call.arguments["index"]
    cap = call.arguments["cap"]
    if cap is None:
        cap = call.arguments["min_depth"]
    eligible = sum(1 for e in index.elements() if index.distance(e) + cap <= index.radius)
    return {"hits": len(result), "eligible": eligible}


def _gap_counts(call, result, rss0):
    return {"elements": result.elements_checked, "skipped": result.skipped,
            "rss_bytes": _peak_rss_bytes() - rss0}


def _verify_counts(call, result, rss0):
    return {"words_checked": result.words_checked}


def _depth_check_counts(call, result, rss0):
    return {"elements": len(call.arguments["index"])}


def _depth_bound_counts(call, result, rss0):
    return {"elements_checked": result.elements_checked}


# "module.function" -> counts taken after the call, or None for time only.
TRACED = {
    "search.ball": _ball_counts,
    "search.depth": None,
    "search.deadend_scan": _scan_counts,
    "heis.heis_family": None,
    "heis.rederived_depth_bound": None,
    "sol.bdiff_gap": _gap_counts,
    "sol.minimal_reps": None,
    "geolang.verify_language": _verify_counts,
    "geolang.depth_bound_check": _depth_check_counts,
    "abelian.depth_bound": _depth_bound_counts,
    "abelian.build_polytope": None,
    "cli.main": None,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0

    def wrap(self, name, fn, counts):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            rss0 = _peak_rss_bytes() if counts is not None else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append((sid, parent, name, t0, time.perf_counter(), None))
                raise
            finally:
                tracer._stack.pop()
            t1 = time.perf_counter()
            n = None
            if counts is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                n = counts(call, result, rss0)
            tracer.spans.append((sid, parent, name, t0, t1, n))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each TRACED function in loaded deadends modules."""
        wrappers = {}
        for name, counts in TRACED.items():
            mod_name, fn_name = name.split(".")
            fn = getattr(importlib.import_module("deadends." + mod_name), fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = self.wrap(name, fn, counts)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "deadends" and not mod_name.startswith("deadends."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def write(self, path: Path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh,
                      separators=(",", ":"))


def main(argv) -> int:
    spans_path, run_id, entry, *args = argv
    import deadends.cli

    tracer = Tracer(run_id)
    if entry == "bounded":
        import bounded  # perfbench/bounded.py, this script's directory

        tracer.install()
        run = bounded.main
    elif entry == "cli":
        tracer.install()
        run = deadends.cli.main
    else:
        print("error: unknown entry %r (expected cli or bounded)" % entry, file=sys.stderr)
        return 2
    try:
        return run(args)
    finally:
        tracer.write(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
