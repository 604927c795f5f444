"""Benchmark harness for deadends (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck

Run from the repository root (the package is taken from `src/`).  Each
repetition is a fresh interpreter, one child at a time, with a pinned
environment (`PYTHONPATH=src`, `DEADEND_BUDGET`, `PYTHONHASHSEED`): the
Sol support memo is module-global, so an in-process repeat would time a
warm memo, a different program.  Every run's outputs are checked against
pinned results; a nonzero exit, a timeout or a mismatch makes the run
failed, and a failed run is never timed.

`--trace 0` reports the end-to-end metrics: median wall time from spawn to
exit, median set-up time (spawn, `import deadends.cli`, load the inputs,
exit), median peak RSS from `os.wait4`; the record states the repetition
count.  No tail percentile is reported: a run holds far fewer than the ten
samples beyond it that one would need.  `--trace 1` alternates untraced
runs with runs under `traced.py` and reports per-layer metrics derived from
its spans, plus the tracing overhead.  Metric names and units come from
BENCHMARK.json; `layer_map.json` says which end-to-end metric each layer
metric should move.  The last stdout line is the result object; the line
before it is the full record with samples and provenance.  `--workload all`
prints wall_s, setup_s, peak_rss_mb and fail_frac for every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
PACKAGE = ROOT / "src" / "deadends"

ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "LANG": "C.UTF-8",
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "DEADEND_BUDGET": "1000000",  # largest ball here: 393,593 (heis_family)
}
TIMEOUT_S = 60.0
MIN_RUNS = 3          # timed repetitions per --trace 0 run, at least
MIN_PAIRS = 2         # untraced/traced pairs per --trace 1 run, at least
SETUP_REPS = 15       # set-up probes per --trace 0 run, after one warm-up

SETUP_CODE = ("import sys\nimport deadends.cli as cli\n"
              "if len(sys.argv) > 1:\n    cli.load_group_spec(sys.argv[1])\n")


class HarnessError(Exception):
    """The benchmark cannot run here (missing package, failing set-up)."""


# ---------------------------------------------------------------------------
# Workloads.

HEIS_SPEC = {"kind": "heisenberg"}
SOL_SPEC = {"kind": "sol", "R": [[2, 1], [1, 1]]}
WEIGHTED_GENS = (((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 2), ((1, 1, 1), 3))


def weighted_spec(seed: int) -> dict:
    """Rank-3 weighted set of the WEIGHTED_GENS shape drawn from the seed.

    Seed 0 is WEIGHTED_GENS itself; another seed applies a random signed
    permutation of the coordinates and reorders the generators.  The group
    is isomorphic, so the certified values below hold for every seed while
    the vectors, keys and tie-break orders the program sees change.
    """
    gens = list(WEIGHTED_GENS)
    perm, signs = [0, 1, 2], [1, 1, 1]
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(3)]
        rng.shuffle(gens)
    return {"kind": "zn_weighted", "n": 3,
            "gens": [{"v": [signs[i] * v[perm[i]] for i in range(3)], "w": w}
                     for v, w in gens]}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_observed(filename: str):
    return lambda out, spec_path: {filename: _sha256(out / filename)}


def _bounded_observed(out: Path, spec_path: Path) -> dict:
    obj = json.loads((out / "bounded.json").read_text())
    flat = {"%s.%s" % (part, k): v for part in ("f2", "weighted")
            for k, v in obj[part].items()}
    flat["spec_read"] = flat.pop("weighted.spec_sha256") == _sha256(spec_path)
    return flat


def _bounded_expected(f2_radius, f2_size, radius, w_size, w_checked, spheres) -> dict:
    return {
        "f2.radius": f2_radius, "f2.ball_size": f2_size, "f2.sound": True,
        "f2.complete": True, "f2.words_checked": f2_size - 1,
        "f2.elements_covered": f2_size, "f2.max_depth": 1, "f2.bound": 10,
        "weighted.radius": radius, "weighted.ball_size": w_size,
        "weighted.spheres_sha256": spheres, "weighted.bound": 43,
        "weighted.cell_distance": 18, "weighted.max_depth_seen": 1,
        "weighted.elements_checked": w_checked, "spec_read": True,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                                 # "cli" or "bounded"
    args: tuple                                # "{spec}"/"{out}" filled per run
    spec: Optional[Callable[[int], dict]]      # seed -> input spec, or None
    observe: Callable[[Path, Optional[Path]], dict]
    expected: dict

    def argv(self, spec_path, out: Path) -> list:
        args = [a.format(spec=spec_path, out=out) for a in self.args]
        if self.entry == "cli":
            return ["-m", "deadends.cli", *args]
        return [str(HERE / "bounded.py"), *args]

    def traced_argv(self, spec_path, out: Path, spans: Path, run_id: str) -> list:
        args = [a.format(spec=spec_path, out=out) for a in self.args]
        return [str(HERE / "traced.py"), str(spans), run_id, self.entry, *args]


def _workloads(heis_r, heis_n, sol_r, f2_r, w_r, sha_scan, sha_family, sha_gap, bounded):
    return {w.name: w for w in (
        Workload("heis_scan",
                 "cli", ("depth-scan", "--spec", "{spec}", "--radius", str(heis_r),
                         "--min-depth", "2", "--out", "{out}"),
                 lambda seed: HEIS_SPEC, _csv_observed("depth_scan.csv"),
                 {"depth_scan.csv": sha_scan}),
        Workload("heis_family",
                 "cli", ("heis-family", "--n-max", str(heis_n), "--out", "{out}"),
                 None, _csv_observed("heis_family.csv"),
                 {"heis_family.csv": sha_family}),
        Workload("sol_gap",
                 "cli", ("sol-gap", "--spec", "{spec}", "--radius", str(sol_r),
                         "--out", "{out}"),
                 lambda seed: SOL_SPEC, _csv_observed("sol_gap.csv"),
                 {"sol_gap.csv": sha_gap}),
        Workload("bounded_depth",
                 "bounded", ("--spec", "{spec}", "--out", "{out}",
                             "--f2-radius", str(f2_r), "--radius", str(w_r)),
                 weighted_spec, _bounded_observed, bounded),
    )}


# Results pinned on the seed commit of the benchmark.
WORKLOADS = _workloads(
    22, 6, 8, 10, 30,
    "b87f66946a9f71be365ae31b91395ba232cbf5e4b66eb79191b9308fb2124999",
    "fc5c65a6534a6a3e7d2a846d6843ca657656c153ae7205cbcf4dd622c815a234",
    "621b25a497929de76c7b4e1d69ee03e55f099947febe6386269de20737794ecb",
    _bounded_expected(10, 118097, 30, 11071, 10019,
                      "8a3d81dbb8a6ddee28f472fc62877fe82c79152bd219e5bf56d5c890f6188227"))

# Tiny radii for --selfcheck.
QUICK = _workloads(
    10, 3, 4, 4, 10,
    "c46b7e95d5e41dd5c92cee893579ffc2ea721dd66cd9741bef45e9bda2ae1a45",
    "db0cd3a6baaa7d798f77305a0263f04d6d2d36b2c83a83b20d8e90a1fbf1631a",
    "0e28f6ec4dd3709bbf8bb3867170001bbbb77c8beb97f94c8b62c1cc471cd00b",
    _bounded_expected(4, 161, 10, 463, 345,
                      "4400b528d03c8f28c72e0b1b50b3d64356a3b05b219327685677f40af6c25b6c"))


# ---------------------------------------------------------------------------
# Child processes.

def spawn(argv: list, log_path: Path) -> tuple[Optional[int], float, float]:
    """Run one interpreter to exit: (exit code or None on timeout, wall s, peak RSS MiB).

    The child's ru_maxrss starts from this process's own peak (the child is
    spawned from our address space), so the harness keeps its own peak far
    below every workload's; the record carries it as harness_rss_mb.
    """
    timed_out = []
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=ENV,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)

        def on_alarm(signum, frame):
            timed_out.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return code, wall, usage.ru_maxrss / 1024  # ru_maxrss is KiB on Linux


@dataclass
class Outcome:
    ok: bool
    wall_s: float
    rss_mb: float
    error: str = ""


def run_once(w: Workload, argv: list, out: Path, spec_path, expected: dict) -> Outcome:
    """One repetition in a fresh interpreter, with its outputs checked after exit."""
    out.mkdir(parents=True)
    code, wall, rss = spawn(argv, out / "log.txt")
    error = ""
    if code is None:
        error = "timeout after %.0f s" % TIMEOUT_S
    elif code != 0:
        error = "exit %d: %s" % (code, (out / "log.txt").read_text(errors="replace")[-400:])
    else:
        try:
            observed = w.observe(out, spec_path)
        except (OSError, ValueError, KeyError) as exc:
            error = "cannot read outputs: %s" % exc
        else:
            if observed != expected:
                bad = sorted(k for k in set(observed) | set(expected)
                             if observed.get(k) != expected.get(k))
                error = "output mismatch on %s" % ", ".join(bad)
    shutil.rmtree(out)
    return Outcome(not error, wall, rss, error)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from one traced run's spans (see traced.py)."""
    by_name: dict = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def seconds(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def count(name, key):
        return sum(s[5][key] for s in by_name[name] if s[5])

    def under(parent, child):
        ids = {s[0] for s in by_name[parent]}
        return sum(1 for s in by_name[child] if s[1] in ids)

    main_ids = {s[0] for s in by_name["cli.main"]}
    main_children_s = sum(s[4] - s[3] for s in spans if s[1] in main_ids)
    ball_s, ball_n = seconds("search.ball"), count("search.ball", "elements")
    scan_hits = count("search.deadend_scan", "hits")
    scan_eligible = count("search.deadend_scan", "eligible")
    depth_calls, depth_s = len(by_name["search.depth"]), seconds("search.depth")
    return {
        "search.ball.s": ball_s,
        "search.ball.elements": ball_n,
        "search.ball.elements_per_s": _ratio(ball_n, ball_s),
        "search.ball.bytes_per_element": _ratio(count("search.ball", "rss_bytes"), ball_n),
        "search.deadend_scan.s": seconds("search.deadend_scan"),
        "search.deadend_scan.eligible": scan_eligible,
        "search.deadend_scan.hits": scan_hits,
        "search.deadend_scan.hit_ratio": _ratio(scan_hits, scan_eligible),
        "search.depth.calls": depth_calls,
        "search.depth.s": depth_s,
        "search.depth.us_per_call": _ratio(depth_s * 1e6, depth_calls),
        "heis.heis_family.s": seconds("heis.heis_family"),
        "heis.rederived_depth_bound.s": seconds("heis.rederived_depth_bound"),
        "sol.bdiff_gap.s": seconds("sol.bdiff_gap"),
        "sol.bdiff_gap.elements": count("sol.bdiff_gap", "elements"),
        "sol.bdiff_gap.skipped": count("sol.bdiff_gap", "skipped"),
        "sol.bdiff_gap.plane_vectors": under("sol.bdiff_gap", "sol.minimal_reps"),
        "sol.minimal_reps.s": seconds("sol.minimal_reps"),
        "sol.bdiff_gap.rss_mb": count("sol.bdiff_gap", "rss_bytes") / 2**20,
        "geolang.verify_language.s": seconds("geolang.verify_language"),
        "geolang.verify_language.words_checked": count("geolang.verify_language",
                                                       "words_checked"),
        "geolang.depth_bound_check.s": seconds("geolang.depth_bound_check"),
        "geolang.depth_bound_check.elements": count("geolang.depth_bound_check",
                                                    "elements"),
        "abelian.depth_bound.s": seconds("abelian.depth_bound"),
        "abelian.depth_bound.elements_checked": count("abelian.depth_bound",
                                                      "elements_checked"),
        "abelian.build_polytope.s": seconds("abelian.build_polytope"),
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": seconds("cli.main") - main_children_s,
    }


# ---------------------------------------------------------------------------
# Measurement.

def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance() -> dict:
    version = re.search(r'^__version__ = "([^"]+)"',
                        (PACKAGE / "__init__.py").read_text(), re.M)
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    lines = sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py"))
    return {
        "package_version": version.group(1) if version else None,
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "source_lines": lines,
    }


def _median_setup(spec_path) -> tuple[float, list]:
    argv = ["-c", SETUP_CODE] + ([str(spec_path)] if spec_path else [])
    samples = []
    for i in range(SETUP_REPS + 1):
        log = WORK / ("setup-%d.log" % os.getpid())
        code, wall, _rss = spawn(argv, log)
        if code != 0:
            raise HarnessError("set-up probe failed (exit %s): %s"
                               % (code, log.read_text(errors="replace")[-400:]))
        log.unlink()
        if i:  # the first probe warms the bytecode and file caches
            samples.append(wall)
    return statistics.median(samples), samples


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            inject: Optional[Callable[[int], Optional[str]]] = None) -> dict:
    """Run one workload for about `seconds`; return the full record.

    `inject(i)` may return "exit" (force a nonzero exit) or "hash" (check
    against a wrong pinned result) for repetition i; the self-check uses it.
    """
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=w.name + "-", dir=WORK))
    try:
        spec_path = None
        if w.spec is not None:
            spec_path = work / "spec.json"
            spec_path.write_text(json.dumps(w.spec(seed)) + "\n")
        record: dict = {"workload": w.name, "seed": seed, "seconds": seconds,
                        "trace": int(trace), "provenance": provenance()}
        start = time.perf_counter()  # set-up probes count against `seconds` too
        if not trace:
            record["setup_s"], record["setup_samples"] = _median_setup(spec_path)
        outcomes: dict = {"plain": [], "traced": []}
        layers: list = []
        errors: list = []
        i = 0
        while True:
            for kind in (("plain", "traced") if trace else ("plain",)):
                out = work / ("run-%d-%s" % (i, kind))
                spans = work / ("spans-%d.json" % i)
                if kind == "plain":
                    argv = w.argv(spec_path, out)
                else:
                    argv = w.traced_argv(spec_path, out, spans, "%s-%d-%d" % (w.name, seed, i))
                expected = w.expected
                fault = inject(i) if inject else None
                if fault == "exit":
                    argv = ["-c", "raise SystemExit(3)"]
                elif fault == "hash":
                    expected = {"forced": "mismatch"}
                o = run_once(w, argv, out, spec_path, expected)
                outcomes[kind].append(o)
                if not o.ok:
                    errors.append(o.error)
                elif kind == "traced":
                    layers.append(layer_metrics(json.loads(spans.read_text())["spans"]))
                if spans.exists():
                    spans.unlink()
            i += 1
            longest = sum(max(o.wall_s for o in outs) for outs in outcomes.values() if outs)
            if i >= (MIN_PAIRS if trace else MIN_RUNS) and \
                    time.perf_counter() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = outcomes["plain"] + outcomes["traced"]
    failed = sum(1 for o in runs if not o.ok)
    good = [o for o in outcomes["plain"] if o.ok]
    record.update({
        "attempted": len(runs),
        "failed": failed,
        "fail_frac": failed / len(runs),
        "errors": errors[:5],
        "repetitions": len(good),
        "wall_samples": [o.wall_s for o in good],
        "rss_samples": [o.rss_mb for o in good],
        "harness_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    values: dict = {}
    if good:
        values["wall_s"] = statistics.median(o.wall_s for o in good)
        values["peak_rss_mb"] = statistics.median(o.rss_mb for o in good)
    if not trace:
        values["setup_s"] = record["setup_s"]
    else:
        traced = [o for o in outcomes["traced"] if o.ok]
        record["traced_wall_samples"] = [o.wall_s for o in traced]
        if layers:
            values.update({k: statistics.median(m[k] for m in layers) for k in layers[0]})
        if good and traced:
            values["trace.overhead_s"] = (statistics.median(o.wall_s for o in traced)
                                          - values["wall_s"])
    metrics = load_benchmark()["per_layer" if trace else "end_to_end"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in metrics if m["name"] in values}
    record["correct"] = failed == 0 and len(record["metrics"]) == len(metrics)
    return record


def print_summary(record: dict):
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print("%-14s %-40s %14.6g %s" % (name, metric, m["value"], m["unit"]))
    print("%-14s %-40s %14.6g %s  (%d/%d runs failed; %d timed repetitions)"
          % (name, "fail_frac", record["fail_frac"], "1", record["failed"],
             record["attempted"], record["repetitions"]))
    for err in record["errors"]:
        print("%-14s error: %s" % (name, err))


# ---------------------------------------------------------------------------
# Self-check.

def selfcheck() -> int:
    """Quick runs on tiny radii: every metric emitted with its unit, faults counted."""
    bench = load_benchmark()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in QUICK.values():
            rec = measure(w, 1, 0.5, trace)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            assert rec["correct"] and rec["failed"] == 0, (w.name, rec["errors"])
            assert got == want, (w.name, key, set(want) ^ set(got))
            assert all(math.isfinite(v["value"]) for v in rec["metrics"].values())
            print("selfcheck %-14s trace=%d %d metrics ok" % (w.name, trace, len(got)))
        if trace:
            extra = set(layer_metrics([])) - set(want)
            assert not extra, ("derived but not in BENCHMARK.json", extra)
            groups = json.loads((HERE / "layer_map.json").read_text())["groups"]
            mapped = [name for g in groups for name in g["metrics"]]
            assert sorted(mapped) == sorted(want), ("layer_map.json", set(mapped) ^ set(want))
            for g in groups:
                named = {w for ws in g["moves"].values() for w in ws} | set(g["flat_on"])
                assert named <= set(WORKLOADS), ("layer_map.json", named - set(WORKLOADS))

    faults = {0: "exit", 1: "hash"}
    rec = measure(QUICK["heis_scan"], 1, 0.5, False, inject=faults.get)
    assert rec["failed"] == 2 and not rec["correct"], rec
    assert rec["repetitions"] == rec["attempted"] - 2 >= MIN_RUNS - 2, rec
    assert rec["fail_frac"] == 2 / rec["attempted"], rec
    assert "exit 3" in rec["errors"][0] and "mismatch" in rec["errors"][1], rec["errors"]
    print("selfcheck faults: fail_frac=%d/%d, %d timed repetitions"
          % (rec["failed"], rec["attempted"], rec["repetitions"]))

    # Without the package the harness must refuse to run and print no result.
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", "heis_scan", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("selfcheck bare checkout: exit %d, no result" % proc.returncode)
    print("selfcheck ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deadends benchmark harness")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="quick harness self-test on tiny radii")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (PACKAGE / "cli.py").is_file():
        print("error: %s not found; run from a deadends checkout" % PACKAGE, file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            records = [measure(w, args.seed, args.seconds, bool(args.trace))
                       for w in WORKLOADS.values()]
            for rec in records:
                print(json.dumps({"record": rec}))
            for rec in records:
                print_summary(rec)
            return 0 if all(rec["correct"] for rec in records) else 1
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print_summary(record)
    print(json.dumps({"record": record}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
