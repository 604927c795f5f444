"""Command-line driver for reproducible dead-end experiments.

Subcommands build distance balls, scan for dead ends, check the deep
Heisenberg family, sweep the Sol norm gap, and verify geodesic automata.
All outputs are deterministic: CSV bodies use canonical element renders
and fixed row order, and JSON mirrors the CSV content plus run metadata.
Each command imports the family module it runs, and each spec kind the one
that defines its group, when it runs, so a command loads no other family.

Exit codes: 0 success, 1 a checked claim failed or a resource cap was
hit, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .core import DeadendError, MarkedGroup, json_names
from .search import (
    BoundViolated,
    CapExceeded,
    ClaimViolation,
    ResourceCap,
    ball,
    deadend_scan,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

SPEC_KINDS = ("heisenberg", "sol", "zn_weighted", "euclidean", "wreath_z2_z")


class SpecError(DeadendError):
    """Group spec file is missing, malformed, or fails kind validation."""


def _sha256(data: bytes) -> str:
    """Hex sha256 of bytes already read.  hashlib loads OpenSSL, so only
    the runs that write a hash import it."""
    import hashlib
    return hashlib.sha256(data).hexdigest()


def load_group_spec(path: str | Path) -> tuple[MarkedGroup, dict]:
    """Instantiate the marked group described by a spec file.

    Returns (group, metadata); metadata carries the kind, the path and the
    sha256 of the bytes parsed, so downstream JSON reports pin the exact
    input.
    """
    group, meta, data = _read_spec(path)
    return group, _hashed(meta, data)


def _hashed(meta: dict, data: bytes) -> dict:
    """Spec metadata with the sha256 of the bytes parsed added."""
    return dict(meta, sha256=_sha256(data))


def _read_spec(path: str | Path) -> tuple[MarkedGroup, dict, bytes]:
    """(group, {"kind", "path"}, the file's bytes): load_group_spec
    without the hash, for the commands that write one only to JSON."""
    p = Path(path)
    try:
        data = p.read_bytes()
        obj = json.loads(data)
    except (OSError, ValueError) as exc:
        raise SpecError("cannot read spec %s: %s" % (p, exc)) from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("spec %s must be an object with a 'kind' field" % p)
    kind = obj["kind"]
    try:
        if kind == "heisenberg":
            from .heis import HeisenbergGroup
            group: MarkedGroup = HeisenbergGroup()
        elif kind == "sol":
            from .sol import HypMatrix, SolGroup
            group = SolGroup(HypMatrix(obj["R"]))
        elif kind == "zn_weighted":
            from .abelian import WeightedGenSet, WeightedZnGroup
            group = WeightedZnGroup(
                WeightedGenSet.from_json_obj(obj),
                names=json_names(obj.get("names", [])) or None,
            )
        elif kind == "euclidean":
            from .abelian import EuclideanGroup, EuclideanSpec
            group = EuclideanGroup(EuclideanSpec.from_json_obj(obj))
        elif kind == "wreath_z2_z":
            from .sol import WreathZ2Z
            group = WreathZ2Z()
        else:
            raise SpecError(
                "unknown kind %r (expected one of %s)" % (kind, ", ".join(SPEC_KINDS))
            )
    except SpecError:
        raise
    except (DeadendError, KeyError, TypeError, ValueError) as exc:
        raise SpecError("invalid %s spec %s: %s" % (kind, p, exc)) from exc
    return group, {"kind": kind, "path": str(p)}, data


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print("wrote %s (%d rows)" % (path, len(rows)))


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)


def _depth_cell(depth_value: int, exceeds_cap: bool) -> str:
    return (">=%d" if exceeds_cap else "%d") % depth_value


def cmd_ball(spec: str, radius: int, out: str, fmt: str = "csv") -> int:
    """Sphere-size table for the ball; full element dump in JSON mode."""
    group, meta, data = _read_spec(spec)
    index = ball(group, radius)
    rows = index.sphere_rows()
    out_dir = Path(out)
    _write_csv(out_dir / "ball.csv", ("radius", "count"), rows)
    if fmt == "json":
        payload = index.to_json_obj(include_elements=True)
        payload["spec"] = _hashed(meta, data)
        _write_json(out_dir / "ball.json", payload)
    print("ball radius=%d size=%d" % (radius, len(index)))
    return EXIT_OK


def cmd_depth_scan(
    spec: str,
    radius: int,
    min_depth: int,
    out: str,
    cap: Optional[int] = None,
    fmt: str = "csv",
) -> int:
    """Dead-end scan; one CSV row per certified element of depth >= min_depth."""
    group, meta, data = _read_spec(spec)
    index = ball(group, radius)
    reports = deadend_scan(index, min_depth, cap=cap)
    rows = [
        (group.render(r.element), r.distance_from_identity,
         _depth_cell(r.depth, r.exceeds_cap))
        for r in reports
    ]
    out_dir = Path(out)
    _write_csv(out_dir / "depth_scan.csv", ("element", "distance", "depth"), rows)
    if fmt == "json":
        _write_json(out_dir / "depth_scan.json", {
            "spec": _hashed(meta, data),
            "radius": radius,
            "min_depth": min_depth,
            "cap": cap,
            "rows": [
                {"element": e, "distance": d, "depth": dep}
                for e, d, dep in rows
            ],
        })
    print("depth-scan radius=%d min_depth=%d hits=%d" % (radius, min_depth, len(rows)))
    return EXIT_OK


def cmd_heis_family(
    n_max: int,
    out: str,
    radius: Optional[int] = None,
    fmt: str = "csv",
) -> int:
    """Distance/depth rows for the deep central elements, n = 3..n_max.

    Distances are exact out to radius, from the closed-form word length
    (a ClosedFormIndex; no ball is built), and each row's depth search is
    capped at radius - (4n + 2), just as on a ball of that radius.  A cap
    too small to certify a row's bound raises InsufficientRadius (exit 2)
    before any file is written.
    """
    from .heis import ClosedFormIndex, _depth_bound_ceil, heis_family
    header = ("n", "distance", "depth_bound", "bfs_depth")
    rows: list[tuple[int, int, int, str]] = []
    meta: dict = {"n_max": n_max}
    if n_max >= 3:
        if radius is None:
            radius = 4 * n_max + 2 + _depth_bound_ceil(n_max) + 1
        meta["radius"] = radius
        index = ClosedFormIndex(radius)
        for n in range(3, n_max + 1):
            row = heis_family(n, index)
            rows.append((row.n, row.distance, row.depth_lower_bound,
                         _depth_cell(row.bfs_depth, row.bfs_depth_exceeds_cap)))
    out_dir = Path(out)
    _write_csv(out_dir / "heis_family.csv", header, rows)
    if fmt == "json":
        _write_json(out_dir / "heis_family.json", {
            "meta": meta,
            "rows": [dict(zip(header, r)) for r in rows],
        })
    print("heis-family n_max=%d rows=%d" % (n_max, len(rows)))
    return EXIT_OK


def cmd_sol_gap(
    spec: str,
    radius: int,
    out: str,
    cap: Optional[int] = None,
    fmt: str = "csv",
) -> int:
    """Norm-vs-distance sweep over a Sol ball; summary carries the max gap.
    A negative cap is refused before the ball is built."""
    group, meta, data = _read_spec(spec)
    if meta["kind"] != "sol":
        raise SpecError("sol-gap requires a spec with kind 'sol', got %s" % meta["kind"])
    from .sol import bdiff_gap, check_support_cap
    if cap is not None:
        check_support_cap(cap)
    index = ball(group, radius)
    report = bdiff_gap(group.R, index, l_cap=cap)
    rows = [
        (group.render(g), d, norm, gap)
        for g, d, norm, gap in report.rows
    ]
    out_dir = Path(out)
    _write_csv(out_dir / "sol_gap.csv", ("element", "distance", "norm", "gap"), rows)
    if fmt == "json":
        _write_json(out_dir / "sol_gap.json", {
            "spec": _hashed(meta, data),
            "radius": radius,
            "max_gap": report.max_gap,
            "elements_checked": report.elements_checked,
            "skipped": report.skipped,
            "rows": [
                {"element": e, "distance": d, "norm": nm, "gap": gp}
                for e, d, nm, gp in rows
            ],
        })
    print("sol-gap radius=%d max_gap=%d checked=%d skipped=%d"
          % (radius, report.max_gap, report.elements_checked, report.skipped))
    return EXIT_OK


def cmd_dfa(dfa_file: str, spec: str, radius: int, out: str) -> int:
    """Verify a geodesic automaton against the ball, then bound depths.

    The JSON report always lands on disk; a failed verification keeps the
    counterexample in the report and exits 1.
    """
    from .geolang import Dfa, depth_bound_check, verify_language
    group, meta = load_group_spec(spec)
    p = Path(dfa_file)
    try:
        data = p.read_bytes()
        dfa = Dfa.from_json_obj(json.loads(data), group.alphabet)
    except (DeadendError, OSError, KeyError, TypeError, ValueError) as exc:
        raise SpecError("cannot load DFA %s: %s" % (p, exc)) from exc
    index = ball(group, radius)
    rep = verify_language(dfa, group, index)
    report = {
        "spec": meta,
        "dfa": {"path": str(p), "sha256": _sha256(data), "states": dfa.n_states},
        "radius": radius,
        "sound": rep.sound,
        "complete": rep.complete,
        "words_checked": rep.words_checked,
        "elements_covered": rep.elements_covered,
        "counterexample_word": (
            None if rep.counterexample_word is None
            else rep.counterexample_word.render(dfa.alphabet)
        ),
        "counterexample_element": rep.counterexample_element,
        "bound": 2 * dfa.n_states,
        "max_depth": None,
    }
    if rep.ok:
        max_depth, bound = depth_bound_check(dfa, group, index, rep)
        report["max_depth"] = max_depth
        report["bound"] = bound
    _write_json(Path(out) / "dfa_report.json", report)
    print("dfa sound=%s complete=%s" % (rep.sound, rep.complete))
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deadends",
        description="Dead-end experiments over marked groups with exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="group spec JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="csv only, or csv plus a JSON mirror with metadata")

    p_ball = sub.add_parser("ball", help="build a ball and dump sphere sizes")
    add_common(p_ball)
    p_ball.add_argument("--radius", type=int, required=True)

    p_scan = sub.add_parser("depth-scan", help="list certified dead ends")
    add_common(p_scan)
    p_scan.add_argument("--radius", type=int, required=True)
    p_scan.add_argument("--min-depth", type=int, required=True)
    p_scan.add_argument("--cap", type=int, default=None)

    p_fam = sub.add_parser("heis-family", help="deep Heisenberg family table")
    add_common(p_fam, spec=False)
    p_fam.add_argument("--n-max", type=int, required=True)
    p_fam.add_argument("--radius", type=int, default=None,
                       help="row n searches depth out to this radius, cap "
                            "radius - (4n+2) (default fits n_max)")

    p_gap = sub.add_parser("sol-gap", help="Sol norm gap sweep")
    add_common(p_gap)
    p_gap.add_argument("--radius", type=int, required=True)
    p_gap.add_argument("--cap", type=int, default=None,
                       help="support length cap (default: radius)")

    p_dfa = sub.add_parser("dfa", help="verify a geodesic automaton")
    add_common(p_dfa)
    p_dfa.add_argument("--dfa", required=True, help="DFA JSON file")
    p_dfa.add_argument("--radius", type=int, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ball":
            return cmd_ball(args.spec, args.radius, args.out, fmt=args.format)
        if args.command == "depth-scan":
            return cmd_depth_scan(args.spec, args.radius, args.min_depth,
                                  args.out, cap=args.cap, fmt=args.format)
        if args.command == "heis-family":
            return cmd_heis_family(args.n_max, args.out,
                                   radius=args.radius, fmt=args.format)
        if args.command == "sol-gap":
            return cmd_sol_gap(args.spec, args.radius, args.out,
                               cap=args.cap, fmt=args.format)
        if args.command == "dfa":
            return cmd_dfa(args.dfa, args.spec, args.radius, args.out)
        parser.error("unknown command %r" % args.command)  # pragma: no cover
    except SpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ClaimViolation, BoundViolated, ResourceCap, CapExceeded) as exc:
        print("violation: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    except DeadendError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
