"""Bounded-depth workload: the free group automaton and a weighted lattice.

No `deadends.cli` subcommand reaches the free group or `abelian.depth_bound`,
so this script calls the package's public API directly:

1. `builtin_dfas()["f2_reduced"]`: build the free-group ball of radius
   `--f2-radius`, verify the reduced-word automaton against it and check
   the pumping depth bound (`geolang`).
2. The weighted Z^3 spec in `--spec` (loaded through `cli.load_group_spec`):
   build its ball of weight radius `--radius` on the uniform-cost branch of
   `search.ball`, then run `abelian.depth_bound` against it.

Every certified value goes to `<out>/bounded.json` (sorted keys) for the
harness to check.  Functions are looked up through their modules at call
time, so `traced.py` sees every call it wraps.

    PYTHONPATH=src python3 perfbench/bounded.py --spec W.json --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from deadends import abelian, cli, geolang, search


def _sphere_sha256(index) -> str:
    return hashlib.sha256(json.dumps(index.sphere_rows()).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="zn_weighted spec JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--f2-radius", type=int, default=10)
    parser.add_argument("--radius", type=int, default=30)
    args = parser.parse_args(argv)

    dfa, free = geolang.builtin_dfas()["f2_reduced"]
    f2_index = search.ball(free, args.f2_radius)
    rep = geolang.verify_language(dfa, free, f2_index)
    f2_max_depth, f2_bound = geolang.depth_bound_check(dfa, free, f2_index, rep)

    group, meta = cli.load_group_spec(args.spec)
    if not isinstance(group, abelian.WeightedZnGroup):
        print("error: %s is not a zn_weighted spec" % args.spec, file=sys.stderr)
        return 2
    w_index = search.ball(group, args.radius)
    db = abelian.depth_bound(group.ws, w_index)

    result = {
        "f2": {
            "radius": args.f2_radius,
            "ball_size": len(f2_index),
            "sound": rep.sound,
            "complete": rep.complete,
            "words_checked": rep.words_checked,
            "elements_covered": rep.elements_covered,
            "max_depth": f2_max_depth,
            "bound": f2_bound,
        },
        "weighted": {
            "radius": args.radius,
            "spec_sha256": meta["sha256"],
            "ball_size": len(w_index),
            "spheres_sha256": _sphere_sha256(w_index),
            "bound": db.bound,
            "cell_distance": db.cell_distance,
            "max_depth_seen": db.max_depth_seen,
            "elements_checked": db.elements_checked,
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bounded.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("bounded f2 max_depth=%d bound=%d weighted bound=%d max_seen=%d checked=%d"
          % (f2_max_depth, f2_bound, db.bound, db.max_depth_seen, db.elements_checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
