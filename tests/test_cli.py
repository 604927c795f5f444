"""End-to-end checks of the command-line driver and its file outputs."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import deadends
from deadends.cli import _depth_cell, main
from deadends.geolang import zn_sorted_dfa
from deadends.heis import HeisenbergGroup, heis_family
from deadends.search import InsufficientRadius, ball

HEIS = {"kind": "heisenberg"}
SOL = {"kind": "sol", "R": [[2, 1], [1, 1]]}
Z2 = {"kind": "zn_weighted", "n": 2,
      "gens": [{"v": [1, 0], "w": 1}, {"v": [0, 1], "w": 1}],
      "names": ["a", "b"]}
EUC = {"kind": "euclidean", "n": 2,
       "point_group": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
       "gens": [{"v": [1, 0], "mat": [[1, 0], [0, 1]]},
                {"v": [0, 1], "mat": [[1, 0], [0, 1]]},
                {"v": [0, 0], "mat": [[-1, 0], [0, -1]]}],
       "names": ["a", "b", "s"]}
WREATH = {"kind": "wreath_z2_z"}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, obj in [("heis", HEIS), ("sol", SOL), ("z2", Z2),
                      ("euc", EUC), ("wreath", WREATH)]:
        p = tmp_path / ("%s.json" % name)
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def lines_of(path):
    return path.read_text().splitlines()


class TestBall:
    def test_heis_r10(self, specs, tmp_path):
        out = tmp_path / "out"
        assert main(["ball", "--spec", specs["heis"], "--radius", "10",
                     "--out", str(out)]) == 0
        rows = lines_of(out / "ball.csv")
        assert rows[0] == "radius,count"
        assert rows[-1] == "10,1464"

    def test_r0(self, specs, tmp_path):
        assert main(["ball", "--spec", specs["z2"], "--radius", "0",
                     "--out", str(tmp_path)]) == 0
        assert lines_of(tmp_path / "ball.csv") == ["radius,count", "0,1"]

    def test_json_mirror_carries_spec_hash(self, specs, tmp_path):
        assert main(["ball", "--spec", specs["wreath"], "--radius", "3",
                     "--out", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads((tmp_path / "ball.json").read_text())
        assert payload["spec"]["kind"] == "wreath_z2_z"
        assert len(payload["spec"]["sha256"]) == 64
        assert payload["radius"] == 3

    def test_all_spec_kinds_load(self, specs, tmp_path):
        for name in ("heis", "sol", "z2", "euc", "wreath"):
            assert main(["ball", "--spec", specs[name], "--radius", "2",
                         "--out", str(tmp_path / name)]) == 0

    def test_bad_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ball", "--spec", str(bad), "--radius", "2",
                     "--out", str(tmp_path)]) == 2

    def test_non_utf8_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"kind": "heis\xffenberg"}')
        assert main(["ball", "--spec", str(bad), "--radius", "2",
                     "--out", str(tmp_path)]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["ball", "--radius", "2"], "ball.json"),
        (["depth-scan", "--radius", "2", "--min-depth", "1"], "depth_scan.json"),
        (["sol-gap", "--radius", "2"], "sol_gap.json"),
    ], ids=["ball", "depth-scan", "sol-gap"])
    def test_json_mirror_hashes_the_spec_bytes(self, specs, tmp_path, argv, name):
        assert main(argv + ["--spec", specs["sol"], "--out", str(tmp_path),
                            "--format", "json"]) == 0
        spec = json.loads((tmp_path / name).read_text())["spec"]
        with open(specs["sol"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert spec == {"kind": "sol", "path": specs["sol"], "sha256": digest}

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["ball", "--spec", str(tmp_path / "nope.json"),
                     "--radius", "2", "--out", str(tmp_path)]) == 2

    def test_unknown_kind_exits_2(self, tmp_path):
        spec = tmp_path / "weird.json"
        spec.write_text(json.dumps({"kind": "flower"}))
        assert main(["ball", "--spec", str(spec), "--radius", "1",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("spec, names", [
        (Z2, ["a"]), (Z2, ["a", "b", "c"]), (EUC, ["a", "b"]), (EUC, ["a", "b", "s", "t"])],
        ids=["z2-few", "z2-many", "euc-few", "euc-many"])
    def test_names_must_match_the_generators(self, tmp_path, capsys, spec, names):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(spec, names=names)))
        assert main(["ball", "--spec", str(path), "--radius", "3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "%d names for %d generators" % (len(names), len(spec["gens"])) in err
        assert not (tmp_path / "ball.csv").exists()

    @pytest.mark.parametrize("spec, field, value, message", [
        (Z2, "gens", [{"v": [1, 0], "w": 1.5}, {"v": [0.9, 1], "w": 1}],
         "expected an integer, got 1.5"),
        (Z2, "gens", [{"v": [1, 0], "w": True}, {"v": [0, 1], "w": 1}],
         "expected an integer, got True"),
        (Z2, "n", "2", "expected an integer, got '2'"),
        (Z2, "names", "ab", "expected a list of strings, got 'ab'"),
        (Z2, "names", [1, 2], "expected a list of strings, got [1, 2]"),
        (EUC, "names", "abc", "expected a list of strings, got 'abc'"),
        (EUC, "n", 2.0, "expected an integer, got 2.0"),
        (SOL, "R", [[2.0, 1], [1, 1]], "expected an integer, got 2.0"),
    ], ids=["z2-float-weight", "z2-bool-weight", "z2-string-n", "z2-string-names",
            "z2-int-names", "euc-string-names", "euc-float-n", "sol-float-entry"])
    def test_malformed_numbers_and_names_refused(self, tmp_path, capsys, spec, field,
                                                 value, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(spec, **{field: value})))
        assert main(["ball", "--spec", str(path), "--radius", "2",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid %s spec" % spec["kind"]) and message in err
        assert not (tmp_path / "ball.csv").exists()

    def test_missing_radius_is_usage_error(self, specs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ball", "--spec", specs["heis"], "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestDepthScan:
    def test_z2_has_no_dead_ends(self, specs, tmp_path):
        assert main(["depth-scan", "--spec", specs["z2"], "--radius", "8",
                     "--min-depth", "2", "--out", str(tmp_path)]) == 0
        assert lines_of(tmp_path / "depth_scan.csv") == ["element,distance,depth"]

    def test_heis_finds_the_deep_element(self, specs, tmp_path):
        assert main(["depth-scan", "--spec", specs["heis"], "--radius", "12",
                     "--min-depth", "2", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        rows = lines_of(tmp_path / "depth_scan.csv")
        assert len(rows) == 13  # header + 12 certified dead ends
        assert '"(0,0,5)",10,' in "\n".join(rows)
        payload = json.loads((tmp_path / "depth_scan.json").read_text())
        assert any(r["element"] == "(0,0,5)" and r["distance"] == 10
                   for r in payload["rows"])

    def test_sol_rows_below_the_radius(self, specs, tmp_path):
        # 52 rows of depth 3, all at d = 11 and 12 of the radius-13 ball
        assert main(["depth-scan", "--spec", specs["sol"], "--radius", "13",
                     "--min-depth", "3", "--cap", "6", "--out", str(tmp_path)]) == 0
        assert len(lines_of(tmp_path / "depth_scan.csv")) == 53
        assert hashlib.sha256((tmp_path / "depth_scan.csv").read_bytes()).hexdigest() == \
            "e6d027be751c314a2417a064439e1a745e73a38c28ea6386e28413b6810e3aa6"

    def test_cap_below_min_depth_exits_2(self, specs, tmp_path):
        assert main(["depth-scan", "--spec", specs["heis"], "--radius", "8",
                     "--min-depth", "2", "--cap", "1",
                     "--out", str(tmp_path)]) == 2


class TestHeisFamily:
    def test_rows_through_n4(self, specs, tmp_path):
        assert main(["heis-family", "--n-max", "4", "--radius", "22",
                     "--out", str(tmp_path)]) == 0
        rows = lines_of(tmp_path / "heis_family.csv")
        assert rows == ["n,distance,depth_bound,bfs_depth",
                        "3,14,3,7", "4,18,3,>=5"]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_rows_match_the_full_radius_ball(self, tmp_path, extra):
        # the CLI reads distances only to 4 n_max + 2 = 18, from the closed
        # form; its rows must equal those read off a ball built to the full
        # radius
        radius = 22 + extra
        argv = ["heis-family", "--n-max", "4", "--out", str(tmp_path),
                "--format", "json"]
        if extra:
            argv += ["--radius", str(radius)]
        assert main(argv) == 0
        index = ball(HeisenbergGroup(), radius)
        expected = ["n,distance,depth_bound,bfs_depth"]
        for n in (3, 4):
            row = heis_family(n, index)
            expected.append("%d,%d,%d,%s" % (
                n, row.distance, row.depth_lower_bound,
                _depth_cell(row.bfs_depth, row.bfs_depth_exceeds_cap)))
        assert lines_of(tmp_path / "heis_family.csv") == expected
        payload = json.loads((tmp_path / "heis_family.json").read_text())
        assert payload["meta"] == {"n_max": 4, "radius": radius}

    @pytest.mark.parametrize("radius", [None, 26, 27, 40], ids=["default", "26", "27", "40"])
    def test_n6_rows_match_the_full_ball(self, tmp_path, capsys, heis_ball26, radius):
        # the CLI reads distances from the closed form; its CSV, exit code
        # and stderr must equal those of the full ball B(26)
        # (radius 26 gives n=6 a cap of 0)
        argv = ["heis-family", "--n-max", "6", "--out", str(tmp_path)]
        if radius is None:
            radius = 31  # 4*6 + 2 + ceil(sqrt(8) + 1) + 1
        else:
            argv += ["--radius", str(radius)]
        expected = ["n,distance,depth_bound,bfs_depth"]
        code, err = 0, ""
        try:
            for n in range(3, 7):
                row = heis_family(n, heis_ball26, cap=radius - (4 * n + 2))
                expected.append("%d,%d,%d,%s" % (
                    n, row.distance, row.depth_lower_bound,
                    _depth_cell(row.bfs_depth, row.bfs_depth_exceeds_cap)))
        except InsufficientRadius as exc:
            code, err = 2, "error: %s\n" % exc
        assert main(argv) == code
        assert capsys.readouterr().err == err
        csv_path = tmp_path / "heis_family.csv"
        if code:
            assert not csv_path.exists()
        else:
            assert lines_of(csv_path) == expected

    def test_radius_short_of_the_bound_exits_2(self, tmp_path, capsys):
        # cap 27 - 26 = 1 for n=6 certifies only depth >= 2, below bound 4
        assert main(["heis-family", "--n-max", "6", "--radius", "27",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n=6")
        assert "capped at 1" in err and "radius >= 29" in err
        assert not (tmp_path / "heis_family.csv").exists()

    def test_radius_short_of_the_distance_exits_2(self, tmp_path, capsys):
        assert main(["heis-family", "--n-max", "6", "--radius", "20",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: element (0,0,26) not within radius 20\n"
        assert not (tmp_path / "heis_family.csv").exists()

    def test_default_radius_csv_pinned(self, tmp_path):
        assert main(["heis-family", "--n-max", "6", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "heis_family.csv").read_bytes()).hexdigest() == \
            "fc5c65a6534a6a3e7d2a846d6843ca657656c153ae7205cbcf4dd622c815a234"

    def test_deep_rows_past_any_affordable_ball(self, tmp_path):
        # distances out to 50 from the closed form; a ball would need B(46)
        # even split over S(4)
        assert main(["heis-family", "--n-max", "12", "--radius", "63",
                     "--out", str(tmp_path)]) == 0
        rows = [r.split(",") for r in lines_of(tmp_path / "heis_family.csv")[1:]]
        assert [int(r[0]) for r in rows] == list(range(3, 13))
        assert [int(r[1]) for r in rows] == [4 * n + 2 for n in range(3, 13)]
        assert [r[3] for r in rows] == ["7", "7", "9", "9", "11", "11", "11", "13", "13", "13"]

    def test_small_n_max_is_empty(self, tmp_path):
        assert main(["heis-family", "--n-max", "2", "--out", str(tmp_path)]) == 0
        assert lines_of(tmp_path / "heis_family.csv") == \
            ["n,distance,depth_bound,bfs_depth"]


class TestSolGap:
    def test_sweep_r7(self, specs, tmp_path, capsys):
        assert main(["sol-gap", "--spec", specs["sol"], "--radius", "7",
                     "--out", str(tmp_path), "--format", "json"]) == 0
        said = capsys.readouterr().out
        assert "max_gap=4 checked=3355 skipped=0" in said
        rows = lines_of(tmp_path / "sol_gap.csv")
        assert rows[0] == "element,distance,norm,gap"
        assert rows[1] == '"(0,0;0)",0,0,0'
        assert all(int(r.rsplit(",", 1)[1]) >= 0 for r in rows[1:])
        payload = json.loads((tmp_path / "sol_gap.json").read_text())
        assert payload["max_gap"] == 4 and payload["elements_checked"] == 3355

    def test_r8_csv_pinned(self, specs, tmp_path):
        # the sha256 the sol_gap benchmark workload pins
        assert main(["sol-gap", "--spec", specs["sol"], "--radius", "8",
                     "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "sol_gap.csv").read_bytes()).hexdigest() == \
            "621b25a497929de76c7b4e1d69ee03e55f099947febe6386269de20737794ecb"

    def test_r7_json_pinned(self, specs, tmp_path):
        # the spec path varies per run; every other field is pinned
        assert main(["sol-gap", "--spec", specs["sol"], "--radius", "7",
                     "--out", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads((tmp_path / "sol_gap.json").read_text())
        assert payload["spec"].pop("path") == specs["sol"]
        canonical = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == \
            "70abbb83ec4e1ea6f04fe42bebdcf76790f40e5737e28abbaf2b46d29840bd4f"

    def test_malformed_matrix_exits_2(self, tmp_path):
        spec = tmp_path / "sol.json"
        spec.write_text(json.dumps({"kind": "sol", "R": [[1, 1], [0, 1]]}))
        assert main(["sol-gap", "--spec", str(spec), "--radius", "4",
                     "--out", str(tmp_path)]) == 2

    def test_wrong_kind_exits_2(self, specs, tmp_path):
        assert main(["sol-gap", "--spec", specs["heis"], "--radius", "4",
                     "--out", str(tmp_path)]) == 2

    def test_negative_cap_exits_2(self, specs, tmp_path, capsys):
        assert main(["sol-gap", "--spec", specs["sol"], "--radius", "3",
                     "--cap", "-1", "--out", str(tmp_path / "neg")]) == 2
        assert capsys.readouterr().err == \
            "error: support length cap must be >= 0, got -1\n"
        assert not (tmp_path / "neg").exists()
        # cap 0 still certifies the seven elements whose plane part is zero
        assert main(["sol-gap", "--spec", specs["sol"], "--radius", "3",
                     "--cap", "0", "--out", str(tmp_path / "zero")]) == 0
        assert "checked=7 skipped=96" in capsys.readouterr().out

    def test_negative_cap_refused_before_the_ball(self, specs, tmp_path):
        # B(12) outgrows a budget of 50 at once: a budget violation would
        # mean the ball was built before the cap was read.
        proc = subprocess.run(
            [sys.executable, "-m", "deadends.cli", "sol-gap", "--spec", specs["sol"],
             "--radius", "12", "--cap", "-1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(_child_env(), DEADEND_BUDGET="50"))
        assert proc.returncode == 2
        assert proc.stderr == "error: support length cap must be >= 0, got -1\n"


class TestDfa:
    def test_sorted_fixture_passes(self, specs, tmp_path):
        dfa_path = tmp_path / "dfa.json"
        dfa_path.write_text(json.dumps(zn_sorted_dfa(2).to_json_obj()))
        assert main(["dfa", "--dfa", str(dfa_path), "--spec", specs["z2"],
                     "--radius", "6", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "dfa_report.json").read_text())
        assert report["sound"] and report["complete"]
        assert report["max_depth"] == 1 and report["bound"] == 10
        for key, path in (("spec", specs["z2"]), ("dfa", str(dfa_path))):
            with open(path, "rb") as fh:
                assert report[key]["sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_broken_dfa_reports_counterexample(self, specs, tmp_path):
        broken = {"states": 1, "start": 0, "accept": [0],
                  "trans": [{"from": 0, "letter": "a", "to": 0},
                            {"from": 0, "letter": "a-", "to": 0}]}
        dfa_path = tmp_path / "dfa.json"
        dfa_path.write_text(json.dumps(broken))
        assert main(["dfa", "--dfa", str(dfa_path), "--spec", specs["z2"],
                     "--radius", "4", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "dfa_report.json").read_text())
        assert not report["sound"]
        assert report["counterexample_word"] == "a a-"
        assert report["max_depth"] is None

    def test_weighted_spec_refused(self, tmp_path, capsys):
        spec = tmp_path / "w13.json"
        spec.write_text(json.dumps({
            "kind": "zn_weighted", "n": 2, "names": ["a", "b"],
            "gens": [{"v": [1, 0], "w": 1}, {"v": [0, 1], "w": 3}]}))
        dfa_path = tmp_path / "dfa.json"
        dfa_path.write_text(json.dumps(zn_sorted_dfa(2).to_json_obj()))
        assert main(["dfa", "--dfa", str(dfa_path), "--spec", str(spec),
                     "--radius", "11", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "weights" in err and "not within radius" not in err

    @pytest.mark.parametrize("field, value, message", [
        ("states", 5.0, "expected an integer, got 5.0"),
        ("start", True, "expected an integer, got True"),
        ("accept", ["0"], "expected an integer, got '0'"),
        ("trans", [{"from": 0, "letter": 5, "to": 0}], "token 5 not in alphabet"),
    ], ids=["float-states", "bool-start", "string-accept", "int-letter"])
    def test_malformed_numbers_refused(self, specs, tmp_path, capsys, field, value,
                                       message):
        dfa_path = tmp_path / "dfa.json"
        dfa_path.write_text(json.dumps(dict(zn_sorted_dfa(2).to_json_obj(), **{field: value})))
        assert main(["dfa", "--dfa", str(dfa_path), "--spec", specs["z2"],
                     "--radius", "4", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load DFA") and message in err
        assert not (tmp_path / "dfa_report.json").exists()

    def test_unreadable_dfa_exits_2(self, specs, tmp_path):
        assert main(["dfa", "--dfa", str(tmp_path / "nope.json"),
                     "--spec", specs["z2"], "--radius", "4",
                     "--out", str(tmp_path)]) == 2


class TestDeterminism:
    def test_reruns_are_byte_identical(self, specs, tmp_path):
        for sub in ("a", "b"):
            assert main(["ball", "--spec", specs["heis"], "--radius", "8",
                         "--out", str(tmp_path / sub)]) == 0
            assert main(["depth-scan", "--spec", specs["heis"], "--radius",
                         "10", "--min-depth", "2",
                         "--out", str(tmp_path / sub)]) == 0
        for name in ("ball.csv", "depth_scan.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


def _child_env():
    """The environment of a child that imports the package under test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(deadends.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestImportFootprint:
    """A command loads the family module it runs and no other; no module
    of the package loads dataclasses, and only a run that writes a hash
    loads OpenSSL (_hashlib)."""

    FAMILIES = {"deadends.abelian", "deadends.geolang", "deadends.heis", "deadends.sol"}

    def loaded(self, *argv):
        """Modules a fresh interpreter loads for import deadends.cli, then
        for cli.main(argv) when argv is given."""
        code = ("import sys\nbefore = set(sys.modules)\nimport deadends.cli\n"
                "if sys.argv[1:]:\n    deadends.cli.main(sys.argv[1:])\n"
                "print(*sorted(set(sys.modules) - before))\n")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    def test_import_loads_no_family(self):
        loaded = self.loaded()
        assert "deadends.cli" in loaded
        assert not loaded & (self.FAMILIES | {"dataclasses"})

    def test_heis_family_loads_heis_alone(self, tmp_path):
        loaded = self.loaded("heis-family", "--n-max", "3", "--out", str(tmp_path))
        assert (tmp_path / "heis_family.csv").exists()
        assert loaded & self.FAMILIES == {"deadends.heis"}
        assert "dataclasses" not in loaded

    def test_sol_gap_loads_sol_alone(self, specs, tmp_path):
        loaded = self.loaded("sol-gap", "--spec", specs["sol"], "--radius", "2",
                             "--out", str(tmp_path))
        assert (tmp_path / "sol_gap.csv").exists()
        assert loaded & self.FAMILIES == {"deadends.sol"}
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("argv", [
        ["depth-scan", "--radius", "4", "--min-depth", "2"],
        ["sol-gap", "--radius", "2"],
    ], ids=["depth-scan", "sol-gap"])
    def test_only_json_runs_load_hashlib(self, specs, tmp_path, argv):
        argv = argv + ["--spec", specs["sol"]]
        csv_only = self.loaded(*argv, "--out", str(tmp_path / "csv"))
        assert "_hashlib" not in csv_only and "hashlib" not in csv_only
        both = self.loaded(*argv, "--out", str(tmp_path / "json"), "--format", "json")
        assert "_hashlib" in both


class TestBudgetEnv:
    def test_budget_env_var_caps_the_search(self, specs, tmp_path):
        env = dict(_child_env(), DEADEND_BUDGET="100")
        proc = subprocess.run(
            [sys.executable, "-m", "deadends.cli", "ball",
             "--spec", specs["heis"], "--radius", "10",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "violation" in proc.stderr

    def test_budget_env_var_caps_the_support_memo(self, specs, tmp_path,
                                                   monkeypatch, capsys):
        # The residue sieve keeps the memo below the ball up to radius 8
        # (6,564 entries against 7,277 elements).  The radius-9 ball has
        # 15,547 elements; its sweep needs 17,676 memo entries (12,696
        # reach, 4,980 extents), so 16,000 fits the ball, not the memo.
        monkeypatch.setenv("DEADEND_BUDGET", "16000")
        assert main(["sol-gap", "--spec", specs["sol"], "--radius", "9",
                     "--out", str(tmp_path)]) == 1
        assert "support memo" in capsys.readouterr().err
        assert not (tmp_path / "sol_gap.csv").exists()

    def test_console_script_runs(self, specs, tmp_path):
        proc = subprocess.run(
            ["deadends", "ball", "--spec", specs["z2"], "--radius", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "size=13" in proc.stdout
