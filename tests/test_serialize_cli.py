import contextlib
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow import serialize
from horoshadow.cli import main
from horoshadow.halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    TangentHoroball,
    VerticalGeodesic,
)
from horoshadow.packings import HoroballFamily, extremal, farey, geometric, random_disjoint
from horoshadow.trees import (
    covering_family,
    random_tree,
    random_tree_horoballs,
    three_regular_tree,
)


def old_tree_to_document(tree, balls, metadata=None):
    """tree_to_document as it was before tree families were columns: one
    [end, level] row per TreeHoroball, read attribute by attribute."""
    edges = []
    for u, nbrs in sorted(tree.adj.items()):
        for v, length in sorted(nbrs.items()):
            if u < v:
                edges.append([u, v, length])
    return {
        "model": "tree",
        "dim": 0,
        "entries": {
            "edges": edges,
            "stubs": sorted(tree.stubs),
            "root": tree.root,
            "horoballs": [[b.end, b.level] for b in balls],
        },
        "metadata": dict(metadata or {}),
    }


class TestRoundTrip:
    def test_float_family_bit_exact(self):
        fam = random_disjoint(20, 3, 5)
        doc = serialize.family_to_document(fam)
        text = serialize.dumps(doc)
        back = serialize.document_to_family(json.loads(text))
        assert back.horoballs == fam.horoballs  # repr round-trips floats

    def test_exact_family_survives(self):
        fam = farey(7, (0, 1), include_infinity=True)
        doc = serialize.family_to_document(fam)
        back = serialize.document_to_family(json.loads(serialize.dumps(doc)),
                                            exact=True)
        assert back.horoballs == fam.horoballs
        assert isinstance(back.horoballs[0].radius, Fraction)

    def test_exact_mode_requires_exact_fields(self):
        fam = HoroballFamily(2, [TangentHoroball(0.123, 0.25)])
        doc = serialize.family_to_document(fam)
        with pytest.raises(ValueError):
            serialize.document_to_family(doc, exact=True)

    def test_tree_round_trip(self):
        tree = three_regular_tree(4)
        balls = covering_family(tree)
        doc = serialize.tree_to_document(tree, balls)
        t2, b2 = serialize.document_to_tree(json.loads(serialize.dumps(doc)))
        assert t2.adj == tree.adj
        assert t2.stubs == tree.stubs
        assert b2 == balls

    @pytest.mark.parametrize("args", [["--depth", "10"], ["--depth", "13"],
                                      ["--random", "--seed", "3", "--vertices", "60",
                                       "--balls", "6"]],
                             ids=["depth-10", "depth-13", "random"])
    def test_pack_tree_writes_the_per_ball_bytes(self, tmp_path, args):
        out = tmp_path / "tree.json"
        assert main(["pack", "tree", *args, "--out", str(out)]) == 0
        if "--random" in args:
            tree = random_tree(3, 60)
            balls, meta = random_tree_horoballs(tree, 6, 4), {"generator": "tree-random", "seed": 3}
        else:
            depth = int(args[1])
            tree = three_regular_tree(depth)
            balls, meta = covering_family(tree), {"generator": "tree-covering", "depth": depth}
        want = serialize.dumps(old_tree_to_document(tree, list(balls), meta)) + "\n"
        assert out.read_text() == want

    def test_geodesic_round_trip(self):
        for g in (VerticalGeodesic((0.5,), (-1.0, math.inf)),
                  ArcGeodesic((0.0,), (1.0,)),
                  ArcGeodesic((0.0, 1.0), (2.0, -1.0), (-2.0, 2.0))):
            back = serialize.json_to_geodesic(
                json.loads(json.dumps(serialize.geodesic_to_json(g))))
            assert back == g


class TestCli:
    def test_verify_constants_passes(self, capsys):
        assert main(["verify", "constants"]) == 0
        err = capsys.readouterr().err
        assert err.count("[PASS]") == 5 and "[FAIL]" not in err

    def test_verify_constants_prints_its_document(self, capsys):
        assert main(["verify", "constants"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "t1(1)", "e^-t1(1)", "s0(1/4, lines)", "t0(H^n_R)", "t0(H^2_C)"]
        assert all(c["pass"] for c in doc["checks"])
        # t0(H^2_C) against its closed form (test_heisenberg derives it)
        assert doc["checks"][-1]["expected"] == 4.915766891218324
        assert doc["checks"][-1]["tolerance"] == 1e-9

    def test_json_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "constants", "--json"])
        assert exc.value.code == 2
        assert "--json" in capsys.readouterr().err

    def test_pack_then_uncloud_pipe(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        assert main(["pack", "farey", "--qmax", "5", "--range", "0..1",
                     "--out", str(fam_file)]) == 0
        assert main(["uncloud", str(fam_file), "--mode", "dim2",
                     "--shrink-s", "0.23"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert doc["witnesses"][0]["checks"] == 11  # fractions with q <= 5

    def test_uncloud_generic_and_two(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "8", "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["uncloud", str(fam_file), "--mode", "generic",
                     "--shrink-s", "0.2", "--two"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] and len(doc["witnesses"]) == 2

    def test_uncloud_shrink_time_flag(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "5", "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["uncloud", str(fam_file), "--mode", "dim2",
                     "--shrink-t", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shrink_s"] == pytest.approx(math.exp(-1.5))

    def test_conflicting_shrink_flags_usage_error(self, tmp_path):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        with pytest.raises(SystemExit) as exc:
            main(["uncloud", str(fam_file), "--shrink-s", "0.2",
                  "--shrink-t", "1.0"])
        assert exc.value.code == 2

    def test_dioph_golden(self, capsys):
        assert main(["dioph", "--xi", "golden", "--t", "0.27",
                     "--qmax", "100000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solutions"] == []

    def test_ray_and_line(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "50", "--infinity",
              "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["ray", "--family", str(fam_file),
                     "--point", "0.5;0.9", "--t", "1.9"]) == 0
        assert json.loads(capsys.readouterr().out)["certified"]
        assert main(["line", "--family", str(fam_file), "--t", "1.4"]) == 0
        assert json.loads(capsys.readouterr().out)["certified"]

    @pytest.mark.parametrize("argv", [["render", "--family", "f.json", "--svg", "f.svg"],
                                      ["shadow", "f.json", "--a", "2"]])
    def test_render_and_shadow_are_unknown_subcommands(self, argv, capsys):
        # neither certified anything, and both are gone
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_verify_packing_detects_overlap(self, tmp_path, capsys):
        fam = HoroballFamily(2, [TangentHoroball(0.0, 1.0), TangentHoroball(1.0, 1.0)])
        fam_file = tmp_path / "bad.json"
        fam_file.write_text(serialize.dumps(serialize.family_to_document(fam)))
        assert main(["verify", "packing", "--family", str(fam_file)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [[0, 1]]

    def test_verify_avoidance(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "100", "--range", "1..2",
              "--out", str(fam_file)])
        capsys.readouterr()
        golden = (1 + math.sqrt(5)) / 2
        g = json.dumps({"type": "vertical", "foot": [golden]})
        assert main(["verify", "avoidance", "--family", str(fam_file),
                     "--geodesic", g, "--t", "0.27"]) == 0
        assert main(["verify", "avoidance", "--family", str(fam_file),
                     "--geodesic", json.dumps({"type": "vertical", "foot": [1.5]}),
                     "--t", "0.0"]) == 1

    def test_verify_avoidance_needs_geodesic(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "5", "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["verify", "avoidance", "--family", str(fam_file),
                     "--t", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: verify avoidance needs --geodesic\n"
        assert captured.out == ""

    def test_geodesic_from_file(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        geo_file = tmp_path / "geo.json"
        main(["pack", "farey", "--qmax", "100", "--range", "1..2",
              "--out", str(fam_file)])
        capsys.readouterr()
        golden = (1 + math.sqrt(5)) / 2
        geo_file.write_text(json.dumps({"type": "vertical", "foot": [golden]}))
        docs = []
        for arg in (geo_file.read_text(), f"@{geo_file}"):
            assert main(["verify", "avoidance", "--family", str(fam_file),
                         "--geodesic", arg, "--t", "0.27"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["ok"] and docs[0] == docs[1]
        assert main(["verify", "avoidance", "--family", str(fam_file),
                     "--geodesic", f"@{tmp_path / 'missing.json'}", "--t", "0"]) == 1

    def test_exact_extremal_needs_rational_scale(self, capsys):
        assert main(["pack", "extremal", "--generations", "3", "--exact"]) == 1
        assert capsys.readouterr().err.startswith("error: the tangency scale")

    def test_pack_tree(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert main(["pack", "tree", "--depth", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "tree"
        assert len(doc["entries"]["horoballs"]) > 5

    def test_missing_family_file_is_an_error(self):
        assert main(["uncloud", "/nonexistent.json", "--shrink-s", "0.2"]) == 1

    def test_exact_solve_produces_rational_witness(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "12", "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["uncloud", str(fam_file), "--mode", "dim2", "--exact",
                     "--shrink-s", "1/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] and doc["shrink_s_exact"] == "1/2"
        exact = Fraction(doc["witnesses"][0]["endpoint_exact"][0])
        # re-check the certificate in exact arithmetic
        for _, h in farey(12, (0, 1)).tangent_items():
            assert abs(exact - h.base[0]) >= h.radius / 2

    @pytest.mark.parametrize("s,status", [("6568542494925/10000000000000", 1),
                                          ("6568542494923/10000000000000", 0)])
    def test_exact_scale_above_the_sharp_threshold_is_refused(self, tmp_path, capsys,
                                                               s, status):
        # the first s is above 4 sqrt(2) - 5 but within the float slack of
        # SHARP_SCALE; the second is below it
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "5", "--exact", "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["uncloud", str(fam_file), "--exact", "--mode", "dim2",
                     "--shrink-s", s]) == status
        out, err = capsys.readouterr()
        if status:
            # the bound an exact s is held to, not its float rounding
            assert out == "" and err == "error: scale factor must lie in (0, 4*sqrt(2)-5]\n"
        else:
            assert json.loads(out)["certified"]

    @pytest.mark.parametrize("two,side", [(True, "R"), (False, "L")])
    def test_exact_hnr_mode_stays_exact_on_the_line(self, tmp_path, capsys, two, side):
        # the rotation solver runs on a planar family in the family's own
        # arithmetic, so --exact gives rational endpoints and margins in
        # every sharp mode
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "20", "--infinity", "--out", str(fam_file)])
        capsys.readouterr()
        argv = ["uncloud", str(fam_file), "--mode", "hnr", "--exact", "--shrink-s", "1/5"]
        argv += ["--two"] if two else ["--side", side]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] and len(doc["witnesses"]) == (2 if two else 1)
        fam = farey(20, (0, 1))
        for w in doc["witnesses"]:
            (e,) = map(Fraction, w["endpoint_exact"])
            assert w["endpoint"] == [float(e)]
            margins = {i: abs(e - h.base[0]) - h.radius / 5 for i, h in fam.tangent_items()}
            assert w["margin"] == float(min(margins.values())) == float(margins[w["margin_index"]])

    def test_exact_is_refused_in_generic_mode(self, tmp_path, capsys):
        # the uncovering loop runs in floats, so its endpoint and margin
        # could not be certified in the rationals
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "5", "--out", str(fam_file)])
        capsys.readouterr()
        argv = ["uncloud", str(fam_file), "--mode", "generic", "--shrink-s", "1/5"]
        assert main(argv + ["--exact"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --exact needs a sharp mode")
        assert main(argv) == 0

    @pytest.mark.parametrize("mode", ["hnr", "dim2"])
    def test_exact_is_refused_beyond_the_line(self, tmp_path, capsys, mode):
        # beyond the line step_hnr rotates in floats: four Ford spheres at
        # the Gaussian integers 0, 1, i and 1 + i
        fam = HoroballFamily(3, [TangentHoroball((Fraction(a), Fraction(b)), Fraction(1, 2))
                                 for a in (0, 1) for b in (0, 1)])
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(serialize.dumps(serialize.family_to_document(fam)))
        argv = ["uncloud", str(fam_file), "--mode", mode, "--two", "--shrink-s", "2/5"]
        assert main(argv + ["--exact"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --exact needs a sharp mode on a planar family")
        assert main(argv) == (0 if mode == "hnr" else 1)

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        # main parses with one parser; a run with --exact leaves nothing on
        # it, so the next call reads the default
        from horoshadow import cli
        builds = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda build=cli.build_parser: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            fam_file = tmp_path / "fam.json"
            assert main(["pack", "farey", "--qmax", "3", "--exact", "--out", str(fam_file)]) == 0
            assert main(["verify", "packing", "--family", str(fam_file)]) == 0
            assert len(builds) == 1
            assert cli._parser().parse_args(["verify", "packing", "--family", str(fam_file)]) \
                .exact is False
            assert len(builds) == 1
        finally:
            cli._parser.cache_clear()

    @pytest.mark.parametrize("argv", [["--exact", "--tolerance", "0.5", "--seed", "3"], []])
    def test_common_flags_before_or_after_the_subcommand(self, argv):
        from horoshadow.cli import build_parser
        parser = build_parser()
        want = (True, 0.5, 3) if argv else (False, 1e-9, 0)
        for args in (argv + ["pack", "random", "--count", "2"],
                     ["pack", "random", "--count", "2"] + argv):
            ns = parser.parse_args(args)
            assert (ns.exact, ns.tolerance, ns.seed) == want, args

    def test_exact_shrink_time_rejected(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        assert main(["uncloud", str(fam_file), "--exact", "--shrink-t", "0.5"]) == 1
        assert capsys.readouterr().err.startswith("error: e^-t is not rational")

    @pytest.mark.parametrize("s", ["1.5", "0"])
    def test_shrink_factor_out_of_range_is_an_error(self, tmp_path, capsys, s):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        capsys.readouterr()
        assert main(["uncloud", str(fam_file), "--shrink-s", s]) == 1
        assert capsys.readouterr() == ("", "error: shrink factor must lie in (0, 1)\n")

    @pytest.mark.parametrize("argv,flag", [
        (["pack", "farey", "--qmax", "3", "--range", "0..1/0"], "--range"),
        (["pack", "extremal", "--generations", "3", "--s", "1/0"], "--s"),
        (["pack", "extremal", "--generations", "3", "--s", "1/0", "--exact"], "--s"),
        (["uncloud", "{f}", "--shrink-s", "1/0"], "--shrink-s"),
        (["uncloud", "{f}", "--shrink-s", "1/0", "--exact"], "--shrink-s"),
        (["ray", "--family", "{f}", "--point", "1/0;1", "--t", "1"], "--point"),
        (["ray", "--family", "{f}", "--point", "0.5;1/0", "--t", "1"], "--point"),
        (["dioph", "--xi", "1/0", "--t", "0.3", "--qmax", "10"], "--xi"),
    ], ids=["range", "extremal-s", "extremal-s-exact", "shrink-s", "shrink-s-exact",
            "point-base", "point-height", "xi"])
    def test_zero_denominator_is_an_error(self, tmp_path, argv, flag):
        # each exited 1 with a ZeroDivisionError traceback and no error line
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        code, out, err = run_cli([a.format(f=fam_file) for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} has a zero denominator")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["uncloud", "{f}", "--shrink-s", "{huge}"], "shrink factor must lie in (0, 1)"),
        (["pack", "extremal", "--generations", "3", "--s", "{huge}"],
         "scale factor must lie in (0, 1)"),
        (["ray", "--family", "{f}", "--point", "{huge};1", "--t", "1"],
         "--point must be finite, got '{huge};1'"),
        (["ray", "--family", "{f}", "--point", "0.5;{huge}", "--t", "1"],
         "--point must be finite, got '0.5;{huge}'"),
    ], ids=["shrink-s", "extremal-s", "point-base", "point-height"])
    def test_rational_beyond_the_float_range_is_an_error(self, tmp_path, argv, message):
        # each exited 1 with an OverflowError traceback from float(Fraction)
        fam_file, huge = tmp_path / "fam.json", "1" + "0" * 400 + "/3"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        code, out, err = run_cli([a.format(f=fam_file, huge=huge) for a in argv])
        assert (code, out, err) == (1, "", f"error: {message.format(huge=huge)}\n")

    def test_malformed_rational_names_its_flag(self):
        # the error line read "Invalid literal for Fraction: 'abc'"
        code, out, err = run_cli(["pack", "farey", "--qmax", "3", "--range", "0..abc"])
        assert (code, out, err) == (1, "", "error: --range is not a rational number: 'abc'\n")

    @pytest.mark.parametrize("xi", ["inf", "nan", "1e400"])
    def test_xi_must_be_finite(self, xi):
        # inf raised an uncaught OverflowError, and nan was refused with
        # "cannot convert float NaN to integer", naming no argument
        code, out, err = run_cli(["dioph", "--xi", xi, "--t", "0.3", "--qmax", "10"])
        assert (code, out) == (1, "")
        assert err == f"error: --xi must be a finite number, got {xi!r}\n"

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_two_and_side_usage_error(self, tmp_path, capsys, side):
        # --two emits both sides, so a side given with it is refused
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        with pytest.raises(SystemExit) as exc:
            main(["uncloud", str(fam_file), "--shrink-s", "0.3", "--two", "--side", side])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_verify_packing_tree_document(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        main(["pack", "tree", "--depth", "5", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "packing", "--family", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    @pytest.mark.parametrize("field,value,message", [
        ("root", 777, "root 777 is not a vertex"),
        ("stubs", [1, 2, 3, 777], "stub 777 is not a vertex")])
    def test_tree_document_names_a_missing_vertex(self, tmp_path, capsys, field, value, message):
        # a root that is not a vertex crashed with a KeyError traceback,
        # and a stray stub was accepted until random_tree_horoballs read it
        doc = {"model": "tree", "dim": 0, "metadata": {},
               "entries": {"edges": [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0]],
                           "stubs": [1, 2, 3], "root": 0, "horoballs": [[1, 1.0]]}}
        doc["entries"][field] = value
        out = tmp_path / "tree.json"
        out.write_text(json.dumps(doc))
        assert main(["verify", "packing", "--family", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("edge", [[0, 1, 5.0], [1, 0, 5.0]])
    def test_tree_document_refuses_a_repeated_edge(self, tmp_path, capsys, edge):
        # the later length replaced the first, and verify packing passed
        doc = {"model": "tree", "dim": 0, "metadata": {},
               "entries": {"edges": [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0], edge],
                           "stubs": [1, 2, 3], "root": 0, "horoballs": [[1, 1.0]]}}
        out = tmp_path / "tree.json"
        out.write_text(json.dumps(doc))
        assert main(["verify", "packing", "--family", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: edge ({edge[0]}, {edge[1]}) is given twice\n"

    @pytest.mark.parametrize("field,column,value,message", [
        ("horoballs", 1, math.nan, "horoball levels must be finite"),
        ("horoballs", 1, math.inf, "horoball levels must be finite"),
        ("edges", 2, math.nan, "edge lengths must be positive and finite")])
    def test_tree_document_refuses_nan_and_infinity(self, tmp_path, capsys, field, column,
                                                     value, message):
        # each of these passed verify packing with exit 0: a NaN edge
        # fails the test length <= 0, and a NaN or infinite level was read
        # as it stood
        out = tmp_path / "tree.json"
        main(["pack", "tree", "--depth", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["entries"][field][0][column] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "packing", "--family", str(out)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance, capsys):
        # a negative slack reports tangent Farey neighbours as overlapping;
        # NaN or an infinite slack would pass an overlapping extremal family
        for argv in (["pack", "farey", "--qmax", "3"],
                     ["pack", "extremal", "--generations", "3", "--s", "1/10"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tolerance", tolerance])
            assert exc.value.code == 2
            assert "--tolerance" in capsys.readouterr().err
        assert main(["pack", "extremal", "--generations", "3", "--s", "1/10"]) == 1

    def test_uncloud_reports_the_solver_certificate(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "5", "--out", str(fam_file)])
        capsys.readouterr()
        fam = farey(5)
        for mode in ("dim2", "hnr", "generic"):
            assert main(["uncloud", str(fam_file), "--mode", mode,
                         "--shrink-s", "0.2", "--two"]) == 0
            for w in json.loads(capsys.readouterr().out)["witnesses"]:
                gaps = [abs(w["endpoint"][0] - float(h.base[0])) - 0.2 * float(h.radius)
                        for h in fam.horoballs]
                assert w["checks"] == len(fam.horoballs)
                assert w["margin"] == pytest.approx(min(gaps), abs=1e-12)
                assert gaps[w["margin_index"]] == pytest.approx(min(gaps), abs=1e-12)

    def test_start_is_a_family_index_in_every_mode(self, tmp_path, capsys):
        # the horoball at infinity first: index 2 is the member at 1/1
        # (radius 1/2) in every mode, and margin_index counts it too
        fam = farey(5)
        fam = HoroballFamily(2, [AtInfinityHoroball(1)] + fam.horoballs)
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(serialize.dumps(serialize.family_to_document(fam)))
        for mode in ("dim2", "hnr", "generic"):
            assert main(["uncloud", str(fam_file), "--mode", mode, "--shrink-s", "0.2",
                         "--start", "2"]) == 0, mode
            (w,) = json.loads(capsys.readouterr().out)["witnesses"]
            assert 1 - 0.5 <= w["endpoint"][0] <= 1 + 0.5
            assert w["checks"] == len(fam.horoballs) - 1
            gaps = {i: abs(w["endpoint"][0] - float(h.base[0])) - 0.2 * float(h.radius)
                    for i, h in fam.tangent_items()}
            assert w["margin_index"] == min(gaps, key=gaps.get)
        # the member at infinity, and indices out of range either way
        for mode in ("dim2", "hnr", "generic"):
            for start in ("0", "-1", str(len(fam.horoballs))):
                assert main(["uncloud", str(fam_file), "--mode", mode, "--shrink-s", "0.2",
                             "--start", start]) == 1
                assert capsys.readouterr().err == \
                    "error: start index is not a tangent horoball\n"


def tree_document(edit, depth=2):
    tree = three_regular_tree(depth)
    doc = serialize.tree_to_document(tree, covering_family(tree))
    edit(doc["entries"])
    return doc


def tree_horoball(row):
    """The depth-3 covering document with its first horoball, [6, 0.0],
    replaced by row."""
    return tree_document(lambda e: e["horoballs"].__setitem__(0, row), 3)


def family_document(edit):
    doc = serialize.family_to_document(farey(3))
    edit(doc)
    return doc


class TestMalformedDocuments:
    """A document that lacks a field, or holds one of the wrong shape,
    makes the CLI exit 1 with an error line naming the document kind,
    not a traceback."""

    @pytest.mark.parametrize("doc,kind", [
        (tree_document(lambda e: e["edges"][0].__setitem__(2, "x")), "tree"),
        (tree_document(lambda e: e.__setitem__("root", [0])), "tree"),
        (tree_horoball([6, "0.0"]), "tree"),
        (tree_horoball([6, True]), "tree"),
        (tree_horoball([6.0, 0.0]), "tree"),
        (family_document(lambda d: d.pop("dim")), "family"),
        (family_document(lambda d: d["entries"].__setitem__(0, None)), "family"),
        (family_document(lambda d: d.__setitem__("entries", {"a": 1})), "family"),
        ([1], "family"),
    ], ids=["edge-length", "root", "string-level", "bool-level", "float-end", "no-dim",
            "no-base", "entries-object", "list"])
    def test_verify_packing(self, tmp_path, doc, kind):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["verify", "packing", "--family", str(path)])
        assert code == 1 and err.startswith(f"error: malformed {kind} document")
        assert "Traceback" not in err

    @pytest.mark.parametrize("geodesic", ['{"type": "arc"}', "[1]"], ids=["no-ends", "list"])
    def test_verify_avoidance(self, tmp_path, geodesic):
        path = tmp_path / "fam.json"
        path.write_text(serialize.dumps(serialize.family_to_document(farey(3))))
        code, _, err = run_cli(["verify", "avoidance", "--family", str(path),
                                "--geodesic", geodesic])
        assert code == 1 and err.startswith("error: malformed geodesic document")
        assert "Traceback" not in err


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_ends_quietly():
    # as `pack ... | head -c 50`: the 339 kB document outgrows the pipe,
    # so the write fails once the reader has closed it
    argv = [sys.executable, "-m", "horoshadow.cli", "pack", "farey", "--qmax", "200", "--infinity"]
    with subprocess.Popen(argv, env=src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{"dim": 2, "entries": [')
    assert err == b""  # no error line, and no "Exception ignored" at exit


def loaded_modules(code: str, cwd=None) -> set:
    """The modules loaded in a fresh interpreter that has run code (which
    may print lines of its own)."""
    code += "\nimport sys; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@functools.cache
def bare_modules() -> frozenset:
    """The modules a fresh interpreter loads on its own: `site` may import
    packages of the environment (certifi, say, which loads typing, re and
    collections), so they depend on where the tests run."""
    return frozenset(loaded_modules("pass"))


def fresh_modules(code: str, cwd=None) -> set:
    """The modules that running code adds to those of a bare fresh
    interpreter."""
    return loaded_modules(code, cwd) - bare_modules()


def test_cli_import_loads_no_numpy():
    # numpy is imported by the functions that use it, each layer by the
    # subcommands that run it, and json and fractions by the functions
    # that read or write documents and numbers; numeric's certificate is
    # a named tuple, so building the parser loads no dataclasses either
    mods = fresh_modules("import horoshadow.cli; horoshadow.cli.build_parser()")
    assert not {"numpy", "dataclasses", "inspect", "fractions", "decimal", "json"} & mods
    assert {m for m in mods if m.startswith("horoshadow")} == \
        {"horoshadow", "horoshadow.cli", "horoshadow.numeric"}


#: (subcommand, the modules it loads, modules it must not load); "{f}" is
#: a farey(8) family document and "{t}" a tree document
SUBCOMMAND_MODULES = [
    (["pack", "farey", "--qmax", "5", "--out", "out.json"], {"packings", "serialize"},
     {"trees", "heisenberg", "uncover", "sharp2d", "sharpnd", "rays"}),
    (["uncloud", "{f}", "--mode", "dim2", "--shrink-s", "0.4"], {"sharp2d", "sharpnd"},
     {"heisenberg", "trees", "rays"}),
    (["verify", "packing", "--family", "{t}"], {"trees"}, {"heisenberg"}),
    # the two commands that read no document write theirs without
    # loading serialize or the layers it reads
    (["verify", "constants"], {"heisenberg", "sharp2d", "uncover"},
     {"serialize", "packings", "halfspace", "trees", "rays"}),
    (["dioph", "--xi", "golden", "--t", "0.27", "--qmax", "100"], {"sharp2d"},
     {"serialize", "packings", "halfspace", "uncover", "heisenberg"}),
]


@pytest.mark.parametrize("argv,loaded,unloaded", SUBCOMMAND_MODULES,
                         ids=[" ".join(argv[:2]) for argv, *_ in SUBCOMMAND_MODULES])
def test_subcommand_loads_only_its_layers(tmp_path, argv, loaded, unloaded):
    main(["pack", "farey", "--qmax", "8", "--out", str(tmp_path / "f.json")])
    main(["pack", "tree", "--depth", "3", "--out", str(tmp_path / "t.json")])
    argv = [a.format(f="f.json", t="t.json") for a in argv]
    code = ("import sys\nfrom horoshadow.cli import main\n"
            f"if main({argv!r}) != 0: sys.exit('exit status not 0')")
    mods = {m.removeprefix("horoshadow.") for m in fresh_modules(code, tmp_path)}
    assert loaded <= mods and not unloaded & mods


def readme_commands() -> list:
    """The commands of README's `## Command line` block, continuation
    lines joined, comments and blank lines left out."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def test_readme_command_block(tmp_path):
    # each line runs in turn in one directory, horoshadow as
    # `python -m horoshadow.cli`, each stage of a pipeline reading the
    # output of the one before it; every stage must exit 0
    env = src_env()
    commands = readme_commands()
    assert len(commands) > 10
    for command in commands:
        out = None
        for stage in command.split(" | "):
            program, *argv = shlex.split(stage)
            assert program == "horoshadow", command
            proc = subprocess.run([sys.executable, "-m", "horoshadow.cli", *argv], input=out,
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=60)
            assert proc.returncode == 0, (command, proc.stderr)
            out = proc.stdout


def float_twin(doc):
    """The float document of the float columns of an exact document's
    family."""
    fam = serialize.document_to_family(doc)
    assert fam.exact is None
    return serialize.family_to_document(fam, doc["metadata"])


def run_cli(argv):
    """(exit status, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFloatModeReadsFloats:
    """Without --exact the CLI computes on floats alone: an exact
    document reads as its correctly rounded floats, so it and the float
    document of those floats give the same output bytes."""

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["farey", "farey+inf", "farey-wide+inf", "extremal-exact",
                                 "geometric"]),
           q=st.integers(2, 12), s=st.sampled_from(["1/5", "0.37", "3/5", "0.6"]),
           t_line=st.floats(1.35, 1.8), t_ray=st.floats(1.9, 2.4),
           point=st.tuples(st.floats(0.05, 0.95), st.floats(0.2, 0.9)))
    def test_outputs_are_byte_identical(self, kind, q, s, t_line, t_ray, point):
        fam = {"farey": lambda: farey(q),
               "farey+inf": lambda: farey(q, (0, 1), include_infinity=True),
               "farey-wide+inf": lambda: farey(q, (-1, 2), include_infinity=True),
               "extremal-exact": lambda: extremal(min(q, 6), Fraction(1, 2)),
               "geometric": lambda: geometric(-q, q)}[kind]()
        doc = serialize.family_to_document(fam)
        assert doc["rows"] == "exact"
        geodesic = json.dumps({"type": "vertical", "foot": [point[0]]})
        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for variant in (doc, float_twin(doc)):
                path = Path(tmp) / "fam.json"
                path.write_text(serialize.dumps(variant))
                f = str(path)
                runs = [run_cli(["uncloud", f, "--mode", mode, "--two", "--shrink-s", sv])
                        for mode, sv in (("dim2", s), ("hnr", s), ("generic", "1/5"))]
                runs.append(run_cli(["line", "--family", f, "--t", repr(t_line)]))
                runs.append(run_cli(["ray", "--family", f, "--point",
                                     f"{point[0]!r};{point[1]!r}", "--t", repr(t_ray)]))
                runs.append(run_cli(["verify", "packing", "--family", f]))
                runs.append(run_cli(["verify", "avoidance", "--family", f,
                                     "--geodesic", geodesic, "--t", repr(t_ray)]))
                outputs.append(runs)
        assert outputs[0] == outputs[1]
