import json
import math
from fractions import Fraction

import pytest

from horoshadow import serialize
from horoshadow.cli import main
from horoshadow.halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    TangentHoroball,
    VerticalGeodesic,
)
from horoshadow.packings import HoroballFamily, farey, random_disjoint
from horoshadow.trees import covering_family, three_regular_tree


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

    def test_render_svg(self, tmp_path):
        fam_file = tmp_path / "fam.json"
        svg_file = tmp_path / "fam.svg"
        main(["pack", "farey", "--qmax", "4", "--infinity",
              "--out", str(fam_file)])
        assert main(["render", "--family", str(fam_file),
                     "--geodesic",
                     '{"type":"vertical","foot":[0.6180339887498949]}',
                     "--svg", str(svg_file)]) == 0
        text = svg_file.read_text()
        assert text.startswith("<svg") and "<circle" in text and "<line" in text

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

    def test_exact_extremal_needs_rational_scale(self):
        with pytest.raises(SystemExit):
            main(["pack", "extremal", "--generations", "3", "--exact"])

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

    def test_exact_shrink_time_rejected(self, tmp_path):
        fam_file = tmp_path / "fam.json"
        main(["pack", "farey", "--qmax", "3", "--out", str(fam_file)])
        with pytest.raises(SystemExit):
            main(["uncloud", str(fam_file), "--exact", "--shrink-t", "0.5"])

    def test_verify_packing_tree_document(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        main(["pack", "tree", "--depth", "5", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "packing", "--family", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

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
