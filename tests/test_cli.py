import json
import math
import re

import numpy as np
import pytest

from avd import (
    BivariatePoly,
    CanonicalConfig,
    EdgeClass,
    EdgeClassTag,
    EdgeCurve,
    GridSpec,
    Point,
    SimilarityTransform,
    build_edge,
    classify_edge,
    validate_curve,
    verify,
)
from avd.classify import NotFromEdge, SharedComponent
from avd.cli import (
    EXIT_ANOMALY,
    EXIT_BAD_CONFIG,
    EXIT_IDENTICAL,
    EXIT_OK,
    build_report,
    load_scene,
    main,
)
from avd.svg import CURVE_COLOR
from avd.tolerances import CONTAINMENT_TOL
from conftest import NODE_PAIR, random_config, similarity


@pytest.fixture
def pair_config(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]]}))
    return str(path)


@pytest.fixture
def canonical_config_file(tmp_path):
    path = tmp_path / "node.json"
    path.write_text(
        json.dumps(
            {
                "canonical": {
                    "a": 2.0,
                    "b": 4.0 / 3.0,
                    "l": 5.0 / 3.0,
                    "sin_alpha": -0.8,
                    "cos_alpha": 0.6,
                },
                "grid": {"xmin": -4, "xmax": 4, "ymin": -4, "ymax": 4,
                         "nx": 128, "ny": 128},
            }
        )
    )
    return str(path)


class TestSceneTolerances:
    @pytest.mark.parametrize(
        "block, containment",
        [(None, CONTAINMENT_TOL), ({"containment": 1e-4}, 1e-4)],
    )
    def test_scene_tolerances_reach_the_checks(
        self, block, containment, tmp_path, monkeypatch, capsys
    ):
        import avd.cli as cli_mod

        scene = {"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]]}
        if block is not None:
            scene["tolerances"] = block
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        seen = []
        validate = cli_mod.validate_curve

        def validate_spy(curve, grid, containment_tol):
            seen.append(containment_tol)
            return validate(curve, grid, containment_tol)

        monkeypatch.setattr(cli_mod, "validate_curve", validate_spy)
        assert main(["edge", str(path)]) == EXIT_OK
        assert seen == [containment]
        validation = json.loads(capsys.readouterr().out)["validation"]
        assert validation["containment_tol"] == containment


class TestSceneLoading:
    def test_segments_and_grid(self, canonical_config_file):
        scene = load_scene(canonical_config_file)
        assert scene.canonical is not None
        assert scene.grid == GridSpec(-4, 4, -4, 4, 128, 128)

    def test_rejects_garbage(self, tmp_path, capsys):
        path, svg = tmp_path / "bad.json", tmp_path / "x.svg"
        # not JSON, not UTF-8 (a UTF-16 byte order mark), nested past the parser's depth
        for data in (b"not json at all", b"\xff\xfe", b"[" * 100_000):
            path.write_bytes(data)
            for command in ("edge", "diagram"):
                assert main([command, str(path), "--svg", str(svg)]) == EXIT_BAD_CONFIG
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("error: cannot read config")
        assert not svg.exists()

    def test_rejects_wrong_segment_count(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"segments": [[[0, 0], [1, 0]]]}))
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG

    def test_tolerances_parsed_to_floats(self, tmp_path):
        path = tmp_path / "tol.json"
        for value, want in ((1, 1.0), ("1e-3", 1e-3)):
            path.write_text(json.dumps({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
                                        "tolerances": {"containment": value}}))
            containment_tol = load_scene(str(path)).containment_tol
            assert containment_tol == want and type(containment_tol) is float

    @pytest.mark.parametrize(
        "block",
        [
            {"containment": "abc"},
            {"containment": "nan"},
            {"containment": "inf"},
            {"containment": 0},
            {"containment": -1e-5},
            {"containment": None},
            {"containment": [1e-5]},
            {"residual": 1e-8},
            [1e-8],
            # classification and the equal-angle test use fixed thresholds
            {"factor": 1e-8},
            {"angle": 1e-6},
        ],
    )
    def test_rejects_bad_tolerances(self, block, tmp_path, capsys):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
                                    "tolerances": block}))
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "block",
        [
            {"a": 2.0, "b": 1.0, "l": 1.0, "alpha": 0.5},
            {"a": 2.0, "b": 1.0, "l": 1.0, "alpha": 0.5, "sin_alpha": 0.0, "cos_alpha": 1.0},
            {"a": 2.0, "b": 1.0, "l": 1.0, "sin_alpha": 0.0},
            {"a": 2.0, "b": 1.0, "l": 1.0, "sin_alpha": "nan", "cos_alpha": 1.0},
            [2.0, 1.0, 1.0, 0.0, 1.0],
        ],
    )
    def test_rejects_other_canonical_forms(self, block, tmp_path, capsys):
        path = tmp_path / "canon.json"
        path.write_text(json.dumps({"canonical": block}))
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["edge", "diagram"])
    def test_rejects_non_list_segments(self, command, tmp_path, capsys):
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"segments": 5}))
        assert main([command, str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("command", ["edge", "diagram"])
    @pytest.mark.parametrize(
        "change", [{"xmax": "inf"}, {"ymin": "-inf"}, {"nx": 2.9}, {"ny": 16.5},
                   # finite bounds whose extent overflows
                   {"xmin": -1.5e308, "xmax": 1.5e308},
                   # more nodes than numpy can index
                   {"nx": 1e300}, {"nx": 2.0 ** 40, "ny": 2.0 ** 40},
                   # JSON booleans are not numbers
                   {"xmin": False, "xmax": True}, {"nx": True}]
    )
    def test_rejects_bad_grid(self, command, change, tmp_path, capsys):
        grid = {"xmin": -4, "xmax": 4, "ymin": -4, "ymax": 4, "nx": 16, "ny": 16}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
                                    "grid": {**grid, **change}}))
        assert main([command, str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad grid object")

    @pytest.mark.parametrize("command", ["edge", "diagram"])
    @pytest.mark.parametrize("scene, message", [
        pytest.param(scene, message, id=f"scene{k}") for k, (scene, message) in enumerate([
            ({"segments": [[[True, 0], [1, 0]], [[0, 1], [2, 1]]]}, "expected a number, got "),
            ({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
              "tolerances": {"containment": True}}, "expected a number, got "),
            ({"canonical": {"a": 1, "b": False, "l": 1, "sin_alpha": 0.6, "cos_alpha": 0.8}},
             "expected a number, got "),
            # integer literals too large for a double, at each place a scene gives a number
            ({"segments": [[[10 ** 400, 0], [1, 0]], [[0, 1], [2, 1]]]}, "too large"),
            ({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
              "grid": {"xmin": -4, "xmax": 4, "ymin": -4, "ymax": 4, "nx": 10 ** 400, "ny": 16}},
             "too large"),
            ({"canonical": {"a": 10 ** 400, "b": 1, "l": 1, "sin_alpha": 0.6, "cos_alpha": 0.8}},
             "too large"),
            ({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
              "tolerances": {"containment": -(10 ** 400)}}, "too large"),
        ])
    ])
    def test_rejects_booleans_as_numbers(self, command, scene, message, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(scene))
        assert main([command, str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("command, stage", [("edge", "validate_curve"),
                                                ("diagram", "rasterize_diagram")])
    def test_allocation_failure_exit_code(self, command, stage, pair_config,
                                          tmp_path, monkeypatch, capsys):
        import avd.cli as cli_mod

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli_mod, stage, too_large)
        svg = tmp_path / "x.svg"
        assert main([command, pair_config, "--svg", str(svg)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not svg.exists()
        assert captured.err.startswith(f"error: {command} is out of range: Unable to allocate")

    @pytest.mark.parametrize("command, option", [("edge", "--out"), ("edge", "--svg"),
                                                 ("diagram", "--svg")])
    def test_unwritable_output_exit_code(self, command, option, pair_config, tmp_path,
                                         capsys):
        target = tmp_path / "missing" / "out"
        assert main([command, pair_config, option, str(target)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not target.exists()
        err = captured.err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    @pytest.mark.parametrize("count", [256, 256.0, "256"])
    def test_whole_node_counts_run(self, count, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
            "grid": {"xmin": -4, "xmax": 4, "ymin": -4, "ymax": 4, "nx": count, "ny": 64},
        }))
        grid = load_scene(str(path)).grid
        assert (grid.nx, type(grid.nx)) == (256, int)
        assert main(["edge", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK


class TestEdgeCommand:
    def test_report_canonical_block_is_a_scene(self, canonical_config_file, tmp_path,
                                               capsys):
        assert main(["edge", canonical_config_file]) == EXIT_OK
        first = capsys.readouterr().out
        scene = json.loads(open(canonical_config_file).read())
        scene["canonical"] = json.loads(first)["canonical"]
        path = tmp_path / "again.json"
        path.write_text(json.dumps(scene))
        assert main(["edge", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_report_on_stdout(self, pair_config, capsys):
        assert main(["edge", pair_config]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["edge_class"]["tag"] in (
            "cubic_irreducible_regular",
            "cubic_irreducible_singular",
            "cubic_circle_times_line",
        )
        assert report["mirror_class"]["tag"] == "quad_irreducible_hyperbola"
        assert any(p["tag"] == "congruent_parallel" for p in report["predicates"])
        assert report["validation"]["passed"] is True

    def test_canonical_block_runs_node_case(self, canonical_config_file, capsys):
        assert main(["edge", canonical_config_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["edge_class"]["tag"] == "cubic_irreducible_singular"
        sing = report["edge_class"]["singularities"][0]
        assert sing["kind"] == "node"
        assert abs(sing["x"] + 1.0) <= 1e-6 and abs(sing["y"] - 2.0) <= 1e-6

    def test_concyclic_scene_reports_factorable_class(self, tmp_path, capsys):
        # chords of one circle with equal lengths: the curve splits, and the
        # concyclic predicate is reported alongside the shared endpoint
        path = tmp_path / "concyclic.json"
        path.write_text(
            json.dumps({"segments": [[[-1, 0], [1, 0]], [[1, 0], [1, 2]]]})
        )
        assert main(["edge", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        tags = {report["edge_class"]["tag"], report["mirror_class"]["tag"]}
        assert "cubic_circle_times_line" in tags
        pred_tags = {p["tag"] for p in report["predicates"]}
        assert "concyclic_equal_length" in pred_tags

    def test_congruent_parallel_canonical_block(self, tmp_path, capsys):
        path = tmp_path / "parallel.json"
        path.write_text(
            json.dumps(
                {"canonical": {"a": 1.0, "b": 1.0, "l": 1.0,
                               "sin_alpha": 0.0, "cos_alpha": -1.0}}
            )
        )
        assert main(["edge", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["edge_class"]["tag"] == "quad_irreducible_hyperbola"

    def test_identical_segments_exit_code(self, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps({"segments": [[[0, 0], [1, 1]], [[1, 1], [0, 0]]]}))
        assert main(["edge", str(path)]) == EXIT_IDENTICAL

    @pytest.mark.parametrize("scene, code", [
        # a canonical block whose second segment is the first, either way round
        ({"canonical": {"a": 0, "b": 0, "l": 1, "sin_alpha": 0, "cos_alpha": 1}},
         EXIT_IDENTICAL),
        ({"canonical": {"a": 0, "b": 0, "l": 1, "sin_alpha": 0, "cos_alpha": -1}},
         EXIT_IDENTICAL),
        # canonical blocks whose second segment's endpoints round together
        ({"canonical": {"a": 1e200, "b": 0, "l": 1, "sin_alpha": 0, "cos_alpha": 1}},
         EXIT_BAD_CONFIG),
        ({"canonical": {"a": 1, "b": 0, "l": 1e-300, "sin_alpha": 0, "cos_alpha": 1}},
         EXIT_BAD_CONFIG),
        # canonicalizes to a ~ 1e160, whose edge table overflows
        ({"segments": [[[0, 0], [1e-160, 0]], [[0, 1], [1, 1]]]}, EXIT_BAD_CONFIG),
        # distinct pairs, far out and tiny: coincidence is relative to the pair
        ({"segments": [[[1e13, 0], [1e13, 3]], [[1e13, 5], [1e13, 8]]]}, EXIT_OK),
        ({"segments": [[[0, 0], [1e-13, 0]], [[0, 5e-14], [1e-13, 5e-14]]]}, EXIT_OK),
        # finite endpoints whose distance overflows
        ({"segments": [[[-1e308, 0], [0, 0]], [[1e308, 1], [0, 1]]]}, EXIT_BAD_CONFIG),
        # a finite extent whose canonical s2 underflows to a point
        ({"segments": [[[-1e308, 0], [0, 0]], [[0, 1], [1, 1]]]}, EXIT_BAD_CONFIG),
        # a cubic whose cubic terms are 1e-12 of its largest coefficient
        ({"canonical": {"a": 1e12, "b": 0, "l": 1e12, "sin_alpha": 0.6, "cos_alpha": 0.8}},
         EXIT_OK),
        # congruent antiparallel pairs far apart: a degree-2 edge, by its
        # configuration, whose quadratic terms are under 1e-10 of its largest
        # coefficient
        *(({"segments": [[[0, 0], [2, 0]], [[d + 2, 1], [d, 1]]]}, EXIT_OK)
          for d in (1e11, 1e12, 1e14)),
        # an edge table in range whose oracle and SVG marches overflow
        *(({"canonical": {"a": s, "b": 0, "l": s, "sin_alpha": 0.6, "cos_alpha": 0.8}},
           EXIT_BAD_CONFIG) for s in (1e153, 1e154)),
        # a finite extent whose default SVG window reaches past the largest double
        ({"segments": [[[-5e307, 0], [5e307, 0]], [[0, 1e306], [1e306, 1e306]]]},
         EXIT_BAD_CONFIG),
        # a scene grid whose canonical preimage overflows
        ({"segments": [[[0, 0], [1e-300, 0]], [[0, 1e-300], [1e-300, 1e-300]]],
          "grid": {"xmin": -1e10, "xmax": 1e10, "ymin": -1e10, "ymax": 1e10,
                   "nx": 8, "ny": 8}},
         EXIT_BAD_CONFIG),
        # near-coincident pairs, whose degree-2 branch has a y coefficient
        # that cancels to 0: s1 reversed and lifted off its line, s1 shifted
        # along it, and s1 reversed at length 2 + 2e-11, which has no conic
        # part at all
        *(({"segments": [[[-1, 0], [1, 0]], [[1, h], [-1, h]]]}, EXIT_OK)
          for h in (1e-9, 1e-10)),
        ({"segments": [[[-1, 0], [1, 0]], [[-0.999999999, 0], [1.000000001, 0]]]}, EXIT_OK),
        ({"segments": [[[-1, 0], [1, 0]], [[1.00000000001, 0], [-1.00000000001, 0]]]},
         EXIT_OK),
    ])
    def test_edge_exit_codes_at_the_range_limits(self, scene, code, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        out = [str(tmp_path / "r.json"), "--svg", str(tmp_path / "r.svg")]
        assert main(["edge", str(path), "--out", *out]) == code
        assert capsys.readouterr().err.count("error:") == (code != EXIT_OK)

    @pytest.mark.parametrize("error", [SharedComponent, NotFromEdge])
    def test_classifier_errors_exit_code(self, error, pair_config, monkeypatch, capsys):
        import avd.cli as cli_mod

        def boom(curve):
            raise error("forced")

        monkeypatch.setattr(cli_mod, "classify_edge", boom)
        assert main(["edge", pair_config]) == EXIT_ANOMALY
        assert capsys.readouterr().err == "error: forced\n"

    @pytest.mark.parametrize("a", [1e85, 1e100, 1e150])
    def test_far_canonical_blocks_run(self, a, tmp_path, capsys):
        # the Laplacian line's normal is about 1/a^2, whose square underflows
        path = tmp_path / "far.json"
        path.write_text(json.dumps(
            {"canonical": {"a": a, "b": 0, "l": 1, "sin_alpha": 0.6, "cos_alpha": 0.8}}
        ))
        assert main(["edge", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("scene", [
        # s2 is 3 subnormal steps wide and high, and its rounded length, 4
        # steps, puts (sin_alpha, cos_alpha) off the unit circle
        {"segments": [[[-1, 0], [1, 0]], [[0, 0], [1.5e-323, 1.5e-323]]]},
        # s2's length, 1e-323, underflows against the diameter once the
        # predicates scale the pair
        {"canonical": {"a": 0.5, "b": 0, "l": 5e-324, "sin_alpha": 0.6, "cos_alpha": 0.8}},
    ])
    def test_subnormal_s2_exit_code(self, scene, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(scene))
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: edge is out of range")

    @pytest.mark.parametrize("x", [1e60, 1e100])
    def test_far_site_pixels_exit_code(self, x, tmp_path, capsys):
        # a pixel x of about x * 3.6e252 in the 2e-250 wide window overflows
        path = tmp_path / "far.json"
        w = 1e-250
        path.write_text(json.dumps({
            "segments": [[[-1, 0], [1, 0]], [[x, 0], [x, 1]]],
            "grid": {"xmin": -w, "xmax": w, "ymin": -w, "ymax": w, "nx": 8, "ny": 8},
        }))
        svg = tmp_path / "x.svg"
        assert main(["edge", str(path), "--svg", str(svg)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not svg.exists()
        err = captured.err
        assert err.startswith("error: edge is out of range") and err.count("\n") == 1

    def test_far_antiparallel_pair_is_a_hyperbola(self, tmp_path, capsys):
        # a congruent antiparallel pair far from the origin: its degree-2
        # edge is classified from the configuration's (a, b), not from the
        # table, whose conic pattern holds only to rounding
        path = tmp_path / "conic.json"
        path.write_text(json.dumps({
            "segments": [
                [[11.517709952147797, -98.31893202787222],
                 [8.319765117075988, -90.65742267490043]],
                [[5.010896254598704, -85.19648414976783],
                 [8.20884108967051, -92.85799350273962]],
            ],
        }))
        out = tmp_path / "r.json"
        assert main(["edge", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["edge_class"]["tag"] == "quad_irreducible_hyperbola"
        assert report["mirror_class"]["tag"] == "cubic_irreducible_regular"
        assert report["validation"]["passed"] is True

    def test_svg_deterministic(self, canonical_config_file, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["edge", canonical_config_file, "--svg", str(a),
                     "--out", str(tmp_path / "r1.json")]) == EXIT_OK
        assert main(["edge", canonical_config_file, "--svg", str(b),
                     "--out", str(tmp_path / "r2.json")]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_svg_marches_the_branch_once(self, canonical_config_file, tmp_path,
                                         monkeypatch, capsys):
        import avd.cli as cli_mod

        marched = []
        march = cli_mod.implicit_polylines

        def spy(p, grid):
            marched.append(p)
            return march(p, grid)

        monkeypatch.setattr(cli_mod, "implicit_polylines", spy)
        assert main(["edge", canonical_config_file, "--svg", str(tmp_path / "a.svg"),
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
        # only the mirror branch; the curve comes from the validation march
        assert len(marched) == 1

    def test_validation_holds_only_what_the_run_decided(self, pair_config, capsys):
        assert main(["edge", pair_config]) == EXIT_OK
        validation = json.loads(capsys.readouterr().out)["validation"]
        assert sorted(validation) == [
            "containment_residual", "containment_tol", "curve_sample_count",
            "oracle_vertex_count", "passed", "realized_fraction", "status",
        ]

    def test_empty_validation_carries_no_curve(self, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
            "grid": {"xmin": 50, "xmax": 51, "ymin": 50, "ymax": 51, "nx": 16, "ny": 16},
        }))
        out, svg = tmp_path / "r.json", tmp_path / "r.svg"
        assert main(["edge", str(path), "--out", str(out), "--svg", str(svg)]) == EXIT_OK
        assert json.loads(out.read_text())["validation"] == {
            "status": "empty", "reason": "neither locus intersects the window"
        }
        assert CURVE_COLOR not in svg.read_text()


def _edge_json(tmp_path, segments, *extra) -> dict:
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"segments": segments}))
    out = tmp_path / "report.json"
    assert main(["edge", str(scene), "--out", str(out), *extra]) == EXIT_OK
    return json.loads(out.read_text())


class TestFrames:
    """Validation runs in the canonical frame; the SVG maps it to the world."""

    def test_node_marker_at_world_node(self, tmp_path):
        svg = tmp_path / "node.svg"
        _edge_json(tmp_path, NODE_PAIR, "--svg", str(svg))
        # default window: the world bounding box of NODE_CONFIG's canonical
        # window [-15, 15]^2, drawn 720 px wide
        corners = [similarity(Point(x, y)) for x in (-15.0, 15.0) for y in (-15.0, 15.0)]
        x_min = min(c[0] for c in corners)
        y_max = max(c[1] for c in corners)
        px = 720.0 / (max(c[0] for c in corners) - x_min)
        x, y = similarity(Point(-1.0, 2.0))
        want = ((x - x_min) * px, (y_max - y) * px)
        markers = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg.read_text())
        assert len(markers) == 1
        got = tuple(map(float, markers[0]))
        assert math.hypot(got[0] - want[0], got[1] - want[1]) <= 1.0

    def test_far_pair_validates_like_origin_pair(self, tmp_path):
        far = _edge_json(tmp_path, [[[1000, 1000], [1002, 1000]],
                                    [[1000.5, 1001], [1001.5, 1002.5]]])
        near = _edge_json(tmp_path, [[[0, 0], [2, 0]], [[0.5, 1], [1.5, 2.5]]])
        assert far["validation"]["status"] == "ok"
        assert far["validation"] == near["validation"]

    def test_similarity_keeps_oracle_vertex_count(self, tmp_path, rng):
        for _ in range(40):
            cfg = random_config(rng)
            pair = [cfg.canonical_s1(), cfg.canonical_s2()]
            t = SimilarityTransform(float(rng.uniform(-np.pi, np.pi)),
                                    float(rng.uniform(0.2, 5.0)),
                                    tuple(float(v) for v in rng.uniform(-1000, 1000, 2)))
            here, moved = (
                _edge_json(tmp_path, [[list(p) for p in s.endpoints] for s in segments])
                ["validation"].get("oracle_vertex_count")
                for segments in (pair, [t.apply_segment(s) for s in pair])
            )
            assert here is not None and here == moved


def scaled_sites(k: int) -> list:
    """Three diagram sites scaled by 2^k."""
    sites = [[[0, 0], [0.5, 0]], [[0.1, 0.4], [0.6, 0.5]], [[0.7, -0.2], [0.8, 0.3]]]
    return [[[math.ldexp(v, k) for v in p] for p in s] for s in sites]


class TestDiagramCommand:
    def test_three_sites(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        path.write_text(
            json.dumps(
                {"segments": [[[-2, 0], [0, 0]], [[1, 1], [2, 2]], [[0, -2], [2, -2]]]}
            )
        )
        svg = tmp_path / "three.svg"
        assert main(["diagram", str(path), "--svg", str(svg)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["sites"] == 3
        assert len(summary["region_cells"]) == 3
        assert svg.exists() and svg.read_text().startswith("<?xml")

    def test_summary_does_not_echo_the_svg_path(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        path.write_text(json.dumps(
            {"segments": [[[-2, 0], [0, 0]], [[1, 1], [2, 2]], [[0, -2], [2, -2]]]}
        ))
        outs = []
        for name in ("a.svg", "another-name.svg"):
            assert main(["diagram", str(path), "--svg", str(tmp_path / name)]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert sorted(json.loads(outs[0])) == ["boundary_cells", "grid", "region_cells", "sites"]
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "another-name.svg").read_bytes()

    def test_single_segment_rejected(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"segments": [[[0, 0], [1, 0]]]}))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG

    def test_canonical_block_rejected(self, tmp_path, capsys):
        path = tmp_path / "canon.json"
        path.write_text(json.dumps({
            "segments": [[[-2, 0], [0, 0]], [[1, 1], [2, 2]]],
            "canonical": {"a": 2.0, "b": 1.0, "l": 1.0, "sin_alpha": 0.0, "cos_alpha": 1.0},
        }))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()

    def test_negative_zero_on_the_window_edge_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "segments": [[[-0.0, 1.0], [1.0, 1.0]], [[0.5, 0.2], [0.9, 0.6]]],
            "grid": {"xmin": 0, "xmax": 2, "ymin": 0, "ymax": 2, "nx": 8, "ny": 8},
        }))
        svg = tmp_path / "zero.svg"
        assert main(["diagram", str(path), "--svg", str(svg)]) == EXIT_OK
        text = svg.read_text()
        assert '<line x1="0" ' in text and '"-0"' not in text

    def test_duplicate_sites_exit_code(self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(
            {"segments": [[[0, 0], [1, 1]], [[2, 0], [3, 1]], [[1, 1], [0, 0]]]}
        ))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_IDENTICAL
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("segments", [
        # the sites' extent overflows
        [[[-1e308, 0], [0, 0]], [[1e308, 1], [0, 1]]],
        # the extent is finite, but the padded default window is not
        [[[-1.7e308, 0], [0, 0]], [[0, 1], [1, 1]]],
        # the window is finite, but the angle products overflow or underflow
        scaled_sites(512),
        scaled_sites(-540),
    ])
    def test_out_of_range_exit_code(self, segments, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"segments": segments}))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()

    def test_far_site_pixels_exit_code(self, tmp_path, capsys):
        # the raster is fine, but the far site's pixel x, (1e306 + 1) * 360,
        # overflows
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "segments": [[[1e306, 0], [0, 0]], [[-1, 1], [1, 1.5]]],
            "grid": {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 8, "ny": 8},
        }))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: diagram is out of range") and err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()

    def test_default_window_scales_with_the_sites(self, tmp_path, capsys):
        counts = []
        for k in (-500, -10, 0, 10, 500):
            path = tmp_path / f"scaled{k}.json"
            path.write_text(json.dumps({"segments": scaled_sites(k)}))
            assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_OK
            summary = json.loads(capsys.readouterr().out)
            counts.append((summary["region_cells"], summary["boundary_cells"]))
        assert all(c == counts[0] for c in counts)


class TestVerifyCommand:
    def test_single_scenario(self, capsys):
        assert main(["verify", "--only", "node"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_scenario_is_config_error(self, capsys):
        assert main(["verify", "--only", "nonsense"]) == EXIT_BAD_CONFIG

    def test_negative_seed_is_config_error(self, capsys):
        assert main(["verify", "--only", "node", "--seed", "-1"]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "family",
        [
            lambda a, b: b == 0.0,
            lambda a, b: b != 0.0 and abs(a * a + b * b - 4.0) <= 1e-8,
            lambda a, b: b != 0.0 and abs(a * a + b * b - 4.0) > 1e-8,
        ],
        ids=["b=0", "radius-2", "b!=0"],
    )
    @pytest.mark.parametrize("exact_alpha", [True, False], ids=["sin=0", "from_angle"])
    def test_degree2_row_fails_on_a_mislabelled_family(
        self, family, exact_alpha, monkeypatch, capsys
    ):
        def mislabel(curve):
            cls = classify_edge(curve)
            cfg = curve.config
            if not family(cfg.a, cfg.b) or (cfg.sin_alpha == 0.0) != exact_alpha:
                return cls
            if cls.tag is EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES:
                return EdgeClass(EdgeClassTag.QUAD_IRREDUCIBLE_HYPERBOLA)
            return EdgeClass(EdgeClassTag.QUAD_TWO_ORTHOGONAL_LINES)

        monkeypatch.setattr(verify, "classify_edge", mislabel)
        assert main(["verify", "--only", "degree2"]) == 1
        assert capsys.readouterr().out.startswith("degree2  FAIL")

    def test_closed_form_row_fails_on_a_conic_edge(self, monkeypatch, capsys):
        # every draw's edge replaced by a degree-2 one, a rectangular hyperbola
        conic = build_edge(CanonicalConfig(1.0, 1.0, 1.0, 0.0, -1.0))
        monkeypatch.setattr(verify, "build_edge", lambda config: conic)
        assert main(["verify", "--only", "concyclic"]) == 1
        assert capsys.readouterr().out.startswith("concyclic  FAIL")

    def test_node_row_fails_on_a_regular_cubic(self, monkeypatch, capsys):
        regular = build_edge(CanonicalConfig.from_angle(1.3, 0.7, 0.8, 0.5))
        monkeypatch.setattr(verify, "build_edge", lambda config: regular)
        assert main(["verify", "--only", "node"]) == 1
        assert capsys.readouterr().out.startswith("node  FAIL")

    def test_node_row_evaluates_the_node(self, monkeypatch, capsys):
        # the constant term 5e-13 off, within the table check, with the
        # classification kept: only F at (-1, 2) sees that the node is gone
        curve = build_edge(verify.NODE_CONFIG)
        cls = classify_edge(curve)
        table = curve.poly.coeffs.copy()
        table[0, 0] += 2e-12
        moved = EdgeCurve(curve.config, BivariatePoly(table), curve.mirror_poly)
        monkeypatch.setattr(verify, "build_edge", lambda config: moved)
        monkeypatch.setattr(verify, "classify_edge", lambda curve: cls)
        assert main(["verify", "--only", "node"]) == 1
        assert capsys.readouterr().out.startswith("node  FAIL")

    def test_degree_search_reaches_degree_two(self, capsys):
        assert main(["verify", "--only", "degree1"]) == EXIT_OK
        assert "degrees seen: [2, 3]" in capsys.readouterr().out

    def test_degree1_row_fails_on_a_conic_miss(self, monkeypatch, capsys):
        # the degree-2 family's edges, each given a table whose terms of
        # degree 2 and 3 are dropped
        def linear(config):
            curve = build_edge(config)
            if curve.degree == 3:
                return curve
            low = np.add.outer(np.arange(4), np.arange(4)) <= 1
            table = np.where(low, curve.poly.coeffs, 0.0)
            return EdgeCurve(config, BivariatePoly(table), curve.mirror_poly)

        monkeypatch.setattr(verify, "build_edge", linear)
        assert main(["verify", "--only", "degree1"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("degree1  FAIL")
        assert "100 of 10100 missed" in out

    def test_full_run_passes_every_scenario(self, capsys):
        assert main(["verify"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[:2] for row in rows[:-1]] == [
            [name, "PASS"] for name in (
                "node", "concyclic", "orthocross", "collinear", "shared-endpoint",
                "degree2", "degree1", "containment",
            )
        ]
        assert rows[-1] == "8/8 scenarios passed"


class TestReportRoundTrip:
    def test_json_round_trip(self, node_config):
        curve = build_edge(node_config)
        report = build_report(
            curve,
            classify_edge(curve),
            classify_edge(curve.mirrored()),
            validate_curve(curve, GridSpec(-4, 4, -4, 4, 96, 96), 1e-5),
        )
        assert json.loads(json.dumps(report, indent=2, sort_keys=True)) == report
