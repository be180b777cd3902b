import json
import math
import re

import numpy as np
import pytest

from avd import CanonicalConfig, GridSpec, Point, SimilarityTransform, build_edge
from avd.classify import DegenerateJet, DegreeOneAnomaly, NotFromEdge, SharedComponent
from avd.cli import (
    EXIT_ANOMALY,
    EXIT_BAD_CONFIG,
    EXIT_IDENTICAL,
    EXIT_OK,
    build_report,
    load_scene,
    main,
)
from avd.tolerances import ANGLE_TOL, CONTAINMENT_TOL, FACTOR_TOL
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
        "block, factor, angle, containment",
        [
            (None, FACTOR_TOL, ANGLE_TOL, CONTAINMENT_TOL),
            ({"factor": 1e-6, "angle": 1e-3, "containment": 1e-4}, 1e-6, 1e-3, 1e-4),
        ],
    )
    def test_scene_tolerances_reach_the_checks(
        self, block, factor, angle, containment, tmp_path, monkeypatch, capsys
    ):
        import avd.cli as cli_mod

        scene = {"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]]}
        if block is not None:
            scene["tolerances"] = block
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        seen = []
        classify, validate = cli_mod.classify_edge, cli_mod.validate_curve

        def classify_spy(curve, tol):
            seen.append(("factor", tol))
            return classify(curve, tol)

        def validate_spy(curve, grid, tol, containment_tol):
            seen.append(("angle", tol))
            seen.append(("containment", containment_tol))
            return validate(curve, grid, tol, containment_tol)

        monkeypatch.setattr(cli_mod, "classify_edge", classify_spy)
        monkeypatch.setattr(cli_mod, "validate_curve", validate_spy)
        assert main(["edge", str(path)]) == EXIT_OK
        assert seen == [
            ("factor", factor),
            ("factor", factor),
            ("angle", angle),
            ("containment", containment),
        ]
        validation = json.loads(capsys.readouterr().out)["validation"]
        assert (validation["angle_tol"], validation["containment_tol"]) == (angle, containment)


class TestSceneLoading:
    def test_segments_and_grid(self, canonical_config_file):
        scene = load_scene(canonical_config_file)
        assert scene.canonical is not None
        assert scene.grid == GridSpec(-4, 4, -4, 4, 128, 128)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG

    def test_rejects_wrong_segment_count(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"segments": [[[0, 0], [1, 0]]]}))
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG

    def test_tolerances_parsed_to_floats(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
                                    "tolerances": {"factor": 1, "angle": "1e-3"}}))
        tolerances = load_scene(str(path)).tolerances
        assert tolerances == {"factor": 1.0, "angle": 1e-3}
        assert all(type(v) is float for v in tolerances.values())

    @pytest.mark.parametrize(
        "block",
        [
            {"factor": "abc"},
            {"containment": "nan"},
            {"angle": "inf"},
            {"factor": 0},
            {"containment": -1e-5},
            {"angle": None},
            {"factor": [1e-8]},
            {"residual": 1e-8},
            [1e-8],
        ],
    )
    def test_rejects_bad_tolerances(self, block, tmp_path, capsys):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"segments": [[[-1, 0], [1, 0]], [[0, 1], [2, 1]]],
                                    "tolerances": block}))
        assert main(["edge", str(path)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

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
        "change", [{"xmax": "inf"}, {"ymin": "-inf"}, {"nx": 2.9}, {"ny": 16.5}]
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

    def test_anomaly_exit_code(self, pair_config, monkeypatch):
        import avd.cli as cli_mod

        def boom(curve, grid, tol, angle_tol, containment_tol):
            raise DegreeOneAnomaly("forced")

        monkeypatch.setattr(cli_mod, "build_report", boom)
        assert main(["edge", pair_config]) == EXIT_ANOMALY

    @pytest.mark.parametrize("error", [SharedComponent, DegenerateJet, NotFromEdge])
    def test_classifier_errors_exit_code(self, error, pair_config, monkeypatch, capsys):
        import avd.cli as cli_mod

        def boom(curve, tol):
            raise error("forced")

        monkeypatch.setattr(cli_mod, "classify_edge", boom)
        assert main(["edge", pair_config]) == EXIT_ANOMALY
        assert capsys.readouterr().err == "error: forced\n"

    @pytest.mark.parametrize("factor, code", [(1e-16, EXIT_ANOMALY), (1e-15, EXIT_OK)])
    def test_edge_conic_mismatch_exit_code(self, factor, code, tmp_path, capsys):
        # a congruent antiparallel pair far from the origin: its degree-2
        # edge misses the edge-conic pattern by rounding at factor 1e-16
        path = tmp_path / "conic.json"
        path.write_text(json.dumps({
            "segments": [
                [[11.517709952147797, -98.31893202787222],
                 [8.319765117075988, -90.65742267490043]],
                [[5.010896254598704, -85.19648414976783],
                 [8.20884108967051, -92.85799350273962]],
            ],
            "tolerances": {"factor": factor},
        }))
        assert main(["edge", str(path), "--out", str(tmp_path / "r.json")]) == code
        want = "error: quadratic does not match the edge-conic pattern\n"
        assert capsys.readouterr().err == (want if code == EXIT_ANOMALY else "")

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

    def test_empty_validation_carries_no_curve(self, node_config):
        report = build_report(
            build_edge(node_config), GridSpec(50, 51, 50, 51, 16, 16), 1e-8, 1e-6, 1e-5
        )
        assert report.validation["status"] == "empty"
        assert report.curve_polylines == ()


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

    def test_single_segment_rejected(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"segments": [[[0, 0], [1, 0]]]}))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_BAD_CONFIG

    def test_duplicate_sites_exit_code(self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(
            {"segments": [[[0, 0], [1, 1]], [[2, 0], [3, 1]], [[1, 1], [0, 0]]]}
        ))
        assert main(["diagram", str(path), "--svg", str(tmp_path / "x.svg")]) == EXIT_IDENTICAL
        assert capsys.readouterr().err.startswith("error:")


class TestVerifyCommand:
    def test_single_scenario(self, capsys):
        assert main(["verify", "--only", "node"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_scenario_is_config_error(self, capsys):
        assert main(["verify", "--only", "nonsense"]) == EXIT_BAD_CONFIG

    def test_degree_search_reaches_degree_two(self, capsys):
        assert main(["verify", "--only", "degree1"]) == EXIT_OK
        assert "degrees seen: [2, 3]" in capsys.readouterr().out

    def test_full_run_passes_every_scenario(self, capsys):
        assert main(["verify"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert sum("  PASS  " in row for row in rows) == 10
        assert rows[-1] == "10/10 scenarios passed"


class TestReportRoundTrip:
    def test_json_round_trip(self, node_config):
        curve = build_edge(node_config)
        report = build_report(
            curve, GridSpec(-4, 4, -4, 4, 96, 96), 1e-8, 1e-6, 1e-5
        )
        assert json.loads(report.to_json()) == report.to_dict()
