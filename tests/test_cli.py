from __future__ import annotations

import json
import warnings

import pytest

from conicrig.cli import (
    FrameworkFile,
    framework_file_dict,
    load_input_file,
    main,
    parse_framework_file,
)
from golden import QUAD_ARCS, QUAD_BIASES, QUAD_FLEX_COORDS, QUAD_RIGID_COORDS

PINNED_FILE = {
    "dimension": 2,
    "vertices": [
        {"id": "a", "position": [0.0, 0.0], "bias": 0.0},
        {"id": "b", "position": [4.0, 0.0], "bias": 0.3},
        {"id": "c", "position": [1.0, 2.0], "bias": -0.1},
        {"id": "d", "position": [2.5, 1.2], "bias": 0.2},
    ],
    "arcs": [
        ["a", "b"], ["b", "a"], ["a", "c"], ["c", "a"], ["b", "c"], ["c", "b"],
        ["a", "d"], ["d", "b"], ["c", "d"],
    ],
}

GAMMA5_FILE = {
    "dimension": 2,
    "vertices": [0, 1, 2, 3, 4],
    "simple_edges": [
        [0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [2, 3], [2, 4], [3, 4]
    ],
    "double_edges": [[1, 3]],
}


def quad_file(coords):
    return {
        "dimension": 1,
        "vertices": [
            {"id": f"v{i}", "position": [coords[i]], "bias": QUAD_BIASES[i]}
            for i in range(4)
        ],
        "arcs": [[f"v{u}", f"v{w}"] for u, w in QUAD_ARCS],
    }


def dump(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_framework_file_round_trip(tmp_path):
    path = dump(tmp_path, "pinned.json", PINNED_FILE)
    loaded = load_input_file(path)
    assert isinstance(loaded, FrameworkFile)
    assert loaded.ids == ("a", "b", "c", "d")
    assert framework_file_dict(loaded) == PINNED_FILE
    again = parse_framework_file(framework_file_dict(loaded))
    assert again.framework == loaded.framework


def test_framework_file_validation():
    with pytest.raises(ValueError):
        parse_framework_file({"dimension": 0, "vertices": [], "arcs": []})
    base = {
        "dimension": 2,
        "vertices": [{"id": "a", "position": [0.0, 0.0]}],
        "arcs": [["a", "zz"]],
    }
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_framework_file(base)
    dup = {
        "dimension": 1,
        "vertices": [
            {"id": "a", "position": [0.0]},
            {"id": "a", "position": [1.0]},
        ],
        "arcs": [],
    }
    with pytest.raises(ValueError, match="duplicate"):
        parse_framework_file(dup)


def test_check_rigid_framework(tmp_path, capsys):
    path = dump(tmp_path, "pinned.json", PINNED_FILE)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: rigid" in out
    assert "rank: 8 / 8" in out


def test_check_flexible_framework_prints_a_flex(tmp_path, capsys):
    data = dict(PINNED_FILE, arcs=PINNED_FILE["arcs"][:-1])  # drop one arc
    path = dump(tmp_path, "loose.json", data)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "verdict: flexible" in out
    assert "nontrivial flex" in out


def test_check_one_dimensional_files(tmp_path, capsys):
    rigid = dump(tmp_path, "rigid1d.json", quad_file(QUAD_RIGID_COORDS))
    assert main(["check", rigid]) == 0
    out = capsys.readouterr().out
    assert "increasing shadow components: 1" in out
    assert "(agrees)" in out

    loose = dump(tmp_path, "flex1d.json", quad_file(QUAD_FLEX_COORDS))
    assert main(["check", loose]) == 1
    out = capsys.readouterr().out
    assert "decreasing shadow components: 2" in out
    assert "constraint residual of the flex: 0.000e+00" in out


def test_check_rejects_graph_files(tmp_path, capsys):
    path = dump(tmp_path, "g5.json", GAMMA5_FILE)
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_conic_graph_file(tmp_path, capsys):
    path = dump(tmp_path, "g5.json", GAMMA5_FILE)
    trace_path = str(tmp_path / "trace.json")
    assert main(["decompose", path, "--trace", trace_path]) == 0
    out = capsys.readouterr().out
    assert "verdict: rigid" in out
    assert "numeric cross-check: rank 11 / 11" in out
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["ids"] == [0, 1, 2, 3, 4]
    assert trace["rigid"] is True
    assert trace["rounds"]


def test_decompose_accepts_framework_files(tmp_path, capsys):
    path = dump(tmp_path, "pinned.json", PINNED_FILE)
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: rigid" in out


def test_decompose_not_rigid_exit_code(tmp_path, capsys):
    data = dict(GAMMA5_FILE, simple_edges=GAMMA5_FILE["simple_edges"][:-1])
    path = dump(tmp_path, "short.json", data)
    assert main(["decompose", path]) == 1
    out = capsys.readouterr().out
    assert "verdict: not rigid" in out
    assert "reason:" in out


def test_decompose_rejects_the_line(tmp_path, capsys):
    path = dump(tmp_path, "flex1d.json", quad_file(QUAD_FLEX_COORDS))
    assert main(["decompose", path]) == 2
    assert "d >= 2" in capsys.readouterr().err


def test_design_is_deterministic_and_rigid(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["design", "7", "--out", a]) == 0
    assert main(["design", "7", "--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    c = str(tmp_path / "c.json")
    assert main(["design", "7", "--seed", "9", "--out", c]) == 0
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "c.json").read_bytes()
    capsys.readouterr()
    assert main(["decompose", a]) == 0
    assert "verdict: rigid" in capsys.readouterr().out
    data = json.loads((tmp_path / "a.json").read_text())
    arcs = len(data["simple_edges"]) + 2 * len(data["double_edges"])
    assert arcs == 2 * 7 - 3 + 7 - 1
    assert len(data["suggested_arcs"]) == arcs


def test_design_stdout_is_pure_json(capsys):
    # the human summary goes to stderr so redirects stay parseable
    assert main(["design", "7"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["dimension"] == 2
    assert "designed" in captured.err


def test_compare_output(capsys):
    assert main(["compare", "4"]) == 0
    out = capsys.readouterr().out
    assert "one-way arcs for rigidity: 8" in out
    assert "two-way arcs (both directions on a rigid graph): 10" in out
    assert "saving at this size: 20.0%" in out
    assert "saving as the fleet grows: 25.0%" in out

    assert main(["compare", "100", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "one-way arcs for rigidity: 393" in out
    assert "saving as the fleet grows: 33.3%" in out


def test_flex_demo_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "hyp.csv"
    assert main(["flex-demo", "hyperbola", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "curve: hyperbola" in out
    assert "max pseudo-range drift" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,beta"
    assert len(lines) == 101
    # all floats parse back
    float_cells = [float(c) for line in lines[1:] for c in line.split(",")]
    assert len(float_cells) == 100 * 4


def test_flex_demo_stdout_when_no_file(capsys):
    assert main(["flex-demo", "ellipse", "--samples", "7"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "t,x,y,beta"
    assert len(lines) == 8
    assert "curve: ellipse" in captured.err


def test_flex_demo_intersection(capsys):
    assert main(["flex-demo", "intersection"]) == 0
    out = capsys.readouterr().out
    assert "placement A: position (2.5, 1.2)  bias 0.2" in out
    assert "placement B:" in out


def test_random_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["random", "5", "9", "--out", a]) == 0
    assert main(["random", "5", "9", "--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    data = json.loads((tmp_path / "a.json").read_text())
    assert len(data["vertices"]) == 5
    assert len(data["arcs"]) == 9
    capsys.readouterr()
    assert main(["check", a]) in (0, 1)  # must parse and run


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "4", "--tol", "1e-9"],
        ["flex-demo", "hyperbola", "--seeds", "3"],
        ["check", "FILE", "--seed", "1"],
        ["random", "4", "5", "--tol", "1e-9"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, argv):
    path = dump(tmp_path, "pinned.json", PINNED_FILE)
    with pytest.raises(SystemExit) as exc:
        main([path if a == "FILE" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sampling_flags_still_parse_where_they_are_read(tmp_path, capsys):
    path = dump(tmp_path, "g5.json", GAMMA5_FILE)
    assert main(["decompose", path]) == 0
    plain = capsys.readouterr().out
    assert main(["decompose", path, "--tol", "1e-9", "--seeds", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == plain
    designed = str(tmp_path / "designed.json")
    assert main(["design", "7", "--seeds", "3", "--out", designed]) == 0
    capsys.readouterr()
    assert main(["decompose", designed]) == 0
    assert "verdict: rigid" in capsys.readouterr().out


def test_random_rejects_impossible_requests(capsys):
    assert main(["random", "3", "7"]) == 2  # only 6 ordered pairs exist
    assert "arc count" in capsys.readouterr().err


def test_unreadable_and_malformed_files(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["check", str(empty)]) == 2
    capsys.readouterr()


def _with_vertex(data, **fields):
    """data with its first vertex entry updated."""
    verts = [dict(data["vertices"][0], **fields)] + data["vertices"][1:]
    return dict(data, vertices=verts)


@pytest.mark.parametrize(
    "data, field",
    [
        (dict(PINNED_FILE, arcs=5), "arcs"),
        (dict(GAMMA5_FILE, simple_edges=7), "simple_edges"),
        (dict(PINNED_FILE, arcs=[[["a"], "b"]]), "arc"),
        (dict(GAMMA5_FILE, double_edges=[[1, ["a"]]]), "double edge"),
        (_with_vertex(PINNED_FILE, bias=[1]), "bias"),
        (_with_vertex(PINNED_FILE, position=[None, 0.0]), "coordinate"),
        (_with_vertex(PINNED_FILE, position=["1e3", 0.0]), "vertex 'a' coordinate"),
        (_with_vertex(PINNED_FILE, position=[True, 0.0]), "vertex 'a' coordinate"),
        (_with_vertex(PINNED_FILE, bias="0.5"), "vertex 'a' bias"),
        (dict(quad_file(QUAD_RIGID_COORDS), dimension=True), "dimension"),
        (dict(GAMMA5_FILE, dimension=True), "dimension"),
    ],
    ids=["arcs", "simple-edges", "arc-id", "double-edge-id", "bias", "coordinate",
         "string-coordinate", "boolean-coordinate", "string-bias",
         "dimension-framework", "dimension-graph"],
)
def test_malformed_field_types_are_errors(tmp_path, capsys, data, field):
    path = dump(tmp_path, "malformed.json", data)
    for command in ("check", "decompose"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "data, field",
    [
        (_with_vertex(PINNED_FILE, position=[float("nan"), 0.0]), "vertex 'a' coordinate"),
        (_with_vertex(quad_file(QUAD_RIGID_COORDS), position=[float("inf")]),
         "vertex 'v0' coordinate"),
        (_with_vertex(PINNED_FILE, bias=float("nan")), "vertex 'a' bias"),
        (_with_vertex(PINNED_FILE, position=[10**400, 0.0]), "vertex 'a' coordinate"),
    ],
    ids=["nan-position", "infinite-position", "nan-bias", "huge-integer-position"],
)
def test_non_finite_numbers_are_errors(tmp_path, capsys, data, field):
    path = dump(tmp_path, "non_finite.json", data)  # json writes NaN and Infinity
    for command in ("check", "decompose"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "FILE", "--tol", "nan"], "--tol"),
        (["check", "FILE", "--tol", "-1"], "--tol"),
        (["check", "FILE", "--tol", "0"], "--tol"),
        (["decompose", "FILE", "--seeds", "0"], "--seeds"),
        (["decompose", "FILE", "--seeds", "-2"], "--seeds"),
        (["design", "6", "--seeds", "0"], "--seeds"),
    ],
    ids=["tol-nan", "tol-negative", "tol-zero", "decompose-seeds-zero",
         "decompose-seeds-negative", "design-seeds-zero"],
)
def test_numeric_flags_out_of_range_are_usage_errors(tmp_path, capsys, argv, flag):
    path = str(tmp_path / "random.json")
    assert main(["random", "6", "20", "--out", path]) == 0
    with pytest.raises(SystemExit) as exc:
        main([path if a == "FILE" else a for a in argv])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_log_level_env_is_validated(monkeypatch, capsys):
    monkeypatch.setenv("CONIC_RIGIDITY_LOG", "loud")
    assert main(["compare", "4"]) == 2
    assert "CONIC_RIGIDITY_LOG" in capsys.readouterr().err
