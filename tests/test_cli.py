from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conicrig import onedim
from conicrig.cli import (
    FrameworkFile,
    build_parser,
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


@pytest.mark.parametrize(
    "data, message",
    [
        ({"dimension": 2, "n": 3, "simple_edges": [[0, 1], [1, 0], [0, 1]],
          "double_edges": [[1, 2]]}, "simple_edges lists the pair [1, 0] twice"),
        (dict(GAMMA5_FILE, double_edges=[[1, 3], [3, 1]]),
         "double_edges lists the pair [3, 1] twice"),
        (dict(PINNED_FILE, arcs=PINNED_FILE["arcs"] + [["c", "d"]]),
         "arcs lists the pair ['c', 'd'] twice"),
    ],
    ids=["simple-edge-reversed", "double-edge-reversed", "arc"],
)
def test_pairs_listed_twice_are_errors(tmp_path, capsys, data, message):
    path = dump(tmp_path, "repeated.json", data)
    assert main(["decompose", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


THREE_IDS = {"dimension": 2, "vertices": ["a", "b", "c"]}


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("decompose", dict(THREE_IDS, simple_edges=[["a", "b"]], double_edges=[["b", "a"]]),
         "simple edge ['a', 'b'] and double edge ['b', 'a'] name the same pair"),
        ("decompose", dict(THREE_IDS, simple_edges=[["c", "c"]]),
         "simple edge ['c', 'c'] is a self loop"),
        ("check", dict(PINNED_FILE, arcs=[["a", "b"], ["a", "a"]]),
         "arc ['a', 'a'] is a self loop"),
        ("check", dict(PINNED_FILE, vertices=PINNED_FILE["vertices"][:2] + [
            {"id": "c", "position": [-0.0, 0.0]}, {"id": "d", "position": [0.0, -0.0]}]),
         "coincident positions at vertices 'a' and 'c'"),
        # the first pair in index order, as Configuration names it
        ("check", {"dimension": 2, "arcs": [], "vertices": [
            {"id": v, "position": x} for v, x in
            zip("abcde", ([0, 0], [5, 5], [2, 2], [2, 2], [5, 5]))]},
         "coincident positions at vertices 'b' and 'e'"),
    ],
    ids=["simple-and-double", "edge-self-loop", "arc-self-loop", "coincident",
         "coincident-first-pair"],
)
def test_input_errors_name_the_file_ids(tmp_path, capsys, command, data, message):
    path = dump(tmp_path, "bad.json", data)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_near_ties_are_logged_by_file_id(tmp_path):
    # a and b lie 1e-13 apart; the tie is reported once, through the CLI logger
    data = {
        "dimension": 1,
        "vertices": [
            {"id": "a", "position": [0.0]},
            {"id": "b", "position": [1e-13]},
            {"id": "c", "position": [1.0]},
        ],
        "arcs": [["a", "b"], ["b", "c"]],
    }
    path = dump(tmp_path, "tie.json", data)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, CONIC_RIGIDITY_LOG="warn")
    done = subprocess.run([sys.executable, "-m", "conicrig.cli", "check", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "verdict: flexible" in done.stdout
    assert "UserWarning" not in done.stderr
    assert done.stderr.count("WARNING conicrig.cli: arc ['a', 'b'] orders positions") == 1
    assert "(0, 1)" not in done.stderr


@pytest.mark.parametrize(
    "positions, ties, cross_check",
    [
        # adjacent doubles at 1e6: below the numeric cutoff, so flagged
        ([0.0, 1e6, float(np.nextafter(1e6, 2e6))], ["['b', 'c']", "['c', 'b']"],
         "(DISAGREES with the exact test)"),
        # every gap is as large as the coordinates themselves
        ([0.0, 1e-13, 3e-13], [], "(agrees)"),
    ],
    ids=["large-coordinates", "small-coordinates"],
)
def test_near_ties_are_relative_to_the_coordinate_scale(
    tmp_path, capsys, caplog, positions, ties, cross_check
):
    data = {
        "dimension": 1,
        "vertices": [{"id": v, "position": [x]} for v, x in zip("abc", positions)],
        "arcs": [["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"]],
    }
    path = dump(tmp_path, "scale.json", data)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert f"numeric rank: {2 if ties else 4} / 4 {cross_check}" in out
    logged = [r.getMessage() for r in caplog.records if "orders positions" in r.getMessage()]
    assert [m.split(" orders")[0] for m in logged] == [f"arc {t}" for t in ties]


def test_flexible_line_check_splits_its_arcs_once(tmp_path, monkeypatch):
    # the flex witness reads the exact test's components
    calls = {"split_arcs": 0, "connected_components": 0}

    def counted(name):
        real = getattr(onedim, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(onedim, name, wrapper)

    counted("split_arcs")
    counted("connected_components")
    path = dump(tmp_path, "flex1d.json", quad_file(QUAD_FLEX_COORDS))
    assert main(["check", path]) == 1
    assert calls == {"split_arcs": 1, "connected_components": 2}


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


def test_compare_output():
    # the arc counts the removed `compare` printed, now from savings_table.py
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "savings_table.py"),
         "--d", "2", "3", "--sizes", "4", "100"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert ["4", "8", "10", "20.00%"] in rows  # d = 2
    assert ["100", "393", "588", "33.16%"] in rows  # d = 3
    assert [row[-1] for row in rows if row[:1] == ["limit"]] == ["25.00%", "33.33%"]


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
        ["check", "FILE", "--seeds", "3"],
        ["random", "4", "5", "--trace", "t.json"],
        ["check", "FILE", "--seed", "1"],
        ["random", "4", "5", "--tol", "1e-9"],
        ["design", "6", "--tol", "1e-9"],
        ["design", "6", "--seeds", "3"],
        ["check", "FILE", "--tol", "1e-9"],
        ["decompose", "FILE", "--tol", "1e-9"],
        ["decompose", "FILE", "--seeds", "3"],
        ["decompose", "FILE", "--seed", "7"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, argv):
    path = dump(tmp_path, "pinned.json", PINNED_FILE)
    with pytest.raises(SystemExit) as exc:
        main([path if a == "FILE" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_the_cli_offers_its_verdict_commands_alone(capsys):
    # compare and flex-demo moved to scripts/savings_table.py and scripts/flex_demo.py
    for argv in (["compare", "4"], ["flex-demo", "hyperbola"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["check", "decompose", "design", "random"]


def test_a_seeded_design_decomposes_as_rigid(tmp_path, capsys):
    designed = str(tmp_path / "designed.json")
    assert main(["design", "7", "--seed", "3", "--out", designed]) == 0
    capsys.readouterr()
    assert main(["decompose", designed]) == 0
    assert "verdict: rigid" in capsys.readouterr().out


def test_random_rejects_impossible_requests(capsys):
    assert main(["random", "3", "7"]) == 2  # only 6 ordered pairs exist
    assert "arc count" in capsys.readouterr().err


def test_random_picks_the_pairs_the_ordered_pair_list_gives(capsys):
    for n in range(2, 13):
        ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
        for arcs in range(len(ordered) + 1):
            seed = 100 * n + arcs
            assert main(["random", str(n), str(arcs), "--seed", str(seed)]) == 0
            data = json.loads(capsys.readouterr().out)
            rng = np.random.default_rng(seed)
            picked = sorted(ordered[i] for i in rng.choice(len(ordered), arcs, replace=False))
            assert data["arcs"] == [[str(u), str(w)] for u, w in picked]
            positions = rng.random((n, 2))
            assert [v["position"] for v in data["vertices"]] == positions.tolist()


def test_random_memory_does_not_grow_with_the_pair_count(tmp_path):
    tracemalloc.start()
    try:
        assert main(["random", "1500", "10", "--out", str(tmp_path / "r.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


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
    "data, vertex",
    [
        (_with_vertex(quad_file(QUAD_RIGID_COORDS), position=[-1e200]), "v0"),
        (_with_vertex(PINNED_FILE, position=[1e200, 0.0]), "a"),
        (_with_vertex(PINNED_FILE, position=[0.0, -1e308]), "a"),
    ],
    ids=["line-1e200", "plane-1e200", "plane-1e308"],
)
def test_check_refuses_coordinates_whose_squares_overflow(tmp_path, capsys, data, vertex):
    path = dump(tmp_path, "huge.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"vertex {vertex!r}" in captured.err
    # decompose reads only the graph of the file, which stays valid
    assert main(["decompose", path, "--d", "2"]) in (0, 1)
    assert "verdict:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["design", "6", "--seed", "-1"], "--seed"),
        (["random", "4", "4", "--seed", "-2"], "--seed"),
    ],
    ids=["design-seed-negative", "random-seed-negative"],
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
    assert main(["random", "4", "5"]) == 2
    assert "CONIC_RIGIDITY_LOG" in capsys.readouterr().err
