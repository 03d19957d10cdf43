import json
import time

import pytest

from fsgame import cli, hierarchy, kripke
from fsgame.cli import build_experiment_report, main
from fsgame.game import GamePosition, position_to_dict


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path, m_empty, m_single, vv1, ee1, e1):
    paths = {}
    paths["m_empty"] = tmp_path / "m_empty.json"
    kripke.write_pointed(paths["m_empty"], m_empty)
    paths["m_single"] = tmp_path / "m_single.json"
    kripke.write_pointed(paths["m_single"], m_single)
    paths["e1"] = tmp_path / "e1.json"
    kripke.write_pointed(paths["e1"], e1)
    paths["vv1"] = tmp_path / "vv1.json"
    kripke.write_modelset(paths["vv1"], vv1)
    paths["ee1"] = tmp_path / "ee1.json"
    kripke.write_modelset(paths["ee1"], ee1)
    paths["pos_simple"] = tmp_path / "pos_simple.json"
    pos = GamePosition(1, 0, {m_empty}, {m_single})
    paths["pos_simple"].write_text(json.dumps(position_to_dict(pos)))
    return {name: str(path) for name, path in paths.items()}


def test_eval_true(capsys, files):
    code, out, _ = run(capsys, "eval", files["m_empty"], "[]F")
    assert code == 0
    data = json.loads(out)
    assert data["value"] is True
    assert data["ms"] == 1 and data["cs"] == 0
    assert {"subformula": "F", "value": False} in data["trace"]


def test_eval_false(capsys, files):
    code, out, _ = run(capsys, "eval", files["e1"], "[][]F | []<>T")
    assert code == 0
    assert json.loads(out)["value"] is False


def test_eval_malformed_formula(capsys, files):
    code, out, err = run(capsys, "eval", files["m_empty"], "[]F |")
    assert code == 2
    assert "position" in err


def test_eval_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "nope.json"), "T")
    assert code == 2


def test_bisim_command(capsys, files):
    code, out, err = run(capsys, "bisim", files["m_empty"], files["m_single"], "--depth", "1")
    assert code == 0
    assert json.loads(out) == {"bisimilar": False, "depth": 1}
    assert "not 1-bisimilar" in err

    code, out, err = run(capsys, "bisim", files["m_empty"], files["m_single"], "--depth", "0")
    assert code == 0
    assert json.loads(out)["bisimilar"] is True

    code, out, _ = run(
        capsys, "bisim", files["e1"], files["e1"], "--depth", "3", "--witness"
    )
    data = json.loads(out)
    assert data["bisimilar"] is True
    assert len(data["witness"]["layers"]) == 4


def test_solve_position_file(capsys, files):
    code, out, _ = run(capsys, "solve", files["pos_simple"])
    assert code == 0
    data = json.loads(out)
    assert data["winner"] == "S" and data["formula"] == "[]F"
    assert data["ms"] == 1 and data["cs"] == 0 and data["nodes"] >= 1


def test_solve_flags_form(capsys, files):
    code, out, _ = run(
        capsys,
        "solve",
        "--left", files["vv1"], "--right", files["ee1"], "--m", "3", "--k", "0",
    )
    assert code == 0
    assert json.loads(out)["winner"] == "D"


@pytest.mark.parametrize(
    "command",
    [("solve", "--m", "4", "--k", "1"), ("minimal", "--max-size", "5")],
    ids=["solve", "minimal"],
)
def test_solve_budget_refusal(capsys, files, command):
    code, out, _ = run(
        capsys,
        command[0],
        "--left", files["vv1"], "--right", files["ee1"], *command[1:],
        "--node-limit", "2",
    )
    assert code == 1
    assert json.loads(out) == {"error": "budget-exceeded", "nodes": 3}


def test_solve_rejects_boolean_budget(capsys, tmp_path, m_empty, m_single):
    obj = position_to_dict(GamePosition(1, 0, {m_empty}, {m_single}))
    path = tmp_path / "pos_bool.json"
    path.write_text(json.dumps({**obj, "m": True}))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert "must be integers" in err


@pytest.mark.parametrize("name", ["T", "F", "p q", "<>", ""])
def test_solve_rejects_proposition_names_that_do_not_print_back(capsys, tmp_path, name):
    # with {"T": ["u"]} against {"T": ["v"]} the literal T would be reported
    # as a separator, but the text "T" reads back as true on both sides
    for side, world in (("left", "u"), ("right", "v")):
        model = {"worlds": ["u", "v"], "edges": [], "valuation": {name: [world]}, "point": "u"}
        (tmp_path / f"{side}.json").write_text(json.dumps([model]))
    code, out, err = run(
        capsys,
        "solve",
        "--left", str(tmp_path / "left.json"), "--right", str(tmp_path / "right.json"),
        "--m", "0", "--k", "0",
    )
    assert code == 2 and out == ""
    assert "proposition name" in err


def test_eval_refuses_formulas_nested_past_the_recursion_limit(capsys, files):
    code, out, err = run(capsys, "eval", files["m_empty"], "<>" * 600 + "T")
    assert code == 1 and out == ""
    assert err == "refused: the input nests deeper than the recursion limit\n"


def test_solve_refuses_positions_nested_past_the_recursion_limit(capsys, tmp_path):
    # the solver recurses once per modal step down an n-world chain; the
    # library raises game.SearchTooDeep, a RecursionError, which the CLI
    # refuses like any input nested past the recursion limit
    for n in (600, 1_000):
        chain = {
            "worlds": [f"w{i}" for i in range(n)],
            "edges": [[f"w{i}", f"w{i + 1}"] for i in range(n - 1)],
            "valuation": {},
            "point": "w0",
        }
        loop = {"worlds": ["a"], "edges": [["a", "a"]], "valuation": {}, "point": "a"}
        path = tmp_path / f"deep{n}.json"
        path.write_text(json.dumps({"m": n + 5, "k": 0, "left": [chain], "right": [loop]}))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == "", n
        assert err == "refused: the input nests deeper than the recursion limit\n"


def test_bisim_refuses_classes_nested_past_the_recursion_limit(capsys, tmp_path):
    # a root with two 1,200-world chains that differ only at their ends: their
    # classes at depth 1,300 have sort keys that agree 1,200 levels deep, and
    # ordering them passes the recursion limit
    n = 1_200
    chains = [[f"{x}{i}", f"{x}{i + 1}"] for x in "ab" for i in range(n - 1)]
    model = {
        "worlds": ["r"] + [f"{x}{i}" for x in "ab" for i in range(n)],
        "edges": [["r", "a0"], ["r", "b0"], *chains],
        "valuation": {"p": [f"a{n - 1}"]},
        "point": "r",
    }
    path = tmp_path / "chains.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "bisim", str(path), str(path), "--depth", "1300")
    assert code == 1 and out == ""
    assert err == "refused: the input nests deeper than the recursion limit\n"


@pytest.mark.parametrize(
    "command",
    [["solve", "--m", "4", "--k", "1"], ["minimal", "--max-size", "5"]],
    ids=["solve", "minimal"],
)
def test_negative_node_limit_is_an_input_error(capsys, files, command):
    code, out, err = run(
        capsys,
        command[0],
        "--left", files["vv1"], "--right", files["ee1"], *command[1:],
        "--node-limit", "-3",
    )
    assert code == 2 and out == ""
    assert err == "error: --node-limit must be non-negative, got -3\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (["solve", "--m", "-1", "--k", "0"], "--m must be non-negative, got -1"),
        (["solve", "--m", "0", "--k", "-2"], "--k must be non-negative, got -2"),
        (["solve", "--m", "-1", "--k", "-2"], "--m must be non-negative, got -1"),
        (["minimal", "--max-size", "-1"], "--max-size must be non-negative, got -1"),
        (
            ["minimal", "--max-size", "-1", "--node-limit", "-3"],
            "--node-limit must be non-negative, got -3",
        ),
    ],
    ids=["solve-m", "solve-k", "solve-m-first", "minimal", "minimal-node-limit-first"],
)
def test_negative_budget_names_its_flag(capsys, files, command, message):
    code, out, err = run(
        capsys, command[0], "--left", files["vv1"], "--right", files["ee1"], *command[1:]
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    [["solve", "--m", "-1", "--k", "-2"], ["minimal", "--max-size", "-1"]],
    ids=["solve", "minimal"],
)
def test_file_errors_come_before_budget_errors(capsys, files, tmp_path, command):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(
        capsys, command[0], "--left", files["vv1"], "--right", missing, *command[1:]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 2]") and "missing.json" in err


def test_solve_is_deterministic(capsys, files):
    first = run(capsys, "solve", files["pos_simple"])
    second = run(capsys, "solve", files["pos_simple"])
    assert first == second


def test_minimal_command(capsys, files):
    code, out, _ = run(
        capsys,
        "minimal",
        "--left", files["vv1"], "--right", files["ee1"], "--max-size", "5",
    )
    assert code == 0
    frontier = json.loads(out)["frontier"]
    assert frontier and all(entry["k"] >= 1 for entry in frontier)
    assert all(entry["s"] == entry["m"] + entry["k"] <= 5 for entry in frontier)


def test_gen_level(capsys):
    code, out, _ = run(capsys, "gen", "--level", "2")
    assert code == 0
    assert json.loads(out) == ["{}", "{{}}"]


def test_gen_level_guard(capsys):
    code, _, err = run(capsys, "gen", "--level", "5")
    assert code == 1
    assert err == "refused: refusing to enumerate level 5; pass --allow-large to enumerate level 5\n"

    code, out, _ = run(capsys, "gen", "--level", "5", "--allow-large")
    assert code == 0
    assert len(json.loads(out)) == 65536

    code, _, err = run(capsys, "gen", "--level", "6", "--allow-large")
    assert code == 1
    assert err == "refused: refusing to enumerate level 6\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["gen", "--vv", "-1"], 2, "error: --vv must be non-negative\n"),
        (["gen", "--ee", "-1"], 2, "error: --ee must be non-negative\n"),
        (["gen", "--level", "-1"], 2, "error: --level must be non-negative\n"),
        (["gen", "--vv", "4"], 1, "refused: refusing to build the singleton family at n=4\n"),
        (["gen", "--ee", "4"], 1, "refused: refusing to build the pair family at n=4\n"),
        (["experiment", "--n", "4"], 1, "refused: the pair family at n=4 is not enumerable\n"),
    ],
)
def test_family_and_level_refusals(capsys, argv, code, err):
    # the library refuses, worded after the flag; the command adds the prefix
    assert run(capsys, *argv)[::2] == (code, err)


def test_gen_vv_files(capsys, tmp_path):
    out_dir = tmp_path / "generated"
    code, out, _ = run(capsys, "gen", "--vv", "2", "--out", str(out_dir))
    assert code == 0
    written = json.loads(out)["written"]
    assert len(written) == 4
    models = {kripke.read_pointed(path) for path in written}
    assert models == hierarchy.vv_set(2)
    # n=4 would build 65,536 singleton models that no pair family matches
    start = time.perf_counter()
    code, _, err = run(capsys, "gen", "--vv", "4")
    assert code == 1 and "refus" in err
    assert time.perf_counter() - start < 5


def test_gen_ee_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--ee", "1")
    assert code == 0
    listed = json.loads(out)
    assert len(listed) == 1
    code, _, _ = run(capsys, "gen", "--ee", "4")
    assert code == 1


def test_gen_phi(capsys):
    code, out, _ = run(capsys, "gen", "--phi", "1")
    assert code == 0
    data = json.loads(out)
    assert data["sizes"]["atomic-one"] == 17
    assert data["psi_sizes"]["atomic-one"] == 11
    assert data["formula"].startswith("∀y")
    code, _, _ = run(capsys, "gen", "--phi", "0")
    assert code == 2


def test_experiment_n1(capsys):
    code, out, _ = run(capsys, "experiment", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["fo_sizes"]["phi"]["atomic-one"] == 17
    assert report["separation"] == {
        "vv_all_true": True,
        "ee_all_false": True,
        "vv_count": 2,
        "ee_count": 1,
    }
    assert report["chromatic"] == {"chi": 2, "duplicator_wins_k_up_to": 0}
    separator = "[]<>T | [][]F"
    d_nodes = {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1,
               (2, 0): 4, (2, 1): 14, (2, 2): 24, (3, 0): 4, (3, 1): 23, (3, 2): 42,
               (4, 0): 4}
    expected = [(m, k, "D", None, nodes) for (m, k), nodes in d_nodes.items()]
    expected += [(4, 1, "S", separator, 14), (4, 2, "S", separator, 14)]
    assert _grid_cells(report) == expected
    assert report["frontier"] == [{"m": 4, "k": 1, "s": 5, "formula": separator}]


def test_experiment_n2(capsys):
    code, out, _ = run(capsys, "experiment", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["chromatic"] == {"chi": 4, "duplicator_wins_k_up_to": 1}
    assert report["separation"]["vv_all_true"] and report["separation"]["ee_all_false"]
    # the (3,1) root splits 2^3 + 2^5 ways over 11 classes, so its solver
    # builds the table and answers D at once: the root plus the 16 table
    # vectors below (3,1), whose own 4 vectors are decided without being
    # built (21 nodes when they were; 98 by the search without the table)
    nodes = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1, (3, 0): 6, (3, 1): 17}
    assert _grid_cells(report) == [(m, k, "D", None, n) for (m, k), n in nodes.items()]
    assert report["frontier"] is None


def _grid_cells(report: dict) -> list[tuple]:
    """The solver's output in each grid cell, in report order (timings left out)."""
    return [
        (cell["m"], cell["k"], cell["winner"], cell["formula"], cell["nodes"])
        for cell in report["grid"]
    ]


def test_experiment_n3_certificate_only(capsys):
    code, out, _ = run(capsys, "experiment", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["chromatic"] == {"chi": 16, "duplicator_wins_k_up_to": 3}
    assert report["grid"] is None and report["separation"] is None


def test_experiment_input_errors(capsys):
    code, _, err = run(capsys, "experiment", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "experiment", "--n", "4")
    assert code == 1


@pytest.mark.parametrize("n", [1, 3])
def test_experiment_report_rejects_negative_node_limit(n):
    # at n=3 no solver runs, so the report itself must check the limit
    with pytest.raises(ValueError, match="node_limit"):
        build_experiment_report(n, node_limit=-5)


@pytest.mark.parametrize("n", [1, 3])
def test_experiment_report_rejects_non_integer_node_limit(n):
    with pytest.raises(ValueError, match="node_limit"):
        build_experiment_report(n, node_limit=True)


def test_experiment_report_checks_closed_forms():
    report = build_experiment_report(1)
    assert report.n == 1
    with pytest.raises(ValueError, match="closed form"):
        cli.ExperimentReport(
            n=1,
            fo_sizes={"psi": {"atomic-one": 10, "atomic-zero": 7}, "phi": {"atomic-one": 17, "atomic-zero": 11}},
            separation=None,
            chromatic={},
            grid=None,
            frontier=None,
            wall_seconds=0.0,
        )


def test_play_as_duplicator_machine_wins(capsys, files, monkeypatch):
    # at (1,0) on the simple pair the machine spoiler wins in one move
    monkeypatch.setattr("builtins.input", lambda prompt="": pytest.fail("no D choice expected"))
    code, out, _ = run(capsys, "play", files["pos_simple"], "--as", "D")
    assert code == 0
    assert "S plays right-succ" in out
    assert "S wins" in out


def test_play_as_spoiler_scripted(capsys, files, monkeypatch):
    answers = iter(["0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(capsys, "play", files["pos_simple"], "--as", "S")
    assert code == 0
    assert "S wins" in out


def test_play_quit_and_reprompt(capsys, files, monkeypatch):
    answers = iter(["not-a-move", "999", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(capsys, "play", files["pos_simple"], "--as", "S")
    assert code == 0
    assert out.count("illegal move") == 2
    assert "quit" in out


def test_play_refuses_a_negative_move_number(capsys, files, monkeypatch):
    # a negative number is out of range like any other, not an index from the end
    answers = iter(["-1", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(capsys, "play", files["pos_simple"], "--as", "S")
    assert code == 0
    assert out.count("illegal move") == 1
    assert "quit" in out and "wins" not in out


def test_play_as_spoiler_without_a_win(capsys, tmp_path, m_empty, monkeypatch):
    # identical models on both sides: the machine duplicator survives to a
    # terminal the second player wins
    pos = GamePosition(0, 1, {m_empty}, {m_empty})
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(position_to_dict(pos)))
    answers = iter(["0", "0", "0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code, out, _ = run(capsys, "play", str(path), "--as", "S")
    assert code == 0
    assert "D wins" in out


def _script(monkeypatch, *answers) -> None:
    """Answer the play prompts in order, echoing each prompt to stdout as
    ``input`` does when stdin is not a terminal."""
    replies = iter(answers)

    def answer(prompt=""):
        print(prompt, end="")
        return next(replies)

    monkeypatch.setattr("builtins.input", answer)


_LEFT_1 = (
    "  #0: point='_root' worlds=['_root', '{{}}', '{}'] edges=[('_root', '{{}}'), ('{{}}', '{}')]\n"
    "  #1: point='_root' worlds=['_root', '{}'] edges=[('_root', '{}')]\n"
)
_RIGHT_1 = (
    "  #0: point='_root' worlds=['_root', '{{}}', '{}']"
    " edges=[('_root', '{{}}'), ('_root', '{}'), ('{{}}', '{}')]\n"
)


def test_play_as_spoiler_transcript(capsys, tmp_path, vv1, ee1, monkeypatch):
    path = tmp_path / "pos.json"
    path.write_text(json.dumps(position_to_dict(GamePosition(2, 0, vv1, ee1))))
    _script(monkeypatch, "abc", "1", "q")
    code, out, err = run(capsys, "play", str(path), "--as", "S")
    menu = (
        "  [0] left-succ [#0->'{{}}', #1->'{}']\n"
        "  [1] right-succ [#0->'{{}}']\n"
        "  [2] right-succ [#0->'{}']\n"
    )
    assert (code, err) == (0, "")
    assert out == (
        "position: m=2 k=0\nleft:\n" + _LEFT_1 + "right:\n" + _RIGHT_1
        + menu + "S move number> illegal move, try again\n"
        + menu + "S move number> position: m=1 k=0\n"
        "left:\n"
        "  #0: point='{{}}' worlds=['_root', '{{}}', '{}'] edges=[('_root', '{{}}'), ('{{}}', '{}')]\n"
        "  #1: point='{}' worlds=['_root', '{}'] edges=[('_root', '{}')]\n"
        "right:\n"
        "  #0: point='{{}}' worlds=['_root', '{{}}', '{}']"
        " edges=[('_root', '{{}}'), ('_root', '{}'), ('{{}}', '{}')]\n"
        "  [0] right-succ [#0->'{}']\n"
        "S move number> quit\n"
    )


def test_play_as_duplicator_transcript(capsys, tmp_path, vv1, ee1, monkeypatch):
    path = tmp_path / "pos.json"
    path.write_text(json.dumps(position_to_dict(GamePosition(4, 1, vv1, ee1))))
    _script(monkeypatch, "x", "q")
    code, out, err = run(capsys, "play", str(path), "--as", "D")
    assert (code, err) == (0, "")
    assert out == (
        "position: m=4 k=1\nleft:\n" + _LEFT_1 + "right:\n" + _RIGHT_1
        + "S plays left-split (m1=2,k1=0) {#0} / (m2=2,k2=0) {#1}\n"
        "D branch (l/r)> illegal choice, try again\n"
        "D branch (l/r)> quit\n"
    )
