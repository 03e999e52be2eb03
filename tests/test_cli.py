import json

import pytest

from lqccs.cli import main
from lqccs.equiv import SearchBounds

QL_PROGRAM = """
channel a : nat;
channel b : nat;
qubit q;
process QL = H(q).M01(q |> x).((if x = 0 then a!1 else b!1) || disc(q));
"""

ROW5_PROGRAM = """
channel c : qubit;
qubit q;
process Left = SetPlus(q).M01(q |> x).c!q;
process Right = Set0(q).Mpm(q |> x).c!q;
"""

NO_QUBITS_PROGRAM = """
channel c : nat;
process P = c!1;
process Q = tau.c!1;
"""

BAD_PROGRAM = """
channel c : qubit;
qubit q;
process Bad = c!q || c!q;
"""


@pytest.fixture
def ql_file(tmp_path):
    p = tmp_path / "ql.lq"
    p.write_text(QL_PROGRAM)
    return str(p)


@pytest.fixture
def row5_file(tmp_path):
    p = tmp_path / "row5.lq"
    p.write_text(ROW5_PROGRAM)
    return str(p)


def test_parse_roundtrips(ql_file, capsys):
    assert main(["parse", ql_file]) == 0
    out = capsys.readouterr().out
    assert "process QL" in out and "M01(q |> x)" in out


def test_typecheck_reports_context(ql_file, capsys):
    assert main(["typecheck", ql_file]) == 0
    assert "QL: {q}" in capsys.readouterr().out


def test_typecheck_rejects_linearity_violation(tmp_path, capsys):
    p = tmp_path / "bad.lq"
    p.write_text(BAD_PROGRAM)
    assert main(["typecheck", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_run_emits_trace(ql_file, capsys):
    assert main(["run", ql_file, "--state", "ket0", "--depth", "3", "--json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    level1 = tree["moves"][0]["next"]
    level2 = level1["moves"][0]["next"]
    assert level2["barbs"] == {"a": 0.5, "b": 0.5}


def test_run_prints_a_text_tree(ql_file, capsys):
    assert main(["run", ql_file, "--state", "ket0", "--depth", "2"]) == 0
    assert capsys.readouterr().out == (
        "1.0000 H(q).M01(q |> x).(disc(q) || (if (x = 0) then a!1 else b!1))\n"
        "--[⋄]-->\n"
        "  1.0000 M01(q |> x).(disc(q) || (if (x = 0) then a!1 else b!1))\n"
        "  --[⋄]-->\n"
        "    0.5000 b!1 || disc(q)\n"
        "    0.5000 a!1 || disc(q)\n"
        "    barbs: {'a': 0.5, 'b': 0.5}\n"
    )


def test_run_standard_mode_has_no_indices(ql_file, capsys):
    assert main(["run", ql_file, "--state", "ket0", "--depth", "3", "--mode", "standard",
                 "--json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    level1 = tree["moves"][0]["next"]
    level2 = level1["moves"][0]["next"]
    assert level2["barbs"] == {"a": 0.5, "b": 0.5}
    assert [m["index"] for node in (tree, level1, level2) for m in node["moves"]] == [None] * 3


def test_run_emit_state_includes_matrices(ql_file, capsys):
    assert main(["run", ql_file, "--depth", "1", "--emit-state", "--json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    state = tree["distributions"][0]["state"]
    assert state["rows"] == 2 and len(state["entries"]) == 4


def test_barbs_command(ql_file, capsys):
    assert main(["barbs", ql_file]) == 0
    assert json.loads(capsys.readouterr().out) == {}


def test_distinguish_and_certify(row5_file, capsys):
    assert main([
        "distinguish", row5_file, "--left", "Left", "--right", "Right",
        "--mode", "constrained", "--ancillas", "0",
    ]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "certified-bisimilar"

    assert main(["certify", row5_file, "--left", "Left", "--right", "Right"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "certified-bisimilar"
    assert verdict["certificate"][0] == "density-quotient"

    assert main([
        "distinguish", row5_file, "--left", "Left", "--right", "Right",
        "--mode", "saturated", "--ancillas", "0", "--depth", "6",
    ]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "distinguished"
    assert verdict["witness"]["kind"] == "attack"


def test_distinguish_bounds_default_to_search_bounds(row5_file, capsys):
    assert main(["distinguish", row5_file, "--left", "Left", "--right", "Right"]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    d = SearchBounds()
    assert bounds == {"context_size": d.context_size, "depth": d.depth,
                      "ancillas": d.ancillas, "fresh_channels": d.fresh_channels}


def test_program_without_qubits(tmp_path, capsys):
    p = tmp_path / "classical.lq"
    p.write_text(NO_QUBITS_PROGRAM)
    assert main(["run", str(p), "--depth", "1"]) == 0
    capsys.readouterr()
    assert main(["distinguish", str(p), "--left", "P", "--right", "Q"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "distinguished"
    assert verdict["witness"]["kind"] == "barb-mismatch" and verdict["witness"]["channel"] == "c"


def test_check_candidate_cli(tmp_path, capsys):
    p = tmp_path / "same.lq"
    p.write_text(
        """
        channel c : qubit;
        qubit q;
        process P = tau.c!q;
        process Q = tau.c!q;
        """
    )
    assert main(["check-candidate", str(p), "--pair", "P:Q"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "certified-bisimilar"


def test_check_candidate_cli_does_not_certify_a_pair_open_to_contexts(tmp_path, capsys):
    p = tmp_path / "gates.lq"
    p.write_text(
        """
        channel c : qubit;
        channel d : qubit;
        qubit a0;
        process L = c?x.H(x).d!x;
        process R = c?x.I(x).d!x;
        """
    )
    assert main(["check-candidate", str(p), "--pair", "L:R"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "inconclusive-at-bounds"
    assert out["reason"] == "pair 0 is open to contexts"


def test_a_received_phase_is_certified_without_a_search(tmp_path, capsys):
    p = tmp_path / "phase.lq"
    p.write_text(
        """
        channel c : qubit;
        channel d : qubit;
        qubit a0;
        process L = c?x.I(x).M01(x |> y).d!x;
        process R = c?x.Z(x).M01(x |> y).d!x;
        """
    )
    for argv in (["certify", str(p), "--left", "L", "--right", "R"],
                 ["distinguish", str(p), "--left", "L", "--right", "R", "--mode", "saturated"]):
        assert main(argv) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "certified-bisimilar"
        assert verdict["certificate"] == ["choi-input", "c", "2"]
        assert verdict["stats"]["contexts_tried"] == 0


def test_usage_error_exit_code(capsys):
    assert main(["distinguish"]) == 2


def test_corpus_suite(capsys):
    assert main(["corpus", "--suite", "table1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_corpus_single_entry(capsys):
    assert main(["corpus", "--suite", "teleportation"]) == 0
    assert "PASS teleportation" in capsys.readouterr().out


def test_run_selects_process(ql_file, capsys):
    assert main(["run", ql_file, "--process", "QL", "--depth", "1", "--json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["step"] == 0 and len(tree["moves"]) == 1
