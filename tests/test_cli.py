import json

import pytest

from trunco import engine, oracle
from trunco.cli import main, parse_weight, parse_word
from trunco.root_datum import ReflectionGroup, Weight, build_root_datum
from trunco.trunc_weights import TruncatedWeight

from pbw_reference import pbw_character


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_traced_leaves_and_the_kl_command_list_no_group(capsys, monkeypatch):
    # a traced leaf prints descent words, and the kl command names x and y
    # by their vectors, so neither lists a Weyl group: W(E7) and W(E8) are
    # too large to list, and W(E6) is not listed either.  s3 s1 s4 s3 lies
    # in the parabolic A3 on nodes 1, 3 and 4 of E6, where P_{e, s2 s1 s3 s2}
    # = 1 + q, and KL polynomials of a parabolic subgroup are its own
    def refuse(group):
        raise AssertionError("listed a group of %d generators" % group.num_gens)

    monkeypatch.setattr(ReflectionGroup, "_materialize", refuse)
    for argv, value, poly, y_max in (
            (["E7", "[0,0,0,0,0,0,0]", "[0,0,0,0,0,1,-2]"], 1, "1", [6]),
            (["E6", "[0,0,0,0,0,0]", "[0,2,-4,0,2,0]"], 2, "1+q", [2, 0, 3, 2])):
        status, out = run(capsys, "mult", "--trace", "--json", "--type",
                          argv[0], "--lambda", argv[1], "--nu", argv[2])
        leaf = json.loads(out)["trace"]
        assert status == 0 and leaf["value"] == value, argv
        assert (leaf["details"]["y"], leaf["details"]["y_max"],
                leaf["details"]["kl"]) == ([], y_max, poly), argv
    status, out = run(capsys, "kl", "--type", "E8", "--x", "", "--y", "1")
    assert (status, out) == (0, "1\n")
    status, out = run(capsys, "kl", "--type", "E6", "--x", "", "--y", "3,1,4,3")
    assert (status, out) == (0, "1+q\n")


def test_parse_weight_roundtrip():
    a2 = build_root_datum("A2")
    lam = parse_weight(a2, "[3,1/2],[0,-1]")
    assert lam.level == 1
    assert lam[0] == Weight((3, "1/2"))
    assert lam[1] == Weight((0, -1))


def test_parse_word():
    assert parse_word("2,1,3,2", 3) == (1, 0, 2, 1)
    assert parse_word("", 3) == ()
    for bad in ("0", "4", "1,4"):
        with pytest.raises(ValueError):
            parse_word(bad, 3)


def test_mult_trivial(capsys):
    status, out = run(capsys, "mult", "--type", "A1", "--n", "1",
                      "--lambda", "[3],[0]", "--nu", "[3],[0]")
    assert status == 0
    assert out.strip() == "1"


def test_mult_takiff_value(capsys):
    status, out = run(capsys, "mult", "--type", "A1",
                      "--lambda", "[3],[0]", "--nu", "[-5],[0]")
    assert status == 0
    assert out.strip() == "2"


def test_mult_different_blocks(capsys):
    status, out = run(capsys, "mult", "--type", "A1",
                      "--lambda", "[3],[0]", "--nu", "[1],[1]")
    assert status == 0
    assert out.strip() == "0"


def test_mult_verify_agrees(capsys):
    status, out = run(capsys, "mult", "--type", "A1", "--json",
                      "--lambda", "[2],[0]", "--nu", "[-4],[0]",
                      "--verify", "--depth", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload["value"] == payload["oracle"] == 2


def test_mult_trace_json(capsys):
    status, out = run(capsys, "mult", "--type", "A1", "--json", "--trace",
                      "--lambda", "[2],[0]", "--nu", "[0],[0]")
    assert status == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["trace"]["kind"] == "reduce"
    assert payload["trace"]["value"] == 1


def test_table(capsys):
    status, out = run(capsys, "table", "--type", "A1",
                      "--lambda", "[1],[2]", "--depth", "5")
    assert status == 0
    assert out.strip() == "(1)  1"


def test_kl_command(capsys):
    status, out = run(capsys, "kl", "--type", "A3",
                      "--x", "2", "--y", "2,1,3,2")
    assert status == 0
    assert out.strip() == "1+q"


def test_partition_command(capsys):
    status, out = run(capsys, "partition", "--type", "A2", "--beta", "1,1")
    assert status == 0
    assert out.strip() == "2"


def test_character_command(capsys):
    status, out = run(capsys, "character", "--type", "A1", "--n", "2",
                      "--lambda", "[0],[0],[0]", "--depth", "3", "--json")
    assert status == 0
    payload = json.loads(out)
    dims = [e["dim"] for e in payload["entries"]]
    assert dims == [1, 3, 6, 10]


def test_character_methods_agree(capsys):
    # the command's Kostant-partition count against the PBW monomial count
    _, out = run(capsys, "character", "--type", "A2", "--n", "1",
                 "--lambda", "[0,0],[0,0]", "--depth", "3", "--json")
    zero = Weight((0, 0))
    pbw = pbw_character(build_root_datum("A2"),
                        TruncatedWeight([zero, zero]), 3)
    assert json.loads(out) == {"base": str(zero), "entries": [
        {"beta": list(b), "dim": pbw.table[b]}
        for b in sorted(pbw.table, key=lambda b: (sum(b), b))]}


def test_oracle_command(capsys):
    status, out = run(capsys, "oracle", "--type", "A1",
                      "--lambda", "[1],[0]", "--nu", "[-3],[0]")
    assert status == 0
    assert out.strip() == "2"


def test_bad_weight_is_status_two(capsys):
    status, _ = run(capsys, "mult", "--type", "A1",
                    "--lambda", "3,0", "--nu", "[3],[0]")
    assert status == 2


def test_wrong_rank_is_status_two(capsys):
    status, _ = run(capsys, "mult", "--type", "A2",
                    "--lambda", "[3],[0]", "--nu", "[3],[0]")
    assert status == 2


def test_level_mismatch_is_status_two(capsys):
    status, _ = run(capsys, "mult", "--type", "A1", "--n", "2",
                    "--lambda", "[3],[0]", "--nu", "[3],[0]")
    assert status == 2


@pytest.mark.parametrize("argv", [
    ["kl", "--type", "H3", "--x", "1", "--y", "1"],
    ["partition", "--type", "E9", "--beta", "1"],
    ["kl", "--type", "A2", "--x", "3", "--y", "1"],
    ["kl", "--type", "A2", "--x", "1", "--y", "0"],
    ["character", "--type", "A1", "--n", "-1", "--depth", "2"],
    ["oracle", "--type", "A1", "--lambda", "[1],[0]", "--nu", "[-3],[0]",
     "--depth", "-1"],
    ["table", "--type", "A2", "--lambda", "[0,0],[0,0]", "--depth", "-1"],
    ["character", "--type", "A2", "--n", "1", "--depth", "-1"],
    ["oracle", "--type", "A2", "--lambda", "[1,1],[0,0]",
     "--nu", "[1,1],[0,0]", "--invariants", "0"],
    ["oracle", "--type", "A2", "--lambda", "[1,1],[0,0]",
     "--nu", "[1,1],[0,0]", "--invariants", "5"],
])
def test_bad_input_is_status_two(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["oracle", "mult --verify"])
def test_oracle_size_budget_is_status_two(capsys, monkeypatch, command):
    monkeypatch.setattr(oracle, "MAX_TOTAL_DIMENSION", 50)
    status = main(command.split() + [
        "--type", "A2", "--lambda", "[0,0],[0,0]", "--nu", "[-2,-2],[0,0]",
        "--depth", "40"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "error: truncated Verma module exceeds size budget\n"


def test_verify_suite(capsys):
    status, out = run(capsys, "verify-suite")
    assert status == 0
    assert "0 mismatches" in out


def test_verify_suite_json_reports_a_mismatch_on_stderr(capsys, monkeypatch):
    # one wrong engine value: exit status 3, a MISMATCH line on stderr, and
    # stdout that is the JSON object alone
    right = engine.multiplicity
    calls = []

    def wrong_once(query, trace=False):
        value, node = right(query, trace)
        calls.append(query)
        return value + (len(calls) == 1), node

    monkeypatch.setattr(engine, "multiplicity", wrong_once)
    status = main(["verify-suite", "--json"])
    captured = capsys.readouterr()
    assert status == 3
    assert json.loads(captured.out) == {"checked": len(calls), "mismatches": 1}
    (line,) = captured.err.splitlines()
    assert line.startswith("MISMATCH A1 n=1 ")
