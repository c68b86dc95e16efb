import json

import pytest

from quiverperm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mutate_sequence(capsys):
    code, out, err = run(capsys, "mutate", "--n", "2", "--sequence", "2 1 2")
    assert code == 0
    assert "sequence: 2 1 2" in out
    assert "[  0 -1 |  0 -1 ]" in out
    assert "colors: 1=red 2=red" in out
    assert "word: x01 x02 x12" in out
    assert "sigma: (12)" in out


def test_mutate_empty_sequence(capsys):
    code, out, err = run(capsys, "mutate", "--n", "2", "--sequence", "")
    assert code == 0
    assert "sequence: (empty)" in out
    assert "colors: 1=green 2=green" in out
    assert "sigma: id" in out


def test_mutate_accepts_commas(capsys):
    code_a, out_a, _ = run(capsys, "mutate", "--n", "3", "--sequence", "2,1,3")
    code_b, out_b, _ = run(capsys, "mutate", "--n", "3", "--sequence", " 2 1 3 ")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_mutate_vertex_out_of_range(capsys):
    code, out, err = run(capsys, "mutate", "--n", "2", "--sequence", "3")
    assert code == 2
    assert "error:" in err


def test_mutate_json(capsys):
    code, out, err = run(capsys, "mutate", "--n", "2", "--sequence", "2 1 2",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["state"]["c"] == [[0, -1], [-1, 0]]
    assert payload["sigma"] == "(12)"
    assert payload["word"]["display"] == "x01 x02 x12"
    assert payload["colors"] == {"1": "red", "2": "red"}


def test_mutate_dot(capsys):
    code, out, err = run(capsys, "mutate", "--n", "2", "--sequence", "",
                         "--format", "dot")
    assert code == 0
    assert out.startswith("digraph quiver {")


def test_mutate_seeded_walk_is_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "mutate", "--n", "3", "--seed", "7",
                           "--max-depth", "6")
    code_b, out_b, _ = run(capsys, "mutate", "--n", "3", "--seed", "7",
                           "--max-depth", "6")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "sequence: " in out_a
    assert len(out_a.splitlines()[0].split()) == 7  # "sequence:" + 6 vertices
    _, out_c, _ = run(capsys, "mutate", "--n", "3", "--seed", "8",
                      "--max-depth", "6")
    assert out_a != out_c


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert "2 sequences checked, 0 mismatches" in out
    assert "mgs 1 2: match (formula id, observed id)" in out
    assert "mgs 2 1 2: match (formula (12), observed (12))" in out


def test_verify_with_loops(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--max-depth", "5")
    assert code == 0
    # 2 green sequences plus the 10 loops of length <= 5
    assert "12 sequences checked, 0 mismatches" in out
    assert "loop 2 1 2 1 2: match (formula (12), observed (12))" in out


def test_verify_rank3(capsys):
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 0
    assert "9 sequences checked, 0 mismatches" in out


def test_verify_corrupt_formula_fails(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--corrupt-formula")
    assert code == 1
    assert "2 sequences checked, 2 mismatches" in out
    assert "mismatch: mgs 1 2" in err


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["vertices"] for line in lines] == [[1, 2], [2, 1, 2]]
    assert all(line["verdict"] == "match" for line in lines)
    assert lines[1]["formula"] == "(12)"


def test_census_text(capsys):
    code, out, err = run(capsys, "census", "--n", "3")
    assert code == 0
    assert "maximal green sequences: 9" in out
    assert "length range: 3..6" in out


def test_census_json(capsys):
    code, out, err = run(capsys, "census", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["lengths"] == {"2": 1, "3": 1}


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, err = run(capsys, "census", "--n", "2", "--format", "json",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 2
    # byte-for-byte deterministic
    target2 = tmp_path / "census2.json"
    run(capsys, "census", "--n", "2", "--format", "json", "--out", str(target2))
    assert target.read_bytes() == target2.read_bytes()


def test_export_dot(capsys):
    code, out, err = run(capsys, "export-dot", "--n", "2")
    assert code == 0
    assert out.startswith("graph exchange {")
    assert out.count(" -- ") == 10


def test_export_dot_bound(capsys):
    # one size bound for every exhaustive command
    for command in ("export-dot", "verify", "census"):
        code, out, err = run(capsys, command, "--n", "6")
        assert code == 2
        assert "MAX_N=5" in err
        assert out == ""


def test_check_standard_accepts(capsys):
    code, out, err = run(capsys, "check-standard", "[[1,1],[0,-1]]")
    assert code == 0
    assert out == "standard\n"


def test_check_standard_factors(capsys):
    code, out, err = run(capsys, "check-standard", "[[0,-1],[-1,0]]")
    assert code == 1
    assert "not standard; factors as (12)" in out
    assert "[ -1  0 ]" in out


def test_check_standard_unfactorable(capsys):
    code, out, err = run(capsys, "check-standard", "[[1,0],[1,1]]")
    assert code == 1
    assert "no standard factorization" in out


def test_check_standard_bad_input(capsys):
    code, out, err = run(capsys, "check-standard", "[[1,0],[1,1]")
    assert code == 2
    assert "error:" in err
    code, out, err = run(capsys, "check-standard", "[[1,0]]")
    assert code == 2


# parsed JSON that is not a list of integer rows: floats and booleans are
# not truncated to integers, and non-list input does not crash
MALFORMED_MATRICES = ["5", "[1, 2]", "[[1.5]]", "[[true]]", '[["1"]]', "[]"]


@pytest.mark.parametrize("text", MALFORMED_MATRICES)
def test_check_standard_rejects_malformed_matrix(capsys, text):
    code, out, err = run(capsys, "check-standard", text)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("text", ["7", "[[0, 1.9], [-1.9, 0]]",
                                  "[[0, true], [-1, 0]]", "[[0, 1], 5]", "[]"])
def test_b0_file_rejects_malformed_matrix(tmp_path, capsys, text):
    b0 = tmp_path / "b0.json"
    b0.write_text(text)
    code, out, err = run(capsys, "mutate", "--b0-file", str(b0))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_b0_file_mutate(tmp_path, capsys):
    b0 = tmp_path / "b0.json"
    b0.write_text("[[0, 2], [-2, 0]]")
    code, out, err = run(capsys, "mutate", "--b0-file", str(b0),
                         "--sequence", "1")
    assert code == 0
    assert "word/sigma tracking requires the straight A_n orientation" in out


def test_b0_file_rejected_by_verify(tmp_path, capsys):
    b0 = tmp_path / "b0.json"
    b0.write_text("[[0, 2], [-2, 0]]")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--b0-file", str(b0)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --b0-file" in capsys.readouterr().err


# each subcommand accepts only the flags it reads
@pytest.mark.parametrize("argv", [
    ["census", "--max-depth", "3"],
    ["verify", "--seed", "1"],
    ["verify", "--b0-file", "f"],
    ["verify", "--format", "dot"],
    ["census", "--format", "dot"],
    ["export-dot", "--format", "json"],
    ["export-dot", "--max-depth", "6"],
    ["check-standard", "--n", "3", "[[1]]"],
    ["mutate", "--sequence", "1", "--seed", "3"],
], ids=" ".join)
def test_flag_not_accepted_by_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_b0_file_missing(capsys):
    code, out, err = run(capsys, "mutate", "--b0-file", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_bad_flags(capsys):
    assert run(capsys, "verify", "--n", "0")[0] == 2
    assert run(capsys, "mutate", "--max-depth", "-1")[0] == 2


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
