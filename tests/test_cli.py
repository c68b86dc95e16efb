import ast
import hashlib
import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

import quiverperm.cli
from quiverperm import (ExchangeMatrix, Verdict, build_exchange_graph,
                        enumerate_loops, enumerate_mgs, framed, graph_to_dot,
                        verify)
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
    assert "word: 1" in out
    assert "sigma: id" in out
    # with neither --sequence nor --seed the sequence is empty as well
    assert run(capsys, "mutate", "--n", "2") == (0, out, err)


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


def test_mutate_seeded_walk_defaults_to_eight_steps(capsys):
    code, out, _ = run(capsys, "mutate", "--n", "3", "--seed", "7")
    assert code == 0
    assert len(out.splitlines()[0].split()) == 9  # "sequence:" + 8 vertices
    assert run(capsys, "mutate", "--n", "3", "--seed", "7",
               "--max-depth", "8")[1] == out


# --max-depth is the length of the seeded walk; nothing else reads it
@pytest.mark.parametrize("argv", [
    ["--sequence", "1 2", "--max-depth", "3"],
    ["--sequence", "1 2", "--max-depth", "-1"],
    ["--max-depth", "3"],
], ids=" ".join)
def test_mutate_max_depth_needs_seed(capsys, argv):
    code, out, err = run(capsys, "mutate", "--n", "2", *argv)
    assert code == 2
    assert out == ""
    assert "error: --max-depth needs --seed" in err


def test_mutate_seeded_walk_rejects_negative_depth(capsys):
    code, out, err = run(capsys, "mutate", "--n", "2", "--seed", "1",
                         "--max-depth", "-1")
    assert code == 2
    assert "error: --max-depth must be nonnegative" in err


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


@pytest.mark.parametrize("depth", ["990", "1200"])
def test_verify_rejects_loops_deeper_than_the_search(tmp_path, capsys, depth):
    # the loop search recurses once per step: past half the recursion limit
    # it refuses up front rather than die with a RecursionError
    target = tmp_path / "verify.txt"
    code, out, err = run(capsys, "verify", "--n", "1", "--max-depth", depth,
                         "--out", str(target))
    assert code == 2
    assert err.startswith(f"error: loop length {depth} exceeds "
                          f"{sys.getrecursionlimit() // 2}")
    assert "Traceback" not in err
    assert not target.exists()


def test_verify_rank3(capsys):
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 0
    assert "9 sequences checked, 0 mismatches" in out


def test_verify_corrupt_formula_fails(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--corrupt-formula")
    assert code == 1
    assert "2 sequences checked, 2 mismatches" in out
    assert "mismatch: mgs 1 2" in err


def test_verify_corrupt_formula_mismatches_every_sequence(capsys):
    # the negative control runs on the shared walk: every line mismatches
    code, out, err = run(capsys, "verify", "--n", "4", "--corrupt-formula")
    assert code == 1
    *lines, summary = out.splitlines()
    assert summary == "98 sequences checked, 98 mismatches"
    assert len(lines) == 98
    assert all(": mismatch (formula " in line for line in lines)
    assert len(err.splitlines()) == 98


def test_verify_corrupt_formula_needs_two_vertices(capsys):
    code, out, err = run(capsys, "verify", "--n", "1", "--corrupt-formula")
    assert code == 2
    assert err == "error: --corrupt-formula needs --n >= 2\n"
    assert out == ""


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["vertices"] for line in lines] == [[1, 2], [2, 1, 2]]
    assert all(line["verdict"] == "match" for line in lines)
    assert lines[1]["formula"] == "(12)"


def test_verify_observes_every_checked_sequence(capsys):
    # every maximal green sequence and every enumerated loop has an
    # observation, so no line reports a verdict without one
    code, out, err = run(capsys, "verify", "--n", "3", "--max-depth", "4")
    assert code == 0
    *lines, summary = out.splitlines()
    assert summary == f"{len(lines)} sequences checked, 0 mismatches"
    assert [line for line in lines
            if not re.search(r": match \(formula \S+, observed \S+\)$",
                             line)] == []
    code, out, err = run(capsys, "verify", "--n", "3", "--format", "json",
                         "--max-depth", "4")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == len(lines)
    assert [r for r in reports if r["observed"] is None] == []


# the corrupted prediction needs two points, so not at n = 1
@pytest.mark.parametrize("n,extra", [
    (n, extra) for n in (1, 2, 3, 4)
    for extra in [(), ("--max-depth", "4"), ("--corrupt-formula",),
                  ("--max-depth", "4", "--corrupt-formula")]
    if n > 1 or "--corrupt-formula" not in extra])
def test_verify_text_renders_each_report_s_own_permutations(capsys, n, extra):
    # the command formats each distinct permutation once; every line must
    # still read as if each report's permutations were formatted anew
    corrupt = "--corrupt-formula" in extra
    start = framed(ExchangeMatrix.straight_a(n))
    checks = [("mgs", r.sequence) for r in enumerate_mgs(n)]
    if "--max-depth" in extra:
        checks += [("loop", r.sequence) for r in enumerate_loops(start, 4)]
    expected, mismatches = [], 0
    for kind, seq in checks:
        report = verify(start, seq, corrupt=corrupt)
        mismatches += report.verdict is not Verdict.MATCH
        expected.append(f"{kind} {' '.join(map(str, seq))}: "
                        f"{report.verdict.value} "
                        f"(formula {report.formula_perm.cycle_string()}, "
                        f"observed {report.observed_perm.cycle_string()})")
    expected.append(f"{len(checks)} sequences checked, "
                    f"{mismatches} mismatches")
    code, out, err = run(capsys, "verify", "--n", str(n), *extra)
    assert code == (1 if mismatches else 0)
    assert mismatches == (len(checks) if corrupt else 0)
    assert out.splitlines() == expected


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_export_dot_streams_what_graph_to_dot_renders(tmp_path, capsys, n):
    expected = graph_to_dot(build_exchange_graph(n))
    assert run(capsys, "export-dot", "--n", str(n)) == (0, expected, "")
    target = tmp_path / "graph.dot"
    assert run(capsys, "export-dot", "--n", str(n),
               "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()


def test_export_dot_holds_only_the_graph(tmp_path, monkeypatch):
    # the DOT text is streamed: at its peak the export holds the graph and
    # less than the whole text beside it
    real = quiverperm.cli.build_exchange_graph
    graph_sizes = []

    def measured(n):
        graph = real(n)
        graph_sizes.append(tracemalloc.get_traced_memory()[0] - base)
        return graph

    monkeypatch.setattr(quiverperm.cli, "build_exchange_graph", measured)
    target = tmp_path / "graph.dot"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["export-dot", "--n", "5", "--out", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    graph_size, = graph_sizes
    assert peak - graph_size < target.stat().st_size


def test_export_dot_writes_no_file_when_the_build_fails(tmp_path, capsys,
                                                       monkeypatch):
    # the graph is built before the output is opened
    def fail(n):
        raise ValueError("build failed")

    monkeypatch.setattr(quiverperm.cli, "build_exchange_graph", fail)
    target = tmp_path / "graph.dot"
    code, out, err = run(capsys, "export-dot", "--n", "2",
                         "--out", str(target))
    assert code == 2
    assert "build failed" in err
    assert not target.exists()


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
                                  "[[0, true], [-1, 0]]", "[[0, 1], 5]", "[]",
                                  "[[0, 1]]"])
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
    ["mutate", "--n", "4", "--b0-file", "f"],
    ["mutate", "--n", "2", "--b0-file", "f"],
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


def test_verify_output_matches_benchmark_digest(tmp_path):
    # the benchmark fails on any change to what verify, census and
    # export-dot write; pin the same digests here so the fast suite sees it
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    frozen = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("MGS_N", "GRAPH_N", "DIGESTS")}
    commands = {
        "verify": ["verify", "--n", str(frozen["MGS_N"])],
        "census": ["census", "--n", str(frozen["MGS_N"]), "--format", "json"],
        "export-dot": ["export-dot", "--n", str(frozen["GRAPH_N"])],
    }
    assert commands.keys() == frozen["DIGESTS"].keys()
    for name, argv in commands.items():
        target = tmp_path / name
        assert main(argv + ["--out", str(target)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() \
            == frozen["DIGESTS"][name], name


def test_verify_json_output_is_pinned(tmp_path):
    # the benchmark's digests cover verify's text output only; this pins
    # the JSON route through FormulaReport.to_json and PictureWord.to_json
    target = tmp_path / "verify.jsonl"
    assert main(["verify", "--n", "3", "--max-depth", "6", "--format", "json",
                 "--out", str(target)]) == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 142
    assert all(json.loads(line)["verdict"] == "match" for line in lines)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "0321333989ab170a7afd063e298689b681b63d92afea264867edabde1cfb091e")
