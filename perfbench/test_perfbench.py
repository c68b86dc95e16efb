"""Tests of the benchmark itself, not of quiverperm.

Run with ``python3 -m pytest perfbench``.  The frozen check values in
``workloads.py`` are re-derived here by traversals that share no code with
the enumerators the workloads run; the negative controls show that the
checks can fail; the tracer is shown to be reproducible and to restore
every function it wraps; ``run.py`` is held to the metrics and units that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
import workloads
from quiverperm import search
from speed import ProbeTimer
from tracing import Tracer, layer_metrics, percentile, tail_percentile
from workloads import GraphExport, LoopVerify, MgsVerify

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_loop_total_by_flat_replay():
    states = list(search.build_exchange_graph(workloads.LOOP_N).nodes.values())
    assert len(states) == workloads.LOOP_BASEPOINTS \
        == search.count_reachable_states(workloads.LOOP_N)
    total = sum(search.count_loops_by_replay(s, workloads.LOOP_MAX_LEN)
                for s in states)
    assert total == workloads.LOOP_TOTAL


def test_mgs_count_by_breadth_first_multiplicities():
    assert search.count_mgs(workloads.MGS_N) == workloads.MGS_COUNT


def test_graph_nodes_by_depth_first_recount_and_closed_form():
    n = workloads.GRAPH_N
    catalan = math.comb(2 * (n + 1), n + 1) // (n + 2)
    assert search.count_reachable_states(n) == workloads.GRAPH_NODES \
        == math.factorial(n) * catalan


def _pass(workload, tmp_path, seed=0):
    inputs = workload.setup(seed, tmp_path)
    return inputs, workload.check(inputs, workload.run(inputs))


def test_cli_digests_describe_independently_counted_outputs(tmp_path):
    paths, outcome = _pass(MgsVerify(), tmp_path)
    assert outcome.problems == [] and outcome.failed == 0
    lines = paths["verify"].read_text().splitlines()
    mgs_lines = [line for line in lines if line.startswith("mgs ")]
    assert len(mgs_lines) == workloads.MGS_COUNT
    assert all(": match (" in line for line in mgs_lines)
    census = json.loads(paths["census"].read_text())
    assert census["count"] == workloads.MGS_COUNT
    assert sum(census["lengths"].values()) == workloads.MGS_COUNT

    path, outcome = _pass(GraphExport(), tmp_path)
    assert outcome.problems == [] and outcome.items == workloads.GRAPH_NODES
    edges = sum(1 for line in path.read_text().splitlines() if " -- " in line)
    # every state has GRAPH_N neighbours and each edge is written once
    assert edges == workloads.GRAPH_NODES * workloads.GRAPH_N // 2


def test_corrupt_formula_fails_every_mgs_pass(tmp_path, capsys):
    workload = MgsVerify(corrupt_formula=True)
    paths = workload.setup(0, tmp_path)
    codes = workload.run(paths)
    outcome = workload.check(paths, codes)
    assert codes["verify"] == 1
    assert outcome.attempted == 1 and outcome.failed == 1
    assert "mismatch: mgs" in capsys.readouterr().err


def test_tampered_digest_fails_graph_export(tmp_path):
    _, outcome = _pass(GraphExport(expected_digest="0" * 64), tmp_path)
    assert outcome.failed == 1
    assert outcome.problems == ["export-dot output digest changed"]


def _wrapped_objects():
    """Every quiverperm attribute and class attribute the tracer may touch."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "quiverperm" or name.startswith("quiverperm."):
            for key, value in vars(module).items():
                seen[name, key] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[name, key, attr] = member
    return seen


def _traced_loop_pass(tmp_path, basepoints=4):
    workload = LoopVerify()
    inputs = workload.setup(7, tmp_path)[:basepoints]
    tracer = Tracer()
    with tracer.installed():
        results = workload.run(inputs)
    return tracer, sum(len(checked) for checked in results)


def test_tracer_restores_every_original(tmp_path):
    before = _wrapped_objects()
    tracer, _ = _traced_loop_pass(tmp_path, basepoints=1)
    assert tracer.missing == []
    assert tracer.calls_of("quiver.mutate") > 0
    after = _wrapped_objects()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_repeat_and_roots_are_items(tmp_path):
    first, loops = _traced_loop_pass(tmp_path)
    second, _ = _traced_loop_pass(tmp_path)
    assert first.calls == second.calls
    assert first.root_counts() == {"search.enumerate_loops": 4,
                                   "formula.verify": loops}
    metrics = layer_metrics(first)
    assert metrics["search.loops.found"][0] == loops
    assert metrics["formula.verify.samples"][0] == loops


def test_traced_cli_pass_has_one_root(tmp_path):
    workload = GraphExport()
    path = workload.setup(0, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        code = workload.run(path)
    assert code == 0
    assert tracer.root_counts() == {"cli": 1}
    metrics = layer_metrics(tracer)
    assert metrics["search.graph.nodes"][0] == workloads.GRAPH_NODES
    assert metrics["search.graph.mutates_per_node"][0] == workloads.GRAPH_N


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(2981) == 99
    assert tail_percentile(17100) == pytest.approx(99.9)
    values = list(range(1, 101))
    assert percentile(values, 50) == 50 and percentile(values, 99) == 99


def test_probe_timer_interleaves_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with ProbeTimer() as probes:
        deadline = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probes.samples) >= 4 and probes.probe_total_s > 0
    assert speed.rescale(2.0, 2 * speed.REFERENCE_PROBE_S) == 1.0


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_run_prints_every_declared_metric_with_its_unit():
    args = ["--workload", "graph-export", "--seed", "3", "--seconds", "1"]
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        assert _run(*args, "--trace", trace) \
            == {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert {m["name"] for m in BENCHMARK["workloads"]} \
        == set(workloads.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "mgs-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
