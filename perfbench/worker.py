"""One benchmark pass in a fresh interpreter; ``run.py`` starts one per pass.

Usage: python3 perfbench/worker.py WORKLOAD SEED WORKDIR T0_NS [--setup-only]
[--trace]

``T0_NS`` is the parent's ``time.monotonic_ns()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import quiverperm`` and
input generation.  An untraced pass runs under speed probes (``speed.py``)
and reports its time without theirs, plus their mean; a traced pass is
bracketed by probes instead.  The pass prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from speed import ProbeTimer, probe_mean
from tracing import Tracer, layer_metrics


def identity_ns(states, rounds: int = 5) -> tuple[float, float]:
    """ns per ``hash(state)`` and per ``state == copy`` over ``states``,
    each the best of ``rounds``; the copies share no tuples with the
    originals, so equality compares every entry."""
    cls = type(states[0])
    copies = [cls(tuple(tuple(list(r)) for r in s.b),
                  tuple(tuple(list(r)) for r in s.c)) for s in states]
    pairs = list(zip(states, copies))
    clock = time.perf_counter_ns
    best_hash = best_eq = float("inf")
    for _ in range(rounds):
        t = clock()
        for s in states:
            hash(s)
        best_hash = min(best_hash, clock() - t)
        t = clock()
        for a, b in pairs:
            if not a == b:
                raise AssertionError("a state differs from its copy")
        best_eq = min(best_eq, clock() - t)
    return best_hash / len(states), best_eq / len(states)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("t0_ns", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed, args.workdir)
    record = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9,
              "quiverperm": workloads.quiverperm.__file__}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    if args.trace:
        # no probes inside a traced pass, where they would land in spans
        tracer = Tracer()
        before = probe_mean()
        with tracer.installed():
            start = time.perf_counter()
            result = workload.run(inputs)
            record["wall_s"] = time.perf_counter() - start
        record["probe_s"] = (before + probe_mean()) / 2
    else:
        with ProbeTimer() as probes:
            start = time.perf_counter()
            result = workload.run(inputs)
            elapsed = time.perf_counter() - start
        record["wall_s"] = elapsed - probes.probe_total_s
        record["probe_s"] = probes.probe_s
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    outcome = workload.check(inputs, result)
    if args.trace:
        layers = layer_metrics(tracer)
        hash_ns, eq_ns = identity_ns(workload.reached_states(inputs))
        layers["quiver.identity.hash_ns"] = (hash_ns, "ns")
        layers["quiver.identity.eq_ns"] = (eq_ns, "ns")
        layers["cli.output_bytes"] = (outcome.output_bytes, "bytes")
        roots = dict(tracer.root_counts())
        if roots != workload.expected_roots(outcome):
            outcome.fail(f"span roots {roots} are not one per item")
        record.update(layers=layers, missing_targets=tracer.missing)
    record.update(items=outcome.items, attempted=outcome.attempted,
                  failed=outcome.failed, problems=outcome.problems)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
