"""quiverperm benchmark: three exhaustive sweeps, each pass in a fresh
single-threaded interpreter, plus a separate traced run.

    python3 perfbench/run.py --workload loop-verify --seed 1 --seconds 30 --trace 0

``--trace 0`` runs untraced passes until ``--seconds`` is spent (at least
two) and reports the end-to-end metrics as medians over the passes, with
times rescaled to a reference machine speed (``speed.py``); ``--trace 1``
alternates untraced and traced passes (at least one of each) and reports the
per-layer metrics.  Every pass's outputs are checked.  The last stdout line
is one JSON object; the exit code is 0 only when every check passed.  See
``NOTES.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("loop-verify", "mgs-verify", "graph-export")
SETUP_SAMPLES = 9
MIN_PASSES = 2
PASS_TIMEOUT_S = 170
EXACT_UNITS = ("count", "bytes")


class PassError(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: Path, *flags: str) -> dict:
    """Run one pass in a fresh interpreter and return its JSON record."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(workdir), str(t0), *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    record = json.loads(lines[-1])
    if not Path(record["quiverperm"]).resolve().is_relative_to(ROOT / "src"):
        raise PassError(f"quiverperm imported from {record['quiverperm']}")
    return record


def setup_sample(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of one set-up-only interpreter, rescaled by probes run
    just before it starts and just after it exits."""
    before = speed.probe_mean()
    record = spawn(workload, seed, workdir, "--setup-only")
    return speed.rescale(record["setup_s"], (before + speed.probe_mean()) / 2)


def run_passes(workload: str, seed: int, seconds: float, workdir: Path,
               trace: bool) -> tuple[list[float], list[dict], list[dict]]:
    """Set-up samples, then passes until ``seconds`` would be exceeded."""
    start = time.monotonic()
    setups = [setup_sample(workload, seed, workdir)
              for _ in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(spawn(workload, seed, workdir))
        if trace:
            traced.append(spawn(workload, seed, workdir, "--trace"))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if (len(plain) >= (1 if trace else MIN_PASSES)
                and elapsed + per_round > seconds):
            break
    return setups, plain, traced


def end_to_end(setups: list[float], plain: list[dict]) -> dict:
    """Medians over the run, of times rescaled to the reference speed."""
    med = statistics.median
    walls = [speed.rescale(r["wall_s"], r["probe_s"]) for r in plain]
    return {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(walls), "s"),
        "items_per_s": (med(r["items"] / w for r, w in zip(plain, walls)),
                        "1/s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict],
              problems: list[str]) -> dict:
    """Counts from the first traced pass, which every other traced pass must
    repeat exactly; medians for the rest."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, (value, unit) in first.items():
            if unit in EXACT_UNITS and other["layers"][name][0] != value:
                problems.append(f"{name} differs between traced passes")
    metrics = {
        name: (value if unit in EXACT_UNITS else
               statistics.median(r["layers"][name][0] for r in traced), unit)
        for name, (value, unit) in first.items()}

    def rescaled_wall(passes):
        return statistics.median(speed.rescale(r["wall_s"], r["probe_s"])
                                 for r in passes)

    metrics["trace.overhead_ratio"] = (
        rescaled_wall(traced) / rescaled_wall(plain), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quiverperm" / "__init__.py").is_file():
        print(f"error: no quiverperm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, plain, traced = run_passes(
            args.workload, args.seed, args.seconds, workdir, bool(args.trace))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    problems = [p for r in passes for p in r["problems"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if args.trace:
        metrics = per_layer(plain, traced, problems)
        for target in traced[0]["missing_targets"]:
            print(f"note: trace target {target} not found", file=sys.stderr)
    else:
        metrics = end_to_end(setups, plain)

    print(f"workload {args.workload}, seed {args.seed}, quiverperm from "
          f"{passes[0]['quiverperm']}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"setup samples: {len(setups)}")
    print("measured wall_s per untraced pass: "
          + ", ".join(f"{r['wall_s']:.3f}" for r in plain))
    print("probe_s per untraced pass (reference "
          f"{speed.REFERENCE_PROBE_S}): "
          + ", ".join(f"{r.get('probe_s', 0.0):.5f}" for r in plain))
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
