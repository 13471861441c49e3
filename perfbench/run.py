#!/usr/bin/env python3
"""Run the repository benchmark (see ``perfbench/README.md``).

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # every workload, untraced + traced
    python3 perfbench/run.py --workload provision_fattree --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload lossy_contention --seed 1 --record

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every simulated result
matched ``perfbench/expected.json`` and every integrity check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

#: Measured rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Timed set-ups per run for a workload that builds its fixture once.
SETUP_REPEATS = 3

E2E_UNITS = {
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_op": "count",
}


@dataclass
class Round:
    """One round of a workload: what it simulated and what it cost."""

    results: Optional[dict]
    ops: int
    events: int
    wall_s: float
    setup_s: Optional[float]
    census: object = None
    error: Optional[str] = None
    cpu: Optional[int] = None


def run_round(workload, seed: int, fixture=None, spans: bool = False,
              profile: Optional[cProfile.Profile] = None) -> Round:
    """Set up (unless ``fixture`` is given) and run one round.

    Exceptions become a failed :class:`Round` carrying the traceback.
    """
    from perfbench.workloads import Census

    census = Census(spans=spans)
    setup_s = None
    try:
        with census:
            if fixture is None:
                gc.collect()
                t0 = time.perf_counter()
                fixture = workload.setup(seed)
                setup_s = time.perf_counter() - t0
            gc.collect()
            if profile is not None:
                gc.disable()
                profile.enable()
            t0 = time.perf_counter()
            try:
                results, ops = workload.run(fixture, census)
            finally:
                wall = time.perf_counter() - t0
                if profile is not None:
                    profile.disable()
                    gc.enable()
    except Exception:
        return Round(None, 0, 0, 0.0, setup_s, census, traceback.format_exc())
    # Normalise to the JSON form expected.json stores (tuples -> lists).
    results = json.loads(json.dumps(results))
    return Round(results, ops, census.events, wall, setup_s, census)


def load_expected() -> dict:
    with EXPECTED.open() as fh:
        return json.load(fh)


def expected_for(table: dict, name: str, seed: int) -> Optional[dict]:
    """Recorded results for ``name`` at ``seed``, or ``None`` if not recorded."""
    entry = table.get(name, {})
    if "seeds" in entry:
        return entry["seeds"].get(str(seed))
    return entry.get("results")


def differences(expected, actual, path: str = "") -> list[str]:
    """Paths at which ``actual`` differs from ``expected`` (exact equality)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in actual:
                out.append(f"{where}: missing")
            elif key not in expected:
                out.append(f"{where}: unexpected")
            else:
                out.extend(differences(expected[key], actual[key], where))
        return out
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(differences(e, a, f"{path}[{i}]"))
        return out
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def check_round(workload, seed: int, rnd: Round, expected: Optional[dict],
                reference: Optional[Round]) -> list[str]:
    """Problems with one round's simulated results; empty when correct."""
    if rnd.error is not None:
        return [rnd.error.strip().splitlines()[-1]]
    problems = []
    if expected is not None:
        problems += differences(expected, rnd.results)
    elif hasattr(workload, "sane"):
        problems += workload.sane(rnd.results)
    else:
        problems.append(f"no expected results recorded for seed {seed}")
    if reference is not None and reference.results is not None:
        problems += [f"differs from the first round: {p}"
                     for p in differences(reference.results, rnd.results)]
        if rnd.events != reference.events:
            problems.append(f"events {rnd.events} != first round's {reference.events}")
    return problems


def median(values) -> float:
    return float(statistics.median(values))


@contextlib.contextmanager
def cpu_rotation():
    """Yield a function that moves the process to its next CPU in turn.

    The function returns the CPU, or ``None`` where affinity is not
    supported.  The process's CPU set is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    turns = itertools.cycle(cpus)

    def next_cpu() -> Optional[int]:
        if not cpus:
            return None
        cpu = next(turns)
        os.sched_setaffinity(0, {cpu})
        return cpu

    try:
        yield next_cpu
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def median_per_cpu(rounds: list[Round]) -> float:
    """The mean over CPUs of the median round wall time on each CPU."""
    on: dict = {}
    for rnd in rounds:
        on.setdefault(rnd.cpu, []).append(rnd.wall_s)
    return statistics.fmean(median(walls) for walls in on.values())


def measure(workload, seed: int, seconds: float, expected: Optional[dict]) -> dict:
    """The untraced run: end-to-end metrics over rounds filling ``seconds``.

    Successive set-ups and rounds run on each of the process's CPUs in
    turn.  On a shared host one CPU can be much faster than another for
    minutes at a time, so a run left on the CPU it started on would read
    that CPU's speed.  ``wall_s`` is the mean over CPUs of the median
    round time on each; ``setup_s`` is the median over all set-ups.
    """
    with cpu_rotation() as next_cpu:
        setups: list[float] = []
        fixture = None
        if workload.reuse_fixture:
            for _ in range(SETUP_REPEATS):
                next_cpu()
                gc.collect()
                t0 = time.perf_counter()
                fixture = workload.setup(seed)
                setups.append(time.perf_counter() - t0)

        def one() -> Round:
            cpu = next_cpu()
            rnd = run_round(workload, seed, fixture)
            rnd.cpu = cpu
            rnd.census = None  # let the round's simulations go before the next one
            if rnd.setup_s is not None:
                setups.append(rnd.setup_s)
            return rnd

        problems = []
        warm = one()  # fills lazy caches; timed set-up only
        if warm.error is not None:
            problems.append(f"warm-up round: {warm.error.strip().splitlines()[-1]}")
        rounds: list[Round] = []
        start = time.perf_counter()
        while not problems and (len(rounds) < MIN_ROUNDS
                                or time.perf_counter() - start < seconds):
            rnd = one()
            round_problems = check_round(workload, seed, rnd, expected,
                                         rounds[0] if rounds else None)
            rnd.error = "; ".join(round_problems) or None
            rounds.append(rnd)
            problems += [f"round {len(rounds)}: {p}" for p in round_problems]

    ok = [r for r in rounds if r.error is None]
    ops_per_round = next((r.ops for r in rounds if r.ops), 1)
    attempted = sum(r.ops or ops_per_round for r in rounds) or ops_per_round
    failed = sum(r.ops or ops_per_round for r in rounds if r.error is not None)
    if problems and not failed:  # the warm-up round failed
        failed = attempted
    metrics = {}
    if ok:
        wall = median_per_cpu(ok)
        metrics = {
            "wall_s": wall,
            "ops_per_s": ok[0].ops / wall,
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events_per_op": ok[0].events / ok[0].ops,
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "rounds": len(rounds),
    }


def traced(workload, seed: int, seconds: float, expected: Optional[dict]) -> dict:
    """The traced run: per-layer metrics and the tracing integrity checks."""
    from perfbench import counters

    fixture = workload.setup(seed) if workload.reuse_fixture else None
    problems = []
    warm_error = run_round(workload, seed, fixture).error
    if warm_error is not None:
        problems.append(f"warm-up round: {warm_error.strip().splitlines()[-1]}")

    plain: list[Round] = []
    start = time.perf_counter()
    while not problems and (not plain or time.perf_counter() - start < seconds):
        plain.append(run_round(workload, seed, fixture))
        plain[-1].census = None
        problems += check_round(workload, seed, plain[-1], expected,
                                plain[0] if len(plain) > 1 else None)

    profiles: list[cProfile.Profile] = []
    traced_rounds: list[Round] = []
    for _ in range(2):
        if problems:
            break
        prof = cProfile.Profile()
        rnd = run_round(workload, seed, fixture, spans=True, profile=prof)
        profiles.append(prof)
        traced_rounds.append(rnd)
        problems += [f"traced: {p}" for p in
                     check_round(workload, seed, rnd, expected, plain[0])]

    metrics: dict = {}
    if not problems:
        a, b = traced_rounds
        layer_a, unmapped = counters.profile_layers(profiles[0], SRC)
        layer_b, _ = counters.profile_layers(profiles[1], SRC)
        if unmapped:
            problems.append(f"modules in no layer: {sorted(unmapped)}")
        calls_a = {k: v[0] for k, v in layer_a.items()}
        calls_b = {k: v[0] for k, v in layer_b.items()}
        if calls_a != calls_b:
            problems.append("layer call counts differ between the two traced rounds: "
                            + ", ".join(k for k in calls_a if calls_a[k] != calls_b[k]))
        if a.events != b.events:
            problems.append(f"events differ between traced rounds: {a.events} != {b.events}")
        self_s = {k: (layer_a[k][1] + layer_b[k][1]) / 2 for k in layer_a}
        plain_wall = median(r.wall_s for r in plain)
        metrics = counters.layer_metrics(calls_a, self_s, a.ops)
        metrics["trace.overhead_ratio"] = (a.wall_s + b.wall_s) / 2 / plain_wall
        metrics.update(counters.component_metrics(a.census, a.ops))
        metrics.update(counters.span_metrics(a.census))
    ops = sum(r.ops for r in plain + traced_rounds) or 1
    return {
        "correct": not problems,
        "attempted": ops,
        "failed": ops if problems else 0,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": counters.unit_of(k)} for k, v in metrics.items()},
        "rounds": len(plain) + len(traced_rounds),
    }


def record(workload, seed: int) -> int:
    """Run one round after a warm-up and store its results in expected.json."""
    fixture = workload.setup(seed) if workload.reuse_fixture else None
    run_round(workload, seed, fixture)
    rnd = run_round(workload, seed, fixture)
    if rnd.error is not None:
        print(rnd.error, file=sys.stderr)
        return 1
    table = load_expected() if EXPECTED.exists() else {}
    if getattr(workload, "seeded", False):
        table.setdefault(workload.name, {}).setdefault("seeds", {})[str(seed)] = rnd.results
    else:
        table[workload.name] = {"results": rnd.results}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(rnd.results, indent=1, sort_keys=True))
    return 0


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.record:
        return record(workload, args.seed)
    expected = expected_for(load_expected(), workload.name, args.seed)
    run = traced if args.trace else measure
    report = run(workload, args.seed, args.seconds, expected)
    for problem in report.pop("problems"):
        print(f"FAIL {workload.name}: {problem}")
    print(f"{workload.name} seed={args.seed} trace={args.trace} rounds={report.pop('rounds')}")
    for name, metric in report["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (drives lossy_contention's loss stream)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="store this workload's results for --seed in expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
