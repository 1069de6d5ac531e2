"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exhaustive-scan, sampled-scan, model-requests (see
workloads.py).  Each run is one client in a closed loop with no pool: the
op list is split over four worker processes, one per string-hash seed,
run one after another.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

setup_s is the median of several fresh-interpreter set-ups, each timed
from process start to a worker's "ready" line, with the bytecode cache
compiled beforehand as an installed package has it: the four measuring
workers' set-ups, and set-up-only workers up to seven while they take
under half a second.  Like every time the benchmark reports, it is scaled
by a calibration loop (see clock.py), timed here before and after each
set-up.  The traced run uses one worker and adds the probes no op covers:
`python -m nbhdmc.cli desugar -f p` cold starts, the sampled-scan class
tables, and each paper-suite row.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from clock import Clock
from stats import summary

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170.0  # every run ends, children included, within this
COLD_STARTS = 5
# String hashes, and so the layout of every dict and set keyed by formulas,
# change with PYTHONHASHSEED, and one process's seed moved a scan's time by
# 10-15 %.  Each run splits its ops over one worker per seed here, one after
# another, so every run averages the same four layouts.
HASH_SEEDS = (1, 2, 3, 4)
SETUP_SAMPLES = 7  # set-ups a run times when each takes under MANY_S
MANY_S = 0.5


class WorkerError(RuntimeError):
    pass


def _env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def _spawn(argv: list[str], deadline: float, hash_seed: int = HASH_SEEDS[0]):
    """Run a child to completion; return (seconds to its first line, its
    last line).  The child is killed if it outlives the deadline."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(hash_seed),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        lines = [first] + proc.stdout.readlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    lines = [ln.strip() for ln in lines if ln.strip()]
    if code != 0 or not lines:
        msg = f"{' '.join(argv[1:])} exited with {code}"
        raise WorkerError(msg)
    return ready, lines[-1]


def _worker(args, deadline: float, hash_seed: int, *extra: str):
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    return _spawn(argv, deadline, hash_seed)


def _measure(args, deadline: float) -> dict:
    """The end-to-end metrics: the ops split over one worker per hash seed,
    the first measuring whole passes for its share of the time and the
    others as many passes, then set-up-only workers until SETUP_SAMPLES
    set-ups are timed, unless they are slow."""
    clock = Clock()
    setups, times, rss = [], [], []
    attempted = failed = passes = 0
    for part, hash_seed in enumerate(HASH_SEEDS):
        clock.mark()
        ready, line = _worker(args, deadline, hash_seed,
                              "--seconds", str(args.seconds / len(HASH_SEEDS)),
                              "--part", str(part),
                              "--parts", str(len(HASH_SEEDS)),
                              "--passes", str(passes))
        clock.mark()
        out = json.loads(line)
        passes = out["passes"]
        setups.append(ready)
        times += out["times_ms"]
        rss.append(out["peak_rss_mib"])
        attempted += out["attempted"]
        failed += out["failed"]
    while len(setups) < SETUP_SAMPLES and statistics.median(setups) < MANY_S:
        clock.mark()
        setups.append(_worker(args, deadline,
                              HASH_SEEDS[len(setups) % len(HASH_SEEDS)],
                              "--setup-only")[0])
        clock.mark()
    metrics = summary(args.workload, times)
    metrics.update(peak_rss_mib=max(rss),
                   op_ok_ratio=1 - failed / attempted,
                   setup_s=statistics.median(setups) * clock.factor())
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _cold_start_ms(deadline: float) -> float:
    clock = Clock()
    took = []
    for _ in range(COLD_STARTS):
        out, ns = clock.time(functools.partial(
            subprocess.run,
            [sys.executable, "-m", "nbhdmc.cli", "desugar", "-f", "p"],
            cwd=ROOT, env=_env(HASH_SEEDS[0]), capture_output=True, text=True,
            timeout=max(deadline - perf_counter(), 0.1), check=False))
        took.append(ns)
        if out.returncode != 0 or out.stdout.strip() != "p":
            msg = f"cli cold start printed {out.stdout!r}, exit {out.returncode}"
            raise WorkerError(msg)
    return statistics.median(took) * clock.factor() / 1e6


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="nbhdmc benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    needed = (ROOT / "src" / "nbhdmc" / "__init__.py",
              ROOT / "tests" / "_oracle.py", ROOT / "models")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: run from a checkout of the repository; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    for path in (ROOT / "src" / "nbhdmc", ROOT / "tests", WORKER.parent):
        compileall.compile_dir(str(path), quiet=1)
    try:
        if args.trace:
            _, line = _worker(args, deadline, HASH_SEEDS[0],
                              "--seconds", str(args.seconds))
            result = json.loads(line)
            _, probe_line = _spawn([sys.executable, str(WORKER), "--probe"],
                                   deadline)
            probe = json.loads(probe_line)
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]
            result["metrics"].update(probe["metrics"])
            result["metrics"]["cli.cold_start_ms"] = _cold_start_ms(deadline)
        else:
            result = _measure(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    if {m["name"] for m in wanted} != set(got):
        print(f"perfbench: metrics {sorted(got)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
