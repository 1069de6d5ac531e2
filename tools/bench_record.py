"""Record a benchmark snapshot as one JSON file.  Run from the repository root:

    python3 tools/bench_record.py --out BENCH_<n>.json

It writes, with the interpreter and machine it ran on:

* `perfbench`: per workload, the median and the per-seed values of every
  end-to-end metric that `perfbench/run.py` prints, one run of SECONDS
  per seed in SEEDS;
* `criteria`: the wall and CPU time of acceptance criteria 3 and 10,
  each run REPEATS times in a fresh interpreter, in the order the
  acceptance gate runs them (criteria 1, 3 and 6 first, since 10 reruns
  those);
* `class_tables`: per class in TABLE_CLASSES, the wall and CPU time to
  build its n = 4 family-code tables for every state, REPEATS times,
  each in a fresh interpreter;
* `cold_start`: the wall time and peak RSS of `nbhdmc desugar -f p` as
  a new process, REPEATS times;
* `valid_probe`: likewise for `nbhdmc valid -f "W p -> ! W W p" --class
  c`, a nested formula whose one-step program settles one to three
  states over (c), so no frame is enumerated (records made before the
  one-step program timed a three-state scan of the orbit-least frames
  of (c) here; `orbit_probe` times such a listing);
* `orbit_probe`: the wall and CPU time of listing the orbit-least frames
  of ORBIT_CLASS at ORBIT_STATES states (search._orbit_least_frames),
  class tables included, REPEATS times, each in a fresh interpreter,
  with the least CPU time of the runs as well as their median, since
  the median spreads widely on a shared host (records up to BENCH_25
  timed `nbhdmc valid -f "W W true <-> W ! true" --class c` here, which
  scanned those frames until the one-step program's E-axiom atoms
  settled it);
* `front_end_probe`: in a fresh interpreter, the median µs per call of
  `parse`, `compile_formula` and a settled exhaustive `find_countermodel`
  at three states over FRONT_END_SCHEMAS (the thirteen valid schemas
  exhaustive-scan instantiates, each over its class), FRONT_END_ROUNDS
  rounds after a warm one, REPEATS times: the fixed per-call path of a
  request the one-step table settles;
* `one_step_probe`: per formula and class in ONE_STEP_PROBES, in a
  fresh interpreter, the wall and CPU time of a cold first sampled
  `find_countermodel` call at ONE_STEP_STATES states (ONE_STEP_SAMPLES
  samples), class tables included, then the medians of ONE_STEP_WARM
  warm calls, REPEATS times: valid formulas that the one-step table
  settles, so each call is that table's emptiness question, the four
  with several modal reads that set sampled-scan's p90 before BENCH_27
  and row 5.2;
* `closure_probe`: in a fresh interpreter, the median CPU time of
  `fragment_representatives` over two fixed input sets, CLOSURE_ROUNDS
  rounds after a warm one, REPEATS times: criterion 2's closures (the
  1024 one-atom two-state models, each alone, with U, O, W and K at
  depth 2) and CLOSURE_PAIRS closures of two seeded random two-state
  models over p and q with U and W at depth 2;
* `codec_probe`: in a fresh interpreter, the median CPU µs per call of
  `model_from_text` and of `model_to_text` on CODEC_TEXTS seeded random
  model texts of one to four states (each text once a round) and on one
  CODEC_STATES-state model, w_i's neighborhoods being the full set and
  {w_i} (CODEC_REPEATS calls a round), CODEC_ROUNDS rounds after a warm
  one, REPEATS times: the model wire format that every model request
  reads and most write;
* `announce_probe`: likewise for `nbhdmc valid -f "[[W false] (p | K q)]
  [q] (U true -> true)" --class m,n`, an exhaustive three-state scan of
  a valid formula with nested announcements;
* `multiblock_probe`: likewise for `nbhdmc valid -f "U (p & q & r & s)
  -> U U (p & q & r & s)" --class m`, an exhaustive three-state scan
  whose frames' 4096 valuations fill four valuation blocks;
* `local_multiblock_probe`: likewise for `nbhdmc valid -f "K (p & q & r
  & s & x) -> K (p & q & r & s & x)"`, a depth-1 formula over the
  unrestricted class at three states, whose 5984 valuations (one per
  orbit of the state renamings) times 2 read patterns pass the one-step
  table's lane budget, so the scan sweeps its 256 candidate frames (the
  least frame with the last state's code raised), each block by block,
  as its valuations fill 32 blocks (records up to BENCH_27 timed `K (p
  & q & r & s) -> K (p & q & r & s)` here, which the table now settles
  within its budget);
* `local_budget_probe`: likewise for `nbhdmc valid -f "(K p & K q & K r
  & K s & K (p & q)) | ! (K p & K q & K r & K s & K (p & q))" --class
  c`, a valid depth-1 formula whose table passes the lane budget at two
  and three states (136 and 816 valuations times 32 read patterns), so
  the scan sweeps every candidate frame there, the least frame with the
  last state's code raised through each code allowed there (records up
  to BENCH_27 judged each allowed code on its own frame);
* `bigframe_probe`: likewise for `nbhdmc frame-valid -f "K p | ! K p"`
  on a 16-state model written to a temporary file, state w_i's
  neighborhoods being the full set and {w_i}: one frame's whole K table
  of 2^16 entries, read under 2^16 valuations;
* `forced_probe`: likewise for `nbhdmc frame-valid -f "[W p] (K q | !
  K q)" --force` on a seeded random 8-state model written to a
  temporary file, each subset a neighborhood of each state with
  probability 1/3, so the frame is not closed under supersets: a forced
  sweep of 2^16 valuations whose announced sets take up to 2^8 values;
* `forced_wide_probe`: likewise for `nbhdmc frame-valid -f "[p] (K p | !
  K p) | p" --force` on a seeded random 16-state model written to a
  temporary file, each state with 4 distinct random neighborhoods: a
  forced sweep of 2^16 valuations, each announcing its own set;
* `props_probe`: likewise for `nbhdmc props` on a 16-state model
  written to a temporary file, w0's neighborhoods being the 32768 sets
  that contain w0: (c) and filter each check closure under intersection
  on that family;
* `sampled_probe`: likewise for `nbhdmc valid -f "W p -> ! p"
  --max-states 4 --samples 200000`, a sampled four-state scan of the
  unrestricted class; the formula is valid and depth-1, so the one-step
  check settles it without drawing;
* `sampled_draw_probe`: likewise for `nbhdmc valid -f "W p -> ! W W p"
  --max-states 4 --samples 200000`, a valid nested formula whose
  one-step program settles four states, so nothing is drawn (records
  made before the one-step program timed all 200000 draws here;
  `sampled_unsettled_probe` times such draws);
* `sampled_unsettled_probe`: likewise for `nbhdmc valid -f "O K W (p & !
  p)" --class m --max-states 4 --samples 200000`, a formula valid over
  (m) whose one-step program fails at four states, so all 200000 draws
  are made and judged (records up to BENCH_25 drew for `U p -> U U p`
  here, which the one-step program now settles);
* `paper_suite`: likewise for `nbhdmc paper-suite --jobs J`, per J in
  SUITE_JOBS;
* `calibration_start` and `calibration_end`: CALIBRATION_MARKS runs of
  perfbench's calibration loop (`perfbench/clock.py`, calibration_ns) in
  this process, at the start and at the end of the recording, with its
  REFERENCE_NS.  The loop does not touch nbhdmc, so it tracks the host's
  speed of the moment: read file-to-file deltas against it.

Every other section, and each perfbench workload, also carries its own
mark, `calibration_ns`: the median of CALIBRATION_MARKS runs of the
loop, taken as soon as the section is recorded.  A section's time
compares across files at the host speed of its own mark, so a host
phase that changes within a recording does not pass for a change in
nbhdmc.

Every `cli_wall` probe also records the child's CPU time (user plus
system, from os.wait4); the criteria and class tables record the CPU
time of the process that ran them (time.process_time), as `cpu_s` and
`cpu_ms`.  Wall times carry the host's load of the moment; compare two
files in CPU terms first.

The seeds, run length and repeats are fixed, so every BENCH_<n>.json is
recorded the same way and the files compare from one change to the next.

Only the standard library is used; nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exhaustive-scan", "sampled-scan", "model-requests")
SEEDS = (1, 2, 3)
SECONDS = 20
REPEATS = 3
TABLE_CLASSES = ((), ("m",), ("c",), ("m", "c"), ("n",), ("r",),
                 ("neg-suppl",))
COLD_START = ("desugar", "-f", "p")
VALID_PROBE = ("valid", "-f", "W p -> ! W W p", "--class", "c")
ANNOUNCE_PROBE = ("valid", "-f", "[[W false] (p | K q)] [q] (U true -> true)",
                  "--class", "m,n")
MULTIBLOCK_PROBE = ("valid", "-f", "U (p & q & r & s) -> U U (p & q & r & s)",
                    "--class", "m")
LOCAL_MULTIBLOCK_PROBE = ("valid", "-f",
                          "K (p & q & r & s & x) -> K (p & q & r & s & x)")
LOCAL_BUDGET_PROBE = ("valid", "-f",
                      "(K p & K q & K r & K s & K (p & q)) | "
                      "! (K p & K q & K r & K s & K (p & q))", "--class", "c")
SAMPLED_PROBE = ("valid", "-f", "W p -> ! p", "--max-states", "4",
                 "--samples", "200000")
SAMPLED_DRAW_PROBE = ("valid", "-f", "W p -> ! W W p", "--max-states", "4",
                      "--samples", "200000")
ORBIT_CLASS = ("c",)
ORBIT_STATES = 3
ONE_STEP_PROBES = (("(O p & O q) -> O (p & q)", ("c",)),
                   ("(O p & p) -> O (p | q)", ("m",)),
                   ("(W p & W ! q) -> W (p & ! q)", ("c",)),
                   ("(W (p & q) & ! q) -> W q", ("m",)),
                   ("U p -> U U p", ("m",)))
FRONT_END_SCHEMAS = (("U p -> p", ()), ("O p & O q -> O (p & q)", ("c",)),
                     ("O p & p -> O (p | q)", ("m",)), ("W p -> ! p", ()),
                     ("W p & W q -> W (p & q)", ("c",)),
                     ("W (p & q) & ! q -> W q", ("m",)),
                     ("W (p & q) & ! q -> W q", ("neg-suppl",)),
                     ("U p -> U U p", ("m",)), ("W p -> ! W W p", ()),
                     ("U p <-> p & ! K p", ()), ("W p <-> K p & ! p", ()),
                     ("O p <-> (p -> K p)", ()),
                     ("K p <-> W p | O p & p", ()))
FRONT_END_ROUNDS = 200
ONE_STEP_STATES = 4
ONE_STEP_SAMPLES = 1000
ONE_STEP_WARM = 200
SAMPLED_UNSETTLED_PROBE = ("valid", "-f", "O K W (p & ! p)", "--class", "m",
                           "--max-states", "4", "--samples", "200000")
BIGFRAME_PROBE = ("frame-valid", "-f", "K p | ! K p")
BIGFRAME_STATES = 16
FORCED_PROBE = ("frame-valid", "-f", "[W p] (K q | ! K q)", "--force")
FORCED_STATES = 8
FORCED_SEED = 16
FORCED_WIDE_PROBE = ("frame-valid", "-f", "[p] (K p | ! K p) | p", "--force")
FORCED_WIDE_STATES = 16
FORCED_WIDE_SETS = 4
PROPS_STATES = 16
CLOSURE_PAIRS = 300
CLOSURE_SEED = 31
CLOSURE_ROUNDS = 5
CODEC_TEXTS = 500
CODEC_SEED = 32
CODEC_STATES = 16
CODEC_REPEATS = 100
CODEC_ROUNDS = 10
SUITE_JOBS = (1, 2, 4)
CALIBRATION_MARKS = 15

sys.path.insert(0, str(ROOT / "perfbench"))
from clock import REFERENCE_NS, calibration_ns  # noqa: E402

# Times criteria 3 and 10 as the acceptance gate runs them; prints JSON,
# [wall, cpu] seconds per criterion.
_CRITERIA_PROBE = """
import json, time
import test_acceptance as gate
took = {}
for num, test in (
        ("1", gate.test_criterion_01_frame_validity_matches_property_n),
        ("3", gate.test_criterion_03_axiom_soundness_over_frame_classes),
        ("6", gate.test_criterion_06_unknowability_target_and_reductions),
        ("10", gate.test_criterion_10_determinism_across_runs_and_jobs)):
    start, cpu = time.perf_counter(), time.process_time()
    test()
    took[num] = [time.perf_counter() - start, time.process_time() - cpu]
print(json.dumps({num: took[num] for num in ("3", "10")}))
"""


# Times the n = 4 tables of the class named by the arguments; prints JSON,
# [wall, cpu] seconds.
_TABLE_PROBE = """
import json, sys, time
from nbhdmc.search import allowed_family_codes
props = frozenset(sys.argv[1:])
start, cpu = time.perf_counter(), time.process_time()
for state in range(4):
    allowed_family_codes(4, props, state)
print(json.dumps([time.perf_counter() - start, time.process_time() - cpu]))
"""


# Lists the orbit-least frames, class tables included, of the class named
# by the arguments after the state count; prints JSON, [wall, cpu] seconds.
_ORBIT_PROBE = """
import json, sys, time
from nbhdmc.search import _orbit_least_frames
n, props = int(sys.argv[1]), frozenset(sys.argv[2:])
start, cpu = time.perf_counter(), time.process_time()
for _ in _orbit_least_frames(n, props):
    pass
print(json.dumps([time.perf_counter() - start, time.process_time() - cpu]))
"""


# Times parse, compile_formula and a settled three-state exhaustive
# find_countermodel on each (text, class) of the JSON list given, per
# round after a warm one, for the rounds given; prints JSON, the median
# over rounds of the mean us per call of each.
_FRONT_END_PROBE = """
import json, statistics, sys, time
from nbhdmc.formula import parse
from nbhdmc.search import ClassSpec, NoCounterexampleUpTo, find_countermodel
from nbhdmc.semantics import compile_formula
rounds, cases = int(sys.argv[1]), json.loads(sys.argv[2])
cases = [(text, ClassSpec(frozenset(props), 3)) for text, props in cases]
settled = NoCounterexampleUpTo(3, "exhaustive")
took = []
for _ in range(1 + rounds):
    ns = [0, 0, 0]
    for text, cls in cases:
        t0 = time.perf_counter_ns()
        f = parse(text)
        t1 = time.perf_counter_ns()
        compile_formula(f)
        t2 = time.perf_counter_ns()
        verdict = find_countermodel(f, cls)
        t3 = time.perf_counter_ns()
        assert verdict == settled, text
        ns = [ns[0] + t1 - t0, ns[1] + t2 - t1, ns[2] + t3 - t2]
    took.append([x / 1e3 / len(cases) for x in ns])
print(json.dumps([statistics.median(col) for col in zip(*took[1:])]))
"""


# Times a cold sampled call, then ONE_STEP_WARM warm ones, of the formula
# and class named by the arguments after the state count, sample count
# and warm count; prints JSON, [cold wall, cold cpu, warm wall median,
# warm cpu median] seconds.
_ONE_STEP_PROBE = """
import json, statistics, sys, time
from nbhdmc.formula import parse
from nbhdmc.search import ClassSpec, NoCounterexampleUpTo, find_countermodel
n, samples, warm = map(int, sys.argv[1:4])
f, cls = parse(sys.argv[4]), ClassSpec(frozenset(sys.argv[5:]), n)
runs = []
for _ in range(1 + warm):
    start, cpu = time.perf_counter(), time.process_time()
    verdict = find_countermodel(f, cls, "sampled", seed=1, samples=samples)
    runs.append((time.perf_counter() - start, time.process_time() - cpu))
    assert isinstance(verdict, NoCounterexampleUpTo), verdict
walls, cpus = zip(*runs[1:])
print(json.dumps([*runs[0], statistics.median(walls),
                  statistics.median(cpus)]))
"""


# Times fragment_representatives over criterion 2's closures, then over
# the given count of seeded random two-model closures, per round after a
# warm one, for the rounds given; prints JSON, the median CPU ms of each.
_CLOSURE_PROBE = """
import json, statistics, sys, time
from _criteria import _all_models
from _gen import random_model
from nbhdmc.formula import Box, Bullet, Circ, Wrong
from nbhdmc.search import SplitMix64, fragment_representatives
rounds, pairs, seed = map(int, sys.argv[1:4])
rng = SplitMix64(seed)
sets = (
    [((m,), ("p",), (Bullet, Circ, Wrong, Box)) for m in _all_models(2, ("p",))],
    [((random_model(rng, 2), random_model(rng, 2)), ("p", "q"),
      (Bullet, Wrong)) for _ in range(pairs)])
took = []
for _ in range(1 + rounds):
    ms = []
    for cases in sets:
        cpu = time.process_time()
        for models, atoms, operators in cases:
            fragment_representatives(models, atoms, operators, 2)
        ms.append(1e3 * (time.process_time() - cpu))
    took.append(ms)
print(json.dumps([statistics.median(col) for col in zip(*took[1:])]))
"""


# Times model_from_text, then model_to_text on the models it read, over
# the given count of seeded random model texts of one to four states and
# over the given repeats of one model of the given state count, per round
# after a warm one, for the rounds given; prints JSON, the median CPU us
# per call of each, small texts first.
_CODEC_PROBE = """
import json, statistics, sys, time
from _gen import random_model_doc
from nbhdmc.model import model_from_text, model_to_text
from nbhdmc.search import SplitMix64
rounds, count, seed, states, repeats = map(int, sys.argv[1:6])
rng = SplitMix64(seed)
names = [f"w{i}" for i in range(states)]
big = json.dumps({"states": names, "valuation": {"p": names[::2]},
                  "neighborhoods": {s: [names, [s]] for s in names}})
sets = ([json.dumps(random_model_doc(rng, 1 + k % 4)) for k in range(count)],
        [big] * repeats)
took = []
for _ in range(1 + rounds):
    us = []
    for texts in sets:
        cpu = time.process_time()
        models = [model_from_text(text) for text in texts]
        mid = time.process_time()
        for model in models:
            model_to_text(model)
        end = time.process_time()
        us += [1e6 * (mid - cpu) / len(texts), 1e6 * (end - mid) / len(texts)]
    took.append(us)
print(json.dumps([statistics.median(col) for col in zip(*took[1:])]))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _last_json_line(argv: list[str]) -> dict:
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        msg = (f"{' '.join(argv[1:])} exited with {proc.returncode}: "
               f"{proc.stderr.strip()[-500:]}")
        raise RuntimeError(msg)
    return json.loads(lines[-1])


def perfbench() -> dict:
    out = {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            print(f"perfbench {workload} seed {seed}", file=sys.stderr)
            runs.append(_last_json_line(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS)]))
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = {"median": statistics.median(values),
                             "unit": entry["unit"], "runs": values}
        out[workload] = marked({"correct": all(run["correct"] for run in runs),
                                "metrics": metrics})
    return out


def criteria() -> dict:
    runs = []
    for i in range(REPEATS):
        print(f"criteria 3 and 10, run {i + 1}", file=sys.stderr)
        runs.append(_last_json_line(
            [sys.executable, "-c", _CRITERIA_PROBE]))
    out = {}
    for num in ("3", "10"):
        walls, cpus = zip(*(run[num] for run in runs))
        out[num] = {"median_s": statistics.median(walls),
                    "runs_s": list(walls), "cpu_s": statistics.median(cpus),
                    "runs_cpu_s": list(cpus)}
    return out


def class_tables() -> dict:
    out = {}
    for props in TABLE_CLASSES:
        name = f"({','.join(props)})"
        print(f"class tables {name}", file=sys.stderr)
        runs, cpus = [], []
        for _ in range(REPEATS):
            wall, cpu = _last_json_line([sys.executable, "-c", _TABLE_PROBE,
                                         *props])
            runs.append(1e3 * wall)
            cpus.append(1e3 * cpu)
        out[name] = {"median_ms": statistics.median(runs), "runs_ms": runs,
                     "cpu_ms": statistics.median(cpus), "runs_cpu_ms": cpus}
    return out


def orbit_probe() -> dict:
    runs, cpus = [], []
    for _ in range(REPEATS):
        print(f"orbit-least frames ({','.join(ORBIT_CLASS)}) at "
              f"{ORBIT_STATES} states", file=sys.stderr)
        wall, cpu = _last_json_line([sys.executable, "-c", _ORBIT_PROBE,
                                     str(ORBIT_STATES), *ORBIT_CLASS])
        runs.append(wall)
        cpus.append(cpu)
    return {"class": list(ORBIT_CLASS), "states": ORBIT_STATES,
            "median_s": statistics.median(runs), "runs_s": runs,
            "cpu_s": statistics.median(cpus), "min_cpu_s": min(cpus),
            "runs_cpu_s": cpus}


def front_end_probe() -> dict:
    print("front end: parse, compile_formula, settled find_countermodel",
          file=sys.stderr)
    runs = [_last_json_line(
        [sys.executable, "-c", _FRONT_END_PROBE, str(FRONT_END_ROUNDS),
         json.dumps(FRONT_END_SCHEMAS)]) for _ in range(REPEATS)]
    out = {"schemas": len(FRONT_END_SCHEMAS), "rounds": FRONT_END_ROUNDS}
    for i, name in enumerate(("parse", "compile_formula",
                              "find_countermodel")):
        values = [run[i] for run in runs]
        out[name] = {"median_us": statistics.median(values),
                     "runs_us": values}
    return out


def one_step_probe() -> dict:
    out = {"states": ONE_STEP_STATES, "samples": ONE_STEP_SAMPLES,
           "warm_calls": ONE_STEP_WARM}
    for text, props in ONE_STEP_PROBES:
        print(f"one-step table: {text} over ({','.join(props)})",
              file=sys.stderr)
        runs = [_last_json_line(
            [sys.executable, "-c", _ONE_STEP_PROBE, str(ONE_STEP_STATES),
             str(ONE_STEP_SAMPLES), str(ONE_STEP_WARM), text, *props])
            for _ in range(REPEATS)]
        cold, cold_cpu, warm, warm_cpu = (
            [1e3 * run[i] for run in runs] for i in range(4))
        out[f"{text} ({','.join(props)})"] = {
            "cold_ms": statistics.median(cold), "runs_cold_ms": cold,
            "cold_cpu_ms": statistics.median(cold_cpu),
            "runs_cold_cpu_ms": cold_cpu,
            "warm_ms": statistics.median(warm), "runs_warm_ms": warm,
            "warm_cpu_ms": statistics.median(warm_cpu),
            "runs_warm_cpu_ms": warm_cpu}
    return out


def closure_probe() -> dict:
    print("fragment closures: criterion 2, random model pairs",
          file=sys.stderr)
    runs = [_last_json_line(
        [sys.executable, "-c", _CLOSURE_PROBE, str(CLOSURE_ROUNDS),
         str(CLOSURE_PAIRS), str(CLOSURE_SEED)]) for _ in range(REPEATS)]
    out = {"rounds": CLOSURE_ROUNDS, "depth": 2}
    for i, name in enumerate(("criterion_2", f"random_pairs_{CLOSURE_PAIRS}")):
        values = [run[i] for run in runs]
        out[name] = {"cpu_ms": statistics.median(values),
                     "runs_cpu_ms": values}
    return out


def codec_probe() -> dict:
    print("model wire format: model_from_text, model_to_text",
          file=sys.stderr)
    runs = [_last_json_line(
        [sys.executable, "-c", _CODEC_PROBE, str(CODEC_ROUNDS),
         str(CODEC_TEXTS), str(CODEC_SEED), str(CODEC_STATES),
         str(CODEC_REPEATS)]) for _ in range(REPEATS)]
    out = {"rounds": CODEC_ROUNDS}
    names = (f"texts_{CODEC_TEXTS}.model_from_text",
             f"texts_{CODEC_TEXTS}.model_to_text",
             f"states_{CODEC_STATES}.model_from_text",
             f"states_{CODEC_STATES}.model_to_text")
    for i, name in enumerate(names):
        values = [run[i] for run in runs]
        out[name] = {"cpu_us": statistics.median(values),
                     "runs_cpu_us": values}
    return out


def calibration() -> dict:
    """CALIBRATION_MARKS runs of perfbench's calibration loop in this
    process (each the fastest of three loops), in ns."""
    runs = [calibration_ns() for _ in range(CALIBRATION_MARKS)]
    return {"median_ns": statistics.median(runs), "runs_ns": runs,
            "reference_ns": REFERENCE_NS}


def marked(section: dict) -> dict:
    """section with the median of a calibration() taken now."""
    return {**section, "calibration_ns": calibration()["median_ns"]}


def repeated(section: dict) -> dict:
    """A section measured REPEATS times, marked."""
    return marked({"repeats": REPEATS, **section})


def cli_wall(args) -> dict:
    """Wall time, CPU time and peak RSS of `nbhdmc <args>` as a new
    process, REPEATS times; the command must exit 0.  The CPU time and
    the peak are the child's own (ru_utime + ru_stime and ru_maxrss, KiB
    on Linux, from os.wait4), not this process's."""
    print(f"nbhdmc {' '.join(args)}", file=sys.stderr)
    argv = [sys.executable, "-m", "nbhdmc.cli", *args]
    runs, cpus, peaks = [], [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        runs.append(time.perf_counter() - start)
        cpus.append(usage.ru_utime + usage.ru_stime)
        peaks.append(usage.ru_maxrss / 1024)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            msg = f"{' '.join(args)} exited with {proc.returncode}"
            raise RuntimeError(msg)
    return {"argv": " ".join(args), "median_s": statistics.median(runs),
            "runs_s": runs, "cpu_s": statistics.median(cpus),
            "runs_cpu_s": cpus, "peak_rss_mib": statistics.median(peaks),
            "runs_peak_rss_mib": peaks}


def _model_probe(args, doc: dict, name: str) -> dict:
    """cli_wall of args on the model doc, written to a temporary file
    called name, with the file's path shown as that name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        probe = cli_wall((*args, "-m", str(path)))
    probe["argv"] = probe["argv"].replace(str(path), path.name)
    return probe


def bigframe_probe() -> dict:
    """cli_wall of BIGFRAME_PROBE on the BIGFRAME_STATES-state model."""
    names = [f"w{i}" for i in range(BIGFRAME_STATES)]
    doc = {"states": names,
           "neighborhoods": {name: [names, [name]] for name in names}}
    return _model_probe(BIGFRAME_PROBE, doc, "bigframe.json")


def forced_probe() -> dict:
    """cli_wall of FORCED_PROBE on a random FORCED_STATES-state model,
    every subset a neighborhood of each state with probability 1/3 under
    random.Random(FORCED_SEED)."""
    rng = random.Random(FORCED_SEED)
    names = [f"w{i}" for i in range(FORCED_STATES)]
    subsets = [[names[i] for i in range(FORCED_STATES) if x >> i & 1]
               for x in range(1 << FORCED_STATES)]
    doc = {"states": names,
           "neighborhoods": {name: [x for x in subsets if rng.random() < 1 / 3]
                             for name in names}}
    return _model_probe(FORCED_PROBE, doc, "forced.json")


def forced_wide_probe() -> dict:
    """cli_wall of FORCED_WIDE_PROBE on a random FORCED_WIDE_STATES-state
    model, each state with FORCED_WIDE_SETS distinct neighborhoods drawn
    uniformly under random.Random(FORCED_SEED)."""
    rng = random.Random(FORCED_SEED)
    names = [f"w{i}" for i in range(FORCED_WIDE_STATES)]
    doc = {"states": names, "neighborhoods": {
        name: [[names[i] for i in range(FORCED_WIDE_STATES) if x >> i & 1]
               for x in rng.sample(range(1 << FORCED_WIDE_STATES),
                                   FORCED_WIDE_SETS)]
        for name in names}}
    return _model_probe(FORCED_WIDE_PROBE, doc, "forced_wide.json")


def props_probe() -> dict:
    """cli_wall of props on the PROPS_STATES-state model whose w0 has
    every set containing w0 as a neighborhood.  The file is written one
    set at a time: holding the sets here would raise this process's
    peak RSS, which every later child's ru_maxrss carries over exec."""
    names = [f"w{i}" for i in range(PROPS_STATES)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dense.json"
        with path.open("w") as out:
            out.write(f'{{"states": {json.dumps(names)}, '
                      '"neighborhoods": {"w0": [')
            out.writelines(
                (", " if x > 1 else "")
                + json.dumps([names[i] for i in range(PROPS_STATES)
                              if x >> i & 1])
                for x in range(1, 1 << PROPS_STATES, 2))
            out.write("]}}")
        probe = cli_wall(("props", "-m", str(path)))
    probe["argv"] = probe["argv"].replace(str(path), path.name)
    return probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    record = {
        "calibration_start": calibration(),
        "python": platform.python_version(),
        "machine": {"system": platform.system(), "arch": platform.machine(),
                    "cpus": os.cpu_count()},
        "perfbench": {"seeds": list(SEEDS), "seconds": SECONDS,
                      "workloads": perfbench()},
        "criteria": repeated(criteria()),
        "class_tables": repeated({"states": 4, **class_tables()}),
        "cold_start": repeated(cli_wall(COLD_START)),
        "valid_probe": repeated(cli_wall(VALID_PROBE)),
        "orbit_probe": repeated(orbit_probe()),
        "front_end_probe": repeated(front_end_probe()),
        "one_step_probe": repeated(one_step_probe()),
        "closure_probe": repeated(closure_probe()),
        "codec_probe": repeated(codec_probe()),
        "announce_probe": repeated(cli_wall(ANNOUNCE_PROBE)),
        "multiblock_probe": repeated(cli_wall(MULTIBLOCK_PROBE)),
        "local_multiblock_probe": repeated(cli_wall(LOCAL_MULTIBLOCK_PROBE)),
        "local_budget_probe": repeated(cli_wall(LOCAL_BUDGET_PROBE)),
        "bigframe_probe": repeated(bigframe_probe()),
        "forced_probe": repeated(forced_probe()),
        "forced_wide_probe": repeated(forced_wide_probe()),
        "props_probe": repeated(props_probe()),
        "sampled_probe": repeated(cli_wall(SAMPLED_PROBE)),
        "sampled_draw_probe": repeated(cli_wall(SAMPLED_DRAW_PROBE)),
        "sampled_unsettled_probe": repeated(cli_wall(
            SAMPLED_UNSETTLED_PROBE)),
        "paper_suite": repeated({f"jobs_{jobs}": cli_wall(
            ("paper-suite", "--jobs", str(jobs))) for jobs in SUITE_JOBS}),
        "calibration_end": calibration(),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
