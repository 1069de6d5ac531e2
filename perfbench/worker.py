"""One fresh benchmark process: set a workload up, run it, check the answers.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        [--trace 0|1] [--part I --parts P [--passes N]]
    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --probe

Prints "ready" on stdout right before the first op (the parent times the
set-up from process start to that line), then one JSON object.  A worker
builds the whole op list, keeps part I of P (each part has the same mix of
kinds), measures whole passes of it and stops before a pass that would
end after --seconds; it always runs at least one.  With --passes it runs
exactly that many instead.  With --trace 1 the
first half of that time runs untraced and the second half with the span
recorder installed.  --probe times the per-invocation pieces that no op
covers: the sampled-scan class tables and each paper-suite row.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads as wl  # noqa: E402  (needs the paths above)
from clock import Clock  # noqa: E402
from spans import LAYERS, SpanRecorder  # noqa: E402
from stats import summary  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

@dataclass(frozen=True)
class Raised:
    """Answer of an op that raised."""

    error: str


class Runner:
    """Runs passes of one op list and keeps what the checks need."""

    def __init__(self, ops):
        self.ops = ops
        self.passes = 0
        self.first: list = []  # pass-0 answers, checked at the end
        self.reference: list = []  # their normalized form
        self.matched = [0] * len(ops)  # later passes equal to pass 0
        self.peak_rss_mib = 0.0  # at the end of the last window

    def window(self, seconds: float, recorder: SpanRecorder | None = None,
               passes: int = 0):
        """[(op index, wall ns, scaled ns)] of the timed ops of whole
        passes filling at most `seconds`, or of exactly `passes` passes if
        that is set.  Untimed ops run in the passes too, and are checked."""
        clock = Clock()
        index, starts, ends = array("l"), array("q"), array("q")
        start = perf_counter()
        done = 0
        while True:
            k = self.passes
            inputs = [op.inputs(k) for op in self.ops]
            answers = []
            for i, op in enumerate(self.ops):
                clock.maybe_mark()
                if recorder is not None and op.timed:
                    recorder.op = len(index)
                t0 = perf_counter_ns()
                try:
                    answer = op.request(*inputs[i])
                except Exception as exc:  # a raising op is a failed op
                    answer = Raised(repr(exc))
                t1 = perf_counter_ns()
                if recorder is not None:
                    recorder.op = None
                answers.append(answer)
                if op.timed:
                    index.append(i)
                    starts.append(t0)
                    ends.append(t1)
            self._keep(answers)
            done += 1
            elapsed = perf_counter() - start
            if done == passes or not passes and \
                    elapsed * (done + 1) / done > seconds:
                break
        clock.mark()
        self.peak_rss_mib = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        factor = clock.factor()
        return [(i, t1 - t0, (t1 - t0) * factor)
                for i, t0, t1 in zip(index, starts, ends)]

    def _keep(self, answers) -> None:
        if self.passes == 0:
            self.first = answers
            self.reference = [wl.normalize(a) for a in answers]
        else:
            for i, answer in enumerate(answers):
                if not isinstance(answer, Raised) and \
                        wl.normalize(answer) == self.reference[i]:
                    self.matched[i] += 1
        self.passes += 1

    def failures(self) -> int:
        """Wrong or raised answers over every pass run so far."""
        failed = 0
        for i, op in enumerate(self.ops):
            answer = self.first[i]
            try:
                ok = not isinstance(answer, Raised) and bool(op.check(answer))
            except Exception:  # a check that cannot read the answer fails it
                ok = False
            later = self.passes - 1
            failed += (later - self.matched[i]) if ok else later + 1
        return failed


def ops_per_s(samples) -> float:
    return len(samples) / (sum(scaled for *_, scaled in samples) / 1e9)


def part_of(ops, part: int, parts: int) -> list:
    """Every parts-th op of each kind, from the part-th on, in list order,
    so each part has the same mix."""
    seen: dict = defaultdict(int)
    out = []
    for op in ops:
        if seen[op.kind] % parts == part:
            out.append(op)
        seen[op.kind] += 1
    return out


def per_layer(ops, samples, untraced_ops_per_s: float,
              recorder: SpanRecorder) -> dict:
    n_ops = len(samples)
    factor = [scaled / wall for _, wall, scaled in samples]
    calls = defaultdict(int)
    self_ns = defaultdict(float)
    search_by_op = defaultdict(float)
    for name, ns, op_seq, _ in recorder.self_times():
        ns *= factor[op_seq]
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_ns[layer] += ns
        if layer == "search":
            search_by_op[op_seq] += ns
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / n_ops
    for stratum in ("n2", "n3"):
        seqs = [s for s, (i, *_) in enumerate(samples)
                if ops[i].kind == stratum]
        out[f"search.self_ms.{stratum}"] = (
            sum(search_by_op[s] for s in seqs) / 1e6 / len(seqs)
            if seqs else 0.0)
    scans = [(s, scan_evals(ops[i].scan)) for s, (i, *_) in enumerate(samples)
             if ops[i].scan is not None]
    evals = sum(e for _, e in scans)
    scan_ns = sum(search_by_op[s] for s, _ in scans)
    out["search.evals"] = evals / len(scans) if scans else 0.0
    out["search.evals_per_s"] = evals / (scan_ns / 1e9) if scan_ns else 0.0
    dist = [(end - start) * factor[op_seq] for name, start, end, _, op_seq, _
            in recorder.spans if name == "search.distinguish"]
    reps = [size for name, *_, size in recorder.spans
            if name == "search.fragment_representatives"]
    out["search.distinguish_ms"] = sum(dist) / 1e6 / len(dist) if dist else 0.0
    out["search.representatives"] = sum(reps) / len(reps) if reps else 0.0
    out["trace.overhead_ratio"] = untraced_ops_per_s / ops_per_s(samples)
    return out


_EVALS: dict = {}


def scan_evals(scan) -> int:
    """Canonical (frame, valuation) pairs a full scan visits."""
    props, max_states, n_atoms, samples = scan
    if samples:
        return samples
    key = (props, max_states, n_atoms)
    if key not in _EVALS:
        _EVALS[key] = sum(wl.frame_count(n, props) * 2 ** (n * n_atoms)
                          for n in range(1, max_states + 1))
    return _EVALS[key]


def shares(ops, samples) -> dict:
    count = defaultdict(int)
    ns = defaultdict(int)
    for i, _, t in samples:
        count[ops[i].kind] += 1
        ns[ops[i].kind] += t
    total_ns = sum(ns.values())
    return {kind: {"ops": count[kind] / len(samples),
                   "time": ns[kind] / total_ns} for kind in sorted(count)}


def run(args) -> dict:
    t0 = perf_counter()
    ops = wl.build(args.workload, args.seed)
    t1 = perf_counter()
    if args.workload == "sampled-scan":
        for props in wl.SAMPLED_CLASSES:
            wl.build_tables(props)
    t2 = perf_counter()
    print("ready", flush=True)
    if args.setup_only:
        return {}
    ops = part_of(ops, args.part, args.parts)
    runner = Runner(ops)
    result = {}
    if not args.trace:
        samples = runner.window(args.seconds, passes=args.passes)
        result["passes"] = runner.passes
        result["times_ms"] = [scaled / 1e6 for *_, scaled in samples]
        result["peak_rss_mib"] = runner.peak_rss_mib
        metrics = summary(args.workload, result["times_ms"])
        record = {"shares": shares(ops, samples),
                  "wall": summary(args.workload,
                                  [wall / 1e6 for _, wall, _ in samples])}
    else:
        plain = runner.window(args.seconds / 2)
        recorder = SpanRecorder()
        recorder.install()
        samples = runner.window(args.seconds / 2, recorder)
        recorder.uninstall()
        metrics = result["metrics"] = per_layer(ops, samples, ops_per_s(plain),
                                                recorder)
        record = {"shares": shares(ops, samples)}
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")
    result["attempted"] = len(ops) * runner.passes
    result["failed"] = runner.failures()
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  part=args.part, passes=runner.passes, metrics=metrics,
                  setup_wall_s={"op_list": t1 - t0, "class_tables": t2 - t1})
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}-part{args.part}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def probe() -> dict:
    """Per-class table build time and per-row paper-suite time."""
    from nbhdmc.fixtures import ROWS, run_row

    clock = Clock()
    metrics = {}
    failed = 0
    builds = [clock.time(wl.build_tables, props)[1]
              for props in wl.SAMPLED_CLASSES]
    rows = {}
    for row_id in ROWS:
        (ok, _), rows[row_id] = clock.time(run_row, row_id)
        failed += not ok
    ms = clock.factor() / 1e6
    metrics["search.table_build_ms"] = sum(builds) / len(builds) * ms
    for row_id, ns in rows.items():
        metrics[f"fixtures.row_ms.{row_id}"] = ns * ms
    return {"attempted": len(ROWS), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        result = probe()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
