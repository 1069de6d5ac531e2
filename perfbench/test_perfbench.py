"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import nbhdmc  # noqa: E402
import workloads as wl  # noqa: E402
from nbhdmc.fixtures import AXIOM_ROWS, ROWS, THEOREM_SCHEMAS  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from worker import Runner  # noqa: E402

ROW_3_5 = ("U p <-> p & ! K p", "W p <-> K p & ! p", "O p <-> (p -> K p)",
           "K p <-> W p | (O p & p)")


def _p_q():
    return nbhdmc.Atom("p"), nbhdmc.Atom("q")


def test_schemas_are_the_suite_rows():
    expected = {row: (text, tuple(sorted(props)))
                for row, (_, text, props) in AXIOM_ROWS.items() if row != "5.8"}
    expected.update({row: (text, tuple(sorted(props)))
                     for row, (text, props) in THEOREM_SCHEMAS.items()})
    expected.update({f"3.5{c}": (text, ()) for c, text in zip("abcd", ROW_3_5)})
    assert set(wl.SCHEMAS) == set(expected)
    for row, (build, props) in wl.SCHEMAS.items():
        text, want_props = expected[row]
        assert build(*_p_q()) == nbhdmc.parse(text), row
        assert props == want_props, row
    assert set(ROWS) >= {row.rstrip("abcd") for row in wl.SCHEMAS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_lists_are_seeded(workload):
    def inputs(seed, k):
        return [op.inputs(k) for op in wl.build(workload, seed)]

    assert inputs(3, 0) == inputs(3, 0)
    assert inputs(3, 2) == inputs(3, 2)
    assert inputs(3, 0) != inputs(4, 0)
    assert inputs(3, 0) != inputs(3, 1)


def test_same_seed_gives_the_same_answers():
    def answers(seed):
        runner = Runner(wl.build("model-requests", seed)[:300])
        runner.window(0.0)
        return runner.reference

    assert answers(8) == answers(8)


def test_no_formula_repeats_within_a_scan_pass():
    for workload in ("exhaustive-scan", "sampled-scan"):
        texts = [op.inputs(0)[0] for op in wl.build(workload, 2)]
        assert len(set(texts)) == len(texts)


def test_exhaustive_strata():
    ops = wl.build("exhaustive-scan", 0)
    timed = [op for op in ops if op.timed]
    assert len(timed) == 100
    assert sum(op.kind == "n3" for op in timed) == 20
    assert [op.kind for op in ops if not op.timed] == ["sentinel"] * 4


def test_request_kinds_have_equal_counts():
    kinds = [op.kind for op in wl.build("model-requests", 0)]
    assert {kinds.count(k) for k in set(kinds)} == {wl.PER_KIND}
    assert len(set(kinds)) == 10


def test_frame_counts_match_the_program():
    for n, props in ((2, ("c",)), (2, ("neg-suppl",)), (3, ("m",))):
        spec = nbhdmc.ClassSpec(frozenset(props), n)
        assert wl.frame_count(n, props) == nbhdmc.count_frames(n, spec)


@pytest.mark.parametrize("workload", ["exhaustive-scan", "sampled-scan"])
def test_sentinels_are_untimed_and_checked(workload):
    ops = [op for op in wl.build(workload, 3) if op.kind == "sentinel"]
    runner = Runner(ops)
    assert runner.window(0.0) == []
    assert runner.failures() == 0
    assert all(isinstance(a, nbhdmc.Countermodel) for a in runner.first)


def test_n3_sentinels_need_three_states():
    ops = [op for op in wl.build("exhaustive-scan", 1) if op.kind == "sentinel"]
    answers = [op.request(*op.inputs(0)) for op in ops]
    for op, ans in zip(ops, answers):
        assert len(ans.pointed.model.frame.states) == 3
        assert op.check(ans)
    # another formula's countermodel, and no countermodel, are both wrong
    for i, op in enumerate(ops):
        assert not any(op.check(ans) for j, ans in enumerate(answers) if j != i)
    assert not ops[0].check(nbhdmc.NoCounterexampleUpTo(3, "exhaustive"))


def test_sentinel_misses_are_counted(monkeypatch):
    ops = wl.build("exhaustive-scan", 2)
    sentinels = [op for op in ops if op.kind == "sentinel"]
    real = nbhdmc.find_countermodel

    def skip_three_states(f, cls, *args, **kwargs):
        small = nbhdmc.ClassSpec(cls.properties, min(cls.max_states, 2),
                                 cls.atoms)
        ans = real(f, small, *args, **kwargs)
        return nbhdmc.NoCounterexampleUpTo(cls.max_states, "exhaustive") \
            if isinstance(ans, nbhdmc.NoCounterexampleUpTo) else ans

    monkeypatch.setattr(nbhdmc, "find_countermodel", skip_three_states)
    runner = Runner(sentinels)
    runner.window(0.0)
    assert runner.failures() == len(sentinels)


def test_renamed_pass_answers_normalize_to_pass_zero():
    runner = Runner(wl.build("model-requests", 5)[:200])
    runner.window(0.0)
    runner.window(0.0)
    assert runner.passes == 2
    assert runner.failures() == 0


def test_wrong_answers_are_counted(monkeypatch):
    ops = wl.build("model-requests", 1)[:300]
    evaluates = sum(op.kind == "evaluate" for op in ops)
    assert evaluates
    runner = Runner(ops)
    runner.window(0.0)
    real = nbhdmc.evaluate
    monkeypatch.setattr(nbhdmc, "evaluate", lambda *a, **k: not real(*a, **k))
    runner.window(0.0)  # wrong in the second pass only
    assert runner.failures() == evaluates

    runner = Runner(ops)
    runner.window(0.0)  # wrong from the first pass on
    runner.window(0.0)
    assert runner.failures() == 2 * evaluates


def test_raised_and_wrong_scan_verdicts_are_counted(monkeypatch):
    ops = wl.build("sampled-scan", 0)[:3]
    monkeypatch.setattr(nbhdmc, "find_countermodel",
                        lambda *a, **k: nbhdmc.NoCounterexampleUpTo(4, "sampled"))
    runner = Runner(ops)
    runner.window(0.0)
    assert runner.failures() == 3

    def boom(*a, **k):
        raise RuntimeError("boom")

    monkeypatch.setattr(nbhdmc, "find_countermodel", boom)
    runner = Runner(ops)
    runner.window(0.0)
    assert runner.failures() == 3


def test_span_recorder_nests_and_restores():
    import nbhdmc.search as search
    import nbhdmc.semantics as semantics

    original = semantics.evaluate
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert search.evaluate is not original  # the copy search imported
        assert nbhdmc.evaluate is search.evaluate
        f = nbhdmc.parse("W p -> p")
        nbhdmc.find_countermodel(f, nbhdmc.ClassSpec(frozenset(), 1))  # no op open
        assert recorder.spans == []
        recorder.op = 7
        nbhdmc.find_countermodel(f, nbhdmc.ClassSpec(frozenset(), 1))
        nbhdmc.pretty(nbhdmc.parse("U (p & ! q)"))
        recorder.op = None
    finally:
        recorder.uninstall()
    assert semantics.evaluate is original and search.evaluate is original
    names = [s[0] for s in recorder.spans]
    assert names == ["search.find_countermodel", "semantics.evaluate",
                     "formula.parse", "formula.pretty"]
    (scan, start, end, parent, op, _), child = recorder.spans[:2]
    assert parent == -1 and op == 7 and child[3] == 0
    self_ns = recorder.self_times()[0][1]
    assert self_ns == (end - start) - (child[2] - child[1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "model-requests", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60, check=False)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_benchmark_file_lists_the_emitted_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    assert {f"fixtures.row_ms.{row}" for row in ROWS} <= names
    assert {w["name"] for w in declared["workloads"]} == set(wl.WORKLOADS)
