"""End-to-end acceptance gate: one test per criterion, timed.

Each criterion body lives in _criteria and returns a deterministic
report string; the tests here bound wall time and print the report.
The final test reruns the deterministic criteria and compares the
reports byte for byte, including a run that passes jobs=4 on to
find_countermodel.
"""

import time

import _criteria

_BUDGETS = {1: 30, 2: 120, 3: 300, 4: 120, 5: 120, 6: 60, 7: 300,
            8: 10, 9: 30}
_FIRST: dict[int, tuple[str, float]] = {}


def _timed(num: int, jobs: int = 1) -> tuple[str, float]:
    fn = getattr(_criteria, f"criterion{num}")
    start = time.perf_counter()
    report = fn(jobs=jobs)
    return report, time.perf_counter() - start


def _first(num: int) -> tuple[str, float]:
    if num not in _FIRST:
        _FIRST[num] = _timed(num)
    return _FIRST[num]


def _gate(num: int) -> str:
    report, elapsed = _first(num)
    assert report
    assert elapsed < _BUDGETS[num], (num, elapsed)
    print(f"criterion {num} ({elapsed:.1f}s)\n{report}")
    return report


def test_criterion_01_frame_validity_matches_property_n():
    _gate(1)


def test_criterion_02_interdefinability_equivalences():
    _gate(2)


def test_criterion_03_axiom_soundness_over_frame_classes():
    _gate(3)


def test_criterion_04_perturbation_invariance():
    _gate(4)


def test_criterion_05_transitive_closure_preservation():
    _gate(5)


def test_criterion_06_unknowability_target_and_reductions():
    _gate(6)


def test_criterion_07_reduction_preserves_evaluation():
    _gate(7)


def test_criterion_08_separation_fixtures():
    _gate(8)


def test_criterion_09_supplementation_and_submodels():
    _gate(9)


def test_criterion_10_determinism_across_runs_and_jobs():
    for num in (1, 3, 6):
        first, _ = _first(num)
        again, _ = _timed(num)
        with_jobs, _ = _timed(num, jobs=4)
        assert again == first, num
        assert with_jobs == first, num
