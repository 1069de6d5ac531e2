"""Latency summaries, shared by the worker and the entry point."""

from __future__ import annotations

import statistics

# the highest percentile every run has at least ten samples beyond
TAIL_PERCENTILE = {"exhaustive-scan": 90, "sampled-scan": 90,
                   "model-requests": 99}


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summary(workload: str, times_ms) -> dict:
    """Throughput and latency percentiles of one client's op times."""
    return {
        "ops_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "op_p50_ms": percentile(times_ms, 50),
        "op_p90_ms": percentile(times_ms, 90),
        "op_tail_ms": percentile(times_ms, TAIL_PERCENTILE[workload]),
    }
