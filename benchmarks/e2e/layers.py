"""Per-layer metric assembly shared by the workload drivers.

The drivers read public ``stats()`` dicts before and after the drain;
the helpers here turn those readings into the named per-layer metrics,
so a metric means the same thing on every topology.
"""

from __future__ import annotations

from benchmarks.e2e.measure import IDLE
from benchmarks.e2e.spec import contract

__all__ = [
    "blank_layers",
    "ratio",
    "numeric_delta",
    "add_numeric",
    "scheduler_layers",
    "paced_layers",
    "load_layers",
    "attributed_share",
]


def blank_layers() -> dict:
    """Every per-layer metric at 0: layers a workload lacks stay there."""
    return {name: 0.0 for name, _, _ in contract().per_layer}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_delta(before: dict, after: dict) -> dict:
    """``after - before`` over every numeric leaf of a nested stats dict."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = numeric_delta(before.get(key, {}), value)
        elif _is_number(value):
            out[key] = value - before.get(key, 0)
    return out


def add_numeric(total: dict, part: dict) -> dict:
    """Add ``part``'s numeric leaves into ``total`` (per-shard sums)."""
    for key, value in part.items():
        if isinstance(value, dict):
            add_numeric(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def scheduler_layers(scheduler: dict, ops: int) -> dict:
    """Tier and routing economy from a ``QueryScheduler.stats()`` delta."""
    automata = scheduler["automata"]
    host = automata["host"]
    prefix = scheduler["shared_prefix"]
    evaluations = scheduler["evaluations"]
    return {
        "xquery.automata.captures_per_env": ratio(host.get("captures", 0), ops),
        "xquery.automata.decline_ratio": ratio(
            host.get("declines", 0), host.get("declines", 0) + host.get("answers", 0)
        ),
        "streams.scheduler.wake_skip_ratio": ratio(
            scheduler["skips"], scheduler["skips"] + evaluations
        ),
        # Tuple materialisations avoided: every reuse is one scan not run.
        "streams.scheduler.shared_reuse_ratio": ratio(
            prefix["reuses"], prefix["reuses"] + prefix["runs"] + automata["runs"]
        ),
        "streams.scheduler.automaton_runs_per_op": ratio(automata["runs"], ops),
        "streams.scheduler.automaton_fallbacks": float(automata["fallbacks"]),
        "streams.scheduler.delta_runs_per_op": ratio(scheduler["delta_runs"], ops),
        "streams.scheduler.shared_runs_per_op": ratio(scheduler["shared_runs"], ops),
        "streams.continuous.full_run_ratio": ratio(scheduler["full_runs"], evaluations),
    }


def paced_layers(paced) -> dict:
    row = paced.row()
    return {
        "pipeline.generator_late_p99_ms": row["generator_late_p99_ms"],
        "pipeline.backlog_end": float(paced.backlog_end),
        "pipeline.latency_p99_ms": row["latency_p99_ms"],
    }


def load_layers(load) -> dict:
    """Set-up shares the load generator measured (0 for the ledger load)."""
    return {
        "xmark.generate_s": getattr(load, "generate_s", 0.0),
        "fragments.fragmenter.fragment_s": getattr(load, "fragment_s", 0.0),
    }


def attributed_share(self_s: dict, wall: float) -> float:
    """Share of the drain wall that named system layers own.

    The sum of self time over the system's labels only: the idle event
    loop, the driver and every other ``bench.*`` label (the benchmark's
    own code) are left out.  One definition for every workload.
    """
    owned = sum(
        seconds for label, seconds in self_s.items()
        if label != IDLE and not label.startswith("bench.")
    )
    return ratio(owned, wall)
