"""Shared run plumbing: result shape, round and phase records, metric assembly.

A run is a number of identical *rounds*.  A round sets the workload up
from nothing, measures one paced and one drain phase, checks the answers
and tears everything down; the run reports, for every metric, the mean
of its two best rounds (:func:`steady`).  On a shared host the
vCPU runs about 1.5x slower for five to forty seconds at a time
(README.md, "Findings"): a phase that such a stretch covers is slow from
end to end, whatever statistic is taken inside it, while the best of
rounds spread across the whole run hold as long as the stretches leave
two of them alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional

from repro.streams.continuous import item_identity

from benchmarks.e2e.measure import ProcessMeter, Tracer, percentile
from benchmarks.e2e.procs import Sandbox
from benchmarks.e2e.spec import Sizing, contract

__all__ = [
    "RunConfig",
    "Paced",
    "Drain",
    "Round",
    "RunResult",
    "identities",
    "identity_set",
    "judge",
    "judge_repeat",
    "steady",
    "summarize",
]


@dataclass
class RunConfig:
    """What one pass over one workload is given."""

    seed: int
    sizing: Sizing
    sandbox: Sandbox
    meter: ProcessMeter
    tracer: Optional[Tracer] = None
    rates: Optional[list] = None  # --rates: paced rates to sweep

    def paced_rates(self) -> list:
        """The rates a round's paced phase runs at: the sweep, or the frozen one."""
        return list(self.rates) if self.rates else [self.sizing.rate]

    def paced_counts(self) -> list:
        """Ops per paced rate."""
        return [max(1, int(rate * self.sizing.paced_s)) for rate in self.paced_rates()]


@dataclass
class Paced:
    """Open-loop phase: one latency sample per answered op, in op order."""

    rate: float
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)  # generator lateness per op
    backlog_end: int = 0  # ops unanswered LATENCY_LIMIT_MS after the last was due

    def row(self) -> dict:
        return {
            "rate_eps": self.rate,
            "samples": len(self.latencies_ms),
            "latency_p50_ms": percentile(self.latencies_ms, 50),
            "latency_p95_ms": percentile(self.latencies_ms, 95),
            "latency_p99_ms": percentile(self.latencies_ms, 99),
            "generator_late_p99_ms": percentile(self.late_ms, 99),
            "backlog_end": self.backlog_end,
        }


@dataclass
class Drain:
    """Closed-loop phase: a fixed op count, timed to the last verified answer.

    ``cpu_s`` is the CPU the bench process and every SUT child spent
    between the first op and that answer.
    """

    ops: int
    wall_s: float
    cpu_s: float

    def throughput_ops_s(self) -> float:
        return self.ops / self.wall_s

    def cpu_ms_per_op(self) -> float:
        return 1000.0 * self.cpu_s / self.ops


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    rates: list  # one Paced.row() per paced rate; a closed loop's own percentiles
    drain: Drain
    layers: dict = field(default_factory=dict)  # traced rounds only


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    rounds: int = 0
    ops: int = 0
    failed_ops: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # filled by the traced pass
    counts: dict = field(default_factory=dict)  # seed-determined counts, one round's
    rates: list = field(default_factory=list)  # per --rates entry, medians over rounds
    per_round: list = field(default_factory=list)  # what the medians were taken over
    failures: list = field(default_factory=list)  # human-readable oracle misses


def identities(items) -> list[str]:
    """Sorted emission identities of result items (answers as multisets)."""
    return sorted(item_identity(item) for item in items)


def identity_set(items) -> set:
    """Emission identities of result items (answers as sets)."""
    return {item_identity(item) for item in items}


def judge(result: RunResult, label: str, expected: set, actual: set) -> None:
    """Charge every missing or unexpected identity to the run as a failed op."""
    wrong = len(expected ^ actual)
    if wrong:
        result.failed_ops += wrong
        result.failures.append(
            f"{label}: {len(expected - actual)} missing, {len(actual - expected)} unexpected"
        )


def judge_repeat(result: RunResult, index: int, first: dict, answers: dict) -> None:
    """A later round saw the first round's inputs: it must give its answers.

    The first round's answers were checked against the oracle; equality
    with them carries that check to every other round at the cost of a
    comparison.
    """
    wrong = [key for key in first if answers.get(key) != first[key]]
    if wrong or len(answers) != len(first):
        result.failed_ops += max(1, len(wrong))
        result.failures.append(
            f"round {index}: {len(wrong)} answers differ from round 0 (first: {wrong[:1]})"
        )


def steady(values: list, better: str) -> float:
    """The mean of the two best of the rounds' readings of one metric.

    The rounds of a run are replicas: same inputs, same work, so what
    differs between their readings is what the host did to them, and a
    busy neighbour only ever slows a round down.  The best readings are
    therefore the least disturbed ones, as with ``timeit``'s minimum;
    two of them, so that one freak reading does not set the figure
    alone.  README.md, "Rounds", has the spreads this and the median
    gave on the same runs.
    """
    ranked = sorted(values, reverse=better == "higher")
    return statistics.fmean(ranked[:2])


def summarize(result: RunResult, rounds: list, meter: ProcessMeter) -> None:
    """Fill ``result`` from the rounds it measured, each figure by :func:`steady`.

    ``e2e`` gets the six end-to-end metrics by their frozen names (the
    latencies are those of the first paced rate; ``peak_rss_mb`` is the
    one high-water mark of the whole process), ``rates`` one row per
    paced rate, ``layers`` the per-layer metrics of traced rounds, and
    ``per_round`` the readings they were taken from.
    """
    declared = contract()
    result.per_round = [
        {
            "setup_s": measured.setup_s,
            "throughput_ops_s": measured.drain.throughput_ops_s(),
            "latency_p50_ms": measured.rates[0]["latency_p50_ms"],
            "latency_p95_ms": measured.rates[0]["latency_p95_ms"],
            "cpu_ms_per_op": measured.drain.cpu_ms_per_op(),
        }
        for measured in rounds
    ]
    result.e2e = {
        name: steady([readings[name] for readings in result.per_round], better)
        for name, _, better, _ in declared.end_to_end
        if name in result.per_round[0]
    }
    result.e2e["peak_rss_mb"] = meter.peak_rss_mb()
    # Everything in a paced row is a delay or a backlog: lower is better.
    result.rates = [
        {key: steady([row[key] for row in rows], "lower") for key in rows[0]}
        for rows in zip(*(measured.rates for measured in rounds))
    ]
    if rounds[0].layers:
        result.layers = {
            name: steady([measured.layers[name] for measured in rounds], better)
            for name, _, better in declared.per_layer
            if name in rounds[0].layers
        }
