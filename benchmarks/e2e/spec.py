"""The benchmark's fixed vocabulary and its frozen sizes.

The names a later PR refers to — workloads, metrics, units, bounds, the
reference run length — are declared once, in ``BENCHMARK.json`` at the
repository root; :func:`contract` reads them from there, so the runner,
``compare`` and the smoke test cannot drift from the file the driver
reads.  The load shapes, which the contract does not carry, live here.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "BENCHMARK_JSON",
    "Contract",
    "contract",
    "LATENCY_LIMIT_MS",
    "ADHOC_PREFIX",
    "Sizing",
    "SIZES",
    "plan",
    "WATCHDOG_S",
]

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Paced-phase latency limit used by ``--rates`` (sustainable rate) and
#: by ``pipeline.backlog_end`` (ops still unanswered this long after the
#: last op was due).
LATENCY_LIMIT_MS = 100.0

#: ``adhoc-history`` reports one per-layer metric per ad-hoc query:
#: this prefix plus the query's suffix, in the round's order.
ADHOC_PREFIX = "core.engine.execute_ms."


@dataclass(frozen=True)
class Contract:
    """What ``BENCHMARK.json`` declares, in the shapes the code uses."""

    #: ``--seconds`` value at which a run makes its frozen number of rounds.
    run_seconds: int
    workloads: dict  # name -> one-line reason the workload exists
    end_to_end: tuple  # (name, unit, better, bound); every workload reports all
    #: (name, unit, better), reported by the ``--trace`` run.  A metric
    #: that does not exist on a workload (sharding counters on a solo
    #: topology) reads 0 there.
    per_layer: tuple


@functools.cache
def contract() -> Contract:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    return Contract(
        run_seconds=declared["run_seconds"],
        workloads={w["name"]: w["why"] for w in declared["workloads"]},
        end_to_end=tuple(
            (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
        ),
        per_layer=tuple((m["name"], m["unit"], m["better"]) for m in declared["per_layer"]),
    )


@dataclass(frozen=True)
class Sizing:
    """A workload's frozen load: the shape of one round, and how many.

    ``rate`` is the paced phase's open-loop rate (ops/s), ``paced_s`` its
    length, ``drain_ops`` the closed-loop op count, fed in ``batch``-op
    FEED frames with at most ``window`` ops outstanding.  ``rounds`` is
    how many such rounds a run makes at the contract's ``run_seconds``.
    """

    rounds: int
    rate: float
    paced_s: float
    drain_ops: int
    batch: int
    window: int

    def shrunk(self, factor: float) -> "Sizing":
        """One round at ``factor`` (< 1) of its length: the smoke size."""
        batch = self.batch
        drain = max(batch, int(self.drain_ops * factor) // batch * batch)
        return Sizing(1, self.rate, max(0.3, self.paced_s * factor), drain, batch, self.window)


#: Frozen on the 2-core reference box (README.md, "Frozen sizes").
SIZES = {
    "standing-events": Sizing(
        rounds=10, rate=75.0, paced_s=1.6, drain_ops=1024, batch=16, window=64
    ),
    "standing-updates": Sizing(
        rounds=7, rate=12.0, paced_s=3.0, drain_ops=128, batch=8, window=16
    ),
    "sharded-events": Sizing(
        rounds=10, rate=75.0, paced_s=1.6, drain_ops=1024, batch=16, window=64
    ),
    "relay-small": Sizing(
        rounds=9, rate=2000.0, paced_s=1.5, drain_ops=16384, batch=64, window=2048
    ),
    # drain_ops counts loop iterations: 8 bid writes, then the ad-hoc query set.
    "adhoc-history": Sizing(rounds=9, rate=0.0, paced_s=0.0, drain_ops=8, batch=1, window=1),
}


def plan(name: str, seconds: float) -> Sizing:
    """The sizing of a run that measures for ``seconds``.

    The round keeps its frozen shape and ``--seconds`` scales how many
    of them a run makes; below one round's worth (the smoke size) the
    single round shrinks instead.
    """
    sizing = SIZES[name]
    rounds = sizing.rounds * seconds / contract().run_seconds
    if rounds >= 1.0:
        return replace(sizing, rounds=round(rounds))
    return sizing.shrunk(rounds)


#: Seconds before a workload is declared hung and torn down.
WATCHDOG_S = 150
