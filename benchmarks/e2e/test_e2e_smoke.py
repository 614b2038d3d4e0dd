"""Smoke test of the end-to-end benchmark (run explicitly, not by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Checks the harness, not the system's speed: the ``--quick`` size of every
workload is fast and oracle-clean, inputs and seed-determined counts
repeat exactly for one seed and change with another, every named metric
is reported with its unit, every run of a multi-run command gets a process
of its own, and ``BENCHMARK.json`` keeps to the issue's limits.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import run as runner
from benchmarks.e2e.compare import compare, spread
from benchmarks.e2e.loadgen import AuctionLoad, LedgerLoad
from benchmarks.e2e.spec import SIZES, contract

ROOT = Path(__file__).resolve().parents[2]
QUICK = runner._QUICK_SECONDS
DECLARED = contract()


def _quick(seed: int, trace: bool = False) -> dict:
    return {
        name: runner.run_workload(name, seed, QUICK, trace=trace)
        for name in runner.CLASSES
    }


@pytest.fixture(scope="module")
def first():
    started = time.perf_counter()
    results = _quick(seed=1)
    return results, time.perf_counter() - started


def test_quick_pass_is_fast_and_correct(first):
    results, elapsed = first
    assert elapsed < 20.0, f"--quick took {elapsed:.1f}s"
    for name, result in results.items():
        assert result.failed_ops == 0, (name, result.failures)
        assert result.ops >= 1
        assert set(result.e2e) == {metric for metric, *_ in DECLARED.end_to_end}
        assert all(value > 0 for value in result.e2e.values()), (name, result.e2e)


def test_same_seed_same_counts_other_seed_other_counts(first):
    results, _ = first
    again = _quick(seed=1)
    other = _quick(seed=2)
    for name in runner.CLASSES:
        assert again[name].counts == results[name].counts, name
        assert other[name].counts != results[name].counts, name
    # The exactly-once merge: sharding must not change what is emitted.
    assert (
        results["sharded-events"].counts["emitted_items"]
        == results["standing-events"].counts["emitted_items"]
    )


def test_envelope_lists_are_a_function_of_the_seed():
    def auction(seed):
        load = AuctionLoad(seed)
        return load.catalog, load.updates(40), load.events(40), load.root_update()

    def ledger(seed):
        return LedgerLoad(seed).envelopes(200, close_with_match=999)

    assert auction(7) == auction(7)
    assert auction(7) != auction(8)
    assert ledger(7) == ledger(7)
    assert ledger(7) != ledger(8)


def test_traced_pass_reports_every_layer_metric():
    results = _quick(seed=1, trace=True)
    names = {metric for metric, _, _ in DECLARED.per_layer}
    for name, result in results.items():
        assert result.failed_ops == 0, (name, result.failures)
        assert set(result.layers) == names, name
        assert result.layers["pipeline.backlog_end"] == 0, name
        assert result.layers["streams.net.dropped_frames"] == 0, name
        assert result.layers["streams.sharding.failovers"] == 0, name
        assert (ROOT / "benchmarks/e2e/out" / f"trace-{name}.json").exists()
    # >= 0.9 at the frozen sizes; a quick drain is a handful of bursts, each
    # waiting out the server's 5 ms batch timer in the idle loop.
    for name in ("standing-events", "sharded-events", "relay-small"):
        assert results[name].layers["pipeline.attributed_share"] >= 0.8, name


def test_cli_last_line_is_the_contract_object():
    for trace, metrics in ((0, DECLARED.end_to_end), (1, DECLARED.per_layer)):
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py", "--workload", "relay-small",
                "--seed", "3", "--seconds", "1", "--trace", str(trace),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        record = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] is True and record["failed"] == 0
        assert record["attempted"] >= 1
        assert {
            name: value["unit"] for name, value in record["metrics"].items()
        } == {name: unit for name, unit, *_ in metrics}


def test_every_run_of_a_multi_run_command_has_its_own_process(tmp_path):
    """``peak_rss_mb`` is a process-lifetime mark: runs must not share one."""
    out = tmp_path / "report.json"
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", "relay-small",
            "--quick", "--repeat", "2", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["workloads"]["relay-small"]["runs"]
    assert [run["seed"] for run in runs] == [1, 2]
    assert len({run["pid"] for run in runs}) == 2
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert record["attempted"] == sum(run["ops"] for run in runs)


def test_benchmark_json_keeps_to_the_issue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    # The gated workloads are among the runnable ones (README.md, "Workloads").
    assert set(DECLARED.workloads) <= set(runner.CLASSES)
    assert list(runner.CLASSES) == list(SIZES)
    assert [name for name, *_ in DECLARED.end_to_end] == [
        "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p95_ms",
        "cpu_ms_per_op", "peak_rss_mb",
    ]
    assert len(declared["per_layer"]) <= 128


def test_compare_flags_regressions_and_unresolved_rows():
    benchmark = {
        "end_to_end": [
            {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
            {"name": "latency_p95_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        ]
    }

    def report(throughputs, latencies, failed=0):
        return {
            "workloads": {
                "w": {
                    "runs": [
                        {
                            "ops": 100, "failed_ops": failed,
                            "e2e": {"throughput_ops_s": t, "latency_p95_ms": l},
                        }
                        for t, l in zip(throughputs, latencies)
                    ]
                }
            }
        }

    steady = report([100, 101, 99, 100], [10, 10.1, 9.9, 10])
    slower = report([80, 81, 79, 80], [10, 10.1, 9.9, 10])
    noisy = report([100, 140, 60, 100], [10, 10.1, 9.9, 10])
    rows, regressed = compare(steady, steady, benchmark)
    assert not regressed and {row[-1] for row in rows} == {"ok"}
    rows, regressed = compare(steady, slower, benchmark)
    assert regressed and rows[0][-1] == "REGRESSION" and rows[1][-1] == "ok"
    rows, regressed = compare(steady, noisy, benchmark)
    assert not regressed and rows[0][-1] == "unresolved"
    _, regressed = compare(steady, report([100] * 4, [10] * 4, failed=1), benchmark)
    assert regressed
    assert spread([5.0]) == 0.0
