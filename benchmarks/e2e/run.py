"""One command for the end-to-end benchmark.

    python -m benchmarks.e2e.run [--workload W] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--repeat K] [--rates a,b,c]
                                 [--quick] [--out F]

Generates seeded load, drives the system through its public API only,
checks every output against an oracle, and prints every metric by name
with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when any oracle failed.

Also runnable as ``python3 benchmarks/e2e/run.py`` from the repository
root (how ``BENCHMARK.json`` invokes it).
"""

from __future__ import annotations

import sys
from pathlib import Path

# Runnable as a script or a module, with or without PYTHONPATH=src.
_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import tempfile
import time

try:
    import repro  # noqa: F401  (the system under test)
except ImportError:
    sys.exit("benchmarks/e2e/run.py: src/repro is not in this checkout; nothing to measure")

from benchmarks.e2e.adhocbench import AdhocHistory
from benchmarks.e2e.harness import RunConfig, RunResult
from benchmarks.e2e.measure import ProcessMeter, Tracer
from benchmarks.e2e.netbench import RelaySmall, StandingEvents, StandingUpdates
from benchmarks.e2e.procs import OUT_DIR, Sandbox
from benchmarks.e2e.shardbench import ShardedEvents
from benchmarks.e2e.spec import LATENCY_LIMIT_MS, WATCHDOG_S, contract, plan

CLASSES = {
    "standing-events": StandingEvents,
    "standing-updates": StandingUpdates,
    "sharded-events": ShardedEvents,
    "relay-small": RelaySmall,
    "adhoc-history": AdhocHistory,
}

_QUICK_SECONDS = 1.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    rates=None,
) -> RunResult:
    """One measured run of one workload, in this process.

    A run is ``plan(name, seconds).rounds`` identical rounds and reports
    each metric from its two best (``harness.steady``).  Untraced, they
    are one pass.  Traced, they are
    two passes of half the rounds each — plain objects first, traced
    twins second — so ``pipeline.trace_overhead_ratio`` compares like
    with like and the whole run costs about what an untraced one does.
    The end-to-end metrics always come from the untraced pass.

    ``peak_rss_mb`` is a high-water mark of the process's whole life, so
    it is this run's own only when the run is the first thing the process
    does: ``main`` starts a fresh process per run.
    """
    with Sandbox(name, WATCHDOG_S) as sandbox:
        sizing = plan(name, seconds)
        rounds = sizing.rounds

        def one_pass(tracer, rounds):
            config = RunConfig(
                seed, dataclasses.replace(sizing, rounds=rounds), sandbox, ProcessMeter(), tracer, rates
            )
            return CLASSES[name](config).run()

        result = one_pass(None, max(1, rounds - rounds // 2) if trace else rounds)
        if trace:
            tracer = Tracer()
            traced = one_pass(tracer, max(1, rounds // 2))
            traced.layers["pipeline.trace_overhead_ratio"] = (
                result.e2e["throughput_ops_s"] / traced.e2e["throughput_ops_s"] - 1.0
            )
            tracer.write(
                str(OUT_DIR / f"trace-{name}.json"),
                {"workload": name, "seed": seed, "layers": traced.layers},
            )
            traced.e2e, traced.per_round = result.e2e, result.per_round
            traced.failed_ops += result.failed_ops
            traced.failures = result.failures + traced.failures
            traced.ops += result.ops
            traced.rounds += result.rounds
            result = traced
    result.seconds = seconds
    return result


def _as_record(result: RunResult) -> dict:
    return {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "rounds": result.rounds,
        "pid": os.getpid(),
        "ops": result.ops,
        "failed_ops": result.failed_ops,
        "e2e": result.e2e,
        "layers": result.layers,
        "counts": result.counts,
        "rates": result.rates,
        "per_round": result.per_round,
        "failures": result.failures,
    }


def _run_in_child(name: str, seed: int, args) -> dict:
    """The same run in a fresh interpreter; returns its record.

    The child is this command with one workload and one seed, writing
    its report where the parent can read it.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    handle, path = tempfile.mkstemp(prefix=f"run-{name}-", suffix=".json", dir=OUT_DIR)
    os.close(handle)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--out", path,
    ]
    if args.rates:
        command += ["--rates", args.rates]
    if args.quick:
        command.append("--quick")
    try:
        # An oracle failure exits 1 and still writes its report; the
        # child's own watchdog fires well inside this timeout.
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=2 * WATCHDOG_S
        )
        try:
            with open(path, encoding="utf-8") as report:
                return json.load(report)["workloads"][name]["runs"][0]
        except (ValueError, KeyError):
            raise RuntimeError(
                f"run of {name} (seed {seed}) exited {done.returncode} without a report:\n"
                + done.stdout[-2000:]
            ) from None
    finally:
        os.remove(path)


def sustainable_rate(record: dict) -> float:
    """Highest swept rate with p95 within the limit and no backlog."""
    rows = [
        row for row in record["rates"]
        if row["latency_p95_ms"] <= LATENCY_LIMIT_MS and row["backlog_end"] == 0
    ]
    return max((row["rate_eps"] for row in rows), default=0.0)


def _print_record(record: dict, trace: bool, swept: bool) -> None:
    declared = contract()
    print(
        f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}"
        f"  rounds={record['rounds']}"
    )
    print(f"   {'ops':<44}{record['ops']:>14}  count")
    print(f"   {'failed_ops':<44}{record['failed_ops']:>14}  count")
    for name, unit, _, _ in declared.end_to_end:
        print(f"   {name:<44}{record['e2e'][name]:>14.4f}  {unit}")
    if swept:
        for row in record["rates"]:
            print(
                f"   rate {row['rate_eps']:>8.0f}/s  p50 {row['latency_p50_ms']:9.3f} ms"
                f"  p95 {row['latency_p95_ms']:9.3f} ms  backlog_end {row['backlog_end']:g}"
                f"  generator_late_p99 {row['generator_late_p99_ms']:.3f} ms"
            )
        print(
            f"   {'pipeline.sustainable_rate_eps':<44}"
            f"{sustainable_rate(record):>14.1f}  1/s"
        )
    if trace:
        for name, unit, _ in declared.per_layer:
            print(f"   {name:<44}{record['layers'][name]:>14.4f}  {unit}")
    for failure in record["failures"][:10]:
        print(f"   ORACLE: {failure}")


def _terminated(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    declared = contract()
    assert set(declared.workloads) <= set(CLASSES)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(CLASSES), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(declared.run_seconds),
        help="measured length: scales the number of rounds (default %(default)s)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also run the traced pass and report the per-layer metrics",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, seeds seed..seed+K-1 (for compare's spread)",
    )
    parser.add_argument(
        "--rates", help="comma-separated paced rates to sweep (diagnostic)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke size: one round shrunk to {_QUICK_SECONDS:g}s",
    )
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    args = parser.parse_args(argv)

    seconds = _QUICK_SECONDS if args.quick else args.seconds
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(CLASSES)
    runs = [(name, args.seed + offset) for name in names for offset in range(args.repeat)]
    report = {
        "meta": {
            "seconds": seconds,
            "trace": trace,
            "nproc": os.cpu_count(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "workloads": {name: {"runs": []} for name in names},
    }
    if len(runs) > 1:
        # A killed parent takes the running child with it.
        signal.signal(signal.SIGTERM, _terminated)
    for name, seed in runs:
        if len(runs) == 1:
            rates = [float(part) for part in args.rates.split(",")] if args.rates else None
            record = _as_record(run_workload(name, seed, seconds, trace, rates))
        else:
            # One process per run: peak RSS is a process-lifetime mark.
            record = _run_in_child(name, seed, args)
        _print_record(record, trace, args.rates is not None)
        report["workloads"][name]["runs"].append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)

    # One workload: bare metric names (the BENCHMARK.json contract).
    # All of them: each name prefixed with its workload.
    metrics = {}
    attempted = failed = 0
    for name in names:
        recorded = report["workloads"][name]["runs"]
        attempted += sum(record["ops"] for record in recorded)
        failed += sum(record["failed_ops"] for record in recorded)
        values = recorded[-1]["layers" if trace else "e2e"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, unit, *_ in declared.per_layer if trace else declared.end_to_end:
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
