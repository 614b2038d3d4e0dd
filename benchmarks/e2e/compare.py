"""Compare two benchmark reports row by row.

    python -m benchmarks.e2e.compare PARENT.json CHANGE.json

Both files come from ``python -m benchmarks.e2e.run --repeat K --out F``.
Every (workload, end-to-end metric) pair gets its own row: the two
medians, each side's run-to-run spread (interquartile range over the
median) and a verdict against the metric's bound in ``BENCHMARK.json``:

``ok``          the change's median is no worse than the parent's by more
                than the bound;
``improved``    it is better by more than the bound (informational);
``REGRESSION``  it is worse by more than the bound;
``unresolved``  either side's spread exceeds the bound, so the runs
                cannot tell — reported, never counted as unchanged.

Exits non-zero on any regression or when the change fails a larger share
of its ops than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from benchmarks.e2e.spec import BENCHMARK_JSON

__all__ = ["compare", "spread", "main"]


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    base, new = statistics.median(parent), statistics.median(change)
    worse = (new - base) / base if better == "lower" else (base - new) / base
    widest = max(spread(parent), spread(change))
    if widest > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "ok"
    return base, new, worse, widest, verdict


def _failure_share(runs: list) -> float:
    ops = sum(run["ops"] for run in runs)
    return sum(run["failed_ops"] for run in runs) / ops if ops else 0.0


def compare(parent: dict, change: dict, benchmark: dict) -> tuple[list, bool]:
    """Rows ``(workload, metric, unit, base, new, worse, spread, verdict)``
    and whether the change regressed."""
    rows = []
    regressed = False
    for workload, entry in parent["workloads"].items():
        if workload not in change["workloads"]:
            continue
        old_runs = entry["runs"]
        new_runs = change["workloads"][workload]["runs"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = _verdict(
                [run["e2e"][name] for run in old_runs],
                [run["e2e"][name] for run in new_runs],
                metric["better"],
                metric["bound"],
            )
            rows.append((workload, name, metric["unit"]) + row)
            regressed |= row[-1] == "REGRESSION"
        before, after = _failure_share(old_runs), _failure_share(new_runs)
        verdict = "REGRESSION" if after > before else "ok"
        rows.append(
            (workload, "failed_ops/ops", "ratio", before, after, after - before, 0.0, verdict)
        )
        regressed |= after > before
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="report of the parent commit")
    parser.add_argument("change", help="report of the change")
    parser.add_argument(
        "--benchmark", default=str(BENCHMARK_JSON), help="BENCHMARK.json with the bounds"
    )
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        change = json.load(handle)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows, regressed = compare(parent, change, benchmark)
    print(
        f"{'workload':<18}{'metric':<20}{'parent':>12}{'change':>12}"
        f"{'worse by':>10}{'spread':>9}  verdict"
    )
    for workload, metric, unit, base, new, worse, widest, verdict in rows:
        print(
            f"{workload:<18}{metric:<20}{base:>12.4f}{new:>12.4f}"
            f"{worse:>+10.1%}{widest:>9.1%}  {verdict}  [{unit}]"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
