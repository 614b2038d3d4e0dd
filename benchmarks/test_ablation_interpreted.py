"""Ablation A7: native vs. interpreted library functions.

The paper's absolute Figure 4 numbers come from ``get_fillers`` and
``temporalize`` being *interpreted XQuery* re-evaluated by Qizx per call.
Our engine implements them natively; `repro.core.reference` ships the
paper's definitions runnable through our interpreter.  This ablation
quantifies the interpretation tax on the CaQ pipeline — explaining why our
measured Figure 4 magnitudes are smaller than the paper's even at equal
document sizes (see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro import Fragmenter, FragmentStore, XCQLEngine
from repro.core import Strategy
from repro.core.reference import attach_reference_functions
from repro.temporal import XSDateTime
from repro.xmark import AUCTION_STREAM, auction_tag_structure, generate_auction_document

NOW = XSDateTime.parse("2003-06-01T00:00:00")

NATIVE_CAQ = (
    'count(for $i in stream("auction")/site/closed_auctions/closed_auction '
    "where $i/price/text() >= 40 return $i/price)"
)
# ref_temporalize(ref_get_fillers(0)) is the root filler's versions —
# the ``site`` elements — so the path starts below ``site``.
INTERPRETED_CAQ = (
    "count(for $i in ref_temporalize(ref_get_fillers(0))"
    "/closed_auctions/closed_auction "
    "where $i/price/text() >= 40 return $i/price)"
)


@pytest.fixture(scope="module")
def reference_engine():
    structure = auction_tag_structure()
    engine = XCQLEngine(default_now=NOW)
    store = FragmentStore(structure, use_index=False, use_cache=False)
    engine.register_stream(AUCTION_STREAM, structure, store)
    fillers = Fragmenter(structure).fragment(
        generate_auction_document(0.0), XSDateTime(2003, 1, 1)
    )
    engine.feed(AUCTION_STREAM, fillers)
    attach_reference_functions(engine, AUCTION_STREAM)
    return engine


def test_results_agree(reference_engine):
    native = reference_engine.execute(NATIVE_CAQ, strategy=Strategy.CAQ, now=NOW)
    interpreted = reference_engine.execute(INTERPRETED_CAQ, now=NOW)
    assert native == interpreted


@pytest.mark.parametrize("variant", ["native-CaQ", "interpreted-CaQ"])
def test_caq_pipeline_cost(benchmark, reference_engine, variant):
    if variant == "native-CaQ":
        compiled = reference_engine.compile(NATIVE_CAQ, Strategy.CAQ)
    else:
        compiled = reference_engine.compile(INTERPRETED_CAQ, Strategy.QAC)

    def run():
        return reference_engine.execute(compiled, now=NOW)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["result"] = result


def test_interpretation_tax(benchmark, reference_engine):
    import time

    def measure():
        timings = {}
        for label, (query, strategy) in (
            ("native", (NATIVE_CAQ, Strategy.CAQ)),
            ("interpreted", (INTERPRETED_CAQ, Strategy.QAC)),
        ):
            compiled = reference_engine.compile(query, strategy)
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                reference_engine.execute(compiled, now=NOW)
                best = min(best, time.perf_counter() - started)
            timings[label] = best
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["tax"] = round(timings["interpreted"] / timings["native"], 1)
    assert timings["interpreted"] > timings["native"]
