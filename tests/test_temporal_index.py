"""Differential tests for the temporal endpoint index (PR 2).

The index is a pure *narrowing* structure: every candidate it yields still
passes through the exact scan predicate, so the indexed fast paths must be
byte-identical to the scan paths under every strategy and backend.  These
tests pit three executions of each query against each other:

- the indexed engine's compiled backend (endpoint index + merge joins),
- a compiled engine with ``use_temporal_index=False, merge_joins=False``
  (the scan-only closure plans),
- the interpreted backend (the AST-walking differential reference).

Also covered: the endpoint-index store API itself, batched ``extend``
invalidation, ``prune_before`` consistency, merge-join lowering
recognition, and property tests over random arrival orders and windows;
and, at the end, copy-on-touch projections against the eager recursion.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.dom import parse_document, serialize
from repro.dom.nodes import DeferredElement, Element, Node
from repro.fragments import Fragmenter
from repro.fragments.model import Filler
from repro.temporal import XSDateTime
from repro.xmark.generator import generate_auction_document
from repro.xmark.schema import AUCTION_STREAM, auction_tag_structure
from repro.xquery.errors import XQueryTypeError

SENSOR_STRUCTURE = TagStructure.from_xml(
    """
    <stream:structure>
      <tag type="snapshot" id="1" name="log">
        <tag type="temporal" id="2" name="reading"/>
        <tag type="event" id="3" name="alarm"/>
      </tag>
    </stream:structure>
    """
)

NOW = XSDateTime(2001, 1, 1)


def t(month: int, day: int, hour: int = 0) -> XSDateTime:
    return XSDateTime(2000, month, day, hour)


def frag(text: str):
    return parse_document(text).document_element


def sensor_fillers() -> list:
    """A deterministic multi-fragment temporal workload.

    Three reading fragments (two multi-version, one single-version — the
    single-version edge case) plus one event fragment, all reachable from
    a snapshot root through holes.
    """
    fillers = [
        Filler(
            0,
            1,
            t(1, 1),
            frag(
                '<log><hole id="1" tsid="2"/><hole id="2" tsid="2"/>'
                '<hole id="4" tsid="2"/><hole id="3" tsid="3"/></log>'
            ),
        )
    ]
    for i in range(8):  # reading fragment A: monthly versions
        fillers.append(Filler(1, 2, t(1 + i, 3), frag(f'<reading s="a" v="{i}"/>')))
    for i in range(5):  # reading fragment B: different cadence
        fillers.append(Filler(2, 2, t(1 + i, 20), frag(f'<reading s="b" v="{i}"/>')))
    fillers.append(Filler(4, 2, t(4, 1), frag('<reading s="c" v="0"/>')))
    for i in range(6):  # alarms: instantaneous events
        fillers.append(Filler(3, 3, t(2 + i, 10), frag(f'<alarm n="{i}"/>')))
    return fillers


def make_engine(fillers=None, **engine_kwargs) -> XCQLEngine:
    engine = XCQLEngine(default_now=NOW, **engine_kwargs)
    engine.register_stream("sensor", SENSOR_STRUCTURE)
    engine.feed("sensor", list(fillers) if fillers is not None else sensor_fillers())
    return engine


def normalized(result) -> list[str]:
    return [
        serialize(item) if hasattr(item, "string_value") else str(item)
        for item in result
    ]


# Engines shared across tests: executions never mutate the stores.
INDEXED = make_engine()
SCAN = make_engine(use_temporal_index=False, merge_joins=False)


def assert_identical(query: str, strategy: Strategy = Strategy.QAC) -> list[str]:
    indexed = normalized(INDEXED.execute(query, strategy=strategy))
    scan = normalized(SCAN.execute(query, strategy=strategy))
    interpreted = normalized(
        INDEXED.execute(query, strategy=strategy, backend="interpreted")
    )
    assert indexed == scan == interpreted
    return indexed


PROJECTION_QUERIES = [
    'stream("sensor")//reading?[2000-02-01, 2000-05-15]',
    'stream("sensor")//reading?[1990-01-01, 1990-06-01]',  # empty window
    'stream("sensor")//reading?[2000-06-01, now]',  # open "now" bound
    'stream("sensor")//reading?[2000-03-03]',  # instant at a vtFrom boundary
    'stream("sensor")//reading?[2000-03-03, 2000-03-03]',  # degenerate span
    'stream("sensor")//reading?[2000-12-20, now]',  # only open-ended versions
    'stream("sensor")//alarm?[2000-03-01, 2000-06-30]',
    'stream("sensor")//alarm?[2000-02-10, 2000-02-10]',  # instant == event time
    'stream("sensor")//reading#[1, 1]',
    'stream("sensor")//reading#[2, 4]',
    'stream("sensor")//reading#[3, 99]',  # end past the version count
    'stream("sensor")//alarm#[last]',
    'for $r in stream("sensor")//reading?[2000-02-01, 2000-04-01] return vtFrom($r)',
    'for $r in stream("sensor")//reading?[2000-02-01, 2000-04-01] return vtTo($r)',
]


class TestProjectionDifferential:
    @pytest.mark.parametrize("strategy", [Strategy.QAC, Strategy.QAC_PLUS, Strategy.CAQ])
    @pytest.mark.parametrize("query", PROJECTION_QUERIES)
    def test_indexed_equals_scan_equals_interpreted(self, query, strategy):
        assert_identical(query, strategy)

    def test_non_empty_windows_have_answers(self):
        # Guard against the suite passing vacuously on an empty stream.
        assert len(assert_identical(PROJECTION_QUERIES[0])) == 10
        assert assert_identical(PROJECTION_QUERIES[1]) == []

    def test_begin_after_end_raises_on_every_path(self):
        query = 'stream("sensor")//reading?[2000-05-01, 2000-01-01]'
        for run in (
            lambda: INDEXED.execute(query),
            lambda: SCAN.execute(query),
            lambda: INDEXED.execute(query, backend="interpreted"),
        ):
            with pytest.raises(XQueryTypeError):
                run()

    def test_index_hook_engages(self):
        hook = INDEXED.temporal_index
        hook.reset()
        INDEXED.execute(PROJECTION_QUERIES[0])
        assert hook.hits > 0

    def test_interpreted_backend_never_consults_the_hook(self):
        hook = INDEXED.temporal_index
        hook.reset()
        INDEXED.execute(PROJECTION_QUERIES[0], backend="interpreted")
        assert hook.hits == 0 and hook.misses == 0

    def test_disabled_engine_never_consults_the_hook(self):
        hook = SCAN.temporal_index
        hook.reset()
        SCAN.execute(PROJECTION_QUERIES[0])
        assert hook.hits == 0 and hook.misses == 0


JOIN_OPS = [
    "before",
    "after",
    "meets",
    "met-by",
    "overlaps",
    "during",
    "icontains",
    "istarts",
    "finishes",
    "iequals",
]


def join_query(op: str, inner: str = "alarm") -> str:
    return (
        'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
        f'for $y in stream("sensor")//{inner}?[2000-01-01, 2000-12-31] '
        f"where $x {op} $y "
        'return <hit xv="{$x/@v}" xs="{$x/@s}" y="{$y/@n}{$y/@v}"/>'
    )


class TestCoincidenceJoinDifferential:
    @pytest.mark.parametrize("op", JOIN_OPS)
    @pytest.mark.parametrize("inner", ["alarm", "reading"])
    def test_merge_join_equals_nested_loop(self, op, inner):
        query = join_query(op, inner)
        compiled = INDEXED.compile(query)
        assert compiled.merge_joins == 1
        merge = normalized(INDEXED.execute(compiled))
        nested = normalized(INDEXED.execute(INDEXED.compile(query, merge_joins=False)))
        interpreted = normalized(INDEXED.execute(query, backend="interpreted"))
        assert merge == nested == interpreted

    def test_join_produces_answers(self):
        # overlaps over reading x reading matches at least the self-pairs.
        assert len(normalized(INDEXED.execute(join_query("overlaps", "reading")))) >= 14

    @pytest.mark.parametrize(
        "query",
        [
            # outer side empty
            'for $x in stream("sensor")//reading?[1990-01-01, 1990-02-01] '
            'for $y in stream("sensor")//alarm?[2000-01-01, 2000-12-31] '
            "where $x overlaps $y return 1",
            # inner side empty
            'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
            'for $y in stream("sensor")//alarm?[1990-01-01, 1990-02-01] '
            "where $x overlaps $y return 1",
        ],
    )
    def test_empty_sides(self, query):
        assert INDEXED.compile(query).merge_joins == 1
        assert assert_identical(query) == []

    def test_residual_conjuncts_preserved(self):
        query = (
            'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
            'for $y in stream("sensor")//alarm?[2000-01-01, 2000-12-31] '
            'where $x overlaps $y and $y/@n != "2" and $x/@s = "a" '
            'return <hit v="{$x/@v}" n="{$y/@n}"/>'
        )
        assert INDEXED.compile(query).merge_joins == 1
        result = assert_identical(query)
        assert result  # the residual filter keeps some, drops others
        assert all('n="2"' not in item for item in result)

    def test_evaluator_runs_lowered_ast_as_nested_loop(self):
        # The IntervalJoinFLWOR node dispatches to the plain FLWOR rule in
        # the interpreter: evaluating the lowered AST directly must agree.
        from repro.xquery.evaluator import Evaluator

        query = join_query("overlaps")
        compiled = INDEXED.compile(query)
        assert compiled.merge_joins == 1
        result = Evaluator(INDEXED.build_context()).evaluate_module(compiled.translated)
        assert normalized(result) == normalized(
            INDEXED.execute(query, backend="interpreted")
        )


class TestMergeJoinLowering:
    def test_interpreted_backend_is_never_lowered(self):
        compiled = INDEXED.compile(join_query("overlaps"), backend="interpreted")
        assert compiled.merge_joins == 0

    def test_order_by_blocks_lowering(self):
        query = (
            'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
            'for $y in stream("sensor")//alarm?[2000-01-01, 2000-12-31] '
            "where $x overlaps $y order by $x/@v return $y/@n"
        )
        assert INDEXED.compile(query).merge_joins == 0
        assert_identical(query)

    def test_inner_source_referencing_outer_blocks_lowering(self):
        query = (
            'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
            "for $y in ($x) where $x overlaps $y return $y/@v"
        )
        assert INDEXED.compile(query).merge_joins == 0
        assert_identical(query)

    def test_constructor_inner_source_blocks_lowering(self):
        query = (
            'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
            'for $y in <reading vtFrom="2000-02-01T00:00:00" vtTo="2000-03-01T00:00:00"/> '
            "where $x overlaps $y return $x/@v"
        )
        assert INDEXED.compile(query).merge_joins == 0
        assert_identical(query)

    def test_non_leftmost_join_conjunct_blocks_lowering(self):
        query = (
            'for $x in stream("sensor")//reading?[2000-01-01, 2000-12-31] '
            'for $y in stream("sensor")//alarm?[2000-01-01, 2000-12-31] '
            'where $x/@s = "a" and $x overlaps $y return $y/@n'
        )
        assert INDEXED.compile(query).merge_joins == 0
        assert_identical(query)

    def test_merge_joins_flag_is_part_of_the_plan_cache_key(self):
        engine = make_engine()
        query = join_query("overlaps")
        on = engine.compile(query)
        off = engine.compile(query, merge_joins=False)
        assert on is not off
        assert (on.merge_joins, off.merge_joins) == (1, 0)
        assert engine.compile(query) is on
        assert engine.compile(query, merge_joins=False) is off


class TestEndpointIndexStore:
    @pytest.fixture()
    def store(self) -> FragmentStore:
        store = FragmentStore(SENSOR_STRUCTURE)
        store.extend(sensor_fillers())
        return store

    def test_temporal_entry(self, store):
        froms, tos, open_last = store.endpoint_index(1)
        assert open_last
        assert froms == sorted(froms)
        assert tos == froms[1:]
        assert len(froms) == len(store.versions_of(1)) == 8

    def test_event_entry(self, store):
        froms, tos, open_last = store.endpoint_index(3)
        assert not open_last
        assert tos is froms  # events: instantaneous lifespans

    def test_snapshot_and_unknown_ids_are_unindexed(self, store):
        assert store.endpoint_index(0) is None  # snapshot root
        assert store.endpoint_index(99) is None

    def test_disabled_index(self):
        store = FragmentStore(SENSOR_STRUCTURE, use_index=False)
        store.extend(sensor_fillers())
        assert store.endpoint_index(1) is None
        assert store.versions_in_window(1, 0.0, 1e12) is None

    def test_window_is_a_superset_of_exact_survivors(self, store):
        versions = store.versions_of(1)
        for begin, end in [
            (t(2, 1), t(5, 15)),
            (t(3, 3), t(3, 3)),
            (t(1, 1), t(12, 31)),
            (XSDateTime(1990, 1, 1), XSDateTime(1990, 2, 1)),
        ]:
            lo, hi = store.versions_in_window(
                1, begin.to_epoch_seconds(), end.to_epoch_seconds()
            )
            for position, version in enumerate(versions):
                vt_from = XSDateTime.parse(version.attrs["vtFrom"])
                vt_to_attr = version.attrs["vtTo"]
                open_ended = vt_to_attr == "now"
                vt_to = NOW if open_ended else XSDateTime.parse(vt_to_attr)
                survives = not (
                    vt_from > end or (vt_to < begin if open_ended else vt_to <= begin)
                )
                if survives:
                    assert lo <= position < hi

    def test_hole_and_wrapper_windows_serve_the_shared_versions(self, store):
        """Both index lookups hand out the one cached DOM, positions aligned."""
        engine = XCQLEngine()
        engine.register_stream("sensor", SENSOR_STRUCTURE, store)
        hook = engine.temporal_index
        begin, end = t(2, 1).to_epoch_seconds(), t(5, 15).to_epoch_seconds()
        versions, lo, hi = hook.hole_window("1", begin, end)
        wrapper = store.get_fillers(1)
        assert versions is wrapper.children and versions[lo].parent is wrapper
        assert hook.wrapper_window(wrapper, begin, end) == (lo, hi)
        # A wrapper from before a write no longer aligns with the index.
        store.append(Filler(1, 2, t(12, 1), frag('<reading s="a" v="8"/>')))
        assert hook.wrapper_window(wrapper, begin, end) is None
        assert hook.wrapper_window(store.get_fillers(1), begin, end) == (lo, hi)

    def test_index_invalidated_by_append(self, store):
        froms, _, _ = store.endpoint_index(1)
        assert len(froms) == 8
        store.append(Filler(1, 2, t(12, 25), frag('<reading s="a" v="9"/>')))
        froms, tos, _ = store.endpoint_index(1)
        assert len(froms) == 9
        assert tos == froms[1:]

    def test_tsid_endpoints(self, store):
        endpoints = store.tsid_endpoints(2)
        assert endpoints == sorted(endpoints)
        assert len(endpoints) == 14  # 8 + 5 + 1 reading fillers
        assert store.tsid_endpoint_count(2) == 14
        assert store.tsid_endpoint_count(
            2, t(1, 1).to_epoch_seconds(), t(1, 31).to_epoch_seconds()
        ) == 2  # reading A v0 + reading B v0
        assert store.tsid_endpoints(42) == []


class TestExtendBatchesInvalidation:
    def test_extend_invalidates_once_per_distinct_id(self):
        store = FragmentStore(SENSOR_STRUCTURE)
        fillers = sensor_fillers()
        distinct_ids = {f.filler_id for f in fillers}
        before = store.invalidations
        assert store.extend(fillers) == len(fillers)
        events = store.invalidations - before
        assert events == len(distinct_ids)  # 5, not the 20 fillers ingested
        assert events <= len(fillers)

    def test_append_invalidates_once(self):
        store = FragmentStore(SENSOR_STRUCTURE)
        before = store.invalidations
        store.append(Filler(7, 2, t(1, 1), frag('<reading v="0"/>')))
        assert store.invalidations - before == 1

    def test_duplicates_do_not_invalidate(self):
        store = FragmentStore(SENSOR_STRUCTURE)
        store.extend(sensor_fillers())
        before = store.invalidations
        assert store.extend(sensor_fillers()) == 0
        assert store.invalidations == before


class TestPruneConsistency:
    def test_pruned_store_never_serves_stale_wrappers(self):
        store = FragmentStore(SENSOR_STRUCTURE)
        store.extend(sensor_fillers())
        wrapper = store.get_fillers(1)  # warm the wrapper cache
        assert len(wrapper.children) == 8
        assert store.prune_before(t(5, 1)) > 0
        fresh = store.get_fillers(1)
        assert fresh is not wrapper
        assert len(fresh.children) == len(store.versions_of(1)) < 8

    def test_prune_rebuilds_endpoint_index(self):
        store = FragmentStore(SENSOR_STRUCTURE)
        store.extend(sensor_fillers())
        store.endpoint_index(1)  # warm
        store.endpoint_index(3)
        store.prune_before(t(5, 1))
        froms, tos, open_last = store.endpoint_index(1)
        assert open_last
        assert froms == [f.valid_time.to_epoch_seconds() for f in store.fillers_of(1)]
        assert tos == froms[1:]
        for tsid in (2, 3):
            expected = sorted(
                f.valid_time.to_epoch_seconds()
                for f in store.fillers_of(1) + store.fillers_of(2)
                + store.fillers_of(3) + store.fillers_of(4)
                if f.tsid == tsid
            )
            assert store.tsid_endpoints(tsid) == expected

    def test_queries_agree_after_prune(self):
        horizon = t(5, 1)
        indexed = make_engine()
        scan = make_engine(use_temporal_index=False, merge_joins=False)
        for engine in (indexed, scan):
            engine.stores["sensor"].prune_before(horizon)
        query = 'stream("sensor")//reading?[2000-06-01, now]'
        a = normalized(indexed.execute(query))
        b = normalized(scan.execute(query))
        c = normalized(indexed.execute(query, backend="interpreted"))
        assert a == b == c
        assert a  # survivors exist


_POINTS = st.tuples(st.integers(1, 12), st.integers(1, 28), st.integers(0, 23))


class TestArrivalOrderProperty:
    @given(st.randoms(use_true_random=False), st.sampled_from(PROJECTION_QUERIES))
    @settings(max_examples=20, deadline=None)
    def test_shuffled_arrival_indexed_equals_scan(self, rng, query):
        fillers = sensor_fillers()
        rng.shuffle(fillers)
        indexed = make_engine(fillers)
        scan = make_engine(fillers, use_temporal_index=False, merge_joins=False)
        assert normalized(indexed.execute(query)) == normalized(scan.execute(query))

    @given(_POINTS, _POINTS)
    @settings(max_examples=40, deadline=None)
    def test_random_windows_agree(self, p1, p2):
        (m1, d1, h1), (m2, d2, h2) = sorted((p1, p2))
        query = (
            f'stream("sensor")//reading'
            f"?[2000-{m1:02d}-{d1:02d}T{h1:02d}:00:00, "
            f"2000-{m2:02d}-{d2:02d}T{h2:02d}:00:00]"
        )
        assert_identical(query)

    @given(st.randoms(use_true_random=False), st.sampled_from(JOIN_OPS))
    @settings(max_examples=20, deadline=None)
    def test_shuffled_arrival_merge_join_agrees(self, rng, op):
        fillers = sensor_fillers()
        rng.shuffle(fillers)
        indexed = make_engine(fillers)
        query = join_query(op, "reading")
        merge = normalized(indexed.execute(query))
        nested = normalized(indexed.execute(indexed.compile(query, merge_joins=False)))
        assert merge == nested


# -- copy-on-touch projections ---------------------------------------------------------
#
# A projection of a store-owned version with nothing temporal below it
# returns the clipped root and builds the subtree when somebody navigates
# it.  The reference is the same store with ``use_cache=False``: it owns no
# wrapper, so every projection there is the eager recursion.

AUCTION_STRUCTURE = auction_tag_structure()
BIDS_START = XSDateTime(2003, 6, 1)
WINDOW = "2003-06-01T00:15:00, 2003-06-01T00:40:00"
#: The e2e benchmark's frozen interval query (``adhoc-history``).
FROZEN_INTERVAL = (
    'stream("auction")//open_auction?[2003-06-01T01:00:00, 2003-06-01T03:00:00]'
)

AUCTION_PROJECTIONS = [
    f'stream("auction")//open_auction?[{WINDOW}]',
    'stream("auction")//open_auction?[2003-01-01T00:00:00, 2003-03-01T00:00:00]',
    'stream("auction")//open_auction?[now]',
    'stream("auction")//open_auction?[now - PT1H, now]',
    'stream("auction")//open_auction?[1990-01-01T00:00:00, 1990-06-01T00:00:00]',
    'stream("auction")//closed_auction?[2003-01-01T00:00:00, now]',
    'stream("auction")//person?[2003-01-01T00:00:00]',
    'for $o in stream("auction")//open_auction return $o/current?[now]',
    f'for $o in stream("auction")//open_auction?[{WINDOW}] return count($o/bidder)',
    f'stream("auction")//open_auction?[{WINDOW}]/bidder/increase',
    f'for $o in stream("auction")//open_auction?[{WINDOW}] '
    "return <seen from='{vtFrom($o)}' to='{vtTo($o)}'>{$o/current}</seen>",
    f'<all>{{stream("auction")//open_auction?[{WINDOW}]}}</all>',
    f'stream("auction")//open_auction?[{WINDOW}]?[2003-06-01T00:30:00, now]',
    f'for $b in stream("auction")//open_auction?[{WINDOW}]/bidder '
    "return $b/../@id",
    'stream("auction")//open_auction[@id="open_auction0"]#[last - 1, last]',
    'stream("auction")//open_auction[@id="open_auction0"]#[1]',
    'stream("auction")//open_auction[@id="open_auction0"]#[2, 3]/bidder',
    'stream("auction")//open_auctions#[1]',
    'stream("auction")//site?[now]',
]


def auction_payloads(scale: float, bids: int) -> list[str]:
    """The XMark catalog as wire text, then ``bids`` re-versions 30 s apart.

    Auctions take turns; every bid republishes one with one more bidder.
    """
    fillers = Fragmenter(AUCTION_STRUCTURE).fragment(
        generate_auction_document(scale), XSDateTime(2003, 1, 1)
    )
    payloads = [filler.to_xml() for filler in fillers]
    auctions = [f for f in fillers if f.content.tag == "open_auction"]
    for n in range(bids):
        filler = auctions[n % len(auctions)]
        bidder = frag(f"<bidder><time>{n}</time><increase>{1.5 * (n % 5 + 1)}</increase></bidder>")
        content = filler.content
        content.insert(content.children.index(content.first("current")), bidder)
        stamp = XSDateTime.from_epoch_seconds(BIDS_START.to_epoch_seconds() + 30 * (n + 1))
        payloads.append(Filler(filler.filler_id, filler.tsid, stamp, content).to_xml())
    return payloads


def auction_engine(payloads, *, cached: bool = True) -> XCQLEngine:
    engine = XCQLEngine()
    store = FragmentStore(AUCTION_STRUCTURE, use_cache=cached)
    engine.register_stream(AUCTION_STREAM, AUCTION_STRUCTURE, store)
    assert engine.feed_raw(AUCTION_STREAM, payloads) == len(payloads)
    return engine


def stamp_after(bids: int) -> XSDateTime:
    return XSDateTime.from_epoch_seconds(BIDS_START.to_epoch_seconds() + 30 * bids)


@pytest.fixture(scope="module", params=[0.0, 0.01], ids=["tiny", "hundredth"])
def auction_pair(request):
    """(copy-on-touch engine, eager reference, now) over one history.

    The reference is the interpreter over the wrapper-less store, asked
    once per (query, strategy) and held as text.
    """
    payloads = auction_payloads(request.param, 96)
    eager, now = auction_engine(payloads, cached=False), stamp_after(96)
    memo: dict = {}

    def reference(query: str, strategy: Strategy) -> list[str]:
        if (query, strategy) not in memo:
            result = eager.execute(query, strategy, now=now, backend="interpreted")
            assert not any(isinstance(item, DeferredElement) for item in result)
            memo[query, strategy] = normalized(result)
        return memo[query, strategy]

    return auction_engine(payloads), reference, now


def touch_all(result) -> None:
    for item in result:
        if isinstance(item, Element):
            for _ in item.iter():
                pass


class TestCopyOnTouchDifferential:
    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_every_projection_matches_the_eager_reference(
        self, auction_pair, strategy, backend
    ):
        engine, reference, now = auction_pair
        deferred = 0
        for query in AUCTION_PROJECTIONS:
            want = reference(query, strategy)
            result = engine.execute(query, strategy, now=now, backend=backend)
            deferred += sum(isinstance(item, DeferredElement) for item in result)
            assert normalized(result) == want, query  # read through
            touch_all(result)
            assert normalized(result) == want, query  # built
        # The fragment-direct strategies stand on the store's versions;
        # CaQ projects its own materialised view, which nobody shares.
        assert (deferred > 0) == (strategy is not Strategy.CAQ)


class TestCopyOnTouchIsolation:
    QUERY = FROZEN_INTERVAL

    def _bid_on(self, engine, filler_id: int, at: XSDateTime) -> None:
        store = engine.stores[AUCTION_STREAM]
        latest = store.fillers_of(filler_id)[-1]
        content = latest.detached_content()
        content.append(frag("<bidder><increase>99.00</increase></bidder>"))
        assert engine.feed_raw(
            AUCTION_STREAM, [Filler(filler_id, latest.tsid, at, content).to_xml()]
        ) == 1

    def _filler_of(self, engine, auction: str) -> int:
        store = engine.stores[AUCTION_STREAM]
        tsid = next(t.tsid for t in AUCTION_STRUCTURE.all_tags() if t.name == "open_auction")
        return next(
            fid
            for fid in store.filler_ids_of_tsid(tsid)
            if store.versions_of(fid)[0].get("id") == auction
        )

    def test_a_write_between_query_and_first_touch_is_not_seen(self):
        payloads = auction_payloads(0.0, 240)
        engine = auction_engine(payloads)
        now = stamp_after(241)  # 02:00:30, inside the window, between two bids
        want = normalized(auction_engine(payloads, cached=False).execute(self.QUERY, now=now))
        answer = engine.execute(self.QUERY, now=now)
        assert all(isinstance(item, DeferredElement) for item in answer)
        # The auction's last version was open-ended when asked: clipped to now.
        current = [item for item in answer if item.get("id") == "open_auction0"][-1]
        assert current.get("vtTo") == str(now)
        self._bid_on(engine, self._filler_of(engine, "open_auction0"), stamp_after(250))
        touch_all(answer)
        assert normalized(answer) == want
        assert current.get("vtTo") == str(now) and "99.00" not in serialize(current)
        # Asked again after the write, the version has closed and a new one follows.
        closed, newest = [
            item
            for item in engine.execute(self.QUERY, now=stamp_after(260))
            if item.get("id") == "open_auction0"
        ][-2:]
        assert closed.get("vtTo") == str(stamp_after(250))
        assert newest.get("vtFrom") == str(stamp_after(250)) and "99.00" in serialize(newest)

    def test_a_touched_copy_lets_go_of_its_source(self):
        engine = auction_engine(auction_payloads(0.0, 24))
        (version,) = engine.execute(
            'stream("auction")//open_auction[@id="open_auction0"]#[last]', now=stamp_after(24)
        )
        assert isinstance(version, DeferredElement)
        filler_id = self._filler_of(engine, "open_auction0")
        wrapper = weakref.ref(engine.stores[AUCTION_STREAM].get_fillers(filler_id))
        # A bid dated before the auction's stored versions rewrites its
        # history: the store drops the wrapper instead of extending it.
        self._bid_on(engine, filler_id, XSDateTime(2003, 3, 1))
        assert engine.stores[AUCTION_STREAM].get_fillers(filler_id) is not wrapper()
        gc.collect()
        assert wrapper() is not None  # the untouched answer stands on it
        text = serialize(version)
        touch_all([version])
        gc.collect()
        assert wrapper() is None and serialize(version) == text


HOLE_STRUCTURE = TagStructure.from_xml(
    """
    <stream:structure>
      <tag type="snapshot" id="1" name="log">
        <tag type="temporal" id="2" name="unit">
          <tag type="temporal" id="3" name="reading"/>
        </tag>
      </tag>
    </stream:structure>
    """
)


class TestCopyOnTouchDeclines:
    def test_holes_below_resolve_at_query_time(self):
        engine = XCQLEngine(default_now=NOW)
        engine.register_stream("plant", HOLE_STRUCTURE)
        engine.feed("plant", [
            Filler(0, 1, t(1, 1), frag('<log><hole id="1" tsid="2"/></log>')),
            Filler(1, 2, t(1, 2), frag('<unit n="u"><hole id="2" tsid="3"/></unit>')),
            Filler(2, 3, t(1, 3), frag('<reading v="0"><raw>7</raw></reading>')),
        ])
        query = 'stream("plant")//unit?[2000-01-01, now]'
        (unit,) = engine.execute(query, Strategy.QAC_PLUS)
        assert type(unit) is Element
        before = serialize(unit)
        assert '<reading v="0"' in before and "hole" not in before
        engine.feed("plant", Filler(2, 3, t(2, 3), frag('<reading v="1"><raw>8</raw></reading>')))
        touch_all([unit])
        assert serialize(unit) == before  # resolved when asked, not when read
        (again,) = engine.execute(query, Strategy.QAC_PLUS)
        assert 'v="1"' in serialize(again)

    def test_nested_lifespans_below_are_pruned_and_clipped(self):
        engine = make_engine([
            Filler(0, 1, t(1, 1), frag('<log><hole id="1" tsid="2"/></log>')),
            Filler(1, 2, t(1, 3), frag(
                '<reading s="a"><cal vtFrom="2000-01-03T00:00:00" vtTo="2000-02-01T00:00:00"/>'
                '<cal vtFrom="2000-02-01T00:00:00" vtTo="now"><by>x</by></cal></reading>'
            )),
            Filler(4, 2, t(1, 3), frag('<reading s="plain"><cal><by>y</by></cal></reading>')),
        ])
        nested, plain = engine.execute(
            'stream("sensor")//reading?[2000-03-01, 2000-04-01]', Strategy.QAC_PLUS
        )
        assert type(nested) is Element and isinstance(plain, DeferredElement)
        assert serialize(nested) == (
            '<reading s="a" vtFrom="2000-03-01T00:00:00" vtTo="2000-04-01T00:00:00">'
            '<cal vtFrom="2000-03-01T00:00:00" vtTo="2000-04-01T00:00:00"><by>x</by></cal>'
            "</reading>"
        )

    def test_comments_below_are_dropped_by_the_eager_path(self):
        engine = make_engine([
            Filler(0, 1, t(1, 1), frag('<log><hole id="1" tsid="2"/></log>')),
            Filler(1, 2, t(1, 3), frag('<reading s="a"><!-- note --><cal/><?pi x?></reading>')),
        ])
        (reading,) = engine.execute('stream("sensor")//reading#[1]', Strategy.QAC_PLUS)
        assert type(reading) is Element
        assert serialize(reading).endswith("><cal/></reading>")


class TestCopyOnTouchCensus:
    def test_an_unread_interval_answer_costs_a_node_per_version(self):
        engine = auction_engine(auction_payloads(0.01, 600))
        now = stamp_after(600)
        query = FROZEN_INTERVAL
        engine.execute(query, now=now)  # the store builds its versions once

        def live_nodes() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if isinstance(obj, Node))

        baseline = live_nodes()
        answer = engine.execute(query, now=now)
        assert len(answer) >= 240
        assert len(answer) <= live_nodes() - baseline <= 1.1 * len(answer)
        text = normalized(answer)  # read through: still nothing built
        assert live_nodes() - baseline <= 1.1 * len(answer)
        touch_all(answer)
        assert live_nodes() - baseline > 20 * len(answer)
        assert normalized(answer) == text
