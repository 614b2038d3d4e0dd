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
recognition, and property tests over random arrival orders and windows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.dom import parse_document, serialize
from repro.fragments.model import Filler
from repro.temporal import XSDateTime
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
