"""The group predicate index (PR 12): dispatch of binding tuples by literal.

Four layers of guarantees:

- **Kernel**: the shared probe kernel coerces exactly like the
  evaluator's ``to_number`` and never decides what the residual would
  raise on.
- **Index**: for any predicates and tuples, a member's sub-list contains
  every tuple its comparison accepts (or raises on), in tuple order —
  checked against ``general_compare``, the interpreter's semantics.
- **Differential**: a scheduler with the index emits, per query and per
  tick, byte-identical items to one with ``routing=False``, to one with
  ``share_groups=False``, and cumulatively to a fresh full
  ``engine.execute`` — over seeded random groups, data shapes, feed
  paths, churn and skipped wakes; errors included.
- **Surface**: counters, ``explain``, and registration-time-only index
  maintenance.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import XCQLEngine
from repro.core.optimizer import RoutingPredicate
from repro.core.translator import Strategy
from repro.dom.parser import parse_document
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure, TagType
from repro.streams import routing
from repro.streams.continuous import ContinuousQuery, item_identity
from repro.streams.routing import TupleIndex, index_shape, probe_number, route_match
from repro.streams.scheduler import QueryScheduler
from repro.temporal.chrono import XSDateTime
from repro.xquery.errors import XQueryError, XQueryTypeError
from repro.xquery.xdm import general_compare, to_number

STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="event" id="2" name="sale">
      <tag type="snapshot" id="4" name="price"/>
      <tag type="snapshot" id="5" name="name"/>
    </tag>
  </tag>
</stream:structure>
"""

_BASE = datetime(2003, 1, 1)
NOW = XSDateTime(2004, 1, 1)


def stamp(minutes: int) -> XSDateTime:
    return XSDateTime.parse(
        (_BASE + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%S")
    )


def sale_xml(seq: int, prices, name: str = "ann", cat: str = "a", n: str = "1") -> str:
    body = "".join(f"<price>{price}</price>" for price in prices)
    return f'<sale seq="{seq}" cat="{cat}" n="{n}">{body}<name>{name}</name></sale>'


def sale(filler_id: int, seq: int, xml: str) -> Filler:
    return Filler(filler_id, 2, stamp(seq), parse_document(xml).document_element)


def make_engine() -> XCQLEngine:
    engine = XCQLEngine()
    engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
    return engine


def whole(condition: str) -> str:
    """A member of the ``//sale`` group."""
    return (
        f'for $s in stream("s")//sale where {condition} '
        "return <hit>{$s/@seq}{$s/price/text()}</hit>"
    )


def priced(condition: str) -> str:
    """A member of the ``//sale/price`` group."""
    return f'for $p in stream("s")//sale/price where {condition} return <p>{{$p/text()}}</p>'


# -- the probe kernel ------------------------------------------------------------------


class TestProbeKernel:
    @pytest.mark.parametrize(
        "text",
        ["38", "38.20", "$38.20", " 42 ", "\t$7\n", "$ 5", "-3", "+4", "1e3", "1_000",
         "INF", "-INF", "Infinity", "9007199254740993", "-9007199254740993", "1e400"],
    )
    def test_agrees_with_to_number(self, text):
        assert probe_number(text) == to_number(text)
        assert type(probe_number(text)) in (int, float)

    def test_nan_agrees_with_to_number(self):
        assert probe_number("NaN") != probe_number("NaN")
        assert to_number("NaN") != to_number("NaN")

    @pytest.mark.parametrize("text", ["abc", "", "$", "$$5", "12 apples", "0x1A"])
    def test_raises_like_to_number(self, text):
        with pytest.raises(XQueryTypeError) as probed:
            probe_number(text)
        with pytest.raises(XQueryTypeError) as evaluated:
            to_number(text)
        assert str(probed.value) == str(evaluated.value)

    def test_dollar_prices_now_prune_at_the_filler_level(self):
        pred = RoutingPredicate("sale", ("price",), None, False, ">", 50.0, True)
        cheap = sale(10, 1, sale_xml(1, ["$38.20"]))
        dear = sale(11, 2, sale_xml(2, ["$88.00"]))
        assert not route_match(pred, cheap, TagType.EVENT)
        assert route_match(pred, dear, TagType.EVENT)

    def test_undecidable_operands_wake(self):
        numeric = RoutingPredicate("sale", ("price",), None, False, ">", 50.0, True)
        assert route_match(numeric, sale(10, 1, sale_xml(1, ["abc"])), TagType.EVENT)
        single = RoutingPredicate(
            "sale", ("price",), None, False, ">", 50.0, True, single=True
        )
        two = sale(11, 2, sale_xml(2, ["1", "2"]))
        assert route_match(single, two, TagType.EVENT)  # `gt` over two items raises
        assert not route_match(numeric, two, TagType.EVENT)

    def test_one_kernel_serves_every_door(self):
        from repro.streams import net, scheduler, sharding

        # The network door asks the kernel at its wire-text granularity, the
        # scheduler per binding tuple; nobody probes a materialized filler.
        assert net.DoorProbe is routing.DoorProbe
        assert scheduler.TupleIndex is routing.TupleIndex
        for module in (net, scheduler, sharding):
            for probe in ("route_match", "filler_values", "_route_match"):
                assert not hasattr(module, probe), (module.__name__, probe)
        for probe in ("DoorProbe", "TupleIndex"):
            assert not hasattr(sharding, probe), probe

    def test_inexact_integer_literal_is_not_routable(self):
        engine = make_engine()
        exact = engine.compile(whole("$s/price > 9007199254740992"), Strategy.QAC_PLUS)
        inexact = engine.compile(whole("$s/price > 9007199254740993"), Strategy.QAC_PLUS)
        assert exact.info.incremental.routing is not None
        assert inexact.info.incremental.routing is None


# -- the index, against the interpreter's comparison -------------------------------------

_OPS = ("=", "!=", "<", "<=", ">", ">=")
_NUMBER_TEXT = st.sampled_from(
    ["0", "5", "5.0", "7", "12", "$5", " 7 ", "-3", "NaN", "INF", "-INF", "abc", ""]
)
_WORD = st.sampled_from(["ann", "bob", "cy", "", "Bob"])


def _element(prices, name, cat):
    return parse_document(sale_xml(0, prices, name=name, cat=cat)).document_element


_TUPLES = st.lists(
    st.builds(_element, st.lists(_NUMBER_TEXT, max_size=3), _WORD, _WORD), max_size=8
)
_PREDICATES = st.lists(
    st.one_of(
        st.builds(
            lambda op, value, single: RoutingPredicate(
                "sale", ("price",), None, False, op, float(value), True, single
            ),
            st.sampled_from(_OPS), st.sampled_from([0, 5, 7, 12]), st.booleans(),
        ),
        st.builds(
            lambda op, value: RoutingPredicate(
                "sale", ("name",), None, False, op, value, False
            ),
            st.sampled_from(_OPS), st.sampled_from(["ann", "bob", "cy"]),
        ),
        st.builds(
            lambda op, value: RoutingPredicate("sale", (), "cat", False, op, value, False),
            st.sampled_from(_OPS), st.sampled_from(["ann", "bob"]),
        ),
        st.just(RoutingPredicate("sale", (), "vtFrom", False, ">", 1.0, True)),
    ),
    min_size=1, max_size=10,
)


def _operand_nodes(pred: RoutingPredicate, element) -> list:
    if pred.attribute is not None:
        value = element.attrs.get(pred.attribute)
        return [] if value is None else [value]
    return element.child_elements(pred.path[0])


def _residual_keeps(pred: RoutingPredicate, element) -> bool:
    """Would the comparison accept the tuple — or raise, which must not be hidden?"""
    operand = _operand_nodes(pred, element)
    if pred.single and len(operand) > 1:
        return True  # a value comparison over a sequence raises
    literal = pred.value
    if pred.numeric and literal == int(literal):
        literal = int(literal)
    try:
        return general_compare(pred.op, operand, [literal])
    except XQueryTypeError:
        return True


class _Member:
    def __init__(self, pred):
        self.pred = pred


class TestIndexProperty:
    @given(_TUPLES, _PREDICATES, st.data())
    @settings(max_examples=150, deadline=None)
    def test_sublist_is_an_ordered_superset_of_the_accepted(self, tuples, preds, data):
        index = TupleIndex()
        members = [_Member(pred) for pred in preds]
        filed = [member for member in members if index.add(member, member.pred)]
        # Removal must leave the rest filed exactly as they were.
        for member in list(filed):
            if len(filed) > 1 and data.draw(st.booleans()):
                index.remove(member)
                filed.remove(member)
        partition = index.partition(tuples)
        # Only the members it fed are listed.
        assert set(partition) <= {id(member) for member in filed}
        assert all(partition.values())
        for member in filed:
            accepted = partition.get(id(member), [])
            positions = [tuples.index(item) for item in accepted]
            assert positions == sorted(set(positions))  # a subsequence, no repeats
            kept = [item for item in tuples if _residual_keeps(member.pred, item)]
            assert all(any(item is got for got in accepted) for item in kept)

    def test_unindexable_members_are_absent(self):
        index = TupleIndex()
        vt = _Member(RoutingPredicate("sale", (), "vtTo", False, "<", 5.0, True))
        assert index_shape(vt.pred) is None
        assert not index.add(vt, vt.pred)
        assert not index
        index.remove(vt)  # a no-op, not an error

    def test_registration_keeps_literals_sorted(self):
        index = TupleIndex()
        rng = random.Random(5)
        members = []
        for _ in range(40):
            pred = RoutingPredicate(
                "sale", ("price",), None, False, ">", float(rng.randrange(10)), True
            )
            members.append(_Member(pred))
            index.add(members[-1], pred)
        rng.shuffle(members)
        for member in members[:25]:
            index.remove(member)
        (shape,) = index._shapes.values()
        literals = shape.ordered[">"].literals
        assert literals == sorted(literals) and len(literals) == 15
        assert index.shapes == 1


# -- differential: index vs routing=False vs share_groups=False vs full -------------------

_PRICE_POOL = ["3", "8", "15", "15.0", "22.5", "40", "$38.20", " 42 ", "$ 9", "70", "-1"]
_SPECIAL_POOL = _PRICE_POOL + ["NaN", "INF", "-INF"]

_CONDITIONS = [
    "$s/price > {k}", "$s/price >= {k}", "$s/price < {k}", "$s/price <= {k}",
    "$s/price = {k}", "$s/price != {k}", "{k} < $s/price", "{k} >= $s/price",
    "$s/price > {k} and $s/name != \"bob\"", "$s/price/text() > {k}",
    '$s/name = "{w}"', '$s/name != "{w}"', '$s/name < "{w}"', '"{w}" <= $s/name',
    '$s/@cat = "{w}"', "$s/@n > {k}", "$s/@n = {k}",
    # no routable conjunct: these members take every tuple
    "count($s/price) > 1", '$s/price > {k} or $s/name = "{w}"', "string-length($s/name) > 2",
]
_PRICE_CONDITIONS = ["$p > {k}", "$p <= {k}", "$p = {k}", "{k} > $p", "$p != {k}"]


def _sources(rng: random.Random, count: int) -> list[str]:
    literals = [8, 15, 15, 22.5, 40, 40, 41]  # duplicates on purpose
    words = ["ann", "bob", "cy"]
    sources = []
    for _ in range(count):
        k, w = rng.choice(literals), rng.choice(words)
        if rng.random() < 0.25:
            sources.append(priced(rng.choice(_PRICE_CONDITIONS).format(k=k)))
        else:
            sources.append(whole(rng.choice(_CONDITIONS).format(k=k, w=w)))
    return sources


def _batch(rng: random.Random, seqs, pool) -> list[tuple[int, int, str]]:
    batch = []
    for seq in seqs:
        prices = [rng.choice(pool) for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))]
        xml = sale_xml(
            seq, prices, name=rng.choice(["ann", "bob", "cy", ""]),
            cat=rng.choice(["ann", "bob"]), n=str(rng.randrange(50)),
        )
        # Mostly fresh ids; sometimes an event re-uses one (a shared hole).
        filler_id = 100 + (seq if rng.random() < 0.85 else rng.randrange(max(1, seq)))
        batch.append((filler_id, seq, xml))
    return batch


class _Arm:
    """One scheduler configuration over its own engine, fed the common script."""

    def __init__(self, extra_engine: bool = False, **knobs):
        self.engine = make_engine()
        self.scheduler = QueryScheduler(self.engine, **knobs)
        if extra_engine:
            # A second watched engine feeding nothing: its presence must not
            # change which members run or from which watermark.
            self.scheduler.watch_engine(make_engine())
        self.queries: dict[str, ContinuousQuery] = {}
        self.emitted: dict[str, list[str]] = {}

    def add(self, source: str) -> None:
        query = ContinuousQuery(self.engine, source, strategy=Strategy.QAC_PLUS)
        self.queries[source] = query
        self.emitted.setdefault(source, [])
        self.scheduler.add(query)

    def remove(self, source: str) -> None:
        assert self.scheduler.remove(self.queries.pop(source))

    def feed(self, batch, raw: bool) -> None:
        fillers = [sale(filler_id, seq, xml) for filler_id, seq, xml in batch]
        if raw:
            self.engine.feed_raw("s", [filler.to_xml() for filler in fillers])
        else:
            self.engine.feed("s", fillers)

    def tick(self) -> dict[str, list[str]]:
        out = self.scheduler.poll(NOW)
        by_source = {query.source: items for query, items in out.items()}
        tick = {}
        for source in self.queries:
            tick[source] = [item_identity(item) for item in by_source[source]]
            self.emitted[source].extend(tick[source])
        return tick


def _run_script(seed: int, pool, extra_engine: bool = False) -> _Arm:
    rng = random.Random(seed)
    arms = [
        _Arm(extra_engine=extra_engine),
        _Arm(extra_engine=extra_engine, routing=False),
        _Arm(extra_engine=extra_engine, share_groups=False),
    ]
    active = _sources(rng, rng.randrange(6, 14))
    for arm in arms:
        for source in active:
            arm.add(source)
        arm.tick()
    seq = 0
    for _ in range(rng.randrange(5, 9)):
        size = rng.choice([1, 1, 2, 4, 7])
        batch = _batch(rng, range(seq + 1, seq + 1 + size), pool)
        seq += size
        raw = rng.random() < 0.5
        churn = rng.random()
        gone = rng.choice(sorted(set(active))) if churn < 0.25 and len(set(active)) > 2 else None
        new = _sources(rng, 1)[0] if 0.2 < churn < 0.5 else None
        ticks = []
        for arm in arms:
            if gone is not None and gone in arm.queries:
                arm.remove(gone)
            if new is not None and new not in arm.queries:
                arm.add(new)
            arm.feed(batch, raw)
            ticks.append(arm.tick())
        if gone is not None:
            active = [source for source in active if source != gone]
        if new is not None and new not in active:
            active.append(new)
        assert ticks[0] == ticks[1], f"seed {seed}: index vs routing=False"
        assert ticks[0] == ticks[2], f"seed {seed}: index vs share_groups=False"
    indexed = arms[0]
    for source, query in indexed.queries.items():
        full = indexed.engine.execute(source, Strategy.QAC_PLUS, now=NOW)
        retained = {item_identity(item) for item in query.last_result}
        assert retained == {item_identity(item) for item in full}, f"seed {seed}: {source}"
    return indexed


class TestDifferential:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_groups_match_every_baseline(self, seed):
        _run_script(seed, _PRICE_POOL)

    @pytest.mark.parametrize("seed", range(100, 112))
    def test_nan_and_infinite_operands(self, seed):
        _run_script(seed, _SPECIAL_POOL)

    @pytest.mark.parametrize("seed", range(200, 212))
    def test_members_at_different_watermarks_after_a_skip(self, seed):
        _run_script(seed, _PRICE_POOL, extra_engine=True)

    def test_the_index_actually_prunes(self):
        indexed = _run_script(3, _PRICE_POOL)
        counters = indexed.scheduler.stats()["routing"]
        assert counters["tuple_probes"] > 0
        assert counters["tuples_pruned"] > 0

    @pytest.mark.parametrize("raw", [False, True])
    def test_skipped_member_catches_up_from_its_own_watermark(self, raw):
        """A member that sat out a tick (withdrawn, then re-admitted) folds in
        what it missed from its own watermark while its co-member only sees
        the new batch: one group, two windows, the same answers."""
        arms = [_Arm(extra_engine=True), _Arm(extra_engine=True, routing=False)]
        low, high = whole("$s/price > 10"), whole("$s/price > 60")
        script = [
            [(101, 1, sale_xml(1, ["20"])), (102, 2, sale_xml(2, ["80"]))],
            [(103, 3, sale_xml(3, ["70"])), (104, 4, sale_xml(4, ["5"]))],
        ]

        def bound(stats) -> int:  # windows whose tuples somebody produced
            return stats["shared_prefix"]["runs"] + stats["automata"]["runs"]

        ticks = []
        for arm in arms:
            arm.add(low)
            arm.add(high)
            arm.tick()
            lagging = arm.queries[high]
            assert arm.scheduler.remove(lagging)
            arm.feed(script[0], raw)
            missed = arm.scheduler.poll(NOW)
            assert list(missed) == [arm.queries[low]]
            arm.emitted[low].extend(item_identity(item) for item in missed[arm.queries[low]])
            arm.scheduler.add(lagging)
            before = arm.scheduler.stats()
            arm.feed(script[1], raw)
            ticks.append(arm.tick())
            after = arm.scheduler.stats()
            # `high` spanned both batches, `low` only the second: two windows,
            # each bound once, and the catch-up was incremental.
            assert bound(after) - bound(before) == 2
            assert lagging.last_mode == "shared" and lagging.full_runs == 1
        assert ticks[0] == ticks[1]
        assert len(ticks[0][high]) == 2 and len(ticks[0][low]) == 1
        assert len(arms[0].emitted[high]) == 2
        assert len(arms[0].emitted[low]) == 3

    def test_value_comparisons_over_single_valued_operands(self):
        arms = [_Arm(), _Arm(routing=False), _Arm(share_groups=False)]
        sources = [whole("$s/price gt 15"), whole("$s/price le 15"), whole("$s/price eq 40"),
                   whole("$s/price ne 40"), whole('$s/name eq "bob"')]
        batch = [(100 + i, i, sale_xml(i, [price], name=name))
                 for i, (price, name) in enumerate(
                     [("3", "ann"), ("15", "bob"), ("40", "cy"), ("$41", "bob")], start=1)]
        batch.append((120, 9, sale_xml(9, [])))  # an empty operand: never kept
        for arm in arms:
            for source in sources:
                arm.add(source)
            arm.tick()
        ticks = []
        for arm in arms:
            arm.feed(batch, raw=True)
            ticks.append(arm.tick())
        assert ticks[0] == ticks[1] == ticks[2]
        assert [len(ticks[0][source]) for source in sources] == [2, 2, 1, 3, 2]


class TestErrorsAreNotHidden:
    def _raises(self, run) -> tuple:
        with pytest.raises(XQueryError) as caught:
            run()
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize(
        "sources, batch",
        [
            # a non-numeric operand under a numeric comparison
            ([whole("$s/price > 15"), whole("$s/price > 40"), whole("$s/price = 8")],
             [(101, 1, sale_xml(1, ["20"])), (102, 2, sale_xml(2, ["abc"])),
              (103, 3, sale_xml(3, ["xyz"]))]),
            # a value comparison over a two-item operand
            ([whole("$s/price gt 15"), whole("$s/price gt 40")],
             [(101, 1, sale_xml(1, ["20"])), (102, 2, sale_xml(2, ["1", "2"]))]),
            # a clause before the `where` that raises for a tuple the
            # literal predicate would have pruned
            (['for $s in stream("s")//sale let $d := xs:dateTime($s/@seq) '
              "where $s/price > 50 return <hit>{$s/@seq}</hit>"],
             [(101, 1, sale_xml(1, ["10"]))]),
        ],
    )
    def test_every_arm_raises_the_same_type_error(self, sources, batch, raw):
        outcomes = []
        for knobs in ({}, {"routing": False}, {"share_groups": False}):
            arm = _Arm(**knobs)
            for source in sources:
                arm.add(source)
            arm.tick()
            arm.feed(batch, raw)
            outcomes.append(self._raises(arm.tick))
        engine = make_engine()
        engine.feed("s", [sale(*entry) for entry in batch])
        outcomes.append(
            self._raises(lambda: engine.execute(sources[0], Strategy.QAC_PLUS, now=NOW))
        )
        assert len(set(outcomes)) == 1, outcomes

    def test_existential_match_before_the_bad_value_does_not_raise(self):
        # "70" satisfies `> 15` before "abc" is reached; `> 90` reaches it.
        batch = [(101, 1, sale_xml(1, ["70", "abc"]))]
        low, high = whole("$s/price > 15"), whole("$s/price > 90")
        for knobs in ({}, {"routing": False}):
            arm = _Arm(**knobs)
            arm.add(low)
            arm.tick()
            arm.feed(batch, raw=True)
            assert len(arm.tick()[low]) == 1
            both = _Arm(**knobs)
            both.add(low)
            both.add(high)
            both.tick()
            both.feed(batch, raw=True)
            with pytest.raises(XQueryTypeError):
                both.tick()


# -- surface -----------------------------------------------------------------------------


class TestSurface:
    def test_empty_sublist_skips_the_residual(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        low = ContinuousQuery(engine, whole("$s/price > 10"), strategy=Strategy.QAC_PLUS)
        high = ContinuousQuery(engine, whole("$s/price > 60"), strategy=Strategy.QAC_PLUS)
        for query in (low, high):
            scheduler.add(query)
        scheduler.poll(NOW)
        engine.feed_raw("s", [sale(101, 1, sale_xml(1, ["20"])).to_xml()])
        out = scheduler.poll(NOW)
        assert len(out[low]) == 1 and out[high] == []
        # only `low` ran anything: one body, and the index's verdict stood
        # in for its guard
        assert scheduler.stats()["shared_residual"] == {
            "guards_skipped": 1, "guards_run": 0, "body_runs": 1, "body_reuses": 0,
        }
        assert high.last_mode == "shared" and high.shared_runs == 1
        assert scheduler.stats()["routing"]["tuples_pruned"] == 1

    def test_routing_off_disables_the_index(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine, routing=False)
        for k in (10, 60):
            scheduler.add(
                ContinuousQuery(engine, whole(f"$s/price > {k}"), strategy=Strategy.QAC_PLUS)
            )
        scheduler.poll(NOW)
        engine.feed_raw("s", [sale(101, 1, sale_xml(1, ["20"])).to_xml()])
        scheduler.poll(NOW)
        counters = scheduler.stats()["routing"]
        assert counters["tuple_probes"] == 0 and counters["tuples_pruned"] == 0
        assert counters["registered"] == 0

    def test_index_is_only_maintained_at_registration(self, monkeypatch):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        queries = [
            ContinuousQuery(engine, whole(f"$s/price > {k}"), strategy=Strategy.QAC_PLUS)
            for k in (10, 30, 60)
        ]
        for query in queries:
            scheduler.add(query)
        scheduler.poll(NOW)

        def forbidden(*args, **kwargs):
            raise AssertionError("the index was rebuilt inside a poll")

        monkeypatch.setattr(TupleIndex, "add", forbidden)
        monkeypatch.setattr(TupleIndex, "remove", forbidden)
        monkeypatch.setattr(routing._SortedMembers, "add", forbidden)
        for seq in range(1, 6):
            engine.feed_raw("s", [sale(100 + seq, seq, sale_xml(seq, [str(seq * 15)])).to_xml()])
            scheduler.poll(NOW)
        monkeypatch.undo()
        assert scheduler.remove(queries[1])
        (index,) = scheduler._indexes.values()
        assert len(index) == 2 and len(index.partition([])) == 0
        for query in (queries[0], queries[2]):
            assert scheduler.remove(query)
        assert scheduler._indexes == {}

    def test_stats_keep_the_existing_routing_keys(self):
        engine = make_engine()
        scheduler = QueryScheduler(engine)
        assert scheduler.stats()["routing"] == {
            "registered": 0, "tuple_probes": 0, "tuples_pruned": 0,
        }
        # `registered` counts the members filed in a tuple index: a member
        # with no routable predicate is in the group but not in its index.
        for source in (whole("$s/price > 40"), whole("$s/price > 70"),
                       whole("count($s/price) > 1")):
            scheduler.add(ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS))
        assert scheduler.stats()["routing"]["registered"] == 2

    def test_explain_names_the_index_shape(self):
        engine = make_engine()
        plan = engine.explain(whole("$s/price > 40"), Strategy.QAC_PLUS)
        assert plan["routing_predicate"] == "sale[price > 40.0]"
        assert plan["routing_index_shape"] == "sale[price > number]"
        text = engine.explain(whole('"bob" <= $s/name'), Strategy.QAC_PLUS)
        assert text["routing_index_shape"] == "sale[name >= string]"
        none = engine.explain(whole("count($s/price) > 1"), Strategy.QAC_PLUS)
        assert none["routing_index_shape"] is None
