"""The shared residual (ISSUE 22): a residual is *guard ∘ body*.

What the split rests on, layer by layer:

- **Exactness**: where the group's predicate index gives a verdict for a
  tuple, it is the verdict of the member's own guard closure — so the
  guard may be skipped; where it gives none, the guard runs and answers
  (or raises) exactly as with ``routing=False``.  Fuzzed over operand
  texts, comparison spellings, literal kinds and sides.
- **Differential**: a 64-member group with two bodies emits, per query
  and per tick, the identity sequence of ``share_groups=False``,
  ``routing=False`` and ``incremental=False``, and cumulatively a fresh
  ``execute`` — across feed paths, automaton declines, catch-up,
  churn, ``seen_cap``, ``emit="full"`` and bodies that keep a ``where``.
- **Ownership**: no constructed node reaches two members.
- **Economy**: on the benchmark's 64 queries a tuple's body runs once
  per group and no guard runs at all; two bodies are lowered.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import XCQLEngine
from repro.core.translator import Strategy
from repro.dom.nodes import Node
from repro.dom.parser import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import Filler
from repro.fragments.tagstructure import TagStructure
from repro.streams.continuous import ContinuousQuery, item_identity
from repro.streams.routing import TupleIndex
from repro.streams.scheduler import QueryScheduler
from repro.temporal.chrono import XSDateTime
from repro.xquery.errors import XQueryError

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


def sale_xml(seq: int, prices, name: str = "ann") -> str:
    body = "".join(f"<price>{price}</price>" for price in prices)
    return f'<sale seq="{seq}">{body}<name>{name}</name></sale>'


def sale(filler_id: int, seq: int, xml: str) -> Filler:
    return Filler(filler_id, 2, stamp(seq), parse_document(xml).document_element)


def make_engine() -> XCQLEngine:
    engine = XCQLEngine()
    engine.register_stream("s", TagStructure.from_xml(STRUCTURE_XML))
    return engine


def hit(condition: str) -> str:
    return (
        f'for $s in stream("s")//sale where {condition} '
        "return <hit>{$s/@seq}{$s/price/text()}</hit>"
    )


def tag(condition: str) -> str:
    """Same group as :func:`hit`, another body."""
    return (
        f'for $s in stream("s")//sale where {condition} '
        "return <tag seq=\"{$s/@seq}\"><n>{$s/name/text()}</n></tag>"
    )


def _outcome(run):
    """What a tick produced: its value, or the error it raised."""
    try:
        return run()
    except XQueryError as error:
        return type(error).__name__, str(error)


# -- (a) the index's verdict is the guard's ------------------------------------------------

_OPERAND_TEXTS = [
    "5", "7", "12", "5.0", " 7 ", "\t12\n", "$5", "$38.20", "-3",
    "9007199254740993", "-9007199254740993", "9007199254740992",
    "NaN", "INF", "-INF", "", "abc", "12 apples",
]
_OPERANDS = st.one_of(
    st.lists(st.sampled_from(_OPERAND_TEXTS), min_size=1, max_size=1),
    st.lists(st.sampled_from(_OPERAND_TEXTS), min_size=2, max_size=2),
    st.just([]),
)
_SPELLINGS = ["=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge"]
_LITERALS = ["0", "5", "7", "12", "38.2", "9007199254740992", '"5"', '"abc"', '""', '"7 "']

_ENGINE = make_engine()  # plans only: nothing is ever fed to it


class _Member:
    pass


def _scheduled(source: str, xml: str, **knobs):
    """One query, one arriving tuple: ``(identities or error, counters)``."""
    engine = make_engine()
    scheduler = QueryScheduler(engine, **knobs)
    query = ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
    scheduler.add(query)
    scheduler.poll(NOW)
    engine.feed_raw("s", [sale(101, 1, xml).to_xml()])
    outcome = _outcome(
        lambda: [item_identity(item) for item in scheduler.poll(NOW)[query]]
    )
    return outcome, scheduler.stats()["shared_residual"]


class TestVerdictExactness:
    @given(
        _OPERANDS,
        st.sampled_from(_SPELLINGS),
        st.sampled_from(_LITERALS),
        st.booleans(),
        st.sampled_from(["$s/price", "$s/price/text()"]),
    )
    @settings(deadline=None)
    def test_decided_means_the_guard_agrees_and_undecided_means_it_ran(
        self, prices, spelling, literal, literal_first, operand
    ):
        condition = (
            f"{literal} {spelling} {operand}" if literal_first
            else f"{operand} {spelling} {literal}"
        )
        source = hit(condition)
        plan = _ENGINE.prepare_incremental(_ENGINE.compile(source, Strategy.QAC_PLUS))
        assert plan.routing is not None and plan.guard is not None
        xml = sale_xml(1, prices)
        bound = parse_document(xml).document_element
        guard = _outcome(lambda: plan.guard(_ENGINE.build_context(now=NOW), bound))

        index = TupleIndex()
        member = _Member()
        assert index.add(member, plan.routing)
        partition = index.partition([bound])
        decided = id(bound) not in partition.undecided.get(id(member), ())
        if decided:
            # The verdict that lets the scheduler skip the guard.
            assert guard == (partition[id(member)] == [bound]), condition
        else:
            assert partition[id(member)] == [bound]  # passed through

        routed, counters = _scheduled(source, xml)
        unrouted, reference = _scheduled(source, xml, routing=False)
        assert routed == unrouted, condition
        if isinstance(guard, tuple):
            # The guard's own error, in the same tick, with routing on and
            # off (a run that raises is not tallied).
            assert not decided and routed == guard, condition
            return
        assert reference["guards_run"] == 1 and reference["guards_skipped"] == 0
        if decided:
            assert counters["guards_run"] == 0
            assert counters["guards_skipped"] == (1 if guard else 0)
        else:
            assert counters["guards_run"] == 1 and counters["guards_skipped"] == 0

    def test_the_split_is_on_the_plan(self):
        plan = _ENGINE.explain(hit('$s/price > 40 and $s/name != "bob"'), Strategy.QAC_PLUS)
        assert plan["residual_guard"] == "$s/price > 40"
        assert '$s/name != "bob"' in plan["residual_body_key"]
        assert "$s/price > 40" not in plan["residual_body_key"]
        unrouted = _ENGINE.explain(hit("count($s/price) > 1"), Strategy.QAC_PLUS)
        assert unrouted["residual_guard"] is None
        assert "count($s/price) > 1" in unrouted["residual_body_key"]
        full = _ENGINE.explain('count(stream("s")//sale)', Strategy.QAC_PLUS)
        assert full["residual_guard"] is None and full["residual_body_key"] is None

    def test_members_differing_in_the_guard_share_one_lowered_body(self):
        engine = make_engine()
        plans = [
            engine.prepare_incremental(engine.compile(hit(f"$s/price > {k}"), Strategy.QAC_PLUS))
            for k in (10, 20, 30)
        ]
        other = engine.prepare_incremental(
            engine.compile(tag("$s/price > 10"), Strategy.QAC_PLUS)
        )
        assert plans[0].body is plans[1].body is plans[2].body
        assert plans[0].guard is not plans[1].guard
        assert other.body is not plans[0].body
        assert engine.stats()["incremental"]["bodies_lowered"] == 2


# -- (b) differential: a 64-member, two-body group -----------------------------------------

_PRICES = ["3", "8", "15", "15.0", "22.5", "40", "$38.20", " 42 ", "70", "-1", "NaN", "INF"]


def _helper(name: str, test: str) -> str:
    """A prolog function ``keep`` — two bodies can spell it differently."""
    return (
        f"define function keep($s) {{ {test} }} "
        f'for $s in stream("s")//sale where $s/price > 5 and keep($s) '
        f"return <{name}>{{$s/@seq}}</{name}>"
    )


def _group_sources() -> list[str]:
    sources = [hit(f"$s/price > {3 + 2 * i}") for i in range(40)]
    sources += [tag(f"$s/price <= {5 + 4 * i}") for i in range(16)]
    sources += [
        # `where P and Q`: the guard is P, Q stays in the body
        hit('$s/price > 10 and $s/name != "bob"'),
        hit('$s/price > 30 and $s/name != "bob"'),
        # a body with its own `let` and a second `where`
        'for $s in stream("s")//sale where $s/price >= 15 return '
        "(for $p in $s/price let $n := $s/name/text() where $n != \"cy\" "
        "return <named>{$n}{$p/text()}</named>)",
        # no routable conjunct: the whole `where` is body
        'for $s in stream("s")//sale let $n := $s/name/text() '
        'where $s/price > 20 and $n != "cy" return <late>{$n}</late>',
        # one name, two prolog functions: the body keys must differ
        _helper("k", '$s/name = "ann"'),
        _helper("k", '$s/name != "ann"'),
        # the tuple itself and one of its own nodes: bound, never copied
        'for $s in stream("s")//sale where $s/price > 20 return $s',
        'for $s in stream("s")//sale where $s/price > 20 return $s/price',
    ]
    assert len(sources) == 64 and len(set(sources)) == 64
    return sources


class _Arm:
    def __init__(self, sources, incremental: bool = True, extra_engine: bool = False,
                 query_knobs=None, **knobs):
        self.engine = make_engine()
        self.scheduler = QueryScheduler(self.engine, **knobs)
        if extra_engine:
            # Skipped members then keep their older watermark and catch up later.
            self.scheduler.watch_engine(make_engine())
        self.incremental = incremental
        self.query_knobs = query_knobs or {}
        self.queries: dict[str, ContinuousQuery] = {}
        for source in sources:
            self.add(source)

    def add(self, source: str) -> None:
        query = ContinuousQuery(
            self.engine, source, strategy=Strategy.QAC_PLUS,
            incremental=self.incremental, **self.query_knobs,
        )
        self.queries[source] = query
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
        return {
            query.source: [item_identity(item) for item in items]
            for query, items in out.items()
        }


def _script(seed: int, ticks: int = 7):
    """``(batch, raw)`` per tick; a raw/DOM mix inside one window declines the automaton."""
    rng = random.Random(seed)
    seq = 0
    for _ in range(ticks):
        parts = []
        for raw in rng.choice([(True,), (False,), (True, False)]):
            size = rng.choice([1, 2, 5])
            batch = []
            for _ in range(size):
                seq += 1
                prices = [rng.choice(_PRICES) for _ in range(rng.choice([0, 1, 1, 1, 2]))]
                batch.append(
                    (100 + seq, seq, sale_xml(seq, prices, rng.choice(["ann", "bob", "cy"])))
                )
            parts.append((batch, raw))
        yield parts


def _run(arms, seed: int, churn: bool = False) -> list:
    history = []
    for arm in arms:
        arm.tick()
    extra = tag("$s/price > 21")
    for number, parts in enumerate(_script(seed)):
        if churn and number == 2:
            for arm in arms:
                arm.remove(hit("$s/price > 9"))
                arm.add(extra)
        if churn and number == 4:
            for arm in arms:
                arm.remove(extra)
        ticks = []
        for arm in arms:
            for batch, raw in parts:
                arm.feed(batch, raw)
            ticks.append(arm.tick())
        for other in ticks[1:]:
            assert ticks[0] == other, f"seed {seed}, tick {number}"
        history.append(ticks[0])
    return history


class TestDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_arm_emits_the_same_identities_per_query_per_tick(self, seed):
        sources = _group_sources()
        arms = [
            _Arm(sources),
            _Arm(sources, share_groups=False),
            _Arm(sources, routing=False),
            _Arm(sources, incremental=False),
            _Arm(sources, stream_automata=False),
        ]
        history = _run(arms, seed, churn=seed % 2 == 1)
        shared = arms[0]
        stats = shared.scheduler.stats()
        assert stats["shared_residual"]["body_reuses"] > 0
        assert stats["shared_residual"]["guards_skipped"] > 0
        assert stats["automata"]["fallbacks"] > 0 or seed not in (0, 1)
        for source, query in shared.queries.items():
            fresh = shared.engine.execute(source, Strategy.QAC_PLUS, now=NOW)
            assert sorted(map(item_identity, query.last_result)) == sorted(
                map(item_identity, fresh)
            ), source
            emitted = [key for tick in history for key in tick.get(source, [])]
            assert set(emitted) == set(map(item_identity, fresh)), source

    @pytest.mark.parametrize("seed", (20, 21))
    def test_members_catching_up_from_an_older_watermark(self, seed):
        sources = _group_sources()
        arms = [
            _Arm(sources, extra_engine=True),
            _Arm(sources, extra_engine=True, routing=False),
            _Arm(sources, extra_engine=True, share_groups=False),
        ]
        _run(arms, seed)

    @pytest.mark.parametrize("knobs", [{"seen_cap": 3}, {"emit": "full"}])
    def test_seen_cap_and_full_emission(self, knobs):
        # What such a member emits depends on which ticks wake it, so arms
        # are compared with the arm that wakes alike: probed wakes (shared
        # or not) with each other, broadcast wakes with each other.
        sources = _group_sources()[::4]
        probed = [
            _Arm(sources, query_knobs=knobs),
            _Arm(sources, query_knobs=knobs, share_groups=False),
            _Arm(sources, query_knobs=knobs, incremental=False),
        ]
        broadcast = [
            _Arm(sources, query_knobs=knobs, routing=False),
            _Arm(sources, query_knobs=knobs, routing=False, incremental=False),
        ]
        _run(probed, 30)
        _run(broadcast, 30)
        if "seen_cap" in knobs:
            assert any(q.seen_evictions for q in probed[0].queries.values())
        for arm in probed[:2] + broadcast[:1]:
            for source, query in arm.queries.items():
                fresh = arm.engine.execute(source, Strategy.QAC_PLUS, now=NOW)
                assert sorted(map(item_identity, query.last_result)) == sorted(
                    map(item_identity, fresh)
                ), source

    def test_a_guard_error_surfaces_in_the_same_tick_in_every_arm(self):
        sources = [hit(f"$s/price > {k}") for k in (10, 20)] + [tag("$s/price gt 15")]
        batches = [
            [(101, 1, sale_xml(1, ["30"]))],
            [(102, 2, sale_xml(2, ["40"])), (103, 3, sale_xml(3, ["abc"]))],
        ]
        outcomes = []
        for knobs in ({}, {"routing": False}, {"share_groups": False}):
            arm = _Arm(sources, **knobs)
            arm.tick()
            arm.feed(batches[0], raw=True)
            first = arm.tick()
            arm.feed(batches[1], raw=True)
            outcomes.append((first, _outcome(arm.tick)))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][1][0] == "XQueryTypeError"

    def test_last_emitted_identities_are_the_dedup_strings(self):
        arm = _Arm(_group_sources()[:8] + [tag("$s/price > 1")])
        solo = ContinuousQuery(arm.engine, hit("$s/price > 5"), strategy=Strategy.QAC_PLUS)
        full = ContinuousQuery(
            arm.engine, hit("$s/price > 5"), strategy=Strategy.QAC_PLUS, emit="full"
        )
        arm.tick()
        for parts in _script(40, ticks=3):
            for batch, raw in parts:
                arm.feed(batch, raw)
            out = arm.scheduler.poll(NOW)
            for query, items in out.items():
                assert query.last_emitted_identities == [item_identity(i) for i in items]
            for query in (solo, full):
                items = query.evaluate(NOW)
                assert query.last_emitted_identities == [item_identity(i) for i in items]


# -- (c) ownership -------------------------------------------------------------------------


class TestOwnership:
    def test_no_constructed_node_reaches_two_members(self):
        sources = [hit(f"$s/price > {k}") for k in (1, 2, 3, 4)]
        arm = _Arm(sources)
        arm.tick()
        arm.feed([(101, 1, sale_xml(1, ["50"])), (102, 2, sale_xml(2, ["60"]))], raw=True)
        out = arm.scheduler.poll(NOW)
        emissions = [out[arm.queries[source]] for source in sources]
        assert all(len(items) == 2 for items in emissions)
        counters = arm.scheduler.stats()["shared_residual"]
        assert counters["body_runs"] == 2 and counters["body_reuses"] == 6
        nodes = [id(node) for items in emissions for item in items for node in _tree(item)]
        assert len(nodes) == len(set(nodes))
        for items in emissions[1:]:
            assert [serialize(i) for i in items] == [serialize(i) for i in emissions[0]]
            assert all(i.parent is None for i in items)

    def test_bound_nodes_stay_shared_and_attributes_are_never_copied(self):
        bound = 'for $s in stream("s")//sale where $s/price > {k} return $s/name'
        attrs = 'for $s in stream("s")//sale where $s/price > {k} return $s/@seq'
        arm = _Arm([bound.format(k=1), bound.format(k=2), attrs.format(k=1), attrs.format(k=2)])
        arm.tick()
        arm.feed([(101, 1, sale_xml(1, ["50"]))], raw=True)
        out = arm.scheduler.poll(NOW)
        first, second, attr_one, attr_two = (out[q] for q in arm.queries.values())
        assert first[0] is second[0]  # a node of the tuple's own tree
        assert attr_one[0] is not attr_two[0] and attr_one[0] == attr_two[0]
        counters = arm.scheduler.stats()["shared_residual"]
        assert counters["body_runs"] == 3 and counters["body_reuses"] == 1

    def test_adoption_cannot_reach_the_built_source(self):
        # The first member gets a copy too, so adopting (and editing) it
        # leaves the item the other members' copies read through alone.
        sources = [hit(f"$s/price > {k}") for k in (1, 2)]
        arm = _Arm(sources)
        holder = parse_document("<out/>").document_element
        arm.queries[sources[0]].subscribe(lambda items: [holder.append(i) for i in items])
        arm.tick()
        arm.feed([(101, 1, sale_xml(1, ["50"]))], raw=True)
        out = arm.scheduler.poll(NOW)
        first, second = (out[arm.queries[source]] for source in sources)
        assert first[0].parent is holder and second[0].parent is None
        assert serialize(first[0]) == serialize(second[0])
        assert arm.scheduler.stats()["shared_residual"]["body_runs"] == 1
        before = serialize(second[0])
        first[0].children[0].text = "edited"
        first[0].append(parse_document("<more/>").document_element)
        assert serialize(second[0]) == before


def _tree(node):
    yield node
    if isinstance(node, Node):
        for child in node.children:
            yield from _tree(child)


# -- O(delta) incremental runs -------------------------------------------------------------


class TestRunAllocatesTheDelta:
    def _member(self, retained: int):
        engine = make_engine()
        query = ContinuousQuery(engine, hit("$s/price > 0"), strategy=Strategy.QAC_PLUS)
        engine.feed(
            "s", [sale(1000 + i, i, sale_xml(i, [str(1 + i)])) for i in range(retained)]
        )
        assert len(query.evaluate(NOW)) == retained
        return engine, query

    @pytest.mark.parametrize("retained", [100, 10_000])
    def test_a_one_tuple_delta_does_not_copy_the_retained_answer(self, retained):
        import tracemalloc

        engine, query = self._member(retained)
        # The first append after a full run may grow the retained list's
        # spare room (amortized, not per run): measure the run after it.
        engine.feed("s", [sale(98_000, 1, sale_xml(1, ["6"]))])
        assert len(query.evaluate(NOW)) == 1
        engine.feed("s", [sale(99_000, 1, sale_xml(1, ["7"]))])
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        fresh = query.evaluate(NOW)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        assert len(fresh) == 1 and query.last_mode == "delta"
        grown = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
        )
        # One pointer per retained item would already be 80 kB at 10 000.
        assert grown < 40_000, grown
        assert len(query.last_result) == retained + 2

    def test_last_result_is_a_fresh_full_execute(self):
        engine, query = self._member(50)
        for step in range(3):
            engine.feed("s", [sale(99_000 + step, step, sale_xml(step, [str(5 + step)]))])
            query.evaluate(NOW)
            answer = query.last_result
            assert answer is query.last_result  # materialized once per run
            fresh = engine.execute(query.compiled, now=NOW)
            assert sorted(map(item_identity, answer)) == sorted(map(item_identity, fresh))
        held = query.last_result
        engine.feed("s", [sale(99_500, 9, sale_xml(9, ["9"]))])
        query.evaluate(NOW)
        assert len(held) == 53 and len(query.last_result) == 54  # a snapshot, not a view
        query.reset()
        assert len(query.last_result) == 54


# -- (d) economy on the benchmark's queries ------------------------------------------------


class TestBenchmarkCensus:
    def test_bodies_run_once_per_group_and_no_guard_runs(self):
        netbench = pytest.importorskip("benchmarks.e2e.netbench")
        loadgen = pytest.importorskip("benchmarks.e2e.loadgen")
        load = loadgen.AuctionLoad(seed=7)
        engine = XCQLEngine()
        engine.register_stream(loadgen.AUCTION_STREAM, load.structure)
        engine.feed_raw(loadgen.AUCTION_STREAM, load.catalog)
        scheduler = QueryScheduler(engine)
        queries = [
            ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
            for source in netbench.event_queries()
        ]
        for query in queries:
            scheduler.add(query)
        scheduler.poll(NOW)
        assert engine.stats()["incremental"]["bodies_lowered"] == 2
        envelopes = load.events(3072)
        emitted = 0
        for start in range(0, len(envelopes), 8):
            engine.feed_raw(loadgen.AUCTION_STREAM, envelopes[start:start + 8])
            emitted += sum(len(items) for items in scheduler.poll(NOW).values())
        stats = scheduler.stats()
        counters = stats["shared_residual"]
        assert counters["guards_run"] == 0
        assert 0 < counters["body_runs"] <= 2 * len(envelopes)
        assert counters["guards_skipped"] == counters["body_runs"] + counters["body_reuses"]
        assert 0 < emitted <= counters["guards_skipped"]  # equal answers emit once
        assert stats["automata"]["fallbacks"] == 0
        assert engine.automaton_host.stats()["buffered"] == 0
        sample = queries[21]
        fresh = engine.execute(sample.source, Strategy.QAC_PLUS, now=NOW)
        assert sorted(map(item_identity, sample.last_result)) == sorted(
            map(item_identity, fresh)
        )
