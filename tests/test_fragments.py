"""Tests for filler model, fragmenter, store and reconstruction."""

import gc

import pytest

from repro import XCQLEngine
from repro.core.translator import Strategy
from repro.dom import Element, parse_document, serialize
from repro.dom.nodes import Node, sort_document_order
from repro.fragments import (
    Filler,
    Fragmenter,
    FragmentStore,
    TagStructure,
    make_hole,
    parse_filler,
    temporalize,
    schema_driven_temporalize,
)
from repro.fragments.assemble import generate_reconstruction_query
from repro.fragments.fragmenter import FragmentationError
from repro.fragments.model import LazyFiller
from repro.temporal import XSDateTime
from repro.xmark import AUCTION_STREAM, generate_auction_document
from repro.xmark.queries import Q1, Q2, Q5, Q8
from tests.conftest import CREDIT_TAG_STRUCTURE_XML

T0 = XSDateTime.parse("1998-01-01T00:00:00")


class TestFillerModel:
    def test_envelope_round_trip(self):
        payload = Element("status")
        payload.add_text("charged")
        filler = Filler(200, 7, XSDateTime.parse("2003-10-23T12:23:35"), payload)
        text = filler.to_xml()
        assert 'id="200"' in text and 'tsid="7"' in text
        again = parse_filler(text)
        assert again.filler_id == 200
        assert again.tsid == 7
        assert again.valid_time == filler.valid_time
        assert serialize(again.content) == serialize(payload)

    def test_paper_filler_1(self):
        # The exact filler 1 of §4.2 parses.
        filler = parse_filler(
            '<filler id="100" tsid="5" validTime="2003-10-23T12:23:34">'
            '<transaction id="12345"><vendor> Southlake Pizza </vendor>'
            "<amount> $38.20 </amount>"
            '<hole id="200" tsid="7"/></transaction></filler>'
        )
        assert filler.hole_ids() == [200]
        assert filler.content.tag == "transaction"

    def test_holes_finds_nested(self):
        content = Element("a")
        inner = Element("b")
        inner.append(make_hole(9, 3))
        content.append(inner)
        content.append(make_hole(7, 2))
        filler = Filler(1, 1, T0, content)
        assert sorted(filler.hole_ids()) == [7, 9]

    def test_wire_size_positive(self):
        filler = Filler(1, 1, T0, Element("x"))
        assert filler.wire_size == len(filler.to_xml())

    def test_wire_text_payload_is_detached_not_copied(self):
        text = (
            '<filler id="100" tsid="5" validTime="2003-10-23T12:23:34">'
            '<transaction id="12345"><vendor>Southlake Pizza</vendor>'
            '<amount>$38.20</amount><hole id="200" tsid="7"/></transaction>'
            "</filler>"
        )
        lazy = LazyFiller(100, 5, XSDateTime.parse("2003-10-23T12:23:34"), text)
        content = lazy.content
        # A root of its own: nothing keeps the parsed <filler> shell alive.
        assert content.parent is None and content.root() is content
        walked = list(content.iter())
        assert sort_document_order(reversed(walked)) == walked
        assert [n.tag for n in walked if isinstance(n, Element)] == [
            "transaction", "vendor", "amount", "hole",
        ]
        assert lazy.to_xml() == text
        assert parse_filler(lazy.to_xml()).to_xml() == text

    def test_element_source_leaves_the_callers_tree_intact(self):
        envelope = parse_document(
            '<filler id="1" tsid="2" validTime="2003-01-01T00:00:00">'
            "<a><b>x</b></a></filler>"
        ).document_element
        before = serialize(envelope)
        filler = parse_filler(envelope)
        assert serialize(envelope) == before
        payload = envelope.child_elements()[0]
        assert payload.parent is envelope
        assert filler.content is not payload
        assert serialize(filler.content) == serialize(payload)

    @pytest.mark.parametrize(
        "bad",
        [
            "<notfiller/>",
            '<filler id="1" tsid="1" validTime="2003-01-01"/>',
            '<filler id="1" validTime="2003-01-01"><a/></filler>',
            '<filler id="1" tsid="1" validTime="2003-01-01"><a/><b/></filler>',
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_filler(bad)


class TestFragmenterSnapshot:
    def test_root_is_filler_zero(self, credit_structure):
        document = parse_document(
            "<creditAccounts><account id='1'><customer>X</customer>"
            "<creditLimit>100</creditLimit></account></creditAccounts>"
        )
        fillers = Fragmenter(credit_structure).fragment(document, T0)
        assert fillers[0].filler_id == 0
        assert fillers[0].content.tag == "creditAccounts"

    def test_fragments_at_declared_boundaries(self, credit_structure):
        document = parse_document(
            "<creditAccounts><account id='1'><customer>X</customer>"
            "<creditLimit>100</creditLimit></account></creditAccounts>"
        )
        fillers = Fragmenter(credit_structure).fragment(document, T0)
        tags = sorted(f.content.tag for f in fillers)
        assert tags == ["account", "creditAccounts", "creditLimit"]
        root = fillers[0].content
        assert [c.tag for c in root.child_elements()] == ["hole"]

    def test_snapshot_children_stay_embedded(self, credit_structure):
        document = parse_document(
            "<creditAccounts><account id='1'><customer>X</customer>"
            "</account></creditAccounts>"
        )
        fillers = Fragmenter(credit_structure).fragment(document, T0)
        account = next(f for f in fillers if f.content.tag == "account")
        assert account.content.first("customer") is not None

    def test_undeclared_tag_rejected_when_strict(self, credit_structure):
        document = parse_document(
            "<creditAccounts><bogus/></creditAccounts>"
        )
        with pytest.raises(FragmentationError):
            Fragmenter(credit_structure).fragment(document, T0)

    def test_undeclared_tag_kept_when_lenient(self, credit_structure):
        document = parse_document("<creditAccounts><bogus/></creditAccounts>")
        fillers = Fragmenter(credit_structure, strict=False).fragment(document, T0)
        assert fillers[0].content.first("bogus") is not None

    def test_wrong_root_rejected(self, credit_structure):
        with pytest.raises(FragmentationError):
            Fragmenter(credit_structure).fragment(parse_document("<zzz/>"), T0)

    def test_hole_registry(self, credit_structure):
        document = parse_document(
            "<creditAccounts><account id='77'><customer>X</customer>"
            "<creditLimit>1</creditLimit></account></creditAccounts>"
        )
        fragmenter = Fragmenter(credit_structure)
        fragmenter.fragment(document, T0)
        account_hole = fragmenter.hole_registry[(0, "account", "77")]
        assert (account_hole, "creditLimit", "77") in fragmenter.hole_registry

    def test_shared_event_holes(self, credit_structure):
        document = parse_document(
            "<creditAccounts><account id='1'>"
            "<transaction id='a'><vendor>v</vendor><amount>1</amount></transaction>"
            "<transaction id='b'><vendor>v</vendor><amount>2</amount></transaction>"
            "</account></creditAccounts>"
        )
        fragmenter = Fragmenter(credit_structure, shared_event_holes=True)
        fillers = fragmenter.fragment(document, T0)
        transactions = [f for f in fillers if f.content.tag == "transaction"]
        assert len(transactions) == 2
        assert transactions[0].filler_id == transactions[1].filler_id
        account = next(f for f in fillers if f.content.tag == "account")
        assert len(account.holes()) == 1

    def test_distinct_event_holes_by_default(self, credit_structure):
        document = parse_document(
            "<creditAccounts><account id='1'>"
            "<transaction id='a'><vendor>v</vendor><amount>1</amount></transaction>"
            "<transaction id='b'><vendor>v</vendor><amount>2</amount></transaction>"
            "</account></creditAccounts>"
        )
        fillers = Fragmenter(credit_structure).fragment(document, T0)
        transactions = [f for f in fillers if f.content.tag == "transaction"]
        assert transactions[0].filler_id != transactions[1].filler_id


class TestFragmenterTemporalView:
    def test_versions_share_filler_id(self, credit_structure, credit_view):
        fillers = Fragmenter(credit_structure).fragment_temporal_view(credit_view, T0)
        limits = [f for f in fillers if f.content.tag == "creditLimit"]
        smith_limits = [f for f in limits if f.content.text().strip() in ("2000", "5000")]
        assert smith_limits[0].filler_id == smith_limits[1].filler_id

    def test_version_times_from_vtfrom(self, credit_structure, credit_view):
        fillers = Fragmenter(credit_structure).fragment_temporal_view(credit_view, T0)
        second_limit = next(
            f for f in fillers if f.content.tag == "creditLimit" and "5000" in f.content.text()
        )
        assert str(second_limit.valid_time) == "2001-04-23T23:11:08"

    def test_lifespan_attrs_stripped_from_payload(self, credit_structure, credit_view):
        fillers = Fragmenter(credit_structure).fragment_temporal_view(credit_view, T0)
        for filler in fillers:
            assert "vtFrom" not in filler.content.attrs
            assert "vtTo" not in filler.content.attrs


class TestStore:
    def test_append_and_lookup(self, credit_store):
        assert credit_store.filler_count == 13
        assert credit_store.fragment_count >= 9

    def test_duplicate_dropped(self, credit_structure, credit_fillers):
        store = FragmentStore(credit_structure)
        store.extend(credit_fillers)
        before = store.filler_count
        assert store.append(credit_fillers[3]) is False
        assert store.filler_count == before

    def test_distinct_content_same_time_kept(self, credit_structure):
        store = FragmentStore(credit_structure)
        a = Element("transaction")
        a.add_text("one")
        b = Element("transaction")
        b.add_text("two")
        assert store.append(Filler(5, 5, T0, a))
        assert store.append(Filler(5, 5, T0, b))
        assert len(store.fillers_of(5)) == 2

    def test_versions_sorted_by_time(self, credit_structure):
        store = FragmentStore(credit_structure)
        late = Element("creditLimit")
        late.add_text("200")
        early = Element("creditLimit")
        early.add_text("100")
        store.append(Filler(4, 4, XSDateTime.parse("2003-02-01T00:00:00"), late))
        store.append(Filler(4, 4, XSDateTime.parse("2003-01-01T00:00:00"), early))
        versions = store.versions_of(4)
        assert [v.text() for v in versions] == ["100", "200"]

    def test_temporal_annotation_chain(self, credit_structure):
        store = FragmentStore(credit_structure)
        for month, value in ((1, "100"), (2, "200")):
            limit = Element("creditLimit")
            limit.add_text(value)
            store.append(Filler(4, 4, XSDateTime(2003, month, 1), limit))
        first, second = store.versions_of(4)
        assert first.attrs["vtFrom"] == "2003-01-01T00:00:00"
        assert first.attrs["vtTo"] == "2003-02-01T00:00:00"
        assert second.attrs["vtTo"] == "now"

    def test_event_annotation_is_point(self, credit_structure):
        store = FragmentStore(credit_structure)
        txn = Element("transaction")
        store.append(Filler(9, 5, XSDateTime.parse("2003-03-03T03:03:03"), txn))
        version = store.versions_of(9)[0]
        assert version.attrs["vtFrom"] == version.attrs["vtTo"] == "2003-03-03T03:03:03"

    def test_snapshot_root_not_annotated(self, credit_store):
        root = credit_store.versions_of(0)[0]
        assert "vtFrom" not in root.attrs

    def test_get_fillers_wrapper(self, credit_store):
        wrapper = credit_store.get_fillers(0)
        assert wrapper.tag == "filler"
        assert wrapper.attrs["id"] == "0"
        assert wrapper.children[0].tag == "creditAccounts"

    def test_get_fillers_unknown_id_empty(self, credit_store):
        assert credit_store.get_fillers(999).children == []

    def test_index_and_scan_agree(self, credit_structure, credit_fillers):
        indexed = FragmentStore(credit_structure, use_index=True)
        scanned = FragmentStore(credit_structure, use_index=False)
        indexed.extend(credit_fillers)
        scanned.extend(credit_fillers)
        for filler_id in {f.filler_id for f in credit_fillers}:
            assert [serialize(v) for v in indexed.versions_of(filler_id)] == [
                serialize(v) for v in scanned.versions_of(filler_id)
            ]
        for tsid in (2, 4, 5, 7):
            assert sorted(
                serialize(w) for w in indexed.get_fillers_by_tsid(tsid)
            ) == sorted(serialize(w) for w in scanned.get_fillers_by_tsid(tsid))

    def test_cache_invalidated_on_new_version(self, credit_structure):
        store = FragmentStore(credit_structure, use_cache=True)
        limit = Element("creditLimit")
        limit.add_text("1")
        store.append(Filler(4, 4, XSDateTime(2003, 1, 1), limit))
        assert len(store.versions_of(4)) == 1
        limit2 = Element("creditLimit")
        limit2.add_text("2")
        store.append(Filler(4, 4, XSDateTime(2003, 2, 1), limit2))
        assert len(store.versions_of(4)) == 2

    def test_as_document(self, credit_store):
        document = credit_store.as_document()
        assert document.document_element.tag == "fragments"
        assert len(document.document_element.children) == credit_store.filler_count

    def test_stats(self, credit_store):
        assert credit_store.wire_size > 0
        assert len(credit_store) == credit_store.filler_count

    def test_clear(self, credit_store):
        credit_store.clear()
        assert credit_store.filler_count == 0
        assert credit_store.versions_of(0) == []
        assert credit_store.version_count(0) == 0
        assert credit_store.filler_ids_of_tsid(5) == []

    def test_tsid_ids_keep_first_arrival_order(self, credit_structure):
        store = FragmentStore(credit_structure)
        for filler_id, day in ((30, 3), (10, 1), (30, 4), (20, 2), (10, 5)):
            store.append(Filler(filler_id, 5, XSDateTime(2003, 1, day), Element("transaction")))
        assert store.filler_ids_of_tsid(5) == [30, 10, 20]
        scanned = FragmentStore(credit_structure, use_index=False)
        scanned.extend(store.fillers_of(i)[n] for i, n in ((30, 0), (10, 0), (30, 1), (20, 0)))
        assert scanned.filler_ids_of_tsid(5) == [30, 10, 20]
        # clear() forgets membership too: a re-arriving id is filed again.
        store.clear()
        store.append(Filler(20, 5, T0, Element("transaction")))
        store.append(Filler(30, 5, T0, Element("transaction")))
        assert store.filler_ids_of_tsid(5) == [20, 30]

    def test_version_count_matches_fillers_of(self, credit_structure, credit_fillers):
        for use_index in (True, False):
            store = FragmentStore(credit_structure, use_index=use_index)
            store.extend(credit_fillers)
            for filler_id in {f.filler_id for f in credit_fillers} | {999}:
                assert store.version_count(filler_id) == len(store.fillers_of(filler_id))

    def test_version_count_survives_a_schema_swap(self, credit_structure):
        store = FragmentStore(credit_structure)
        for month in (1, 2):
            limit = Element("creditLimit")
            limit.add_text(str(month))
            store.append(Filler(4, 4, XSDateTime(2003, month, 1), limit))
        epoch = store.mutation_epoch
        store.set_tag_structure(TagStructure.from_xml(credit_structure.to_xml()))
        assert store.mutation_epoch == epoch + 1
        assert store.version_count(4) == 2
        assert store.filler_ids_of_tsid(4) == [4]

    def test_complete_store_has_no_dangling_holes(self, credit_store):
        assert credit_store.is_complete()
        assert credit_store.dangling_holes() == []

    def test_dangling_holes_detected(self, credit_structure, credit_fillers):
        store = FragmentStore(credit_structure)
        # Drop every status filler: the transactions' status holes dangle.
        store.extend(f for f in credit_fillers if f.content.tag != "status")
        assert not store.is_complete()
        dangling = store.dangling_holes()
        assert dangling  # at least the three status holes
        assert all(tsid == 7 for _hole, tsid in dangling)

    def test_dangling_holes_heal_on_arrival(self, credit_structure, credit_fillers):
        store = FragmentStore(credit_structure)
        statuses = [f for f in credit_fillers if f.content.tag == "status"]
        store.extend(f for f in credit_fillers if f.content.tag != "status")
        missing_before = len(store.dangling_holes())
        store.extend(statuses)
        assert store.is_complete()
        assert missing_before > 0


def _limit(value: str) -> Element:
    return Element("creditLimit").add_text(value)


def _limit_store(structure, **options) -> FragmentStore:
    store = FragmentStore(structure, **options)
    store.append(Filler(4, 4, XSDateTime(2003, 1, 1), _limit("100")))
    store.append(Filler(4, 4, XSDateTime(2003, 2, 1), _limit("200")))
    return store


class TestOneDomPerVersion:
    """The cached wrapper's children *are* the versions; nothing is patched."""

    def test_versions_are_the_wrapper_children(self, credit_structure):
        store = _limit_store(credit_structure)
        wrapper = store.get_fillers(4)
        versions = store.versions_of(4)
        assert len(versions) == 2
        assert all(v is c for v, c in zip(versions, wrapper.children))
        assert store.get_fillers(4) is wrapper
        assert store.cached_versions == 2

    def test_scan_mode_builds_fresh_unshared_trees(self, credit_structure):
        store = _limit_store(credit_structure, use_cache=False)
        first, second = store.versions_of(4), store.versions_of(4)
        assert [serialize(v) for v in first] == [serialize(v) for v in second]
        assert all(a is not b for a, b in zip(first, second))
        assert all(v.parent is None for v in first)
        wrapper = store.get_fillers(4)
        assert store.get_fillers(4) is not wrapper
        assert all(c is not v for c in wrapper.children for v in first + second)
        assert store.cached_versions == 0

    def test_wrapper_from_before_a_write_is_the_live_view(self, credit_structure):
        store = _limit_store(credit_structure)
        before = store.get_fillers(4)
        held = list(before.children)
        below = [version.children[0] for version in held]
        text = serialize(before)
        store.append(Filler(4, 4, XSDateTime(2003, 3, 1), _limit("300")))
        assert serialize(before) == text  # a write parses and patches nothing
        assert before.children[-1].attrs["vtTo"] == "now"
        after = store.get_fillers(4)
        assert after is before  # the read re-versions the wrapper in place
        assert [c.attrs["vtTo"] for c in after.children] == [
            "2003-02-01T00:00:00", "2003-03-01T00:00:00", "now"
        ]
        assert after.children[:2] == held
        assert [version.children[0] for version in held] == below  # never patched
        reference = _limit_store(credit_structure, use_cache=False)
        reference.append(Filler(4, 4, XSDateTime(2003, 3, 1), _limit("300")))
        assert serialize(after) == serialize(reference.get_fillers(4))

    def test_schema_swap_prune_and_clear_drop_the_cache(self, credit_structure):
        store = _limit_store(credit_structure)
        wrapper = store.get_fillers(4)
        store.set_tag_structure(TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML))
        assert store.cached_versions == 0
        swapped = store.get_fillers(4)
        assert swapped is not wrapper
        assert store.prune_before(XSDateTime(2003, 2, 15)) == 1
        assert store.cached_versions == 0
        pruned = store.get_fillers(4)
        assert pruned is not swapped and len(pruned.children) == 1
        assert len(swapped.children) == 2  # the retained snapshot is untouched
        store.clear()
        assert store.cached_versions == 0
        assert store.get_fillers(4).children == []

    def test_adopted_wrapper_is_rebuilt_not_served(self, credit_structure):
        store = _limit_store(credit_structure)
        adopted = store.get_fillers(4)
        Element("result").append(adopted)
        rebuilt = store.get_fillers(4)
        assert rebuilt is not adopted and rebuilt.parent is None
        assert serialize(rebuilt) == serialize(adopted)
        assert all(v is c for v, c in zip(store.versions_of(4), rebuilt.children))
        assert all(r is not a for r, a in zip(rebuilt.children, adopted.children))

    def test_snapshot_tsid_exposes_only_the_latest_version(self, credit_structure):
        store = FragmentStore(credit_structure)
        for year in (2001, 2002):
            root = Element("creditAccounts", {"rev": str(year)})
            store.append(Filler(0, 1, XSDateTime(year, 1, 1), root))
        (version,) = store.versions_of(0)
        assert version.attrs == {"rev": "2002"}
        assert store.get_fillers(0).children == [version]
        assert store.cached_versions == 1

    def test_eager_content_is_never_reparented_or_mutated(self, credit_structure):
        content = _limit("100")
        holder = Element("holder")
        holder.append(content)
        text = serialize(holder)
        store = FragmentStore(credit_structure)
        store.append(Filler(4, 4, XSDateTime(2003, 1, 1), content))
        (version,) = store.versions_of(4)
        assert version is not content and version.attrs["vtTo"] == "now"
        assert content.parent is holder and content.attrs == {}
        assert serialize(holder) == text
        assert store.materialized_fillers == 1  # an eager filler pins its DOM


AUCTION_NOW = XSDateTime.parse("2003-06-01T00:00:00")


@pytest.fixture(scope="module")
def auction_wire(auction_structure):
    """The tiny XMark document as wire text, and the DOM nodes it describes."""
    fillers = Fragmenter(auction_structure).fragment(
        generate_auction_document(0.0), XSDateTime.parse("2003-01-01T00:00:00")
    )
    nodes = sum(sum(1 for _ in filler.content.iter()) for filler in fillers)
    return [filler.to_xml() for filler in fillers], nodes


def _raw_fed_engine(auction_structure, payloads):
    engine = XCQLEngine(default_now=AUCTION_NOW)
    engine.register_stream(AUCTION_STREAM, auction_structure)
    assert engine.feed_raw(AUCTION_STREAM, payloads) == len(payloads)
    return engine, engine.stores[AUCTION_STREAM]


class TestRawFedStore:
    """A raw-fed store keeps wire text plus one DOM per version it was asked for."""

    def test_adhoc_queries_leave_every_filler_as_text(
        self, auction_structure, auction_wire
    ):
        engine, store = _raw_fed_engine(auction_structure, auction_wire[0])
        interval = (
            'stream("auction")//open_auction'
            "?[2003-01-01T00:00:00, 2003-03-01T00:00:00]"
        )
        for strategy in (Strategy.QAC_PLUS, Strategy.QAC, Strategy.CAQ):
            for source in (Q1, Q2, Q5, interval):
                engine.execute(source, strategy)
        engine.execute(Q8, Strategy.QAC_PLUS)
        stats = engine.stats()["streams"][AUCTION_STREAM]
        assert stats["materialized_fillers"] == store.materialized_fillers == 0
        assert 0 < stats["cached_versions"] <= stats["fillers"]
        assert not any(f.materialized for f in store.fillers_since(0))
        for filler in store.fillers_since(0):
            fid = filler.filler_id
            versions, wrapper = store.versions_of(fid), store.get_fillers(fid)
            assert all(v is c for v, c in zip(versions, wrapper.children))
        assert store.cached_versions == store.filler_count

    def test_cold_queries_hold_one_dom_per_version(
        self, auction_structure, auction_wire
    ):
        """The headline as a count: live nodes ≈ the nodes the wire text describes."""
        payloads, described = auction_wire

        def live_nodes() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if isinstance(obj, Node))

        baseline = live_nodes()
        engine, store = _raw_fed_engine(auction_structure, payloads)
        assert live_nodes() == baseline  # ingest alone builds no tree
        for strategy in (Strategy.QAC_PLUS, Strategy.QAC, Strategy.CAQ):
            assert len(engine.execute('stream("auction")//open_auction', strategy)) == 12
        assert store.cached_versions == store.filler_count  # all of it was read
        # One element per <filler> wrapper on top of the described nodes.
        assert described <= live_nodes() - baseline <= 1.15 * described

    def test_repeated_envelopes_build_no_dom(self, auction_structure, auction_wire):
        payloads = auction_wire[0]
        engine, store = _raw_fed_engine(auction_structure, payloads)
        seq = store.seq
        assert engine.feed_raw(AUCTION_STREAM, payloads) == 0
        assert (store.filler_count, store.seq) == (len(payloads), seq)
        assert store.materialized_fillers == 0

    def test_wire_size_reads_the_retained_text(self, auction_structure, auction_wire):
        payloads = auction_wire[0]
        engine, store = _raw_fed_engine(auction_structure, payloads)
        assert store.wire_size == sum(len(p.encode("utf-8")) for p in payloads)
        assert store.materialized_fillers == 0

    def test_requoted_or_respaced_repeat_is_still_a_duplicate(
        self, auction_structure, auction_wire
    ):
        payloads = auction_wire[0]
        engine, store = _raw_fed_engine(auction_structure, payloads)
        variants = []
        for raw in payloads:
            head, rest = raw.split(">", 1)
            variants.append(head.replace('"', "'") + " >\n  " + rest)
        assert variants != payloads
        assert engine.feed_raw(AUCTION_STREAM, variants) == 0
        assert store.filler_count == len(payloads)

    def test_same_instant_different_payload_is_kept(self, credit_structure):
        engine = XCQLEngine()
        engine.register_stream("credit", credit_structure)
        envelope = '<filler id="9" tsid="5" validTime="2003-03-03T03:03:03">%s</filler>'
        first = envelope % "<transaction><amount>1</amount></transaction>"
        second = envelope % "<transaction><amount>2</amount></transaction>"
        assert engine.feed_raw("credit", [first, second, first, second]) == 2
        assert engine.stores["credit"].version_count(9) == 2

    @pytest.mark.parametrize("chunk_size", [0, -8])
    def test_non_positive_chunk_size_is_refused_up_front(self, credit_structure, chunk_size):
        engine = XCQLEngine()
        engine.register_stream("credit", credit_structure)
        valid = (
            '<filler id="9" tsid="5" validTime="2003-03-03T03:03:03">'
            "<transaction><amount>1</amount></transaction></filler>"
        )
        with pytest.raises(ValueError, match="chunk_size must be at least 1"):
            engine.feed_raw("credit", [valid], chunk_size=chunk_size)
        assert engine.stores["credit"].filler_count == 0
        assert engine.feed_raw("credit", [valid], chunk_size=1) == 1


class TestReconstruction:
    def test_round_trip_equals_view(self, credit_structure, credit_view, credit_store):
        rebuilt = temporalize(credit_store)
        assert serialize(rebuilt) == serialize(credit_view)

    def test_schema_driven_matches_generic(self, credit_structure, credit_store):
        generic = temporalize(credit_store)
        driven = schema_driven_temporalize(credit_store, credit_structure)
        assert serialize(driven) == serialize(generic)

    def test_generated_query_mentions_structure(self, credit_structure):
        text = generate_reconstruction_query(credit_structure)
        assert "temporalizeCreditAccounts" in text
        assert "get_fillers_list" in text
        assert "creditLimit" in text and "transaction" in text

    def test_missing_fillers_leave_gap(self, credit_structure, credit_fillers):
        store = FragmentStore(credit_structure)
        # Drop all status fillers: reconstruction simply lacks them.
        store.extend(f for f in credit_fillers if f.content.tag != "status")
        rebuilt = temporalize(store)
        assert "status" not in serialize(rebuilt)
        assert "transaction" in serialize(rebuilt)
