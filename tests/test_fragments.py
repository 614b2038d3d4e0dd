"""Tests for filler model, fragmenter, store and reconstruction."""

import pytest

from repro.dom import Element, parse_document, serialize
from repro.dom.nodes import sort_document_order
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
        assert credit_store.latest_time() is not None
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
