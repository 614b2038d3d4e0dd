"""Tests for store retention (prune_before)."""

import pytest

from repro import FragmentStore, Strategy, TagStructure, XCQLEngine
from repro.dom import Element, serialize
from repro.fragments.model import Filler
from repro.temporal import XSDateTime

from tests.conftest import CREDIT_TAG_STRUCTURE_XML, NOW_2003_12_15


def limit(value: str) -> Element:
    element = Element("creditLimit")
    element.add_text(value)
    return element


def txn(txn_id: str) -> Element:
    element = Element("transaction", {"id": txn_id})
    amount = Element("amount")
    amount.add_text("10")
    element.append(amount)
    return element


@pytest.fixture()
def versioned_store():
    structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
    store = FragmentStore(structure)
    # Four limit versions, quarterly.
    for month, value in ((1, "100"), (4, "200"), (7, "300"), (10, "400")):
        store.append(Filler(4, 4, XSDateTime(2003, month, 1), limit(value)))
    # Three transaction events across the year (distinct ids).
    for index, month in enumerate((2, 6, 11)):
        store.append(Filler(100 + index, 5, XSDateTime(2003, month, 15), txn(str(index))))
    return store


class TestPruneTemporal:
    def test_keeps_version_current_at_horizon(self, versioned_store):
        dropped = versioned_store.prune_before(XSDateTime(2003, 8, 1))
        # Versions 100 and 200 are fully superseded by Aug 1; version 300
        # (current at the horizon) and 400 survive.
        assert dropped >= 2
        values = [v.text() for v in versioned_store.versions_of(4)]
        assert values == ["300", "400"]

    def test_current_state_unchanged(self, versioned_store):
        before = [serialize(v) for v in versioned_store.versions_of(4)][-1]
        versioned_store.prune_before(XSDateTime(2003, 8, 1))
        after = [serialize(v) for v in versioned_store.versions_of(4)][-1]
        assert after == before

    def test_boundary_version_survives(self, versioned_store):
        # Horizon exactly at a version change: the *new* version is current.
        versioned_store.prune_before(XSDateTime(2003, 4, 1))
        values = [v.text() for v in versioned_store.versions_of(4)]
        assert values == ["200", "300", "400"]

    def test_lifespans_rederived_after_prune(self, versioned_store):
        versioned_store.prune_before(XSDateTime(2003, 8, 1))
        first = versioned_store.versions_of(4)[0]
        assert first.attrs["vtFrom"] == "2003-07-01T00:00:00"
        assert first.attrs["vtTo"] == "2003-10-01T00:00:00"


    def test_version_count_and_tsid_ids_follow_the_prune(self, versioned_store):
        assert versioned_store.version_count(4) == 4
        versioned_store.prune_before(XSDateTime(2003, 8, 1))
        assert versioned_store.version_count(4) == 2
        # The two events before the horizon are gone, ids included; a
        # later arrival of a dropped id is filed afresh, after the survivor.
        assert versioned_store.version_count(100) == 0
        assert versioned_store.filler_ids_of_tsid(5) == [102]
        versioned_store.append(Filler(100, 5, XSDateTime(2003, 12, 1), txn("again")))
        assert versioned_store.filler_ids_of_tsid(5) == [102, 100]


class TestPruneEvents:
    def test_old_events_dropped(self, versioned_store):
        versioned_store.prune_before(XSDateTime(2003, 7, 1))
        remaining = [
            fid for fid in (100, 101, 102) if versioned_store.versions_of(fid)
        ]
        assert remaining == [102]

    def test_event_at_horizon_kept(self, versioned_store):
        versioned_store.prune_before(XSDateTime(2003, 6, 15))
        assert versioned_store.versions_of(101) != []


class TestPruneIntegration:
    def test_window_queries_unchanged_after_prune(self):
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        horizon = XSDateTime(2003, 11, 1)

        def build() -> XCQLEngine:
            engine = XCQLEngine(default_now=NOW_2003_12_15)
            store = FragmentStore(structure)
            engine.register_stream("credit", structure, store)
            root = Element("creditAccounts")
            root.append(Element("hole", {"id": "1", "tsid": "2"}))
            account = Element("account", {"id": "9"})
            account.append(Element("hole", {"id": "4", "tsid": "4"}))
            account.append(Element("hole", {"id": "100", "tsid": "5"}))
            account.append(Element("hole", {"id": "101", "tsid": "5"}))
            store.append(Filler(0, 1, XSDateTime(2003, 1, 1), root))
            store.append(Filler(1, 2, XSDateTime(2003, 1, 1), account))
            for month, value in ((1, "100"), (6, "500")):
                store.append(Filler(4, 4, XSDateTime(2003, month, 1), limit(value)))
            store.append(Filler(100, 5, XSDateTime(2003, 5, 15), txn("old")))
            store.append(Filler(101, 5, XSDateTime(2003, 11, 15), txn("new")))
            return engine

        query = (
            'for $a in stream("credit")//account return '
            "(count($a/transaction?[2003-11-01, now]), $a/creditLimit?[now])"
        )
        fresh = build()
        expected = fresh.execute(query)
        pruned_engine = build()
        dropped = pruned_engine.stores["credit"].prune_before(horizon)
        assert dropped == 2  # the superseded limit and the May event
        actual = pruned_engine.execute(query)
        assert [serialize(x) if hasattr(x, "string_value") else x for x in actual] == [
            serialize(x) if hasattr(x, "string_value") else x for x in expected
        ]

    def test_stats_consistent_after_prune(self, versioned_store):
        total = versioned_store.filler_count
        dropped = versioned_store.prune_before(XSDateTime(2003, 8, 1))
        assert versioned_store.filler_count == total - dropped
        assert len(versioned_store) == versioned_store.filler_count

    def test_prune_idempotent(self, versioned_store):
        horizon = XSDateTime(2003, 8, 1)
        versioned_store.prune_before(horizon)
        assert versioned_store.prune_before(horizon) == 0

    def test_repruned_fragment_reingestable(self, versioned_store):
        """After pruning, a *newer* version can still arrive normally."""
        versioned_store.prune_before(XSDateTime(2003, 8, 1))
        assert versioned_store.append(
            Filler(4, 4, XSDateTime(2003, 12, 1), limit("999"))
        )
        assert [v.text() for v in versioned_store.versions_of(4)] == [
            "300",
            "400",
            "999",
        ]
