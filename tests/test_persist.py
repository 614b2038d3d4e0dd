"""Tests for store snapshots and broadcast journals."""

import pytest

from repro import (
    Channel, SimulatedClock, StreamClient, StreamServer, TagStructure, XCQLEngine,
)
from repro.dom import parse_document, serialize
from repro.fragments import temporalize
from repro.fragments.persist import Journal, load_store, save_store
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message

from tests.conftest import CREDIT_TAG_STRUCTURE_XML


class TestStoreSnapshot:
    def test_round_trip(self, credit_store, tmp_path):
        path = tmp_path / "credit.store.xml"
        written = save_store(credit_store, path)
        assert written == credit_store.filler_count
        loaded = load_store(path)
        assert loaded.filler_count == credit_store.filler_count
        assert serialize(temporalize(loaded)) == serialize(temporalize(credit_store))

    def test_tag_structure_preserved(self, credit_store, tmp_path):
        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        loaded = load_store(path)
        assert loaded.tag_structure is not None
        assert loaded.tag_structure.by_id(5).name == "transaction"

    def test_store_without_structure(self, credit_fillers, tmp_path):
        from repro import FragmentStore

        store = FragmentStore(tag_structure=None)
        store.extend(credit_fillers)
        path = tmp_path / "untyped.store.xml"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.tag_structure is None
        assert loaded.filler_count == store.filler_count

    def test_rejects_other_documents(self, tmp_path):
        path = tmp_path / "junk.xml"
        path.write_text("<other/>")
        with pytest.raises(ValueError):
            load_store(path)

    def test_index_flags_respected(self, credit_store, tmp_path):
        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        loaded = load_store(path, use_index=False, use_cache=False)
        assert loaded.use_index is False and loaded.use_cache is False


class TestEngineState:
    def test_round_trip(self, credit_engine, tmp_path):
        from repro import XCQLEngine

        from tests.conftest import NOW_2003_12_15

        saved = credit_engine.save_state(tmp_path / "state")
        assert saved == ["credit"]
        restored = XCQLEngine.load_state(tmp_path / "state", default_now=NOW_2003_12_15)
        query = 'for $a in stream("credit")//account order by $a/@id return $a/@id'
        assert [a.value for a in restored.execute(query)] == [
            a.value for a in credit_engine.execute(query, now=NOW_2003_12_15)
        ]

    def test_multiple_streams(self, credit_engine, credit_structure, tmp_path):
        from repro import FragmentStore, XCQLEngine

        credit_engine.register_stream("second", credit_structure, FragmentStore(credit_structure))
        saved = credit_engine.save_state(tmp_path / "state")
        assert saved == ["credit", "second"]
        restored = XCQLEngine.load_state(tmp_path / "state")
        assert set(restored.stores) == {"credit", "second"}

    def test_rejects_bad_directory(self, tmp_path):
        from repro import XCQLEngine

        with pytest.raises(FileNotFoundError):
            XCQLEngine.load_state(tmp_path / "nope")


class TestJournal:
    def test_record_and_read(self, tmp_path):
        journal = Journal(tmp_path / "stream.journal")
        journal.record(Message(FILLER, "s", "<filler id='1' tsid='1' validTime='2003-01-01T00:00:00'><a/></filler>"))
        journal.record(Message(FILLER, "s", "<filler id='2' tsid='1' validTime='2003-01-02T00:00:00'><b/></filler>"))
        messages = list(journal.read())
        assert [m.kind for m in messages] == [FILLER, FILLER]
        assert "<a/>" in messages[0].payload

    def test_read_missing_file_empty(self, tmp_path):
        journal = Journal(tmp_path / "nope.journal")
        assert list(journal.read()) == []

    def test_corrupt_record_rejected(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text("<notjournal/>\n")
        with pytest.raises(ValueError):
            list(Journal(path).read())

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text('<journal kind="weird" stream="s"><x/></journal>\n')
        with pytest.raises(ValueError):
            list(Journal(path).read())

    def test_late_joiner_bootstraps_from_journal(self, tmp_path):
        """A client that tunes in late replays the journal and catches up."""
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        clock = SimulatedClock("2003-10-01T00:00:00")
        channel = Channel()
        journal = Journal(tmp_path / "credit.journal")
        channel.subscribe(journal.record)

        early = StreamClient(clock)
        early.tune_in(channel)
        server = StreamServer("credit", structure, channel, clock)
        server.announce()
        server.publish_document(
            parse_document(
                "<creditAccounts><account id='1'><customer>X</customer>"
                "<creditLimit>100</creditLimit></account></creditAccounts>"
            )
        )

        late = StreamClient(clock)
        replayed = journal.replay(late._on_message)
        assert replayed == journal.records_written
        late.tune_in(channel)  # from now on it hears live traffic too

        clock.advance("P1D")
        account = server.hole_id(0, "account", "1")
        limit = server.hole_id(account, "creditLimit", "1")
        from repro.dom import Element

        newlimit = Element("creditLimit")
        newlimit.add_text("900")
        server.update_fragment(limit, newlimit)

        early_view = serialize(temporalize(early.store_of("credit")))
        late_view = serialize(temporalize(late.store_of("credit")))
        assert early_view == late_view
        assert "900" in late_view

    def test_replay_idempotent(self, tmp_path):
        structure = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        clock = SimulatedClock("2003-10-01T00:00:00")
        channel = Channel()
        journal = Journal(tmp_path / "credit.journal")
        channel.subscribe(journal.record)
        client = StreamClient(clock)
        client.tune_in(channel)
        server = StreamServer("credit", structure, channel, clock)
        server.announce()
        server.publish_document(
            parse_document(
                "<creditAccounts><account id='1'><customer>X</customer>"
                "<creditLimit>100</creditLimit></account></creditAccounts>"
            )
        )
        before = client.store_of("credit").filler_count
        journal.replay(client._on_message)  # duplicates: all dropped
        assert client.store_of("credit").filler_count == before


_UNIT_STRUCTURE_XML = (
    '<stream:structure><tag type="snapshot" id="1" name="log">'
    '<tag type="temporal" id="2" name="unit"/></tag></stream:structure>'
)


def _unit(fid: int, body: str, quote: str = '"') -> str:
    q = quote
    return (
        f"<filler id={q}{fid}{q} tsid={q}2{q} validTime={q}2003-01-0{fid}T00:00:00{q}>"
        f"<unit n={q}{fid}{q}>{body}</unit></filler>"
    )


class TestJournalByteExact:
    """Every reader gets back the bytes that were recorded, line breaks too."""

    PAYLOADS = [
        _unit(1, "line one\nline two"),
        _unit(2, "crlf\r\nend"),
        _unit(3, "lone\rcarriage"),
        _unit(4, "a \\n that is text,\nthen a break"),
        _unit(5, "a \\ and a \\n, no break"),
    ]

    def _journal(self, tmp_path) -> Journal:
        journal = Journal(tmp_path / "breaks.journal")
        journal.record(Message(TAG_STRUCTURE, "s", _UNIT_STRUCTURE_XML))
        journal.record_many(Message(FILLER, "s", p) for p in self.PAYLOADS)
        return journal

    def test_line_breaks_come_back_byte_exact(self, tmp_path):
        journal = self._journal(tmp_path)
        sent = [_UNIT_STRUCTURE_XML] + self.PAYLOADS
        assert [m.payload for _, m in journal.read_indexed()] == sent
        assert [m.payload for m in journal.read()] == sent
        replayed = []
        assert journal.replay(replayed.append) == 6
        assert [m.payload for m in replayed] == sent
        assert journal.last_seq == journal.records_written == 6
        assert [seq for seq, _ in journal.read_indexed(after=4)] == [5, 6]

    def test_only_records_with_line_breaks_are_escaped(self, tmp_path):
        journal = self._journal(tmp_path)
        lines = (tmp_path / "breaks.journal").read_bytes().split(b"\n")[:-1]
        assert len(lines) == 6
        assert [b'escaped="1"' in line for line in lines] == [
            False, True, True, True, True, False
        ]
        # A record with no line break is written verbatim, backslashes too.
        assert lines[5] == (
            b'<journal kind="filler" stream="s">'
            + self.PAYLOADS[4].encode() + b"</journal>"
        )

    def test_replayed_envelopes_read_as_duplicates_without_a_dom(self, tmp_path):
        """Single-quoted envelopes come back as sent: equal text, no parse."""
        engine = XCQLEngine()
        engine.register_stream("s", TagStructure.from_xml(_UNIT_STRUCTURE_XML))
        journal = Journal(tmp_path / "quoted.journal")
        sent = [_unit(fid, f"v{fid}", quote="'") for fid in range(1, 6)]
        assert engine.feed_raw("s", sent) == 5
        journal.record_many(Message(FILLER, "s", p) for p in sent)
        assert [m.payload for m in journal.read()] == sent
        journal.replay(lambda m: engine.feed_raw(m.stream, m.payload))
        store = engine.stores["s"]
        assert store.filler_count == 5
        assert store.materialized_fillers == 0


class TestJournalAppendHandle:
    """One held append handle, flushed per record: every reader that
    opens the file by path sees each record the moment its append
    returns, and a journal nobody closes still leaves a complete file."""

    @staticmethod
    def _message(i: int) -> Message:
        return Message(
            FILLER, "s", f"<filler id='{i}' tsid='1' validTime='2003-01-01T00:00:00'><a/></filler>"
        )

    def test_no_file_until_the_first_record(self, tmp_path):
        journal = Journal(tmp_path / "lazy.journal")
        assert journal.last_seq == 0
        assert not (tmp_path / "lazy.journal").exists()
        journal.close()  # closing a journal that never wrote is a no-op

    def test_every_record_is_readable_by_path_at_once(self, tmp_path):
        path = tmp_path / "live.journal"
        journal = Journal(path)
        for i in range(1, 6):
            journal.record(self._message(i))
            other = Journal(path)  # a reader of its own, e.g. a restarted server
            assert other.last_seq == i
            assert [seq for seq, _m in other.read_indexed()] == list(range(1, i + 1))
        assert journal.record_many([self._message(6), self._message(7)]) == 2
        assert journal.record_many([]) == 0
        assert Journal(path).last_seq == 7
        assert journal.records_written == 7
        # Never closed: the bytes are in the file all the same.
        assert path.read_text().count("</journal>\n") == 7

    def test_one_handle_for_many_records(self, tmp_path, monkeypatch):
        import builtins

        opened = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        journal = Journal(tmp_path / "held.journal")
        for i in range(50):
            journal.record(self._message(i))
        journal.record_many([self._message(i) for i in range(50, 60)])
        assert len(opened) == 1
        assert journal.last_seq == 60

    def test_close_is_idempotent_and_a_later_record_reopens(self, tmp_path):
        path = tmp_path / "reopen.journal"
        journal = Journal(path)
        journal.record(self._message(1))
        journal.close()
        journal.close()
        journal.record(self._message(2))
        assert [seq for seq, _m in Journal(path).read_indexed()] == [1, 2]
        journal.close()

    def test_two_writers_interleave_whole_records(self, tmp_path):
        """A coordinator restarted beside a stale handle: appends never tear."""
        path = tmp_path / "shared.journal"
        first, second = Journal(path), Journal(path)
        for i in range(10):
            (first if i % 2 else second).record(self._message(i))
        ids = [m.payload.split("'")[1] for _seq, m in Journal(path).read_indexed()]
        assert ids == [str(i) for i in range(10)]
