"""Seeded load: the XMark catalog, event/bid/sale envelopes, ledger txns.

Everything here is a pure function of ``seed`` — one seed drives both
:class:`~repro.xmark.generator.XMarkGenerator` and the traffic rng — so
two runs with the same seed hand the system byte-identical envelope
lists.  The system under test only ever sees the generated wire text.

Live ``closed_auction`` events carry *fresh* filler ids (the paper's
printed form, one id per event): ids are what the sharded coordinator
partitions on, so a shared event hole would home every event on one
shard.  The containing fragment (the ``site`` root) is republished once,
before the events, with a hole for each of them — the paper's "insertion
updates the containing fragment", batched — so the events are reachable
from the root and CaQ sees the same history as QaC+.
"""

from __future__ import annotations

import random
import time
from datetime import datetime, timedelta

from repro.dom.nodes import Element, Text
from repro.dom.serializer import serialize
from repro.fragments.fragmenter import Fragmenter
from repro.fragments.model import Filler, make_hole
from repro.temporal.chrono import XSDateTime
from repro.xmark.generator import XMarkGenerator
from repro.xmark.schema import AUCTION_STREAM, auction_tag_structure

__all__ = ["AuctionLoad", "LedgerLoad", "AUCTION_STREAM", "LEDGER_STREAM", "XMARK_SCALE"]

XMARK_SCALE = 0.01
LEDGER_STREAM = "ledger"

_CATALOG_TIME = XSDateTime(2003, 1, 1)
_ROOT_UPDATE_TIME = XSDateTime(2003, 5, 31)
_TRAFFIC_START = datetime(2003, 6, 1)

LEDGER_STRUCTURE_XML = (
    '<stream:structure><tag type="snapshot" id="1" name="ledger">'
    '<tag type="event" id="2" name="txn">'
    '<tag type="snapshot" id="3" name="amount"/>'
    '<tag type="snapshot" id="4" name="vendor"/>'
    "</tag></tag></stream:structure>"
)
LEDGER_TXN_TSID = 2
LEDGER_AMOUNT_RANGE = 1000


def _stamp(seconds: int) -> str:
    return (_TRAFFIC_START + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%S")


def _text_el(tag: str, text: str) -> Element:
    element = Element(tag)
    element.append(Text(text))
    return element


class AuctionLoad:
    """The XMark auction site at scale 0.01 plus seeded live traffic."""

    def __init__(self, seed: int):
        self.seed = seed
        self.structure = auction_tag_structure()
        self.structure_xml = serialize(self.structure.to_xml())
        self._generator = XMarkGenerator(XMARK_SCALE, seed=seed)
        self._traffic = random.Random(f"traffic-{seed}")
        started = time.perf_counter()
        document = self._generator.document()
        self.generate_s = time.perf_counter() - started
        started = time.perf_counter()
        self._fragmenter = Fragmenter(self.structure)
        fillers = self._fragmenter.fragment(document, _CATALOG_TIME)
        self.fragment_s = time.perf_counter() - started
        tsids = {tag.name: tag.tsid for tag in self.structure.all_tags()}
        self.closed_tsid = tsids["closed_auction"]
        self.open_tsid = tsids["open_auction"]
        self._root = fillers[0]
        self._closed_count = self._generator.profile.closed_auctions
        # Latest content per open auction; bids mutate it in place.
        self._auctions = {
            f.filler_id: f.content for f in fillers if f.tsid == self.open_tsid
        }
        self._auction_ids = sorted(self._auctions)
        #: Wire text of the catalog, root filler first (top-down order).
        self.catalog = [filler.to_xml() for filler in fillers]
        self._clock = 0  # seconds past _TRAFFIC_START of the last envelope
        self._sale_ids: list[int] = []
        self._bids = 0

    # -- traffic ------------------------------------------------------------------

    def sale(self, step_s: int) -> str:
        """One ``closed_auction`` event under a fresh filler id."""
        self._clock += step_s
        self._closed_count += 1
        filler_id = self._fragmenter.next_filler_id()
        self._sale_ids.append(filler_id)
        element = self._generator.closed_auction(self._closed_count)
        stamp = XSDateTime.parse(_stamp(self._clock))
        return Filler(filler_id, self.closed_tsid, stamp, element).to_xml()

    def bid(self, step_s: int) -> str:
        """A new version of the next open auction: one more bidder.

        Auctions take turns, so every seed grows the same history shape
        (versions per auction); the seed picks bidders and increases.
        """
        self._clock += step_s
        rng = self._traffic
        hole = self._auction_ids[self._bids % len(self._auction_ids)]
        self._bids += 1
        auction = self._auctions[hole]
        increase = rng.choice((1.5, 3.0, 4.5, 6.0, 7.5))
        stamp_text = _stamp(self._clock)
        bidder = Element("bidder")
        bidder.append(_text_el("date", "06/01/2003"))
        bidder.append(_text_el("time", stamp_text.split("T")[1]))
        people = max(1, self._generator.profile.people)
        bidder.append(Element("personref", {"person": f"person{rng.randrange(people)}"}))
        bidder.append(_text_el("increase", f"{increase:.2f}"))
        current = auction.first("current")
        auction.insert(auction.children.index(current), bidder)
        price = float(current.text()) + increase
        current.children.clear()
        current.add_text(f"{price:.2f}")
        stamp = XSDateTime.parse(stamp_text)
        return Filler(hole, self.open_tsid, stamp, auction).to_xml()

    def events(self, count: int) -> list[str]:
        """``count`` sale envelopes one second apart (~535 B each)."""
        return [self.sale(1) for _ in range(count)]

    def bids(self, count: int) -> list[str]:
        """``count`` bid envelopes thirty seconds apart."""
        return [self.bid(30) for _ in range(count)]

    def updates(self, count: int) -> list[str]:
        """3 of 4 bids, 1 of 4 sales, thirty seconds apart.

        Every fourth envelope is the sale, so each seed does the same
        amount of work; the seed picks which auctions are bid on.
        """
        return [
            self.sale(30) if position % 4 == 3 else self.bid(30)
            for position in range(count)
        ]

    def stamp_of(self, index: int, step_s: int) -> XSDateTime:
        """validTime of the ``index``-th (0-based) envelope at ``step_s`` spacing."""
        return XSDateTime.parse(_stamp((index + 1) * step_s))

    def root_update(self) -> str:
        """The ``site`` root republished with a hole for every sale so far.

        Call after generating the traffic and send it *before* the
        traffic: fresh sale ids must be declared by the parent first.
        """
        root = self._root.content.copy()
        container = root.first("closed_auctions")
        for filler_id in self._sale_ids:
            container.append(make_hole(filler_id, self.closed_tsid))
        return Filler(0, self._root.tsid, _ROOT_UPDATE_TIME, root).to_xml()


class LedgerLoad:
    """~140-byte ``txn`` envelopes with amounts uniform in [0, 1000)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.structure_xml = LEDGER_STRUCTURE_XML
        self._rng = random.Random(f"ledger-{seed}")
        self._next = 0

    def envelopes(self, count: int, close_with_match: int) -> list[str]:
        """``count`` envelopes; the last one's amount is ``close_with_match``.

        A phase must end on an envelope the predicate subscriber
        receives, or the generator could not tell when the relay has
        drained (routing skips are silent by design).
        """
        out = []
        rng = self._rng
        for position in range(count):
            serial = self._next
            self._next += 1
            amount = rng.randrange(LEDGER_AMOUNT_RANGE)
            if position == count - 1:
                amount = close_with_match
            day = serial % 27 + 1
            out.append(
                f'<filler id="{serial + 1}" tsid="{LEDGER_TXN_TSID}" '
                f'validTime="2004-01-{day:02d}T00:00:00">'
                f'<txn seq="{serial}"><amount>{amount}</amount>'
                f"<vendor>vendor-{rng.randrange(17)}</vendor></txn></filler>"
            )
        return out
