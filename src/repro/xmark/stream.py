"""A live auction stream: XMark data driven through the push runtime.

The paper's evaluation queries a *fragmented document*; a deployed system
would see the same data as a stream — the auction site broadcasts its
catalog once, then pushes **bids** (updates to ``open_auction`` temporal
fragments) and **sales** (new ``closed_auction`` events) continuously.

:class:`AuctionStreamDriver` generates that workload deterministically:
each step picks an open auction, appends a bidder and bumps ``current``
(a new version of the auction's fragment), and occasionally closes an
auction by emitting a ``closed_auction`` event.  Continuous XMark queries
(Q2's bidder increases, Q5's expensive sales) then run live.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.dom.nodes import Element, Text
from repro.streams.clock import Clock
from repro.streams.server import StreamServer
from repro.xmark.generator import XMarkGenerator

__all__ = ["AuctionStreamDriver"]


def _text_el(tag: str, text: str) -> Element:
    element = Element(tag)
    element.append(Text(text))
    return element


class AuctionStreamDriver:
    """Drives an auction server with bids and sales."""

    def __init__(
        self,
        server: StreamServer,
        clock: Clock,
        scale: float = 0.0,
        seed: int = 2718,
    ):
        self.server = server
        self.clock = clock
        self.rng = random.Random(seed)
        self.generator = XMarkGenerator(scale, seed=seed)
        self._auction_holes: list[int] = []
        self._closed_parent: Optional[int] = None
        self._closed_count = self.generator.profile.closed_auctions
        self.bids_placed = 0
        self.auctions_closed = 0

    # -- bootstrap ----------------------------------------------------------------

    def publish_catalog(self) -> None:
        """Announce and broadcast the initial auction site document."""
        self.server.announce()
        document = self.generator.document()
        self.server.publish_document(document)
        registry = self.server.fragmenter.hole_registry
        open_container = None
        for (owner, tag, key), hole in registry.items():
            if tag == "open_auction":
                self._auction_holes.append(hole)
        # closed_auction events share one hole under closed_auctions.
        for (owner, tag, key), hole in registry.items():
            if tag == "closed_auction":
                self._closed_parent = owner
                break

    # -- the event loop ------------------------------------------------------------

    def place_bid(self, auction_hole: Optional[int] = None) -> int:
        """Append a bidder to an open auction (a new fragment version)."""
        if not self._auction_holes:
            raise RuntimeError("publish_catalog() first")
        hole = auction_hole or self.rng.choice(self._auction_holes)
        auction = self.server.latest_content(hole)
        increase = self.rng.choice((1.5, 3.0, 4.5, 6.0, 7.5))
        bidder = Element("bidder")
        bidder.append(_text_el("date", "06/14/2004"))
        bidder.append(_text_el("time", str(self.clock.now()).split("T")[1]))
        bidder.append(
            Element(
                "personref",
                {"person": f"person{self.rng.randrange(max(1, self.generator.profile.people))}"},
            )
        )
        bidder.append(_text_el("increase", f"{increase:.2f}"))
        # Insert the bidder before <current> and bump the price.
        current = auction.first("current")
        position = auction.children.index(current) if current is not None else len(auction.children)
        auction.insert(position, bidder)
        if current is not None:
            new_price = float(current.text()) + increase
            current.children.clear()
            current.add_text(f"{new_price:.2f}")
        self.server.update_fragment(hole, auction)
        self.bids_placed += 1
        return hole

    def close_auction(self) -> None:
        """Emit a closed_auction event for a random item/price."""
        self._closed_count += 1
        closed = self.generator.closed_auction(self._closed_count)
        target = self._closed_parent if self._closed_parent is not None else 0
        self.server.emit_event(target, closed)
        self.auctions_closed += 1

    def run(self, steps: int, close_every: int = 5, advance_seconds: int = 30) -> None:
        """Run the market for N steps (a bid per step, periodic closings)."""
        for step in range(steps):
            self.place_bid()
            if close_every and (step + 1) % close_every == 0:
                self.close_auction()
            self.clock.advance(advance_seconds)
