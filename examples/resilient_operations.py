"""Operating a stream in the wild: loss, recovery, compression, retention.

The paper's broadcast model is one-way — no acknowledgements, no
retransmission requests (§1).  This example shows the operational toolkit
built around that model:

1. a **lossy channel** drops fragments; the server's periodic *repeats*
   let clients converge anyway;
2. a **journal** records the broadcast so a late-joining client can replay
   history it never heard;
3. **tag compression** (§4.1) shrinks the wire using Tag Structure codes;
4. a **scheduler** skips re-evaluating standing queries whose fragments
   did not change;
5. **retention pruning** bounds the history a long-running client keeps.

Run:  python examples/resilient_operations.py
"""

import tempfile
from pathlib import Path

from repro import (
    Fragmenter,
    LossyChannel,
    SimulatedClock,
    Strategy,
    StreamClient,
    StreamServer,
    TagStructure,
)
from repro.dom import Element, parse_document
from repro.fragments import Journal, temporalize
from repro.streams.compression import CompressingChannel, TagCodec
from repro.temporal import XSDateTime, XSDuration

STRUCTURE = TagStructure.build(
    {
        "name": "plant",
        "type": "snapshot",
        "children": [
            {
                "name": "machine",
                "type": "temporal",
                "children": [
                    {"name": "label", "type": "snapshot"},
                    {
                        "name": "reading",
                        "type": "event",
                        "children": [{"name": "temp", "type": "snapshot"}],
                    },
                    {"name": "setpoint", "type": "temporal"},
                ],
            }
        ],
    }
)

INITIAL = """
<plant>
  <machine id="m1"><label>press</label><setpoint>70</setpoint></machine>
  <machine id="m2"><label>kiln</label><setpoint>400</setpoint></machine>
</plant>
"""

HOT_QUERY = (
    'for $m in stream("plant")//machine '
    "where max($m/reading?[now-PT10M,now]/temp) > $m/setpoint?[now] "
    'return <overheat machine="{$m/@id}"/>'
)


def reading(value: float) -> Element:
    event = Element("reading")
    temp = Element("temp")
    temp.add_text(f"{value:.1f}")
    event.append(temp)
    return event


def main() -> None:
    clock = SimulatedClock("2004-06-13T08:00:00")
    workdir = Path(tempfile.mkdtemp(prefix="repro-demo-"))

    # 1+3: a lossy channel wrapped in tag compression.
    channel = LossyChannel(loss_rate=0.25, seed=42)
    journal = Journal(workdir / "plant.journal")
    channel.subscribe(journal.record)

    client = StreamClient(clock)  # schedules its queries
    client.tune_in(channel)

    server = StreamServer("plant", STRUCTURE, channel, clock)
    server.announce()
    server.publish_document(parse_document(INITIAL))

    # Recover the initial publication despite the 25% loss: the server
    # repeats everything until (out of band, e.g. a checksum broadcast)
    # convergence; here we just repeat a few rounds.
    for _ in range(8):
        server.announce()
        for filler_id in list(server._content):
            server.repeat_fragment(filler_id)
    store = client.store_of("plant")
    print(f"after repeats: client holds {store.fragment_count} fragments, "
          f"complete={store.is_complete()} "
          f"(channel dropped {channel.dropped} deliveries)")

    # 4: standing query with dependency-aware scheduling.
    alerts: list = []
    query = client.register_query(HOT_QUERY, strategy=Strategy.QAC)
    query.subscribe(lambda items: alerts.extend(items))
    client.poll()

    m1 = server.hole_id(0, "machine", "m1")
    for minute, temperature in enumerate((65.0, 69.5, 74.2), start=1):
        server.emit_event(m1, reading(temperature))
        clock.advance("PT1M")
        client.poll()
    # Readings may have been lost too; the server repeats its recent
    # fragments (the paper's remedy) and the client converges.
    for _ in range(4):
        for filler_id in list(server._content):
            server.repeat_fragment(filler_id)
    client.poll()
    print(f"overheat alerts: {[a.attrs['machine'] for a in alerts]}")
    print(f"scheduler stats: {client.scheduler.stats()}")

    # 2: a late joiner replays the journal and reaches the same state.
    late = StreamClient(clock)
    journal.replay(late._on_message)
    same = temporalize(late.store_of("plant")).document_element is not None
    in_sync = (
        late.store_of("plant").fragment_count == store.fragment_count
    )
    print(f"late joiner replayed {journal.records_written} records; "
          f"in sync: {same and in_sync}")

    # 3: how much would compression have saved?
    codec = TagCodec(STRUCTURE)
    fragmenter = Fragmenter(STRUCTURE)
    fillers = fragmenter.fragment(
        parse_document(INITIAL), XSDateTime.parse("2004-06-13T08:00:00")
    )
    raw = sum(f.wire_size for f in fillers)
    packed = sum(len(codec.encode_wire(f.to_xml()).encode()) for f in fillers)
    print(f"tag compression: {raw} -> {packed} bytes "
          f"({100 * (1 - packed / raw):.0f}% saved)")

    # 5: bound retention to the last hour.
    dropped = store.prune_before(clock.now() - XSDuration.parse("PT1H"))
    print(f"retention pruning dropped {dropped} superseded fillers; "
          f"current answers unchanged: {len(query.evaluate(clock.now())) == 0}")


if __name__ == "__main__":
    main()
