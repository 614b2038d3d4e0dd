"""Unit costs of the pure wire functions, replayed over recorded envelopes.

The live run cannot bracket these calls — they happen inside the
transport's own coroutines and the engine's ingest loop — so the
envelopes the run sent are pushed through the same public functions
again, off line, in batches the size the run averaged.
"""

from __future__ import annotations

import time

from repro.dom.parser import EventParser
from repro.fragments.tagstructure import TagStructure
from repro.streams import netproto
from repro.streams.compression import TagCodec
from repro.streams.transport import FILLER, peek_filler

__all__ = ["replay_wire_costs"]

_SAMPLE = 2000  # envelopes replayed
_SLICE = 4096  # the transport compresses in slices of this many characters


def _slices(text: str):
    return (text[i : i + _SLICE] for i in range(0, len(text), _SLICE))


def replay_wire_costs(payloads: list, stream: str, structure_xml: str, per_batch: int) -> dict:
    """Tokenizer, peek, frame codec and tag codec costs as per-layer metrics."""
    sample = payloads[:_SAMPLE]
    kilobytes = sum(len(p.encode("utf-8")) for p in sample) / 1024.0
    out = {}

    started = time.perf_counter()
    for payload in sample:
        parser = EventParser(fragment=True)
        parser.feed(payload)
        parser.close()
    out["dom.parser.tokenize_us_per_kb"] = 1e6 * (time.perf_counter() - started) / kilobytes

    started = time.perf_counter()
    for payload in sample:
        peek_filler(payload)
    out["streams.transport.peek_us_per_env"] = 1e6 * (time.perf_counter() - started) / len(sample)

    batches = [
        [(seq + 1, payload) for seq, payload in enumerate(sample[i : i + per_batch])]
        for i in range(0, len(sample), per_batch)
    ]
    started = time.perf_counter()
    frames = [
        netproto.encode_batch(netproto.BATCH, stream, FILLER, entries)
        for entries in batches
    ]
    out["streams.netproto.encode_us_per_env"] = 1e6 * (time.perf_counter() - started) / len(sample)
    decoder = netproto.FrameDecoder()
    started = time.perf_counter()
    for frame in frames:
        decoder.feed(frame)
    out["streams.netproto.decode_us_per_env"] = 1e6 * (time.perf_counter() - started) / len(sample)
    out["streams.netproto.overhead_bytes_per_env"] = (
        sum(len(frame) for frame in frames) / len(sample) - 1024.0 * kilobytes / len(sample)
    )

    codec = TagCodec(TagStructure.from_xml(structure_xml))
    started = time.perf_counter()
    packed = ["".join(codec.compress_iter(_slices(payload))) for payload in sample]
    out["streams.compression.compress_us_per_kb"] = 1e6 * (time.perf_counter() - started) / kilobytes
    started = time.perf_counter()
    for payload in packed:
        "".join(codec.decompress_iter(_slices(payload)))
    out["streams.compression.decompress_us_per_kb"] = (
        1e6 * (time.perf_counter() - started) / kilobytes
    )
    out["streams.compression.byte_ratio"] = (
        sum(len(p.encode("utf-8")) for p in packed) / (1024.0 * kilobytes)
    )
    return out
