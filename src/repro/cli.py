"""Command-line entry points.

- ``repro-figure4`` — regenerate the paper's Figure 4 table;
- ``repro-xmlgen`` — emit an XMark auction document (our xmlgen clone);
- ``repro-xcql`` — run (``run``) or explain (``explain``) an XCQL query
  over a fragment-store snapshot, broadcast a journal over the network
  transport (``serve``), or follow a broadcast (``tail``);
- ``repro-lint`` — the repo's source lint (pipeline-bypass imports).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figure4 import format_table, run_figure4
from repro.dom import serialize
from repro.xmark import generate_auction_document

__all__ = ["figure4_main", "xmlgen_main", "xcql_main", "lint_main"]


def figure4_main(argv: list[str] | None = None) -> int:
    """Run the Figure 4 experiment and print the table."""
    parser = argparse.ArgumentParser(
        description="Reproduce Figure 4 of Bose & Fegaras (SIGMOD 2004): "
        "XMark Q1/Q2/Q5 under QaC+/QaC/CaQ at several document scales."
    )
    parser.add_argument(
        "--scales",
        type=str,
        default=None,
        help="comma-separated XMark scale factors (default 0.0,0.01,0.02)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="take best of N runs per cell"
    )
    args = parser.parse_args(argv)
    scales = (
        [float(part) for part in args.scales.split(",")] if args.scales else None
    )
    cells = run_figure4(scales=scales, repeats=args.repeats)
    print(format_table(cells))
    return 0


def xmlgen_main(argv: list[str] | None = None) -> int:
    """Generate an auction document to stdout or a file."""
    parser = argparse.ArgumentParser(
        description="Generate an XMark-style auction document (xmlgen clone)."
    )
    parser.add_argument("-f", "--factor", type=float, default=0.0, help="scale factor")
    parser.add_argument("-s", "--seed", type=int, default=31415, help="random seed")
    parser.add_argument("-o", "--output", type=str, default=None, help="output file")
    args = parser.parse_args(argv)
    document = generate_auction_document(args.factor, args.seed)
    text = serialize(document, xml_declaration=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def xcql_main(argv: list[str] | None = None) -> int:
    """Run or explain an XCQL query against a saved fragment-store snapshot."""
    import json

    from repro.core import Strategy, XCQLEngine
    from repro.fragments.persist import load_store
    from repro.temporal import XSDateTime

    parser = argparse.ArgumentParser(
        description="Evaluate an XCQL query over a fragment-store snapshot "
        "(see repro.fragments.persist.save_store)."
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=["run", "explain", "serve", "tail"],
        default="run",
        help="run the query (default), print its plan summary — the "
        "translation, dependencies, and the pass-pipeline verdicts — as "
        "JSON (explain), broadcast a journal over the network transport "
        "(serve), or follow a broadcast and print its envelopes (tail)",
    )
    parser.add_argument(
        "--passes",
        action="store_true",
        help="with 'explain': include the per-pass pipeline trace "
        "(name, fired?, rewrite counts, reasons) and the pipeline fingerprint",
    )
    parser.add_argument(
        "--store",
        help="snapshot file (.xml); required for run/explain, optional "
        "seed for serve (published once into an empty journal)",
    )
    parser.add_argument(
        "--stream", default="stream", help="stream name the query uses (default: 'stream')"
    )
    parser.add_argument("--query", help="XCQL query text (default: read stdin)")
    parser.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.QAC.value,
        help="execution method (default QaC)",
    )
    parser.add_argument("--now", default=None, help="evaluation instant (xs:dateTime)")
    parser.add_argument(
        "--show-translation",
        action="store_true",
        help="print the translated XQuery before the results",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics (plan cache hits/evictions/"
        "invalidations, streaming-automaton host counters, per-stream "
        "store and delta-memo counters) as JSON after the results",
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="N",
        help="instead of one evaluation, replay the snapshot's fillers "
        "through a fresh engine in arrival batches of N with the query "
        "standing under a scheduler, then print engine + scheduler "
        "statistics (incremental vs full runs, automaton vs fallback runs, "
        "tuple-index probes and pruned tuples, shared_residual guards skipped/run and "
        "bodies run/reused) as JSON — the quick perf-triage view",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help="with '--replay': feed each batch as raw wire envelopes "
        "through the engine's streaming event path (feed_raw) instead of "
        "parsed fillers, so eligible queries run on the stream automaton "
        "and the automaton vs fallback counters are populated",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="with '--replay': route the replay through a ShardedEngine "
        "of N worker processes (the multi-process clearing house) instead "
        "of a single-process scheduler, and report the coordinator's "
        "dispatch/poll/failover counters alongside each shard's engine "
        "and scheduler statistics; with 'serve': run an N-shard "
        "coordinator behind the broadcast front door (see --workers)",
    )
    network = parser.add_argument_group("network transport (serve/tail)")
    network.add_argument("--host", default="127.0.0.1", help="bind/connect host")
    network.add_argument(
        "--port", type=int, default=0, help="port (serve default 0 = ephemeral)"
    )
    network.add_argument(
        "--journal",
        help="with 'serve': journal file backing the broadcast "
        "(optional for a --worker host)",
    )
    network.add_argument(
        "--worker",
        action="store_true",
        help="with 'serve': host the protocol-v2 WORKER role so a remote "
        "coordinator can run a shard on this server (DISPATCH/POLL/"
        "RESPAWN frames); --journal becomes optional",
    )
    network.add_argument(
        "--workers",
        metavar="HOST:PORT,...",
        help="with 'serve --shards N': comma-separated addresses of "
        "--worker servers; the first addresses host shards remotely over "
        "protocol v2, remaining shards run as local worker processes",
    )
    network.add_argument(
        "--batch-bytes",
        type=int,
        default=64 * 1024,
        help="with 'serve': cap one wire batch at this many payload bytes "
        "(a subscriber that keeps up is sent each burst as it ends)",
    )
    network.add_argument(
        "--compress-threshold",
        type=int,
        default=64 * 1024,
        help="with 'serve': tag-compress batches above this many bytes "
        "(negative disables compression)",
    )
    network.add_argument(
        "--slow-policy",
        choices=["block", "drop", "disconnect"],
        default="block",
        help="with 'serve': what a full subscriber queue does to the "
        "producer (default: block it)",
    )
    network.add_argument(
        "--queue-frames",
        type=int,
        default=64,
        help="with 'serve': per-subscriber send-queue bound, in frames",
    )
    network.add_argument(
        "--linger",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with 'serve': stop after this long (default: until Ctrl-C)",
    )
    network.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="with 'tail': stop after printing N envelopes",
    )
    network.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with 'tail': stop after this long without reaching --count",
    )
    network.add_argument(
        "--from-seq",
        type=int,
        default=None,
        metavar="N",
        help="with 'tail': catch up from journal sequence N before "
        "following live traffic (0 = the whole journal)",
    )
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _serve(args, parser)
    if args.command == "tail":
        return _tail(args)
    if args.store is None:
        parser.error("--store is required for run/explain")
    if args.replay is not None and args.replay < 1:
        parser.error("--replay batch size must be a positive integer")
    if args.raw and args.replay is None:
        parser.error("--raw requires --replay")
    if args.shards is not None:
        if args.replay is None:
            parser.error("--shards requires --replay")
        if args.shards < 1:
            parser.error("--shards must be a positive integer")
    if args.passes and args.command != "explain":
        parser.error("--passes requires the 'explain' command")

    store = load_store(args.store)
    if store.tag_structure is None:
        parser.error("snapshot has no Tag Structure; cannot translate queries")
    source = args.query if args.query is not None else sys.stdin.read()
    strategy = next(s for s in Strategy if s.value == args.strategy)
    now = XSDateTime.parse(args.now) if args.now else None

    if args.command == "explain":
        engine = XCQLEngine()
        engine.register_stream(args.stream, store.tag_structure, store)
        report = engine.explain(source, strategy)
        if not args.passes:
            report = {
                key: value
                for key, value in report.items()
                if key not in ("passes", "fingerprint")
            }
        print(json.dumps(report, indent=2, default=str))
        return 0

    if args.replay is not None:
        return _replay(args, store, source, strategy, now)

    engine = XCQLEngine()
    engine.register_stream(args.stream, store.tag_structure, store)
    compiled = engine.compile(source, strategy)
    if args.show_translation:
        print("-- translated query:")
        print(compiled.translated_source)
        print("-- results:")
    for item in engine.execute(compiled, now=now):
        if hasattr(item, "string_value"):
            print(serialize(item))
        else:
            print(item)
    if args.stats:
        print("-- engine stats:")
        print(json.dumps(engine.stats(), indent=2, default=str))
    return 0


def _serve(args, parser) -> int:
    """Broadcast a journal-backed stream over the network transport.

    Starts a :class:`repro.streams.net.StreamServer` on ``--host``/
    ``--port`` with the batching, compression, and slow-consumer knobs
    from the command line.  With ``--store``, an *empty* journal is
    seeded by publishing the snapshot (tag structure first, then every
    filler) — a non-empty journal is served as-is, so restarting never
    duplicates history.  Producers connect with FEED; subscribers catch
    up from the journal and follow live.

    Two sharding extensions share this front door.  ``--worker`` hosts
    the protocol-v2 WORKER role so a remote coordinator can run a shard
    on this server (``--journal`` becomes optional: worker shard state
    is connection-scoped, bootstrapped by the coordinator's journal).
    ``--shards N [--workers host:port,...]`` runs an N-shard
    :class:`~repro.streams.sharding.ShardedEngine` *behind* the door:
    every published message — journal replay, ``--store`` seed, live
    FEED traffic — is also delivered to the coordinator, which dispatches
    it across its shard links (remote v2 workers first, local worker
    processes for the rest).  Prints the server stats (merged with the
    coordinator's, under ``"sharded"``) as JSON on shutdown (``--linger``
    or Ctrl-C).
    """
    import asyncio
    import json

    from repro.fragments.persist import Journal, load_store
    from repro.streams.net import StreamServer
    from repro.streams.transport import FILLER, TAG_STRUCTURE, Message

    if args.worker and args.shards is not None:
        parser.error("--worker and --shards are mutually exclusive "
                     "(a worker hosts a shard; a coordinator runs them)")
    if args.workers is not None and args.shards is None:
        parser.error("--workers requires --shards")
    if args.journal is None and not args.worker:
        parser.error("serve requires --journal (unless --worker)")
    threshold = (
        None if args.compress_threshold < 0 else args.compress_threshold
    )
    addresses = (
        [part.strip() for part in args.workers.split(",") if part.strip()]
        if args.workers else []
    )

    engine = None
    if args.shards is not None:
        if args.shards < 1:
            parser.error("--shards must be a positive integer")
        from repro.streams.sharding import ShardedEngine

        # Links connect here, synchronously, before the loop starts —
        # an unreachable worker fails fast with a clear message.
        engine = ShardedEngine(args.shards, workers=addresses)

    async def main() -> dict:
        journal = Journal(args.journal) if args.journal else None
        server = StreamServer(
            args.host,
            args.port,
            journal=journal,
            engine=engine,
            worker=args.worker,
            max_batch_bytes=args.batch_bytes,
            compress_threshold=threshold,
            queue_frames=args.queue_frames,
            slow_policy=args.slow_policy,
        )
        seed_empty = journal is None or journal.last_seq == 0
        await server.start()
        if engine is not None and journal is not None and not seed_empty:
            # Catch the coordinator up with served history so its shards
            # hold the same partition a fresh subscriber would replay.
            for _seq, message in journal.read_indexed():
                engine.deliver(message)
        if args.store and seed_empty:
            store = load_store(args.store)
            if store.tag_structure is not None:
                from repro.dom import serialize

                await server.publish(
                    Message(
                        TAG_STRUCTURE,
                        args.stream,
                        serialize(store.tag_structure.to_xml()),
                    )
                )
            for filler in store.fillers_since(0):
                await server.publish(
                    Message(FILLER, args.stream, filler.to_xml())
                )
        role = (
            "worker" if args.worker
            else f"coordinator ({engine.shard_count} shards, "
                 f"{len(addresses)} remote)" if engine is not None
            else "broadcast"
        )
        print(
            f"serving on {args.host}:{server.port} "
            f"(journal seq {server.seq}, role {role})",
            file=sys.stderr,
        )
        try:
            if args.linger is not None:
                await asyncio.sleep(args.linger)
            else:
                await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        stats = server.stats()
        if engine is not None:
            stats["sharded"] = engine.stats()
        await server.close()
        return stats

    try:
        stats = asyncio.run(main())
    except KeyboardInterrupt:
        return 0
    finally:
        if engine is not None:
            engine.close()
    print(json.dumps(stats, indent=2, default=str))
    return 0


def _tail(args) -> int:
    """Follow a broadcast stream and print its envelopes to stdout.

    Connects to a :func:`_serve` server, subscribes to ``--stream``,
    optionally replays the journal from ``--from-seq``, and prints one
    envelope per line (prefixed with its journal seq) until ``--count``
    envelopes or ``--timeout`` seconds.  Client stats go to stderr.
    """
    import asyncio
    import json

    from repro.streams.net import StreamClient, Subscription

    async def main() -> int:
        printed = 0
        done = asyncio.Event()

        def show(message) -> None:
            nonlocal printed
            print(f"{client.last_seen}\t{message.kind}\t{message.payload}")
            printed += 1
            if args.count is not None and printed >= args.count:
                done.set()

        client = StreamClient(args.host, args.port, on_message=show)
        await client.connect()
        catchup = args.from_seq is not None
        await client.subscribe(
            [Subscription(args.stream)], catchup=catchup
        )
        if catchup:
            await client.catchup(after=args.from_seq)
        waits = [asyncio.ensure_future(done.wait()),
                 asyncio.ensure_future(client.closed.wait())]
        try:
            await asyncio.wait(
                waits,
                timeout=args.timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for waiter in waits:
                waiter.cancel()
        await client.close()
        print(json.dumps(client.stats(), default=str), file=sys.stderr)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def _replay(args, store, source: str, strategy, now) -> int:
    """Replay a snapshot's fillers as an arrival stream under a scheduler.

    The snapshot's fillers are fed to a fresh engine in batches of
    ``args.replay``, with ``source`` as a standing continuous query; each
    batch is followed by a poll.  Prints the emitted results, then the
    engine and scheduler statistics as one JSON document — plan cache,
    delta-memo, incremental (``shared_runs``) vs full runs, the tuple
    index's probe/prune counts and the ``shared_residual`` guard/body economy
    (perf triage for the shared evaluation layer).
    """
    import json

    from repro.core import XCQLEngine
    from repro.streams.continuous import ContinuousQuery
    from repro.streams.scheduler import QueryScheduler
    from repro.temporal import XSDateTime

    if args.shards is not None:
        return _replay_sharded(args, store, source, strategy, now)

    engine = XCQLEngine()
    engine.register_stream(args.stream, store.tag_structure)
    scheduler = QueryScheduler(engine)
    query = ContinuousQuery(engine, source, strategy=strategy)
    scheduler.add(query)
    emitted_total = 0

    def count(items: list) -> None:
        nonlocal emitted_total
        emitted_total += len(items)

    query.subscribe(count)
    fillers = store.fillers_since(0)
    if now is not None:
        poll_now = now
    else:
        # Evaluate "as of" the end of the replayed history.
        poll_now = max(
            (f.valid_time for f in fillers),
            default=XSDateTime.parse("2001-01-01T00:00:00"),
        )
    scheduler.poll(poll_now)  # baseline
    for start in range(0, len(fillers), args.replay):
        batch = fillers[start:start + args.replay]
        if args.raw:
            engine.feed_raw(args.stream, [filler.to_xml() for filler in batch])
        else:
            engine.feed(args.stream, batch)
        scheduler.poll(poll_now)
    report = {
        "fillers_replayed": len(fillers),
        "batch_size": args.replay,
        "emitted": emitted_total,
        "query": query.stats(),
        "scheduler": scheduler.stats(),
        "engine": engine.stats(),
    }
    print(json.dumps(report, indent=2, default=str))
    return 0


def _replay_sharded(args, store, source: str, strategy, now) -> int:
    """Replay a snapshot through the multi-process sharded coordinator.

    Same arrival cadence as :func:`_replay` — batches of ``args.replay``,
    a tick after each — but partitioned across ``args.shards`` worker
    processes, with the coordinator's dependency gate deciding which
    shards each tick polls.  Prints the merged emission count plus the
    full :meth:`ShardedEngine.stats` report (coordinator counters and
    per-shard engine/scheduler statistics).
    """
    import json

    from repro.streams.sharding import ShardedEngine
    from repro.temporal import XSDateTime

    fillers = store.fillers_since(0)
    if now is not None:
        poll_now = now
    else:
        poll_now = max(
            (f.valid_time for f in fillers),
            default=XSDateTime.parse("2001-01-01T00:00:00"),
        )
    engine = ShardedEngine(args.shards)
    try:
        engine.register_stream(args.stream, store.tag_structure)
        try:
            query = engine.add_query(source, strategy=strategy)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        emitted_total = 0

        def count(items: list) -> None:
            nonlocal emitted_total
            emitted_total += len(items)

        query.subscribe(count)
        engine.tick(poll_now)  # baseline
        for start in range(0, len(fillers), args.replay):
            batch = fillers[start:start + args.replay]
            if args.raw:
                engine.feed_raw(args.stream, [f.to_xml() for f in batch])
            else:
                engine.feed(args.stream, batch)
            engine.tick(poll_now)
        report = {
            "fillers_replayed": len(fillers),
            "batch_size": args.replay,
            "shards": args.shards,
            "emitted": emitted_total,
            "sharded": engine.stats(),
        }
        print(json.dumps(report, indent=2, default=str))
    finally:
        engine.close()
    return 0


def lint_main(argv: list[str] | None = None) -> int:
    """Run the repo's source lint; non-zero exit on findings.

    The rules live in :func:`repro.core.lint.lint_sources`:
    ``pipeline-bypass`` — the optimizer's rewrite/analysis entry points
    may only be imported by :mod:`repro.core.pipeline`, so every
    compilation path stays traceable through the pass pipeline (see
    ``repro-xcql explain --passes``) — the DOM-free module rules, and
    ``builder-primitive`` (only the DOM builders may link children
    without ``append``'s bookkeeping).
    """
    from repro.core.lint import lint_sources

    parser = argparse.ArgumentParser(
        description="Lint Python sources for pipeline-bypassing optimizer "
        "imports (rewrites/analyses must run as pipeline passes)."
    )
    parser.add_argument(
        "paths", nargs="+", help="files or directories to check (e.g. src)"
    )
    args = parser.parse_args(argv)
    diagnostics = lint_sources(args.paths)
    for diagnostic in diagnostics:
        print(diagnostic)
    if diagnostics:
        print(f"{len(diagnostics)} problem(s) found")
        return 1
    print("clean")
    return 0


if __name__ == "__main__":
    sys.exit(figure4_main())
