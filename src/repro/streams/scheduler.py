"""Scheduling of continuous-query re-evaluation (paper §8 future work).

The paper re-evaluates every standing query on every poll and defers
"scheduling the fragments through the XCQL query tree" (Aurora-style
operator scheduling) to future work.  This module implements the practical
core of that idea at query granularity:

- each compiled query's *dependencies* are derived statically from its
  translated AST — which streams it touches, and (for QaC+ plans) exactly
  which tsids;
- the scheduler tracks arrivals per (stream, tsid) and skips re-evaluating
  queries whose dependencies saw no new fragments;
- queries that mention ``now`` (sliding windows) are *time-sensitive* and
  also re-evaluate when the clock has advanced, even without arrivals.

Arrivals wake by dependency only: every entry is filed under each
``(stream, tsid | *)`` it depends on when it is added, ``notify_arrival``
is a set-add, and a poll unions the watchers of the keys that arrived.
What an arriving fragment *contains* is never looked at here — a routing
predicate is decided on wire text at the network door
(:class:`repro.streams.routing.DoorProbe`) and on binding tuples in
the group (below), nowhere in between.

Three multi-query optimizations sit on top (the many-standing-queries
regime of paper §2/§7):

- **Shared group evaluation.**  Incremental queries (the pipeline's
  ``incremental`` pass — the verdict is read off ``CompiledQuery.info``;
  see :mod:`repro.core.pipeline`) are grouped by ``(engine, stream, tsid,
  filler id, prefix source)``.  A poll tick materializes each group's
  binding tuples *once* per distinct watermark and hands them to every
  member's residual closure, so N same-source queries cost one delta scan
  plus N cheap residuals instead of N scans.  A query with nobody to
  share with is a group of one: same window, same driver.
- **Group predicate index.**  A query whose residual leads with a
  literal-comparable conjunct (``$t/amount > 50``) is filed under it in
  its group's :class:`repro.streams.routing.TupleIndex` at registration,
  sorted by the literal among the members whose predicates differ only
  there.  A tick extracts the operand once per tuple and hands each
  member the order-preserving sub-list its literal accepts; a member
  left with nothing folds in an empty delta — its watermark moves, no
  context is built and nothing of its residual runs.
- **Shared residual.**  A residual is *guard ∘ body* (see
  :func:`repro.core.optimizer.analyze_delta`): the guard is that same
  conjunct, so a tuple the index accepted with a verdict — not one it
  merely passed through undecided — skips it; and the body is run once
  per tuple for all the members that spell it, the others receiving
  copies of the constructed items and their identity strings
  (:meth:`repro.streams.continuous.DeltaWindow.residual`).

Re-evaluations run each query's cached :class:`CompiledQuery` — with the
default ``"compiled"`` backend that is a closure plan (see
:mod:`repro.xquery.compiler`), so a poll tick pays zero parse/translate
and zero AST dispatch.  The saved evaluations are counted, which ablations
A3b and A11 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.engine import CompiledQuery, IncrementalPlan
from repro.streams.continuous import ContinuousQuery, DeltaWindow
from repro.streams.routing import TupleIndex
from repro.temporal.chrono import XSDateTime
from repro.xquery import xast

__all__ = ["QueryDependencies", "dependencies_of", "QueryScheduler"]

ALL_TSIDS = "*"
_ALL_DECIDED: frozenset = frozenset()  # the index had a verdict for every tuple


@dataclass(frozen=True)
class QueryDependencies:
    """What a compiled query can observe."""

    streams: frozenset  # of (stream, tsid) pairs; tsid may be ALL_TSIDS
    time_sensitive: bool

    def touches(self, stream: str, tsids: set[int]) -> bool:
        """True when arrivals on (stream, tsids) can change the answer."""
        for dep_stream, dep_tsid in self.streams:
            if dep_stream != stream:
                continue
            if dep_tsid == ALL_TSIDS or dep_tsid in tsids:
                return True
        return False


def dependencies_of(compiled: CompiledQuery) -> QueryDependencies:
    """Statically derive a translated query's dependencies.

    ``get_fillers(stream, ...)`` and ``materialized_view(stream)`` depend
    on the whole stream (hole chains are data-dependent);
    ``get_fillers_by_tsid(stream, tsid)`` depends on one tsid only — but
    the *content* fetched may itself contain holes, so any non-leaf tsid
    also widens to the subtree of tags below it.

    The result is memoized on the :class:`CompiledQuery` (and therefore
    shared through the engine's plan cache): re-adding the same compiled
    query to a scheduler — or registering hundreds of clones in a group —
    walks the AST once.
    """
    memo = getattr(compiled, "dependencies_memo", None)
    if memo is not None:
        return memo
    deps: set[tuple[str, Union[int, str]]] = set()
    time_sensitive = False

    def visit(node: object) -> None:
        nonlocal time_sensitive
        if isinstance(node, xast.NowConstant):
            time_sensitive = True
        if isinstance(node, xast.FunctionCall):
            if node.name in ("get_fillers", "get_fillers_list", "materialized_view", "stream"):
                stream = _literal(node.args[0]) if node.args else None
                if stream is not None:
                    deps.add((stream, ALL_TSIDS))
            elif node.name == "get_fillers_by_tsid" and len(node.args) == 2:
                stream = _literal(node.args[0])
                tsid = _literal(node.args[1])
                if stream is not None and isinstance(tsid, int):
                    deps.add((stream, tsid))
            elif node.name in ("currentDateTime", "current-dateTime", "current-time"):
                time_sensitive = True
        for child in xast.children(node):
            visit(child)

    visit(compiled.translated.body)
    for definition in compiled.translated.functions:
        visit(definition.body)
    result = QueryDependencies(frozenset(deps), time_sensitive)
    try:
        compiled.dependencies_memo = result
    except AttributeError:
        pass  # non-CompiledQuery duck types stay unmemoized
    return result


def _literal(node: object):
    if isinstance(node, xast.Literal):
        return node.value
    return None


@dataclass(eq=False)
class _Entry:
    query: ContinuousQuery
    dependencies: QueryDependencies
    plan: Optional[IncrementalPlan] = None
    group_key: Optional[tuple] = None  # (id(engine), *IncrementalPlan.group_key)
    automaton: Optional[object] = None  # compile-stream-automaton verdict
    last_now: Optional[XSDateTime] = None
    evaluations: int = 0
    skips: int = 0
    full_runs: int = 0    # evaluations that re-scanned the whole store
    delta_runs: int = 0   # incremental evaluations over the query's own scan
    shared_runs: int = 0  # incremental evaluations fed from a group window
    automaton_runs: int = 0       # wakes answered from event captures
    automaton_fallbacks: int = 0  # declines that took the DOM prefix scan


class QueryScheduler:
    """Skips re-evaluation of queries whose inputs did not change.

    Pass ``engine`` (or call :meth:`watch_engine`) to receive arrival
    notifications automatically from every :meth:`XCQLEngine.feed` — no
    hand-plumbed ``notify_arrival`` calls.  An incremental query the
    scheduler runs is handed its group's delta window; :meth:`poll` records
    per query whether the run was incremental (``shared``), a full
    re-evaluation, or a skip.

    ``share_groups`` lets same-prefix queries share one window per tick
    (off: every query is a group of one and scans for itself);
    ``routing`` files members in their group's predicate index (off:
    every member takes every tuple and runs its own guard);
    ``stream_automata`` lets automaton-compiled plans answer wakes from
    the engine's :class:`~repro.core.engine.AutomatonHost` event captures
    (recorded by ``feed_raw``) before touching any wrapper DOM — a decline
    falls back to the prefix scan, so results are identical either way.
    All default on and only ever *reduce* work — disabling them restores
    the earlier behaviour (the A11/A12 baseline arms).
    """

    def __init__(self, engine=None, share_groups: bool = True,
                 routing: bool = True, stream_automata: bool = True) -> None:
        self._entries: list[_Entry] = []
        # (stream, tsid | ALL_TSIDS) -> the entries depending on it, filed
        # by add/remove; a poll unions the watchers of what arrived.
        self._watchers: dict[tuple, set[_Entry]] = {}
        self._arrivals: set[tuple[str, int]] = set()
        self._watched: list = []
        self.share_groups = share_groups
        self.routing = routing
        self.stream_automata = stream_automata
        self._groups: dict[tuple, list[_Entry]] = {}
        # Per-group tuple dispatch index over the members' leading
        # predicates; maintained by add/remove, only read inside a poll.
        self._indexes: dict[tuple, TupleIndex] = {}
        # Per-tick cache of delta windows (fresh fillers, applicability,
        # binding tuples, per-member partition, body results), keyed
        # (group key, member watermark, store seq, store epoch).
        self._tick_windows: dict[tuple, DeltaWindow] = {}
        # (id(engine), automaton) -> [engine, the entries answering wakes
        # from it]: whose watermarks bound what its host may forget.
        self._automaton_members: dict[tuple, list] = {}
        self._shared_residual = {
            "guards_skipped": 0, "guards_run": 0, "body_runs": 0, "body_reuses": 0,
        }
        self._notifications = 0
        self._tuple_probes = 0
        self._tuples_pruned = 0
        self._prefix_runs = 0
        self._prefix_reuses = 0
        self._automaton_runs = 0
        self._automaton_fallbacks = 0
        if engine is not None:
            self.watch_engine(engine)

    # -- registration ---------------------------------------------------------

    def add(self, query: ContinuousQuery) -> QueryDependencies:
        """Track a continuous query; returns its derived dependencies.

        The entry is filed under every ``(stream, tsid)`` it depends on.
        Incremental queries join their prefix group, and those whose
        residual carries a routable predicate are filed in the group's
        tuple dispatch index.
        """
        dependencies = dependencies_of(query.compiled)
        entry = _Entry(query, dependencies)
        for key in dependencies.streams:
            self._watchers.setdefault(key, set()).add(entry)
        plan = query.engine.prepare_incremental(query.compiled)
        if plan is not None:
            entry.plan = plan
            entry.group_key = (id(query.engine),) + plan.group_key
            self._groups.setdefault(entry.group_key, []).append(entry)
            automaton = query.compiled.info.automaton
            if self.stream_automata and automaton is not None:
                # The compile-stream-automaton verdict: wakes try the
                # engine's capture host before the prefix scan.
                entry.automaton = automaton
                # Before the member's first run, which is a full baseline:
                # every capture it will read keeps what it reads.
                query.engine.automaton_host.register(
                    automaton, query.compiled.info.projection
                )
                self._automaton_members.setdefault(
                    (id(query.engine), automaton), [query.engine, []]
                )[1].append(entry)
            if self.routing and plan.routing is not None:
                index = self._indexes.get(entry.group_key) or TupleIndex()
                if index.add(entry, plan.routing):
                    self._indexes[entry.group_key] = index
        self._entries.append(entry)
        return dependencies

    def remove(self, query: ContinuousQuery) -> bool:
        """Stop tracking a query; returns whether it was tracked.

        Group co-members simply shrink their group; the group's tuple
        index forgets the query's predicate.
        """
        for entry in self._entries:
            if entry.query is query:
                self._entries.remove(entry)
                for key in entry.dependencies.streams:
                    watching = self._watchers[key]
                    watching.discard(entry)
                    if not watching:
                        del self._watchers[key]
                if entry.automaton is not None:
                    query.engine.automaton_host.unregister(
                        entry.automaton, query.compiled.info.projection
                    )
                    key = (id(query.engine), entry.automaton)
                    watching = self._automaton_members[key][1]
                    watching.remove(entry)
                    if not watching:
                        del self._automaton_members[key]
                if entry.group_key is not None:
                    members = self._groups.get(entry.group_key, [])
                    if entry in members:
                        members.remove(entry)
                    if not members:
                        self._groups.pop(entry.group_key, None)
                    index = self._indexes.get(entry.group_key)
                    if index is not None:
                        index.remove(entry)
                        if not index:
                            del self._indexes[entry.group_key]
                return True
        return False

    # -- arrival tracking ---------------------------------------------------------

    def notify_arrival(self, stream: str, tsid: int) -> None:
        """Record that filler(s) with ``tsid`` arrived on ``stream``.

        Idempotent per poll window (a set-add), so automatic engine
        notifications and manual calls may overlap harmlessly.
        """
        self._notifications += 1
        self._arrivals.add((stream, int(tsid)))

    def watch_engine(self, engine) -> None:
        """Subscribe to an engine's ingest: ``feed`` implies ``notify_arrival``."""
        if engine not in self._watched:
            engine.add_arrival_listener(self.notify_arrival)
            self._watched.append(engine)

    def unwatch_engine(self, engine) -> None:
        """Stop receiving arrival notifications from an engine."""
        if engine in self._watched:
            engine.remove_arrival_listener(self.notify_arrival)
            self._watched.remove(engine)

    # -- the scheduling decision -----------------------------------------------------

    def poll(self, now: XSDateTime) -> dict[ContinuousQuery, list]:
        """Re-evaluate exactly the queries whose answer can have changed."""
        emitted: dict[ContinuousQuery, list] = {}
        self._tick_windows.clear()
        woken = self._woken()
        for entry in self._ordered_entries():
            if self._should_run(entry, now, woken):
                tuple_source = self._tuple_source_for(entry)
                emitted[entry.query] = entry.query.evaluate(
                    now, tuple_source=tuple_source
                )
                entry.evaluations += 1
                if entry.query.last_mode == "shared":
                    entry.shared_runs += 1
                elif entry.query.last_mode == "delta":
                    entry.delta_runs += 1
                else:
                    entry.full_runs += 1
            else:
                entry.skips += 1
                entry.query.skips += 1
                emitted[entry.query] = []
            entry.last_now = now
        self._arrivals.clear()
        self._tick_windows.clear()
        if self.stream_automata:
            self._prune_automata()
        return emitted

    def _ordered_entries(self) -> list[_Entry]:
        """Entries in deterministic dispatch order for one poll tick.

        Grouped entries run first, group by group sorted on ``group_key``
        — excluding the leading ``id(engine)`` discriminator, which is not
        stable across runs or processes — then ungrouped entries in
        registration order.  The sort is stable, so registration order
        breaks ties within and across equal keys.  Without this, tick
        output ordering depended on dict insertion history, which differs
        between a single process and the sharded coordinator's per-worker
        schedulers; a deterministic order is what lets the coordinator's
        merge compare per-shard answers positionally.
        """
        if not self._groups:
            return list(self._entries)
        ordered: list[_Entry] = []
        for key in sorted(
            self._groups, key=lambda k: tuple(str(part) for part in k[1:])
        ):
            ordered.extend(self._groups[key])
        grouped = {id(entry) for entry in ordered}
        ordered.extend(
            entry for entry in self._entries if id(entry) not in grouped
        )
        return ordered

    def _prune_automata(self) -> None:
        """Drop automaton captures every watching query has consumed."""
        for (_, automaton), (engine, watching) in self._automaton_members.items():
            floor = min(entry.query.watermark_seq or 0 for entry in watching)
            engine.automaton_host.prune(automaton, floor)

    def _woken(self) -> set:
        """The entries some arrival since the last poll can have changed."""
        woken: set[_Entry] = set()
        watchers = self._watchers
        for stream, tsid in self._arrivals:
            woken.update(watchers.get((stream, tsid), ()))
            woken.update(watchers.get((stream, ALL_TSIDS), ()))
        return woken

    @staticmethod
    def _should_run(entry: _Entry, now: XSDateTime, woken: set) -> bool:
        if entry.last_now is None:
            return True  # first poll establishes a baseline
        if entry in woken:
            return True
        return entry.dependencies.time_sensitive and now != entry.last_now

    def _tuple_source_for(self, entry: _Entry) -> Optional[Callable]:
        """The entry's delta-window hook for this tick, or ``None``.

        The hook answers what the fillers past the member's watermark add
        to its answer (see :meth:`ContinuousQuery.evaluate`): the binding
        tuples, then the member's residual over them.  Two tuple
        producers hide behind it, tried in order:

        1. the engine's automaton host — event captures recorded at
           ``feed_raw`` ingest answer the wake with zero DOM work;
        2. the plan's prefix scan over the window's wrapper DOMs, which
           every automaton decline falls back to.

        Windows are keyed by the group and the member's watermark, so
        members at equal watermarks — the steady state under a scheduler —
        share one fresh-filler scan, one applicability verdict, one tuple
        materialization, one pass of the group's predicate index and one
        run of each distinct residual body per tuple per tick, regardless
        of which producer made the tuples; a member at an older watermark
        (it joined late, or was re-baselined) simply pays one catch-up
        run from there.  The member's residual sees the sub-list of
        tuples its leading predicate can accept (all of them when it has
        none, or ``routing`` is off) and skips its guard for those the
        index accepted with a verdict; left with none, it folds in an
        empty delta without building anything.  With ``share_groups`` off
        every member keys its own windows, takes all their tuples and
        runs every guard and body itself.  The watermark and epoch guards run in
        :class:`~repro.streams.continuous.ContinuousQuery`, so neither
        producer can change what gets evaluated.
        """
        plan = entry.plan
        if plan is None:
            return None
        engine = entry.query.engine
        store = engine.stores.get(plan.stream)
        if store is None:
            return None
        automaton = entry.automaton
        group = entry.group_key if self.share_groups else id(entry)
        index = self._indexes.get(entry.group_key) if self.share_groups else None

        def source(watermark_seq: int, context: Callable) -> Optional[tuple]:
            key = (group, watermark_seq, store.seq, store.mutation_epoch)
            window = self._tick_windows.get(key)
            if window is None:
                window = self._tick_windows[key] = DeltaWindow(
                    store, plan, watermark_seq, self._shared_residual
                )
            if not window.applicable:
                return None
            if not window.fresh:
                return [], []
            if window.tuples is not None:
                self._prefix_reuses += 1
            else:
                if automaton is not None:
                    window.tuples = engine.automaton_host.answer(
                        automaton, window.fresh, store
                    )
                    if window.tuples is not None:
                        entry.automaton_runs += 1
                        self._automaton_runs += 1
                    else:
                        entry.automaton_fallbacks += 1
                        self._automaton_fallbacks += 1
                if window.tuples is None:
                    window.scan(engine, context())
                    self._prefix_runs += 1
                if index is not None:
                    window.partition = index.partition(window.tuples)
                    self._tuple_probes += index.shapes * len(window.tuples)
            tuples = window.tuples
            partition = window.partition
            accepted = partition.get(id(entry)) if partition is not None else None
            if accepted is not None:
                self._tuples_pruned += len(tuples) - len(accepted)
                tuples = accepted
            if not tuples:
                return [], []  # nothing to fold in: no context, no residual
            undecided = (
                None  # nobody looked at this member's tuples
                if accepted is None
                else partition.undecided.get(id(entry), _ALL_DECIDED)
            )
            return window.residual(plan, tuples, context, undecided)

        return source

    # -- statistics ---------------------------------------------------------------------

    def _host_totals(self) -> dict[str, int]:
        """Automaton-host counters summed across the watched engines."""
        totals: dict[str, int] = {}
        for engine in self._watched:
            host = getattr(engine, "automaton_host", None)
            if host is None:
                continue
            for key, value in host.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def total_evaluations(self) -> int:
        return sum(entry.evaluations for entry in self._entries)

    @property
    def total_skips(self) -> int:
        return sum(entry.skips for entry in self._entries)

    @property
    def total_delta_runs(self) -> int:
        return sum(entry.delta_runs for entry in self._entries)

    @property
    def total_full_runs(self) -> int:
        return sum(entry.full_runs for entry in self._entries)

    @property
    def total_shared_runs(self) -> int:
        return sum(entry.shared_runs for entry in self._entries)

    def stats(self) -> dict:
        """Counters for reporting: totals plus a per-query breakdown.

        Each ``queries`` entry identifies the query by its XCQL source and
        reports how often the scheduler ran vs. skipped it — the ablation
        A3b denominator, now attributable per standing query — and how the
        runs split between shared (``shared_runs``), solo incremental
        (``delta_runs``) and full-scan (``full_runs``) evaluations
        (ablations A10/A11).  ``routing`` reports the per-group tuple
        index: ``registered`` members filed in one, ``tuple_probes``
        (operand extractions: one per binding tuple per predicate shape)
        and ``tuples_pruned`` (tuple × member pairs no residual had to
        look at); ``shared_prefix``
        reports group-scan economy (each reuse is one avoided delta scan);
        ``shared_residual`` what the residuals' two halves cost — guards
        the index's verdict made unnecessary vs. guards run, bodies
        evaluated vs. answered from a co-member's run of the same body
        over the same tuple; ``groups`` maps each shared group to its
        member count.
        """
        return {
            "evaluations": self.total_evaluations,
            "skips": self.total_skips,
            "delta_runs": self.total_delta_runs,
            "full_runs": self.total_full_runs,
            "shared_runs": self.total_shared_runs,
            "notifications": self._notifications,
            "routing": {
                "registered": sum(len(index) for index in self._indexes.values()),
                "tuple_probes": self._tuple_probes,
                "tuples_pruned": self._tuples_pruned,
            },
            "shared_prefix": {
                "runs": self._prefix_runs,
                "reuses": self._prefix_reuses,
            },
            "shared_residual": dict(self._shared_residual),
            "automata": {
                "registered": sum(
                    1 for entry in self._entries if entry.automaton is not None
                ),
                "runs": self._automaton_runs,
                "fallbacks": self._automaton_fallbacks,
                # The watched engines' AutomatonHost counters, merged into
                # this one view so capture/decline/epoch-reset economy is
                # readable next to routing and shared-prefix stats (and
                # through `repro-xcql --stats`) without visiting each
                # engine separately.
                "host": self._host_totals(),
            },
            "groups": {
                " ".join(str(part) for part in key[1:]): len(members)
                for key, members in sorted(
                    self._groups.items(), key=lambda item: str(item[0])
                )
            },
            "queries": [
                {
                    "source": entry.query.source,
                    "evaluations": entry.evaluations,
                    "skips": entry.skips,
                    "delta_runs": entry.delta_runs,
                    "full_runs": entry.full_runs,
                    "shared_runs": entry.shared_runs,
                    "automaton_runs": entry.automaton_runs,
                    "automaton_fallbacks": entry.automaton_fallbacks,
                }
                for entry in self._entries
            ],
        }
