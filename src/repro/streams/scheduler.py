"""Scheduling of continuous-query re-evaluation (paper §8 future work).

The paper re-evaluates every standing query on every poll and defers
"scheduling the fragments through the XCQL query tree" (Aurora-style
operator scheduling) to future work.  This module implements the practical
core of that idea at the granularity of groups of same-prefix queries:

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
  filler id, prefix source)``.  A poll is a loop over groups: each
  group settles once per tick, with one delta window per distinct
  member watermark, one tuple production and one evaluation context,
  so N same-source queries cost one delta scan plus the residuals of
  the members that received a tuple instead of N scans.  A query with
  nobody to share with is a group of one: same window, same settle.
- **Group predicate index.**  A query whose residual leads with a
  literal-comparable conjunct (``$t/amount > 50``) is filed under it in
  its group's :class:`repro.streams.routing.TupleIndex` at registration,
  sorted by the literal among the members whose predicates differ only
  there.  A tick extracts the operand once per tuple and hands each
  member the order-preserving sub-list its literal accepts; the
  partition lists only the members it fed, and a filed member it
  leaves out is folded in O(1) — :meth:`ContinuousQuery.fold` of an
  empty delta moves its watermark, and no closure, context, store
  lookup or residual call is made for it.
- **Shared residual.**  A residual is *guard ∘ body* (see
  :func:`repro.core.optimizer.analyze_delta`): the guard is that same
  conjunct, so a tuple the index accepted with a verdict — not one it
  merely passed through undecided — skips it; and the body is run once
  per tuple for all the members that spell it, the others receiving
  copies of the constructed items and their identity strings
  (:meth:`repro.streams.continuous.DeltaWindow.residual`).

The settle is the one driver of an incremental standing query: a query
evaluated on its own (:meth:`ContinuousQuery.evaluate`) is settled as a
group of one (:func:`run_alone`).  Every incremental run is booked by
the query itself (:meth:`ContinuousQuery.fold`: counters, retained
answer, emission dedup, subscribers) and every full run by
:meth:`ContinuousQuery.refresh`; the scheduler sets no private state of
a query and keeps none of its run counters — :meth:`QueryScheduler.stats`
reads the members' own.  Re-evaluations run each
query's cached :class:`CompiledQuery` — with the default ``"compiled"``
backend that is a closure plan (see :mod:`repro.xquery.compiler`), so a
poll tick pays zero parse/translate and zero AST dispatch.  The saved
evaluations are counted, which ablations A3b and A11 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.engine import CompiledQuery, IncrementalPlan
from repro.streams.continuous import ContinuousQuery, DeltaWindow
from repro.streams.routing import TupleIndex
from repro.temporal.chrono import XSDateTime
from repro.xquery import xast

__all__ = ["QueryDependencies", "dependencies_of", "QueryScheduler"]

ALL_TSIDS = "*"
_ALL_DECIDED: frozenset = frozenset()  # the index had a verdict for every tuple
_NOTHING = ()  # the empty delta a member left without tuples folds in
#: The query's own run counters (ContinuousQuery.stats) the scheduler reports.
_RUN_COUNTERS = ("evaluations", "skips", "delta_runs", "full_runs", "shared_runs")


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
    filed: bool = False  # in its group's tuple index
    last_now: Optional[XSDateTime] = None
    automaton_runs: int = 0       # wakes answered from event captures
    automaton_fallbacks: int = 0  # declines that took the DOM prefix scan


class _Group:
    """The members one tick settles together.

    A shared group (one ``group_key``), one member on its own
    (``share_groups`` off), or the entries without an incremental plan
    (``plan`` is ``None``: their every run is full).  ``index`` is the
    tuple index the settle splits the group's tuples with, ``watching``
    the members that answer wakes from an automaton's captures, ``floor``
    the lowest watermark seq those hold (``None`` = not known since the
    last settle: read it off the members) and ``mode`` what an
    incremental run is booked as (``"delta"`` for a query nobody
    schedules, :func:`run_alone`).
    """

    __slots__ = ("members", "plan", "engine", "index", "watching", "floor", "mode")

    def __init__(self, members: list, index: Optional[TupleIndex] = None,
                 mode: str = "shared") -> None:
        self.members = members
        self.plan = members[0].plan
        self.engine = members[0].query.engine
        self.index = index
        self.mode = mode
        self.watching = [entry for entry in members if entry.automaton is not None]
        self.floor: Optional[int] = None


#: What a member settled on its own depends on: nothing — it is always woken.
_WOKEN = QueryDependencies(frozenset(), False)


def run_alone(query: ContinuousQuery, now: Optional[XSDateTime]) -> list:
    """Settle ``query`` at ``now`` as a group of one that nobody schedules.

    :meth:`ContinuousQuery.evaluate`: the one member is always woken and
    has no automaton and no index; an incremental run is booked as
    ``"delta"``.  Returns its emission.
    """
    plan = query.engine.prepare_incremental(query.compiled)
    entry = _Entry(query, _WOKEN, plan)
    emitted: dict[ContinuousQuery, list] = {}
    QueryScheduler()._settle(_Group([entry], mode="delta"), now, {entry}, emitted)
    return emitted[query]


class QueryScheduler:
    """Skips re-evaluation of queries whose inputs did not change.

    Pass ``engine`` (or call :meth:`watch_engine`) to receive arrival
    notifications automatically from every :meth:`XCQLEngine.feed` — no
    hand-plumbed ``notify_arrival`` calls.  An incremental query the
    scheduler runs is settled with its group (:meth:`_settle`);
    :meth:`poll` records per query whether the run was incremental
    (``shared``), a full re-evaluation, or a skip.

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
        # The dispatch order, worked out on the first poll after an
        # add/remove: the groups a tick settles, and per automaton the
        # groups whose floors bound what its host may forget.
        self._dispatch: Optional[list[_Group]] = None
        self._pruning: list[tuple] = []
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
            if self.routing and plan.routing is not None:
                index = self._indexes.get(entry.group_key) or TupleIndex()
                if index.add(entry, plan.routing):
                    self._indexes[entry.group_key] = index
                    entry.filed = True
        self._entries.append(entry)
        self._dispatch = None
        return dependencies

    def remove(self, query: ContinuousQuery) -> bool:
        """Stop tracking a query; returns whether it was tracked.

        Group co-members simply shrink their group; the group's tuple
        index forgets the query's predicate.
        """
        for entry in self._entries:
            if entry.query is query:
                self._entries.remove(entry)
                self._dispatch = None
                for key in entry.dependencies.streams:
                    watching = self._watchers[key]
                    watching.discard(entry)
                    if not watching:
                        del self._watchers[key]
                if entry.automaton is not None:
                    query.engine.automaton_host.unregister(
                        entry.automaton, query.compiled.info.projection
                    )
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
        """Re-evaluate exactly the queries whose answer can have changed.

        Returns every tracked query's emission, in dispatch order (see
        :meth:`_groups_in_order`): ``[]`` for the queries skipped.
        """
        emitted: dict[ContinuousQuery, list] = {}
        # Taken, not cleared afterwards: what a subscriber feeds during
        # this tick wakes its watchers on the next one.
        arrivals, self._arrivals = self._arrivals, set()
        woken = self._woken(arrivals)
        for group in self._groups_in_order():
            self._settle(group, now, woken, emitted)
        if self.stream_automata:
            self._prune_automata()
        return emitted

    def _groups_in_order(self) -> list[_Group]:
        """The groups a tick settles, in deterministic dispatch order.

        Shared groups run first, sorted on ``group_key`` — excluding the
        leading ``id(engine)`` discriminator, which is not stable across
        runs or processes — then the entries without an incremental plan
        in registration order.  The sort is stable, so registration order
        breaks ties within and across equal keys.  Without this, tick
        output ordering depended on dict insertion history, which differs
        between a single process and the sharded coordinator's per-worker
        schedulers; a deterministic order is what lets the coordinator's
        merge compare per-shard answers positionally.  Worked out on the
        first poll after an ``add`` / ``remove``, not per poll.
        """
        if self._dispatch is None:
            groups: list[_Group] = []
            for key in sorted(
                self._groups, key=lambda k: tuple(str(part) for part in k[1:])
            ):
                members = self._groups[key]
                if self.share_groups:
                    groups.append(_Group(list(members), self._indexes.get(key)))
                else:
                    groups.extend(_Group([entry]) for entry in members)
            planless = [entry for entry in self._entries if entry.group_key is None]
            if planless:
                groups.append(_Group(planless))
            pruning: dict[tuple, tuple] = {}
            for group in groups:
                if group.watching:
                    entry = group.watching[0]
                    engine = entry.query.engine
                    pruning.setdefault(
                        (id(engine), entry.automaton), (engine, entry.automaton, [])
                    )[2].append(group)
            self._pruning = list(pruning.values())
            self._dispatch = groups
        return self._dispatch

    def _prune_automata(self) -> None:
        """Drop automaton captures every watching query has consumed."""
        for engine, automaton, groups in self._pruning:
            floor = None
            for group in groups:
                if group.floor is None:
                    group.floor = min(
                        entry.query.watermark_seq or 0 for entry in group.watching
                    )
                if floor is None or group.floor < floor:
                    floor = group.floor
            engine.automaton_host.prune(automaton, floor)

    def _woken(self, arrivals: set) -> set:
        """The entries some of ``arrivals`` can have changed."""
        woken: set[_Entry] = set()
        watchers = self._watchers
        for stream, tsid in arrivals:
            woken.update(watchers.get((stream, tsid), ()))
            woken.update(watchers.get((stream, ALL_TSIDS), ()))
        return woken

    def _settle(self, group: _Group, now: XSDateTime, woken: set, emitted: dict) -> None:
        """Run the group's members that can have changed, in member order.

        Members at one watermark share one :class:`DeltaWindow`: one
        fresh-filler scan and applicability verdict, one tuple production
        and one split by the group's index.  A member at an older
        watermark (it joined late, or was skipped) pays one catch-up
        window from there.  A member folds in its residual over the
        tuples it was handed (:meth:`ContinuousQuery.fold`); one the
        index gave nothing folds in an empty delta — no context, no
        residual, nothing built.  Whatever the window cannot settle — a
        first (baseline) run, a moved mutation epoch, a window that is
        not :func:`~repro.streams.continuous.delta_applicable`, a query
        with no plan or store — re-runs in full
        (:meth:`ContinuousQuery.refresh`).
        """
        plan = group.plan
        store = group.engine.stores.get(plan.stream) if plan is not None else None
        # member watermark -> its window (None: the member runs full)
        windows: dict[Optional[tuple], Optional[DeltaWindow]] = {}
        mark = window = None  # the last member's watermark and its window
        context = None  # one evaluation context per settle, built on first use
        ran = False
        folded = 0  # members answering from captures that folded a window in
        for entry in group.members:
            query = entry.query
            if not (
                entry in woken
                or entry.last_now is None  # the first poll establishes a baseline
                or (entry.dependencies.time_sensitive and now != entry.last_now)
            ):
                query.skips += 1
                emitted[query] = []
                entry.last_now = now
                continue
            ran = True
            if query.watermark is not mark:
                mark = query.watermark
                if mark in windows:
                    window = windows[mark]
                else:
                    window = None
                    if store is not None and mark is not None and (
                        mark[1] == store.mutation_epoch
                    ):
                        window = DeltaWindow(store, plan, mark[0], self._shared_residual)
                        if not window.applicable:
                            window = None
                    windows[mark] = window
            if window is None:
                emitted[query] = query.refresh(now)
            else:
                partition = window.partition
                if partition is not None and entry.filed and id(entry) not in partition:
                    # The index gave it nothing: an empty delta, nothing built.
                    self._prefix_reuses += 1
                    self._tuples_pruned += len(window.tuples)
                    emitted[query] = query.fold(_NOTHING, _NOTHING, window.end, group.mode)
                elif window.fresh:
                    emitted[query], context = self._fold(
                        group, entry, window, now, context
                    )
                else:
                    emitted[query] = query.fold(_NOTHING, _NOTHING, window.end, group.mode)
                if entry.automaton is not None:
                    folded += 1
            entry.last_now = now
        if ran:
            # When every member answering from captures folded the one
            # window in, they all hold its end: the floor its host may
            # prune to.  Otherwise it is read off the members.
            group.floor = None
            if folded == len(group.watching) and len(windows) == 1:
                (only,) = windows.values()
                if only is not None:
                    group.floor = only.end[0]

    def _fold(self, group: _Group, entry: _Entry, window: DeltaWindow, now,
              context) -> tuple[list, object]:
        """Fold one member's share of a window with fresh arrivals in.

        The window's binding tuples are produced once, by the first
        member that needs them, from one of two producers tried in order:

        1. the engine's automaton host — event captures recorded at
           ``feed_raw`` ingest answer the wake with zero DOM work;
        2. the plan's prefix scan over the window's wrapper DOMs, which
           every automaton decline falls back to;

        and split by the group's index.  The member's residual sees the
        sub-list its leading predicate can accept (all of the tuples when
        it is not filed, or ``routing`` / ``share_groups`` is off) and
        skips its guard for those the index accepted with a verdict.
        ``context`` is the settle's evaluation context, ``None`` until a
        scan or a residual needs it; returns the member's emission and
        the context.
        """
        query = entry.query
        if window.tuples is None:
            engine = group.engine
            automaton = entry.automaton
            if automaton is not None:
                window.tuples = engine.automaton_host.answer(
                    automaton, window.fresh, window.store
                )
                if window.tuples is not None:
                    entry.automaton_runs += 1
                    self._automaton_runs += 1
                else:
                    entry.automaton_fallbacks += 1
                    self._automaton_fallbacks += 1
            if window.tuples is None:
                if context is None:
                    context = engine.build_context(now=now)
                window.scan(engine, context)
                self._prefix_runs += 1
            index = group.index
            if index is not None:
                window.partition = index.partition(window.tuples)
                self._tuple_probes += index.shapes * len(window.tuples)
        else:
            self._prefix_reuses += 1
        tuples = window.tuples
        undecided = None  # nobody looked at this member's tuples
        partition = window.partition
        if partition is not None and entry.filed:
            accepted = partition.get(id(entry))
            if accepted is None:
                # The index gave it nothing: fold in an empty delta.
                self._tuples_pruned += len(tuples)
                return query.fold(_NOTHING, _NOTHING, window.end, group.mode), context
            self._tuples_pruned += len(tuples) - len(accepted)
            undecided = partition.undecided.get(id(entry), _ALL_DECIDED)
            tuples = accepted
        if not tuples:
            return query.fold(_NOTHING, _NOTHING, window.end, group.mode), context
        if context is None:
            context = group.engine.build_context(now=now)
        items, keys = window.residual(entry.plan, tuples, context, undecided)
        return query.fold(items, keys, window.end, group.mode), context

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

    def _total(self, counter: str) -> int:
        """One run counter summed over the members' own :meth:`ContinuousQuery.stats`."""
        return sum(entry.query.stats()[counter] for entry in self._entries)

    total_evaluations = property(lambda self: self._total("evaluations"))
    total_skips = property(lambda self: self._total("skips"))
    total_delta_runs = property(lambda self: self._total("delta_runs"))
    total_full_runs = property(lambda self: self._total("full_runs"))
    total_shared_runs = property(lambda self: self._total("shared_runs"))

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
        member count.  The run counters are the members' own
        (:meth:`ContinuousQuery.stats`), so a query that also ran outside
        this scheduler — evaluated directly, or in another scheduler —
        reports those runs too.
        """
        rows = []
        for entry in self._entries:
            counters = entry.query.stats()
            row = {"source": entry.query.source}
            row.update((counter, counters[counter]) for counter in _RUN_COUNTERS)
            row["automaton_runs"] = entry.automaton_runs
            row["automaton_fallbacks"] = entry.automaton_fallbacks
            rows.append(row)
        return {
            **{counter: sum(row[counter] for row in rows) for counter in _RUN_COUNTERS},
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
            "queries": rows,
        }
