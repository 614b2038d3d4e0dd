"""Continuous query execution over fragment streams.

A :class:`ContinuousQuery` is compiled once (through the Figure 3
translation) and re-evaluated as fragments arrive and as ``now`` moves.
Each evaluation produces the query's full answer at that instant; in
``delta`` mode only results not emitted before are pushed to subscribers,
turning the re-evaluations into a continuous *output stream* (paper §10:
"temporal queries ... produce a continuous output stream").

Result identity is the serialized form of each item, so a re-appearing
answer (same account flagged again with identical content) is emitted only
once; ``full`` mode re-emits everything each run.

With ``incremental=True`` (the default) delta-safe plans — classified and
split at compile time by the pipeline's ``incremental`` pass and read off
``CompiledQuery.info`` (see :mod:`repro.core.pipeline`) — are not re-run
over the whole store on every tick.  The query keeps its last result and a store
watermark ``(seq, mutation_epoch)``; a re-evaluation is then *tuple source
→ residual*: the binding tuples of the fillers past the watermark, run
through the plan's residual (*guard ∘ body*, tuple by tuple — see
:meth:`DeltaWindow.residual`), appended to the retained result.  The
tuple source is the plan's prefix over those fillers — scanned by the
query itself, or by a :class:`~repro.streams.scheduler.QueryScheduler`
that worked the window out once for the query's whole group (a query on
its own is a group of one) and lets the group's members share what a
tuple's body built.  Either way the run is booked by one method,
:meth:`ContinuousQuery.fold`.  Runtime guards fall back to a full
re-evaluation whenever the delta could diverge: after ``prune_before`` /
``clear`` / a Tag Structure swap (the mutation epoch moved), and when a
non-event fragment id receives another version (the new version closes
the previous version's ``vtTo``, mutating retained annotations).  The
incremental answer equals the full one as a multiset; out-of-order
arrivals into existing fragments may permute document order, which the
serialized-identity emission dedup absorbs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.engine import CompiledQuery, XCQLEngine
from repro.core.translator import Strategy
from repro.dom.nodes import Element, Node, copier
from repro.dom.serializer import serialize
from repro.fragments.tagstructure import TagType
from repro.temporal.chrono import XSDateTime
from repro.xquery.xdm import string_value

__all__ = ["ContinuousQuery", "DeltaWindow", "delta_applicable", "item_identity"]


class ContinuousQuery:
    """One standing XCQL query over an engine's streams.

    ``incremental`` enables the incremental evaluation path for delta-safe
    plans (full-scan plans are unaffected); ``seen_cap`` bounds the
    delta-emission dedup memory (``None`` = unbounded): when more than
    ``seen_cap`` distinct result identities have been emitted, the oldest
    are forgotten — a forgotten answer that re-appears is emitted again.
    """

    def __init__(
        self,
        engine: XCQLEngine,
        source: str,
        strategy: Strategy = Strategy.QAC,
        emit: str = "delta",
        backend: Optional[str] = None,
        incremental: bool = True,
        seen_cap: Optional[int] = None,
    ):
        if emit not in ("delta", "full"):
            raise ValueError("emit must be 'delta' or 'full'")
        if seen_cap is not None and seen_cap < 1:
            raise ValueError("seen_cap must be a positive integer or None")
        self.engine = engine
        self.source = source
        self.strategy = strategy
        self.emit = emit
        self.incremental = incremental
        self.seen_cap = seen_cap
        # Compiles through the engine's plan cache: with the default
        # "compiled" backend every re-evaluation runs the closure plan —
        # no parse, translate, or AST dispatch per tick.
        self.compiled: CompiledQuery = engine.compile(source, strategy, backend=backend)
        self.subscribers: list[Callable[[list], None]] = []
        self.evaluations = 0
        self.skips = 0  # polls a scheduler decided not to re-evaluate
        self.full_runs = 0  # evaluations that re-scanned the whole store
        self.delta_runs = 0  # incremental evaluations over the query's own scan
        self.shared_runs = 0  # incremental evaluations fed by a scheduler's group
        self.emitted_total = 0
        self.seen_evictions = 0
        self.last_mode: Optional[str] = None  # "full" | "delta" | "shared"
        # Insertion-ordered so the cap evicts the oldest identity first.
        self._seen: dict[str, None] = {}
        # Delta state: the retained result and the store watermark
        # (seq, mutation_epoch) it is valid for — None = the next run is
        # full (no baseline yet, or it was reset).  A delta past it may be
        # folded in (fold) only while the store's epoch still equals the
        # recorded one.
        self._retained: list = []
        self.watermark: Optional[tuple[int, int]] = None
        # The answer as of the last evaluation: a full run's own list, or
        # None after an incremental run — read off _retained on demand, so
        # a run that folds in one tuple does not copy the whole answer.
        self._last_result: Optional[list] = []
        # The last emission and its identity strings (None = not worked
        # out: emit="full" never needs them itself).
        self._emitted: list = []
        self._emitted_keys: Optional[list[str]] = []

    def subscribe(self, callback: Callable[[list], None]) -> None:
        """Register a sink for emitted results."""
        self.subscribers.append(callback)

    @property
    def last_result(self) -> list:
        """The query's whole answer as of its last evaluation."""
        if self._last_result is None:
            self._last_result = list(self._retained)
        return self._last_result

    @property
    def last_emitted_identities(self) -> list[str]:
        """:func:`item_identity` of each item of the last emission, in order.

        The strings the emission was deduplicated on, for consumers that
        merge answers across processes (the shard worker ships them) —
        asking here does not serialize the items a second time.
        """
        if self._emitted_keys is None:
            self._emitted_keys = [_identity(item) for item in self._emitted]
        return self._emitted_keys

    @property
    def watermark_seq(self) -> Optional[int]:
        """The store sequence this query has folded in (``None`` = unset).

        The scheduler uses it to prune automaton captures every standing
        query has already consumed.
        """
        return self.watermark[0] if self.watermark is not None else None

    def evaluate(self, now: Optional[XSDateTime] = None) -> list:
        """Run the query at ``now`` and emit per the emission mode.

        Returns the emitted items (delta mode: the new ones only).  A
        delta-safe plan whose watermark still holds folds in what its own
        :class:`DeltaWindow` adds (:meth:`fold`, counted as a
        ``delta_run``); anything else re-runs over the whole store
        (:meth:`refresh`).
        """
        window = self._window()
        if window is None:
            return self.refresh(now)
        if not window.fresh:
            return self.fold((), (), window.end, "delta")
        context = self.engine.build_context(now=now)
        items, keys = window.residual(
            window.plan, window.scan(self.engine, context), context
        )
        return self.fold(items, keys, window.end, "delta")

    def refresh(self, now: Optional[XSDateTime] = None) -> list:
        """A full run at ``now``: re-evaluate over the whole store and emit.

        The run's answer becomes the retained one, valid at the store's
        current watermark.
        """
        self.watermark = None
        result = self.engine.execute(self.compiled, now=now)
        self.evaluations += 1
        self.full_runs += 1
        self.last_mode = "full"
        self._remember(result)
        self._last_result = result
        return self._emit(result, None)

    def fold(self, items, keys, end: tuple[int, int], mode: str = "shared") -> list:
        """Fold a computed delta in, move the watermark to ``end`` and emit.

        ``items`` is what the fillers between :attr:`watermark` and ``end``
        add to the answer and ``keys`` their :func:`item_identity`
        strings — the residual over their binding tuples, worked out by
        the query's own window (``mode="delta"``, :meth:`evaluate`) or by
        a scheduler settling the query's whole group (``"shared"``).  The
        caller has checked that the delta may be folded in: the epoch
        still holds and the window is :func:`delta_applicable`.  This is
        the one place an incremental run is booked: the counters,
        ``last_mode``, the retained answer, the emission dedup and the
        subscribers.
        """
        self.evaluations += 1
        if mode == "shared":
            self.shared_runs += 1
        else:
            self.delta_runs += 1
        self.last_mode = mode
        self.watermark = end
        self._last_result = None
        if items:
            self._retained.extend(items)
        if self.emit == "full" or self.seen_cap is not None:
            # A seen_cap may have evicted retained identities, and full
            # emission re-emits everything: both read the whole answer,
            # as a full run would.
            return self._emit(self._retained, None)
        # Every retained item's identity is already in _seen (each
        # earlier run emitted from its whole answer or from a delta
        # folded in here), so only the delta items can be fresh.
        if not items:
            self._emitted, self._emitted_keys = [], []
            return self._emitted
        return self._emit(items, keys)

    def _emit(self, candidates, keys: Optional[list]) -> list:
        """Emit per the mode; ``keys`` are the candidates' identities, if known."""
        if self.emit == "full":
            fresh, fresh_keys = list(candidates), None
        else:
            if keys is None:
                keys = [_identity(item) for item in candidates]
            fresh, fresh_keys = [], []
            seen = self._seen
            for item, key in zip(candidates, keys):
                if key not in seen:
                    seen[key] = None
                    fresh.append(item)
                    fresh_keys.append(key)
            if self.seen_cap is not None:
                while len(seen) > self.seen_cap:
                    seen.pop(next(iter(seen)))
                    self.seen_evictions += 1
        self._emitted, self._emitted_keys = fresh, fresh_keys
        if fresh:
            self.emitted_total += len(fresh)
            for subscriber in self.subscribers:
                subscriber(fresh)
        return fresh

    # -- the query's own delta window ---------------------------------------------------

    def _plan_and_store(self) -> tuple:
        """The query's incremental plan and the store it reads, if both exist."""
        plan = self.engine.prepare_incremental(self.compiled)
        store = self.engine.stores.get(plan.stream) if plan is not None else None
        return plan, store

    def _window(self) -> Optional["DeltaWindow"]:
        """The arrivals past this query's watermark, or ``None`` to run full.

        ``None`` on a first (baseline) run, after ``prune_before`` /
        ``clear`` / a schema swap rewrote history (the mutation epoch
        moved: retained tuples may reference dropped or re-annotated
        versions), and when the arrivals cannot be folded in
        (:func:`delta_applicable`).
        """
        if not self.incremental or self.watermark is None:
            return None
        plan, store = self._plan_and_store()
        if store is None:
            return None
        seq, epoch = self.watermark
        if store.mutation_epoch != epoch:
            return None
        window = DeltaWindow(store, plan, seq)
        return window if window.applicable else None

    def _remember(self, result: list) -> None:
        """After a full run, reset the retained state and watermark."""
        if not self.incremental:
            return
        _, store = self._plan_and_store()
        if store is None:
            return
        self._retained = list(result)
        self.watermark = store.watermark

    def reset(self) -> None:
        """Forget emission history (delta mode starts over)."""
        self._last_result = self.last_result  # still the last answer
        self._seen.clear()
        self.emitted_total = 0
        self.seen_evictions = 0
        self._retained = []
        self.watermark = None

    def stats(self) -> dict[str, int]:
        """This query's lifetime counters.

        ``skips`` counts scheduler polls that decided the answer could not
        have changed (no dependent arrivals, clock irrelevant); a query
        evaluated directly never accrues skips.  ``delta_runs`` +
        ``shared_runs`` of the ``evaluations`` were served incrementally
        (over the query's own scan / a scheduler's group window;
        ``full_runs`` re-scanned the store); ``seen_size`` /
        ``seen_evictions`` report the bounded emission-dedup memory.
        """
        return {
            "evaluations": self.evaluations,
            "skips": self.skips,
            "full_runs": self.full_runs,
            "delta_runs": self.delta_runs,
            "shared_runs": self.shared_runs,
            "emitted": self.emitted_total,
            "seen_size": len(self._seen),
            "seen_evictions": self.seen_evictions,
        }

    def __repr__(self) -> str:
        return (
            f"<ContinuousQuery {self.strategy.value} emit={self.emit}"
            f" evaluations={self.evaluations}>"
        )


class DeltaWindow:
    """The arrivals past one watermark on one incremental plan's source.

    ``fresh`` is the arrival-ordered filler list, ``end`` the store
    watermark it reaches (what a member that folds it in records),
    ``applicable`` the :func:`delta_applicable` verdict over it,
    ``tuples`` the binding tuples once somebody has produced them
    (:meth:`scan`, or a scheduler answering from event captures),
    ``partition`` a scheduler's split of them among the members its
    group index filed and ``results`` what the bodies run so far built
    from them (:meth:`residual`).  A function of the store and the plan's
    source alone, so a scheduler builds one per group and watermark, not
    one per member.  ``tally`` counts the residual's work
    (``guards_skipped`` / ``guards_run`` / ``body_runs`` /
    ``body_reuses``) into a dict the caller owns.  What a body built
    stays private to the window: members get copies of it.
    """

    __slots__ = ("store", "plan", "seq", "end", "fresh", "applicable", "tuples",
                 "partition", "results", "tally")

    def __init__(self, store, plan, seq: int, tally: Optional[dict] = None) -> None:
        self.store = store
        self.plan = plan
        self.seq = seq
        self.end = store.watermark
        self.fresh = store.fillers_since(
            seq, tsid=plan.tsid, filler_id=plan.filler_id
        )
        self.applicable = delta_applicable(store, plan.binds_versions, self.fresh)
        self.tuples: Optional[list] = None
        self.partition = None  # a routing.Partition: id(member) -> its sub-list
        # (body_key, id(tuple)) -> (items, how to hand each on, their
        # identity strings); see _hand_on
        self.results: dict[tuple, tuple] = {}
        self.tally = tally

    def residual(self, plan, tuples: list, context,
                 undecided: Optional[set] = None) -> tuple[list, list]:
        """One member's residual over ``tuples`` in ``context``: ``(items, identities)``.

        *guard ∘ body*, tuple by tuple, in the order the member's own
        FLWOR would have run them — so whichever raises first still does.
        ``undecided`` is what a group's predicate index said about these
        tuples: ``None`` = nothing (every guard runs), otherwise the
        ``id`` s of the tuples it passed through without a verdict — the
        guard runs for those and is skipped for the rest, which the index
        accepted exactly.  A body runs once per tuple for every member
        that spells it (``plan.body_key``), and what it built stays with
        the window: every member, the first included, gets copies of the
        constructed elements — copy-on-touch where only elements and text
        lie below, eager otherwise — with the identity strings already
        worked out, so no consumer holds the source the others' untouched
        copies read through.  Bound nodes of the tuple's own tree and
        atomic values are shared, as they always were.  Items a copy
        cannot stand for — an attribute, a node inside a constructed tree
        — make every member run the body itself.
        """
        guard, body, body_key = plan.guard, plan.body, plan.body_key
        results = self.results
        items: list = []
        keys: list = []
        skipped = guards = built = reused = 0
        for item in tuples:
            if guard is not None:
                if undecided is None or id(item) in undecided:
                    guards += 1
                    if not guard(context, item):
                        continue
                else:
                    skipped += 1
            memo = (body_key, id(item))
            known = results.get(memo)
            if known is not None and known[1] is not None:
                reused += 1
                source, makers, produced_keys = known
            else:
                built += 1
                source = body(context, (item,))
                produced_keys = [_identity(node) for node in source]
                makers = None
                if known is None:
                    makers = _hand_on(source, item)
                    results[memo] = (source, makers, produced_keys)
            produced = source if makers is None else _copy(source, makers)
            items.extend(produced)
            keys.extend(produced_keys)
        tally = self.tally
        if tally is not None:
            tally["guards_skipped"] += skipped
            tally["guards_run"] += guards
            tally["body_runs"] += built
            tally["body_reuses"] += reused
        return items, keys

    def scan(self, engine: XCQLEngine, context) -> list:
        """Bind the window's tuples: the plan's prefix over wrapper DOMs.

        The wrapper batch (a DOM build over ``fresh``) is memoized in the
        store, so windows of different groups over one source at one
        watermark build it once per tick.
        """
        _, wrappers = self.store.delta_batch(
            self.seq, tsid=self.plan.tsid, filler_id=self.plan.filler_id
        )
        self.tuples = engine.execute_prefix(self.plan, wrappers, context)
        return self.tuples


def delta_applicable(store, binds_versions: bool, fresh: list) -> bool:
    """Runtime guards the static analysis cannot decide.

    A batch may be incrementally folded in unless some arriving
    fragment id already had versions *before* the batch and either
    (a) the plan binds whole wrappers — the retained tuples computed
    from the old, shorter wrapper are stale — or (b) the fragment is
    not an event, so the new version closes the previous version's
    open ``vtTo`` (temporal) or retracts it outright (snapshot),
    mutating annotations the retained result already incorporates.
    Event lifespans are position-independent (``vtFrom = vtTo`` = own
    validTime), so shared event holes — many events reusing one
    filler id — stay on the delta path.
    """
    counts: dict[int, int] = {}
    for filler in fresh:
        counts[filler.filler_id] = counts.get(filler.filler_id, 0) + 1
    for filler in fresh:
        if store.version_count(filler.filler_id) <= counts[filler.filler_id]:
            continue  # a brand-new fragment id
        if not binds_versions:
            return False
        if store.tag_type_of(filler.tsid) is not TagType.EVENT:
            return False
    return True


def _hand_on(items: list, bound: object) -> Optional[list]:
    """How each member gets its own copy of what a body built from ``bound``.

    Per item: ``None`` to hand it on as it is — an atomic value or a node
    of the tuple's own tree — or the :func:`~repro.dom.nodes.copier` of a
    detached element, what a constructor returns, which no member ever
    receives itself.  ``None`` overall when some item has no faithful
    copy (an attribute, a node inside a constructed tree): every member
    then runs the body itself.
    """
    root = bound.root() if isinstance(bound, Node) else None
    makers: list = []
    for item in items:
        maker = None
        if isinstance(item, Node):
            top = item.root()
            if top is not root:
                if top is not item or not isinstance(item, Element):
                    return None
                maker = copier(item)
        makers.append(maker)
    return makers


def _copy(items: list, makers: list) -> list:
    return [item if make is None else make() for item, make in zip(items, makers)]


def _identity(item: object) -> str:
    if isinstance(item, Node):
        return serialize(item)
    return f"{type(item).__name__}:{string_value(item)}"


def item_identity(item: object) -> str:
    """The emission-dedup identity of a result item.

    This is the exact string :class:`ContinuousQuery` dedups on, exposed
    for consumers that compare or merge answers *across* queries or
    processes — the sharded coordinator ships worker emissions as these
    strings, so its cross-shard dedup agrees byte-for-byte with the
    single-process one.
    """
    return _identity(item)
