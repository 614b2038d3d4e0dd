"""The XCQL engine: streams in, translated continuous queries out.

:class:`XCQLEngine` is the primary public entry point of the library.  It
owns a registry of named streams (each a
:class:`~repro.fragments.store.FragmentStore` plus its Tag Structure),
compiles XCQL queries under one of the paper's three execution strategies,
and evaluates them against the current fragment state at a given ``now``.

Typical use::

    engine = XCQLEngine()
    engine.register_stream("credit", tag_structure)
    engine.feed("credit", fillers)
    query = engine.compile('for $a in stream("credit")//account ...')
    result = engine.execute(query, now=clock.now())
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from weakref import WeakValueDictionary
from typing import Callable, Iterable, Optional, Union

from repro.dom.nodes import Document, Element
from repro.dom.parser import EventParser, build_fragment_indexed
from repro.fragments.assemble import temporalize
from repro.fragments.model import Filler, LazyFiller, envelope_header
from repro.fragments.store import FragmentStore
from repro.fragments.tagstructure import TagStructure, TagType
from repro.temporal.chrono import XSDateTime
from repro.core.pipeline import (
    DELTA_VAR,
    SHARED_VAR,
    PassManager,
    PassOptions,
    PlanInfo,
)
from repro.core.translator import Strategy, TranslationError
from repro.xquery import xast
from repro.xquery.automata import AutomatonMatcher, StreamAutomaton, schema_reachable
from repro.xquery.compiler import compile_delta_plan, compile_guard, compile_module
from repro.xquery.errors import XQueryDynamicError
from repro.xquery.evaluator import Context, Evaluator
from repro.xquery.parser import parse
from repro.xquery.xast import to_source
from repro.xquery.xdm import atomize_sequence

__all__ = [
    "XCQLEngine",
    "CompiledQuery",
    "IncrementalPlan",
    "Strategy",
    "AutomatonHost",
]


@dataclass
class IncrementalPlan:
    """The executable form of a delta-safe compiled query.

    ``prefix(ctx, wrappers)`` evaluates the driving binding path over
    just-arrived filler wrappers and returns the materialized binding
    tuples; the residual — the query's remaining clauses and return body
    — runs per tuple as *guard ∘ body*: ``guard(ctx, item)`` is the
    verdict of the routed ``where`` conjunct (``None`` when the plan has
    none) and ``body(ctx, tuples)`` builds the items of the tuples that
    passed.  ``body_key`` is the body's source: plans with equal keys
    share one lowered ``body`` per engine, and a scheduler runs it once
    per tuple for a whole group.  ``stream`` plus either ``tsid``
    (QaC+-style driving source) or ``filler_id`` (literal ``get_fillers``)
    identify which arrivals concern the query.  ``binds_versions`` is the
    analysis fact the runtime guard needs: whether the driving ``for``
    binds version elements (safe to fold into an existing event fragment)
    or whole wrappers (only brand-new fragment ids may be folded in).
    Queries with equal ``group_key`` bind identical tuples from identical
    arrivals, so a scheduler can run one group member's prefix per tick
    and feed every member's residual (see
    :class:`repro.streams.scheduler.QueryScheduler`); a query evaluated on
    its own is a group of one.  ``routing`` is the extracted dispatch
    predicate, when the residual has one.
    """

    stream: str
    tsid: Optional[int]
    filler_id: Optional[int]
    binds_versions: bool
    group_key: tuple
    routing: Optional[object] = None
    body_key: Optional[str] = None
    prefix: Callable = field(repr=False, compare=False, default=None)
    guard: Optional[Callable] = field(repr=False, compare=False, default=None)
    body: Callable = field(repr=False, compare=False, default=None)

    def residual(self, ctx: Context, tuples: list) -> list:
        """guard ∘ body, tuple by tuple in the order one FLWOR runs them."""
        guard, body = self.guard, self.body
        if guard is None:
            return body(ctx, tuples)
        out: list = []
        for item in tuples:
            if guard(ctx, item):
                out.extend(body(ctx, (item,)))
        return out


@dataclass
class CompiledQuery:
    """An XCQL query translated for one execution strategy.

    ``backend`` records how the query executes: ``"compiled"`` carries an
    executable closure ``plan(ctx) -> list`` lowered from the translated
    AST (zero per-node dispatch at run time); ``"interpreted"`` walks the
    AST through :class:`~repro.xquery.evaluator.Evaluator` on every run.
    """

    source: str
    strategy: Strategy
    original: xast.Module
    translated: xast.Module
    hoisted_calls: int = 0  # get_fillers folds applied by the optimizer
    backend: str = "interpreted"
    plan: Optional[Callable] = field(default=None, repr=False, compare=False)
    merge_joins: int = 0  # FLWORs lowered to sort-merge or hash joins
    # The lowered prefix/residual closures, populated lazily by
    # :meth:`XCQLEngine.prepare_incremental` (shared through the plan
    # cache — the split is a property of the translated plan, not the
    # query instance).
    incremental_plan: Optional[IncrementalPlan] = field(default=None, repr=False, compare=False)
    # Memo slot for repro.streams.scheduler.dependencies_of: the derived
    # dependencies are a property of the translated plan, so re-adding a
    # query to a scheduler (or registering it for routing) must not
    # re-walk the AST.
    dependencies_memo: Optional[object] = field(default=None, repr=False, compare=False)
    # The pass pipeline's annotations (trace, incremental verdict with its
    # routing predicate, automaton) — every engine-compiled plan carries
    # one; see :class:`repro.core.pipeline.PlanInfo`.
    info: Optional[PlanInfo] = field(default=None, repr=False, compare=False)

    @property
    def translated_source(self) -> str:
        """The translated query as XQuery text (like the paper's §6.1)."""
        return to_source(self.translated)


class XCQLEngine:
    """Compiles and runs XCQL queries over registered fragment streams.

    Queries execute on the closure-compilation backend unless a call asks
    for the AST walker (``backend="interpreted"``).  ``plan_cache_size``
    bounds the LRU plan cache that makes repeated
    ``execute(source)`` calls — and every continuous-query re-evaluation —
    skip parse/translate/lower entirely.
    """

    def __init__(
        self,
        default_now: Optional[XSDateTime] = None,
        plan_cache_size: int = 128,
        use_temporal_index: bool = True,
        merge_joins: bool = True,
    ):
        self.stores: dict[str, FragmentStore] = {}
        self.tag_structures: dict[str, TagStructure] = {}
        self.default_now = default_now or XSDateTime(2000, 1, 1)
        self.use_temporal_index = use_temporal_index
        self.merge_joins = merge_joins
        self.temporal_index = _TemporalIndexHook(self)
        self.pipeline = PassManager()
        # Bumped on register_stream: translation is schema-directed, so
        # the epoch participates in every plan-cache key (satellite fix
        # for cached plans surviving tag-structure changes).
        self._schema_epoch = 0
        self._extra_functions: dict = {}
        self._arrival_listeners: list[Callable] = []  # see add_arrival_listener
        self._plan_cache: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._plan_cache_size = max(0, int(plan_cache_size))
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._plan_cache_evictions = 0
        self._plan_cache_invalidations = 0
        # Event-automaton captures recorded by feed_raw and answered to the
        # scheduler's wake path; see AutomatonHost below.
        self.automaton_host = AutomatonHost()
        # Lowered residual bodies by IncrementalPlan.body_key: queries that
        # differ only in their guard share one closure.  Held weakly — a
        # body lives as long as some plan names it.
        self._bodies: WeakValueDictionary = WeakValueDictionary()
        self.bodies_lowered = 0
        # deliver() tallies by message kind: every delivery layer (channel
        # subscriber, network client, serve front door) funnels through
        # deliver, so these two numbers are the uniform ingest gauge the
        # merged stats report at any deployment topology.
        self.delivered = {"tag_structure": 0, "filler": 0}

    # -- stream registry ----------------------------------------------------------

    def register_stream(
        self,
        name: str,
        tag_structure: TagStructure,
        store: Optional[FragmentStore] = None,
    ) -> FragmentStore:
        """Register a stream and return its fragment store."""
        if store is None:
            store = FragmentStore(tag_structure)
        elif store.tag_structure is not None:
            # Re-registering a schema-annotated store under a (possibly
            # updated) Tag Structure must refresh its annotation caches and
            # endpoint indexes.  A store built without a tag structure keeps
            # its type-agnostic annotation semantics.
            store.set_tag_structure(tag_structure)
        self.stores[name] = store
        self.tag_structures[name] = tag_structure
        # Translation is schema-directed: cached plans may be stale now.
        # Bumping the epoch (part of every cache key) makes them
        # unreachable even for callers holding a stale reference to the
        # cache dict; the clear frees them eagerly without resetting the
        # hit/miss counters.
        self._schema_epoch += 1
        self._plan_cache_invalidations += 1
        self._plan_cache.clear()
        return store

    def feed(self, name: str, fillers: Union[Filler, Iterable[Filler]]) -> int:
        """Ingest filler(s) into a stream; returns how many were new.

        Accepted fillers are announced to registered arrival listeners
        *coalesced*: one ``(stream, tsid)`` notification per distinct tsid
        in the batch, never one per filler — an ``extend()`` of N same-tsid
        fillers fires one wake, and a duplicate the store dropped fires
        none.
        """
        store = self._store(name)
        before = store.seq
        if isinstance(fillers, Filler):
            fillers = [fillers]
        added = store.extend(fillers)
        if added and self._arrival_listeners:
            self._notify_arrivals(
                name, {filler.tsid for filler in store.fillers_since(before)}
            )
        return added

    def feed_raw(
        self,
        name: str,
        payloads: Union[str, Iterable[str]],
        chunk_size: int = 4096,
    ) -> int:
        """Ingest raw ``<filler>`` envelope text; returns how many were new.

        The streaming-evaluation hot path: each envelope is tokenized once
        (in ``chunk_size`` slices, so peak memory stays bounded by the
        largest single construct, not the fragment), validated with the
        same rules and error messages as :func:`repro.fragments.model.parse_filler`,
        and ingested as a :class:`~repro.fragments.model.LazyFiller` whose
        payload DOM is never built unless something actually asks for it.
        While the events stream by, every registered automaton for the
        envelope's ``(stream, tsid)`` matches and captures exactly the
        subtrees its standing queries will bind — the scheduler then
        answers wakes from those captures instead of wrapper DOMs.

        Arrival listeners receive the usual coalesced per-tsid wake.
        ``chunk_size`` must be at least 1 (``ValueError`` otherwise).
        """
        if chunk_size < 1:
            raise ValueError(f"feed_raw chunk_size must be at least 1, got {chunk_size}")
        store = self._store(name)
        if isinstance(payloads, str):
            payloads = [payloads]
        added = 0
        tsids: set[int] = set()
        for raw in payloads:
            filler, matchers = self._scan_envelope(name, raw, chunk_size)
            if store.append(filler):
                added += 1
                tsids.add(filler.tsid)
                for automaton, matcher in matchers:
                    self.automaton_host.note(
                        automaton, filler, store.seq, matcher, store
                    )
        if added:
            self._notify_arrivals(name, tsids)
        return added

    def deliver(self, message) -> int:
        """Ingest one transport :class:`~repro.streams.transport.Message`.

        The subscriber-side entry point for channels and the network
        client: a ``tag_structure`` message (re)registers the stream —
        creating its store on first sight — and a ``filler`` message runs
        the raw-event ingest, so the payload must be exact wire text.
        Returns the number of new fillers (0 for structure messages).
        """
        # Kind strings mirror repro.streams.transport; compared literally
        # so the core never imports the streams package (streams -> core).
        if message.kind == "tag_structure":
            structure = TagStructure.from_xml(message.payload)
            self.register_stream(
                message.stream, structure, store=self.stores.get(message.stream)
            )
            self.delivered["tag_structure"] += 1
            return 0
        if message.kind == "filler":
            # An unregistered stream raises the usual unknown-stream
            # TranslationError from feed_raw's store lookup.
            added = self.feed_raw(message.stream, [message.payload])
            self.delivered["filler"] += 1
            return added
        raise ValueError(f"unknown message kind {message.kind!r}")

    def _scan_envelope(
        self, name: str, raw: str, chunk_size: int
    ) -> tuple[Filler, list]:
        """One incremental pass over an envelope: validate + run automata.

        Counts what ``parse_filler``'s checks need over the event stream
        (:func:`envelope_header` then runs them), feeding the first
        payload subtree's events to a fresh matcher per registered
        automaton.  Returns the (lazy) filler and the fed matchers.
        """
        depth = 0
        top_elements = 0
        envelope_tag: Optional[str] = None
        envelope_attrs: dict = {}
        payload_elements = 0
        matchers: list = []
        in_payload = False

        def consume(events: list) -> None:
            nonlocal depth, top_elements, envelope_tag, envelope_attrs
            nonlocal payload_elements, matchers, in_payload
            index = 0
            count = len(events)
            while index < count:
                if in_payload:
                    # Hand the matchers the longest available run of
                    # payload events in one batch (usually the whole
                    # subtree — runs only split at chunk boundaries).
                    run_depth = depth
                    stop = index
                    while stop < count:
                        kind = events[stop][0]
                        if kind == "start":
                            run_depth += 1
                        elif kind == "end":
                            run_depth -= 1
                            if run_depth == 1:
                                stop += 1
                                break
                        stop += 1
                    run = (
                        events
                        if index == 0 and stop == count
                        else events[index:stop]
                    )
                    for _, matcher in matchers:
                        matcher.feed_many(run)
                    depth = run_depth
                    if run_depth == 1:
                        in_payload = False
                    index = stop
                    continue
                event = events[index]
                kind = event[0]
                if kind == "start":
                    if depth == 0:
                        top_elements += 1
                        if top_elements == 1:
                            envelope_tag = event[1]
                            envelope_attrs = dict(event[2])
                    elif depth == 1 and top_elements == 1:
                        payload_elements += 1
                        if payload_elements == 1:
                            # Reprocess this event as the payload run's
                            # first: the matchers see root start .. root end.
                            in_payload = True
                            matchers = self._matchers_for(name, envelope_attrs)
                            continue
                    depth += 1
                elif kind == "end":
                    depth -= 1
                index += 1

        parser = EventParser(fragment=True)
        for start in range(0, len(raw), chunk_size):
            consume(parser.feed(raw[start : start + chunk_size]))
        consume(parser.close())
        filler_id, tsid, valid_time = envelope_header(
            top_elements, envelope_tag, envelope_attrs, payload_elements
        )
        filler = LazyFiller(filler_id, tsid, valid_time, raw)
        return filler, matchers

    def _matchers_for(self, name: str, envelope_attrs: dict) -> list:
        """Fresh matchers for every automaton watching ``(name, tsid)``.

        A missing or malformed ``tsid`` attribute just skips matching —
        envelope validation raises the canonical error afterwards.
        """
        try:
            tsid = int(envelope_attrs["tsid"])
        except (KeyError, ValueError):
            return []
        return self.automaton_host.matchers_for(name, tsid)

    def _notify_arrivals(self, name: str, tsids: set) -> None:
        """Fire one arrival wake per distinct tsid just accepted on ``name``."""
        for listener in list(self._arrival_listeners):
            for tsid in sorted(tsids):
                listener(name, tsid)

    def add_arrival_listener(self, listener: Callable) -> None:
        """Call ``listener(stream, tsid)`` on every accepted feed.

        Registering the same listener twice is a no-op.
        """
        if listener not in self._arrival_listeners:
            self._arrival_listeners.append(listener)

    def remove_arrival_listener(self, listener: Callable) -> None:
        """Detach a listener registered with :meth:`add_arrival_listener`."""
        self._arrival_listeners = [
            existing for existing in self._arrival_listeners if existing != listener
        ]

    def _store(self, name: str) -> FragmentStore:
        store = self.stores.get(name)
        if store is None:
            raise TranslationError(f"unknown stream {name!r}")
        return store

    def register_function(self, name: str, fn, arity: tuple[int, int] = (0, 99)) -> None:
        """Register an application function (e.g. the paper's
        ``triangulate`` or ``distance``) callable from queries.

        ``fn(ctx, args)`` receives the evaluation context and the list of
        evaluated argument sequences.
        """
        from repro.xquery.functions import Builtin

        self._extra_functions[name] = Builtin(name, arity[0], arity[1], fn)

    # -- compilation -----------------------------------------------------------------

    def compile(
        self,
        source: str,
        strategy: Strategy = Strategy.QAC,
        optimize: bool = False,
        backend: Optional[str] = None,
        use_cache: bool = True,
        merge_joins: Optional[bool] = None,
    ) -> CompiledQuery:
        """Parse an XCQL query and translate it for ``strategy``.

        ``optimize=True`` additionally applies the §8-style rewriting that
        folds repeated ``get_fillers`` calls into ``let`` bindings.

        ``backend`` selects the execution backend (``"compiled"`` lowers
        the translated AST into a closure plan; ``"interpreted"`` keeps
        the tree walker); ``None`` means ``"compiled"``.
        ``merge_joins`` overrides the engine-level knob that lowers
        interval-comparison joins to sort-merge plans and correlated
        ``=`` joins to hash joins (compiled backend only).

        All rewriting and analysis runs through ``self.pipeline`` (see
        :mod:`repro.core.pipeline`): the returned query carries a
        :class:`~repro.core.pipeline.PlanInfo` with the per-pass trace
        and the delta/shared/routing verdicts.  Compilations are memoized
        in an LRU plan cache keyed on ``(source, strategy, optimize,
        backend, merge_joins, schema epoch, pipeline fingerprint)`` —
        pass ``use_cache=False`` to force a fresh parse+translate.
        """
        backend = self._resolve_backend(backend)
        if merge_joins is None:
            merge_joins = self.merge_joins
        options = PassOptions.for_compile(strategy, backend, optimize, merge_joins)
        key = (
            source, strategy, options.optimize, backend, options.merge_joins,
            self._schema_epoch, self.pipeline.fingerprint(),
        )
        if use_cache and self._plan_cache_size:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.move_to_end(key)
                self._plan_cache_hits += 1
                return cached
            self._plan_cache_misses += 1
        module = parse(source, xcql=True)
        compiled = self._compile_module(source, module, options)
        if use_cache and self._plan_cache_size:
            self._plan_cache[key] = compiled
            while len(self._plan_cache) > self._plan_cache_size:
                self._plan_cache.popitem(last=False)
                self._plan_cache_evictions += 1
        return compiled

    def _compile_module(
        self, source: str, module: xast.Module, options: PassOptions
    ) -> CompiledQuery:
        """Run the pass pipeline over a parsed module and lower the result."""
        translated, info = self.pipeline.run(module, options, self)
        plan = compile_module(translated) if options.backend == "compiled" else None
        compiled = CompiledQuery(
            source, options.strategy, module, translated,
            info.hoisted_calls, options.backend, plan,
            merge_joins=info.lowered_joins,
        )
        compiled.info = info
        return compiled

    def _resolve_backend(self, backend: Optional[str]) -> str:
        if backend is None:
            return "compiled"
        if backend not in ("compiled", "interpreted"):
            raise ValueError("backend must be 'compiled' or 'interpreted'")
        return backend

    # -- plan-cache control ----------------------------------------------------------

    def clear_plan_cache(self) -> None:
        """Drop all cached plans (and reset the hit/miss counters)."""
        self._plan_cache.clear()
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0

    def plan_cache_info(self) -> dict[str, int]:
        """LRU plan-cache statistics: hits, misses, size, maxsize, plus
        capacity evictions and schema-epoch invalidations (each
        ``register_stream`` bumps the epoch and clears the cache)."""
        return {
            "hits": self._plan_cache_hits,
            "misses": self._plan_cache_misses,
            "size": len(self._plan_cache),
            "maxsize": self._plan_cache_size,
            "evictions": self._plan_cache_evictions,
            "invalidations": self._plan_cache_invalidations,
        }

    def translate_source(self, source: str, strategy: Strategy = Strategy.QAC) -> str:
        """The translated XQuery text for a query (paper §6.1 style)."""
        return self.compile(source, strategy).translated_source

    def explain(self, source: str, strategy: Strategy = Strategy.QAC, optimize: bool = False) -> dict:
        """A plan summary for a query: translation, dependencies, rewrites.

        Returns a dict with the strategy, the translated XQuery text, the
        statically derived (stream, tsid) dependencies, whether the query
        is time-sensitive (mentions ``now``), how many ``get_fillers``
        calls the pipeline folded, the incremental verdict (with the
        reason a plan is full-only, or the group an incremental one
        evaluates in, its routing predicate, the tuple-index shape that
        predicate files under, and the residual's guard / body split), the
        event automaton with what its captures keep, and the full per-pass
        trace
        (``"passes"``) with the pipeline fingerprint that participates in
        the plan-cache key.
        """
        from repro.streams.routing import index_shape
        from repro.streams.scheduler import dependencies_of

        compiled = self.compile(source, strategy, optimize=optimize)
        dependencies = dependencies_of(compiled)
        info = compiled.info
        analysis = info.incremental
        routing = analysis.routing if analysis is not None else None
        return {
            "strategy": strategy.value,
            "translated": compiled.translated_source,
            "depends_on": sorted(
                (
                    (stream, tsid if isinstance(tsid, int) else "*")
                    for stream, tsid in dependencies.streams
                ),
                key=lambda pair: (pair[0], str(pair[1])),
            ),
            "time_sensitive": dependencies.time_sensitive,
            "hoisted_calls": compiled.hoisted_calls,
            "incremental": analysis is not None,
            "incremental_reason": info.incremental_reason,
            "incremental_group": analysis.group_key if analysis is not None else None,
            "routing_predicate": routing.describe() if routing else None,
            # The group tuple-index shape a scheduler files the query
            # under: members with equal shapes share one operand
            # extraction per binding tuple (None = takes every tuple).
            "routing_index_shape": index_shape(routing) if routing else None,
            # The residual's two halves: the conjunct a scheduler may skip
            # when its index decided it, and the key under which members
            # of a group build a tuple's items once for all of them.
            "residual_guard": (
                to_source(analysis.guard)
                if analysis is not None and analysis.guard is not None
                else None
            ),
            "residual_body_key": analysis.body_key if analysis is not None else None,
            "automaton": info.automaton.describe() if info.automaton else None,
            "automaton_reason": info.automaton_reason,
            # What the automaton's captures keep for this query: the child
            # names its residual reads below each match, or why it needs
            # the whole subtree.
            "automaton_projection": (
                None if info.automaton is None
                else sorted(info.projection) if info.projection is not None
                else f"whole: {info.projection_reason}"
            ),
            "automaton_schema_reachable": self._automaton_reachability(compiled),
            "passes": info.trace_dicts(),
            "fingerprint": info.fingerprint,
        }

    def _automaton_reachability(self, compiled: CompiledQuery) -> Optional[bool]:
        """Tag-Structure advisory: can the plan's automaton ever match?

        ``None`` when the plan has no automaton or its stream/schema is
        unknown.  Advisory only — data that violates the schema still
        matches at runtime, so a ``False`` is a diagnostic, never a gate.
        """
        info = compiled.info
        if info.automaton is None:
            return None
        structure = self.tag_structures.get(info.automaton.stream)
        if structure is None:
            return None
        return schema_reachable(info.automaton, structure.get(info.automaton.tsid))

    def stats(self) -> dict:
        """Engine-level counters for perf triage (see ``repro.cli --stats``).

        Covers the plan cache, the temporal endpoint index, and each
        stream's store: filler/fragment population, how many fillers pin
        a DOM and how many version elements the wrapper cache holds,
        sequence number, mutation epoch, and the ``delta_batch`` memo
        that shared evaluation leans on.
        """
        streams = {}
        for name, store in sorted(self.stores.items()):
            index = getattr(store, "endpoint_index_info", None)
            streams[name] = {
                "fillers": store.filler_count,
                "materialized_fillers": store.materialized_fillers,
                "cached_versions": store.cached_versions,
                "fragments": store.fragment_count,
                "seq": store.seq,
                "mutation_epoch": store.mutation_epoch,
                "delta_memo": store.delta_memo_info(),
                **({"endpoint_index": index()} if callable(index) else {}),
            }
        return {
            "plan_cache": self.plan_cache_info(),
            "automata": self.automaton_host.stats(),
            "incremental": {"bodies_lowered": self.bodies_lowered},
            "delivered": dict(self.delivered),
            "streams": streams,
        }

    def check(self, source: str) -> list:
        """Static diagnostics for a query, without executing it.

        Combines the schema linter (path/projection checks against the
        registered Tag Structures) with name/arity analysis against the
        engine's function registry.  Returns Diagnostic/StaticIssue
        records; empty means clean.
        """
        from repro.core.lint import lint_query
        from repro.xquery.functions import default_functions
        from repro.xquery.parser import parse
        from repro.xquery.static import check_module

        issues: list = list(lint_query(source, self.tag_structures))
        try:
            module = parse(source, xcql=True)
        except Exception:
            return issues  # the linter already reported the syntax error
        functions = default_functions()
        functions.update(self._extra_functions)
        for name in ("get_fillers", "get_fillers_list", "get_fillers_by_tsid",
                     "materialized_view"):
            functions.setdefault(name, _AnyArity())
        issues.extend(check_module(module, functions))
        return issues

    # -- execution ---------------------------------------------------------------------

    def execute(
        self,
        query: Union[str, CompiledQuery],
        strategy: Strategy = Strategy.QAC,
        now: Optional[XSDateTime] = None,
        variables: Optional[dict[str, list]] = None,
        backend: Optional[str] = None,
    ) -> list:
        """Run a query against the current fragment state.

        ``query`` may be XCQL text (compiled on the fly, through the plan
        cache — repeated executions of the same source never re-parse or
        re-translate) or a :class:`CompiledQuery`.  ``now`` fixes the
        evaluation instant for the XCQL ``now`` constant; continuous
        queries re-execute with a moving ``now``.  ``backend`` only
        applies when ``query`` is source text; a :class:`CompiledQuery`
        already carries its backend.
        """
        if isinstance(query, str):
            compiled = self.compile(query, strategy, backend=backend)
        else:
            compiled = query
        context = self.build_context(now=now, variables=variables)
        if compiled.plan is not None:
            return compiled.plan(context)
        return Evaluator(context).evaluate_module(compiled.translated)

    # -- incremental evaluation -----------------------------------------------------------

    def prepare_incremental(self, compiled: CompiledQuery) -> Optional[IncrementalPlan]:
        """The query's prefix/residual plan, or ``None`` when it must run full-scan.

        The verdict and the split were computed at compile time by the
        pipeline's ``incremental`` pass and live on ``compiled.info``
        (``incremental_reason`` says why a plan is full-only — the
        interpreted backend always is: it stays the full-scan
        differential reference).  This method only lowers the split
        into its runtime closures, memoized on the
        :class:`CompiledQuery` (which the plan cache shares), so a
        scheduler re-adding hundreds of same-source queries pays for one
        lowering — and the body, the bulk of a residual, is lowered once
        per ``body_key`` however many queries spell it.
        """
        analysis = compiled.info.incremental
        if compiled.incremental_plan is None and analysis is not None:
            body = self._bodies.get(analysis.body_key)
            if body is None:
                body = compile_delta_plan(analysis.body_module, SHARED_VAR)
                self._bodies[analysis.body_key] = body
                self.bodies_lowered += 1
            compiled.incremental_plan = IncrementalPlan(
                stream=analysis.stream,
                tsid=analysis.tsid,
                filler_id=analysis.filler_id,
                binds_versions=analysis.binds_versions,
                group_key=analysis.group_key,
                routing=analysis.routing,
                body_key=analysis.body_key,
                prefix=compile_delta_plan(analysis.prefix_module, DELTA_VAR),
                guard=(
                    compile_guard(analysis.guard, analysis.guard_var)
                    if analysis.guard is not None
                    else None
                ),
                body=body,
            )
        return compiled.incremental_plan

    def execute_prefix(
        self,
        plan: IncrementalPlan,
        wrappers: list,
        context: Optional[Context] = None,
    ) -> list:
        """Materialize a group's binding tuples from just-arrived wrappers.

        Incremental plans are ``now``-free by construction (delta safety
        bans clock dependence), so the tuples are valid for every group
        member regardless of its evaluation instant.  ``context`` lets a
        wake that runs both halves build its evaluation context once.
        """
        if context is None:
            context = self.build_context()
        return plan.prefix(context, wrappers)

    def execute_residual(
        self,
        plan: IncrementalPlan,
        tuples: list,
        now: Optional[XSDateTime] = None,
        context: Optional[Context] = None,
    ) -> list:
        """Run one query's residual — guard ∘ body — over binding tuples.

        Returns the result items those tuples contribute; callers union
        them with their retained state.  A standing query goes through
        :meth:`repro.streams.continuous.DeltaWindow.residual`, the same
        composition with a group's memo between the two halves.
        """
        if context is None:
            context = self.build_context(now=now)
        return plan.residual(context, tuples)

    def execute_on_view(
        self,
        source: str,
        now: Optional[XSDateTime] = None,
        variables: Optional[dict[str, list]] = None,
        backend: Optional[str] = None,
    ) -> list:
        """Run untranslated XCQL directly on materialized temporal views.

        This is the reference semantics: every ``stream(x)`` resolves to
        the fully materialized temporal view of stream ``x``.  Used to
        cross-validate the fragment-level strategies.
        """
        backend = self._resolve_backend(backend)
        options = PassOptions.for_view(backend)
        key = (
            source, "view", False, backend,
            self._schema_epoch, self.pipeline.fingerprint(),
        )
        compiled = self._plan_cache.get(key) if self._plan_cache_size else None
        if compiled is not None:
            self._plan_cache.move_to_end(key)
            self._plan_cache_hits += 1
        else:
            if self._plan_cache_size:
                self._plan_cache_misses += 1
            module = parse(source, xcql=True)
            compiled = self._compile_module(source, module, options)
            if self._plan_cache_size:
                self._plan_cache[key] = compiled
                while len(self._plan_cache) > self._plan_cache_size:
                    self._plan_cache.popitem(last=False)
                    self._plan_cache_evictions += 1
        context = self.build_context(now=now, variables=variables)
        if compiled.plan is not None:
            return compiled.plan(context)
        return Evaluator(context).evaluate_module(compiled.translated)

    # -- context assembly -----------------------------------------------------------------

    def build_context(
        self,
        now: Optional[XSDateTime] = None,
        variables: Optional[dict[str, list]] = None,
    ) -> Context:
        """A fresh evaluation context wired to the registered streams."""
        context = Context(
            variables=variables,
            now=now or self.default_now,
            streams=self._view_of_stream,
            hole_resolver=self._resolve_hole,
        )
        if self.use_temporal_index:
            # Compiled plans consult this hook to bisect version windows
            # instead of scanning; the interpreter ignores it (it stays the
            # differential reference for the scan semantics).
            context.temporal_index = self.temporal_index
        context.register_function("get_fillers", self._fn_get_fillers, (1, 2))
        context.register_function("get_fillers_list", self._fn_get_fillers, (1, 2))
        context.register_function("get_fillers_by_tsid", self._fn_get_fillers_by_tsid, (2, 2))
        context.register_function("materialized_view", self._fn_materialized_view, (1, 1))
        context.functions.update(self._extra_functions)
        return context

    # -- persistence ---------------------------------------------------------------------

    def save_state(self, directory) -> list[str]:
        """Snapshot every registered stream into a directory.

        Writes one store snapshot per stream plus a ``streams.xml``
        manifest; returns the stream names saved.  Restore with
        :meth:`load_state`.
        """
        import os

        from repro.dom.serializer import serialize as _serialize
        from repro.fragments.persist import save_store

        os.makedirs(directory, exist_ok=True)
        manifest = Element("streams")
        for index, (name, store) in enumerate(sorted(self.stores.items())):
            filename = f"stream-{index}.xml"
            save_store(store, os.path.join(directory, filename))
            manifest.append(Element("stream", {"name": name, "file": filename}))
        with open(os.path.join(directory, "streams.xml"), "w", encoding="utf-8") as fh:
            fh.write(_serialize(manifest, indent="  "))
        return sorted(self.stores)

    @classmethod
    def load_state(cls, directory, default_now: Optional[XSDateTime] = None) -> "XCQLEngine":
        """Rebuild an engine from a :meth:`save_state` directory."""
        import os

        from repro.dom.parser import parse_document as _parse
        from repro.fragments.persist import load_store

        with open(os.path.join(directory, "streams.xml"), "r", encoding="utf-8") as fh:
            manifest = _parse(fh.read()).document_element
        if manifest is None or manifest.tag != "streams":
            raise ValueError(f"{directory}: not an engine-state directory")
        engine = cls(default_now=default_now)
        for entry in manifest.child_elements("stream"):
            store = load_store(os.path.join(directory, entry.attrs["file"]))
            if store.tag_structure is None:
                raise ValueError(
                    f"stream {entry.attrs['name']!r}: snapshot lacks a Tag Structure"
                )
            engine.register_stream(entry.attrs["name"], store.tag_structure, store)
        return engine

    # -- builtins bound to the stores -------------------------------------------------------

    def _fn_get_fillers(self, ctx, args) -> list[Element]:
        """``get_fillers(stream, ids)``: filler wrappers for hole ids.

        With a single argument the engine must hold exactly one stream
        (the paper's single-stream form ``get_fillers(0)``).
        """
        if len(args) == 1:
            store = self._single_store()
            ids_seq = args[0]
        else:
            store = self._store(_text(args[0]))
            ids_seq = args[1]
        ids: list[int] = []
        for atom in atomize_sequence(ids_seq):
            value = int(float(str(atom)))
            if value not in ids:  # a hole id resolves once per call
                ids.append(value)
        return store.get_fillers_list(ids)

    def _fn_get_fillers_by_tsid(self, ctx, args) -> list[Element]:
        store = self._store(_text(args[0]))
        tsid = int(float(str(atomize_sequence(args[1])[0])))
        return store.get_fillers_by_tsid(tsid)

    def _fn_materialized_view(self, ctx, args) -> list[Document]:
        store = self._store(_text(args[0]))
        return [temporalize(store)]

    def _view_of_stream(self, name: str) -> list[Document]:
        return [temporalize(self._store(name))]

    def _single_store(self) -> FragmentStore:
        if len(self.stores) != 1:
            raise XQueryDynamicError(
                "get_fillers(id) without a stream name requires exactly one "
                "registered stream"
            )
        return next(iter(self.stores.values()))

    def _resolve_hole(self, hole_id) -> list[Element]:
        """Resolve a hole id across all registered stores.

        Hole ids are allocated per stream; when several streams are
        registered the first store that knows the id wins, so applications
        correlating many streams should keep their id spaces disjoint.
        """
        if hole_id is None:
            return []
        target = int(hole_id)
        for store in self.stores.values():
            versions = store.versions_of(target)
            if versions:
                return versions
        return []


class _CaptureRecord:
    """One ingested envelope's automaton captures, pinned to its filler."""

    __slots__ = ("seq", "filler", "buffers", "matches", "root_matched", "keep")

    def __init__(self, seq, filler, buffers, matches, root_matched, keep):
        self.seq = seq
        self.filler = filler
        self.buffers = buffers  # None once superseded (buffers dropped)
        self.matches = matches
        self.root_matched = root_matched
        self.keep = keep  # the projection the buffers were captured under


class _AutomatonGroup:
    """Shared capture state for all queries compiled to one automaton."""

    __slots__ = (
        "automaton",
        "projections",
        "keep",
        "epoch",
        "records",
        "by_id",
        "winners",
        "envelopes",
        "captures",
        "captured_events",
        "answers",
        "declines",
        "superseded",
        "epoch_resets",
    )

    def __init__(self, automaton: StreamAutomaton):
        self.automaton = automaton
        # The registered members' projections, as a multiset (projection
        # -> count), and their union: what each capture keeps.
        self.projections: dict[Optional[frozenset], int] = {}
        self.keep: Optional[frozenset] = None
        self.epoch: Optional[int] = None
        self.records: list[_CaptureRecord] = []
        self.by_id: dict[int, _CaptureRecord] = {}
        # Snapshot-only: filler_id -> the record whose version currently
        # wins (latest validTime, ties to the latest arrival).  Losers keep
        # their record (the identity check needs it) but drop their event
        # buffers — Tag-Structure-guided buffer minimization.
        self.winners: dict[int, _CaptureRecord] = {}
        self.envelopes = 0
        self.captures = 0  # matched subtrees filed across all envelopes
        self.captured_events = 0  # events appended to their buffers
        self.answers = 0
        self.declines = 0
        self.superseded = 0
        self.epoch_resets = 0  # capture state dropped on history rewrites


class AutomatonHost:
    """Records automaton captures at ingest and answers scheduler wakes.

    One host per engine.  ``feed_raw`` runs every registered automaton for
    an envelope's ``(stream, tsid)`` over the payload event stream and
    files the matched-subtree buffers here (:meth:`note`); when a standing
    query wakes, the scheduler asks :meth:`answer` for the binding tuples
    of the fillers past the query's watermark.  The answer is built purely
    from the captures — materialized through the parser's event-replay
    builder, with lifespan annotations synthesized per the tsid's tag type
    (exactly :meth:`FragmentStore._annotate`'s rules) — so the wake path
    never touches a wrapper DOM.

    Soundness rests on an identity check, not on coverage bookkeeping:
    every filler in the requested window must map (by object identity) to
    a capture record.  Fillers that arrived through any other path —
    ``feed``, a direct ``store.extend``, before the automaton registered —
    have no record, and the answer *declines*; the scheduler then falls
    back to the DOM delta driver for that wake.  Declines are counted
    (``explain``'s fallback reason plus these counters tell the whole
    story).

    A capture keeps only what the registered queries can read: each
    registers with its plan's projection (``PlanInfo.projection``), the
    group captures their union — whole if any member needs the whole
    subtree — and each record remembers the projection it was captured
    under.  A scheduler widens the union at ``add``, before the new
    member's first (full, baseline) run, so no window that member reads
    was captured narrower; the same identity-style check declines, should
    a record not cover the group's current union.  Narrowing at
    ``unregister`` leaves only supersets behind.
    """

    def __init__(self) -> None:
        self._groups: dict[StreamAutomaton, _AutomatonGroup] = {}
        self._by_source: dict[tuple[str, int], list[_AutomatonGroup]] = {}

    # -- registration -------------------------------------------------------------

    def register(
        self, automaton: StreamAutomaton, projection: Optional[frozenset]
    ) -> None:
        """Start capturing for one standing query reading ``projection``.

        ``projection`` is the child names the query's residual reads below
        a match, ``None`` for the whole subtree; envelopes from now on are
        captured under the union over every registration.
        """
        group = self._groups.get(automaton)
        if group is None:
            group = _AutomatonGroup(automaton)
            self._groups[automaton] = group
            self._by_source.setdefault(
                (automaton.stream, automaton.tsid), []
            ).append(group)
        group.projections[projection] = group.projections.get(projection, 0) + 1
        group.keep = _union(group.projections)

    def unregister(
        self, automaton: StreamAutomaton, projection: Optional[frozenset]
    ) -> None:
        """Drop one registration; the last one frees the captures."""
        group = self._groups.get(automaton)
        if group is None:
            return
        count = group.projections.pop(projection, 0)
        if count > 1:
            group.projections[projection] = count - 1
        if group.projections:
            group.keep = _union(group.projections)
        else:
            del self._groups[automaton]
            route = self._by_source.get((automaton.stream, automaton.tsid), [])
            if group in route:
                route.remove(group)
            if not route:
                self._by_source.pop((automaton.stream, automaton.tsid), None)

    def matchers_for(self, stream: str, tsid: int) -> list:
        """Fresh ``(automaton, matcher)`` pairs for one arriving envelope."""
        groups = self._by_source.get((stream, int(tsid)))
        if not groups:
            return []
        return [
            (group.automaton, AutomatonMatcher(group.automaton, group.keep))
            for group in groups
        ]

    # -- ingest-side recording ------------------------------------------------------

    def note(self, automaton, filler, seq, matcher, store) -> None:
        """File one envelope's captures at its store sequence number."""
        group = self._groups.get(automaton)
        if group is None:
            return
        if group.epoch != store.mutation_epoch:
            self._reset(group, store)
        record = _CaptureRecord(
            seq, filler, matcher.buffers, matcher.matches, matcher.root_matched,
            matcher.keep,
        )
        group.records.append(record)
        group.by_id[id(filler)] = record
        group.envelopes += 1
        group.captures += len(matcher.matches)
        group.captured_events += sum(map(len, matcher.buffers))
        if store.tag_type_of(filler.tsid) is TagType.SNAPSHOT:
            # A snapshot version is only ever visible when it is the
            # latest of its fragment id in the evaluation window (the
            # store's annotation rule), so the loser's buffers can be
            # dropped the moment the winner is known.  Windows that would
            # see only the loser have preexisting versions and take the
            # full-run guard before ever reaching this host.
            winner = group.winners.get(filler.filler_id)
            if (
                winner is None
                or filler.valid_time.to_epoch_seconds()
                >= winner.filler.valid_time.to_epoch_seconds()
            ):
                if winner is not None and winner.buffers is not None:
                    winner.buffers = None
                    winner.matches = ()
                    group.superseded += 1
                group.winners[filler.filler_id] = record
            else:
                record.buffers = None
                record.matches = ()
                group.superseded += 1

    def _reset(self, group: _AutomatonGroup, store) -> None:
        """History was rewritten (prune/clear/schema swap): start over."""
        if group.epoch is not None:
            # The first note/answer just initializes the epoch; only a
            # *moved* epoch is a genuine history rewrite.
            group.epoch_resets += 1
        group.records = []
        group.by_id = {}
        group.winners = {}
        group.epoch = store.mutation_epoch

    # -- wake-side answers ----------------------------------------------------------

    def answer(self, automaton, fresh: list, store) -> Optional[list]:
        """Binding tuples for the ``fresh`` filler window, or ``None``.

        ``fresh`` is the exact arrival-ordered filler list the delta
        driver would wrap (``fillers_since`` + the plan's filler-id
        filter).  ``None`` means some filler has no capture record and the
        caller must fall back to the DOM path.
        """
        group = self._groups.get(automaton)
        if group is None:
            return None
        if group.epoch != store.mutation_epoch:
            self._reset(group, store)
        keep = group.keep
        bunches: dict[int, list[_CaptureRecord]] = {}
        for filler in fresh:
            record = group.by_id.get(id(filler))
            if (
                record is None
                or record.filler is not filler
                or not _covers(record.keep, keep)
            ):
                group.declines += 1
                return None
            bunches.setdefault(filler.filler_id, []).append(record)
        tag_type = store.tag_type_of(automaton.tsid)
        tuples: list = []
        for bunch in bunches.values():
            bunch = sorted(
                bunch, key=lambda r: r.filler.valid_time.to_epoch_seconds()
            )
            if tag_type is TagType.SNAPSHOT:
                last = bunch[-1]
                if last.buffers is None:
                    group.declines += 1
                    return None
                tuples.extend(_materialize_record(last, None, None))
            elif tag_type is TagType.EVENT:
                for record in bunch:
                    stamp = str(record.filler.valid_time)
                    tuples.extend(_materialize_record(record, stamp, stamp))
            else:  # TEMPORAL (and schemaless stores)
                count = len(bunch)
                for position, record in enumerate(bunch):
                    vt_to = (
                        str(bunch[position + 1].filler.valid_time)
                        if position + 1 < count
                        else "now"
                    )
                    tuples.extend(
                        _materialize_record(
                            record, str(record.filler.valid_time), vt_to
                        )
                    )
        group.answers += 1
        return tuples

    def prune(self, automaton, min_seq: int) -> None:
        """Forget captures at or below every watcher's watermark."""
        group = self._groups.get(automaton)
        if group is None or min_seq <= 0:
            return
        kept = [record for record in group.records if record.seq > min_seq]
        if len(kept) == len(group.records):
            return
        group.records = kept
        group.by_id = {id(record.filler): record for record in kept}
        group.winners = {
            fid: record
            for fid, record in group.winners.items()
            if record.seq > min_seq
        }

    def stats(self) -> dict:
        """Host-level counters: per-group capture economy and outcomes.

        ``captured_events`` counts the parser events appended to capture
        buffers — what projection saves, as a count.
        """
        return {
            "groups": len(self._groups),
            "registered": sum(
                sum(g.projections.values()) for g in self._groups.values()
            ),
            "buffered": sum(len(g.records) for g in self._groups.values()),
            "envelopes": sum(g.envelopes for g in self._groups.values()),
            "captures": sum(g.captures for g in self._groups.values()),
            "captured_events": sum(g.captured_events for g in self._groups.values()),
            "answers": sum(g.answers for g in self._groups.values()),
            "declines": sum(g.declines for g in self._groups.values()),
            "superseded": sum(g.superseded for g in self._groups.values()),
            "epoch_resets": sum(g.epoch_resets for g in self._groups.values()),
        }


def _union(projections) -> Optional[frozenset]:
    """What captures keep for these members: ``None`` (whole) if any needs it."""
    if None in projections:
        return None
    return frozenset().union(*projections)


def _covers(held: Optional[frozenset], needed: Optional[frozenset]) -> bool:
    """Whether a capture kept under ``held`` has everything ``needed`` reads."""
    return held is needed or held is None or (needed is not None and needed <= held)


def _materialize_record(
    record: _CaptureRecord, vt_from: Optional[str], vt_to: Optional[str]
) -> list:
    """Build one capture's binding tuples via the event-replay builder.

    Matches are materialized in recorded (document) order; when the
    payload root itself matched and the tag type annotates versions, the
    root element receives the synthesized ``vtFrom``/``vtTo`` exactly as
    the store's wrapper annotation would have set them (same attribute
    order: after the payload's own attributes).
    """
    built: dict[int, dict] = {}
    result: list = []
    for buffer_index, offset in record.matches:
        index = built.get(buffer_index)
        if index is None:
            _, index = build_fragment_indexed(record.buffers[buffer_index])
            built[buffer_index] = index
        result.append(index[offset])
    if vt_from is not None and record.root_matched and result:
        root = result[0]
        root.set("vtFrom", vt_from)
        root.set("vtTo", vt_to)
    return result


class _TemporalIndexHook:
    """The engine-side façade the compiled backend queries for windows.

    Wraps every registered store's endpoint index behind the two lookups
    the projection fast paths need.  Both return ``None`` whenever the
    index cannot answer exactly (unknown id, snapshot tags, stale wrapper,
    ``use_index=False``), which sends the caller down the scan path — the
    hook can narrow work, never change results.  ``hits``/``misses`` are
    observability counters for tests and benchmarks.
    """

    def __init__(self, engine: "XCQLEngine"):
        self._engine = engine
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def hole_window(self, hole_id, begin_epoch: float, end_epoch: float):
        """Resolve a hole id to ``(versions, lo, hi)`` via the index.

        Mirrors :meth:`XCQLEngine._resolve_hole`: the first store that
        knows the id answers.  Returns ``None`` to fall back to the scan
        path (which also surfaces the original error for malformed ids).
        """
        try:
            target = int(hole_id)
        except (TypeError, ValueError):
            self.misses += 1
            return None
        for store in self._engine.stores.values():
            versions = store.versions_of(target)
            if versions:
                window = store.versions_in_window(target, begin_epoch, end_epoch)
                if window is None:
                    break
                self.hits += 1
                lo, hi = window
                return versions, lo, hi
        self.misses += 1
        return None

    def wrapper_window(self, element: Element, begin_epoch: float, end_epoch: float):
        """The surviving ``[lo, hi)`` slice of a live filler wrapper."""
        for store in self._engine.stores.values():
            window = store.wrapper_window(element, begin_epoch, end_epoch)
            if window is not None:
                self.hits += 1
                return window
        self.misses += 1
        return None


class _AnyArity:
    """A permissive signature for engine-bound builtins during checking."""

    min_arity = 0
    max_arity = 99


def _text(seq: list) -> str:
    if not seq:
        raise XQueryDynamicError("expected a stream name, got an empty sequence")
    return str(atomize_sequence(seq)[0])
