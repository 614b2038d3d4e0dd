"""The unified plan-pass pipeline: parse once, annotate once, reuse everywhere.

PRs 1–4 accumulated rewrites/analyses over the translated XQuery AST —
§8-style ``get_fillers`` hoisting, join lowering, and the delta-safety
classification with its prefix/residual split and routing predicate.
Each lived as an ad-hoc traversal hand-sequenced inside
``engine.compile``.  This module turns them into a Calcite-style pass
pipeline (cf. "One SQL to Rule Them All"): a :class:`PassManager` runs a
fixed, named sequence of passes over one mutable :class:`PlanInfo` carried
on every :class:`~repro.core.engine.CompiledQuery`, records a per-pass
trace (name, fired?, rewrite count, reason), and exposes a *fingerprint*
of the pass sequence that the engine folds into its plan-cache key — so
editing the pipeline can never serve a stale plan.

Two pass kinds exist, distinguished only by what they touch:

- **rewrite** passes (``translate``, ``hoist-fillers``,
  ``lower-merge-joins``, ``lower-value-joins``) return a new module;
- **analysis** passes (``incremental``, ``compile-stream-automaton``)
  return the module unchanged and record verdicts on the
  :class:`PlanInfo`.

The ordering contract: ``translate`` first (every later pass assumes the
filler-level form), rewrites before analyses (verdicts describe the final
plan), ``incremental`` before ``compile-stream-automaton`` (it compiles
the incremental plan's prefix into an event automaton).  A new rewrite
slots in after ``lower-value-joins``; a new analysis appends at the end.
Each pass gates itself and appends exactly one
:class:`PassTrace`, so ``engine.compile`` contains no pass-specific
branching and ``explain()`` can replay the whole decision trail.

This module is also the *only* sanctioned import point for the underlying
optimizer entry points — ``repro lint`` (see
:func:`repro.core.lint.lint_sources`) rejects direct
``analyze_delta``/``hoist_common_fillers`` imports
elsewhere, so future rewrites go through the pipeline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.core.optimizer import (
    DELTA_VAR,
    SHARED_VAR,
    DeltaAnalysis,
    RoutingPredicate,
    analyze_delta,
    hoist_common_fillers,
    lower_interval_joins,
    lower_value_joins,
)
from repro.core.translator import Strategy, Translator
from repro.xquery import xast
from repro.xquery.automata import StreamAutomaton, capture_projection, compile_automaton

__all__ = [
    "PassTrace",
    "PlanInfo",
    "PassOptions",
    "Pass",
    "TranslatePass",
    "HoistFillersPass",
    "LowerMergeJoinsPass",
    "LowerValueJoinsPass",
    "IncrementalPass",
    "CompileStreamAutomatonPass",
    "PassManager",
    "default_passes",
    # Sanctioned re-exports: downstream code (engine, core/__init__) takes
    # the optimizer's entry points through the pipeline module.
    "DELTA_VAR",
    "SHARED_VAR",
    "DeltaAnalysis",
    "RoutingPredicate",
    "hoist_common_fillers",
]


@dataclass(frozen=True)
class PassTrace:
    """One pass's recorded decision for one compilation.

    ``fired`` means the pass changed the plan (rewrites) or produced a
    positive verdict (analyses); ``rewrites`` counts applied rewrite
    sites; ``detail`` carries the reason string when the pass declined —
    the same strings ``explain()`` has always reported.
    """

    name: str
    fired: bool
    rewrites: int = 0
    detail: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "fired": self.fired,
            "rewrites": self.rewrites,
            "detail": self.detail,
        }


@dataclass
class PlanInfo:
    """Every annotation the pipeline derives for one compiled plan.

    Built once at compile time and memoized on
    :class:`~repro.core.engine.CompiledQuery` (shared through the plan
    cache), so ``prepare_incremental``/``explain()`` and the scheduler
    read verdicts instead of re-running analyses.
    """

    strategy: Strategy
    backend: str
    optimize: bool
    merge_joins: bool
    fingerprint: str
    hoisted_calls: int = 0
    lowered_joins: int = 0
    incremental: Optional[DeltaAnalysis] = None
    incremental_reason: Optional[str] = None
    automaton: Optional[StreamAutomaton] = None
    automaton_reason: Optional[str] = None
    # What the automaton's captures must keep for this plan: the child
    # names its residual reads below each match, or None (whole subtree,
    # with projection_reason saying why).
    projection: Optional[frozenset] = None
    projection_reason: Optional[str] = None
    trace: list = field(default_factory=list)

    def record(self, trace: PassTrace) -> None:
        self.trace.append(trace)

    def trace_dicts(self) -> list[dict]:
        return [entry.as_dict() for entry in self.trace]


@dataclass(frozen=True)
class PassOptions:
    """The normalized compile request every pass gates on.

    ``merge_joins`` arrives already normalized (both join lowerings are
    compiled-backend features); ``translate=False`` is the
    ``execute_on_view`` reference path, which runs raw XCQL over
    materialized views and therefore skips the schema-directed rewrite.
    """

    strategy: Strategy
    backend: str
    optimize: bool
    merge_joins: bool
    translate: bool = True

    @classmethod
    def for_compile(
        cls,
        strategy: Strategy,
        backend: str,
        optimize: bool,
        merge_joins: bool,
    ) -> "PassOptions":
        return cls(
            strategy=strategy,
            backend=backend,
            optimize=bool(optimize),
            merge_joins=bool(merge_joins) and backend == "compiled",
        )

    @classmethod
    def for_view(cls, backend: str) -> "PassOptions":
        return cls(
            strategy=Strategy.CAQ,
            backend=backend,
            optimize=False,
            merge_joins=False,
            translate=False,
        )


class Pass:
    """Base class: one named, versioned step over (module, info).

    ``run`` does its own gating, appends exactly one :class:`PassTrace`
    to ``info``, and returns the (possibly rewritten) module.  Bump
    ``version`` on any behavior change — the pipeline fingerprint (and
    with it the plan-cache key) derives from ``name@version``.
    """

    name: str = "pass"
    version: int = 1
    kind: str = "rewrite"

    @property
    def spec(self) -> str:
        return f"{self.name}@{self.version}"

    def run(
        self,
        module: xast.Module,
        info: PlanInfo,
        options: PassOptions,
        engine,
    ) -> xast.Module:
        raise NotImplementedError


class TranslatePass(Pass):
    """Figure 3 schema-based translation of XCQL into filler-level XQuery."""

    name = "translate"
    kind = "rewrite"

    def run(self, module, info, options, engine):
        if not options.translate:
            info.record(PassTrace(self.name, False, detail="view execution runs untranslated XCQL"))
            return module
        translated = Translator(engine.tag_structures, options.strategy).translate_module(module)
        info.record(PassTrace(self.name, True, detail=options.strategy.value))
        return translated


class HoistFillersPass(Pass):
    """§8 rewriting: fold repeated ``get_fillers`` calls into ``let``s."""

    name = "hoist-fillers"
    kind = "rewrite"

    def run(self, module, info, options, engine):
        if not options.optimize:
            info.record(PassTrace(self.name, False, detail="optimize=False"))
            return module
        module, hoisted = hoist_common_fillers(module)
        info.hoisted_calls = hoisted
        info.record(PassTrace(self.name, hoisted > 0, rewrites=hoisted))
        return module


class LowerMergeJoinsPass(Pass):
    """Lower interval-comparison joins to sort-merge plans (compiled only)."""

    name = "lower-merge-joins"
    kind = "rewrite"

    def run(self, module, info, options, engine):
        if not options.merge_joins:
            info.record(
                PassTrace(self.name, False, detail="merge joins disabled or interpreted backend")
            )
            return module
        module, lowered = lower_interval_joins(module)
        info.lowered_joins += lowered
        info.record(PassTrace(self.name, lowered > 0, rewrites=lowered))
        return module


class LowerValueJoinsPass(Pass):
    """Lower correlated ``=`` joins to build-once hash joins (compiled only).

    Rides on the same ``merge_joins`` request as the sort-merge lowering:
    both replace a nested loop by a join operator whose answer the
    interpreter's nested loop checks.  ``detail`` names the condition the
    first declined candidate failed.
    """

    name = "lower-value-joins"
    kind = "rewrite"

    def run(self, module, info, options, engine):
        if not options.merge_joins:
            info.record(
                PassTrace(self.name, False, detail="merge joins disabled or interpreted backend")
            )
            return module
        module, lowered, reason = lower_value_joins(module)
        info.lowered_joins += lowered
        info.record(PassTrace(self.name, lowered > 0, rewrites=lowered, detail=reason))
        return module


class IncrementalPass(Pass):
    """Classify the final plan as incremental or full-only, and split it.

    One verdict: a delta-safe plan *is* its prefix/residual split (see
    :func:`repro.core.optimizer.analyze_delta`), routing predicate and
    the residual's guard/body halves included — ``detail`` names the
    group it would evaluate in.
    """

    name = "incremental"
    version = 3
    kind = "analysis"

    def run(self, module, info, options, engine):
        if options.backend != "compiled":
            info.incremental_reason = "interpreted backend stays full-scan"
            info.record(PassTrace(self.name, False, detail=info.incremental_reason))
            return module
        analysis = analyze_delta(module)
        if analysis.safe:
            info.incremental = analysis
            info.record(
                PassTrace(self.name, True, detail="/".join(str(k) for k in analysis.group_key))
            )
        else:
            info.incremental_reason = analysis.reason
            info.record(PassTrace(self.name, False, detail=analysis.reason))
        return module


class CompileStreamAutomatonPass(Pass):
    """Compile the incremental prefix into a streaming event automaton (PR 6).

    Gates on the ``incremental`` verdict: only plans whose prefix is a
    downward-only path over the arriving filler wrappers (and whose
    residual never navigates back up) get an automaton.  The automaton
    lets the scheduler answer wakes from event-buffer captures recorded
    at ingest (:meth:`repro.core.engine.XCQLEngine.feed_raw`) instead of
    building wrapper DOMs per tick; any decline reason recorded here is
    also the runtime's fallback explanation in ``explain``.  A compiled
    automaton also gets the plan's capture projection
    (:func:`repro.xquery.automata.capture_projection`), which the
    scheduler registers with the host beside the automaton.
    """

    name = "compile-stream-automaton"
    kind = "analysis"

    def run(self, module, info, options, engine):
        if info.incremental is None:
            info.automaton_reason = info.incremental_reason
            info.record(PassTrace(self.name, False, detail=info.automaton_reason))
            return module
        automaton, reason = compile_automaton(info.incremental)
        if automaton is None:
            info.automaton_reason = reason
            info.record(PassTrace(self.name, False, detail=reason))
            return module
        info.automaton = automaton
        info.projection, info.projection_reason = capture_projection(
            info.incremental, automaton
        )
        info.record(PassTrace(self.name, True, detail=automaton.describe()))
        return module


def default_passes() -> list:
    """The standard pipeline, in its contractual order."""
    return [
        TranslatePass(),
        HoistFillersPass(),
        LowerMergeJoinsPass(),
        LowerValueJoinsPass(),
        IncrementalPass(),
        CompileStreamAutomatonPass(),
    ]


class PassManager:
    """Runs a pass sequence and fingerprints it for the plan-cache key."""

    def __init__(self, passes: Optional[list] = None):
        self.passes: list = list(passes) if passes is not None else default_passes()
        self._fingerprint_memo: Optional[tuple] = None  # (spec tuple, digest)

    def fingerprint(self) -> str:
        """A stable 12-hex digest of the ``name@version`` pass sequence.

        Memoized on the current spec tuple, so mutating ``passes``
        (adding, removing, or re-versioning a pass) yields a new digest —
        and therefore a new plan-cache key — on the next compile.
        """
        specs = tuple(p.spec for p in self.passes)
        if self._fingerprint_memo is not None and self._fingerprint_memo[0] == specs:
            return self._fingerprint_memo[1]
        digest = hashlib.sha1("|".join(specs).encode("utf-8")).hexdigest()[:12]
        self._fingerprint_memo = (specs, digest)
        return digest

    def run(
        self,
        module: xast.Module,
        options: PassOptions,
        engine,
    ) -> tuple[xast.Module, PlanInfo]:
        """Run every pass over ``module``; returns (final module, PlanInfo)."""
        info = PlanInfo(
            strategy=options.strategy,
            backend=options.backend,
            optimize=options.optimize,
            merge_joins=options.merge_joins,
            fingerprint=self.fingerprint(),
        )
        for step in self.passes:
            module = step.run(module, info, options, engine)
        return module, info
