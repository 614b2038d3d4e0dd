"""Static checking of XCQL queries against Tag Structures.

The Figure 3 translation already *fails* on paths that do not exist in the
schema; this linter reports richer, non-fatal diagnostics before execution:

- ``unknown-path`` — a step cannot be resolved against the Tag Structure
  (the translator would raise; the linter pinpoints it per step);
- ``projection-on-snapshot`` — an interval/version projection applied
  where only snapshot tags can flow; snapshots have no versions, so
  ``#[..]`` selects at most version 1 and ``?[..]`` never clips (the query
  is probably wrong);
- ``event-version-range`` — a version range over an event tag: event
  fragments coexist rather than replace, so ``#[n]`` picks by arrival
  order — legal (the paper's tuple windows) but worth flagging when
  combined with ``last`` ranges on temporal data;
- ``unknown-stream`` — ``stream(x)`` names an unregistered stream.

The linter never raises; it returns :class:`Diagnostic` records.

:func:`lint_sources` is the repo's own source-level lint (run in CI as
``repro-lint src``): it forbids importing the optimizer's rewrite/analysis
entry points anywhere but the pass pipeline, so every future compilation
path stays traceable through :mod:`repro.core.pipeline`, and holds a few
layering rules (DOM-free modules, the tree-builder primitive, the one
home of the emission identity, the two places a routing predicate is
decided, no timer on the delivery path, one shard worker codec, no
definition nothing reaches).
"""

from __future__ import annotations

import ast as _pyast
import os
import re
from dataclasses import dataclass
from typing import Iterable

from repro.core.translator import Strategy, TranslationError, Translator
from repro.fragments.tagstructure import TagStructure, TagType
from repro.xquery import xast
from repro.xquery.parser import parse

__all__ = ["Diagnostic", "lint_query", "lint_sources", "PIPELINE_ONLY_NAMES"]


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def lint_query(source: str, tag_structures: dict[str, TagStructure]) -> list[Diagnostic]:
    """Parse and check one XCQL query; returns diagnostics (possibly empty)."""
    diagnostics: list[Diagnostic] = []
    try:
        module = parse(source, xcql=True)
    except Exception as exc:  # syntax problems are reported, not raised
        return [Diagnostic("syntax-error", str(exc))]

    _scan(module.body, tag_structures, diagnostics)
    for definition in module.functions:
        _scan(definition.body, tag_structures, diagnostics)

    # Let the translator try each registered strategy once; a failure is an
    # unknown-path/unknown-stream diagnostic with the translator's message.
    try:
        Translator(tag_structures, Strategy.QAC).translate_module(module)
    except TranslationError as exc:
        code = "unknown-stream" if "unknown stream" in str(exc) else "unknown-path"
        diagnostics.append(Diagnostic(code, str(exc)))
    return _dedup(diagnostics)


def _scan(node: object, structures: dict[str, TagStructure], out: list[Diagnostic]) -> None:
    if isinstance(node, xast.FunctionCall) and node.name == "stream" and node.args:
        name = node.args[0]
        if isinstance(name, xast.Literal) and name.value not in structures:
            out.append(
                Diagnostic("unknown-stream", f"stream({name.value!r}) is not registered")
            )
    if isinstance(node, (xast.IntervalProjection, xast.VersionProjection)):
        tags = _tags_of(node.base, structures)
        if tags is not None and tags and all(t.type is TagType.SNAPSHOT for t in tags):
            kind = "?" if isinstance(node, xast.IntervalProjection) else "#"
            out.append(
                Diagnostic(
                    "projection-on-snapshot",
                    f"`{kind}[...]` applied to snapshot-only path "
                    f"{sorted(t.path() for t in tags)}: snapshots have a "
                    "single version spanning [start, now]",
                )
            )
        if (
            isinstance(node, xast.VersionProjection)
            and tags
            and all(t.type is TagType.EVENT for t in tags or [])
        ):
            out.append(
                Diagnostic(
                    "event-version-range",
                    "version range over event fragments selects by arrival "
                    "order (events coexist; they are not replaced)",
                )
            )
    for child in xast.children(node):
        _scan(child, structures, out)


def _tags_of(expr: object, structures: dict[str, TagStructure]):
    """Resolve the tag set of a simple stream-rooted path, or None."""
    if isinstance(expr, xast.PathExpr) and isinstance(expr.base, xast.FunctionCall):
        call = expr.base
        if call.name == "stream" and call.args and isinstance(call.args[0], xast.Literal):
            structure = structures.get(call.args[0].value)
            if structure is None:
                return None
            current = {structure.root}
            wrapped = True
            for step in expr.steps:
                if step.axis == "child":
                    if wrapped:
                        current = {t for t in current if t.name == step.test}
                    else:
                        current = {
                            child
                            for tag in current
                            for child in [tag.child(step.test)]
                            if child is not None
                        }
                elif step.axis == "descendant-or-self":
                    current = {
                        found
                        for tag in current
                        for found in tag.descendants_named(step.test)
                    }
                else:
                    return None
                wrapped = False
                if not current:
                    return set()
            return current
    return None


# ---------------------------------------------------------------------------
# Source-level lint: the pass pipeline is the only rewrite/analysis door
# ---------------------------------------------------------------------------

#: Optimizer entry points that only :mod:`repro.core.pipeline` may import.
PIPELINE_ONLY_NAMES = frozenset(
    {
        "analyze_delta", "hoist_common_fillers",
        "lower_interval_joins", "lower_value_joins",
    }
)

#: Modules allowed to import those names (the pipeline itself, and the
#: optimizer's own module).
_PIPELINE_EXEMPT = ("core/pipeline.py", "core/optimizer.py")

#: Modules that must stay DOM-free, each with its diagnostic code and
#: the reason: for all of them, any import of the DOM package is a
#: layering regression.
_DOM_FREE_MODULES = {
    "xquery/automata.py": (
        "automata-dom-import",
        "the stream-automaton module must stay DOM-free (it matches "
        "raw parse events); move node materialization to the engine's "
        "automaton host",
    ),
    "streams/netproto.py": (
        "netproto-dom-import",
        "the wire-protocol module must stay DOM-free (it frames bytes "
        "and forwards envelope text verbatim); parse payloads at the "
        "endpoints, not in the framing layer",
    ),
    "streams/transport.py": (
        "transport-dom-import",
        "the transport module must stay DOM-free (channels and shard "
        "links move wire text between endpoints; peeks are regex-only); "
        "parse payloads at the endpoints, not in the delivery layer",
    ),
    "streams/net.py": (
        "net-dom-import",
        "the network server must stay DOM-free (it relays envelope text "
        "verbatim and its front door decides routing predicates inside "
        "the tokenizer's handlers, routing.DoorProbe); a DOM build per "
        "publish costs more than everything else a relayed frame does",
    ),
}

#: ``_Container._link_child`` skips everything ``append`` does for a live
#: tree, so only the builders whose trees are provably still detached
#: roots under construction may name it.
_BUILDER_PRIMITIVE = "_link_child"
_BUILDER_MODULES = (
    "dom/nodes.py", "dom/parser.py",
    "xquery/temporal_functions.py", "fragments/assemble.py",
)
#: A ``DeferredElement`` stands on a source its maker vouches for (never
#: written again, elements and text only); only the projections and
#: ``dom.nodes.copier`` / ``dom.nodes.stand_in`` (``temporalize``) can.
_DEFERRED_COPY = "DeferredElement"
_DEFERRED_COPY_MODULES = ("dom/nodes.py", "xquery/temporal_functions.py")
#: The emission-dedup identity of a result item is its serialized form,
#: worked out once where the item is emitted; every other consumer in the
#: streams layer takes the strings ``ContinuousQuery`` hands over.
_IDENTITY_HOME = "streams/continuous.py"
_IDENTITY_NAMES = ("item_identity", "_identity")
#: A routing predicate is decided at run time in two places: over wire
#: text at the network door and over binding tuples in the scheduler's
#: groups.  Each kernel entry point names its one importer under
#: ``src/repro/``; ``None`` = the DOM reference the tests hold the event
#: kernel to, imported by nothing.
_PREDICATE_HOME = "streams/routing.py"
_PREDICATE_TIER = {
    "DoorProbe": "streams/net.py",
    "TupleIndex": "streams/scheduler.py",
    "route_match": None,
    "filler_values": None,
}
#: The delivery path batches by backpressure: a frame is held only while
#: the connection's writer is behind, never for a clock.
_DELIVERY_MODULES = ("streams/net.py", "streams/netproto.py", "streams/transport.py")
_TIMER_CALLS = ("call_later", "call_at")
#: Every shard link carries WORKER frames as bytes, and a worker command
#: is parsed in one place, whichever medium delivered it.
_CODEC_HOME = "ShardWorkerHost"
_WORKER_COMMANDS = frozenset(
    {"configure", "register_stream", "feed_raw", "add_query", "remove_query", "stats"}
)
_PICKLE_MODULES = ("pickle", "_pickle", "cPickle")
#: Calls one ``src/repro/`` module alone makes: ``(home, callee, code,
#: advice)``.  Every XML text is read by ``EventParser``, the one expat
#: parser; an incremental standing query is run by one driver, the
#: scheduler's settle (a query evaluated on its own is a group of one).
_ONE_HOME = (
    ("src/repro/dom/parser.py", "ParserCreate", "one-tokenizer",
     "read XML through repro.dom.parser.EventParser, not an expat parser of its own"),
    ("src/repro/streams/scheduler.py", "DeltaWindow", "one-driver",
     "a DeltaWindow is opened by the scheduler's settle alone — run a query "
     "on its own through ContinuousQuery.evaluate (a group of one)"),
)
#: The declared public surface of ``src/repro/``: a name inside a code
#: span or code block of this file (relative to the tree's root).
_SURFACE_DOC = os.path.join("docs", "api.md")
_CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.S)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: One ``name = "module:function"`` line of ``[project.scripts]``.
_SCRIPT_TARGET = re.compile(r"""^\s*[\w.-]+\s*=\s*["'][\w.]+:(\w+)["']""", re.M)


def lint_sources(paths: Iterable[str]) -> list[Diagnostic]:
    """Check Python sources for pipeline-bypassing optimizer imports.

    Walks the given files/directories and reports a ``pipeline-bypass``
    diagnostic for every ``from ... optimizer import <entry point>``
    outside :mod:`repro.core.pipeline` — rewrites and analyses must run
    through the pass pipeline so their verdicts land on
    ``CompiledQuery.info`` and their identity lands in the plan-cache
    fingerprint.  An ``automata-dom-import`` diagnostic is reported when
    :mod:`repro.xquery.automata` imports the DOM node types — the
    automaton layer matches raw parse events and must never materialize
    nodes itself — a ``netproto-dom-import`` when
    :mod:`repro.streams.netproto` does (the wire layer frames bytes and
    forwards envelope text verbatim, so a DOM import there means some
    payload is being parsed on the framing hot path), and a
    ``transport-dom-import`` when :mod:`repro.streams.transport` does
    (channels and shard links move wire text; peeks are regex-only), and
    a ``net-dom-import`` when :mod:`repro.streams.net` does (the server
    relays text and probes routing predicates over parser events).
    The netproto module is additionally held *repro-free*
    (``netproto-repro-import``): both endpoints of every deployment
    embed it, so any ``repro.*`` import there couples the wire format to
    engine internals.  A ``builder-primitive`` diagnostic is reported
    for any reference to ``_Container._link_child`` outside the DOM
    builders (``_BUILDER_MODULES``): it is ``append`` minus every step a
    navigated tree needs; and for any ``DeferredElement(...)`` call outside
    ``_DEFERRED_COPY_MODULES``: the copy reads its source later, which is
    sound only over a tree the maker knows is never written.  An
    ``emission-identity`` diagnostic is reported when a ``streams/``
    module other than ``streams/continuous.py`` serializes a value it
    holds (``serialize(item)`` — building wire text from a fresh
    ``to_xml()``/``encode()`` result is something else) or defines its own
    ``item_identity``: an item's identity is computed once, by the query
    that emits it, and the shard merge relies on there being one
    definition.  A ``predicate-tier`` diagnostic is reported when a module
    under ``src/repro/`` names a routing-kernel entry point it is not the
    one importer of (``_PREDICATE_TIER``): ``DoorProbe`` belongs to
    ``streams/net.py``, ``TupleIndex`` to ``streams/scheduler.py``, and
    the per-filler DOM probe
    (``route_match`` / ``filler_values``) to nobody — so a third place to
    decide a predicate cannot come back unnoticed.  A ``delivery-timer``
    diagnostic is reported for a ``call_later`` / ``call_at`` or an
    ``asyncio.sleep`` with anything but a literal ``0`` in
    ``_DELIVERY_MODULES``: a linger on the delivery path delays every
    envelope of a connection that is keeping up and cannot help one
    that is not (its batches grow behind the writer anyway).  A
    ``worker-codec`` diagnostic is reported for a ``pickle`` import or an
    object-pickling ``Connection.send(...)`` / ``.recv()`` call under
    ``streams/`` — every shard link moves WORKER frames as bytes — and
    for a comparison against a worker command name (``"add_query"``, …)
    anywhere under ``src/repro/`` outside ``ShardWorkerHost``, the one
    place a command is parsed.  A ``one-tokenizer`` diagnostic is
    reported for a ``ParserCreate(...)`` call under ``src/repro/``
    outside ``dom/parser.py``: every XML text is read through
    ``EventParser``, so its event tuples, whitespace rule and error
    positions hold everywhere.  A ``one-driver`` diagnostic is reported
    for a ``DeltaWindow(...)`` call under ``src/repro/`` outside
    ``streams/scheduler.py``: the scheduler's settle is the one code that
    opens a delta window, for a scheduled group and for a query evaluated
    on its own alike.  An ``unreached`` diagnostic is reported for a
    function, class or method under ``src/repro/`` that no ``src/repro/``
    code names (a name, an attribute or an import; strings, comments and
    ``__all__`` do not count) and that is neither a dunder, a
    ``[project.scripts]`` entry point nor declared — a public name inside
    a code span or block of the tree's ``docs/api.md`` (a tree without one
    declares no surface and is not checked).  Unparseable
    files yield ``syntax-error`` diagnostics; the linter never raises.
    """
    diagnostics: list[Diagnostic] = []
    sources: dict[str, tuple[str, _pyast.AST]] = {}
    for path in _python_files(paths):
        normalized = path.replace(os.sep, "/")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tree = _pyast.parse(fh.read())
        except (OSError, SyntaxError, ValueError) as exc:
            diagnostics.append(Diagnostic("syntax-error", f"{path}: {exc}"))
            continue
        for suffix, (code, why) in _DOM_FREE_MODULES.items():
            if normalized.endswith(suffix):
                _check_dom_free(path, tree, code, why, diagnostics)
        if normalized.endswith("streams/netproto.py"):
            _check_repro_free(path, tree, diagnostics)
        if normalized.endswith(_DELIVERY_MODULES):
            _check_delivery_timer(path, tree, diagnostics)
        _check_builder_primitive(path, normalized, tree, diagnostics)
        if "/streams/" in "/" + normalized and not normalized.endswith(_IDENTITY_HOME):
            _check_emission_identity(path, tree, diagnostics)
        if "/src/repro/" in "/" + normalized and not normalized.endswith(_PREDICATE_HOME):
            _check_predicate_tier(path, normalized, tree, diagnostics)
        _check_worker_codec(path, normalized, tree, diagnostics)
        if "/src/repro/" in "/" + normalized:
            _check_one_home(path, normalized, tree, diagnostics)
            sources[os.path.abspath(path)] = (path, tree)
        if normalized.endswith(_PIPELINE_EXEMPT):
            continue
        for node in _pyast.walk(tree):
            if not isinstance(node, _pyast.ImportFrom):
                continue
            if not (node.module or "").endswith("optimizer"):
                continue
            for alias in node.names:
                if alias.name in PIPELINE_ONLY_NAMES or alias.name == "*":
                    diagnostics.append(
                        Diagnostic(
                            "pipeline-bypass",
                            f"{path}:{node.lineno}: import {alias.name} "
                            "from repro.core.pipeline, not the optimizer — "
                            "rewrites/analyses must run as pipeline passes",
                        )
                    )
    _check_unreached(sources, diagnostics)
    return _dedup(diagnostics)


def _check_dom_free(
    path: str, tree: _pyast.AST, code: str, why: str, out: list[Diagnostic]
) -> None:
    """Flag any import of the DOM package inside a DOM-free module."""
    for module, lineno in _imported_modules(tree):
        if module == "repro.dom" or module.startswith("repro.dom."):
            out.append(Diagnostic(code, f"{path}:{lineno}: {why}"))


def _check_repro_free(path: str, tree: _pyast.AST, out: list[Diagnostic]) -> None:
    """Flag any ``repro.*`` import inside the wire-protocol module."""
    for module, lineno in _imported_modules(tree):
        if module == "repro" or module.startswith("repro."):
            out.append(
                Diagnostic(
                    "netproto-repro-import",
                    f"{path}:{lineno}: the wire layer is embedded by every "
                    "endpoint of every deployment and must not import "
                    "repro internals — mirror constants locally instead",
                )
            )


def _check_delivery_timer(path: str, tree: _pyast.AST, out: list[Diagnostic]) -> None:
    """Flag a timer, or a sleep that is not a bare yield, on the delivery path."""
    for node in _pyast.walk(tree):
        if not isinstance(node, _pyast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "sleep":
            delay = node.args[0] if node.args else None
            if isinstance(delay, _pyast.Constant) and delay.value == 0:
                continue  # a yield to the loop, not a wait
        elif name not in _TIMER_CALLS:
            continue
        out.append(
            Diagnostic(
                "delivery-timer",
                f"{path}:{node.lineno}: {name} holds a frame back for a clock — "
                "the outbox flushes at the end of the publisher's turn and "
                "batches only behind a writer that has not caught up",
            )
        )


def _check_builder_primitive(
    path: str, normalized: str, tree: _pyast.AST, out: list[Diagnostic]
) -> None:
    """Flag the tree-builder primitive, or a deferred copy made, outside the builders."""
    may_link = normalized.endswith(_BUILDER_MODULES)
    may_defer = normalized.endswith(_DEFERRED_COPY_MODULES)
    for node in _pyast.walk(tree):
        if isinstance(node, _pyast.Attribute):
            if may_link or node.attr != _BUILDER_PRIMITIVE:
                continue
            why = (
                f"{_BUILDER_PRIMITIVE} links a child without detaching it, "
                "resetting the tag index or marking the tree dirty — only the "
                "DOM builders may use it; call append() here"
            )
        elif isinstance(node, _pyast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if may_defer or name != _DEFERRED_COPY:
                continue
            why = (
                f"{_DEFERRED_COPY} reads its source whenever it is first "
                "touched, so the source must be a store-owned version nobody "
                "writes to — only the projections may make one; call copy() here"
            )
        else:
            continue
        out.append(Diagnostic("builder-primitive", f"{path}:{node.lineno}: {why}"))


def _check_emission_identity(path: str, tree: _pyast.AST, out: list[Diagnostic]) -> None:
    """Flag a second home for the emission identity inside the streams layer."""
    for node in _pyast.walk(tree):
        if isinstance(node, _pyast.FunctionDef) and node.name in _IDENTITY_NAMES:
            why = f"{node.name} is defined in {_IDENTITY_HOME}; import it"
        elif (
            isinstance(node, _pyast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "serialize"
            and node.args
            and not isinstance(node.args[0], _pyast.Call)
        ):
            why = (
                "serializing a held item re-computes its emission identity — "
                "take ContinuousQuery.last_emitted_identities (or item_identity "
                f"from {_IDENTITY_HOME}) instead"
            )
        else:
            continue
        out.append(Diagnostic("emission-identity", f"{path}:{node.lineno}: {why}"))


def _check_predicate_tier(
    path: str, normalized: str, tree: _pyast.AST, out: list[Diagnostic]
) -> None:
    """Flag a routing-kernel entry point named outside its one importer."""
    for node in _pyast.walk(tree):
        if isinstance(node, _pyast.ImportFrom) and (node.module or "").endswith("routing"):
            names = [alias.name for alias in node.names]
        elif isinstance(node, _pyast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            home = _PREDICATE_TIER.get(name)
            if name == "*":
                why = "import the routing kernel's entry points by name"
            elif name not in _PREDICATE_TIER or (home and normalized.endswith(home)):
                continue
            elif home is None:
                why = (
                    f"{name} probes a materialized filler — the tier between "
                    "the network door (wire text) and the group's tuple index "
                    "(binding tuples) is gone; it stays in routing.py as the "
                    "reference tests hold DoorProbe to"
                )
            else:
                why = (
                    f"{name} is {home}'s: a routing predicate is decided at "
                    "the network door and in the scheduler's groups, nowhere else"
                )
            out.append(Diagnostic("predicate-tier", f"{path}:{node.lineno}: {why}"))


def _check_worker_codec(
    path: str, normalized: str, tree: _pyast.AST, out: list[Diagnostic]
) -> None:
    """Flag a second shard codec: pickled objects in streams/, or a command parsed twice."""
    if "/streams/" in "/" + normalized:
        for module, lineno in _imported_modules(tree):
            if module.split(".")[0] in _PICKLE_MODULES:
                out.append(
                    Diagnostic(
                        "worker-codec",
                        f"{path}:{lineno}: the streams layer pickles nothing — "
                        "shard links carry netproto WORKER frames as bytes",
                    )
                )
        for node in _pyast.walk(tree):
            if not (isinstance(node, _pyast.Call) and isinstance(node.func, _pyast.Attribute)):
                continue
            # Connection.send(obj) / Connection.recv() pickle; a socket's
            # recv takes a size and its writers are sendall / write.
            if node.func.attr == "send" or (node.func.attr == "recv" and not node.args):
                out.append(
                    Diagnostic(
                        "worker-codec",
                        f"{path}:{node.lineno}: .{node.func.attr}() pickles an "
                        "object — move encoded frames with send_bytes / recv_bytes",
                    )
                )
    if "/src/repro/" not in "/" + normalized:
        return
    hosted = {
        id(inner)
        for node in _pyast.walk(tree)
        if isinstance(node, _pyast.ClassDef) and node.name == _CODEC_HOME
        for inner in _pyast.walk(node)
    }
    for node in _pyast.walk(tree):
        if not isinstance(node, _pyast.Compare) or id(node) in hosted:
            continue
        operands = [node.left, *node.comparators]
        for operand in list(operands):
            if isinstance(operand, (_pyast.Tuple, _pyast.List, _pyast.Set)):
                operands.extend(operand.elts)
        names = sorted(
            {
                operand.value
                for operand in operands
                if isinstance(operand, _pyast.Constant) and operand.value in _WORKER_COMMANDS
            }
        )
        if names:
            out.append(
                Diagnostic(
                    "worker-codec",
                    f"{path}:{node.lineno}: worker command {names[0]!r} is parsed "
                    f"by {_CODEC_HOME}.serve alone — post the command tuple and "
                    "let the link encode it",
                )
            )


def _check_one_home(path: str, normalized: str, tree: _pyast.AST,
                    out: list[Diagnostic]) -> None:
    """Flag a call made outside the one module that may make it."""
    callees = {
        callee: (code, advice) for home, callee, code, advice in _ONE_HOME
        if not normalized.endswith(home)
    }
    for node in _pyast.walk(tree):
        if not isinstance(node, _pyast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, _pyast.Attribute) else getattr(func, "id", None)
        if name in callees:
            code, advice = callees[name]
            out.append(Diagnostic(code, f"{path}:{node.lineno}: {advice}"))


def _check_unreached(
    sources: dict[str, tuple[str, _pyast.AST]], out: list[Diagnostic]
) -> None:
    """Flag a linted ``src/repro/`` definition that nothing reaches.

    Reachability is read over the whole ``src/repro/`` tree of each root,
    whichever of its files were linted; only linted files are reported.
    """
    roots: dict[str, list[tuple[str, _pyast.AST]]] = {}
    for absolute, linted in sources.items():
        normalized = absolute.replace(os.sep, "/")
        root = normalized[: normalized.rindex("/src/repro/")] or "/"
        roots.setdefault(root, []).append(linted)
    for root, linted in roots.items():
        try:
            with open(os.path.join(root, _SURFACE_DOC), encoding="utf-8") as fh:
                surface = fh.read()
        except OSError:
            continue
        declared = {
            name
            for span in _CODE_SPAN.findall(surface)
            for name in _IDENTIFIER.findall(span)
            if not name.startswith("_")
        }
        exempt = declared | _entry_points(root)
        named: set[str] = set()
        for path in _python_files([os.path.join(root, "src", "repro")]):
            if os.path.abspath(path) in sources:
                tree = sources[os.path.abspath(path)][1]
            else:
                try:
                    with open(path, encoding="utf-8") as fh:
                        tree = _pyast.parse(fh.read())
                except (OSError, SyntaxError, ValueError):
                    continue  # reported as a syntax error where it is linted
            for node in _pyast.walk(tree):
                if isinstance(node, _pyast.Name):
                    named.add(node.id)
                elif isinstance(node, _pyast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, _pyast.alias):
                    named.update(node.name.split("."))
                    named.add(node.asname or node.name)
        for path, tree in linted:
            for node in _pyast.walk(tree):
                if not isinstance(
                    node, (_pyast.FunctionDef, _pyast.AsyncFunctionDef, _pyast.ClassDef)
                ):
                    continue
                name = node.name
                if name in named or name in exempt or (
                    name.startswith("__") and name.endswith("__")
                ):
                    continue
                why = (
                    "a private name cannot be declared: use it from src/ or delete it"
                    if name.startswith("_")
                    else f"delete it, or declare it in {_SURFACE_DOC} with a reason"
                )
                out.append(
                    Diagnostic(
                        "unreached",
                        f"{path}:{node.lineno}: nothing under src/repro/ names "
                        f"{name} — {why}",
                    )
                )


def _entry_points(root: str) -> set[str]:
    """The functions ``[project.scripts]`` of the root's pyproject names."""
    try:
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            _head, found, rest = fh.read().partition("[project.scripts]")
    except OSError:
        return set()
    section = rest.split("\n[", 1)[0] if found else ""
    return set(_SCRIPT_TARGET.findall(section))


def _imported_modules(tree: _pyast.AST) -> list[tuple[str, int]]:
    modules: list[tuple[str, int]] = []
    for node in _pyast.walk(tree):
        if isinstance(node, _pyast.ImportFrom):
            modules.append((node.module or "", node.lineno))
        elif isinstance(node, _pyast.Import):
            modules.extend((alias.name, node.lineno) for alias in node.names)
    return modules


def _python_files(paths: Iterable[str]) -> list[str]:
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return out


def _dedup(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    seen: set[Diagnostic] = set()
    out: list[Diagnostic] = []
    for diagnostic in diagnostics:
        if diagnostic not in seen:
            seen.add(diagnostic)
            out.append(diagnostic)
    return out
