"""The unified plan-pass pipeline (PR 5).

Four layers of guarantees:

- **Golden traces**: representative queries (plain, hoisted, merge-join,
  value-join, delta-safe, shared+routing, interpreted) produce the expected per-pass
  trace, with the legacy reason strings preserved verbatim.
- **Differential**: pipeline-compiled plans are byte-identical to the
  pre-refactor compile sequence (parse → translate → hoist → lower →
  compile_module) for the whole verbatim paper-query corpus, on both
  backends, in translated source and in execution results.
- **Cache keying**: the pipeline fingerprint and the tag-structure epoch
  both participate in the plan-cache key — editing the pass list or
  re-registering a stream can never serve a stale plan.
- **Tooling**: ``lint_sources`` rejects pipeline-bypassing optimizer
  imports, and ``repro-xcql explain --passes`` emits the trace.
"""

from __future__ import annotations

import json

import pytest

from repro import TagStructure
from repro.core import Strategy, Translator, XCQLEngine
from repro.core.lint import lint_sources
from repro.core.pipeline import PassManager, PassOptions, default_passes
from repro.dom.parser import parse_document
from repro.dom.serializer import serialize
from repro.fragments.model import Filler
from repro.temporal.chrono import XSDateTime
from repro.xquery.parser import parse

# The tests replicate the pre-refactor compile sequence as the
# differential reference; production code must import these through
# repro.core.pipeline (enforced by lint_sources over src/).
from repro.core.pipeline import hoist_common_fillers, lower_interval_joins

from tests.conftest import NOW_2003_12_15
from tests.test_paper_queries_verbatim import PAPER_QUERIES, STRUCTURES

PASS_NAMES = [
    "translate",
    "hoist-fillers",
    "lower-merge-joins",
    "lower-value-joins",
    "incremental",
    "compile-stream-automaton",
]

EVENT_STRUCTURE_XML = """
<stream:structure>
  <tag type="snapshot" id="1" name="log">
    <tag type="event" id="2" name="txn">
      <tag type="snapshot" id="4" name="amount"/>
    </tag>
  </tag>
</stream:structure>
"""

EVENT_QUERY = (
    'for $t in stream("s")//txn where $t/amount > 50 '
    "return <hit>{$t/amount/text()}</hit>"
)

JOIN_QUERY = (
    'for $x in stream("s")//txn?[2003-01-01, 2003-12-31] '
    'for $y in stream("s")//txn?[2003-01-01, 2003-12-31] '
    "where $x overlaps $y return 1"
)


VALUE_JOIN_QUERY = (
    'for $x in stream("s")//txn '
    'let $a := for $t in stream("s")//txn where $t/amount = $x/amount return $t '
    "return count($a)"
)

# Queries the value-join pass sees a candidate in but declines, with the
# condition its trace must name.
DECLINED_VALUE_JOINS = {
    "correlated source": (
        'for $x in stream("s")//txn '
        "let $a := for $t in $x/amount where $t = $x/amount return $t "
        "return count($a)",
        "inner source is correlated (references $x)",
    ),
    "constructor": (
        'for $x in stream("s")//txn '
        "let $a := for $t in <amount>80</amount> where $t = $x/amount return $t "
        "return count($a)",
        "inner source contains a constructor",
    ),
    "non-= conjunct": (
        'for $x in stream("s")//txn '
        'let $a := for $t in stream("s")//txn where $t/amount >= $x/amount return $t '
        "return count($a)",
        "leading where conjunct is not a general = comparison",
    ),
}


def event_engine(**kwargs) -> XCQLEngine:
    engine = XCQLEngine(default_now=XSDateTime(2004, 1, 1), **kwargs)
    engine.register_stream("s", TagStructure.from_xml(EVENT_STRUCTURE_XML))
    return engine


def trace_by_name(compiled) -> dict:
    return {entry.name: entry for entry in compiled.info.trace}


def normalized(result) -> list[str]:
    return [
        serialize(item) if hasattr(item, "string_value") else str(item)
        for item in result
    ]


class TestGoldenTraces:
    def test_every_compile_records_all_passes_in_order(self):
        compiled = event_engine().compile('count(stream("s")//txn)')
        assert [entry.name for entry in compiled.info.trace] == PASS_NAMES

    def test_plain_query(self):
        compiled = event_engine().compile('count(stream("s")//txn)')
        trace = trace_by_name(compiled)
        assert trace["translate"].fired
        assert not trace["hoist-fillers"].fired
        assert trace["hoist-fillers"].detail == "optimize=False"
        assert not trace["lower-merge-joins"].fired
        assert not trace["incremental"].fired
        assert trace["incremental"].detail == "body is not a simple FLWOR"

    def test_hoisted_query(self, credit_engine):
        source = PAPER_QUERIES["credit_q1"]
        compiled = credit_engine.compile(source, Strategy.QAC, optimize=True)
        trace = trace_by_name(compiled)
        assert trace["hoist-fillers"].fired
        assert trace["hoist-fillers"].rewrites == compiled.hoisted_calls > 0

    def test_merge_join_query(self):
        compiled = event_engine().compile(JOIN_QUERY)
        trace = trace_by_name(compiled)
        assert trace["lower-merge-joins"].fired
        assert trace["lower-merge-joins"].rewrites == compiled.merge_joins == 1

    def test_value_join_query(self):
        engine = event_engine()
        compiled = engine.compile(VALUE_JOIN_QUERY, Strategy.QAC_PLUS)
        trace = trace_by_name(compiled)
        assert not trace["lower-merge-joins"].fired
        assert trace["lower-value-joins"].fired
        assert trace["lower-value-joins"].rewrites == compiled.merge_joins == 1
        assert trace["lower-value-joins"].detail is None
        # The analyses read the annotated plan as the FLWOR it is.
        nested = engine.compile(VALUE_JOIN_QUERY, Strategy.QAC_PLUS, merge_joins=False)
        assert nested.merge_joins == 0
        off = trace_by_name(nested)
        assert off["lower-value-joins"].detail == "merge joins disabled or interpreted backend"
        assert trace["incremental"] == off["incremental"]
        assert compiled.translated_source == nested.translated_source

    @pytest.mark.parametrize("condition", sorted(DECLINED_VALUE_JOINS))
    def test_declined_value_join_names_the_failed_condition(self, condition):
        source, reason = DECLINED_VALUE_JOINS[condition]
        compiled = event_engine().compile(source, Strategy.QAC_PLUS)
        entry = trace_by_name(compiled)["lower-value-joins"]
        assert (entry.fired, entry.rewrites, entry.detail) == (False, 0, reason)
        assert compiled.merge_joins == 0

    def test_value_join_keeps_a_delta_safe_plan_delta_safe(self):
        source = (
            'for $x in stream("s")//txn '
            "let $a := for $t in (80, 90) where $t = $x/amount return $t "
            "return count($a)"
        )
        engine = event_engine()
        lowered = engine.compile(source, Strategy.QAC_PLUS)
        nested = engine.compile(source, Strategy.QAC_PLUS, merge_joins=False)
        assert (lowered.merge_joins, nested.merge_joins) == (1, 0)
        assert lowered.info.incremental is not None
        assert lowered.info.incremental.group_key == nested.info.incremental.group_key

    def test_delta_safe_shared_routed_query(self):
        compiled = event_engine().compile(EVENT_QUERY, Strategy.QAC_PLUS)
        trace = trace_by_name(compiled)
        assert trace["incremental"].fired
        plan = compiled.info.incremental
        assert plan is not None and plan.safe
        assert trace["incremental"].detail == "/".join(str(k) for k in plan.group_key)
        assert plan.routing is not None
        assert trace["compile-stream-automaton"].fired
        assert compiled.info.automaton is not None
        assert trace["compile-stream-automaton"].detail == compiled.info.automaton.describe()

    def test_non_shared_plan_records_automaton_fallback_reason(self):
        compiled = event_engine().compile('count(stream("s")//txn)')
        trace = trace_by_name(compiled)
        assert not trace["compile-stream-automaton"].fired
        assert compiled.info.automaton is None
        assert compiled.info.automaton_reason == compiled.info.incremental_reason

    def test_interpreted_backend_keeps_legacy_reason(self):
        engine = event_engine()
        compiled = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS, backend="interpreted")
        trace = trace_by_name(compiled)
        assert not trace["incremental"].fired
        assert trace["incremental"].detail == "interpreted backend stays full-scan"
        assert not trace["lower-merge-joins"].fired
        assert engine.prepare_incremental(compiled) is None
        assert compiled.info.incremental_reason == "interpreted backend stays full-scan"

    def test_annotations_drive_prepare_without_reanalysis(self):
        engine = event_engine()
        compiled = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS)
        plan = engine.prepare_incremental(compiled)
        assert plan is not None and plan.stream == "s"
        assert plan is engine.prepare_incremental(compiled)
        assert plan.group_key == compiled.info.incremental.group_key
        assert plan.routing is compiled.info.incremental.routing


class TestExplainTrace:
    def test_explain_reports_passes_and_fingerprint(self):
        engine = event_engine()
        plan = engine.explain(EVENT_QUERY, Strategy.QAC_PLUS)
        assert [entry["name"] for entry in plan["passes"]] == PASS_NAMES
        assert all(
            set(entry) == {"name", "fired", "rewrites", "detail"}
            for entry in plan["passes"]
        )
        fingerprint = plan["fingerprint"]
        assert fingerprint == engine.pipeline.fingerprint()
        assert len(fingerprint) == 12 and int(fingerprint, 16) >= 0
        # The pre-pipeline summary keys survive unchanged.
        for key in (
            "strategy", "translated", "depends_on", "time_sensitive",
            "hoisted_calls", "incremental", "incremental_reason",
            "incremental_group", "routing_predicate",
        ):
            assert key in plan


def legacy_translated(structures, source, strategy, optimize, backend, merge_joins):
    """The pre-refactor engine.compile rewrite sequence, verbatim."""
    module = parse(source, xcql=True)
    translated = Translator(structures, strategy).translate_module(module)
    if optimize:
        translated, _ = hoist_common_fillers(translated)
    if merge_joins and backend == "compiled":
        translated, _ = lower_interval_joins(translated)
    return translated


class TestDifferentialAgainstPreRefactor:
    @pytest.fixture(scope="class")
    def all_structures(self):
        from tests.conftest import CREDIT_TAG_STRUCTURE_XML

        structures = dict(STRUCTURES)
        structures["credit"] = TagStructure.from_xml(CREDIT_TAG_STRUCTURE_XML)
        return structures

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_translated_source_is_byte_identical(
        self, all_structures, name, strategy, backend
    ):
        engine = XCQLEngine(default_now=NOW_2003_12_15)
        for stream, structure in all_structures.items():
            engine.register_stream(stream, structure)
        for optimize in (False, True):
            compiled = engine.compile(
                PAPER_QUERIES[name], strategy, optimize=optimize, backend=backend
            )
            reference = legacy_translated(
                all_structures, PAPER_QUERIES[name], strategy, optimize,
                backend, engine.merge_joins,
            )
            from repro.xquery.xast import to_source

            assert compiled.translated_source == to_source(reference)

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("name", ["credit_q1", "credit_q2", "version_window"])
    def test_execution_is_byte_identical(
        self, credit_engine, name, strategy, backend
    ):
        from repro.xquery.compiler import compile_module
        from repro.xquery.evaluator import Evaluator

        source = PAPER_QUERIES[name]
        compiled = credit_engine.compile(source, strategy, backend=backend)
        pipeline_result = normalized(credit_engine.execute(compiled))
        reference = legacy_translated(
            credit_engine.tag_structures, source, strategy, False,
            backend, credit_engine.merge_joins,
        )
        context = credit_engine.build_context()
        if backend == "compiled":
            reference_result = compile_module(reference)(context)
        else:
            reference_result = Evaluator(context).evaluate_module(reference)
        assert pipeline_result == normalized(reference_result)


class TestCacheKeying:
    def test_fingerprint_is_stable_and_spec_sensitive(self):
        manager = PassManager()
        assert manager.fingerprint() == PassManager().fingerprint()
        trimmed = PassManager(default_passes()[:-1])
        assert trimmed.fingerprint() != manager.fingerprint()

    def test_mutating_the_pipeline_invalidates_cached_plans(self):
        engine = event_engine()
        first = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS)
        assert engine.compile(EVENT_QUERY, Strategy.QAC_PLUS) is first
        engine.pipeline.passes.pop()  # drop compile-stream-automaton
        recompiled = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS)
        assert recompiled is not first
        assert recompiled.info.fingerprint != first.info.fingerprint
        assert first.info.automaton is not None
        assert recompiled.info.automaton is None
        assert len(recompiled.info.trace) == len(PASS_NAMES) - 1

    def test_version_bump_invalidates_cached_plans(self):
        engine = event_engine()
        first = engine.compile(EVENT_QUERY, Strategy.QAC_PLUS)
        engine.pipeline.passes[-1].version = 2
        assert engine.compile(EVENT_QUERY, Strategy.QAC_PLUS) is not first

    def test_register_stream_refreshes_stale_translations(self):
        engine = XCQLEngine()
        narrow = TagStructure.from_xml(EVENT_STRUCTURE_XML)
        engine.register_stream("s", narrow)
        before = engine.compile('stream("s")//txn', Strategy.QAC_PLUS)
        hits_before = engine.plan_cache_info()["hits"]
        # Same stream name, different schema: txn moves to tsid 7.
        engine.register_stream(
            "s",
            TagStructure.from_xml(
                EVENT_STRUCTURE_XML.replace('id="2"', 'id="7"')
            ),
        )
        after = engine.compile('stream("s")//txn', Strategy.QAC_PLUS)
        assert after is not before
        assert after.translated_source != before.translated_source
        assert "7" in after.translated_source
        # The epoch bump must not reset the cache counters.
        assert engine.plan_cache_info()["hits"] == hits_before

    def test_view_plans_are_epoch_keyed_too(self, credit_engine):
        source = 'count(stream("credit")//account)'
        credit_engine.execute_on_view(source)
        size = credit_engine.plan_cache_info()["size"]
        credit_engine.register_stream(
            "credit", credit_engine.tag_structures["credit"],
            credit_engine.stores["credit"],
        )
        assert credit_engine.plan_cache_info()["size"] == 0
        credit_engine.execute_on_view(source)
        assert credit_engine.plan_cache_info()["size"] <= size


class TestSourceLint:
    def test_src_tree_is_clean(self):
        assert lint_sources(["src"]) == []

    def test_bypass_import_is_flagged(self, tmp_path):
        offender = tmp_path / "sneaky.py"
        offender.write_text(
            "from repro.core.optimizer import analyze_delta\n"
        )
        findings = lint_sources([str(offender)])
        assert len(findings) == 1
        assert findings[0].code == "pipeline-bypass"
        assert "analyze_delta" in findings[0].message
        offender.write_text("from repro.core.optimizer import lower_value_joins\n")
        assert [f.code for f in lint_sources([str(offender)])] == ["pipeline-bypass"]

    def test_pipeline_module_is_exempt(self, tmp_path):
        exempt = tmp_path / "core"
        exempt.mkdir()
        module = exempt / "pipeline.py"
        module.write_text("from repro.core.optimizer import analyze_delta\n")
        assert lint_sources([str(module)]) == []

    def test_benign_imports_pass(self, tmp_path):
        benign = tmp_path / "ok.py"
        benign.write_text(
            "from repro.core.optimizer import RoutingPredicate\n"
            "from repro.core.pipeline import hoist_common_fillers\n"
        )
        assert lint_sources([str(benign)]) == []

    def test_unparseable_file_reports_not_raises(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        findings = lint_sources([str(broken)])
        assert [f.code for f in findings] == ["syntax-error"]

    def test_automata_module_may_not_import_dom(self, tmp_path):
        package = tmp_path / "xquery"
        package.mkdir()
        offender = package / "automata.py"
        offender.write_text(
            "import repro.dom.nodes\n"
            "from repro.dom.nodes import Element\n"
            "from repro.xquery import xast\n"
        )
        findings = lint_sources([str(offender)])
        assert [f.code for f in findings] == ["automata-dom-import"] * 2
        assert "DOM-free" in findings[0].message

    def test_network_server_may_not_import_dom(self, tmp_path):
        package = tmp_path / "streams"
        package.mkdir()
        offender = package / "net.py"
        offender.write_text(
            "from repro.dom.parser import parse_fragment\n"
            "from repro.streams.routing import DoorProbe\n"
        )
        findings = lint_sources([str(offender)])
        assert [f.code for f in findings] == ["net-dom-import"]
        assert "DoorProbe" in findings[0].message
        # ...and the wire layer next to it keeps its own code.
        (package / "netproto.py").write_text("import repro.dom\n")
        codes = {f.code for f in lint_sources([str(package)])}
        assert codes == {"net-dom-import", "netproto-dom-import", "netproto-repro-import"}

    def test_builder_primitive_is_private_to_the_builders(self, tmp_path):
        call = "def graft(parent, child):\n    parent._link_child(child)\n"
        offender = tmp_path / "fragments"
        offender.mkdir()
        (offender / "store.py").write_text(call)
        findings = lint_sources([str(offender)])
        assert [f.code for f in findings] == ["builder-primitive"]
        assert "append()" in findings[0].message
        # The four builders themselves may name it.
        (offender / "assemble.py").write_text(call)
        assert [f.code for f in lint_sources([str(offender / "assemble.py")])] == []

    def test_deferred_copies_are_made_only_by_the_projections(self, tmp_path):
        make = (
            "from repro.dom import nodes\n"
            "from repro.dom.nodes import DeferredElement\n"
            "def lazy(e):\n    return DeferredElement(e.tag, e.attrs, e)\n"
            "def lazier(e):\n    return nodes.DeferredElement(e.tag, e.attrs, e)\n"
            "def asks(e):\n    return isinstance(e, DeferredElement)\n"
        )
        offender = tmp_path / "fragments"
        offender.mkdir()
        (offender / "assemble.py").write_text(make)  # a builder, but not this one
        findings = lint_sources([str(offender)])
        assert [f.code for f in findings] == ["builder-primitive"] * 2
        assert all("copy()" in f.message for f in findings)
        for home in ("dom/nodes.py", "xquery/temporal_functions.py"):
            path = tmp_path / home
            path.parent.mkdir()
            path.write_text(make)
            assert lint_sources([str(path)]) == []

    def test_emission_identity_has_one_home(self, tmp_path):
        package = tmp_path / "streams"
        package.mkdir()
        again = (
            "from repro.dom.serializer import serialize\n"
            "def ship(items):\n    return [serialize(item) for item in items]\n"
            "def item_identity(item):\n    return str(item)\n"
            "def announce(structure):\n    return serialize(structure.to_xml())\n"
        )
        (package / "sharding.py").write_text(again)
        findings = lint_sources([str(package)])
        assert [f.code for f in findings] == ["emission-identity"] * 2
        assert sorted(f.message.split(":")[1] for f in findings) == ["3", "4"]
        assert any("last_emitted_identities" in f.message for f in findings)
        (package / "continuous.py").write_text(again)
        assert lint_sources([str(package / "continuous.py")]) == []
        elsewhere = tmp_path / "cli.py"
        elsewhere.write_text(again)  # printing an answer is not the streams layer
        assert lint_sources([str(elsewhere)]) == []

    def test_a_predicate_is_decided_in_two_places(self, tmp_path):
        package = tmp_path / "src" / "repro" / "streams"
        package.mkdir(parents=True)
        door = "from repro.streams.routing import DoorProbe\n"
        index = "from repro.streams.routing import TupleIndex, index_shape\n"
        (package / "net.py").write_text(door)
        (package / "scheduler.py").write_text(index)
        assert lint_sources([str(tmp_path)]) == []
        # Each kernel entry point has one importer; the per-filler probe none.
        (package / "sharding.py").write_text(
            door + index
            + "from repro.streams.routing import route_match\n"
            + "from repro.streams import routing\n"
            + "def probe(pred, filler):\n"
            + "    return routing.filler_values(pred, filler, None, None)\n"
        )
        findings = lint_sources([str(tmp_path)])
        assert [f.code for f in findings] == ["predicate-tier"] * 4
        assert sorted(f.message.split(":")[1] for f in findings) == ["1", "2", "3", "6"]
        assert any("materialized filler" in f.message for f in findings)
        # The kernel's own module defines them; tests import the reference.
        (package / "routing.py").write_text("def route_match(*args):\n    return True\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_probe.py").write_text(
            "from repro.streams.routing import route_match, DoorProbe\n"
        )
        assert len(lint_sources([str(tmp_path)])) == 4

    def test_no_timer_on_the_delivery_path(self, tmp_path):
        package = tmp_path / "streams"
        package.mkdir()
        linger = (
            "import asyncio\n"
            "def arm(loop, flush):\n    return loop.call_later(0.005, flush)\n"
            "async def wait(delay):\n"
            "    await asyncio.sleep(0)\n"
            "    await asyncio.sleep(delay)\n"
            "    await asyncio.sleep(0.001)\n"
        )
        for name in ("net.py", "netproto.py", "transport.py"):
            (package / name).write_text(linger)
            findings = lint_sources([str(package / name)])
            assert [f.code for f in findings] == ["delivery-timer"] * 3
            assert sorted(f.message.split(":")[1] for f in findings) == ["3", "6", "7"]
        (package / "sharding.py").write_text(linger)  # a tick may pace itself
        assert lint_sources([str(package / "sharding.py")]) == []

    def test_one_worker_codec(self, tmp_path):
        package = tmp_path / "src" / "repro" / "streams"
        package.mkdir(parents=True)
        (package / "sharding.py").write_text(
            "import pickle\n"
            "from multiprocessing import Pipe\n"
            "class PipeLink:\n"
            "    def post(self, msg):\n"
            "        self.conn.send(msg)\n"
            "        return self.conn.recv()\n"
            "    def frames(self, data):\n"
            "        self.conn.send_bytes(data)\n"
            "        return self.sock.recv(65536), self.conn.recv_bytes()\n"
            "def remap(cmd, args):\n"
            "    if cmd == 'add_query':\n"
            "        return args\n"
            "    return cmd in ('stats', 'poll')\n"
            "class ShardWorkerHost:\n"
            "    def _run(self, cmd):\n"
            "        return cmd == 'register_stream'\n"
        )
        findings = lint_sources([str(tmp_path)])
        assert [f.code for f in findings] == ["worker-codec"] * 5
        assert sorted(int(f.message.split(":")[1]) for f in findings) == [1, 5, 6, 11, 13]
        assert any("send_bytes" in f.message for f in findings)
        assert any("'stats'" in f.message for f in findings)
        # Comparing a command name is the streams' business only in src/;
        # a test scripting its own ops may name them.
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_ops.py").write_text(
            "def run(kind):\n    return kind == 'feed_raw'\n"
        )
        assert len(lint_sources([str(tmp_path)])) == 5

    def test_one_tokenizer_in_the_streams_layer(self, tmp_path):
        package = tmp_path / "src" / "repro" / "streams"
        package.mkdir(parents=True)
        (package / "routing.py").write_text(
            "import pyexpat\n"
            "from xml.parsers.expat import ParserCreate\n"
            "from repro.dom.parser import EventParser\n"
            "def events(text):\n"
            "    parser = EventParser(fragment=True)\n"
            "    return parser.feed(text) + parser.close()\n"
            "def raw(text):\n"
            "    ParserCreate().Parse(text, True)\n"
            "    return pyexpat.ParserCreate()\n"
        )
        findings = lint_sources([str(tmp_path)])
        assert [f.code for f in findings] == ["one-tokenizer"] * 2
        assert sorted(int(f.message.split(":")[1]) for f in findings) == [8, 9]
        assert all("EventParser" in f.message for f in findings)
        # The parser module is the expat parser's home; tests may build their own.
        for home in ("src/repro/dom/parser.py", "tests/test_expat.py"):
            path = tmp_path / home
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("from pyexpat import ParserCreate\nParserCreate()\n")
        assert len(lint_sources([str(tmp_path)])) == 2
        # Outside the streams layer too: every module reads XML one way.
        (tmp_path / "src" / "repro" / "core").mkdir()
        (tmp_path / "src" / "repro" / "core" / "engine.py").write_text(
            "import pyexpat\npyexpat.ParserCreate()\n"
        )
        assert len(lint_sources([str(tmp_path)])) == 3

    def test_one_driver_opens_delta_windows(self, tmp_path):
        package = tmp_path / "src" / "repro" / "streams"
        package.mkdir(parents=True)
        (package / "continuous.py").write_text(
            "class DeltaWindow:\n"
            "    pass\n"
            "def window(store, plan, seq):\n"
            "    return DeltaWindow(store, plan, seq)\n"
            "def other(module, store, plan):\n"
            "    return module.DeltaWindow(store, plan, 0)\n"
        )
        findings = lint_sources([str(tmp_path)])
        assert [f.code for f in findings] == ["one-driver"] * 2
        assert sorted(int(f.message.split(":")[1]) for f in findings) == [4, 6]
        assert all("evaluate" in f.message for f in findings)
        # The scheduler's settle opens them; tests may build their own.
        for home in ("src/repro/streams/scheduler.py", "tests/test_window.py"):
            path = tmp_path / home
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("def settle(store, plan):\n    return DeltaWindow(store, plan, 0)\n")
        assert len(lint_sources([str(tmp_path)])) == 2

    def test_dom_imports_fine_outside_automata(self, tmp_path):
        benign = tmp_path / "host.py"
        benign.write_text("from repro.dom.nodes import Element\n")
        assert lint_sources([str(benign)]) == []


class TestCLI:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        from repro.fragments.persist import save_store
        from repro.fragments.store import FragmentStore

        store = FragmentStore(TagStructure.from_xml(EVENT_STRUCTURE_XML))
        store.extend([
            Filler(
                0, 1, XSDateTime(2003, 1, 1),
                parse_document('<log><hole id="1" tsid="2"/></log>').document_element,
            ),
            Filler(
                1, 2, XSDateTime(2003, 1, 2),
                parse_document("<txn><amount>80</amount></txn>").document_element,
            ),
        ])
        path = tmp_path / "store.xml"
        save_store(store, str(path))
        return str(path)

    def test_explain_with_passes(self, snapshot, capsys):
        from repro.cli import xcql_main

        code = xcql_main([
            "explain", "--store", snapshot, "--stream", "s",
            "--query", EVENT_QUERY, "--strategy", Strategy.QAC_PLUS.value,
            "--passes",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in report["passes"]] == PASS_NAMES
        assert report["incremental"] is True
        assert len(report["fingerprint"]) == 12

    def test_explain_passes_show_the_value_join(self, snapshot, capsys):
        from repro.cli import xcql_main

        def passes_of(source: str) -> dict:
            code = xcql_main([
                "explain", "--store", snapshot, "--stream", "s",
                "--query", source, "--strategy", Strategy.QAC_PLUS.value,
                "--passes",
            ])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert [entry["name"] for entry in report["passes"]] == PASS_NAMES
            return {entry["name"]: entry for entry in report["passes"]}

        fired = passes_of(VALUE_JOIN_QUERY)["lower-value-joins"]
        assert (fired["fired"], fired["rewrites"], fired["detail"]) == (True, 1, None)
        for source, reason in DECLINED_VALUE_JOINS.values():
            declined = passes_of(source)["lower-value-joins"]
            assert (declined["fired"], declined["rewrites"]) == (False, 0)
            assert declined["detail"] == reason

    def test_explain_without_passes_omits_trace(self, snapshot, capsys):
        from repro.cli import xcql_main

        code = xcql_main([
            "explain", "--store", snapshot, "--stream", "s",
            "--query", EVENT_QUERY,
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "passes" not in report and "fingerprint" not in report
        assert report["translated"]

    def test_run_is_the_default_command(self, snapshot, capsys):
        from repro.cli import xcql_main

        code = xcql_main([
            "--store", snapshot, "--stream", "s", "--query", EVENT_QUERY,
            "--now", "2003-06-01T00:00:00",
        ])
        assert code == 0
        assert "<hit>" in capsys.readouterr().out

    def test_passes_requires_explain(self, snapshot):
        from repro.cli import xcql_main

        with pytest.raises(SystemExit):
            xcql_main([
                "run", "--store", snapshot, "--stream", "s",
                "--query", EVENT_QUERY, "--passes",
            ])

    def test_lint_main_clean_and_dirty(self, tmp_path, capsys):
        from repro.cli import lint_main

        assert lint_main(["src"]) == 0
        assert "clean" in capsys.readouterr().out
        offender = tmp_path / "bad.py"
        offender.write_text("from repro.core.optimizer import analyze_delta\n")
        assert lint_main([str(offender)]) == 1
        assert "pipeline-bypass" in capsys.readouterr().out
