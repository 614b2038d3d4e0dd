"""Tests for the XCQL linter and the command-line entry points."""

import pytest

from repro.core.lint import Diagnostic, lint_query
from repro.cli import figure4_main, xcql_main, xmlgen_main
from repro.fragments.persist import save_store


class TestLinter:
    def codes(self, source, credit_structure):
        return [d.code for d in lint_query(source, {"credit": credit_structure})]

    def test_clean_query(self, credit_structure):
        assert self.codes(
            'for $a in stream("credit")//account return $a/creditLimit?[now]',
            credit_structure,
        ) == []

    def test_syntax_error(self, credit_structure):
        assert self.codes("for $x in", credit_structure) == ["syntax-error"]

    def test_unknown_stream(self, credit_structure):
        codes = self.codes('stream("nope")//account', credit_structure)
        assert "unknown-stream" in codes

    def test_unknown_path(self, credit_structure):
        codes = self.codes('stream("credit")//bogus', credit_structure)
        assert "unknown-path" in codes

    def test_projection_on_snapshot(self, credit_structure):
        codes = self.codes(
            'stream("credit")//account/customer?[now]', credit_structure
        )
        assert "projection-on-snapshot" in codes

    def test_version_projection_on_snapshot(self, credit_structure):
        codes = self.codes(
            'stream("credit")//account/customer#[1]', credit_structure
        )
        assert "projection-on-snapshot" in codes

    def test_event_version_range_informational(self, credit_structure):
        codes = self.codes(
            'stream("credit")//transaction#[1, 10]', credit_structure
        )
        assert "event-version-range" in codes

    def test_temporal_projection_not_flagged(self, credit_structure):
        codes = self.codes(
            'stream("credit")//account/creditLimit#[last]', credit_structure
        )
        assert codes == []

    def test_diagnostic_str(self):
        assert str(Diagnostic("x", "y")) == "[x] y"


class TestCLIs:
    def test_xmlgen_writes_file(self, tmp_path, capsys):
        out = tmp_path / "auction.xml"
        assert xmlgen_main(["-f", "0.0", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<site>" in text

    def test_xmlgen_stdout(self, capsys):
        assert xmlgen_main(["-f", "0.0"]) == 0
        assert "<site>" in capsys.readouterr().out

    def test_xmlgen_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        xmlgen_main(["-f", "0.0", "-s", "7", "-o", str(a)])
        xmlgen_main(["-f", "0.0", "-s", "7", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_figure4_prints_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FIG4_SCALES", "0.0")
        assert figure4_main(["--scales", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "QaC+" in out and "CaQ" in out and "Q5" in out

    def test_xcql_runs_query_on_snapshot(self, credit_store, tmp_path, capsys):
        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        rc = xcql_main(
            [
                "--store", str(path),
                "--stream", "credit",
                "--query", 'count(stream("credit")//account)',
                "--now", "2003-12-15T00:00:00",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_xcql_show_translation(self, credit_store, tmp_path, capsys):
        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        xcql_main(
            [
                "--store", str(path),
                "--stream", "credit",
                "--query", 'stream("credit")//account/@id',
                "--strategy", "QaC+",
                "--show-translation",
            ]
        )
        out = capsys.readouterr().out
        assert "get_fillers_by_tsid" in out
        assert "1234" in out and "7777" in out

    def test_xcql_stats_flag(self, credit_store, tmp_path, capsys):
        import json

        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        rc = xcql_main(
            [
                "--store", str(path),
                "--stream", "credit",
                "--query", 'count(stream("credit")//account)',
                "--now", "2003-12-15T00:00:00",
                "--stats",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = out.split("-- engine stats:", 1)[1]
        stats = json.loads(payload)
        assert stats["plan_cache"]["size"] >= 1
        assert stats["plan_cache"]["evictions"] == 0
        assert stats["plan_cache"]["invalidations"] >= 1  # register_stream
        assert "automata" in stats
        assert "credit" in stats["streams"]
        assert "delta_memo" in stats["streams"]["credit"]

    def test_xcql_replay_prints_scheduler_stats(self, credit_store, tmp_path,
                                                capsys):
        import json

        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        rc = xcql_main(
            [
                "--store", str(path),
                "--stream", "credit",
                "--query",
                'for $t in stream("credit")//transaction '
                "where $t/amount > 5 return $t/@id",
                "--strategy", "QaC+",
                "--replay", "2",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fillers_replayed"] == len(credit_store.fillers_since(0))
        assert report["batch_size"] == 2
        assert report["query"]["evaluations"] >= 1
        assert "routing" in report["scheduler"]
        assert "shared_prefix" in report["scheduler"]
        assert set(report["scheduler"]["shared_residual"]) == {
            "guards_skipped", "guards_run", "body_runs", "body_reuses",
        }
        assert "automata" in report["scheduler"]
        assert "plan_cache" in report["engine"]

    def test_xcql_replay_raw_runs_the_stream_automaton(self, credit_store,
                                                       tmp_path, capsys):
        import json

        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        rc = xcql_main(
            [
                "--store", str(path),
                "--stream", "credit",
                "--query",
                'for $t in stream("credit")//transaction '
                "where $t/amount > 5 return $t/@id",
                "--strategy", "QaC+",
                "--replay", "2",
                "--raw",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        automata = report["scheduler"]["automata"]
        assert automata["registered"] == 1
        assert automata["runs"] >= 1
        assert automata["fallbacks"] == 0
        assert report["engine"]["automata"]["answers"] == automata["runs"]

    def test_xcql_raw_requires_replay(self, credit_store, tmp_path):
        path = tmp_path / "credit.store.xml"
        save_store(credit_store, path)
        with pytest.raises(SystemExit):
            xcql_main(["--store", str(path), "--query", "1", "--raw"])
